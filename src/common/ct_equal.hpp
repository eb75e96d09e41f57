// Constant-time comparison for secret-derived bytes.
//
// Every tag/MAC check in the library routes through here so the decision
// "reject" never leaks WHERE the mismatch was through early-exit timing:
// the full input is always scanned and the verdict is accumulated without
// a data-dependent branch. Used by SecureChannel::open (record MACs), the
// AEAD suites (GCM/CCM tags) and the RK1/RK2 ratchet announcements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ecqv {

using CtByteView = std::span<const std::uint8_t>;

/// Constant-time equality over equally-sized views; returns false on size
/// mismatch without inspecting contents. (Sizes are public — lengths travel
/// on the wire — only the CONTENT comparison must not branch.)
bool ct_equal(CtByteView a, CtByteView b);

}  // namespace ecqv
