// Byte-buffer utilities shared by every subsystem.
//
// The library deliberately uses a thin alias over std::vector<uint8_t> plus
// span-based free functions instead of a bespoke buffer class: protocol
// messages, certificates, hashes and keys are all just byte strings, and the
// C++ Core Guidelines favour vocabulary types (SL.con) over wrappers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/ct_equal.hpp"  // ct_equal

namespace ecqv {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;
using ByteSpan = std::span<std::uint8_t>;

/// Appends `src` to `dst`; returns `dst` for chaining.
Bytes& append(Bytes& dst, ByteView src);

/// Concatenates any number of byte views into a fresh buffer.
Bytes concat(std::initializer_list<ByteView> parts);

/// Builds a buffer from a string's raw bytes (no terminator).
Bytes bytes_of(std::string_view text);

// ct_equal(ByteView, ByteView) comes from common/ct_equal.hpp (ByteView is
// the same std::span<const std::uint8_t> as CtByteView there).

/// XOR `src` into `dst` element-wise; both views must have equal size.
void xor_into(ByteSpan dst, ByteView src);

/// Big-endian 16/32/64-bit integer store/load helpers used by the codecs.
void store_be16(ByteSpan out, std::uint16_t v);
void store_be32(ByteSpan out, std::uint32_t v);
void store_be64(ByteSpan out, std::uint64_t v);
std::uint16_t load_be16(ByteView in);
std::uint32_t load_be32(ByteView in);
std::uint64_t load_be64(ByteView in);

}  // namespace ecqv
