// Handshake driver: alternates messages between two parties until both are
// established (or one fails), recording the transcript. This is the
// two-party runner used by tests, the Table II bench (byte-exact overhead)
// and the attack harness; the CAN-FD runner in src/canfd adds real
// transport timing on top.
#pragma once

#include <memory>

#include "core/credentials.hpp"
#include "core/party.hpp"
#include "core/protocol_ids.hpp"

namespace ecqv::proto {

struct HandshakeResult {
  bool success = false;
  Error error = Error::kOk;
  Transcript transcript;

  /// Step labels with payload sizes, e.g. {"A1", 80}, in wire order
  /// (convenience view over `transcript` for Table II).
  [[nodiscard]] std::vector<std::pair<std::string, std::size_t>> step_sizes() const;
  [[nodiscard]] std::size_t total_bytes() const { return transcript_bytes(transcript); }
};

/// Runs a complete handshake, one message in flight at a time. A pair that
/// is still talking after kMaxExchange messages fails with kBadState.
HandshakeResult run_handshake(Party& initiator, Party& responder);

/// Instantiates both endpoints of any of the seven protocol variants.
struct PartyPair {
  std::unique_ptr<Party> initiator;
  std::unique_ptr<Party> responder;
};
PartyPair make_parties(ProtocolKind kind, const Credentials& initiator_creds,
                       const Credentials& responder_creds, rng::Rng& initiator_rng,
                       rng::Rng& responder_rng, std::uint64_t now);

}  // namespace ecqv::proto
