#include "core/driver.hpp"

#include <stdexcept>

#include "core/poramb.hpp"
#include "core/s_ecdsa.hpp"
#include "core/scianc.hpp"
#include "core/sts.hpp"
#include "core/transport.hpp"

namespace ecqv::proto {

std::vector<std::pair<std::string, std::size_t>> HandshakeResult::step_sizes() const {
  std::vector<std::pair<std::string, std::size_t>> out;
  out.reserve(transcript.size());
  for (const auto& m : transcript) out.emplace_back(m.step, m.size());
  return out;
}

HandshakeResult run_handshake(Party& initiator, Party& responder) {
  // Two parties alternate directly; the transcript records each message in
  // wire order, the rejected one included.
  HandshakeResult result;
  std::optional<Message> first = initiator.start();
  if (first.has_value()) {
    const auto exchanged =
        alternate(std::move(*first), [&](bool to_responder, const Message& message) {
          result.transcript.push_back(message);
          return (to_responder ? responder : initiator).on_message(message);
        });
    // A two-party handshake cannot survive a single casualty: the first
    // rejection (tampered message, bad MAC, wrong state) is THE failure.
    if (!exchanged.ok()) {
      result.error = exchanged.error();
      return result;
    }
  }
  result.success = initiator.established() && responder.established();
  if (!result.success && result.error == Error::kOk) result.error = Error::kBadState;
  return result;
}

PartyPair make_parties(ProtocolKind kind, const Credentials& initiator_creds,
                       const Credentials& responder_creds, rng::Rng& initiator_rng,
                       rng::Rng& responder_rng, std::uint64_t now) {
  PartyPair pair;
  switch (kind) {
    case ProtocolKind::kSts:
    case ProtocolKind::kStsOptI:
    case ProtocolKind::kStsOptII: {
      StsConfig config;
      config.now = now;
      config.variant = kind == ProtocolKind::kSts ? StsVariant::kBaseline
                       : kind == ProtocolKind::kStsOptI ? StsVariant::kOptI
                                                        : StsVariant::kOptII;
      pair.initiator = std::make_unique<StsInitiator>(initiator_creds, initiator_rng, config);
      pair.responder = std::make_unique<StsResponder>(responder_creds, responder_rng, config);
      return pair;
    }
    case ProtocolKind::kSEcdsa:
    case ProtocolKind::kSEcdsaExt: {
      SEcdsaConfig config;
      config.now = now;
      config.extended = kind == ProtocolKind::kSEcdsaExt;
      pair.initiator = std::make_unique<SEcdsaInitiator>(initiator_creds, initiator_rng, config);
      pair.responder = std::make_unique<SEcdsaResponder>(responder_creds, responder_rng, config);
      return pair;
    }
    case ProtocolKind::kScianc: {
      SciancConfig config;
      config.now = now;
      pair.initiator = std::make_unique<SciancInitiator>(initiator_creds, initiator_rng, config);
      pair.responder = std::make_unique<SciancResponder>(responder_creds, responder_rng, config);
      return pair;
    }
    case ProtocolKind::kPoramb: {
      PorambConfig config;
      config.now = now;
      pair.initiator = std::make_unique<PorambInitiator>(initiator_creds, initiator_rng, config);
      pair.responder = std::make_unique<PorambResponder>(responder_creds, responder_rng, config);
      return pair;
    }
  }
  throw std::logic_error("make_parties: unknown protocol kind");
}

}  // namespace ecqv::proto
