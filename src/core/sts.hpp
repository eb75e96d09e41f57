// Station-to-Station key derivation over ECQV implicit certificates —
// the paper's contribution (§IV, Fig. 2, Algorithms 1 & 2).
//
//   ALICE                                   BOB
//   Gen XG_A            --(ID_A, XG_A)-->
//                                           Gen XG_B
//                                           Derive key KS
//                                           Authentication Resp_B
//                       <--(ID_B, Cert_B, XG_B, Resp_B)--
//   Derive pub. key Q_B
//   Derive key KS
//   Verify Resp_B
//   Authentication Resp_A
//                       --(Cert_A, Resp_A)-->
//                                           Derive pub. key Q_A
//                                           Verify Resp_A
//                       <--(ACK)--
//
// with (paper eqs. (2)-(4)):
//   XG_X = X * G,  X ∈R [1, n-1]                      (ephemeral points)
//   KPM  = X_A * XG_B = X_B * XG_A                    (premaster)
//   KS   = KDF(KPM, salt)
//   Resp_X = Enc_KS(Sign_X(XG_X || XG_peer))          (Algorithm 1)
// and verification via the implicit public key Q_X = Hn(Cert_X)*P_X + Q_CA
// (Algorithm 2 / eq. (1)).
//
// Optimization variants (§IV-C): Opt. I and Opt. II move Cert_A into the
// initial request (content order varies, transmitted bytes identical —
// exactly as the paper states) so the responder can run its public-key
// derivation, premaster computation and even its signature generation
// while the initiator is still busy with its own Op2/Op3. The wire data is
// the same 491 bytes; the win is scheduling, reproduced by sim/schedule.
#pragma once

#include "aead/suite.hpp"
#include "core/credentials.hpp"
#include "core/party.hpp"
#include "core/protocol_ids.hpp"
#include "rng/rng.hpp"

namespace ecqv::proto {

class PeerKeyCache;  // core/peer_cache.hpp

enum class StsVariant : std::uint8_t { kBaseline, kOptI, kOptII };

struct StsConfig {
  std::uint64_t now = 0;  // unix time for certificate validity
  StsVariant variant = StsVariant::kBaseline;
  /// Optional per-peer authentication cache (the broker shares one across
  /// all its handshakes): implicit public key extraction hits the cache
  /// instead of re-running eq. (1), and response verification runs over the
  /// peer's cached wNAF table. Null keeps the self-contained two-party
  /// behaviour.
  PeerKeyCache* peer_cache = nullptr;
  /// AEAD record-suite offer bitmask (aead::kOffer*): bit i offers suite id
  /// i for the post-handshake records. The default keeps every handshake
  /// byte — and the resulting v2 records — exactly as before; any broader
  /// mask appends one offer byte to A1 and one confirm byte to B1, and both
  /// bytes are folded into the data each side signs, so stripping or
  /// rewriting the negotiation breaks the handshake (no silent downgrade).
  /// The agreed suite lands in session_keys().suite.
  std::uint8_t offered_suites = aead::kOfferLegacy;
};

class StsInitiator final : public Party {
 public:
  StsInitiator(const Credentials& creds, rng::Rng& rng, StsConfig config = {});
  /// Wipes the derived session keys and the ephemeral secret X_A: once the
  /// keys are installed in a session store, no copy outlives the party.
  ~StsInitiator() override;

  std::optional<Message> start() override;
  Result<std::optional<Message>> on_message(const Message& incoming) override;
  [[nodiscard]] bool established() const override { return state_ == State::kEstablished; }
  [[nodiscard]] const kdf::SessionKeys& session_keys() const override { return keys_; }
  [[nodiscard]] const cert::DeviceId& peer_id() const override { return peer_id_; }

 private:
  enum class State { kIdle, kAwaitB1, kAwaitAck, kEstablished, kFailed };

  const Credentials& creds_;
  rng::Rng& rng_;
  StsConfig config_;
  State state_ = State::kIdle;

  bi::U256 xa_;               // ephemeral secret X_A
  Bytes xga_;                 // XG_A, raw 64-byte encoding
  Bytes xgb_;                 // XG_B as received
  bool offering_ = false;     // A1 carried a suite-offer byte
  std::array<std::uint8_t, 2> nego_{};  // {offer, confirm} when offering_
  kdf::SessionKeys keys_;
  cert::DeviceId peer_id_;
};

class StsResponder final : public Party {
 public:
  StsResponder(const Credentials& creds, rng::Rng& rng, StsConfig config = {});
  /// Wipes the derived session keys and the ephemeral secret X_B.
  ~StsResponder() override;

  std::optional<Message> start() override { return std::nullopt; }
  Result<std::optional<Message>> on_message(const Message& incoming) override;
  [[nodiscard]] bool established() const override { return state_ == State::kEstablished; }
  [[nodiscard]] const kdf::SessionKeys& session_keys() const override { return keys_; }
  [[nodiscard]] const cert::DeviceId& peer_id() const override { return peer_id_; }

 private:
  enum class State { kAwaitA1, kAwaitA2, kEstablished, kFailed };

  Result<std::optional<Message>> handle_a1(const Message& incoming);
  Result<std::optional<Message>> handle_a2(const Message& incoming);

  const Credentials& creds_;
  rng::Rng& rng_;
  StsConfig config_;
  State state_ = State::kAwaitA1;

  bi::U256 xb_;
  Bytes xgb_;
  Bytes xga_;
  ec::AffinePoint peer_public_;   // Q_A (opt variants derive it early)
  bool have_peer_public_ = false;
  std::optional<cert::Certificate> peer_cert_;  // kept for cached-table verify
  bool nego_active_ = false;      // peer's A1 carried a suite offer
  std::array<std::uint8_t, 2> nego_{};  // {offer, confirm} when active
  kdf::SessionKeys keys_;
  cert::DeviceId peer_id_;
};

/// Shared helpers (also used by the attack harness to build adversarial
/// messages).
namespace sts_detail {

/// Session-key derivation salt: ID_A || ID_B.
Bytes kd_salt(const cert::DeviceId& initiator, const cert::DeviceId& responder);

/// Domain-separation label fed to the KDF.
inline constexpr std::string_view kKdfLabel = "ecqv-sts-v1";

/// Encrypts/decrypts a 64-byte Resp under the session keys; the IV is the
/// session IV seed tweaked per direction so the two responses never share
/// a keystream.
Bytes crypt_resp(const kdf::SessionKeys& keys, Role sender, ByteView resp);

/// Signature input per Algorithm 1: own XG first, peer's second. When the
/// handshake carries a suite negotiation, the {offer, confirm} byte pair is
/// appended so both signatures pin the negotiation outcome (empty for the
/// legacy wire format, keeping those signatures byte-identical).
Bytes resp_sign_input(ByteView own_xg, ByteView peer_xg, ByteView nego = {});

}  // namespace sts_detail

}  // namespace ecqv::proto
