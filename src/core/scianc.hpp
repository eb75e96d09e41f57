// SCIANC: Sciancalepore et al. [4] — "Public Key Authentication and Key
// Agreement in IoT Devices With Minimal Airtime Consumption".
//
// Wire format (Table II):
//   A1: ID(16) || Nonce(32) || Cert(101) = 149 B
//   B1: ID(16) || Nonce(32) || Cert(101) = 149 B
//   A2: AuthMAC(32)
//   B2: AuthMAC(32)
//   total: 362 B, 4 steps
//
// Semantics, per the paper's analysis (§III, §V-D):
//  * The session key is KDF(static DH secret, Nonce_A || Nonce_B): the
//    nonces diversify KS per communication session, but the underlying
//    secret is still the static SKD product — anyone who later obtains a
//    private key can recompute every session's KS from the recorded public
//    nonces (Table III: data exposure ✗, key data reuse ∆).
//  * Authentication is symmetric: the AuthMACs are keyed with material
//    derived from KS itself — "ties its session key with the KD
//    authentication, meaning that if the session key gets exploited so will
//    the future authentication" (∆).
//  * Airtime minimization: peer implicit public keys are extracted once and
//    cached across communication sessions (the protocol's stated goal), so
//    a warm session costs one ECDH scalar multiplication per device — the
//    op-count shape behind SCIANC's fast Table I row.
#pragma once

#include "core/credentials.hpp"
#include "core/party.hpp"

namespace ecqv::proto {

struct SciancConfig {
  std::uint64_t now = 0;
};

class SciancInitiator final : public Party {
 public:
  SciancInitiator(const Credentials& creds, rng::Rng& rng, SciancConfig config = {});

  std::optional<Message> start() override;
  Result<std::optional<Message>> on_message(const Message& incoming) override;
  [[nodiscard]] bool established() const override { return state_ == State::kEstablished; }
  [[nodiscard]] const kdf::SessionKeys& session_keys() const override { return keys_; }
  [[nodiscard]] const cert::DeviceId& peer_id() const override { return peer_id_; }

 private:
  enum class State { kIdle, kAwaitB1, kAwaitB2, kEstablished, kFailed };

  const Credentials& creds_;
  rng::Rng& rng_;
  SciancConfig config_;
  State state_ = State::kIdle;

  Bytes nonce_a_;
  Bytes transcript_;
  kdf::SessionKeys keys_;
  cert::DeviceId peer_id_;
};

class SciancResponder final : public Party {
 public:
  SciancResponder(const Credentials& creds, rng::Rng& rng, SciancConfig config = {});

  std::optional<Message> start() override { return std::nullopt; }
  Result<std::optional<Message>> on_message(const Message& incoming) override;
  [[nodiscard]] bool established() const override { return state_ == State::kEstablished; }
  [[nodiscard]] const kdf::SessionKeys& session_keys() const override { return keys_; }
  [[nodiscard]] const cert::DeviceId& peer_id() const override { return peer_id_; }

 private:
  enum class State { kAwaitA1, kAwaitA2, kEstablished, kFailed };

  const Credentials& creds_;
  rng::Rng& rng_;
  SciancConfig config_;
  State state_ = State::kAwaitA1;

  Bytes nonce_b_;
  Bytes transcript_;
  kdf::SessionKeys keys_;
  cert::DeviceId peer_id_;
};

namespace scianc_detail {
inline constexpr std::string_view kKdfLabel = "ecqv-scianc-v1";
inline constexpr std::size_t kNonceSize = 32;
inline constexpr std::size_t kMacSize = 32;

/// AuthMAC: HMAC(KS.mac_key, role || SHA-256(A1 || B1)).
Bytes auth_mac(const kdf::SessionKeys& keys, Role sender, ByteView transcript);
}  // namespace scianc_detail

}  // namespace ecqv::proto
