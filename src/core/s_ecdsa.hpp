// S-ECDSA: static-key-derivation baseline (Basic et al. [5], extended per
// Porambage-style finished messages).
//
// Wire format (Table II):
//   A1: ID(16) || Nonce(32)                          =  48 B
//   B1: ID(16) || Cert(101) || Sign(64) || Nonce(32) = 213 B
//   A2: Cert(101) || Sign(64)                        = 165 B
//   B2: ACK(1)              [ext: || Fin(96)]
//   A3:                     [ext: Fin(96)]
//   total: 427 B (+192 B ext), 4(+1) steps
//
// Semantics: the nonces are *signed* (mutual authentication freshness) but
// do not enter the key derivation — the session key is the static
// Diffie-Hellman secret d_A*Q_B = d_B*Q_A through the KDF, salted only by
// the identities. That is precisely the paper's SKD critique: the key is
// tied to the certificate session, so every communication session under the
// same certificates transports data under the same key (Table III: data
// exposure ✗, key data reuse ✗). The implicit public key of the peer is
// extracted freshly during the handshake (eq. (1)), as is the static ECDH —
// matching the operation counts behind Table I's S-ECDSA row.
//
// The extended variant appends encrypted finished messages (key
// confirmation) in both directions, adding 2 x 96 B.
#pragma once

#include "core/credentials.hpp"
#include "core/party.hpp"

namespace ecqv::proto {

struct SEcdsaConfig {
  std::uint64_t now = 0;
  bool extended = false;  // finished-message extension
};

class SEcdsaInitiator final : public Party {
 public:
  SEcdsaInitiator(const Credentials& creds, rng::Rng& rng, SEcdsaConfig config = {});

  std::optional<Message> start() override;
  Result<std::optional<Message>> on_message(const Message& incoming) override;
  [[nodiscard]] bool established() const override { return state_ == State::kEstablished; }
  [[nodiscard]] const kdf::SessionKeys& session_keys() const override { return keys_; }
  [[nodiscard]] const cert::DeviceId& peer_id() const override { return peer_id_; }

 private:
  enum class State { kIdle, kAwaitB1, kAwaitAck, kEstablished, kFailed };

  const Credentials& creds_;
  rng::Rng& rng_;
  SEcdsaConfig config_;
  State state_ = State::kIdle;

  Bytes nonce_a_;
  Bytes nonce_b_;
  Bytes transcript_;
  kdf::SessionKeys keys_;
  cert::DeviceId peer_id_;
};

class SEcdsaResponder final : public Party {
 public:
  SEcdsaResponder(const Credentials& creds, rng::Rng& rng, SEcdsaConfig config = {});

  std::optional<Message> start() override { return std::nullopt; }
  Result<std::optional<Message>> on_message(const Message& incoming) override;
  [[nodiscard]] bool established() const override { return state_ == State::kEstablished; }
  [[nodiscard]] const kdf::SessionKeys& session_keys() const override { return keys_; }
  [[nodiscard]] const cert::DeviceId& peer_id() const override { return peer_id_; }

 private:
  enum class State { kAwaitA1, kAwaitA2, kAwaitFin, kEstablished, kFailed };

  const Credentials& creds_;
  rng::Rng& rng_;
  SEcdsaConfig config_;
  State state_ = State::kAwaitA1;

  Bytes nonce_a_;
  Bytes nonce_b_;
  Bytes transcript_;
  kdf::SessionKeys keys_;
  cert::DeviceId peer_id_;
};

namespace s_ecdsa_detail {

inline constexpr std::string_view kKdfLabel = "ecqv-secdsa-v1";
inline constexpr std::size_t kNonceSize = 32;
inline constexpr std::size_t kFinSize = 96;

/// Signature input: signer id, then the peer's nonce, then the signer's own
/// nonce (freshness from both sides, identity binding).
Bytes sign_input(const cert::DeviceId& signer, ByteView peer_nonce, ByteView own_nonce);

/// Encrypted finished message: IV(16) || CBC(MAC(32) || transcript_hash(32)
/// || zero-pad(16)). 96 bytes total.
Bytes make_fin(const kdf::SessionKeys& keys, Role sender, ByteView transcript, rng::Rng& rng);
bool verify_fin(const kdf::SessionKeys& keys, Role sender, ByteView transcript, ByteView fin);

}  // namespace s_ecdsa_detail

}  // namespace ecqv::proto
