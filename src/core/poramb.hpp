// PORAMB: Porambage et al. [3] — two-phase authentication protocol for
// wireless sensor networks.
//
// Wire format (Table II):
//   A1: Hello(32) || ID(16)                =  48 B
//   B1: Hello(32) || ID(16)                =  48 B
//   A2: Cert(101) || Nonce(32) || MAC(32)  = 165 B
//   B2: Cert(101) || Nonce(32) || MAC(32)  = 165 B
//   A3: Finish(197)                        = 197 B
//   B3: Finish(197)                        = 197 B
//   total: 820 B, 6 steps
//
// Semantics, per the paper's analysis (§III, §V-D):
//  * Authentication MACs are keyed with *pre-embedded pairwise keys* — each
//    node must store one key per peer ("requires that each node possesses
//    from each other the authentication key"), which Table III flags as the
//    update/scalability problem (auth ∆).
//  * The session key is the static SKD product through the KDF, salted only
//    by identities: nonces and hellos provide handshake freshness, not key
//    freshness. Every communication session under the same certificates
//    reuses the key (data exposure ✗, key data reuse ✗).
//  * Both the implicit public key extraction and the ECDH run fresh each
//    handshake (two scalar multiplications per device — the op-count shape
//    behind PORAMB's mid-pack Table I row).
#pragma once

#include "core/credentials.hpp"
#include "core/party.hpp"

namespace ecqv::proto {

struct PorambConfig {
  std::uint64_t now = 0;
};

class PorambInitiator final : public Party {
 public:
  PorambInitiator(const Credentials& creds, rng::Rng& rng, PorambConfig config = {});

  std::optional<Message> start() override;
  Result<std::optional<Message>> on_message(const Message& incoming) override;
  [[nodiscard]] bool established() const override { return state_ == State::kEstablished; }
  [[nodiscard]] const kdf::SessionKeys& session_keys() const override { return keys_; }
  [[nodiscard]] const cert::DeviceId& peer_id() const override { return peer_id_; }

 private:
  enum class State { kIdle, kAwaitB1, kAwaitB2, kAwaitFinish, kEstablished, kFailed };

  const Credentials& creds_;
  rng::Rng& rng_;
  PorambConfig config_;
  State state_ = State::kIdle;

  Bytes hello_a_;
  Bytes hello_b_;
  Bytes nonce_a_;
  Bytes nonce_b_;
  Bytes peer_cert_bytes_;  // authenticated in phase 2, checked in finish
  kdf::SessionKeys keys_;
  cert::DeviceId peer_id_;
};

class PorambResponder final : public Party {
 public:
  PorambResponder(const Credentials& creds, rng::Rng& rng, PorambConfig config = {});

  std::optional<Message> start() override { return std::nullopt; }
  Result<std::optional<Message>> on_message(const Message& incoming) override;
  [[nodiscard]] bool established() const override { return state_ == State::kEstablished; }
  [[nodiscard]] const kdf::SessionKeys& session_keys() const override { return keys_; }
  [[nodiscard]] const cert::DeviceId& peer_id() const override { return peer_id_; }

 private:
  enum class State { kAwaitA1, kAwaitA2, kAwaitFinish, kEstablished, kFailed };

  const Credentials& creds_;
  rng::Rng& rng_;
  PorambConfig config_;
  State state_ = State::kAwaitA1;

  Bytes hello_a_;
  Bytes hello_b_;
  Bytes nonce_a_;
  Bytes nonce_b_;
  Bytes peer_cert_bytes_;
  kdf::SessionKeys keys_;
  cert::DeviceId peer_id_;
};

namespace poramb_detail {
inline constexpr std::string_view kKdfLabel = "ecqv-poramb-v1";
inline constexpr std::size_t kHelloSize = 32;
inline constexpr std::size_t kNonceSize = 32;
inline constexpr std::size_t kMacSize = 32;
inline constexpr std::size_t kFinishSize = 197;  // Cert(101) + MAC(32) + Confirm(64)

/// Phase-2 authentication MAC under the pre-shared pairwise key:
/// HMAC(pairwise, peer_hello || nonce || id || cert).
Bytes phase_mac(const PairwiseKey& key, ByteView peer_hello, ByteView nonce,
                const cert::DeviceId& id, ByteView certificate);

/// Finish message: Cert || HMAC(KS.mac, role || hellos) || CTR-encrypted
/// confirmation (hello_a || hello_b).
Bytes make_finish(const kdf::SessionKeys& keys, Role sender, ByteView certificate,
                  ByteView hello_a, ByteView hello_b);
bool verify_finish(const kdf::SessionKeys& keys, Role sender, ByteView expected_cert,
                   ByteView hello_a, ByteView hello_b, ByteView finish);
}  // namespace poramb_detail

}  // namespace ecqv::proto
