#include <algorithm>

#include "core/poramb.hpp"

#include "aes/modes.hpp"
#include "ecqv/scheme.hpp"
#include "hash/hmac.hpp"

namespace ecqv::proto {

namespace poramb_detail {

Bytes phase_mac(const PairwiseKey& key, ByteView peer_hello, ByteView nonce,
                const cert::DeviceId& id, ByteView certificate) {
  const hash::Digest mac =
      hash::hmac_sha256(key, {peer_hello, nonce, ByteView(id.bytes), certificate});
  return Bytes(mac.begin(), mac.end());
}

Bytes make_finish(const kdf::SessionKeys& keys, Role sender, ByteView certificate,
                  ByteView hello_a, ByteView hello_b) {
  const std::uint8_t role_byte = sender == Role::kInitiator ? 0x00 : 0x01;
  const hash::Digest mac =
      hash::hmac_sha256(keys.mac_key.bytes(), {ByteView(&role_byte, 1), hello_a, hello_b});
  const Bytes confirm_plain = concat({hello_a, hello_b});
  aes::Iv iv = keys.iv_seed.declassify();
  iv[0] ^= sender == Role::kInitiator ? 0xF0 : 0xF1;
  const aes::Aes128 cipher(keys.enc_key.bytes());
  const Bytes confirm = aes::ctr_crypt(cipher, iv, confirm_plain);
  return concat({certificate, mac, ByteView(confirm)});
}

bool verify_finish(const kdf::SessionKeys& keys, Role sender, ByteView expected_cert,
                   ByteView hello_a, ByteView hello_b, ByteView finish) {
  if (finish.size() != kFinishSize) return false;
  const ByteView certificate = finish.subspan(0, cert::kCertificateSize);
  if (!ct_equal(certificate, expected_cert)) return false;
  const std::uint8_t role_byte = sender == Role::kInitiator ? 0x00 : 0x01;
  const hash::Digest mac =
      hash::hmac_sha256(keys.mac_key.bytes(), {ByteView(&role_byte, 1), hello_a, hello_b});
  if (!ct_equal(finish.subspan(cert::kCertificateSize, kMacSize), mac)) return false;
  aes::Iv iv = keys.iv_seed.declassify();
  iv[0] ^= sender == Role::kInitiator ? 0xF0 : 0xF1;
  const aes::Aes128 cipher(keys.enc_key.bytes());
  const Bytes confirm_plain =
      aes::ctr_crypt(cipher, iv, finish.subspan(cert::kCertificateSize + kMacSize));
  return ct_equal(confirm_plain, concat({hello_a, hello_b}));
}

}  // namespace poramb_detail

namespace {

using namespace poramb_detail;

constexpr std::size_t kIdSize = cert::kDeviceIdSize;
constexpr std::size_t kCertSize = cert::kCertificateSize;

/// Static session keys: both extraction and ECDH run fresh (no caching).
/// Salt is identity-only — the key is constant for the certificate session.
Result<kdf::SessionKeys> derive_poramb_keys(const Credentials& self,
                                            const cert::Certificate& peer_cert,
                                            const cert::DeviceId& initiator,
                                            const cert::DeviceId& responder, std::uint64_t now) {
  if (!peer_cert.valid_at(now)) return Error::kAuthenticationFailed;
  auto peer_public = cert::extract_public_key(peer_cert, self.ca_public);
  if (!peer_public) return peer_public.error();
  const ec::AffinePoint shared = ec::Curve::p256().mul(self.private_key, peer_public.value());
  if (shared.infinity) return Error::kInvalidPoint;
  const Bytes salt = concat({ByteView(initiator.bytes), ByteView(responder.bytes)});
  return kdf::derive_session_keys(shared, salt, bytes_of(std::string(kKdfLabel)));
}

const PairwiseKey* find_pairwise(const Credentials& creds, const cert::DeviceId& peer) {
  const auto it = creds.pairwise_keys.find(peer);
  return it == creds.pairwise_keys.end() ? nullptr : &it->second;
}

}  // namespace

// ---------------------------------------------------------------- initiator

PorambInitiator::PorambInitiator(const Credentials& creds, rng::Rng& rng, PorambConfig config)
    : creds_(creds), rng_(rng), config_(config) {}

std::optional<Message> PorambInitiator::start() {
  record_segment("Hello", "", [&] { hello_a_ = rng_.bytes(kHelloSize); });
  Message m;
  m.sender = Role::kInitiator;
  m.step = "A1";
  m.payload = concat({ByteView(hello_a_), ByteView(creds_.id.bytes)});
  state_ = State::kAwaitB1;
  return m;
}

Result<std::optional<Message>> PorambInitiator::on_message(const Message& incoming) {
  if (state_ == State::kAwaitB1 && incoming.step == "B1") {
    if (incoming.payload.size() != kHelloSize + kIdSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    ByteView p(incoming.payload);
    hello_b_ = Bytes(p.begin(), p.begin() + kHelloSize);
    std::copy_n(p.begin() + kHelloSize, kIdSize, peer_id_.bytes.begin());

    const PairwiseKey* pairwise = find_pairwise(creds_, peer_id_);
    if (pairwise == nullptr) {
      state_ = State::kFailed;
      return Error::kAuthenticationFailed;
    }
    Message reply;
    record_segment("Auth", "B1", [&] {
      nonce_a_ = rng_.bytes(kNonceSize);
      const Bytes certificate = creds_.certificate.encode();
      const Bytes mac = phase_mac(*pairwise, hello_b_, nonce_a_, creds_.id, certificate);
      reply.sender = Role::kInitiator;
      reply.step = "A2";
      reply.payload = concat({ByteView(certificate), ByteView(nonce_a_), ByteView(mac)});
    });
    state_ = State::kAwaitB2;
    return std::optional<Message>(std::move(reply));
  }

  if (state_ == State::kAwaitB2 && incoming.step == "B2") {
    if (incoming.payload.size() != kCertSize + kNonceSize + kMacSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    ByteView p(incoming.payload);
    const ByteView cert_bytes = p.subspan(0, kCertSize);
    const ByteView nonce_b = p.subspan(kCertSize, kNonceSize);
    const ByteView mac_b = p.subspan(kCertSize + kNonceSize, kMacSize);
    nonce_b_ = Bytes(nonce_b.begin(), nonce_b.end());
    auto certificate = cert::Certificate::decode(cert_bytes);
    if (!certificate) {
      state_ = State::kFailed;
      return certificate.error();
    }
    if (!(certificate->subject == peer_id_)) {
      state_ = State::kFailed;
      return Error::kAuthenticationFailed;
    }
    peer_cert_bytes_ = Bytes(cert_bytes.begin(), cert_bytes.end());

    const PairwiseKey* pairwise = find_pairwise(creds_, peer_id_);
    Error failure = Error::kOk;
    record_segment("Auth", "B2", [&] {
      const Bytes expected = phase_mac(*pairwise, hello_a_, nonce_b, peer_id_, cert_bytes);
      if (!ct_equal(expected, mac_b)) failure = Error::kAuthenticationFailed;
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }

    record_segment("KD", "B2", [&] {
      auto keys = derive_poramb_keys(creds_, certificate.value(), creds_.id, peer_id_, config_.now);
      if (!keys) {
        failure = keys.error();
        return;
      }
      keys_ = keys.value();
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }

    Message finish;
    record_segment("Fin", "B2", [&] {
      finish.sender = Role::kInitiator;
      finish.step = "A3";
      finish.payload =
          make_finish(keys_, Role::kInitiator, creds_.certificate.encode(), hello_a_, hello_b_);
    });
    state_ = State::kAwaitFinish;
    return std::optional<Message>(std::move(finish));
  }

  if (state_ == State::kAwaitFinish && incoming.step == "B3") {
    Error failure = Error::kOk;
    record_segment("Fin", "B3", [&] {
      // The peer's certificate bytes were authenticated in B2; re-derive
      // the expected image from the stored peer id via the MAC'd copy.
      if (!verify_finish(keys_, Role::kResponder, ByteView(peer_cert_bytes_), hello_a_, hello_b_,
                         incoming.payload))
        failure = Error::kAuthenticationFailed;
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }
    state_ = State::kEstablished;
    return std::optional<Message>(std::nullopt);
  }

  state_ = State::kFailed;
  return Error::kBadState;
}

// ---------------------------------------------------------------- responder

PorambResponder::PorambResponder(const Credentials& creds, rng::Rng& rng, PorambConfig config)
    : creds_(creds), rng_(rng), config_(config) {}

Result<std::optional<Message>> PorambResponder::on_message(const Message& incoming) {
  if (state_ == State::kAwaitA1 && incoming.step == "A1") {
    if (incoming.payload.size() != kHelloSize + kIdSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    ByteView p(incoming.payload);
    hello_a_ = Bytes(p.begin(), p.begin() + kHelloSize);
    std::copy_n(p.begin() + kHelloSize, kIdSize, peer_id_.bytes.begin());
    Message reply;
    record_segment("Hello", "A1", [&] {
      hello_b_ = rng_.bytes(kHelloSize);
      reply.sender = Role::kResponder;
      reply.step = "B1";
      reply.payload = concat({ByteView(hello_b_), ByteView(creds_.id.bytes)});
    });
    state_ = State::kAwaitA2;
    return std::optional<Message>(std::move(reply));
  }

  if (state_ == State::kAwaitA2 && incoming.step == "A2") {
    if (incoming.payload.size() != kCertSize + kNonceSize + kMacSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    ByteView p(incoming.payload);
    const ByteView cert_bytes = p.subspan(0, kCertSize);
    const ByteView nonce_a = p.subspan(kCertSize, kNonceSize);
    const ByteView mac_a = p.subspan(kCertSize + kNonceSize, kMacSize);
    nonce_a_ = Bytes(nonce_a.begin(), nonce_a.end());
    auto certificate = cert::Certificate::decode(cert_bytes);
    if (!certificate) {
      state_ = State::kFailed;
      return certificate.error();
    }
    if (!(certificate->subject == peer_id_)) {
      state_ = State::kFailed;
      return Error::kAuthenticationFailed;
    }
    const PairwiseKey* pairwise = find_pairwise(creds_, peer_id_);
    if (pairwise == nullptr) {
      state_ = State::kFailed;
      return Error::kAuthenticationFailed;
    }
    Error failure = Error::kOk;
    record_segment("Auth", "A2", [&] {
      const Bytes expected = phase_mac(*pairwise, hello_b_, nonce_a, peer_id_, cert_bytes);
      if (!ct_equal(expected, mac_a)) failure = Error::kAuthenticationFailed;
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }
    peer_cert_bytes_ = Bytes(cert_bytes.begin(), cert_bytes.end());

    Message reply;
    record_segment("Auth", "A2b", [&] {
      nonce_b_ = rng_.bytes(kNonceSize);
      const Bytes certificate_bytes = creds_.certificate.encode();
      const Bytes mac = phase_mac(*pairwise, hello_a_, nonce_b_, creds_.id, certificate_bytes);
      reply.sender = Role::kResponder;
      reply.step = "B2";
      reply.payload = concat({ByteView(certificate_bytes), ByteView(nonce_b_), ByteView(mac)});
    });

    record_segment("KD", "A2", [&] {
      auto keys = derive_poramb_keys(creds_, certificate.value(), peer_id_, creds_.id, config_.now);
      if (!keys) {
        failure = keys.error();
        return;
      }
      keys_ = keys.value();
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }
    state_ = State::kAwaitFinish;
    return std::optional<Message>(std::move(reply));
  }

  if (state_ == State::kAwaitFinish && incoming.step == "A3") {
    Error failure = Error::kOk;
    Message reply;
    record_segment("Fin", "A3", [&] {
      if (!verify_finish(keys_, Role::kInitiator, ByteView(peer_cert_bytes_), hello_a_, hello_b_,
                         incoming.payload)) {
        failure = Error::kAuthenticationFailed;
        return;
      }
      reply.sender = Role::kResponder;
      reply.step = "B3";
      reply.payload =
          make_finish(keys_, Role::kResponder, creds_.certificate.encode(), hello_a_, hello_b_);
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }
    state_ = State::kEstablished;
    return std::optional<Message>(std::move(reply));
  }

  state_ = State::kFailed;
  return Error::kBadState;
}

}  // namespace ecqv::proto
