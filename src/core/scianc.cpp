#include <algorithm>

#include "core/scianc.hpp"

#include "ecqv/scheme.hpp"
#include "hash/hmac.hpp"

namespace ecqv::proto {

namespace scianc_detail {

Bytes auth_mac(const kdf::SessionKeys& keys, Role sender, ByteView transcript) {
  const std::uint8_t role_byte = sender == Role::kInitiator ? 0x00 : 0x01;
  const hash::Digest th = hash::sha256(transcript);
  const hash::Digest mac = hash::hmac_sha256(keys.mac_key.bytes(), {ByteView(&role_byte, 1), th});
  return Bytes(mac.begin(), mac.end());
}

}  // namespace scianc_detail

namespace {

using namespace scianc_detail;

constexpr std::size_t kIdSize = cert::kDeviceIdSize;
constexpr std::size_t kCertSize = cert::kCertificateSize;

/// Extracts and caches the peer's implicit public key (the airtime/compute
/// optimization the protocol is built around), then derives the
/// nonce-diversified — but statically rooted — session keys.
Result<kdf::SessionKeys> derive_scianc_keys(const Credentials& self,
                                            const cert::Certificate& peer_cert,
                                            const cert::DeviceId& claimed, ByteView nonce_a,
                                            ByteView nonce_b, std::uint64_t now) {
  if (!(peer_cert.subject == claimed)) return Error::kAuthenticationFailed;
  if (!peer_cert.valid_at(now)) return Error::kAuthenticationFailed;
  auto it = self.peer_public_cache.find(claimed);
  ec::AffinePoint peer_public;
  if (it != self.peer_public_cache.end()) {
    peer_public = it->second;
  } else {
    auto extracted = cert::extract_public_key(peer_cert, self.ca_public);
    if (!extracted) return extracted.error();
    peer_public = extracted.value();
    self.peer_public_cache[claimed] = peer_public;
  }
  const ec::AffinePoint shared = ec::Curve::p256().mul(self.private_key, peer_public);
  if (shared.infinity) return Error::kInvalidPoint;
  const Bytes salt = concat({nonce_a, nonce_b});
  return kdf::derive_session_keys(shared, salt, bytes_of(std::string(kKdfLabel)));
}

}  // namespace

// ---------------------------------------------------------------- initiator

SciancInitiator::SciancInitiator(const Credentials& creds, rng::Rng& rng, SciancConfig config)
    : creds_(creds), rng_(rng), config_(config) {}

std::optional<Message> SciancInitiator::start() {
  record_segment("Nonce", "", [&] { nonce_a_ = rng_.bytes(kNonceSize); });
  Message m;
  m.sender = Role::kInitiator;
  m.step = "A1";
  m.payload =
      concat({ByteView(creds_.id.bytes), ByteView(nonce_a_), ByteView(creds_.certificate.encode())});
  append(transcript_, m.payload);
  state_ = State::kAwaitB1;
  return m;
}

Result<std::optional<Message>> SciancInitiator::on_message(const Message& incoming) {
  if (state_ == State::kAwaitB1 && incoming.step == "B1") {
    if (incoming.payload.size() != kIdSize + kNonceSize + kCertSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    ByteView p(incoming.payload);
    cert::DeviceId claimed;
    std::copy_n(p.begin(), kIdSize, claimed.bytes.begin());
    const ByteView nonce_b = p.subspan(kIdSize, kNonceSize);
    auto certificate = cert::Certificate::decode(p.subspan(kIdSize + kNonceSize, kCertSize));
    if (!certificate) {
      state_ = State::kFailed;
      return certificate.error();
    }
    append(transcript_, incoming.payload);

    Error failure = Error::kOk;
    record_segment("KD", "B1", [&] {
      auto keys = derive_scianc_keys(creds_, certificate.value(), claimed, nonce_a_, nonce_b,
                                     config_.now);
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

    Message reply;
    record_segment("Auth", "B1", [&] {
      reply.sender = Role::kInitiator;
      reply.step = "A2";
      reply.payload = auth_mac(keys_, Role::kInitiator, transcript_);
    });
    peer_id_ = claimed;
    state_ = State::kAwaitB2;
    return std::optional<Message>(std::move(reply));
  }

  if (state_ == State::kAwaitB2 && incoming.step == "B2") {
    if (incoming.payload.size() != kMacSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    Error failure = Error::kOk;
    record_segment("Auth", "B2", [&] {
      const Bytes expected = auth_mac(keys_, Role::kResponder, transcript_);
      if (!ct_equal(expected, incoming.payload)) failure = Error::kAuthenticationFailed;
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

SciancResponder::SciancResponder(const Credentials& creds, rng::Rng& rng, SciancConfig config)
    : creds_(creds), rng_(rng), config_(config) {}

Result<std::optional<Message>> SciancResponder::on_message(const Message& incoming) {
  if (state_ == State::kAwaitA1 && incoming.step == "A1") {
    if (incoming.payload.size() != kIdSize + kNonceSize + kCertSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    ByteView p(incoming.payload);
    std::copy_n(p.begin(), kIdSize, peer_id_.bytes.begin());
    const ByteView nonce_a = p.subspan(kIdSize, kNonceSize);
    auto certificate = cert::Certificate::decode(p.subspan(kIdSize + kNonceSize, kCertSize));
    if (!certificate) {
      state_ = State::kFailed;
      return certificate.error();
    }

    record_segment("Nonce", "A1", [&] { nonce_b_ = rng_.bytes(kNonceSize); });
    Message reply;
    reply.sender = Role::kResponder;
    reply.step = "B1";
    reply.payload = concat(
        {ByteView(creds_.id.bytes), ByteView(nonce_b_), ByteView(creds_.certificate.encode())});
    append(transcript_, incoming.payload);
    append(transcript_, reply.payload);

    Error failure = Error::kOk;
    record_segment("KD", "A1", [&] {
      auto keys = derive_scianc_keys(creds_, certificate.value(), peer_id_, nonce_a, nonce_b_,
                                     config_.now);
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
    state_ = State::kAwaitA2;
    return std::optional<Message>(std::move(reply));
  }

  if (state_ == State::kAwaitA2 && incoming.step == "A2") {
    if (incoming.payload.size() != kMacSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    Error failure = Error::kOk;
    Message reply;
    record_segment("Auth", "A2", [&] {
      const Bytes expected = auth_mac(keys_, Role::kInitiator, transcript_);
      if (!ct_equal(expected, incoming.payload)) {
        failure = Error::kAuthenticationFailed;
        return;
      }
      reply.sender = Role::kResponder;
      reply.step = "B2";
      reply.payload = auth_mac(keys_, Role::kResponder, transcript_);
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
