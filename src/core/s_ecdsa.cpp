#include <algorithm>

#include "core/s_ecdsa.hpp"

#include "aes/modes.hpp"
#include "ecdsa/ecdsa.hpp"
#include "ecqv/scheme.hpp"
#include "hash/hmac.hpp"

namespace ecqv::proto {

namespace s_ecdsa_detail {

Bytes sign_input(const cert::DeviceId& signer, ByteView peer_nonce, ByteView own_nonce) {
  return concat({ByteView(signer.bytes), peer_nonce, own_nonce});
}

namespace {
hash::Digest fin_mac(const kdf::SessionKeys& keys, Role sender, const hash::Digest& th) {
  const std::uint8_t role_byte = sender == Role::kInitiator ? 0x00 : 0x01;
  return hash::hmac_sha256(keys.mac_key.bytes(), {bytes_of("fin"), ByteView(&role_byte, 1), th});
}
}  // namespace

Bytes make_fin(const kdf::SessionKeys& keys, Role sender, ByteView transcript, rng::Rng& rng) {
  const hash::Digest th = hash::sha256(transcript);
  const hash::Digest mac = fin_mac(keys, sender, th);
  Bytes plain;
  plain.reserve(80);
  append(plain, mac);
  append(plain, th);
  plain.insert(plain.end(), 16, 0x00);
  aes::Iv iv{};
  rng.fill(iv);
  const aes::Aes128 cipher(keys.enc_key.bytes());
  const Bytes ct = aes::cbc_encrypt_raw(cipher, iv, plain);
  return concat({ByteView(iv), ByteView(ct)});
}

bool verify_fin(const kdf::SessionKeys& keys, Role sender, ByteView transcript, ByteView fin) {
  if (fin.size() != kFinSize) return false;
  aes::Iv iv{};
  std::copy_n(fin.begin(), iv.size(), iv.begin());
  const aes::Aes128 cipher(keys.enc_key.bytes());
  auto plain = aes::cbc_decrypt_raw(cipher, iv, fin.subspan(iv.size()));
  if (!plain) return false;
  const hash::Digest th = hash::sha256(transcript);
  const hash::Digest expected = fin_mac(keys, sender, th);
  const Bytes zero_pad(16, 0x00);
  return ct_equal(ByteView(plain->data(), 32), expected) &&
         ct_equal(ByteView(plain->data() + 32, 32), th) &&
         ct_equal(ByteView(plain->data() + 64, 16), zero_pad);
}

}  // namespace s_ecdsa_detail

namespace {

using namespace s_ecdsa_detail;

constexpr std::size_t kIdSize = cert::kDeviceIdSize;
constexpr std::size_t kCertSize = cert::kCertificateSize;
constexpr std::size_t kSigSize = sig::kSignatureSize;

/// Static session keys: KDF(static DH secret, ID_A || ID_B). No per-session
/// input — deliberately (see header). The peer public key is the one
/// already extracted for signature verification (implementations extract
/// once per handshake).
Result<kdf::SessionKeys> derive_static_keys(const Credentials& self,
                                            const ec::AffinePoint& peer_public,
                                            const cert::DeviceId& initiator,
                                            const cert::DeviceId& responder) {
  const ec::AffinePoint shared = ec::Curve::p256().mul(self.private_key, peer_public);
  if (shared.infinity) return Error::kInvalidPoint;
  const Bytes salt = concat({ByteView(initiator.bytes), ByteView(responder.bytes)});
  return kdf::derive_session_keys(shared, salt, bytes_of(std::string(kKdfLabel)));
}

Result<ec::AffinePoint> checked_extract(const cert::Certificate& certificate,
                                        const cert::DeviceId& claimed,
                                        const ec::AffinePoint& q_ca, std::uint64_t now) {
  if (!(certificate.subject == claimed)) return Error::kAuthenticationFailed;
  if (!certificate.valid_at(now)) return Error::kAuthenticationFailed;
  return cert::extract_public_key(certificate, q_ca);
}

}  // namespace

// ---------------------------------------------------------------- initiator

SEcdsaInitiator::SEcdsaInitiator(const Credentials& creds, rng::Rng& rng, SEcdsaConfig config)
    : creds_(creds), rng_(rng), config_(config) {}

std::optional<Message> SEcdsaInitiator::start() {
  record_segment("Nonce", "", [&] { nonce_a_ = rng_.bytes(kNonceSize); });
  Message m;
  m.sender = Role::kInitiator;
  m.step = "A1";
  m.payload = concat({ByteView(creds_.id.bytes), ByteView(nonce_a_)});
  append(transcript_, m.payload);
  state_ = State::kAwaitB1;
  return m;
}

Result<std::optional<Message>> SEcdsaInitiator::on_message(const Message& incoming) {
  if (state_ == State::kAwaitB1 && incoming.step == "B1") {
    if (incoming.payload.size() != kIdSize + kCertSize + kSigSize + kNonceSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    ByteView p(incoming.payload);
    cert::DeviceId claimed;
    std::copy_n(p.begin(), kIdSize, claimed.bytes.begin());
    auto certificate = cert::Certificate::decode(p.subspan(kIdSize, kCertSize));
    if (!certificate) {
      state_ = State::kFailed;
      return certificate.error();
    }
    const ByteView sig_b = p.subspan(kIdSize + kCertSize, kSigSize);
    const ByteView nonce_b = p.subspan(kIdSize + kCertSize + kSigSize, kNonceSize);
    nonce_b_ = Bytes(nonce_b.begin(), nonce_b.end());

    // Verify B's signature against the implicitly-derived public key.
    Error failure = Error::kOk;
    ec::AffinePoint qb;
    record_segment("Verify", "B1", [&] {
      auto extracted = checked_extract(certificate.value(), claimed, creds_.ca_public, config_.now);
      if (!extracted) {
        failure = extracted.error();
        return;
      }
      qb = extracted.value();
      auto signature = sig::decode_signature(sig_b);
      if (!signature) {
        failure = signature.error();
        return;
      }
      if (!sig::verify(qb, sign_input(claimed, nonce_a_, nonce_b_), signature.value()))
        failure = Error::kInvalidSignature;
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }

    // Static key derivation (the SKD this paper criticizes).
    record_segment("KD", "B1", [&] {
      auto keys = derive_static_keys(creds_, qb, creds_.id, claimed);
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
    record_segment("Sign", "B1", [&] {
      const sig::PrivateKey key(creds_.private_key);
      const Bytes own_sig =
          sig::encode_signature(key.sign(sign_input(creds_.id, nonce_b_, nonce_a_)));
      reply.sender = Role::kInitiator;
      reply.step = "A2";
      reply.payload = concat({ByteView(creds_.certificate.encode()), ByteView(own_sig)});
    });
    append(transcript_, incoming.payload);
    append(transcript_, reply.payload);
    peer_id_ = claimed;
    state_ = State::kAwaitAck;
    return std::optional<Message>(std::move(reply));
  }

  if (state_ == State::kAwaitAck && incoming.step == "B2") {
    const std::size_t expected = config_.extended ? 1 + kFinSize : 1;
    if (incoming.payload.size() != expected || incoming.payload[0] != 0x01) {
      state_ = State::kFailed;
      return Error::kDecodeFailed;
    }
    if (!config_.extended) {
      state_ = State::kEstablished;
      return std::optional<Message>(std::nullopt);
    }
    Error failure = Error::kOk;
    Message fin;
    record_segment("Fin", "B2", [&] {
      if (!verify_fin(keys_, Role::kResponder, transcript_,
                      ByteView(incoming.payload).subspan(1))) {
        failure = Error::kAuthenticationFailed;
        return;
      }
      fin.sender = Role::kInitiator;
      fin.step = "A3";
      fin.payload = make_fin(keys_, Role::kInitiator, transcript_, rng_);
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }
    state_ = State::kEstablished;
    return std::optional<Message>(std::move(fin));
  }

  state_ = State::kFailed;
  return Error::kBadState;
}

// ---------------------------------------------------------------- responder

SEcdsaResponder::SEcdsaResponder(const Credentials& creds, rng::Rng& rng, SEcdsaConfig config)
    : creds_(creds), rng_(rng), config_(config) {}

Result<std::optional<Message>> SEcdsaResponder::on_message(const Message& incoming) {
  if (state_ == State::kAwaitA1 && incoming.step == "A1") {
    if (incoming.payload.size() != kIdSize + kNonceSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    ByteView p(incoming.payload);
    std::copy_n(p.begin(), kIdSize, peer_id_.bytes.begin());
    nonce_a_ = Bytes(p.begin() + kIdSize, p.end());

    record_segment("Nonce", "A1", [&] { nonce_b_ = rng_.bytes(kNonceSize); });
    Message reply;
    record_segment("Sign", "A1", [&] {
      const sig::PrivateKey key(creds_.private_key);
      const Bytes own_sig =
          sig::encode_signature(key.sign(sign_input(creds_.id, nonce_a_, nonce_b_)));
      reply.sender = Role::kResponder;
      reply.step = "B1";
      reply.payload = concat({ByteView(creds_.id.bytes), ByteView(creds_.certificate.encode()),
                              ByteView(own_sig), ByteView(nonce_b_)});
    });
    append(transcript_, incoming.payload);
    append(transcript_, reply.payload);
    state_ = State::kAwaitA2;
    return std::optional<Message>(std::move(reply));
  }

  if (state_ == State::kAwaitA2 && incoming.step == "A2") {
    if (incoming.payload.size() != kCertSize + kSigSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    ByteView p(incoming.payload);
    auto certificate = cert::Certificate::decode(p.subspan(0, kCertSize));
    if (!certificate) {
      state_ = State::kFailed;
      return certificate.error();
    }
    Error failure = Error::kOk;
    ec::AffinePoint qa;
    record_segment("Verify", "A2", [&] {
      auto extracted =
          checked_extract(certificate.value(), peer_id_, creds_.ca_public, config_.now);
      if (!extracted) {
        failure = extracted.error();
        return;
      }
      qa = extracted.value();
      auto signature = sig::decode_signature(p.subspan(kCertSize, kSigSize));
      if (!signature) {
        failure = signature.error();
        return;
      }
      if (!sig::verify(qa, sign_input(peer_id_, nonce_b_, nonce_a_), signature.value()))
        failure = Error::kInvalidSignature;
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }
    record_segment("KD", "A2", [&] {
      auto keys = derive_static_keys(creds_, qa, peer_id_, creds_.id);
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
    append(transcript_, incoming.payload);

    Message ack;
    ack.sender = Role::kResponder;
    ack.step = "B2";
    ack.payload = Bytes{0x01};
    if (config_.extended) {
      record_segment("Fin", "A2", [&] {
        append(ack.payload, make_fin(keys_, Role::kResponder, transcript_, rng_));
      });
      state_ = State::kAwaitFin;
    } else {
      state_ = State::kEstablished;
    }
    return std::optional<Message>(std::move(ack));
  }

  if (state_ == State::kAwaitFin && incoming.step == "A3") {
    if (incoming.payload.size() != kFinSize) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    Error failure = Error::kOk;
    record_segment("Fin", "A3", [&] {
      if (!verify_fin(keys_, Role::kInitiator, transcript_, incoming.payload))
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

}  // namespace ecqv::proto
