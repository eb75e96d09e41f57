#include <algorithm>

#include "core/sts.hpp"

#include "aes/modes.hpp"
#include "core/peer_cache.hpp"
#include "ec/encoding.hpp"
#include "ec/fixed_base.hpp"
#include "ec/verify_table.hpp"
#include "ecdsa/ecdsa.hpp"
#include "ecqv/scheme.hpp"

namespace ecqv::proto {

namespace sts_detail {

Bytes kd_salt(const cert::DeviceId& initiator, const cert::DeviceId& responder) {
  return concat({ByteView(initiator.bytes), ByteView(responder.bytes)});
}

Bytes crypt_resp(const kdf::SessionKeys& keys, Role sender, ByteView resp) {
  const aes::Aes128 cipher(keys.enc_key.bytes());
  aes::Iv iv = keys.iv_seed.declassify();
  iv[0] ^= sender == Role::kInitiator ? 0xA1 : 0xB1;
  return aes::ctr_crypt(cipher, iv, resp);
}

Bytes resp_sign_input(ByteView own_xg, ByteView peer_xg, ByteView nego) {
  return concat({own_xg, peer_xg, nego});
}

}  // namespace sts_detail

namespace {

using sts_detail::crypt_resp;
using sts_detail::kd_salt;
using sts_detail::resp_sign_input;

constexpr std::size_t kIdSize = cert::kDeviceIdSize;
constexpr std::size_t kXgSize = ec::kRawXySize;
constexpr std::size_t kCertSize = cert::kCertificateSize;
// Resp = Enc_KS(Sign(...)): the encrypted 64-byte signature (Algorithm 1,
// Table II).
constexpr std::size_t kRespSize = sig::kSignatureSize;

void wipe_scalar(bi::U256& k) {
  secure_wipe(ByteSpan(reinterpret_cast<std::uint8_t*>(k.w.data()), sizeof(k.w)));
}

kdf::SessionKeys derive_keys(const ec::AffinePoint& premaster, const cert::DeviceId& a,
                             const cert::DeviceId& b) {
  return kdf::derive_session_keys(premaster, kd_salt(a, b),
                                  bytes_of(std::string(sts_detail::kKdfLabel)));
}

/// Peer authentication material for one verification: the implicit public
/// key plus, when a broker-shared cache served it, the peer's cached wNAF
/// verification table. The shared_ptr pins the cache entry for the
/// verification's duration — a concurrent worker's eviction cannot pull
/// the table out from under us.
struct PeerAuth {
  ec::AffinePoint q;
  PeerKeyCache::EntryPtr entry;  // null when no cache served the lookup

  [[nodiscard]] const ec::VerifyTable* table() const {
    return entry != nullptr ? &entry->table : nullptr;
  }
};

/// Validates a peer certificate: window, subject, usable curve point.
/// Extraction goes through the per-peer cache when the config carries one.
Result<PeerAuth> check_and_extract(const cert::Certificate& certificate,
                                   const cert::DeviceId& claimed_subject,
                                   const ec::AffinePoint& q_ca, const StsConfig& config) {
  if (!(certificate.subject == claimed_subject)) return Error::kAuthenticationFailed;
  if (!certificate.valid_at(config.now)) return Error::kAuthenticationFailed;
  if (config.peer_cache != nullptr) {
    auto entry = config.peer_cache->get(certificate, q_ca);
    if (!entry) return entry.error();
    return PeerAuth{entry.value()->public_key, std::move(entry).value()};
  }
  auto q = cert::extract_public_key(certificate, q_ca);
  if (!q) return q.error();
  return PeerAuth{q.value(), nullptr};
}

bool verify_peer(const PeerAuth& auth, ByteView signed_data, const sig::Signature& signature) {
  return auth.table() != nullptr ? sig::verify(*auth.table(), signed_data, signature)
                                 : sig::verify(auth.q, signed_data, signature);
}

}  // namespace

// ---------------------------------------------------------------- initiator

StsInitiator::StsInitiator(const Credentials& creds, rng::Rng& rng, StsConfig config)
    : creds_(creds), rng_(rng), config_(config) {}

StsInitiator::~StsInitiator() {
  keys_.wipe();
  wipe_scalar(xa_);
}

std::optional<Message> StsInitiator::start() {
  // Op1: ephemeral point XG_A = X_A * G (paper eq. (2)).
  record_segment("Op1", "", [&] {
    xa_ = ec::Curve::p256().random_scalar(rng_);
    xga_ = ec::encode_raw_xy(ec::FixedBaseTable::p256().mul(xa_));
  });
  Message m;
  m.sender = Role::kInitiator;
  m.step = "A1";
  if (config_.variant == StsVariant::kBaseline) {
    m.payload = concat({ByteView(creds_.id.bytes), ByteView(xga_)});
  } else {
    // Opt. I/II: certificate rides along in the request so the responder
    // can start its public-key derivation immediately (§IV-C).
    m.payload =
        concat({ByteView(creds_.id.bytes), ByteView(creds_.certificate.encode()), ByteView(xga_)});
  }
  // Suite negotiation: one offer byte, only when the config offers more
  // than the legacy record format (the default leaves A1 byte-identical).
  const auto offer =
      static_cast<std::uint8_t>((config_.offered_suites | aead::kOfferLegacy) & aead::kOfferAll);
  if (offer != aead::kOfferLegacy) {
    offering_ = true;
    nego_[0] = offer;
    m.payload.push_back(offer);
  }
  state_ = State::kAwaitB1;
  return m;
}

Result<std::optional<Message>> StsInitiator::on_message(const Message& incoming) {
  if (state_ == State::kAwaitB1 && incoming.step == "B1") {
    const std::size_t base = kIdSize + kCertSize + kXgSize + kRespSize;
    // An offering initiator requires the confirm byte: a B1 shaped like the
    // legacy handshake means the offer was stripped in flight — reject
    // rather than silently downgrade.
    if (incoming.payload.size() != (offering_ ? base + 1 : base)) {
      state_ = State::kFailed;
      return Error::kBadLength;
    }
    if (offering_) {
      const std::uint8_t confirm = incoming.payload[base];
      const aead::Suite* suite = aead::find_suite(confirm);
      if (suite == nullptr || !aead::offered(nego_[0], suite->id)) {
        state_ = State::kFailed;
        return Error::kAuthenticationFailed;
      }
      nego_[1] = confirm;
    }
    ByteView p(incoming.payload);
    cert::DeviceId claimed_id;
    std::copy_n(p.begin(), kIdSize, claimed_id.bytes.begin());
    auto certificate = cert::Certificate::decode(p.subspan(kIdSize, kCertSize));
    if (!certificate) {
      state_ = State::kFailed;
      return certificate.error();
    }
    const ByteView xgb_bytes = p.subspan(kIdSize + kCertSize, kXgSize);
    const ByteView resp_b = p.subspan(kIdSize + kCertSize + kXgSize, kRespSize);

    // Op2: premaster + KS (eqs. (3),(4)).
    Error failure = Error::kOk;
    record_segment("Op2", "B1", [&] {
      auto xgb_point = ec::decode_raw_xy(ec::Curve::p256(), xgb_bytes);
      if (!xgb_point) {
        failure = xgb_point.error();
        return;
      }
      const ec::AffinePoint premaster = ec::Curve::p256().mul(xa_, xgb_point.value());
      if (premaster.infinity) {
        failure = Error::kInvalidPoint;
        return;
      }
      keys_ = derive_keys(premaster, creds_.id, claimed_id);
      if (offering_) keys_.suite = nego_[1];
      xgb_ = Bytes(xgb_bytes.begin(), xgb_bytes.end());
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }
    const ByteView nego = offering_ ? ByteView(nego_) : ByteView{};

    // Op4: decrypt + implicit public key derivation + verify — exactly
    // Algorithm 2, which folds eq. (1) into verification.
    record_segment("Op4", "B1", [&] {
      auto auth = check_and_extract(certificate.value(), claimed_id, creds_.ca_public, config_);
      if (!auth) {
        failure = auth.error();
        return;
      }
      auto signature = sig::decode_signature(crypt_resp(keys_, Role::kResponder, resp_b));
      if (!signature) {
        failure = signature.error();
        return;
      }
      const Bytes signed_data = resp_sign_input(xgb_, xga_, nego);
      if (!verify_peer(auth.value(), signed_data, signature.value()))
        failure = Error::kAuthenticationFailed;
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }

    // Op3: own authentication response (Algorithm 1). Batchable signatures
    // (even-y normalized, same wire format) let a broker amortize fleets of
    // these through sig::verify_digest_batch's one-pass RLC check.
    Message reply;
    record_segment("Op3", "B1", [&] {
      const sig::PrivateKey key(creds_.private_key);
      const Bytes dsign =
          sig::encode_signature(key.sign_batchable(resp_sign_input(xga_, xgb_, nego)));
      const Bytes resp_a = crypt_resp(keys_, Role::kInitiator, dsign);
      reply.sender = Role::kInitiator;
      reply.step = "A2";
      reply.payload = config_.variant == StsVariant::kBaseline
                          ? concat({ByteView(creds_.certificate.encode()), ByteView(resp_a)})
                          : resp_a;
    });
    peer_id_ = claimed_id;
    state_ = State::kAwaitAck;
    return std::optional<Message>(std::move(reply));
  }
  if (state_ == State::kAwaitAck && incoming.step == "B2") {
    if (incoming.payload.size() != 1 || incoming.payload[0] != 0x01) {
      state_ = State::kFailed;
      return Error::kDecodeFailed;
    }
    state_ = State::kEstablished;
    return std::optional<Message>(std::nullopt);
  }
  state_ = State::kFailed;
  return Error::kBadState;
}

// ---------------------------------------------------------------- responder

StsResponder::StsResponder(const Credentials& creds, rng::Rng& rng, StsConfig config)
    : creds_(creds), rng_(rng), config_(config) {}

StsResponder::~StsResponder() {
  keys_.wipe();
  wipe_scalar(xb_);
}

Result<std::optional<Message>> StsResponder::handle_a1(const Message& incoming) {
  const bool with_cert = config_.variant != StsVariant::kBaseline;
  const std::size_t base = with_cert ? kIdSize + kCertSize + kXgSize : kIdSize + kXgSize;
  // A trailing byte is the initiator's suite offer; its absence is the
  // legacy handshake. A legacy-configured responder still answers an offer
  // (confirming whatever it negotiates down to, possibly suite 0) so the
  // two configurations interoperate.
  if (incoming.payload.size() != base && incoming.payload.size() != base + 1)
    return Error::kBadLength;
  nego_active_ = incoming.payload.size() == base + 1;
  if (nego_active_) nego_[0] = incoming.payload[base];
  ByteView p(incoming.payload);
  cert::DeviceId claimed_id;
  std::copy_n(p.begin(), kIdSize, claimed_id.bytes.begin());
  std::optional<cert::Certificate> peer_cert;
  ByteView xga_bytes;
  if (with_cert) {
    auto decoded = cert::Certificate::decode(p.subspan(kIdSize, kCertSize));
    if (!decoded) return decoded.error();
    peer_cert = decoded.value();
    xga_bytes = p.subspan(kIdSize + kCertSize, kXgSize);
  } else {
    xga_bytes = p.subspan(kIdSize, kXgSize);
  }

  auto xga_point = ec::decode_raw_xy(ec::Curve::p256(), xga_bytes);
  if (!xga_point) return xga_point.error();
  xga_ = Bytes(xga_bytes.begin(), xga_bytes.end());

  // Op1: own ephemeral point.
  record_segment("Op1", "A1", [&] {
    xb_ = ec::Curve::p256().random_scalar(rng_);
    xgb_ = ec::encode_raw_xy(ec::FixedBaseTable::p256().mul(xb_));
  });

  // Op2a: premaster + session keys (B can do this before seeing A's cert).
  Error failure = Error::kOk;
  record_segment("Op2a", "A1", [&] {
    const ec::AffinePoint premaster = ec::Curve::p256().mul(xb_, xga_point.value());
    if (premaster.infinity) {
      failure = Error::kInvalidPoint;
      return;
    }
    keys_ = derive_keys(premaster, claimed_id, creds_.id);
  });
  if (failure != Error::kOk) return failure;
  if (nego_active_) {
    nego_[1] = static_cast<std::uint8_t>(aead::negotiate(nego_[0], config_.offered_suites));
    keys_.suite = nego_[1];
  }

  // Opt. I/II: A's certificate arrived with the request, so Q_A derivation
  // (Op2b) runs here — in the slot the scheduler can overlap (§IV-C).
  if (with_cert) {
    record_segment("Op2b", "A1", [&] {
      auto auth = check_and_extract(*peer_cert, claimed_id, creds_.ca_public, config_);
      if (!auth) {
        failure = auth.error();
        return;
      }
      peer_public_ = auth.value().q;
      have_peer_public_ = true;
      peer_cert_ = *peer_cert;  // re-fetches the cached table at verify time
    });
    if (failure != Error::kOk) return failure;
  }

  // Op3: authentication response Resp_B (Algorithm 1).
  const ByteView nego = nego_active_ ? ByteView(nego_) : ByteView{};
  Bytes resp_b;
  record_segment("Op3", "A1", [&] {
    const sig::PrivateKey key(creds_.private_key);
    const Bytes dsign =
        sig::encode_signature(key.sign_batchable(resp_sign_input(xgb_, xga_, nego)));
    resp_b = crypt_resp(keys_, Role::kResponder, dsign);
  });

  peer_id_ = claimed_id;
  Message reply;
  reply.sender = Role::kResponder;
  reply.step = "B1";
  reply.payload = concat({ByteView(creds_.id.bytes), ByteView(creds_.certificate.encode()),
                          ByteView(xgb_), ByteView(resp_b)});
  if (nego_active_) reply.payload.push_back(nego_[1]);  // confirm byte
  state_ = State::kAwaitA2;
  return std::optional<Message>(std::move(reply));
}

Result<std::optional<Message>> StsResponder::handle_a2(const Message& incoming) {
  const bool with_cert = config_.variant == StsVariant::kBaseline;
  const std::size_t expected = with_cert ? kCertSize + kRespSize : kRespSize;
  if (incoming.payload.size() != expected) return Error::kBadLength;
  ByteView p(incoming.payload);

  Error failure = Error::kOk;
  if (with_cert) {
    // Baseline: A's certificate only arrives now, so the implicit public
    // key derivation runs inside verification (Algorithm 2) — "Op4a".
    auto certificate = cert::Certificate::decode(p.subspan(0, kCertSize));
    if (!certificate) return certificate.error();
    record_segment("Op4a", "A2", [&] {
      auto auth = check_and_extract(certificate.value(), peer_id_, creds_.ca_public, config_);
      if (!auth) {
        failure = auth.error();
        return;
      }
      peer_public_ = auth.value().q;
      have_peer_public_ = true;
      peer_cert_ = certificate.value();
    });
    if (failure != Error::kOk) {
      state_ = State::kFailed;
      return failure;
    }
    p = p.subspan(kCertSize);
  }
  if (!have_peer_public_) {
    state_ = State::kFailed;
    return Error::kBadState;
  }

  // Op4: decrypt + verify Resp_A (Algorithm 2).
  record_segment("Op4", "A2", [&] {
    auto signature = sig::decode_signature(crypt_resp(keys_, Role::kInitiator, p));
    if (!signature) {
      failure = signature.error();
      return;
    }
    const Bytes signed_data =
        resp_sign_input(xga_, xgb_, nego_active_ ? ByteView(nego_) : ByteView{});
    // Re-fetch the cache entry (a cheap hit) so this verification pins its
    // own reference instead of relying on one held across messages.
    PeerAuth auth{peer_public_, nullptr};
    if (config_.peer_cache != nullptr && peer_cert_.has_value()) {
      auto entry = config_.peer_cache->get(*peer_cert_, creds_.ca_public);
      if (entry.ok()) auth.entry = std::move(entry).value();
    }
    if (!verify_peer(auth, signed_data, signature.value()))
      failure = Error::kAuthenticationFailed;
  });
  if (failure != Error::kOk) {
    state_ = State::kFailed;
    return failure;
  }

  Message ack;
  ack.sender = Role::kResponder;
  ack.step = "B2";
  ack.payload = Bytes{0x01};
  state_ = State::kEstablished;
  return std::optional<Message>(std::move(ack));
}

Result<std::optional<Message>> StsResponder::on_message(const Message& incoming) {
  if (state_ == State::kAwaitA1 && incoming.step == "A1") {
    auto result = handle_a1(incoming);
    if (!result) state_ = State::kFailed;
    return result;
  }
  if (state_ == State::kAwaitA2 && incoming.step == "A2") return handle_a2(incoming);
  state_ = State::kFailed;
  return Error::kBadState;
}

}  // namespace ecqv::proto
