#include <algorithm>

#include "ecdsa/ecdsa.hpp"

#include <stdexcept>

#include "common/metrics.hpp"
#include "ec/fixed_base.hpp"
#include "ec/verify_table.hpp"
#include "ecdsa/rfc6979.hpp"

namespace ecqv::sig {

namespace {

const ec::Curve& curve() { return ec::Curve::p256(); }

// e = leftmost 256 bits of the digest, reduced mod n.
bi::U256 digest_to_scalar(const hash::Digest& digest) {
  return curve().fn().reduce(bi::from_be_bytes(digest));
}

Signature sign_with_nonce(const bi::U256& d, const hash::Digest& digest,
                          const ct::Secret<bi::U256>& k, bool even_y) {
  const auto& fn = curve().fn();
  // declassify(): the nonce enters the fixed-base comb and the Montgomery
  // inversion — constant-time pipelines that need the typed scalar. This is
  // the single escape on the signing path.
  const bi::U256& kv = k.declassify();
  const ec::AffinePoint kg = ec::FixedBaseTable::p256().mul(kv);
  const bi::U256 r = fn.reduce(kg.x);
  if (r.is_zero()) return Signature{bi::U256(0), bi::U256(0)};
  const bi::U256 e = digest_to_scalar(digest);
  // s = k^-1 (e + r d) mod n, all in the Montgomery domain of n.
  const bi::U256 km = fn.to_mont(kv);
  const bi::U256 rd = fn.mul(fn.to_mont(r), fn.to_mont(d));
  const bi::U256 sum = fn.add(rd, fn.to_mont(e));
  count_op(Op::kModInv);
  bi::U256 s = fn.from_mont(fn.mul(fn.inv(km), sum));
  // Batchable variant: (r, s) and (r, n-s) are equally valid, but a verifier
  // recomputes -kG from the latter. Choosing the one whose recomputed point
  // has EVEN y lets the batch verifier lift R from r alone (ecdsa.hpp).
  if (even_y && kg.y.is_odd()) {
    bi::U256 t;
    bi::sub(t, curve().order(), s);
    s = t;
  }
  return Signature{r, s};
}

}  // namespace

Bytes encode_signature(const Signature& sig) {
  Bytes out(kSignatureSize);
  bi::to_be_bytes(sig.r, ByteSpan(out.data(), 32));
  bi::to_be_bytes(sig.s, ByteSpan(out.data() + 32, 32));
  return out;
}

Result<Signature> decode_signature(ByteView data) {
  if (data.size() != kSignatureSize) return Error::kBadLength;
  Signature sig{bi::from_be_bytes(data.subspan(0, 32)), bi::from_be_bytes(data.subspan(32, 32))};
  return sig;
}

PrivateKey::PrivateKey(const bi::U256& d) : d_(d) {
  if (d.is_zero() || bi::cmp(d, curve().order()) >= 0)
    throw std::invalid_argument("PrivateKey: scalar out of range");
}

PrivateKey PrivateKey::generate(rng::Rng& rng) {
  return PrivateKey(curve().random_scalar(rng));
}

ec::AffinePoint PrivateKey::public_point() const {
  return ec::FixedBaseTable::p256().mul(d_);
}

Signature PrivateKey::sign_digest(const hash::Digest& digest) const {
  for (unsigned retry = 0;; ++retry) {
    const ct::Secret<bi::U256> k = rfc6979_nonce(d_, digest, retry);
    const Signature sig = sign_with_nonce(d_, digest, k, /*even_y=*/false);
    if (!sig.r.is_zero() && !sig.s.is_zero()) return sig;
  }
}

Signature PrivateKey::sign(ByteView message) const { return sign_digest(hash::sha256(message)); }

Signature PrivateKey::sign_digest_batchable(const hash::Digest& digest) const {
  for (unsigned retry = 0;; ++retry) {
    const ct::Secret<bi::U256> k = rfc6979_nonce(d_, digest, retry);
    const Signature sig = sign_with_nonce(d_, digest, k, /*even_y=*/true);
    if (!sig.r.is_zero() && !sig.s.is_zero()) return sig;
  }
}

Signature PrivateKey::sign_batchable(ByteView message) const {
  return sign_digest_batchable(hash::sha256(message));
}

namespace {

// Shared scalar-side preamble of verification: range checks and
// u1 = e/s, u2 = r/s. Returns false for malformed signatures.
bool verify_scalars(const hash::Digest& digest, const Signature& sig, bi::U256& u1,
                    bi::U256& u2) {
  const auto& fn = curve().fn();
  const bi::U256& n = curve().order();
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (bi::cmp(sig.r, n) >= 0 || bi::cmp(sig.s, n) >= 0) return false;
  const bi::U256 e = digest_to_scalar(digest);
  count_op(Op::kModInv);
  // s is public: the variable-time gcd inverse is safe (and much faster
  // than the Fermat ladder). The final x == r check runs in projective
  // form inside dual_mul_checks_r, avoiding a field inversion entirely.
  const bi::U256 w = fn.inv_vartime(fn.to_mont(sig.s));
  u1 = fn.from_mont(fn.mul(fn.to_mont(e), w));
  u2 = fn.from_mont(fn.mul(fn.to_mont(sig.r), w));
  return true;
}

}  // namespace

bool verify_digest(const ec::AffinePoint& q, const hash::Digest& digest, const Signature& sig) {
  if (q.infinity || !curve().is_on_curve(q)) return false;
  bi::U256 u1, u2;
  if (!verify_scalars(digest, sig, u1, u2)) return false;
  return curve().dual_mul_checks_r(u1, u2, q, sig.r);
}

bool verify(const ec::AffinePoint& q, ByteView message, const Signature& sig) {
  return verify_digest(q, hash::sha256(message), sig);
}

bool verify_digest(const ec::VerifyTable& q_table, const hash::Digest& digest,
                   const Signature& sig) {
  // The table build already validated the point (on-curve, not infinity).
  if (q_table.empty()) return false;
  bi::U256 u1, u2;
  if (!verify_scalars(digest, sig, u1, u2)) return false;
  return curve().dual_mul_checks_r(u1, u2, q_table, sig.r);
}

bool verify(const ec::VerifyTable& q_table, ByteView message, const Signature& sig) {
  return verify_digest(q_table, hash::sha256(message), sig);
}

}  // namespace ecqv::sig
