// ECDSA over secp256r1 with SHA-256 (X9.62 / FIPS 186-4).
//
// This is the authentication primitive of the paper's Algorithms 1 and 2:
// STS responses are ECDSA signatures over the concatenated ephemeral points,
// verified against implicitly-derived ECQV public keys. Signatures are
// encoded as the fixed 64-byte r||s form the paper's Table II assumes.
//
// Nonce generation is deterministic per RFC 6979 by default — the safest
// choice on embedded targets where entropy at signing time is questionable
// (the paper's citation [1] is exactly about embedded RNG failures) — but a
// caller-supplied RNG variant is provided for comparison benchmarks.
#pragma once

#include <vector>

#include "common/result.hpp"
#include "ec/curve.hpp"
#include "hash/sha256.hpp"
#include "rng/rng.hpp"

namespace ecqv::sig {

struct Signature {
  bi::U256 r;
  bi::U256 s;
  bool operator==(const Signature&) const = default;
};

inline constexpr std::size_t kSignatureSize = 64;

/// Fixed-width r||s wire codec (32 + 32 bytes, big-endian).
Bytes encode_signature(const Signature& sig);
Result<Signature> decode_signature(ByteView data);

class PrivateKey {
 public:
  /// Wraps an existing scalar d in [1, n-1].
  explicit PrivateKey(const bi::U256& d);

  /// Generates a fresh key pair.
  static PrivateKey generate(rng::Rng& rng);

  [[nodiscard]] const bi::U256& scalar() const { return d_; }
  [[nodiscard]] ec::AffinePoint public_point() const;

  /// Deterministic (RFC 6979) signature over SHA-256(message).
  [[nodiscard]] Signature sign(ByteView message) const;

  /// Signature over a precomputed digest.
  [[nodiscard]] Signature sign_digest(const hash::Digest& digest) const;

  /// Like sign/sign_digest (RFC 6979 nonces, identical wire format, verifies
  /// under every existing verifier), but normalizes the nonce point to even
  /// y by flipping s -> n - s when y(kG) is odd. A verifier then knows the
  /// point it recomputes from (r, s) has even y, which makes the batch
  /// verifier's x-coordinate-only lift of R exact — signatures from these
  /// entry points take verify_digest_batch's one-pass RLC fast path instead
  /// of the per-signature bisection fallback. The plain sign() is kept
  /// byte-identical to RFC 6979's test vectors.
  [[nodiscard]] Signature sign_batchable(ByteView message) const;
  [[nodiscard]] Signature sign_digest_batchable(const hash::Digest& digest) const;

 private:
  bi::U256 d_;
};

/// Verifies `sig` over SHA-256(message) against public point `q`.
/// Rejects out-of-range r/s and off-curve public keys.
[[nodiscard]] bool verify(const ec::AffinePoint& q, ByteView message, const Signature& sig);
[[nodiscard]] bool verify_digest(const ec::AffinePoint& q, const hash::Digest& digest,
                                 const Signature& sig);

/// Cached-table variants for session workloads: `q_table` was built once
/// per peer (ec::VerifyTable::build), so repeat verifications skip the
/// wNAF table construction and its field inversion (~15% of a verify).
/// The table build validated the point; an empty table always rejects.
[[nodiscard]] bool verify(const ec::VerifyTable& q_table, ByteView message, const Signature& sig);
[[nodiscard]] bool verify_digest(const ec::VerifyTable& q_table, const hash::Digest& digest,
                                 const Signature& sig);

/// One signature of a verification batch: digest + signature against a
/// cached per-peer table (the broker's steady state). A null or empty table
/// marks the item invalid without disturbing the rest of the batch.
struct BatchVerifyItem {
  const ec::VerifyTable* q_table = nullptr;
  hash::Digest digest{};
  Signature sig;
};

/// Telemetry from a batch verification (how the work actually split).
struct BatchVerifyStats {
  std::size_t rlc_checks = 0;     // random-linear-combination passes run
  std::size_t single_checks = 0;  // per-signature fallback verifications
};

/// True batch ECDSA verification (batch_verify.cpp): instead of N
/// independent dual multiplications, ONE random-linear-combination check
///   sum_i z_i*(u1_i*G + u2_i*Q_i - R_i) == O
/// over a single interleaved Straus pass proves all N signatures at once
/// (z_i are fresh 128-bit coefficients from `rng`, so a forged signature
/// slips through with probability <= 2^-128). R_i is recovered from r_i by
/// an x-coordinate lift — exact for sign_batchable signatures; any batch
/// that fails the combined check (a forgery, or a legacy odd-y signature)
/// is bisected, down to plain verify_digest at the leaves, so the result
/// vector is correct for EVERY input, only slower for non-conforming ones.
/// Deterministic given a deterministic `rng`. Returns one verdict per item.
[[nodiscard]] std::vector<bool> verify_digest_batch(const BatchVerifyItem* items, std::size_t n,
                                                    rng::Rng& rng,
                                                    BatchVerifyStats* stats = nullptr);
[[nodiscard]] std::vector<bool> verify_digest_batch(const std::vector<BatchVerifyItem>& items,
                                                    rng::Rng& rng,
                                                    BatchVerifyStats* stats = nullptr);

}  // namespace ecqv::sig
