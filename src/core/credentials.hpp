// Device credentials: what a provisioned node stores after the certificate
// derivation phase (paper Fig. 1, stages 1-2).
#pragma once

#include <map>
#include <optional>

#include "ecqv/ca.hpp"
#include "ecqv/certificate.hpp"

namespace ecqv::proto {

/// Pairwise pre-shared authentication key (PORAMB's per-peer requirement,
/// criticized in the paper's Table III discussion).
using PairwiseKey = std::array<std::uint8_t, 32>;

struct Credentials {
  cert::DeviceId id;
  cert::Certificate certificate;
  bi::U256 private_key;         // reconstructed ECQV private key d_U
  ec::AffinePoint public_key;   // Q_U
  ec::AffinePoint ca_public;    // Q_CA (distributed at deployment)

  /// PORAMB only: pre-embedded per-peer authentication keys.
  std::map<cert::DeviceId, PairwiseKey> pairwise_keys;

  /// Cached implicitly-extracted peer public keys (SCIANC's airtime
  /// optimization caches these across communication sessions).
  mutable std::map<cert::DeviceId, ec::AffinePoint> peer_public_cache;

  /// Drops all cached per-peer material; call on certificate rotation
  /// (start of a new certificate session).
  void invalidate_caches() const { peer_public_cache.clear(); }
};

/// Enrolls a device with the CA and assembles its credentials.
/// Throws std::runtime_error on (cryptographically negligible) CA failures.
Credentials provision_device(cert::CertificateAuthority& ca, const cert::DeviceId& id,
                             std::uint64_t now, std::uint64_t lifetime_seconds, rng::Rng& rng);

/// Installs a fresh symmetric pairwise key into both devices (PORAMB
/// deployment step).
void install_pairwise_key(Credentials& a, Credentials& b, rng::Rng& rng);

}  // namespace ecqv::proto
