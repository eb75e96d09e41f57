#include "core/credentials.hpp"

#include <stdexcept>

namespace ecqv::proto {

Credentials provision_device(cert::CertificateAuthority& ca, const cert::DeviceId& id,
                             std::uint64_t now, std::uint64_t lifetime_seconds, rng::Rng& rng) {
  auto enrollment = ca.enroll(id, now, lifetime_seconds, rng);
  if (!enrollment) throw std::runtime_error("provision_device: enrollment failed");
  Credentials creds;
  creds.id = id;
  creds.certificate = enrollment->certificate;
  creds.private_key = enrollment->private_key;
  creds.public_key = enrollment->public_key;
  creds.ca_public = ca.public_key();
  return creds;
}

void install_pairwise_key(Credentials& a, Credentials& b, rng::Rng& rng) {
  PairwiseKey key{};
  rng.fill(key);
  a.pairwise_keys[b.id] = key;
  b.pairwise_keys[a.id] = key;
}

}  // namespace ecqv::proto
