// Fleet provisioning: one CA manages a fleet of IoT/vehicle nodes through
// certificate sessions (paper §II-A) — enrollment, pairwise secure
// sessions, certificate expiry, rotation and cache invalidation.
//
// Also contrasts the deployment burden of the protocols: PORAMB needs a
// pairwise key matrix (O(n^2) keys for full connectivity), while the
// certificate-based protocols only need one CA public key per node.
#include <cstdio>
#include <vector>

#include "core/driver.hpp"
#include "rng/test_rng.hpp"

using namespace ecqv;

namespace {
constexpr std::uint64_t kDay = 86400;

bool session_ok(proto::ProtocolKind kind, const proto::Credentials& a,
                const proto::Credentials& b, std::uint64_t now, std::uint64_t seed) {
  rng::TestRng ra(seed), rb(seed + 1);
  auto pair = proto::make_parties(kind, a, b, ra, rb, now);
  return proto::run_handshake(*pair.initiator, *pair.responder).success;
}
}  // namespace

int main() {
  std::printf("Fleet provisioning with ECQV certificate sessions\n");
  std::printf("=================================================\n\n");

  std::uint64_t now = 1700000000;
  rng::TestRng rng(31337);
  cert::CertificateAuthority ca(cert::DeviceId::from_string("fleet-ca"), rng);

  // --- enrollment ---------------------------------------------------------
  constexpr int kFleetSize = 6;
  std::vector<proto::Credentials> fleet;
  for (int i = 0; i < kFleetSize; ++i) {
    fleet.push_back(proto::provision_device(
        ca, cert::DeviceId::from_string("ecu-" + std::to_string(i)), now, kDay, rng));
  }
  std::printf("enrolled %d nodes; per-node state: 1 certificate (101 B) + 1 private key\n",
              kFleetSize);
  std::printf("PORAMB-style pairwise keys would need %d keys fleet-wide instead\n\n",
              kFleetSize * (kFleetSize - 1) / 2);

  // --- day 1: pairwise STS sessions ----------------------------------------
  int established = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i)
    for (std::size_t j = i + 1; j < fleet.size(); ++j)
      established += session_ok(proto::ProtocolKind::kSts, fleet[i], fleet[j], now,
                                1000 + i * 100 + j)
                         ? 1
                         : 0;
  std::printf("day 1: %d/%d pairwise STS sessions established\n", established,
              kFleetSize * (kFleetSize - 1) / 2);

  // --- day 2: certificates expired -----------------------------------------
  now += kDay + 3600;
  const bool expired_works =
      session_ok(proto::ProtocolKind::kSts, fleet[0], fleet[1], now, 5000);
  std::printf("day 2 (certificates expired): session %s\n",
              expired_works ? "established (BUG: expiry ignored!)" : "correctly rejected");

  // --- rotation: new certificate session ------------------------------------
  for (auto& node : fleet) {
    node = proto::provision_device(ca, node.id, now, kDay, rng);
    node.invalidate_caches();  // the peer public-key cache dies with the certs
  }
  std::printf("rotated all certificates (serials now up to %llu)\n",
              static_cast<unsigned long long>(ca.issued_count() - 1));
  const bool rotated_works =
      session_ok(proto::ProtocolKind::kSts, fleet[0], fleet[1], now, 6000);
  std::printf("post-rotation session: %s\n", rotated_works ? "established" : "failed (bug)");

  // --- mixed-protocol fleet -------------------------------------------------
  std::printf("\nprotocol mix on the rotated fleet:\n");
  for (const auto kind :
       {proto::ProtocolKind::kSts, proto::ProtocolKind::kSEcdsa, proto::ProtocolKind::kScianc}) {
    const bool ok = session_ok(kind, fleet[2], fleet[3], now, 7000);
    std::printf("  %-16s %s\n", std::string(proto::protocol_name(kind)).c_str(),
                ok ? "ok" : "failed");
  }

  // PORAMB still refuses until pairwise keys are installed:
  const bool poramb_before =
      session_ok(proto::ProtocolKind::kPoramb, fleet[4], fleet[5], now, 8000);
  proto::install_pairwise_key(fleet[4], fleet[5], rng);
  const bool poramb_after =
      session_ok(proto::ProtocolKind::kPoramb, fleet[4], fleet[5], now, 8100);
  std::printf("  %-16s without pairwise key: %s; after install: %s\n", "PORAMB",
              poramb_before ? "ok (bug!)" : "refused", poramb_after ? "ok" : "failed");

  std::printf("\ndone: certificate sessions bound key material to a validity window;\n"
              "only STS additionally unbinds session keys from the certificates.\n");
  return 0;
}
