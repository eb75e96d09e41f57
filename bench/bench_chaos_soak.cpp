// Chaos soak benchmark: session-establishment latency vs datagram loss.
//
// Sweeps the injected loss rate (0 / 1 / 5 / 20 %) over the reliability-
// enabled broker fabric and reports the p50/p99 handshake-establishment
// latency in VIRTUAL milliseconds — the time the retransmission engine's
// exponential-backoff timers had to advance the simulated clock to carry
// the handshake through the storm. A clean handshake completes in 0
// virtual ms; every lost flight costs at least one RTO. The numbers are
// fully deterministic: single-threaded dispatch plus the seeded fault
// stream make every run byte-identical.
//
// Exit code 1 on a stuck handshake (one that neither completes nor aborts
// within the retransmit budget plus one reconnect) — CI runs this as the
// chaos smoke gate.
//
// Usage: bench_chaos_soak [out.json]   (tools/run_bench.sh writes
//        BENCH_chaos.json at the repo root)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/concurrent_broker.hpp"
#include "core/faulty_transport.hpp"
#include "report.hpp"
#include "rng/test_rng.hpp"

using namespace ecqv;

namespace {

constexpr std::uint64_t kNow = 1700000000;
constexpr std::uint64_t kLifetime = 7 * 86400;
constexpr std::size_t kPeers = 200;  // handshakes per sweep point

bench::JsonSnapshot g_snapshot;

struct Fleet {
  cert::CertificateAuthority ca;
  std::vector<proto::Credentials> devices;

  explicit Fleet(std::size_t n)
      : ca(cert::DeviceId::from_string("chaos-ca"), [] {
          rng::TestRng boot(42);
          return ec::Curve::p256().random_scalar(boot);
        }()) {
    rng::TestRng rng(43);
    devices.reserve(n + 1);
    for (std::size_t i = 0; i <= n; ++i)
      devices.push_back(proto::provision_device(
          ca, cert::DeviceId::from_string("cw-" + std::to_string(i)), kNow, kLifetime, rng));
  }
};

proto::BrokerConfig chaos_config(std::size_t capacity) {
  proto::BrokerConfig config;
  config.store.capacity = capacity;
  config.store.policy = proto::RekeyPolicy::unlimited();
  config.max_pending = capacity * 2;
  config.reliability.enabled = true;
  config.reliability.handshake_budget = 16;
  // The fabric negotiates the leanest AEAD suite (aes128-ccm-8): the data
  // phase below reports the per-record wire saving it buys vs legacy v2.
  config.sts.offered_suites = aead::kOfferAll;
  return config;
}

/// One sweep point: kPeers sequential handshakes through a link dropping
/// `p_drop` of datagrams (plus a quarter as many duplicates and reorders),
/// measured one at a time on the shared virtual clock. Returns false on a
/// stuck handshake.
bool run_sweep_point(Fleet& fleet, double p_drop) {
  proto::IdealLinkTransport inner;
  proto::FaultyTransport::Config fault_config;
  fault_config.seed = 20230417;
  fault_config.p_drop = p_drop;
  fault_config.p_duplicate = p_drop / 4.0;
  fault_config.p_reorder = p_drop / 4.0;
  proto::FaultyTransport link(inner, std::move(fault_config));

  rng::TestRng server_rng(100);
  proto::ConcurrentSessionBroker server(
      fleet.devices[0], server_rng, link,
      proto::ConcurrentSessionBroker::Config{chaos_config(kPeers), /*workers=*/0});

  std::vector<double> latencies_ms;
  std::size_t reconnects = 0;
  std::vector<std::unique_ptr<rng::TestRng>> rngs;
  std::vector<std::unique_ptr<proto::ConcurrentSessionBroker>> clients;
  for (std::size_t i = 1; i <= kPeers; ++i) {
    rngs.push_back(std::make_unique<rng::TestRng>(1000 + i));
    clients.push_back(std::make_unique<proto::ConcurrentSessionBroker>(
        fleet.devices[i], *rngs.back(), link,
        proto::ConcurrentSessionBroker::Config{chaos_config(4), 0}));
    proto::ConcurrentSessionBroker& client = *clients.back();
    std::vector<proto::ConcurrentSessionBroker*> endpoints{&server, &client};

    const double start_ms = link.now_ms();
    if (!client.connect(fleet.devices[0].id, kNow).ok()) return false;
    proto::settle(endpoints, kNow);
    if (!client.broker().session_ready(fleet.devices[0].id, kNow)) {
      // The budget ran dry on pure bad luck; a real node reconnects once.
      ++reconnects;
      if (!client.connect(fleet.devices[0].id, kNow).ok()) return false;
      proto::settle(endpoints, kNow);
      if (!client.broker().session_ready(fleet.devices[0].id, kNow)) {
        std::fprintf(stderr, "bench_chaos_soak: stuck handshake (peer %zu, loss %.0f%%)\n", i,
                     p_drop * 100.0);
        return false;
      }
    }
    latencies_ms.push_back(link.now_ms() - start_ms);
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double p50 = latencies_ms[latencies_ms.size() / 2];
  const double p99 = latencies_ms[(latencies_ms.size() * 99) / 100];

  std::size_t retransmits = 0;
  for (const auto& client : clients) retransmits += client->broker().stats().retransmits;
  const proto::FaultyTransport::Stats wire = link.stats();

  const std::string point = "loss" + std::to_string(static_cast<int>(p_drop * 100.0));
  char note[160];
  std::snprintf(note, sizeof note,
                "%llu/%llu datagrams dropped, %zu retransmits, %zu reconnects, virtual time",
                static_cast<unsigned long long>(wire.dropped),
                static_cast<unsigned long long>(wire.sent), retransmits, reconnects);
  std::printf("%-28s p50 %8.1f ms   p99 %8.1f ms   %s\n", point.c_str(), p50, p99, note);
  // Snapshot rows in microseconds to stay unit-compatible with the other
  // committed BENCH_*.json files (the latencies are virtual, per the note).
  g_snapshot.add("BM_ChaosEstablish/" + point + "/p50", kPeers, p50 * 1000.0, note);
  g_snapshot.add("BM_ChaosEstablish/" + point + "/p99", kPeers, p99 * 1000.0, note);

  // Data phase: one 64 B telemetry record per established session. The
  // send_data wire accounting exposes the per-record overhead the
  // negotiated suite pays (aes128-ccm-8: 22 B vs the 45 B v2 frame).
  const Bytes payload(64, 0x42);
  for (auto& client : clients) {
    if (!client->broker().session_ready(fleet.devices[0].id, kNow)) continue;
    client->send_data(fleet.devices[0].id, payload, kNow);
    std::vector<proto::ConcurrentSessionBroker*> endpoints{&server, client.get()};
    proto::settle(endpoints, kNow);
  }
  std::uint64_t records = 0, payload_bytes = 0, wire_bytes = 0;
  for (const auto& client : clients) {
    records += client->stats().data_records;
    payload_bytes += client->stats().data_payload_bytes;
    wire_bytes += client->stats().data_wire_bytes;
  }
  if (records > 0) {
    const std::uint64_t overhead = (wire_bytes - payload_bytes) / records;
    char data_note[160];
    std::snprintf(data_note, sizeof data_note,
                  "%llu records, %llu payload B -> %llu wire B (negotiated ccm-8; v2 would pay "
                  "45 B/record)",
                  static_cast<unsigned long long>(records),
                  static_cast<unsigned long long>(payload_bytes),
                  static_cast<unsigned long long>(wire_bytes));
    std::printf("%-28s %llu overhead B/record   %s\n",
                ("data wire/" + point).c_str(), static_cast<unsigned long long>(overhead),
                data_note);
    g_snapshot.add("BM_ChaosDataWireOverheadB/" + point, records,
                   static_cast<double>(overhead), data_note);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("chaos soak: establishment latency vs loss (%zu handshakes per point,\n"
              "virtual-clock latencies — 0 ms means no retransmission was needed)\n\n",
              kPeers);
  Fleet fleet(kPeers);
  for (const double p_drop : {0.0, 0.01, 0.05, 0.20})
    if (!run_sweep_point(fleet, p_drop)) return 1;
  g_snapshot.write(argc > 1 ? argv[1] : "BENCH_chaos.json", "bench_chaos_soak",
                   ", \"peers\": " + std::to_string(kPeers) +
                       ", \"seed\": 20230417, \"latency_domain\": \"virtual_ms\"");
  return 0;
}
