// Concurrent session fabric benchmark: worker sweep over both transports.
//
// Measures what the concurrency tentpole claims:
//
//   1. broker handshake+data throughput at 1/2/4/8 workers over the ideal
//      in-memory link (server-side STS termination + sealed telemetry,
//      clients driven by an equal number of driver threads);
//   2. the same fleet workload over the CAN-FD transport — real session
//      headers, ISO-TP fragmentation, flow control and simulated bus
//      arbitration — including the measured wire overhead;
//   3. sharded-store seal/open throughput at 1..8 threads (per-shard
//      locking in isolation, no handshake crypto in the loop).
//
// Scaling depends on physical cores: the JSON context records
// hardware_concurrency so snapshots from different machines read honestly.
// On a single-core container every multi-worker row collapses to ~1x —
// that is the machine, not the fabric.
//
// Usage: bench_concurrency [out.json]   (tools/run_bench.sh writes
//        BENCH_concurrency.json at the repo root)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "canfd/canfd_transport.hpp"
#include "core/concurrent_broker.hpp"
#include "net/loopback_soak.hpp"
#include "report.hpp"
#include "rng/test_rng.hpp"

using namespace ecqv;

namespace {

constexpr std::uint64_t kNow = 1700000000;
constexpr std::uint64_t kLifetime = 7 * 86400;
constexpr std::size_t kFleet = 96;    // peers per sweep point
constexpr std::size_t kRecords = 8;   // data records per peer after handshake

using Clock = std::chrono::steady_clock;

bench::JsonSnapshot g_snapshot;

void report(std::string name, std::size_t iterations, double us, std::string note = {}) {
  std::printf("%-46s %12.3f us/op   %s\n", name.c_str(), us, note.c_str());
  g_snapshot.add(std::move(name), iterations, us, std::move(note));
}

struct Fleet {
  cert::CertificateAuthority ca;
  std::vector<proto::Credentials> devices;

  explicit Fleet(std::size_t n)
      : ca(cert::DeviceId::from_string("bench-ca"), [] {
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

/// One sweep point: `workers` server workers + `workers` client driver
/// threads push kFleet handshakes and kFleet*kRecords sealed records
/// through `link`. Returns elapsed microseconds.
double run_fleet_workload(Fleet& fleet, proto::Transport& link, std::size_t workers) {
  const cert::DeviceId server_id = fleet.devices[0].id;
  rng::TestRng server_rng(100);
  proto::ConcurrentSessionBroker::Config server_config;
  server_config.workers = workers;
  server_config.broker.store.capacity = kFleet * 2;
  server_config.broker.store.shards = 64;
  server_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  server_config.broker.max_pending = kFleet * 2;
  server_config.broker.peer_cache_capacity = kFleet * 2;
  std::atomic<std::size_t> delivered{0};
  server_config.broker.on_data = [&](const cert::DeviceId&, Bytes) {
    delivered.fetch_add(1, std::memory_order_relaxed);
  };
  proto::ConcurrentSessionBroker server(fleet.devices[0], server_rng, link, server_config);

  proto::ConcurrentSessionBroker::Config client_config;
  client_config.broker.store.capacity = 4;
  client_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  std::vector<std::unique_ptr<rng::TestRng>> rngs;
  std::vector<std::unique_ptr<proto::ConcurrentSessionBroker>> clients;
  for (std::size_t i = 1; i <= kFleet; ++i) {
    rngs.push_back(std::make_unique<rng::TestRng>(300 + i));
    clients.push_back(std::make_unique<proto::ConcurrentSessionBroker>(
        fleet.devices[i], *rngs.back(), link, client_config));
  }

  const std::size_t driver_count = workers == 0 ? 1 : workers;
  std::atomic<bool> done{false};
  const auto start = Clock::now();

  // Client driver threads: kick the handshake, poll the inline client
  // endpoints, then push the telemetry burst once the session stands. A
  // client that cannot send would stall the workload forever: abort.
  std::vector<std::thread> drivers;
  for (std::size_t d = 0; d < driver_count; ++d) {
    drivers.emplace_back([&, d] {
      std::vector<proto::ConcurrentSessionBroker*> mine;
      std::vector<bool> burst_sent;
      for (std::size_t i = d; i < kFleet; i += driver_count) {
        mine.push_back(clients[i].get());
        burst_sent.push_back(false);
      }
      for (proto::ConcurrentSessionBroker* client : mine)
        if (!client->connect(server_id, kNow).ok()) std::abort();
      while (!done.load(std::memory_order_acquire)) {
        bool progress = false;
        for (std::size_t c = 0; c < mine.size(); ++c) {
          proto::ConcurrentSessionBroker* client = mine[c];
          if (client->poll(kNow) > 0) progress = true;
          if (!burst_sent[c] && client->broker().session_ready(server_id, kNow)) {
            burst_sent[c] = true;
            progress = true;
            for (std::size_t r = 0; r < kRecords; ++r)
              if (!client->send_data(server_id, bytes_of("telemetry"), kNow).ok()) std::abort();
          }
        }
        if (!progress) std::this_thread::yield();
      }
    });
  }

  // Main thread: dispatch the server until the whole workload landed. Any
  // failure makes completion unreachable, so bail out immediately instead
  // of spinning forever.
  while (server.broker().stats().handshakes_completed < kFleet ||
         delivered.load(std::memory_order_relaxed) < kFleet * kRecords) {
    if (server.broker().stats().handshakes_failed != 0u || server.stats().errors != 0u) {
      std::fprintf(stderr, "bench_concurrency: workload failed (handshakes_failed=%llu, "
                           "errors=%llu)\n",
                   static_cast<unsigned long long>(server.broker().stats().handshakes_failed),
                   static_cast<unsigned long long>(server.stats().errors));
      std::abort();
    }
    if (server.poll(kNow) == 0) std::this_thread::yield();
  }
  server.drain();
  done.store(true, std::memory_order_release);
  for (auto& driver : drivers) driver.join();
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

void bench_broker_sweep(Fleet& fleet, bool canfd) {
  const char* transport_name = canfd ? "canfd" : "ideal";
  double base_us = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    std::unique_ptr<proto::Transport> link;
    can::CanFdTransport* canfd_link = nullptr;
    if (canfd) {
      auto owned = std::make_unique<can::CanFdTransport>();
      canfd_link = owned.get();
      link = std::move(owned);
    } else {
      link = std::make_unique<proto::IdealLinkTransport>();
    }
    const double elapsed = run_fleet_workload(fleet, *link, workers);
    const std::size_t ops = kFleet * (1 + kRecords);  // handshakes + records
    std::string note = std::to_string(static_cast<long long>(kFleet * 1e6 / elapsed)) +
                       " handshakes/s incl. telemetry";
    if (base_us == 0.0) base_us = elapsed;
    if (workers > 1) {
      char speedup[32];
      std::snprintf(speedup, sizeof speedup, ", %.2fx vs w1", base_us / elapsed);
      note += speedup;
    }
    report("BM_FleetHandshakeData/" + std::string(transport_name) + "/w" +
               std::to_string(workers),
           ops, elapsed / static_cast<double>(ops), note);
    if (canfd_link != nullptr && workers == 1) {
      const auto& s = canfd_link->stats();
      const double overhead =
          static_cast<double>(s.wire_bytes) / static_cast<double>(s.payload_bytes);
      char label[128];
      std::snprintf(label, sizeof label, "%llu frames, %.2fx wire/payload, %.1f bus-ms",
                    static_cast<unsigned long long>(s.frames_sent + s.flow_controls), overhead,
                    canfd_link->bus_time_ms());
      report("BM_CanFdWireOverhead", s.messages_sent, 0.0, label);
    }
  }
}

void bench_store_threads(Fleet& fleet) {
  (void)fleet;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    proto::SessionStore::Config config;
    config.capacity = 4096;
    config.shards = 64;
    config.policy = proto::RekeyPolicy::unlimited();
    proto::SessionStore store(proto::Role::kInitiator, config);
    constexpr std::size_t kPeersPerThread = 64;
    constexpr std::size_t kSealsPerPeer = 400;
    std::vector<std::vector<cert::DeviceId>> peers(threads);
    for (std::size_t t = 0; t < threads; ++t)
      for (std::size_t p = 0; p < kPeersPerThread; ++p) {
        peers[t].push_back(
            cert::DeviceId::from_string("s" + std::to_string(t) + "-" + std::to_string(p)));
        store.install(peers[t].back(),
                      kdf::derive_session_keys(bytes_of("seed"), bytes_of("salt"),
                                               bytes_of("bench")),
                      kNow);
      }
    const Bytes payload = bytes_of("12-byte load");
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        for (std::size_t r = 0; r < kSealsPerPeer; ++r)
          for (const auto& peer : peers[t])
            if (!store.seal(peer, payload, kNow).ok()) std::abort();
      });
    for (auto& thread : pool) thread.join();
    const double elapsed_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count();
    const std::size_t total = threads * kPeersPerThread * kSealsPerPeer;
    report("BM_StoreSealThreads/t" + std::to_string(threads), total,
           elapsed_us / static_cast<double>(total),
           std::to_string(static_cast<long long>(total * 1e6 / elapsed_us)) + " seals/s");
  }
}

/// The same fleet workload through REAL kernel sockets on loopback: one
/// socket-backed broker behind an epoll driver, waves of clients
/// handshaking + streaming records with mid-burst piggyback rekeys (see
/// net/loopback_soak.hpp). The delta against BM_FleetHandshakeData/ideal/w1
/// is the measured kernel/socket cost of the data plane.
void bench_socket_loopback() {
  for (const bool tcp : {false, true}) {
    net::SoakConfig config;
    config.sessions = 2000;
    config.wave = 128;
    config.records_per_session = kRecords;
    config.records_budget = kRecords / 2;  // forces a mid-burst piggyback rekey
    config.tcp = tcp;
    auto result = net::run_loopback_soak(config);
    if (!result.ok()) {
      std::fprintf(stderr, "bench_concurrency: socket soak failed (%s)\n",
                   error_name(result.error()));
      std::abort();
    }
    const std::size_t ops = config.sessions * (1 + kRecords);
    char note[160];
    std::snprintf(note, sizeof note,
                  "%lld handshakes/s incl. telemetry, %zu rekeys, %zu retransmits",
                  static_cast<long long>(config.sessions * 1e6 /
                                         (result->elapsed_ms * 1000.0)),
                  result->rekeys, result->retransmits);
    report(std::string("BM_FleetHandshakeData/") + (tcp ? "tcp" : "udp") + "-loopback", ops,
           result->elapsed_ms * 1000.0 / static_cast<double>(ops), note);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("concurrent session fabric benchmark (%u hardware threads)\n\n",
              std::thread::hardware_concurrency());
  Fleet fleet(kFleet);

  std::printf("-- worker sweep, ideal link --\n");
  bench_broker_sweep(fleet, /*canfd=*/false);
  std::printf("\n-- worker sweep, CAN-FD transport --\n");
  bench_broker_sweep(fleet, /*canfd=*/true);
  std::printf("\n-- sharded store, thread sweep --\n");
  bench_store_threads(fleet);
  std::printf("\n-- real sockets, loopback --\n");
  bench_socket_loopback();

  // hardware_concurrency now rides in the shared "cpu" provenance block.
  g_snapshot.write(argc > 1 ? argv[1] : "BENCH_concurrency.json", "bench_concurrency",
                   ", \"fleet\": " + std::to_string(kFleet) +
                       ", \"records_per_peer\": " + std::to_string(kRecords));
  return 0;
}
