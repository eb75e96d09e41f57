// Chaos soak: a 1000-peer fleet establishes sessions through a link that
// drops 20% of datagrams and sprinkles duplicates and reordering on the
// rest — and still reaches 100% establishment with exact accounting,
// because the reliability engine recovers every lost flight on the
// virtual clock. A second, smaller soak pushes frame-level loss through
// the full CAN-FD stack via frame_drop_plan. Runs under TSan in CI
// (shrunk — sanitized runtimes are ~10x).
#include <gtest/gtest.h>

#include <atomic>

#include "canfd/canfd_transport.hpp"
#include "core/concurrent_broker.hpp"
#include "core/faulty_transport.hpp"
#include "protocol_fixture.hpp"

#if defined(__SANITIZE_THREAD__)
#define ECQV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ECQV_TSAN 1
#endif
#endif
#ifndef ECQV_TSAN
#define ECQV_TSAN 0
#endif

namespace ecqv::proto {
namespace {

using testing::kLifetime;
using testing::kNow;

struct Fleet {
  testing::World world;
  std::vector<Credentials> devices;

  explicit Fleet(std::size_t n, std::uint64_t seed = 9000) {
    rng::TestRng rng(seed);
    devices.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      devices.push_back(provision_device(
          world.ca, cert::DeviceId::from_string("cw-" + std::to_string(i)), kNow, kLifetime,
          rng));
  }
};

BrokerConfig chaos_config(std::size_t capacity) {
  BrokerConfig config;
  config.store.capacity = capacity;
  config.store.shards = 16;
  config.store.policy = RekeyPolicy::unlimited();
  config.max_pending = capacity * 2;
  config.reliability.enabled = true;
  // At 20% loss an attempt round-trips with p ~= 0.64; sixteen transmissions
  // push the chance of a spurious budget abort below 1e-6 per handshake.
  config.reliability.handshake_budget = 16;
  return config;
}

TEST(ChaosSoak, ThousandPeersThroughTwentyPercentLoss) {
  // The acceptance soak: every peer must establish despite 20% drop plus
  // a duplicate + reorder mix, with zero counter drift and every abort
  // matched to a reconnect. Seed-pinned: the fault stream replays from
  // 20230417 (the worker pool still interleaves sends, so which datagram
  // draws which fault varies run to run — the invariants must not).
  constexpr std::size_t kPeers = ECQV_TSAN ? 160 : 1000;
  Fleet fleet(kPeers + 1);

  IdealLinkTransport inner;
  FaultyTransport::Config fault_config;
  fault_config.seed = 20230417;
  fault_config.p_drop = 0.20;
  fault_config.p_duplicate = 0.05;
  fault_config.p_reorder = 0.05;
  FaultyTransport link(inner, std::move(fault_config));

  rng::TestRng server_rng(400);
  std::atomic<std::size_t> records{0};
  ConcurrentSessionBroker::Config server_config{chaos_config(kPeers), /*workers=*/4};
  server_config.broker.on_data = [&](const cert::DeviceId&, Bytes) { ++records; };
  ConcurrentSessionBroker server(fleet.devices[0], server_rng, link, server_config);

  std::vector<std::unique_ptr<rng::TestRng>> rngs;
  std::vector<std::unique_ptr<ConcurrentSessionBroker>> clients;
  std::vector<ConcurrentSessionBroker*> endpoints{&server};
  for (std::size_t i = 1; i <= kPeers; ++i) {
    rngs.push_back(std::make_unique<rng::TestRng>(1000 + i));
    clients.push_back(std::make_unique<ConcurrentSessionBroker>(
        fleet.devices[i], *rngs.back(), link,
        ConcurrentSessionBroker::Config{chaos_config(4), 0}));
    endpoints.push_back(clients.back().get());
  }

  constexpr std::size_t kWave = 50;
  for (std::size_t base = 0; base < kPeers; base += kWave) {
    const std::size_t end = std::min(base + kWave, kPeers);
    for (std::size_t i = base; i < end; ++i)
      ASSERT_TRUE(clients[i]->connect(fleet.devices[0].id, kNow).ok()) << i;
    settle(endpoints, kNow);
  }

  // Even a generous budget can run dry on pure bad luck; a real node
  // reconnects after the abort, so the soak does too — bounded, and folded
  // into the exact accounting below.
  std::size_t reconnects = 0;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::size_t> stragglers;
    for (std::size_t i = 0; i < kPeers; ++i)
      if (!clients[i]->broker().session_ready(fleet.devices[0].id, kNow)) stragglers.push_back(i);
    if (stragglers.empty()) break;
    for (std::size_t i : stragglers) {
      ++reconnects;
      ASSERT_TRUE(clients[i]->connect(fleet.devices[0].id, kNow).ok()) << i;
    }
    settle(endpoints, kNow);
  }

  // 100% eventual establishment — the headline robustness claim.
  for (std::size_t i = 0; i < kPeers; ++i) {
    EXPECT_TRUE(clients[i]->broker().session_ready(fleet.devices[0].id, kNow)) << i;
    EXPECT_TRUE(server.broker().session_ready(fleet.devices[i + 1].id, kNow)) << i;
  }

  // Zero counter drift: every client completes exactly once, every abort
  // is accounted to a reconnect, nobody is declared dead, and the server's
  // completions/installs exceed kPeers only by handshakes it finished
  // whose final flight died on the way to a client that then reconnected.
  EXPECT_GE(server.broker().stats().handshakes_completed, kPeers);
  EXPECT_LE(server.broker().stats().handshakes_completed, kPeers + reconnects);
  EXPECT_EQ(server.broker().stats().handshakes_aborted, 0u);
  EXPECT_EQ(server.broker().stats().dead_peers, 0u);
  EXPECT_GE(server.broker().store().stats().installs, kPeers);
  EXPECT_LE(server.broker().store().stats().installs, kPeers + reconnects);
  std::size_t client_completed = 0, client_retransmits = 0, client_aborted = 0;
  for (const auto& client : clients) {
    client_completed += client->broker().stats().handshakes_completed;
    client_retransmits += client->broker().stats().retransmits;
    client_aborted += client->broker().stats().handshakes_aborted;
  }
  EXPECT_EQ(client_completed, kPeers);
  EXPECT_EQ(client_aborted, reconnects);

  // The storm was real: the link actually dropped a big slice of the
  // traffic and the engine actually recovered (retransmissions, duplicate
  // absorption) — not a quietly clean run.
  EXPECT_GT(link.stats().dropped, link.stats().sent / 10);
  EXPECT_GT(link.stats().duplicated, 0u);
  EXPECT_GT(link.stats().reordered, 0u);
  EXPECT_GT(client_retransmits, 0u);
  EXPECT_GT(server.broker().stats().duplicates_ignored, 0u);

  // Stragglers (a reordered A1 arriving after its handshake completed
  // spawns an orphan responder entry) are bounded and reclaimed by the S1
  // virtual-time sweep — the fabric ends the storm with zero residue.
  link.advance_to(link.now_ms() + 31000.0);
  server.broker().sweep(kNow);
  for (const auto& client : clients) client->broker().sweep(kNow);
  EXPECT_EQ(server.broker().pending_handshakes(), 0u);
  EXPECT_EQ(server.broker().reliability_backlog(), 0u);

  // The recovered keys agree end to end: on a healed link every peer
  // pushes one record and every record opens.
  link.set_fault_probabilities(0, 0, 0, 0, 0);
  for (std::size_t i = 0; i < kPeers; ++i)
    ASSERT_TRUE(clients[i]->send_data(fleet.devices[0].id, bytes_of("chaos"), kNow).ok()) << i;
  settle(endpoints, kNow);
  EXPECT_EQ(records.load(), kPeers);
  EXPECT_EQ(server.broker().stats().records_delivered, kPeers);
}

TEST(ChaosSoak, FleetOverCanFdWithFrameLevelLoss) {
  // Same engine, real wire: frames (not whole datagrams) die inside the
  // CAN-FD stack, killing multi-frame transfers mid-reassembly. The
  // clean FaultyTransport wrapper supplies the virtual clock the
  // retransmission timers run on (the bus clock advances with traffic).
  constexpr std::size_t kPeers = ECQV_TSAN ? 8 : 24;
  Fleet fleet(kPeers + 1);

  can::CanFdTransport::Config can_config;
  can_config.drop_frame = FaultyTransport::frame_drop_plan(/*seed=*/7, /*p=*/0.02);
  can::CanFdTransport bus(std::move(can_config));
  FaultyTransport link(bus, {});  // no datagram faults — loss is frame-level

  rng::TestRng server_rng(500);
  ConcurrentSessionBroker::Config server_config{chaos_config(kPeers), /*workers=*/2};
  ConcurrentSessionBroker server(fleet.devices[0], server_rng, link, server_config);

  std::vector<std::unique_ptr<rng::TestRng>> rngs;
  std::vector<std::unique_ptr<ConcurrentSessionBroker>> clients;
  std::vector<ConcurrentSessionBroker*> endpoints{&server};
  for (std::size_t i = 1; i <= kPeers; ++i) {
    rngs.push_back(std::make_unique<rng::TestRng>(2000 + i));
    clients.push_back(std::make_unique<ConcurrentSessionBroker>(
        fleet.devices[i], *rngs.back(), link,
        ConcurrentSessionBroker::Config{chaos_config(4), 0}));
    endpoints.push_back(clients.back().get());
  }

  for (std::size_t i = 0; i < kPeers; ++i)
    ASSERT_TRUE(clients[i]->connect(fleet.devices[0].id, kNow).ok()) << i;
  settle(endpoints, kNow);

  for (std::size_t i = 0; i < kPeers; ++i) {
    EXPECT_TRUE(clients[i]->broker().session_ready(fleet.devices[0].id, kNow)) << i;
    EXPECT_TRUE(server.broker().session_ready(fleet.devices[i + 1].id, kNow)) << i;
  }
  EXPECT_EQ(server.broker().stats().handshakes_completed, kPeers);
  EXPECT_EQ(server.broker().stats().handshakes_aborted, 0u);
  // Frame loss really bit: transfers aborted mid-reassembly on the wire,
  // and the engine papered over every one of them.
  EXPECT_GT(bus.stats().frames_dropped, 0u);
  EXPECT_GT(bus.stats().aborted_transfers, 0u);
}

}  // namespace
}  // namespace ecqv::proto
