// Session broker: interleaved many-peer handshakes, authenticated epoch
// ratcheting, full-rekey escalation, and the 1000-peer soak with a
// capacity-bounded store (acceptance: evictions observed, memory bounded).
#include <gtest/gtest.h>

#include "core/session_broker.hpp"
#include "protocol_fixture.hpp"

namespace ecqv::proto {
namespace {

using testing::kLifetime;
using testing::kNow;

/// Delivers messages between two brokers until neither produces a reply.
/// Returns the number of messages exchanged (0 on failure).
std::size_t pump(SessionBroker& a, SessionBroker& b, Result<Message> first,
                 std::uint64_t now) {
  auto exchanged = SessionBroker::pump(a, b, std::move(first), now);
  return exchanged.ok() ? exchanged.value() : 0;
}

struct Fleet {
  testing::World world;
  std::vector<Credentials> devices;

  explicit Fleet(std::size_t n, std::uint64_t seed = 4000) {
    rng::TestRng rng(seed);
    devices.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      devices.push_back(provision_device(
          world.ca, cert::DeviceId::from_string("dev-" + std::to_string(i)), kNow, kLifetime,
          rng));
  }
};

BrokerConfig server_config(std::size_t capacity, std::uint32_t max_epochs = 8) {
  BrokerConfig config;
  config.store.capacity = capacity;
  config.store.shards = 8;
  config.store.max_epochs = max_epochs;
  config.store.policy = RekeyPolicy::unlimited();
  return config;
}

TEST(SessionBroker, TwoBrokerHandshakeEstablishesSession) {
  testing::World world;
  rng::TestRng rng_a(1), rng_b(2);
  SessionBroker alice(world.alice, rng_a, server_config(16));
  SessionBroker bob(world.bob, rng_b, server_config(16));

  EXPECT_EQ(pump(alice, bob, alice.connect(world.bob.id, kNow), kNow), 4u);  // A1 B1 A2 B2
  EXPECT_TRUE(alice.session_ready(world.bob.id, kNow));
  EXPECT_TRUE(bob.session_ready(world.alice.id, kNow));
  EXPECT_EQ(alice.pending_handshakes(), 0u);
  EXPECT_EQ(bob.pending_handshakes(), 0u);

  auto record = alice.seal(world.bob.id, bytes_of("hello fleet"), kNow);
  ASSERT_TRUE(record.ok());
  auto opened = bob.open(world.alice.id, record.value(), kNow);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), bytes_of("hello fleet"));
}

TEST(SessionBroker, RatchetAnnouncementAdvancesBothSides) {
  testing::World world;
  rng::TestRng rng_a(3), rng_b(4);
  SessionBroker alice(world.alice, rng_a, server_config(16));
  SessionBroker bob(world.bob, rng_b, server_config(16));
  ASSERT_GT(pump(alice, bob, alice.connect(world.bob.id, kNow), kNow), 0u);

  auto announce = alice.initiate_ratchet(world.bob.id, kNow + 5);
  ASSERT_TRUE(announce.ok());
  EXPECT_EQ(announce->step, "RK1");
  auto reply = bob.on_message(world.alice.id, announce.value(), kNow + 5);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply.value().has_value());  // one-way announcement

  EXPECT_EQ(alice.store().epoch(world.bob.id), std::optional<std::uint32_t>(1u));
  EXPECT_EQ(bob.store().epoch(world.alice.id), std::optional<std::uint32_t>(1u));

  // Epoch-1 records flow in both directions.
  auto record = bob.seal(world.alice.id, bytes_of("post-ratchet"), kNow + 5);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(alice.open(world.bob.id, record.value(), kNow + 5).ok());
}

TEST(SessionBroker, RatchetAnnouncementIsAuthenticated) {
  testing::World world;
  rng::TestRng rng_a(5), rng_b(6);
  SessionBroker alice(world.alice, rng_a, server_config(16));
  SessionBroker bob(world.bob, rng_b, server_config(16));
  ASSERT_GT(pump(alice, bob, alice.connect(world.bob.id, kNow), kNow), 0u);

  auto announce = alice.initiate_ratchet(world.bob.id, kNow);
  ASSERT_TRUE(announce.ok());
  Message forged = announce.value();
  forged.payload[7] ^= 0x01;  // corrupt the MAC
  EXPECT_EQ(bob.on_message(world.alice.id, forged, kNow).error(),
            Error::kAuthenticationFailed);
  EXPECT_EQ(bob.store().epoch(world.alice.id), std::optional<std::uint32_t>(0u));
  // The genuine announcement still applies afterwards.
  EXPECT_TRUE(bob.on_message(world.alice.id, announce.value(), kNow).ok());
  EXPECT_EQ(bob.store().epoch(world.alice.id), std::optional<std::uint32_t>(1u));
  // Replaying it must fail (epoch lockstep).
  EXPECT_EQ(bob.on_message(world.alice.id, announce.value(), kNow).error(), Error::kBadState);
}

TEST(SessionBroker, RefreshEscalatesToFullRekeyAfterEpochBudget) {
  testing::World world;
  rng::TestRng rng_a(7), rng_b(8);
  SessionBroker alice(world.alice, rng_a, server_config(16, /*max_epochs=*/2));
  SessionBroker bob(world.bob, rng_b, server_config(16, /*max_epochs=*/2));
  ASSERT_GT(pump(alice, bob, alice.connect(world.bob.id, kNow), kNow), 0u);

  for (int epoch = 1; epoch <= 2; ++epoch) {
    auto announce = alice.refresh(world.bob.id, kNow);
    ASSERT_TRUE(announce.ok());
    ASSERT_EQ(announce->step, "RK1");
    ASSERT_TRUE(bob.on_message(world.alice.id, announce.value(), kNow).ok());
  }
  // Ratchet budget spent: refresh() must escalate to a full handshake.
  auto full = alice.refresh(world.bob.id, kNow);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->step, "A1");
  EXPECT_EQ(alice.stats().full_rekeys, 1u);
  ASSERT_TRUE(SessionBroker::pump(alice, bob, std::move(full), kNow).ok());
  EXPECT_EQ(alice.store().epoch(world.bob.id), std::optional<std::uint32_t>(0u));
  EXPECT_TRUE(alice.session_ready(world.bob.id, kNow));
  auto record = alice.seal(world.bob.id, bytes_of("fresh"), kNow);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(bob.open(world.alice.id, record.value(), kNow).ok());
}

TEST(SessionBroker, SharedPeerCacheHitsAcrossHandshakes) {
  testing::World world;
  rng::TestRng rng_a(9), rng_b(10);
  SessionBroker alice(world.alice, rng_a, server_config(16));
  SessionBroker bob(world.bob, rng_b, server_config(16));
  ASSERT_GT(pump(alice, bob, alice.connect(world.bob.id, kNow), kNow), 0u);
  const auto first_misses = bob.peer_cache().stats().misses;
  EXPECT_GE(first_misses, 1u);
  // Re-handshake with the same certificate: extraction must hit the cache.
  ASSERT_GT(pump(alice, bob, alice.connect(world.bob.id, kNow), kNow), 0u);
  EXPECT_EQ(bob.peer_cache().stats().misses, first_misses);
  EXPECT_GE(bob.peer_cache().stats().hits, 1u);
}

TEST(SessionBroker, SimultaneousOpenResolvesByIdentityTieBreak) {
  // Both endpoints connect() at once and the A1s cross on the wire. The
  // larger id keeps its initiator role (swallowing the crossing A1), the
  // smaller id yields and responds — exactly one session establishes.
  testing::World world;  // "alice" < "bob" lexicographically
  rng::TestRng rng_a(21), rng_b(22);
  SessionBroker alice(world.alice, rng_a, server_config(16));
  SessionBroker bob(world.bob, rng_b, server_config(16));

  auto a1_from_alice = alice.connect(world.bob.id, kNow);
  auto a1_from_bob = bob.connect(world.alice.id, kNow);
  ASSERT_TRUE(a1_from_alice.ok());
  ASSERT_TRUE(a1_from_bob.ok());

  // Bob (larger id) swallows alice's crossing A1 and keeps initiating.
  auto swallowed = bob.on_message(world.alice.id, a1_from_alice.value(), kNow);
  ASSERT_TRUE(swallowed.ok());
  EXPECT_FALSE(swallowed.value().has_value());
  // Alice (smaller id) yields her initiator and answers bob's A1; the
  // handshake completes from there.
  ASSERT_TRUE(SessionBroker::pump(bob, alice, std::move(a1_from_bob), kNow).ok());
  EXPECT_TRUE(alice.session_ready(world.bob.id, kNow));
  EXPECT_TRUE(bob.session_ready(world.alice.id, kNow));

  auto record = alice.seal(world.bob.id, bytes_of("converged"), kNow);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(bob.open(world.alice.id, record.value(), kNow).ok());
}

TEST(SessionBroker, FailedDuplicateA1LeavesHealthyHandshakeIntact) {
  // A corrupted duplicate A1 (lossy transport) must not destroy the
  // in-flight responder handshake it never belonged to.
  testing::World world;
  rng::TestRng rng_s(23), rng_c(24);
  SessionBroker server(world.alice, rng_s, server_config(16));
  rng::TestRng ghost_rng(25);
  StsInitiator client(world.bob, ghost_rng, StsConfig{kNow});
  auto a1 = client.start();
  ASSERT_TRUE(a1.has_value());
  auto b1 = server.on_message(world.bob.id, *a1, kNow);
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b1.value().has_value());
  EXPECT_EQ(server.pending_handshakes(), 1u);

  Message corrupted = *a1;
  corrupted.payload.pop_back();  // wrong length -> responder rejects
  EXPECT_FALSE(server.on_message(world.bob.id, corrupted, kNow).ok());
  EXPECT_EQ(server.pending_handshakes(), 1u);  // healthy entry survived

  // The real handshake still completes.
  auto a2 = client.on_message(*b1.value());
  ASSERT_TRUE(a2.ok());
  auto ack = server.on_message(world.bob.id, *a2.value(), kNow);
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE(server.session_ready(world.bob.id, kNow));
}

TEST(SessionBroker, RejectsUnknownStepsAndStrangers) {
  testing::World world;
  rng::TestRng rng(11);
  SessionBroker broker(world.alice, rng, server_config(16));
  Message stray;
  stray.step = "B1";
  stray.payload = bytes_of("noise");
  EXPECT_EQ(broker.on_message(world.bob.id, stray, kNow).error(), Error::kBadState);
  EXPECT_EQ(broker.seal(world.bob.id, bytes_of("m"), kNow).error(), Error::kBadState);
}

TEST(SessionBroker, PendingHandshakesExpireOnSweep) {
  testing::World world;
  Fleet fleet(3);
  rng::TestRng rng(12);
  SessionBroker server(world.alice, rng, server_config(16));
  // Three clients send A1 and vanish.
  for (auto& device : fleet.devices) {
    rng::TestRng crng(100);
    StsInitiator ghost(device, crng, StsConfig{kNow});
    auto a1 = ghost.start();
    ASSERT_TRUE(a1.has_value());
    ASSERT_TRUE(server.on_message(device.id, *a1, kNow).ok());
  }
  EXPECT_EQ(server.pending_handshakes(), 3u);
  EXPECT_EQ(server.sweep(kNow + 30), 0u);  // the 30 s TTL has not passed
  EXPECT_EQ(server.sweep(kNow + 31), 3u);
  EXPECT_EQ(server.pending_handshakes(), 0u);
  EXPECT_EQ(server.stats().pending_expired, 3u);
}

// ---------------------------------------------------------------- the soak

TEST(SessionBrokerSoak, ThousandPeerInterleavedHandshakeSealOpen) {
  constexpr std::size_t kFleetSize = 1000;
  constexpr std::size_t kServerCapacity = 256;  // << fleet: must evict
  Fleet fleet(kFleetSize);
  rng::TestRng server_rng(13);
  BrokerConfig config = server_config(kServerCapacity);
  config.max_pending = kFleetSize;
  config.peer_cache_capacity = kFleetSize;
  SessionBroker server(fleet.world.alice, server_rng, config);

  // Client brokers: one per device, tiny stores.
  std::vector<std::unique_ptr<rng::TestRng>> client_rngs;
  std::vector<std::unique_ptr<SessionBroker>> clients;
  BrokerConfig client_config = server_config(2);
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    client_rngs.push_back(std::make_unique<rng::TestRng>(10000 + i));
    clients.push_back(
        std::make_unique<SessionBroker>(fleet.devices[i], *client_rngs[i], client_config));
  }

  // Interleaved handshakes: every client advances one step per wave, so the
  // server holds hundreds of half-open handshakes at once.
  std::vector<std::optional<Message>> client_out(kFleetSize);
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    auto a1 = clients[i]->connect(server.id(), kNow);
    ASSERT_TRUE(a1.ok()) << i;
    client_out[i] = std::move(a1).value();
  }
  std::size_t waves = 0;
  for (bool progress = true; progress && waves < 8; ++waves) {
    progress = false;
    // Wave: deliver every client's out-message to the server, then the
    // server's replies back to the clients.
    std::size_t max_pending = 0;
    for (std::size_t i = 0; i < kFleetSize; ++i) {
      if (!client_out[i].has_value()) continue;
      progress = true;
      auto reply = server.on_message(fleet.devices[i].id, *client_out[i], kNow);
      ASSERT_TRUE(reply.ok()) << "peer " << i;
      max_pending = std::max(max_pending, server.pending_handshakes());
      if (!reply.value().has_value()) {
        client_out[i].reset();
        continue;
      }
      auto client_reply = clients[i]->on_message(server.id(), *reply.value(), kNow);
      ASSERT_TRUE(client_reply.ok()) << "peer " << i;
      client_out[i] = std::move(client_reply).value();
    }
    if (waves == 0) {
      EXPECT_EQ(max_pending, kFleetSize);  // fully interleaved
    }
  }
  EXPECT_EQ(server.stats().handshakes_completed, kFleetSize);
  EXPECT_EQ(server.pending_handshakes(), 0u);

  // Capacity bound held: the store never exceeded its bound and evicted.
  EXPECT_EQ(server.store().active_sessions(), kServerCapacity);
  EXPECT_EQ(server.store().stats().capacity_evictions, kFleetSize - kServerCapacity);

  // Steady state: the most recent kServerCapacity peers seal/open; evicted
  // peers get kBadState (and would re-handshake via refresh()).
  std::size_t live = 0, evicted = 0;
  for (std::size_t i = 0; i < kFleetSize; ++i) {
    auto record = clients[i]->seal(server.id(), bytes_of("ping"), kNow);
    ASSERT_TRUE(record.ok()) << i;  // every client still has its session
    auto opened = server.open(fleet.devices[i].id, record.value(), kNow);
    if (opened.ok()) {
      ++live;
      // And the return path works too.
      auto pong = server.seal(fleet.devices[i].id, bytes_of("pong"), kNow);
      ASSERT_TRUE(pong.ok());
      ASSERT_TRUE(clients[i]->open(server.id(), pong.value(), kNow).ok());
    } else {
      EXPECT_EQ(opened.error(), Error::kBadState);
      ++evicted;
    }
  }
  EXPECT_EQ(live, kServerCapacity);
  EXPECT_EQ(evicted, kFleetSize - kServerCapacity);

  // An evicted peer recovers with a full re-handshake through refresh().
  auto again = clients[0]->refresh(server.id(), kNow);
  ASSERT_TRUE(again.ok());
  // Client 0's own session was still live, so refresh ratchets; force the
  // full path instead: retire and reconnect.
  clients[0]->store().retire(server.id());
  const cert::DeviceId client_id = fleet.devices[0].id;
  ASSERT_TRUE(
      SessionBroker::pump(*clients[0], server, clients[0]->connect(server.id(), kNow), kNow)
          .ok());
  EXPECT_TRUE(server.session_ready(client_id, kNow));
  auto record = server.seal(client_id, bytes_of("welcome back"), kNow);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(clients[0]->open(server.id(), record.value(), kNow).ok());
}

}  // namespace
}  // namespace ecqv::proto
