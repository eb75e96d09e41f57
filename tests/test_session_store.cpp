// Sharded session store: LRU eviction order, capacity bounds, dead-session
// reclamation (the lingering fix), epoch ratcheting and sweeps, plus the
// paper's two-party session lifecycle (§II-A rekey budgets) on a single
// shard with ratcheting off.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/session_store.hpp"
#include "kdf/session_keys.hpp"

namespace ecqv::proto {
namespace {

constexpr std::uint64_t kT0 = 1700000000;

kdf::SessionKeys keys_for(std::string_view tag) {
  return kdf::derive_session_keys(bytes_of(std::string(tag)), bytes_of("salt"),
                                  bytes_of("session-store-test"));
}

cert::DeviceId peer(int i) { return cert::DeviceId::from_string("peer-" + std::to_string(i)); }

SessionStore::Config config(std::size_t capacity, std::size_t shards = 1,
                            RekeyPolicy policy = RekeyPolicy::unlimited(),
                            std::uint32_t max_epochs = 8) {
  return SessionStore::Config{policy, capacity, shards, max_epochs};
}

/// The two-party profile: one shard, no epoch ratchet — a spent or aged
/// session is dead and the caller must run a fresh handshake.
SessionStore::Config two_party(RekeyPolicy policy = {}) {
  return config(/*capacity=*/8, /*shards=*/1, policy, /*max_epochs=*/0);
}

TEST(SessionStore, LruEvictionOrderIsExact) {
  // One shard => exact global LRU order.
  SessionStore store(Role::kInitiator, config(3));
  for (int i = 0; i < 3; ++i) store.install(peer(i), keys_for("k" + std::to_string(i)), kT0);
  EXPECT_EQ(store.active_sessions(), 3u);

  // Touch peer 0 so peer 1 becomes least recently used.
  EXPECT_TRUE(store.seal(peer(0), bytes_of("m"), kT0).ok());
  store.install(peer(3), keys_for("k3"), kT0);  // forces one eviction
  EXPECT_EQ(store.active_sessions(), 3u);
  EXPECT_EQ(store.stats().capacity_evictions, 1u);
  EXPECT_TRUE(store.needs_rekey(peer(1), kT0));   // the LRU victim
  EXPECT_FALSE(store.needs_rekey(peer(0), kT0));  // survived (was touched)
  EXPECT_FALSE(store.needs_rekey(peer(2), kT0));
  EXPECT_FALSE(store.needs_rekey(peer(3), kT0));
}

TEST(SessionStore, CapacityBoundHoldsUnderChurn) {
  SessionStore store(Role::kInitiator, config(16, /*shards=*/4));
  for (int i = 0; i < 200; ++i) {
    store.install(peer(i), keys_for("churn" + std::to_string(i)), kT0);
    EXPECT_LE(store.active_sessions(), 16u);
  }
  EXPECT_EQ(store.active_sessions(), 16u);
  EXPECT_EQ(store.stats().capacity_evictions, 200u - 16u);
}

TEST(SessionStore, SealOpenRoundTripAcrossStores) {
  SessionStore a(Role::kInitiator, config(8));
  SessionStore b(Role::kResponder, config(8));
  const auto keys = keys_for("pair");
  a.install(peer(1), keys, kT0);
  b.install(peer(1), keys, kT0);
  auto record = a.seal(peer(1), bytes_of("telemetry"), kT0);
  ASSERT_TRUE(record.ok());
  auto opened = b.open(peer(1), record.value(), kT0);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), bytes_of("telemetry"));
}

TEST(SessionStore, DeadSessionsReclaimedOnLookupAndSweep) {
  // Age-expired sessions are wiped on the next touch (no lingering), and
  // sweep() reclaims the rest in bulk without waiting for peer traffic.
  SessionStore store(Role::kInitiator, config(64, 4, RekeyPolicy{UINT64_MAX, 60}));
  for (int i = 0; i < 10; ++i) store.install(peer(i), keys_for("d" + std::to_string(i)), kT0);
  EXPECT_EQ(store.active_sessions(), 10u);

  EXPECT_TRUE(store.needs_rekey(peer(0), kT0 + 61));  // touch evicts
  EXPECT_EQ(store.active_sessions(), 9u);
  EXPECT_EQ(store.sweep(kT0 + 61), 9u);  // bulk sweep reclaims the rest
  EXPECT_EQ(store.active_sessions(), 0u);
  EXPECT_EQ(store.stats().dead_evictions, 10u);
}

TEST(SessionStore, SpentBudgetWithoutRatchetBudgetIsDead) {
  // max_epochs = 0 disables resumption: a spent session dies on touch.
  SessionStore store(Role::kInitiator, config(8, 1, RekeyPolicy{2, UINT64_MAX}, 0));
  store.install(peer(1), keys_for("spend"), kT0);
  (void)store.seal(peer(1), bytes_of("m"), kT0);
  (void)store.seal(peer(1), bytes_of("m"), kT0);
  EXPECT_TRUE(store.needs_rekey(peer(1), kT0));
  EXPECT_EQ(store.active_sessions(), 0u);
  EXPECT_EQ(store.stats().dead_evictions, 1u);
}

TEST(SessionStore, RatchetResumesSpentSession) {
  SessionStore a(Role::kInitiator, config(8, 1, RekeyPolicy{2, UINT64_MAX}, 8));
  SessionStore b(Role::kResponder, config(8, 1, RekeyPolicy{2, UINT64_MAX}, 8));
  const auto keys = keys_for("resume");
  a.install(peer(1), keys, kT0);
  b.install(peer(1), keys, kT0);
  (void)a.seal(peer(1), bytes_of("m1"), kT0);
  (void)a.seal(peer(1), bytes_of("m2"), kT0);
  EXPECT_TRUE(a.needs_rekey(peer(1), kT0));        // budget spent...
  EXPECT_TRUE(a.can_ratchet(peer(1), kT0));        // ...but resumable
  EXPECT_EQ(a.active_sessions(), 1u);              // stays resident

  auto ea = a.ratchet(peer(1), kT0 + 1);
  auto eb = b.ratchet(peer(1), kT0 + 1);
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  EXPECT_EQ(ea.value(), 1u);
  EXPECT_EQ(eb.value(), 1u);

  // Both sides advanced to the same epoch keys: records flow again.
  auto record = a.seal(peer(1), bytes_of("epoch1"), kT0 + 1);
  ASSERT_TRUE(record.ok());
  auto opened = b.open(peer(1), record.value(), kT0 + 1);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value(), bytes_of("epoch1"));
}

TEST(SessionStore, RatchetDivergenceAndWipe) {
  // Keys diverge across epochs, but an IN-FLIGHT record sealed under epoch
  // 0 still opens right after the peer ratcheted: the acceptance window
  // retains the previous epoch's receive channel for exactly this straddle.
  SessionStore a(Role::kInitiator, config(8));
  SessionStore b(Role::kResponder, config(8));
  const auto keys = keys_for("diverge");
  a.install(peer(1), keys, kT0);
  b.install(peer(1), keys, kT0);
  auto in_flight = a.seal(peer(1), bytes_of("old"), kT0);
  ASSERT_TRUE(in_flight.ok());
  ASSERT_TRUE(b.ratchet(peer(1), kT0).ok());
  SessionStore::OpenInfo info;
  auto opened = b.open(peer(1), in_flight.value(), kT0, &info);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(info.via_window);
  EXPECT_EQ(b.stats().window_opens, 1u);

  // The window holds exactly ONE previous epoch: after the next ratchet,
  // epoch-0 keys are gone and a second straddler is rejected untouched.
  auto stale = a.seal(peer(1), bytes_of("stale"), kT0);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(b.ratchet(peer(1), kT0).ok());  // epoch 2; window now holds 1
  EXPECT_EQ(b.open(peer(1), stale.value(), kT0).error(), Error::kBadState);
  EXPECT_EQ(b.stats().epoch_rejects, 1u);
}

TEST(SessionStore, RatchetBudgetEscalatesToFullRekey) {
  SessionStore store(Role::kInitiator, config(8, 1, RekeyPolicy::unlimited(), 2));
  store.install(peer(1), keys_for("esc"), kT0);
  EXPECT_TRUE(store.ratchet(peer(1), kT0).ok());  // epoch 1
  EXPECT_TRUE(store.ratchet(peer(1), kT0).ok());  // epoch 2
  EXPECT_FALSE(store.can_ratchet(peer(1), kT0));  // budget exhausted
  EXPECT_EQ(store.ratchet(peer(1), kT0).error(), Error::kBadState);
  // Fresh install re-anchors at epoch 0.
  store.install(peer(1), keys_for("esc2"), kT0);
  EXPECT_EQ(store.epoch(peer(1)), std::optional<std::uint32_t>(0u));
  EXPECT_TRUE(store.can_ratchet(peer(1), kT0));
}

TEST(SessionStore, RatchetResetsBudgetsAndSequenceNumbers) {
  SessionStore a(Role::kInitiator, config(8, 1, RekeyPolicy{3, UINT64_MAX}, 8));
  SessionStore b(Role::kResponder, config(8, 1, RekeyPolicy{3, UINT64_MAX}, 8));
  const auto keys = keys_for("seq");
  a.install(peer(1), keys, kT0);
  b.install(peer(1), keys, kT0);
  for (int i = 0; i < 3; ++i) {
    auto r = a.seal(peer(1), bytes_of("x"), kT0);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(b.open(peer(1), r.value(), kT0).ok());
  }
  ASSERT_TRUE(a.ratchet(peer(1), kT0).ok());
  ASSERT_TRUE(b.ratchet(peer(1), kT0).ok());
  // Fresh channel: sequence numbers restart under the new keys on both
  // ends and the record budget is whole again.
  for (int i = 0; i < 3; ++i) {
    auto r = a.seal(peer(1), bytes_of("y"), kT0);
    ASSERT_TRUE(r.ok()) << i;
    ASSERT_TRUE(b.open(peer(1), r.value(), kT0).ok()) << i;
  }
}

TEST(SessionStore, ShardedLookupsStayIndependent) {
  SessionStore store(Role::kInitiator, config(256, 16));
  for (int i = 0; i < 128; ++i) store.install(peer(i), keys_for("s" + std::to_string(i)), kT0);
  EXPECT_EQ(store.active_sessions(), 128u);
  for (int i = 0; i < 128; ++i) {
    auto record = store.seal(peer(i), bytes_of("ping"), kT0);
    EXPECT_TRUE(record.ok()) << i;
  }
  store.retire(peer(42));
  EXPECT_EQ(store.active_sessions(), 127u);
  EXPECT_TRUE(store.needs_rekey(peer(42), kT0));
  EXPECT_FALSE(store.needs_rekey(peer(43), kT0));
}

TEST(SessionStore, ClockRegressionForcesRekey) {
  SessionStore store(Role::kInitiator, config(8));
  store.install(peer(1), keys_for("clock"), kT0);
  EXPECT_TRUE(store.needs_rekey(peer(1), kT0 - 1));
}

TEST(SessionStore, NeedsRekeyBeforeInstall) {
  SessionStore store(Role::kInitiator, two_party());
  EXPECT_TRUE(store.needs_rekey(peer(1), kT0));
  EXPECT_FALSE(store.seal(peer(1), bytes_of("x"), kT0).ok());
  EXPECT_EQ(store.active_sessions(), 0u);
}

TEST(SessionStore, RecordBudgetTriggersRekey) {
  SessionStore store(Role::kInitiator, two_party(RekeyPolicy{3, UINT64_MAX}));
  store.install(peer(1), keys_for("records"), kT0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(store.seal(peer(1), bytes_of("m"), kT0).ok()) << i;
  EXPECT_TRUE(store.needs_rekey(peer(1), kT0));
  EXPECT_EQ(store.seal(peer(1), bytes_of("m"), kT0).error(), Error::kBadState);
}

TEST(SessionStore, AgeBudgetTriggersRekey) {
  SessionStore store(Role::kInitiator, two_party(RekeyPolicy{UINT64_MAX, 60}));
  store.install(peer(1), keys_for("age"), kT0);
  EXPECT_FALSE(store.needs_rekey(peer(1), kT0 + 60));
  EXPECT_TRUE(store.needs_rekey(peer(1), kT0 + 61));
  EXPECT_FALSE(store.seal(peer(1), bytes_of("m"), kT0 + 61).ok());
}

TEST(SessionStore, ReinstallResetsBudgets) {
  SessionStore store(Role::kInitiator, two_party(RekeyPolicy{2, 60}));
  store.install(peer(1), keys_for("first"), kT0);
  (void)store.seal(peer(1), bytes_of("m"), kT0);
  (void)store.seal(peer(1), bytes_of("m"), kT0);
  EXPECT_TRUE(store.needs_rekey(peer(1), kT0));
  store.install(peer(1), keys_for("second"), kT0 + 100);
  EXPECT_FALSE(store.needs_rekey(peer(1), kT0 + 100));
  EXPECT_TRUE(store.seal(peer(1), bytes_of("m"), kT0 + 100).ok());
}

TEST(SessionStore, RekeyChangesKeysOnTheWire) {
  // Records sealed under the old session must not open under the new one.
  SessionStore a(Role::kInitiator, two_party());
  SessionStore b(Role::kResponder, two_party());
  a.install(peer(1), keys_for("old"), kT0);
  const Bytes old_record = a.seal(peer(1), bytes_of("m"), kT0).value();
  b.install(peer(1), keys_for("new"), kT0);
  EXPECT_FALSE(b.open(peer(1), old_record, kT0).ok());
}

TEST(SessionStore, RetireRemovesSession) {
  SessionStore store(Role::kInitiator, two_party());
  store.install(peer(1), keys_for("retire"), kT0);
  EXPECT_EQ(store.active_sessions(), 1u);
  store.retire(peer(1));
  EXPECT_EQ(store.active_sessions(), 0u);
  EXPECT_TRUE(store.needs_rekey(peer(1), kT0));
  store.retire(peer(1));  // idempotent
}

TEST(SessionStore, IndependentPeers) {
  SessionStore store(Role::kInitiator, two_party(RekeyPolicy{1, UINT64_MAX}));
  store.install(peer(1), keys_for("p1"), kT0);
  store.install(peer(2), keys_for("p2"), kT0);
  EXPECT_TRUE(store.seal(peer(1), bytes_of("m"), kT0).ok());
  EXPECT_TRUE(store.needs_rekey(peer(1), kT0));   // budget spent
  EXPECT_FALSE(store.needs_rekey(peer(2), kT0));  // untouched
  // The spent session was wiped and evicted the moment it was touched.
  EXPECT_EQ(store.active_sessions(), 1u);
}

TEST(SessionStore, ConcurrentInstallSealSweepStress) {
  // Per-shard locking under fire: 8 threads churn overlapping peers with
  // installs, seals, ratchets, retires and sweeps. Run under TSan in CI.
  // Invariants: the capacity bound holds at rest, counts balance, and no
  // operation crashes or deadlocks.
  SessionStore::Config cfg;
  cfg.capacity = 64;
  cfg.shards = 16;
  cfg.policy = RekeyPolicy::unlimited();
  cfg.max_epochs = 4;
  SessionStore store(Role::kInitiator, cfg);

  constexpr std::size_t kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  constexpr int kPeerSpace = 96;  // > capacity: eviction pressure guaranteed
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      const auto keys = keys_for("stress" + std::to_string(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const cert::DeviceId who = peer((i * 7 + static_cast<int>(t) * 13) % kPeerSpace);
        switch (i % 5) {
          case 0: store.install(who, keys, kT0); break;
          case 1: (void)store.seal(who, bytes_of("x"), kT0); break;
          case 2: (void)store.ratchet(who, kT0); break;
          case 3: (void)store.needs_rekey(who, kT0); break;
          case 4:
            if (i % 97 == 4) {
              store.retire(who);
              (void)store.sweep(kT0);
            } else {
              (void)store.can_ratchet(who, kT0);
            }
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_LE(store.active_sessions(), cfg.capacity);
  const auto& stats = store.stats();
  // Conservation: everything installed was either evicted, retired, or is
  // still resident. (Retires are not counted in stats; bound from below.)
  EXPECT_GE(stats.installs,
            stats.capacity_evictions + stats.dead_evictions + store.active_sessions());
  // The stress really exercised the interesting paths.
  EXPECT_GT(stats.capacity_evictions, 0u);
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.ratchets, 0u);
}

}  // namespace
}  // namespace ecqv::proto
