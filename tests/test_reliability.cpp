// The reliability engine: retransmission timers on the virtual clock,
// idempotent duplicate handling, the finished-handshake replay cache,
// RK2 ratchet acks, budget exhaustion (handshake abort / ratchet
// escalation), dead-peer detection, and the S1 virtual-time pending
// sweep. Every scenario runs the real fabric: ConcurrentSessionBroker
// endpoints over a FaultyTransport with a scripted or seeded fault plan,
// driven by settle().
#include <gtest/gtest.h>

#include "core/concurrent_broker.hpp"
#include "core/faulty_transport.hpp"
#include "protocol_fixture.hpp"

namespace ecqv::proto {
namespace {

using testing::kNow;

BrokerConfig reliable_config() {
  BrokerConfig config;
  config.store.capacity = 16;
  config.store.policy = RekeyPolicy::unlimited();
  config.reliability.enabled = true;
  return config;
}

/// Two inline endpoints over one faulty link, clocks bound, ready to
/// converge through settle().
struct LossyPair {
  testing::World world;
  rng::TestRng rng_a{21}, rng_b{22};
  IdealLinkTransport inner;
  FaultyTransport link;
  ConcurrentSessionBroker alice, bob;

  explicit LossyPair(FaultyTransport::Config faults, BrokerConfig config = reliable_config())
      : link(inner, std::move(faults)),
        alice(world.alice, rng_a, link, {config, /*workers=*/0}),
        bob(world.bob, rng_b, link, {config, /*workers=*/0}) {}

  std::size_t converge() { return settle({&alice, &bob}, kNow); }
};

TEST(Reliability, LostFirstFlightRecoversByRetransmission) {
  FaultyTransport::Config faults;
  faults.plan[0] = FaultyTransport::Fault::kDrop;  // A1 dies on the wire
  LossyPair pair(std::move(faults));

  ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
  pair.converge();

  EXPECT_TRUE(pair.alice.broker().session_ready(pair.world.bob.id, kNow));
  EXPECT_TRUE(pair.bob.broker().session_ready(pair.world.alice.id, kNow));
  EXPECT_EQ(pair.alice.broker().stats().retransmits, 1u);
  EXPECT_EQ(pair.alice.broker().stats().handshakes_completed, 1u);
  EXPECT_EQ(pair.bob.broker().stats().handshakes_completed, 1u);
  EXPECT_EQ(pair.alice.broker().reliability_backlog(), 0u);
  EXPECT_EQ(pair.bob.broker().reliability_backlog(), 0u);
  // Recovery happened on the virtual clock — it actually moved.
  EXPECT_GT(pair.link.now_ms(), 0.0);
}

TEST(Reliability, LostResponderFlightIsReElicitedByDuplicate) {
  // B1 is lost. The responder arms no timer; the initiator's retransmitted
  // A1 is a byte-identical repeat, which re-elicits the cached B1 without
  // touching the (poisonous-on-replay) party state machine.
  FaultyTransport::Config faults;
  faults.plan[1] = FaultyTransport::Fault::kDrop;  // B1
  LossyPair pair(std::move(faults));

  ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
  pair.converge();

  EXPECT_TRUE(pair.alice.broker().session_ready(pair.world.bob.id, kNow));
  EXPECT_TRUE(pair.bob.broker().session_ready(pair.world.alice.id, kNow));
  EXPECT_EQ(pair.alice.broker().stats().retransmits, 1u);
  EXPECT_EQ(pair.bob.broker().stats().duplicates_ignored, 1u);
  EXPECT_EQ(pair.bob.broker().stats().handshakes_failed, 0u);
  EXPECT_EQ(pair.bob.broker().stats().handshakes_completed, 1u);
}

TEST(Reliability, LostFinalFlightReplaysFromTheFinishedCache) {
  // B2 is lost AFTER the responder completed: the pending entry is gone,
  // so the retransmitted A2 must be answered from the finished cache —
  // idempotently, without a second install or a poisoned fresh party.
  FaultyTransport::Config faults;
  faults.plan[3] = FaultyTransport::Fault::kDrop;  // B2
  LossyPair pair(std::move(faults));

  ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
  pair.converge();

  EXPECT_TRUE(pair.alice.broker().session_ready(pair.world.bob.id, kNow));
  EXPECT_TRUE(pair.bob.broker().session_ready(pair.world.alice.id, kNow));
  EXPECT_EQ(pair.alice.broker().stats().retransmits, 1u);
  EXPECT_EQ(pair.bob.broker().stats().duplicates_ignored, 1u);
  EXPECT_EQ(pair.bob.broker().stats().handshakes_completed, 1u);
  EXPECT_EQ(pair.bob.broker().store().stats().installs, 1u);  // exactly one
  EXPECT_EQ(pair.bob.broker().stats().handshakes_failed, 0u);
}

TEST(Reliability, DuplicateFloodIsIdempotent) {
  // EVERY datagram is delivered twice. The handshake must complete exactly
  // once per side, with every repeat absorbed by the duplicate paths and
  // zero party poisonings.
  FaultyTransport::Config faults;
  faults.p_duplicate = 1.0;
  LossyPair pair(std::move(faults));

  ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
  pair.converge();

  EXPECT_TRUE(pair.alice.broker().session_ready(pair.world.bob.id, kNow));
  EXPECT_TRUE(pair.bob.broker().session_ready(pair.world.alice.id, kNow));
  EXPECT_EQ(pair.alice.broker().stats().handshakes_completed, 1u);
  EXPECT_EQ(pair.bob.broker().stats().handshakes_completed, 1u);
  EXPECT_EQ(pair.alice.broker().stats().handshakes_failed, 0u);
  EXPECT_EQ(pair.bob.broker().stats().handshakes_failed, 0u);
  EXPECT_GT(pair.bob.broker().stats().duplicates_ignored, 0u);
  EXPECT_EQ(pair.alice.broker().store().stats().installs, 1u);
  EXPECT_EQ(pair.bob.broker().store().stats().installs, 1u);
  EXPECT_EQ(pair.alice.stats().errors, 0u);
  EXPECT_EQ(pair.bob.stats().errors, 0u);
}

TEST(Reliability, BudgetExhaustionAbortsAndStrikesTheDeadPeer) {
  FaultyTransport::Config faults;
  faults.p_drop = 1.0;  // the peer is unreachable
  BrokerConfig config = reliable_config();
  config.reliability.handshake_budget = 3;
  LossyPair pair(std::move(faults), config);

  for (int attempt = 1; attempt <= 3; ++attempt) {
    ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
    pair.converge();
    EXPECT_EQ(pair.alice.broker().stats().handshakes_aborted,
              static_cast<std::uint64_t>(attempt));
    EXPECT_EQ(pair.alice.broker().pending_handshakes(), 0u);  // aborted cleanly
    EXPECT_EQ(pair.alice.broker().peer_dead(pair.world.bob.id), attempt >= 3);
  }
  // Budget 3 = initial send + 2 retransmissions per handshake.
  EXPECT_EQ(pair.alice.broker().stats().retransmits, 3u * 2u);
  EXPECT_EQ(pair.alice.broker().stats().dead_peers, 1u);
  EXPECT_FALSE(pair.alice.broker().session_ready(pair.world.bob.id, kNow));

  // The link heals: one completed handshake revives the peer.
  pair.link.set_fault_probabilities(0, 0, 0, 0, 0);
  ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
  pair.converge();
  EXPECT_TRUE(pair.alice.broker().session_ready(pair.world.bob.id, kNow));
  EXPECT_FALSE(pair.alice.broker().peer_dead(pair.world.bob.id));
}

TEST(Reliability, LostRatchetAnnouncementRetransmitsUntilAcked) {
  FaultyTransport::Config faults;
  faults.plan[4] = FaultyTransport::Fault::kDrop;  // RK1 (serials 0-3 = handshake)
  LossyPair pair(std::move(faults));

  ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
  pair.converge();
  ASSERT_TRUE(pair.bob.broker().session_ready(pair.world.alice.id, kNow));

  auto rk1 = pair.alice.broker().initiate_ratchet(pair.world.bob.id, kNow);
  ASSERT_TRUE(rk1.ok());
  ASSERT_TRUE(pair.link.send(pair.world.alice.id, pair.world.bob.id,
                             std::move(rk1).value()).ok());
  pair.converge();

  EXPECT_EQ(pair.alice.broker().stats().ratchet_retransmits, 1u);
  EXPECT_EQ(pair.alice.broker().stats().ratchet_acks_received, 1u);
  EXPECT_EQ(pair.bob.broker().stats().ratchets_received, 1u);
  EXPECT_EQ(pair.bob.broker().stats().ratchet_acks_sent, 1u);
  // Both chains advanced exactly one epoch — the retransmission did not
  // double-apply.
  EXPECT_EQ(pair.alice.broker().store().epoch(pair.world.bob.id), 1u);
  EXPECT_EQ(pair.bob.broker().store().epoch(pair.world.alice.id), 1u);
  EXPECT_EQ(pair.alice.broker().reliability_backlog(), 0u);
}

TEST(Reliability, LostAckReElicitsRk2FromADuplicateRk1) {
  // The RK2 (not the RK1) is lost. The announcer retransmits; the receiver
  // sees announced == current, recognizes the duplicate, and re-acks from
  // its post-ratchet keys — state does not move again.
  FaultyTransport::Config faults;
  faults.plan[5] = FaultyTransport::Fault::kDrop;  // RK2
  LossyPair pair(std::move(faults));

  ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
  pair.converge();

  auto rk1 = pair.alice.broker().initiate_ratchet(pair.world.bob.id, kNow);
  ASSERT_TRUE(rk1.ok());
  ASSERT_TRUE(pair.link.send(pair.world.alice.id, pair.world.bob.id,
                             std::move(rk1).value()).ok());
  pair.converge();

  EXPECT_EQ(pair.bob.broker().stats().ratchets_received, 1u);   // applied once
  EXPECT_EQ(pair.bob.broker().stats().duplicates_ignored, 1u);  // the repeat
  EXPECT_EQ(pair.bob.broker().stats().ratchet_acks_sent, 2u);   // ack + re-ack
  EXPECT_EQ(pair.alice.broker().stats().ratchet_acks_received, 1u);
  EXPECT_EQ(pair.alice.broker().store().epoch(pair.world.bob.id), 1u);
  EXPECT_EQ(pair.bob.broker().store().epoch(pair.world.alice.id), 1u);
}

TEST(Reliability, RatchetBudgetExhaustionEscalatesToFullRekey) {
  // Six RK1 transmissions (the first send + five retransmissions) spend
  // the ratchet budget; drop every one of them.
  FaultyTransport::Config faults;
  for (std::uint64_t serial = 4; serial <= 9; ++serial)
    faults.plan[serial] = FaultyTransport::Fault::kDrop;
  LossyPair pair(std::move(faults));

  ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
  pair.converge();

  auto rk1 = pair.alice.broker().initiate_ratchet(pair.world.bob.id, kNow);
  ASSERT_TRUE(rk1.ok());
  ASSERT_TRUE(pair.link.send(pair.world.alice.id, pair.world.bob.id,
                             std::move(rk1).value()).ok());
  pair.converge();

  // The cheap rung failed for good; the engine climbed the ladder.
  EXPECT_EQ(pair.alice.broker().stats().ratchet_retransmits, 5u);
  EXPECT_EQ(pair.alice.broker().stats().ratchet_escalations, 1u);
  EXPECT_EQ(pair.alice.broker().stats().full_rekeys, 1u);
  EXPECT_EQ(pair.alice.broker().stats().ratchet_acks_received, 0u);
  // The escalation handshake re-anchored the chain: both ready, epoch 0.
  EXPECT_TRUE(pair.alice.broker().session_ready(pair.world.bob.id, kNow));
  EXPECT_TRUE(pair.bob.broker().session_ready(pair.world.alice.id, kNow));
  EXPECT_EQ(pair.alice.broker().stats().handshakes_completed, 2u);
  EXPECT_EQ(pair.alice.broker().store().epoch(pair.world.bob.id), 0u);
  EXPECT_EQ(pair.alice.broker().reliability_backlog(), 0u);
}

TEST(Reliability, DataPlaneStillFlowsAfterLossyEstablishment) {
  // End to end: handshake through 20% loss + duplicates, then a clean
  // data record opens on the far side — the recovered keys really agree.
  FaultyTransport::Config faults;
  faults.seed = 77;
  faults.p_drop = 0.2;
  faults.p_duplicate = 0.1;
  BrokerConfig config = reliable_config();
  Bytes received;
  config.on_data = [&](const cert::DeviceId&, Bytes plaintext) {
    received = std::move(plaintext);
  };
  LossyPair pair(std::move(faults), config);

  ASSERT_TRUE(pair.alice.connect(pair.world.bob.id, kNow).ok());
  pair.converge();
  ASSERT_TRUE(pair.alice.broker().session_ready(pair.world.bob.id, kNow));
  ASSERT_TRUE(pair.bob.broker().session_ready(pair.world.alice.id, kNow));

  pair.link.set_fault_probabilities(0, 0, 0, 0, 0);
  ASSERT_TRUE(pair.alice.send_data(pair.world.bob.id, bytes_of("after the storm"), kNow).ok());
  pair.converge();
  EXPECT_EQ(received, bytes_of("after the storm"));
  EXPECT_EQ(pair.bob.broker().stats().records_delivered, 1u);
}

TEST(Reliability, VirtualTimeSweepExpiresStalledHandshakes) {
  // S1: with a transport clock bound, the pending TTL runs on simulated
  // milliseconds — wall time stays frozen throughout.
  testing::World world;
  rng::TestRng rng(31);
  IdealLinkTransport inner;
  FaultyTransport link(inner, FaultyTransport::Config{});
  // The 30 s pending TTL is 30000 virtual ms once a clock is bound.
  SessionBroker broker(world.alice, rng, reliable_config());
  broker.bind_clock(&link);

  ASSERT_TRUE(broker.connect(world.bob.id, kNow).ok());  // A1 never delivered
  EXPECT_EQ(broker.pending_handshakes(), 1u);
  EXPECT_EQ(broker.sweep(kNow), 0u);  // 0 virtual ms elapsed: still live
  link.advance_to(29999.0);
  EXPECT_EQ(broker.sweep(kNow), 0u);  // inside the TTL
  link.advance_to(30001.0);
  EXPECT_EQ(broker.sweep(kNow), 1u);  // expired on the virtual axis
  EXPECT_EQ(broker.pending_handshakes(), 0u);
  EXPECT_EQ(broker.stats().pending_expired, 1u);
}

TEST(Reliability, AckStepIsUnknownWhileTheEngineIsOff) {
  // RK2 only exists on reliability-armed fabrics. A legacy broker must
  // reject it exactly like any other unknown step — bit-identical
  // pre-reliability behavior.
  testing::World world;
  rng::TestRng rng(41);
  SessionBroker broker(world.alice, rng, BrokerConfig{});
  Message rk2;
  rk2.step = std::string(kRatchetAckStepLabel);
  rk2.payload = Bytes(36, 0);
  auto reply = broker.on_message(world.bob.id, rk2, kNow);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), Error::kBadState);
  EXPECT_EQ(broker.stats().stale_ignored, 0u);
}

}  // namespace
}  // namespace ecqv::proto
