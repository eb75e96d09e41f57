// Transport layer: ideal-link semantics, the two runners (settle() over a
// transport, alternate() between two parties), and the CAN-FD adapter
// (Fig. 6 stack end to end — framing, fragmentation, flow control,
// interleaved multi-peer transfers, loss recovery).
#include <gtest/gtest.h>

#include "canfd/canfd_transport.hpp"
#include "core/concurrent_broker.hpp"
#include "core/driver.hpp"
#include "core/faulty_transport.hpp"
#include "protocol_fixture.hpp"

namespace ecqv::proto {
namespace {

using testing::kNow;

cert::DeviceId id_of(const char* name) { return cert::DeviceId::from_string(name); }

Message text_message(const char* step, const char* text) {
  Message m;
  m.step = step;
  m.payload = bytes_of(text);
  return m;
}

TEST(IdealLink, FifoPerDestination) {
  IdealLinkTransport link;
  link.attach(id_of("a"));
  link.attach(id_of("b"));
  link.attach(id_of("c"));
  ASSERT_TRUE(link.send(id_of("a"), id_of("b"), text_message("A1", "one")).ok());
  ASSERT_TRUE(link.send(id_of("c"), id_of("b"), text_message("A1", "two")).ok());
  ASSERT_TRUE(link.send(id_of("a"), id_of("c"), text_message("A1", "three")).ok());
  EXPECT_FALSE(link.idle());

  auto first = link.receive(id_of("b"));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->src, id_of("a"));
  EXPECT_EQ(first->message.payload, bytes_of("one"));
  auto second = link.receive(id_of("b"));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->src, id_of("c"));
  EXPECT_FALSE(link.receive(id_of("b")).has_value());

  ASSERT_TRUE(link.receive(id_of("c")).has_value());
  EXPECT_TRUE(link.idle());
  EXPECT_EQ(link.stats().messages, 3u);
}

TEST(IdealLink, RejectsUnattachedEndpoints) {
  IdealLinkTransport link;
  link.attach(id_of("a"));
  EXPECT_EQ(link.send(id_of("a"), id_of("ghost"), text_message("A1", "x")).error(),
            Error::kBadState);
  EXPECT_EQ(link.send(id_of("ghost"), id_of("a"), text_message("A1", "x")).error(),
            Error::kBadState);
  EXPECT_FALSE(link.receive(id_of("ghost")).has_value());
}

/// Inline endpoints (workers = 0) with unlimited sessions.
ConcurrentSessionBroker::Config inline_config(bool reliable = false) {
  ConcurrentSessionBroker::Config config;
  config.broker.store.policy = RekeyPolicy::unlimited();
  config.broker.reliability.enabled = reliable;
  return config;
}

TEST(Settle, DrivesBrokerHandshakeOverExplicitTransport) {
  testing::World world;
  rng::TestRng rng_a(1), rng_b(2);
  IdealLinkTransport link;
  ConcurrentSessionBroker alice(world.alice, rng_a, link, inline_config());
  ConcurrentSessionBroker bob(world.bob, rng_b, link, inline_config());

  ASSERT_TRUE(alice.connect(bob.id(), kNow).ok());
  EXPECT_EQ(settle({&bob, &alice}, kNow), 4u);  // A1 B1 A2 B2
  EXPECT_EQ(alice.stats().errors + bob.stats().errors, 0u);
  EXPECT_TRUE(alice.broker().session_ready(bob.id(), kNow));
  EXPECT_TRUE(bob.broker().session_ready(alice.id(), kNow));
}

/// A party that answers every message with the message itself.
class EchoParty final : public Party {
 public:
  std::optional<Message> start() override { return text_message("A1", "ping"); }
  Result<std::optional<Message>> on_message(const Message& incoming) override {
    return std::optional<Message>(incoming);
  }
  [[nodiscard]] bool established() const override { return false; }
  [[nodiscard]] const kdf::SessionKeys& session_keys() const override { return keys_; }
  [[nodiscard]] const cert::DeviceId& peer_id() const override { return peer_; }

 private:
  kdf::SessionKeys keys_{};
  cert::DeviceId peer_{};
};

TEST(Alternate, GuardsAgainstPingPongStorms) {
  // Both parties echo forever; the bound must stop the exchange with the
  // transcript at exactly kMaxExchange messages.
  EchoParty a, b;
  const HandshakeResult result = run_handshake(a, b);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.error, Error::kBadState);
  EXPECT_EQ(result.transcript.size(), kMaxExchange);
}

TEST(Settle, OneCorruptPeerCannotStarveTheFabric) {
  // One poisoned datagram must not stall healthy peers. Script the fault
  // exactly — carol's A1 (the second send() on the link) gets one payload
  // bit flipped — and the healthy handshake must still finish.
  testing::World world;
  rng::TestRng rng_bob(1), rng_alice(2), rng_carol(3);
  rng::TestRng provision(4);
  const Credentials carol_creds = provision_device(
      world.ca, id_of("carol"), kNow, testing::kLifetime, provision);

  IdealLinkTransport inner;
  FaultyTransport::Config faults;
  faults.plan[1] = FaultyTransport::Fault::kCorrupt;  // carol's A1, exactly
  FaultyTransport link(inner, faults);
  ConcurrentSessionBroker bob(world.bob, rng_bob, link, inline_config());
  ConcurrentSessionBroker alice(world.alice, rng_alice, link, inline_config());
  ConcurrentSessionBroker carol(carol_creds, rng_carol, link, inline_config());

  ASSERT_TRUE(alice.connect(bob.id(), kNow).ok());
  ASSERT_TRUE(carol.connect(bob.id(), kNow).ok());
  settle({&bob, &alice, &carol}, kNow);
  EXPECT_EQ(link.stats().corrupted.load(), 1u);
  // The casualty is counted, not fatal...
  EXPECT_EQ(bob.stats().errors.load(), 1u);
  // ...and the healthy peer's handshake completed through the same drain.
  EXPECT_TRUE(alice.broker().session_ready(bob.id(), kNow));
  EXPECT_TRUE(bob.broker().session_ready(alice.id(), kNow));
  EXPECT_FALSE(carol.broker().session_ready(bob.id(), kNow));
}

TEST(Settle, AdvancesTheClockToADelayedDatagram) {
  // With reliability off nothing is armed, yet a delay-faulted A1 is still
  // owed: settle must move the link's clock to its release.
  testing::World world;
  rng::TestRng rng_a(1), rng_b(2);
  IdealLinkTransport inner;
  FaultyTransport::Config faults;
  faults.plan[0] = FaultyTransport::Fault::kDelay;  // the A1
  FaultyTransport link(inner, faults);
  ConcurrentSessionBroker alice(world.alice, rng_a, link, inline_config());
  ConcurrentSessionBroker bob(world.bob, rng_b, link, inline_config());

  ASSERT_TRUE(alice.connect(bob.id(), kNow).ok());
  EXPECT_EQ(settle({&alice, &bob}, kNow), 4u);
  EXPECT_EQ(link.stats().delayed.load(), 1u);
  EXPECT_GE(link.now_ms(), FaultyTransport::Config{}.delay_ms);
  EXPECT_TRUE(alice.broker().session_ready(bob.id(), kNow));
  EXPECT_TRUE(bob.broker().session_ready(alice.id(), kNow));
}

TEST(Settle, StopsWhereTheLinkClockCannotReachATimer) {
  // The ideal link's clock is pinned at 0, so an armed retransmission can
  // never come due: with the peer never polled, settle returns at once
  // instead of spinning, and the A1 timer stays armed and unfired.
  testing::World world;
  rng::TestRng rng_a(1), rng_b(2);
  IdealLinkTransport link;
  ConcurrentSessionBroker alice(world.alice, rng_a, link, inline_config(/*reliable=*/true));
  ConcurrentSessionBroker bob(world.bob, rng_b, link, inline_config(/*reliable=*/true));

  ASSERT_TRUE(alice.connect(bob.id(), kNow).ok());
  EXPECT_EQ(settle({&alice}, kNow), 0u);
  EXPECT_TRUE(alice.broker().next_retransmit_due_ms().has_value());
  EXPECT_EQ(alice.broker().stats().retransmits.load(), 0u);
  EXPECT_EQ(link.now_ms(), 0.0);
}

// ---------------------------------------------------------------- CAN-FD

TEST(CanFdTransport, SmallMessageSingleFrameRoundTrip) {
  can::CanFdTransport canfd;
  canfd.attach(id_of("bms"));
  canfd.attach(id_of("evcc"));
  // 1-byte payload + 4-byte app header + 32-byte fabric header = 37 bytes:
  // an escape-form single frame padded to DLC 48.
  ASSERT_TRUE(canfd.send(id_of("bms"), id_of("evcc"), text_message("B2", "k")).ok());
  auto datagram = canfd.receive(id_of("evcc"));
  ASSERT_TRUE(datagram.has_value());
  EXPECT_EQ(datagram->src, id_of("bms"));
  EXPECT_EQ(datagram->message.step, "B2");
  EXPECT_EQ(datagram->message.payload, bytes_of("k"));
  EXPECT_EQ(canfd.stats().frames_sent, 1u);
  EXPECT_EQ(canfd.stats().flow_controls, 0u);
  EXPECT_GT(canfd.bus_time_ms(), 0.0);
  EXPECT_TRUE(canfd.idle());
}

TEST(CanFdTransport, LargeMessageFragmentsWithFlowControl) {
  can::CanFdTransport canfd;
  canfd.attach(id_of("a"));
  canfd.attach(id_of("b"));
  Message b1;
  b1.step = "B1";
  b1.sender = Role::kResponder;
  b1.payload = Bytes(245, 0x55);  // STS B1 — the paper's largest message
  ASSERT_TRUE(canfd.send(id_of("a"), id_of("b"), b1).ok());
  auto datagram = canfd.receive(id_of("b"));
  ASSERT_TRUE(datagram.has_value());
  EXPECT_EQ(datagram->message.payload, b1.payload);
  EXPECT_EQ(datagram->message.sender, Role::kResponder);
  // 245 + 36 bytes of headers = 281 bytes: FF(62) + 4 CF — plus one FC.
  EXPECT_EQ(canfd.stats().frames_sent, 5u);
  EXPECT_EQ(canfd.stats().flow_controls, 1u);
  // Fragmentation overhead is real and measured: wire bytes strictly
  // exceed the application payload.
  EXPECT_GT(canfd.stats().wire_bytes, canfd.stats().payload_bytes);
}

TEST(CanFdTransport, SessionLayerFiltersByDestination) {
  can::CanFdTransport canfd;
  canfd.attach(id_of("a"));
  canfd.attach(id_of("b"));
  canfd.attach(id_of("c"));
  ASSERT_TRUE(canfd.send(id_of("a"), id_of("b"), text_message("A1", "for-b")).ok());
  // The bus broadcasts every frame, but only b's session layer accepts it.
  EXPECT_FALSE(canfd.receive(id_of("c")).has_value());
  auto datagram = canfd.receive(id_of("b"));
  ASSERT_TRUE(datagram.has_value());
  EXPECT_EQ(datagram->message.payload, bytes_of("for-b"));
}

TEST(CanFdTransport, InterleavedMultiPeerTransfersDemultiplex) {
  // Two senders push segmented transfers toward one receiver at the same
  // time. Equal-priority arbitration interleaves their frames on the bus;
  // per-sender arbitration ids keep the reassemblies apart.
  can::CanFdTransport canfd;
  canfd.attach(id_of("server"));
  canfd.attach(id_of("peer-1"));
  canfd.attach(id_of("peer-2"));
  Bytes payload1(200, 0xaa);
  Bytes payload2(300, 0xbb);
  Message m1, m2;
  m1.step = "A2";
  m1.payload = payload1;
  m2.step = "A2";
  m2.payload = payload2;
  ASSERT_TRUE(canfd.send(id_of("peer-1"), id_of("server"), m1).ok());
  ASSERT_TRUE(canfd.send(id_of("peer-2"), id_of("server"), m2).ok());

  auto first = canfd.receive(id_of("server"));
  auto second = canfd.receive(id_of("server"));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  // Both arrive intact regardless of delivery order.
  const bool first_is_p1 = first->src == id_of("peer-1");
  EXPECT_EQ(first->message.payload, first_is_p1 ? payload1 : payload2);
  EXPECT_EQ(second->message.payload, first_is_p1 ? payload2 : payload1);
  EXPECT_EQ(canfd.stats().aborted_transfers, 0u);
  EXPECT_EQ(canfd.stats().messages_delivered, 2u);
}

TEST(CanFdTransport, RatchetAndDataRecordsRideTheSessionDataCommCode) {
  can::CanFdTransport canfd;
  canfd.attach(id_of("a"));
  canfd.attach(id_of("b"));
  Message rk1;
  rk1.step = std::string(kRatchetStepLabel);
  rk1.sender = Role::kResponder;
  rk1.payload = Bytes(36, 0x01);
  Message data;
  data.step = std::string(kDataStepLabel);
  data.sender = Role::kInitiator;
  data.payload = Bytes(48, 0x02);
  ASSERT_TRUE(canfd.send(id_of("a"), id_of("b"), rk1).ok());
  ASSERT_TRUE(canfd.send(id_of("a"), id_of("b"), data).ok());
  auto got_rk1 = canfd.receive(id_of("b"));
  auto got_data = canfd.receive(id_of("b"));
  ASSERT_TRUE(got_rk1.has_value());
  ASSERT_TRUE(got_data.has_value());
  EXPECT_EQ(got_rk1->message.step, kRatchetStepLabel);
  EXPECT_EQ(got_rk1->message.sender, Role::kResponder);
  EXPECT_EQ(got_data->message.step, kDataStepLabel);
  EXPECT_EQ(got_data->message.payload, data.payload);
}

TEST(CanFdTransport, LostFlowControlTimesOutAndRecovers) {
  // Drop the first FC frame on the wire: the sender's N_Bs timeout fires,
  // the transfer is lost (never delivered half-baked), and the *next*
  // message flows normally — recovery needs no manual reset anywhere.
  bool drop_next_fc = true;
  can::CanFdTransport::Config config;
  config.drop_frame = [&](const can::CanFdFrame& frame) {
    if (!frame.data.empty() && (frame.data[0] >> 4) == 0x3 && drop_next_fc) {
      drop_next_fc = false;
      return true;
    }
    return false;
  };
  can::CanFdTransport canfd(std::move(config));
  canfd.attach(id_of("a"));
  canfd.attach(id_of("b"));
  Message big;
  big.step = "B1";
  big.payload = Bytes(245, 0x11);
  ASSERT_TRUE(canfd.send(id_of("a"), id_of("b"), big).ok());
  EXPECT_FALSE(canfd.receive(id_of("b")).has_value());  // transfer aborted
  EXPECT_EQ(canfd.stats().fc_timeouts, 1u);

  ASSERT_TRUE(canfd.send(id_of("a"), id_of("b"), big).ok());
  auto datagram = canfd.receive(id_of("b"));
  ASSERT_TRUE(datagram.has_value());  // second attempt sails through
  EXPECT_EQ(datagram->message.payload, big.payload);
}

TEST(CanFdTransport, LostConsecutiveFrameAbortsOnlyThatTransfer) {
  std::size_t cf_seen = 0;
  can::CanFdTransport::Config config;
  config.drop_frame = [&](const can::CanFdFrame& frame) {
    // Drop the 2nd consecutive frame ever sent.
    if (!frame.data.empty() && (frame.data[0] >> 4) == 0x2) return ++cf_seen == 2;
    return false;
  };
  can::CanFdTransport canfd(std::move(config));
  canfd.attach(id_of("a"));
  canfd.attach(id_of("b"));
  Message big;
  big.step = "A2";
  big.payload = Bytes(245, 0x33);
  ASSERT_TRUE(canfd.send(id_of("a"), id_of("b"), big).ok());
  EXPECT_FALSE(canfd.receive(id_of("b")).has_value());
  EXPECT_EQ(canfd.stats().aborted_transfers, 1u);  // sequence gap at the receiver

  ASSERT_TRUE(canfd.send(id_of("a"), id_of("b"), big).ok());
  EXPECT_TRUE(canfd.receive(id_of("b")).has_value());
}

TEST(CanFdTransport, BrokerHandshakeOverTheBus) {
  // The full tentpole path: two brokers talking STS through session-layer
  // PDUs, ISO-TP and the simulated bus — then sealing telemetry as a DT1
  // record over the same link.
  testing::World world;
  rng::TestRng rng_a(7), rng_b(8);
  Bytes bob_got;
  ConcurrentSessionBroker::Config bob_config = inline_config();
  bob_config.broker.on_data = [&](const cert::DeviceId&, Bytes plaintext) {
    bob_got = std::move(plaintext);
  };
  can::CanFdTransport canfd;
  ConcurrentSessionBroker alice(world.alice, rng_a, canfd, inline_config());
  ConcurrentSessionBroker bob(world.bob, rng_b, canfd, bob_config);

  ASSERT_TRUE(alice.connect(bob.id(), kNow).ok());
  EXPECT_EQ(settle({&bob, &alice}, kNow), 4u);
  EXPECT_TRUE(alice.broker().session_ready(bob.id(), kNow));
  EXPECT_TRUE(bob.broker().session_ready(alice.id(), kNow));
  EXPECT_GT(canfd.stats().flow_controls, 0u);  // B1/A2 fragment
  EXPECT_GT(canfd.bus_time_ms(), 0.0);

  ASSERT_TRUE(alice.send_data(bob.id(), bytes_of("soc=81%"), kNow).ok());
  EXPECT_EQ(settle({&bob, &alice}, kNow), 1u);
  EXPECT_EQ(bob_got, bytes_of("soc=81%"));
}

}  // namespace
}  // namespace ecqv::proto
