// AEAD suite negotiation inside STS, the v3 record engine behind
// SecureChannel/SessionStore, downgrade protection, and the per-suite wire
// overhead accounting.
#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "core/concurrent_broker.hpp"
#include "core/session_store.hpp"
#include "core/sts.hpp"
#include "core/transport.hpp"
#include "protocol_fixture.hpp"

namespace ecqv::proto {
namespace {

using testing::kNow;
using testing::World;

StsConfig sts_config(std::uint8_t offered = aead::kOfferLegacy) {
  StsConfig config;
  config.now = kNow;
  config.offered_suites = offered;
  return config;
}

struct HandshakeOut {
  HandshakeResult result;
  kdf::SessionKeys alice_keys;
  kdf::SessionKeys bob_keys;
};

HandshakeOut handshake(World& world, std::uint8_t alice_offers, std::uint8_t bob_offers,
                       std::uint64_t seed = 42) {
  rng::TestRng ra(seed), rb(seed + 1);
  StsInitiator alice(world.alice, ra, sts_config(alice_offers));
  StsResponder bob(world.bob, rb, sts_config(bob_offers));
  HandshakeOut out;
  out.result = run_handshake(alice, bob);
  if (out.result.success) {
    out.alice_keys = alice.session_keys();
    out.bob_keys = bob.session_keys();
  }
  return out;
}

// ------------------------------------------------------------- negotiation

TEST(SuiteNegotiation, HighestCommonSuiteWins) {
  World world;
  const auto both_all = handshake(world, aead::kOfferAll, aead::kOfferAll);
  ASSERT_TRUE(both_all.result.success);
  EXPECT_TRUE(kdf::ct_equal(both_all.alice_keys, both_all.bob_keys));
  EXPECT_EQ(both_all.alice_keys.suite, std::uint8_t(aead::SuiteId::kCcm128Tag8));

  const auto gcm_only = handshake(world, aead::kOfferAll, aead::kOfferLegacy | 0x02);
  ASSERT_TRUE(gcm_only.result.success);
  EXPECT_EQ(gcm_only.alice_keys.suite, std::uint8_t(aead::SuiteId::kGcm128));
  EXPECT_EQ(gcm_only.bob_keys.suite, std::uint8_t(aead::SuiteId::kGcm128));
}

TEST(SuiteNegotiation, LegacyPeersInteroperate) {
  World world;
  // Offering initiator, legacy-configured responder: negotiates down to the
  // v2 record format instead of failing.
  const auto down = handshake(world, aead::kOfferAll, aead::kOfferLegacy);
  ASSERT_TRUE(down.result.success);
  EXPECT_TRUE(kdf::ct_equal(down.alice_keys, down.bob_keys));
  EXPECT_EQ(down.alice_keys.suite, 0);

  // Legacy initiator, offering responder: no offer byte ever leaves the
  // initiator, so the handshake bytes are the frozen Table II sizes.
  const auto legacy = handshake(world, aead::kOfferLegacy, aead::kOfferAll);
  ASSERT_TRUE(legacy.result.success);
  EXPECT_EQ(legacy.alice_keys.suite, 0);
  EXPECT_EQ(legacy.result.total_bytes(), 491u);
}

TEST(SuiteNegotiation, OfferAndConfirmRideTheHandshake) {
  World world;
  rng::TestRng ra(7), rb(8);
  StsInitiator alice(world.alice, ra, sts_config(aead::kOfferAll));
  StsResponder bob(world.bob, rb, sts_config(aead::kOfferAll));
  auto a1 = alice.start();
  ASSERT_TRUE(a1.has_value());
  EXPECT_EQ(a1->payload.size(), 81u);  // Table II A1 + offer byte
  EXPECT_EQ(a1->payload.back(), aead::kOfferAll);
  auto b1 = bob.on_message(*a1);
  ASSERT_TRUE(b1.ok() && b1->has_value());
  EXPECT_EQ((*b1)->payload.size(), 246u);  // Table II B1 + confirm byte
  EXPECT_EQ((*b1)->payload.back(), std::uint8_t(aead::SuiteId::kCcm128Tag8));
}

// -------------------------------------------------------- downgrade attacks

TEST(SuiteNegotiation, StrippedOfferIsRejected) {
  World world;
  rng::TestRng ra(11), rb(12);
  StsInitiator alice(world.alice, ra, sts_config(aead::kOfferAll));
  StsResponder bob(world.bob, rb, sts_config(aead::kOfferAll));
  auto a1 = alice.start();
  Message stripped = *a1;
  stripped.payload.pop_back();  // MitM removes the offer byte
  auto b1 = bob.on_message(stripped);
  ASSERT_TRUE(b1.ok());  // bob legitimately sees a legacy handshake...
  auto reply = alice.on_message(**b1);
  EXPECT_FALSE(reply.ok());  // ...but the offering initiator refuses it
  EXPECT_EQ(reply.error(), Error::kBadLength);
  EXPECT_FALSE(alice.established());
}

TEST(SuiteNegotiation, RewrittenConfirmBreaksTheSignature) {
  World world;
  rng::TestRng ra(13), rb(14);
  StsInitiator alice(world.alice, ra, sts_config(aead::kOfferAll));
  StsResponder bob(world.bob, rb, sts_config(aead::kOfferAll));
  auto a1 = alice.start();
  auto b1 = bob.on_message(*a1);
  ASSERT_TRUE(b1.ok());
  Message tampered = **b1;
  tampered.payload.back() = 0x00;  // MitM forces the legacy suite
  auto reply = alice.on_message(tampered);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), Error::kAuthenticationFailed);
}

TEST(SuiteNegotiation, RewrittenOfferBreaksTheSignature) {
  World world;
  rng::TestRng ra(15), rb(16);
  StsInitiator alice(world.alice, ra, sts_config(aead::kOfferAll));
  StsResponder bob(world.bob, rb, sts_config(aead::kOfferAll));
  auto a1 = alice.start();
  Message tampered = *a1;
  tampered.payload.back() = aead::kOfferLegacy;  // MitM weakens the offer
  auto b1 = bob.on_message(tampered);
  ASSERT_TRUE(b1.ok());  // shape is valid; the signature is not
  auto reply = alice.on_message(**b1);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), Error::kAuthenticationFailed);
}

// ------------------------------------------------------- v3 record channel

kdf::SessionKeys suite_keys(std::uint8_t suite, std::string_view tag = "v3") {
  auto keys = kdf::derive_session_keys(bytes_of(std::string(tag)), bytes_of("salt"),
                                       bytes_of("suite-test"));
  keys.suite = suite;
  return keys;
}

TEST(RecordV3, RoundTripFlagsAndReplayPerSuite) {
  for (std::uint8_t suite : {0x00, 0x01, 0x02, 0x03}) {
    const auto keys = suite_keys(suite);
    SecureChannel alice(keys, Role::kInitiator);
    SecureChannel bob(keys, Role::kResponder);
    const Bytes payload = bytes_of("engine telemetry frame");

    const Bytes r0 = alice.seal(payload);
    EXPECT_EQ(r0.size(), payload.size() + alice.overhead());
    const Bytes r1 = alice.seal(payload, SecureChannel::kFlagRatchet);
    EXPECT_NE(to_hex(r0), to_hex(r1));  // distinct nonce per seq: fresh keystream

    EXPECT_EQ(SecureChannel::peek_flags(r1, suite).value(), SecureChannel::kFlagRatchet);
    EXPECT_EQ(SecureChannel::peek_epoch(r1, suite).value(), 0u);

    auto p0 = bob.open(r0);
    ASSERT_TRUE(p0.ok()) << "suite=" << int(suite);
    EXPECT_EQ(p0.value(), payload);
    EXPECT_FALSE(bob.open(r0).ok());  // replay
    auto p1 = bob.open(r1);
    ASSERT_TRUE(p1.ok());

    // Reflection: a record sealed by the responder must not open on the
    // responder's own channel (direction is bound into MAC/nonce).
    const Bytes back = bob.seal(payload);
    EXPECT_FALSE(bob.open(back).ok());
    EXPECT_TRUE(alice.open(back).ok());
  }
}

TEST(RecordV3, TamperedHeaderOrBodyRejected) {
  for (std::uint8_t suite : {0x01, 0x02, 0x03}) {
    const auto keys = suite_keys(suite);
    SecureChannel alice(keys, Role::kInitiator);
    const Bytes payload = bytes_of("frame");
    for (std::size_t byte = 0; byte < payload.size() + alice.overhead(); ++byte) {
      SecureChannel bob(keys, Role::kResponder);
      Bytes record = alice.seal(payload);
      alice.rekey(keys, 0);  // reset the seq lane for the next iteration
      record[byte] ^= 0x01;
      EXPECT_FALSE(bob.open(record).ok()) << "suite=" << int(suite) << " byte=" << byte;
    }
  }
}

TEST(RecordV3, SuiteMismatchRejected) {
  const Bytes payload = bytes_of("frame");
  SecureChannel gcm_tx(suite_keys(0x01), Role::kInitiator);
  SecureChannel ccm_rx(suite_keys(0x02), Role::kResponder);
  EXPECT_FALSE(ccm_rx.open(gcm_tx.seal(payload)).ok());
}

TEST(RecordV3, Ccm8SavesAtLeast16BytesPerRecordOverV2) {
  // The ISSUE's acceptance bar: kCcm128-tag8 v3 records vs the v2 frame.
  const Bytes payload(64, 0xAB);
  SecureChannel v2(suite_keys(0x00), Role::kInitiator);
  SecureChannel ccm8(suite_keys(0x03), Role::kInitiator);
  const Bytes r2 = v2.seal(payload);
  const Bytes r3 = ccm8.seal(payload);
  ASSERT_GT(r2.size(), r3.size());
  EXPECT_GE(r2.size() - r3.size(), 16u);
  EXPECT_EQ(r2.size() - r3.size(), 23u);  // 45 - 22, pinned
  EXPECT_EQ(SecureChannel::overhead_for(0x00), 45u);
  EXPECT_EQ(SecureChannel::overhead_for(0x01), 30u);
  EXPECT_EQ(SecureChannel::overhead_for(0x02), 30u);
  EXPECT_EQ(SecureChannel::overhead_for(0x03), 22u);
}

// --------------------------------------------- store: ratchet/window on v3

TEST(RecordV3, StoreRatchetsAndWindowsAcrossEpochs) {
  for (std::uint8_t suite : {0x01, 0x03}) {
    SessionStore a(Role::kInitiator, SessionStore::Config{RekeyPolicy{4, UINT64_MAX}, 8, 1, 8});
    SessionStore b(Role::kResponder, SessionStore::Config{RekeyPolicy{4, UINT64_MAX}, 8, 1, 8});
    const auto peer_a = cert::DeviceId::from_string("a");
    const auto keys = suite_keys(suite, "store");
    a.install(peer_a, keys, kNow);
    b.install(peer_a, keys, kNow);

    // Drive enough records through to force piggybacked ratchets; every one
    // must round-trip and the epoch must advance past 0.
    Bytes straddler;
    for (int i = 0; i < 12; ++i) {
      auto record = a.seal(peer_a, bytes_of("r" + std::to_string(i)), kNow, DataRekey::kAuto,
                           nullptr);
      ASSERT_TRUE(record.ok()) << "suite=" << int(suite) << " i=" << i;
      if (i == 5) straddler = record.value();  // replay later via the window
      auto opened = b.open(peer_a, record.value(), kNow);
      ASSERT_TRUE(opened.ok()) << "suite=" << int(suite) << " i=" << i;
      EXPECT_EQ(opened.value(), bytes_of("r" + std::to_string(i)));
    }
    EXPECT_GT(a.stats().ratchets, 0u);
    EXPECT_GT(b.stats().ratchets, 0u);
    // The straddler was already opened: the window channel holds a strict
    // sequence too, so replaying it must fail even while the window is open.
    EXPECT_FALSE(b.open(peer_a, straddler, kNow).ok());
  }
}

// --------------------------------------- broker fabric + wire-cost counters

TEST(SuiteNegotiation, BrokerFabricNegotiatesAndCountsWireSavings) {
  testing::World world;
  rng::TestRng rng_a(21), rng_b(22);
  IdealLinkTransport link;
  Bytes received;

  BrokerConfig base;
  base.store.policy = RekeyPolicy::unlimited();
  base.sts.offered_suites = aead::kOfferAll;
  ConcurrentSessionBroker::Config server_config{base, /*workers=*/0};
  server_config.broker.on_data = [&](const cert::DeviceId&, Bytes plaintext) {
    received = std::move(plaintext);
  };
  ConcurrentSessionBroker alice(world.alice, rng_a, link,
                                ConcurrentSessionBroker::Config{base, 0});
  ConcurrentSessionBroker bob(world.bob, rng_b, link, server_config);

  ASSERT_TRUE(alice.connect(world.bob.id, kNow).ok());
  settle({&alice, &bob}, kNow);
  ASSERT_TRUE(alice.broker().session_ready(world.bob.id, kNow));

  const Bytes payload(64, 0x42);
  ASSERT_TRUE(alice.send_data(world.bob.id, payload, kNow).ok());
  settle({&alice, &bob}, kNow);
  EXPECT_EQ(received, payload);

  // Negotiated kCcm128-tag8: 64-byte payload ships as 86 wire bytes (v2
  // would be 109) and the stats expose exactly that.
  EXPECT_EQ(alice.stats().data_records.load(), 1u);
  EXPECT_EQ(alice.stats().data_payload_bytes.load(), 64u);
  EXPECT_EQ(alice.stats().data_wire_bytes.load(), 64u + 22u);
}

}  // namespace
}  // namespace ecqv::proto
