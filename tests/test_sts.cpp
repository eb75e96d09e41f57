// STS-ECQV protocol tests: the paper's contribution (§IV, Fig. 2).
#include <gtest/gtest.h>

#include "core/sts.hpp"
#include "protocol_fixture.hpp"

namespace ecqv::proto {
namespace {

using ecqv::testing::World;
using ecqv::testing::kNow;

class StsVariantTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(StsVariantTest, HandshakeEstablishesMatchingKeys) {
  World world;
  const auto outcome = ecqv::testing::run(GetParam(), world);
  ASSERT_TRUE(outcome.result.success) << error_name(outcome.result.error);
  EXPECT_TRUE(kdf::ct_equal(outcome.initiator_keys, outcome.responder_keys));
  EXPECT_EQ(outcome.result.transcript.size(), 4u);
  EXPECT_EQ(outcome.result.total_bytes(), 491u);  // Table II
}

TEST_P(StsVariantTest, FreshKeysEverySession) {
  // The DKD property (paper §II-A): new session, new key, same certs.
  World world;
  const auto s1 = ecqv::testing::run(GetParam(), world, 6000);
  const auto s2 = ecqv::testing::run(GetParam(), world, 6001);
  ASSERT_TRUE(s1.result.success && s2.result.success);
  EXPECT_FALSE(kdf::ct_equal(s1.initiator_keys, s2.initiator_keys));
}

TEST_P(StsVariantTest, AuthenticatedPeerIdentity) {
  World world;
  rng::TestRng ra(1), rb(2);
  auto pair = make_parties(GetParam(), world.alice, world.bob, ra, rb, kNow);
  ASSERT_TRUE(run_handshake(*pair.initiator, *pair.responder).success);
  EXPECT_EQ(pair.initiator->peer_id(), world.bob.id);
  EXPECT_EQ(pair.responder->peer_id(), world.alice.id);
}

INSTANTIATE_TEST_SUITE_P(Variants, StsVariantTest,
                         ::testing::Values(ProtocolKind::kSts, ProtocolKind::kStsOptI,
                                           ProtocolKind::kStsOptII),
                         [](const auto& info) {
                           switch (info.param) {
                             case ProtocolKind::kSts: return "baseline";
                             case ProtocolKind::kStsOptI: return "optI";
                             default: return "optII";
                           }
                         });

TEST(Sts, MessageSizesMatchTableII) {
  World world;
  const auto outcome = ecqv::testing::run(ProtocolKind::kSts, world);
  ASSERT_TRUE(outcome.result.success);
  const auto steps = outcome.result.step_sizes();
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[0], (std::pair<std::string, std::size_t>{"A1", 80}));
  EXPECT_EQ(steps[1], (std::pair<std::string, std::size_t>{"B1", 245}));
  EXPECT_EQ(steps[2], (std::pair<std::string, std::size_t>{"A2", 165}));
  EXPECT_EQ(steps[3], (std::pair<std::string, std::size_t>{"B2", 1}));
}

TEST(Sts, OptVariantMovesCertificateNotBytes) {
  // §IV-C: "The sent data is identical to the original protocol, but the
  // message and content order vary slightly."
  World world;
  const auto opt = ecqv::testing::run(ProtocolKind::kStsOptI, world);
  ASSERT_TRUE(opt.result.success);
  const auto steps = opt.result.step_sizes();
  EXPECT_EQ(steps[0].second, 181u);  // A1 carries the certificate
  EXPECT_EQ(steps[2].second, 64u);   // A2 shrinks to the response
  EXPECT_EQ(opt.result.total_bytes(), 491u);
}

TEST(Sts, SegmentsCoverAllFourOperations) {
  World world;
  const auto outcome = ecqv::testing::run(ProtocolKind::kSts, world);
  auto has_prefix = [](const std::vector<OpSegment>& segs, std::string_view p) {
    for (const auto& s : segs)
      if (std::string_view(s.label).starts_with(p)) return true;
    return false;
  };
  for (const auto* segs : {&outcome.initiator_segments, &outcome.responder_segments}) {
    EXPECT_TRUE(has_prefix(*segs, "Op1"));
    EXPECT_TRUE(has_prefix(*segs, "Op2"));
    EXPECT_TRUE(has_prefix(*segs, "Op3"));
    EXPECT_TRUE(has_prefix(*segs, "Op4"));
  }
}

TEST(Sts, RejectsTamperedResponderAuth) {
  World world;
  rng::TestRng ra(11), rb(12);
  StsConfig config;
  config.now = kNow;
  StsInitiator alice(world.alice, ra, config);
  StsResponder bob(world.bob, rb, config);
  auto a1 = alice.start();
  ASSERT_TRUE(a1.has_value());
  auto b1 = bob.on_message(*a1);
  ASSERT_TRUE(b1.ok() && b1->has_value());
  // Corrupt Resp_B (the encrypted signature at the tail of B1).
  Message tampered = **b1;
  tampered.payload.back() ^= 0x01;
  auto reply = alice.on_message(tampered);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), Error::kAuthenticationFailed);
  EXPECT_FALSE(alice.established());
}

TEST(Sts, RejectsSubstitutedEphemeralPoint) {
  // Classic STS MitM check: replacing XG_B invalidates the signature.
  World world;
  rng::TestRng ra(13), rb(14), re(15);
  StsConfig config;
  config.now = kNow;
  StsInitiator alice(world.alice, ra, config);
  StsResponder bob(world.bob, rb, config);
  auto a1 = alice.start();
  auto b1 = bob.on_message(*a1);
  ASSERT_TRUE(b1.ok());
  Message tampered = **b1;
  // Replace XG_B (offset 16+101) with a different valid point.
  const auto& curve = ec::Curve::p256();
  const Bytes evil_point = ec::encode_raw_xy(curve.mul_base(curve.random_scalar(re)));
  std::copy(evil_point.begin(), evil_point.end(),
            tampered.payload.begin() + 16 + 101);
  auto reply = alice.on_message(tampered);
  EXPECT_FALSE(reply.ok());
}

TEST(Sts, RejectsWrongIdentityClaim) {
  // Bob's certificate presented under a different claimed ID must fail.
  World world;
  rng::TestRng ra(16), rb(17);
  StsConfig config;
  config.now = kNow;
  StsInitiator alice(world.alice, ra, config);
  StsResponder bob(world.bob, rb, config);
  auto a1 = alice.start();
  auto b1 = bob.on_message(*a1);
  ASSERT_TRUE(b1.ok());
  Message tampered = **b1;
  tampered.payload[0] ^= 0x01;  // first byte of claimed ID
  auto reply = alice.on_message(tampered);
  EXPECT_FALSE(reply.ok());
}

TEST(Sts, RejectsExpiredCertificate) {
  World world;
  rng::TestRng ra(18), rb(19);
  StsConfig config;
  config.now = kNow + ecqv::testing::kLifetime + 10;  // past expiry
  StsInitiator alice(world.alice, ra, config);
  StsResponder bob(world.bob, rb, config);
  auto a1 = alice.start();
  auto b1 = bob.on_message(*a1);
  ASSERT_TRUE(b1.ok());
  auto reply = alice.on_message(**b1);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), Error::kAuthenticationFailed);
}

TEST(Sts, RejectsOutOfOrderMessages) {
  World world;
  rng::TestRng ra(20), rb(21);
  StsConfig config;
  config.now = kNow;
  StsResponder bob(world.bob, rb, config);
  Message premature;
  premature.step = "A2";
  premature.payload = Bytes(165);
  auto reply = bob.on_message(premature);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), Error::kBadState);
}

TEST(Sts, RejectsMalformedLengths) {
  World world;
  rng::TestRng ra(22), rb(23);
  StsConfig config;
  config.now = kNow;
  StsResponder bob(world.bob, rb, config);
  Message bad;
  bad.step = "A1";
  bad.payload = Bytes(79);  // one byte short
  auto reply = bob.on_message(bad);
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.error(), Error::kBadLength);
}

TEST(Sts, RejectsInvalidEphemeralPointEncoding) {
  World world;
  rng::TestRng ra(24), rb(25);
  StsConfig config;
  config.now = kNow;
  StsResponder bob(world.bob, rb, config);
  Message bad;
  bad.step = "A1";
  bad.sender = Role::kInitiator;
  bad.payload = Bytes(16 + 64, 0x01);  // x||y almost surely off-curve
  auto reply = bob.on_message(bad);
  EXPECT_FALSE(reply.ok());
}

// ------------------------------------- authentication response cipher

TEST(Sts, CryptRespSeparatesRoles) {
  const kdf::SessionKeys keys =
      kdf::derive_session_keys(bytes_of("pm"), bytes_of("salt"), bytes_of("test"));
  const Bytes signature(64, 0x42);
  const Bytes resp_b = sts_detail::crypt_resp(keys, Role::kResponder, signature);
  EXPECT_EQ(resp_b.size(), 64u);  // Table II: Resp = Enc_KS(sign(...))
  // CTR is its own inverse within one direction's lane...
  EXPECT_EQ(sts_detail::crypt_resp(keys, Role::kResponder, resp_b), signature);
  // ...and the two directions never share a keystream.
  EXPECT_NE(sts_detail::crypt_resp(keys, Role::kInitiator, signature), resp_b);
  EXPECT_NE(sts_detail::crypt_resp(keys, Role::kInitiator, resp_b), signature);
}

TEST(Sts, ResponderSessionKeysWipeCleanly) {
  World world;
  const auto outcome = ecqv::testing::run(ProtocolKind::kSts, world);
  kdf::SessionKeys keys = outcome.initiator_keys;
  keys.wipe();
  EXPECT_FALSE(kdf::ct_equal(keys, outcome.responder_keys));
}

}  // namespace
}  // namespace ecqv::proto
