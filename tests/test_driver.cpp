// Handshake driver tests plus the byte-exact Table II reproduction across
// every protocol: our wire formats must produce exactly the paper's
// communication steps and transmission overhead.
#include <gtest/gtest.h>

#include "protocol_fixture.hpp"
#include "sim/paper_data.hpp"

namespace ecqv::proto {
namespace {

using ecqv::testing::World;

TEST(Driver, TableTwoByteExactForAllProtocols) {
  World world;
  for (const auto& row : sim::table2()) {
    const auto outcome = ecqv::testing::run(row.protocol, world);
    ASSERT_TRUE(outcome.result.success) << protocol_name(row.protocol);
    const auto steps = outcome.result.step_sizes();
    ASSERT_EQ(steps.size(), row.steps.size()) << protocol_name(row.protocol);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      EXPECT_EQ(steps[i].first, row.steps[i].first)
          << protocol_name(row.protocol) << " step " << i;
      EXPECT_EQ(steps[i].second, row.steps[i].second)
          << protocol_name(row.protocol) << " step " << steps[i].first;
    }
    EXPECT_EQ(outcome.result.total_bytes(), row.total_bytes) << protocol_name(row.protocol);
  }
}

TEST(Driver, AllSevenVariantsEstablish) {
  World world;
  for (const auto kind : sim::kTable1Rows) {
    const auto outcome = ecqv::testing::run(kind, world);
    EXPECT_TRUE(outcome.result.success) << protocol_name(kind);
    EXPECT_TRUE(kdf::ct_equal(outcome.initiator_keys, outcome.responder_keys))
        << protocol_name(kind);
  }
}

TEST(Driver, TranscriptAlternatesRoles) {
  World world;
  const auto outcome = ecqv::testing::run(ProtocolKind::kSts, world);
  ASSERT_TRUE(outcome.result.success);
  Role expected = Role::kInitiator;
  for (const auto& m : outcome.result.transcript) {
    EXPECT_EQ(m.sender, expected) << m.step;
    expected = expected == Role::kInitiator ? Role::kResponder : Role::kInitiator;
  }
}

TEST(Driver, CrossProtocolKeysDiffer) {
  // Domain separation: the same devices running different protocols must
  // not derive the same keys (KDF labels differ).
  World world;
  const auto secdsa = ecqv::testing::run(ProtocolKind::kSEcdsa, world);
  const auto poramb = ecqv::testing::run(ProtocolKind::kPoramb, world);
  ASSERT_TRUE(secdsa.result.success && poramb.result.success);
  // Both are static DH over the same pair — only the KDF context differs.
  EXPECT_FALSE(kdf::ct_equal(secdsa.initiator_keys, poramb.initiator_keys));
}

TEST(Driver, ProtocolNamesAndClassification) {
  EXPECT_EQ(protocol_name(ProtocolKind::kStsOptII), "STS (opt. II)");
  EXPECT_TRUE(is_dynamic_kd(ProtocolKind::kSts));
  EXPECT_TRUE(is_dynamic_kd(ProtocolKind::kStsOptI));
  EXPECT_FALSE(is_dynamic_kd(ProtocolKind::kSEcdsa));
  EXPECT_FALSE(is_dynamic_kd(ProtocolKind::kPoramb));
  EXPECT_EQ(wire_base(ProtocolKind::kStsOptII), ProtocolKind::kSts);
  EXPECT_EQ(wire_base(ProtocolKind::kScianc), ProtocolKind::kScianc);
}

TEST(Driver, CertificateOutsideItsValidityWindowFailsEveryProtocol) {
  // Every protocol checks the peer certificate's validity window: one
  // second before valid_from or one second after valid_to, no handshake
  // establishes.
  using ecqv::testing::kLifetime;
  using ecqv::testing::kNow;
  World world;
  for (const auto kind : sim::kTable1Rows) {
    for (const std::uint64_t now : {kNow - 1, kNow + kLifetime + 1}) {
      rng::TestRng ra(1), rb(2);
      auto pair = make_parties(kind, world.alice, world.bob, ra, rb, now);
      const auto result = run_handshake(*pair.initiator, *pair.responder);
      EXPECT_FALSE(result.success) << protocol_name(kind) << " at " << now;
      EXPECT_EQ(result.error, Error::kAuthenticationFailed) << protocol_name(kind) << " at " << now;
    }
  }
}

TEST(Driver, HandshakeFailureSurfacesError) {
  World world;
  world.alice.pairwise_keys.clear();  // PORAMB cannot run
  const auto outcome = ecqv::testing::run(ProtocolKind::kPoramb, world);
  EXPECT_FALSE(outcome.result.success);
  EXPECT_NE(outcome.result.error, Error::kOk);
}

}  // namespace
}  // namespace ecqv::proto
