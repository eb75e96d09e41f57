// ECDSA over P-256/SHA-256: RFC 6979 known-answer vectors, round trips,
// and rejection paths.
#include <gtest/gtest.h>

#include "ecdsa/ecdsa.hpp"
#include "ecdsa/rfc6979.hpp"
#include "rng/test_rng.hpp"

namespace ecqv::sig {
namespace {

// RFC 6979 A.2.5: P-256 + SHA-256.
const char* kRfcKey = "C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721";
const char* kRfcUx = "60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6";
const char* kRfcUy = "7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299";

PrivateKey rfc_key() { return PrivateKey(bi::from_hex256(kRfcKey)); }

TEST(Ecdsa, Rfc6979PublicKey) {
  const ec::AffinePoint q = rfc_key().public_point();
  EXPECT_EQ(bi::to_hex(q.x), "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6");
  EXPECT_EQ(bi::to_hex(q.y), "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299");
}

TEST(Ecdsa, Rfc6979NonceForSample) {
  const hash::Digest digest = hash::sha256(bytes_of("sample"));
  const bi::U256 k = rfc6979_nonce(bi::from_hex256(kRfcKey), digest).declassify();
  EXPECT_EQ(bi::to_hex(k), "a6e3c57dd01abe90086538398355dd4c3b17aa873382b0f24d6129493d8aad60");
}

TEST(Ecdsa, Rfc6979SignatureForSample) {
  const Signature s = rfc_key().sign(bytes_of("sample"));
  EXPECT_EQ(bi::to_hex(s.r), "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716");
  EXPECT_EQ(bi::to_hex(s.s), "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8");
}

TEST(Ecdsa, Rfc6979SignatureForTest) {
  const Signature s = rfc_key().sign(bytes_of("test"));
  EXPECT_EQ(bi::to_hex(s.r), "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367");
  EXPECT_EQ(bi::to_hex(s.s), "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083");
}

TEST(Ecdsa, VerifyAcceptsOwnSignatures) {
  const PrivateKey key = rfc_key();
  const ec::AffinePoint q = key.public_point();
  EXPECT_TRUE(verify(q, bytes_of("sample"), key.sign(bytes_of("sample"))));
  EXPECT_TRUE(verify(q, bytes_of("test"), key.sign(bytes_of("test"))));
}

TEST(Ecdsa, VerifyRejectsTamperedMessage) {
  const PrivateKey key = rfc_key();
  const Signature s = key.sign(bytes_of("payload"));
  EXPECT_FALSE(verify(key.public_point(), bytes_of("Payload"), s));
}

TEST(Ecdsa, VerifyRejectsTamperedSignature) {
  const PrivateKey key = rfc_key();
  Signature s = key.sign(bytes_of("payload"));
  bi::U256 r = s.r;
  bi::add(r, r, bi::U256(1));
  EXPECT_FALSE(verify(key.public_point(), bytes_of("payload"), Signature{r, s.s}));
  EXPECT_FALSE(verify(key.public_point(), bytes_of("payload"), Signature{s.r, r}));
}

TEST(Ecdsa, VerifyRejectsWrongKey) {
  rng::TestRng rng(9);
  const PrivateKey key = rfc_key();
  const PrivateKey other = PrivateKey::generate(rng);
  const Signature s = key.sign(bytes_of("payload"));
  EXPECT_FALSE(verify(other.public_point(), bytes_of("payload"), s));
}

TEST(Ecdsa, VerifyRejectsDegenerateInputs) {
  const PrivateKey key = rfc_key();
  const ec::AffinePoint q = key.public_point();
  EXPECT_FALSE(verify(q, bytes_of("m"), Signature{bi::U256(0), bi::U256(1)}));
  EXPECT_FALSE(verify(q, bytes_of("m"), Signature{bi::U256(1), bi::U256(0)}));
  EXPECT_FALSE(verify(q, bytes_of("m"), Signature{ec::Curve::p256().order(), bi::U256(1)}));
  EXPECT_FALSE(verify(ec::AffinePoint::make_infinity(), bytes_of("m"), key.sign(bytes_of("m"))));
}

TEST(Ecdsa, SignatureCodecRoundTrip) {
  const Signature s = rfc_key().sign(bytes_of("codec"));
  const Bytes enc = encode_signature(s);
  ASSERT_EQ(enc.size(), kSignatureSize);
  auto back = decode_signature(enc);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), s);
  EXPECT_FALSE(decode_signature(Bytes(63)).ok());
}

TEST(Ecdsa, PrivateKeyRangeChecks) {
  EXPECT_THROW(PrivateKey(bi::U256(0)), std::invalid_argument);
  EXPECT_THROW(PrivateKey(ec::Curve::p256().order()), std::invalid_argument);
  EXPECT_NO_THROW(PrivateKey(bi::U256(1)));
}

TEST(Ecdsa, DeterministicSigningIsStable) {
  const PrivateKey key = rfc_key();
  EXPECT_EQ(key.sign(bytes_of("stable")), key.sign(bytes_of("stable")));
}

TEST(Ecdsa, Rfc6979RetryProducesDifferentNonce) {
  const hash::Digest digest = hash::sha256(bytes_of("sample"));
  const bi::U256 k0 = rfc6979_nonce(bi::from_hex256(kRfcKey), digest, 0).declassify();
  const bi::U256 k1 = rfc6979_nonce(bi::from_hex256(kRfcKey), digest, 1).declassify();
  EXPECT_NE(k0, k1);
}

class EcdsaRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdsaRoundTrip, SignVerifyRandomKeys) {
  rng::TestRng rng(GetParam());
  const PrivateKey key = PrivateKey::generate(rng);
  const Bytes msg = rng.bytes(100);
  const Signature s = key.sign(msg);
  EXPECT_TRUE(verify(key.public_point(), msg, s));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(verify(key.public_point(), tampered, s));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdsaRoundTrip, ::testing::Range<std::uint64_t>(100, 108));

}  // namespace
}  // namespace ecqv::sig
