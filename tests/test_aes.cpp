// AES-128 core (FIPS 197), CBC/CTR modes (SP 800-38A) and padding tests.
#include <gtest/gtest.h>

#include "aes/modes.hpp"
#include "common/hex.hpp"

namespace ecqv::aes {
namespace {

const Bytes kNistKey = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
const Bytes kNistPlain1 = from_hex("6bc1bee22e409f96e93d7e117393172a");

Iv make_iv(ByteView b) {
  Iv iv{};
  std::copy_n(b.begin(), iv.size(), iv.begin());
  return iv;
}

TEST(Aes128, Fips197Example) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  const Aes128 cipher(key);
  cipher.encrypt_block(block);
  EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
  cipher.decrypt_block(block);
  EXPECT_EQ(to_hex(block), "00112233445566778899aabbccddeeff");
}

TEST(Aes128, Sp80038aEcbVector) {
  Bytes block = kNistPlain1;
  const Aes128 cipher(kNistKey);
  cipher.encrypt_block(block);
  EXPECT_EQ(to_hex(block), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128, RejectsBadKeyAndBlockSizes) {
  EXPECT_THROW(Aes128(Bytes(15)), std::invalid_argument);
  const Aes128 cipher(kNistKey);
  Bytes short_block(15);
  EXPECT_THROW(cipher.encrypt_block(short_block), std::invalid_argument);
  EXPECT_THROW(cipher.decrypt_block(short_block), std::invalid_argument);
}

TEST(Cbc, Sp80038aFirstBlock) {
  const Iv iv = make_iv(from_hex("000102030405060708090a0b0c0d0e0f"));
  const Aes128 cipher(kNistKey);
  const Bytes ct = cbc_encrypt_raw(cipher, iv, kNistPlain1);
  EXPECT_EQ(to_hex(ct), "7649abac8119b246cee98e9b12e9197d");
}

TEST(Cbc, Sp80038aTwoBlocksChained) {
  const Iv iv = make_iv(from_hex("000102030405060708090a0b0c0d0e0f"));
  const Aes128 cipher(kNistKey);
  const Bytes plain =
      from_hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
  const Bytes ct = cbc_encrypt_raw(cipher, iv, plain);
  EXPECT_EQ(to_hex(ct),
            "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2");
  auto back = cbc_decrypt_raw(cipher, iv, ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), plain);
}

TEST(Cbc, RawRequiresAlignment) {
  const Aes128 cipher(kNistKey);
  EXPECT_THROW(cbc_encrypt_raw(cipher, Iv{}, Bytes(17)), std::invalid_argument);
  EXPECT_FALSE(cbc_decrypt_raw(cipher, Iv{}, Bytes(17)).ok());
  EXPECT_FALSE(cbc_decrypt_raw(cipher, Iv{}, Bytes{}).ok());
}

TEST(Ctr, Sp80038aVector) {
  const Iv counter = make_iv(from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"));
  const Aes128 cipher(kNistKey);
  const Bytes ct = ctr_crypt(cipher, counter, kNistPlain1);
  EXPECT_EQ(to_hex(ct), "874d6191b620e3261bef6864990db6ce");
}

TEST(Ctr, IsInvolutoryAnyLength) {
  const Aes128 cipher(kNistKey);
  const Iv iv = make_iv(from_hex("00112233445566778899aabbccddeeff"));
  for (const std::size_t len : {0u, 1u, 15u, 16u, 17u, 64u, 100u}) {
    Bytes plain(len, 0x42);
    const Bytes ct = ctr_crypt(cipher, iv, plain);
    EXPECT_EQ(ctr_crypt(cipher, iv, ct), plain) << "len=" << len;
    if (len > 0) EXPECT_NE(ct, plain);
  }
}

TEST(Ctr, CounterIncrementCrossesByteBoundary) {
  const Aes128 cipher(kNistKey);
  Iv iv{};
  iv.fill(0xff);  // increments wrap the whole counter block
  Bytes plain(48, 0x00);
  const Bytes ct = ctr_crypt(cipher, iv, plain);
  // Keystream blocks must all differ (counter really changed).
  EXPECT_NE(Bytes(ct.begin(), ct.begin() + 16), Bytes(ct.begin() + 16, ct.begin() + 32));
  EXPECT_NE(Bytes(ct.begin() + 16, ct.begin() + 32), Bytes(ct.begin() + 32, ct.end()));
}

TEST(Modes, MakeKeyChecksSize) {
  EXPECT_THROW(make_key(Bytes(8)), std::invalid_argument);
  const Key k = make_key(kNistKey);
  EXPECT_TRUE(std::equal(k.begin(), k.end(), kNistKey.begin()));
}

}  // namespace
}  // namespace ecqv::aes
