// AEAD suites (GCM / CCM), GHASH and the hardware-vs-portable differential
// pins.
//
// The differential tests exercise the runtime kill switches
// (ECQV_DISABLE_AESNI / ECQV_DISABLE_CLMUL) in-process: the dispatch
// predicates re-read the environment on every call, so a setenv here flips
// the active tier for the code under test and nothing else.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "aead/ccm.hpp"
#include "aead/gcm.hpp"
#include "aead/ghash.hpp"
#include "aead/suite.hpp"
#include "aes/modes.hpp"
#include "common/hex.hpp"
#include "rng/test_rng.hpp"

namespace ecqv::aead {
namespace {

/// Scoped environment override that restores the previous value on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_old_)
      ::setenv(name_, old_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::string old_;
  bool had_old_;
};

Bytes deterministic_bytes(std::size_t n, std::uint64_t seed) {
  rng::TestRng rng(seed);
  Bytes out(n);
  rng.fill(out);
  return out;
}

// ------------------------------------------------------------ GCM NIST KATs
// The four AES-128 cases from the GCM spec's validation set (McGrew-Viega
// test cases 1-4): empty/empty, single block, four blocks, and truncated
// final block with AAD.

struct GcmKat {
  const char* key;
  const char* iv;
  const char* aad;
  const char* pt;
  const char* ct;
  const char* tag;
};

const GcmKat kGcmKats[] = {
    {"00000000000000000000000000000000", "000000000000000000000000", "", "", "",
     "58e2fccefa7e3061367f1d57a4e7455a"},
    {"00000000000000000000000000000000", "000000000000000000000000", "",
     "00000000000000000000000000000000", "0388dace60b6a392f328c2b971b2fe78",
     "ab6e47d42cec13bdf53a67b21257bddf"},
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888", "",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"},
};

void check_gcm_kat(const GcmKat& kat) {
  const Bytes key = from_hex(kat.key), iv = from_hex(kat.iv), aad = from_hex(kat.aad);
  const Bytes pt = from_hex(kat.pt), ct = from_hex(kat.ct), tag = from_hex(kat.tag);
  const aes::Aes128 cipher(key);

  Bytes got_ct(pt.size());
  Bytes got_tag(16);
  gcm_seal(cipher, iv, aad, pt, ByteSpan(got_ct), ByteSpan(got_tag));
  EXPECT_EQ(to_hex(got_ct), to_hex(ct));
  EXPECT_EQ(to_hex(got_tag), to_hex(tag));

  Bytes got_pt(ct.size());
  EXPECT_TRUE(gcm_open(cipher, iv, aad, ct, tag, ByteSpan(got_pt)));
  EXPECT_EQ(to_hex(got_pt), to_hex(pt));
}

TEST(Gcm, NistKats) {
  for (const GcmKat& kat : kGcmKats) check_gcm_kat(kat);
}

TEST(Gcm, NistKatsPortable) {
  EnvGuard aes_off("ECQV_DISABLE_AESNI", "1");
  EnvGuard clmul_off("ECQV_DISABLE_CLMUL", "1");
  for (const GcmKat& kat : kGcmKats) check_gcm_kat(kat);
}

TEST(Gcm, TruncatedTagIsPrefixAndVerifies) {
  const GcmKat& kat = kGcmKats[3];
  const Bytes key = from_hex(kat.key), iv = from_hex(kat.iv), aad = from_hex(kat.aad);
  const Bytes pt = from_hex(kat.pt), full_tag = from_hex(kat.tag);
  const aes::Aes128 cipher(key);
  for (std::size_t tag_len : {4u, 8u, 12u}) {
    Bytes ct(pt.size()), tag(tag_len);
    gcm_seal(cipher, iv, aad, pt, ByteSpan(ct), ByteSpan(tag));
    EXPECT_EQ(to_hex(tag), to_hex(ByteView(full_tag).subspan(0, tag_len)));
    Bytes out(ct.size());
    EXPECT_TRUE(gcm_open(cipher, iv, aad, ct, tag, ByteSpan(out)));
    tag[tag_len - 1] ^= 0x01;
    EXPECT_FALSE(gcm_open(cipher, iv, aad, ct, tag, ByteSpan(out)));
  }
}

// ------------------------------------------------------------ CCM KATs
// RFC 3610 packet vectors 1 & 2 (13-byte nonce, M=8, L=2).

struct CcmKat {
  const char* key;
  const char* nonce;
  const char* aad;
  const char* pt;
  const char* ct;
  const char* tag;
};

const CcmKat kCcmKats[] = {
    {"c0c1c2c3c4c5c6c7c8c9cacbcccdcecf", "00000003020100a0a1a2a3a4a5",
     "0001020304050607", "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e",
     "588c979a61c663d2f066d0c2c0f989806d5f6b61dac384", "17e8d12cfdf926e0"},
    {"c0c1c2c3c4c5c6c7c8c9cacbcccdcecf", "00000004030201a0a1a2a3a4a5",
     "0001020304050607", "08090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "72c91a36e135f8cf291ca894085c87e3cc15c439c9e43a3b", "a091d56e10400916"},
};

void check_ccm_kat(const CcmKat& kat) {
  const Bytes key = from_hex(kat.key), nonce = from_hex(kat.nonce), aad = from_hex(kat.aad);
  const Bytes pt = from_hex(kat.pt), ct = from_hex(kat.ct), tag = from_hex(kat.tag);
  const aes::Aes128 cipher(key);

  Bytes got_ct(pt.size());
  Bytes got_tag(tag.size());
  ccm_seal(cipher, nonce, aad, pt, ByteSpan(got_ct), ByteSpan(got_tag));
  EXPECT_EQ(to_hex(got_ct), to_hex(ct));
  EXPECT_EQ(to_hex(got_tag), to_hex(tag));

  Bytes got_pt(ct.size());
  EXPECT_TRUE(ccm_open(cipher, nonce, aad, ct, tag, ByteSpan(got_pt)));
  EXPECT_EQ(to_hex(got_pt), to_hex(pt));
}

TEST(Ccm, Rfc3610Kats) {
  for (const CcmKat& kat : kCcmKats) check_ccm_kat(kat);
}

TEST(Ccm, Rfc3610KatsPortable) {
  EnvGuard aes_off("ECQV_DISABLE_AESNI", "1");
  for (const CcmKat& kat : kCcmKats) check_ccm_kat(kat);
}

TEST(Ccm, TagLengthIsBoundIntoTheMac) {
  // CCM encodes M into the B0 flags, so an 8-byte tag is NOT a truncation
  // of the 16-byte tag — sealing under one length and opening under the
  // other must fail even for the "matching" prefix.
  const Bytes key = from_hex(kCcmKats[0].key);
  const Bytes nonce = deterministic_bytes(12, 7);
  const Bytes aad = deterministic_bytes(14, 8);
  const Bytes pt = deterministic_bytes(40, 9);
  const aes::Aes128 cipher(key);
  Bytes ct16(pt.size()), tag16(16), ct8(pt.size()), tag8(8);
  ccm_seal(cipher, nonce, aad, pt, ByteSpan(ct16), ByteSpan(tag16));
  ccm_seal(cipher, nonce, aad, pt, ByteSpan(ct8), ByteSpan(tag8));
  EXPECT_NE(to_hex(tag8), to_hex(ByteView(tag16).subspan(0, 8)));
  Bytes out(pt.size());
  EXPECT_FALSE(ccm_open(cipher, nonce, aad, ct16, ByteView(tag16).subspan(0, 8), ByteSpan(out)));
  EXPECT_TRUE(ccm_open(cipher, nonce, aad, ct8, tag8, ByteSpan(out)));
  EXPECT_EQ(to_hex(out), to_hex(pt));
}

TEST(Ccm, WipesPlaintextOnTagMismatch) {
  const Bytes key = from_hex(kCcmKats[0].key);
  const Bytes nonce = deterministic_bytes(12, 17);
  const Bytes pt = deterministic_bytes(32, 18);
  const aes::Aes128 cipher(key);
  Bytes ct(pt.size()), tag(8);
  ccm_seal(cipher, nonce, {}, pt, ByteSpan(ct), ByteSpan(tag));
  tag[0] ^= 0x80;
  Bytes out(pt.size(), 0xAA);
  EXPECT_FALSE(ccm_open(cipher, nonce, {}, ct, tag, ByteSpan(out)));
  EXPECT_EQ(out, Bytes(pt.size(), 0x00));  // decrypt-then-verify wiped it
}

// ------------------------------------------------ negative tests (both suites)

TEST(Aead, RejectsEveryBitFlipSurface) {
  const Bytes key = deterministic_bytes(16, 1);
  const Bytes nonce = deterministic_bytes(12, 2);
  const Bytes aad = deterministic_bytes(14, 3);
  const Bytes pt = deterministic_bytes(64, 4);
  const aes::Aes128 cipher(key);

  for (std::uint8_t id : {0x01, 0x02, 0x03}) {
    const Suite* suite = find_suite(id);
    ASSERT_NE(suite, nullptr);
    Bytes ct(pt.size()), tag(suite->tag_len), out(pt.size());
    suite->seal(cipher, nonce.data(), aad, pt, ct.data(), tag.data(), suite->tag_len);
    ASSERT_TRUE(suite->open(cipher, nonce.data(), aad, ct, tag.data(), suite->tag_len,
                            out.data()));
    EXPECT_EQ(out, pt);

    Bytes bad = ct;
    bad[pt.size() / 2] ^= 0x01;  // ciphertext flip
    EXPECT_FALSE(
        suite->open(cipher, nonce.data(), aad, bad, tag.data(), suite->tag_len, out.data()));

    Bytes bad_tag = tag;
    bad_tag[0] ^= 0x01;  // tag flip
    EXPECT_FALSE(
        suite->open(cipher, nonce.data(), aad, ct, bad_tag.data(), suite->tag_len, out.data()));

    Bytes bad_aad = aad;
    bad_aad[3] ^= 0x01;  // AAD flip
    EXPECT_FALSE(
        suite->open(cipher, nonce.data(), bad_aad, ct, tag.data(), suite->tag_len, out.data()));

    Bytes bad_nonce = nonce;
    bad_nonce[11] ^= 0x01;  // nonce flip
    EXPECT_FALSE(
        suite->open(cipher, bad_nonce.data(), aad, ct, tag.data(), suite->tag_len, out.data()));
  }
}

// ------------------------------------------------------------- suite registry

TEST(SuiteRegistry, LookupAndNegotiation) {
  ASSERT_NE(find_suite(0x00), nullptr);
  EXPECT_EQ(find_suite(0x00)->seal, nullptr);  // legacy engine lives elsewhere
  EXPECT_EQ(find_suite(0x01)->tag_len, 16u);
  EXPECT_EQ(find_suite(0x02)->tag_len, 16u);
  EXPECT_EQ(find_suite(0x03)->tag_len, 8u);
  EXPECT_EQ(find_suite(0x42), nullptr);

  EXPECT_EQ(negotiate(kOfferAll, kOfferAll), SuiteId::kCcm128Tag8);
  EXPECT_EQ(negotiate(kOfferAll, kOfferLegacy | 0x02), SuiteId::kGcm128);
  EXPECT_EQ(negotiate(kOfferAll, kOfferLegacy), SuiteId::kCtrHmac);
  EXPECT_EQ(negotiate(kOfferLegacy, kOfferAll), SuiteId::kCtrHmac);
  // Legacy is implied even when a mask omits bit 0.
  EXPECT_EQ(negotiate(0x00, 0x00), SuiteId::kCtrHmac);

  EXPECT_TRUE(offered(kOfferLegacy, SuiteId::kCtrHmac));
  EXPECT_TRUE(offered(0x00, SuiteId::kCtrHmac));
  EXPECT_FALSE(offered(kOfferLegacy, SuiteId::kGcm128));
  EXPECT_TRUE(offered(kOfferAll, SuiteId::kCcm128Tag8));
}

// -------------------------------------------------- hw/portable differentials
// Each pins the hardware kernel to the portable body byte-for-byte over
// lengths that cover the 4-wide main loop, single-block stragglers and
// partial tails. Skipped silently where the CPU has no hw tier (the two
// runs then compare portable against itself, which is still a valid pin).

TEST(Differential, AesBlockAndCtr) {
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 257u, 1500u}) {
    const Bytes key = deterministic_bytes(16, 100 + len);
    const Bytes data = deterministic_bytes(len, 200 + len);
    Bytes iv_bytes = deterministic_bytes(16, 300 + len);
    iv_bytes[15] = 0xFE;  // exercise the counter carry path
    aes::Iv iv{};
    std::copy_n(iv_bytes.begin(), 16, iv.begin());
    const aes::Aes128 cipher(key);

    const Bytes hw = aes::ctr_crypt(cipher, iv, data);
    Bytes portable;
    {
      EnvGuard off("ECQV_DISABLE_AESNI", "1");
      portable = aes::ctr_crypt(cipher, iv, data);
    }
    EXPECT_EQ(to_hex(hw), to_hex(portable)) << "len=" << len;
  }
}

TEST(Differential, Ghash) {
  for (std::size_t len : {0u, 16u, 32u, 160u, 8u, 24u}) {
    const Bytes h = deterministic_bytes(16, 400 + len);
    const Bytes data = deterministic_bytes(len, 500 + len);
    Bytes hw(16), portable(16);
    {
      Ghash g{ByteView(h)};
      g.absorb_padded(data);
      g.absorb_lengths(0, data.size());
      g.digest(ByteSpan(hw));
    }
    {
      EnvGuard off("ECQV_DISABLE_CLMUL", "1");
      Ghash g{ByteView(h)};
      g.absorb_padded(data);
      g.absorb_lengths(0, data.size());
      g.digest(ByteSpan(portable));
    }
    EXPECT_EQ(to_hex(hw), to_hex(portable)) << "len=" << len;
  }
}

TEST(Differential, GcmAndCcmEndToEnd) {
  for (std::size_t len : {0u, 13u, 64u, 333u, 1500u}) {
    const Bytes key = deterministic_bytes(16, 600 + len);
    const Bytes nonce = deterministic_bytes(12, 700 + len);
    const Bytes aad = deterministic_bytes(14, 800 + len);
    const Bytes pt = deterministic_bytes(len, 900 + len);
    const aes::Aes128 cipher(key);

    for (std::uint8_t id : {0x01, 0x02, 0x03}) {
      const Suite* suite = find_suite(id);
      Bytes hw_ct(len), hw_tag(suite->tag_len), po_ct(len), po_tag(suite->tag_len);
      suite->seal(cipher, nonce.data(), aad, pt, hw_ct.data(), hw_tag.data(), suite->tag_len);
      {
        EnvGuard aes_off("ECQV_DISABLE_AESNI", "1");
        EnvGuard clmul_off("ECQV_DISABLE_CLMUL", "1");
        suite->seal(cipher, nonce.data(), aad, pt, po_ct.data(), po_tag.data(), suite->tag_len);
        // Cross-tier open: portable tier opens the hw-sealed record.
        Bytes out(len);
        EXPECT_TRUE(suite->open(cipher, nonce.data(), aad, hw_ct, hw_tag.data(),
                                suite->tag_len, out.data()));
        EXPECT_EQ(out, pt);
      }
      EXPECT_EQ(to_hex(hw_ct), to_hex(po_ct)) << "suite=" << int(id) << " len=" << len;
      EXPECT_EQ(to_hex(hw_tag), to_hex(po_tag)) << "suite=" << int(id) << " len=" << len;
    }
  }
}

}  // namespace
}  // namespace ecqv::aead
