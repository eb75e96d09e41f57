#include "aes/modes.hpp"

#include <cstring>
#include <stdexcept>

#include "aes/aesni.hpp"
#include "common/metrics.hpp"

namespace ecqv::aes {

Bytes cbc_encrypt_raw(const Aes128& cipher, const Iv& iv, ByteView plaintext) {
  if (plaintext.size() % kBlockSize != 0)
    throw std::invalid_argument("cbc_encrypt_raw: plaintext must be block-aligned");
  Bytes out(plaintext.begin(), plaintext.end());
  Block chain{};
  std::copy(iv.begin(), iv.end(), chain.begin());
  for (std::size_t off = 0; off < out.size(); off += kBlockSize) {
    for (std::size_t i = 0; i < kBlockSize; ++i) out[off + i] ^= chain[i];
    cipher.encrypt_block(ByteSpan(out.data() + off, kBlockSize));
    std::copy(out.begin() + static_cast<std::ptrdiff_t>(off),
              out.begin() + static_cast<std::ptrdiff_t>(off + kBlockSize), chain.begin());
  }
  return out;
}

Result<Bytes> cbc_decrypt_raw(const Aes128& cipher, const Iv& iv, ByteView ciphertext) {
  if (ciphertext.size() % kBlockSize != 0 || ciphertext.empty()) return Error::kBadLength;
  Bytes out(ciphertext.begin(), ciphertext.end());
  Block chain{};
  std::copy(iv.begin(), iv.end(), chain.begin());
  for (std::size_t off = 0; off < out.size(); off += kBlockSize) {
    Block next_chain{};
    std::copy(ciphertext.begin() + static_cast<std::ptrdiff_t>(off),
              ciphertext.begin() + static_cast<std::ptrdiff_t>(off + kBlockSize),
              next_chain.begin());
    cipher.decrypt_block(ByteSpan(out.data() + off, kBlockSize));
    for (std::size_t i = 0; i < kBlockSize; ++i) out[off + i] ^= chain[i];
    chain = next_chain;
  }
  return out;
}

namespace {

/// Big-endian increment across the full counter block.
inline void inc_wide(Block& counter) {
  for (int i = kBlockSize - 1; i >= 0; --i) {
    if (++counter[static_cast<std::size_t>(i)] != 0) break;
  }
}

/// Portable CTR body: keystream is generated into a multi-block scratch and
/// XORed word-wise, instead of the old one-Block-copy-per-16-bytes loop
/// with a byte-at-a-time XOR. Bit-identical output (same keystream, same
/// full-block big-endian counter); the differential test in test_aes.cpp
/// pins the AES-NI kernel to this body.
void ctr_xor_portable(const Aes128& cipher, Block& counter, ByteSpan data) {
  constexpr std::size_t kScratchBlocks = 8;
  alignas(16) std::array<std::uint8_t, kBlockSize * kScratchBlocks> ks;
  std::size_t off = 0;
  while (off < data.size()) {
    const std::size_t want = std::min(data.size() - off, ks.size());
    const std::size_t nblocks = (want + kBlockSize - 1) / kBlockSize;
    for (std::size_t b = 0; b < nblocks; ++b) {
      std::memcpy(ks.data() + b * kBlockSize, counter.data(), kBlockSize);
      inc_wide(counter);
    }
    for (std::size_t b = 0; b < nblocks; ++b)
      cipher.encrypt_block(ByteSpan(ks.data() + b * kBlockSize, kBlockSize));
    std::uint8_t* out = data.data() + off;
    std::size_t i = 0;
    for (; i + 8 <= want; i += 8) {
      std::uint64_t w, k;
      std::memcpy(&w, out + i, 8);
      std::memcpy(&k, ks.data() + i, 8);
      w ^= k;
      std::memcpy(out + i, &w, 8);
    }
    for (; i < want; ++i) out[i] ^= ks[i];
    off += want;
  }
}

}  // namespace

void ctr_xor(const Aes128& cipher, const Iv& iv, ByteSpan data) {
  Block counter{};
  std::copy(iv.begin(), iv.end(), counter.begin());
#if defined(ECQV_AES_AESNI)
  if (aes_hw_available()) {
    // The kernel bypasses encrypt_block, so the per-block op accounting the
    // device cost model relies on is bumped here in one shot.
    count_op(Op::kAesBlock, (data.size() + kBlockSize - 1) / kBlockSize);
    detail::aesni_ctr_xor(cipher.round_keys(), counter.data(), data.data(), data.size(),
                          /*wide_ctr=*/true);
    return;
  }
#endif
  ctr_xor_portable(cipher, counter, data);
}

Bytes ctr_crypt(const Aes128& cipher, const Iv& iv, ByteView data) {
  Bytes out(data.begin(), data.end());
  ctr_xor(cipher, iv, ByteSpan(out));
  return out;
}

}  // namespace ecqv::aes
