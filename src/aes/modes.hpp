// AES-128 block cipher modes (SP 800-38A): CBC without padding over
// block-aligned payloads (S-ECDSA's finished messages) and CTR (the STS
// authentication responses).
#pragma once

#include "aes/aes128.hpp"
#include "common/result.hpp"

namespace ecqv::aes {

/// Raw CBC over block-aligned data (no padding). Used where the wire format
/// fixes the ciphertext length (S-ECDSA's finished messages).
Bytes cbc_encrypt_raw(const Aes128& cipher, const Iv& iv, ByteView plaintext);
Result<Bytes> cbc_decrypt_raw(const Aes128& cipher, const Iv& iv, ByteView ciphertext);

/// CTR keystream en/decryption (involutory). The initial counter block is
/// `iv`; the counter increments big-endian over the whole block.
Bytes ctr_crypt(const Aes128& cipher, const Iv& iv, ByteView data);

/// In-place CTR, same counter semantics as ctr_crypt. Dispatches to the
/// 4-wide AES-NI kernel when aes_hw_available(); otherwise generates the
/// keystream into a multi-block scratch and XORs it in word-wise.
void ctr_xor(const Aes128& cipher, const Iv& iv, ByteSpan data);

}  // namespace ecqv::aes
