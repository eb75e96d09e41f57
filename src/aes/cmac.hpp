// AES-CMAC (RFC 4493 / SP 800-38B).
//
// Paper §V-A sizes the comparison protocols' symmetric primitives as
// "128-bits for the AES and CMAC". The SCIANC and PORAMB implementations
// here authenticate with HMAC-SHA256 instead (core/scianc.cpp,
// core/poramb.cpp); only the primitive benchmark and tests/test_cmac.cpp
// call this.
#pragma once

#include "aes/aes128.hpp"

namespace ecqv::aes {

using Tag = Block;  // 16-byte CMAC tag

/// One-shot AES-CMAC over `data` with a 16-byte key.
Tag cmac(ByteView key, ByteView data);

/// Subkey generation exposed for tests (RFC 4493 §2.3).
struct CmacSubkeys {
  Block k1{};
  Block k2{};
};
CmacSubkeys cmac_subkeys(const Aes128& cipher);

}  // namespace ecqv::aes
