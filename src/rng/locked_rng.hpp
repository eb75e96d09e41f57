// Mutex-serialized Rng adapter.
//
// The concurrent broker's workers all draw ephemerals through the one Rng
// their SessionBroker was built with; most Rng implementations (TestRng,
// HMAC-DRBG) carry mutable state, so unsynchronized concurrent fill() calls
// would corrupt it. Wrapping the inner Rng here makes any generator safe to
// share: draws serialize, each caller still receives a distinct stream
// prefix. Deterministic seeds stay deterministic per-process but the
// per-thread interleaving is scheduling-dependent — exactly the semantics a
// shared hardware TRNG would have.
#pragma once

#include "common/sync.hpp"
#include "rng/rng.hpp"

namespace ecqv::rng {

class LockedRng final : public Rng {
 public:
  explicit LockedRng(Rng& inner) : inner_(inner) {}

  void fill(ByteSpan out) override {
    MutexLock lock(mutex_);
    inner_.fill(out);
  }

 private:
  // The inner generator's mutable state is what the lock protects; the
  // reference itself is immutable, so the capability guards the fill()
  // call, not a field.
  Rng& inner_;
  Mutex mutex_;
};

}  // namespace ecqv::rng
