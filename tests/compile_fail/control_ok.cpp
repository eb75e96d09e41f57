// MUST COMPILE everywhere: positive control for the negative-compile
// harness. Uses the same headers and patterns as the failing cases, done
// correctly — if THIS fails, the harness is broken (missing include path,
// flag typo), not the taint/locking layer.
#include <array>

#include "common/secret.hpp"
#include "common/sync.hpp"

namespace {

class Counter {
 public:
  int safe_read() const {
    ecqv::MutexLock lock(mutex_);
    return value_;
  }

 private:
  mutable ecqv::Mutex mutex_;
  int value_ GUARDED_BY(mutex_) = 0;
};

}  // namespace

int main() {
  ecqv::ct::Secret<std::array<std::uint8_t, 32>> a, b;
  Counter c;
  return (ct_equal(a, b) ? 1 : 0) + c.safe_read();
}
