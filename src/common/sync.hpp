// Concurrency primitives for the session fabric.
//
// The fabric serves two deployment shapes from one code base: the paper's
// single-threaded embedded event loop, and a multi-core backend where a
// worker pool terminates handshakes for thousands of peers concurrently
// (ROADMAP item e). Every shared structure (store shards, broker pending
// shards, timer queue, peer cache, transports) is therefore thread-safe by
// construction: it locks through Mutex, always on — an uncontended
// lock/unlock pair costs ~20 ns against microseconds of record crypto — and
// counts through StatCounter, a relaxed atomic that still reads, copies and
// compares like a plain uint64_t so every call site keeps working unchanged.
//
// Mutex is a Clang thread-safety capability
// (common/thread_annotations.hpp): fields it protects carry GUARDED_BY,
// "lock held" helper contracts carry REQUIRES, and CI compiles src/ with
// -Werror=thread-safety. Clang's analysis does not model std::lock_guard
// over custom mutexes, so locking always goes through the annotated RAII
// guard below (MutexLock) — tools/ct_lint.py rejects raw
// std::lock_guard<Mutex> for exactly this reason.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace ecqv {

/// The fabric's one lock: std::mutex as a thread-safety capability, so
/// GUARDED_BY fields are analyzable. BasicLockable; native() exposes the
/// underlying std::mutex for std::unique_lock + condition-variable waits
/// (those sites are the NO_THREAD_SAFETY_ANALYSIS budget).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mutex_.lock(); }
  void unlock() RELEASE() { mutex_.unlock(); }

  /// Analysis-only assertion that the calling thread holds this capability.
  /// For callback re-entry points the analysis cannot follow (e.g. the bus
  /// frame sinks CanFdTransport registers, invoked from flush() under the
  /// lock). No runtime effect — the claim is vouched for by the registration
  /// site, not checked.
  void assert_held() const ASSERT_CAPABILITY(this) {}

  [[nodiscard]] std::mutex& native() { return mutex_; }

 private:
  std::mutex mutex_;
};

/// RAII guard for Mutex, visible to the thread-safety analysis
/// (std::lock_guard is not).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) ACQUIRE(mutex) : mutex_(mutex) { mutex_.lock(); }
  ~MutexLock() RELEASE() { mutex_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Monotonic event counter for Stats blocks: a relaxed std::atomic with the
/// value semantics of a plain integer. Increments from any thread never
/// lose updates (the worker pool's accounting stays exact); reads, copies
/// and comparisons behave like uint64_t so Stats structs remain aggregate
/// snapshots to their consumers. Being atomic, StatCounter fields need no
/// GUARDED_BY — the thread-safety analysis correctly demands nothing here.
///
/// Relaxed ordering is deliberate: these are tallies, not synchronization —
/// readers only need each increment to eventually be visible and none to be
/// lost, which relaxed fetch_add guarantees.
class StatCounter {
 public:
  StatCounter(std::uint64_t v = 0) : value_(v) {}  // NOLINT(google-explicit-constructor)
  StatCounter(const StatCounter& other) : value_(other.load()) {}
  StatCounter& operator=(const StatCounter& other) {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(std::uint64_t v) {
    value_.store(v, std::memory_order_relaxed);
    return *this;
  }

  [[nodiscard]] std::uint64_t load() const { return value_.load(std::memory_order_relaxed); }
  operator std::uint64_t() const { return load(); }  // NOLINT(google-explicit-constructor)

  StatCounter& operator++() {
    value_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator+=(std::uint64_t n) {
    value_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<std::uint64_t> value_;
};

}  // namespace ecqv
