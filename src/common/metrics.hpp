// Primitive-operation accounting.
//
// The embedded device cost model (src/sim) predicts per-device execution
// times as dot(primitive counts, per-device primitive costs). Counts are
// collected from *real* executions of the crypto code: every primitive bumps
// the thread-local counter when a CountScope is active. This keeps the model
// honest — the counts can never drift from what the implementation actually
// computes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string_view>

namespace ecqv {

/// Primitive operation classes priced by the device model. The granularity
/// matches what dominates on the paper's microcontrollers: EC scalar
/// multiplications dwarf everything, then hashing/AES block work, then RNG.
enum class Op : std::uint8_t {
  kEcMulBase,   // scalar * G (known base point)
  kEcMulVar,    // scalar * P (arbitrary point)
  kEcMulDual,   // u1*G + u2*P via Straus (ECDSA verify, ECQV extract)
  kEcMulDualCached,  // Straus dual-mul over a cached per-peer table (no build)
  kEcAdd,       // standalone point addition
  kModInv,      // modular inversion (affine conversion, ECDSA)
  kSha256Block, // one SHA-256 compression
  kAesBlock,    // one AES-128 block (any mode)
  kHmac,        // one HMAC invocation (fixed small input)
  kCmac,        // one AES-CMAC invocation
  kDrbgByte,    // one byte of DRBG output
  kFpMul,       // one Montgomery field/scalar multiplication (either modulus)
  kFpSqr,       // one dedicated Montgomery squaring (either modulus)
  kCount,
};

inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

/// Short mnemonic for reports ("ec_mul_base", ...).
std::string_view op_name(Op op);

/// A vector of per-primitive counts. Value type: freely copyable.
struct OpCounts {
  std::array<std::uint64_t, kOpCount> counts{};

  std::uint64_t& operator[](Op op) { return counts[static_cast<std::size_t>(op)]; }
  std::uint64_t operator[](Op op) const { return counts[static_cast<std::size_t>(op)]; }

  OpCounts& operator+=(const OpCounts& other);
  friend OpCounts operator+(OpCounts a, const OpCounts& b) { return a += b; }
  bool operator==(const OpCounts&) const = default;
};

/// RAII scope that makes a fresh counter active on this thread. Scopes nest;
/// inner scopes forward their tallies to the enclosing scope on destruction
/// so an outer "whole protocol" scope sees everything.
class CountScope {
 public:
  CountScope();
  ~CountScope();
  CountScope(const CountScope&) = delete;
  CountScope& operator=(const CountScope&) = delete;

  /// Counts accumulated so far inside this scope.
  [[nodiscard]] const OpCounts& counts() const { return counts_; }

  /// Direct bump used by the inline count_op fast path.
  void bump(Op op, std::uint64_t n) { counts_[op] += n; }

 private:
  OpCounts counts_;
  CountScope* parent_;
};

/// Process-wide atomic tally: the multi-threaded counterpart of OpCounts.
/// Worker-pool code (the concurrent broker) bumps it from many threads at
/// once; relaxed fetch_add guarantees no increment is ever lost, which the
/// threaded soak test asserts exactly.
class AtomicCountSink {
 public:
  void bump(Op op, std::uint64_t n) {
    counts_[static_cast<std::size_t>(op)].fetch_add(n, std::memory_order_relaxed);
  }
  void add(const OpCounts& counts) {
    for (std::size_t i = 0; i < kOpCount; ++i)
      counts_[i].fetch_add(counts.counts[i], std::memory_order_relaxed);
  }
  [[nodiscard]] OpCounts snapshot() const {
    OpCounts out;
    for (std::size_t i = 0; i < kOpCount; ++i)
      out.counts[i] = counts_[i].load(std::memory_order_relaxed);
    return out;
  }
  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kOpCount> counts_{};
};

namespace detail {
/// The innermost active scope on this thread (nullptr when counting is off).
/// Exposed only so count_op below can inline to a TLS load + branch — it is
/// called per field multiplication on the scalar-multiplication hot path,
/// where an out-of-line call would cost more than the multiply bookkeeping.
/// constinit: statically initialized, so other translation units read it
/// directly rather than through a thread_local wrapper call — on that
/// path a Release -fsanitize=undefined build reports a null-pointer load.
extern constinit thread_local CountScope* g_active_scope;
/// Process-global fallback sink (nullptr when none installed): threads with
/// no active CountScope route their bumps here, and a root CountScope on
/// any thread forwards its tally here on destruction. This is how the
/// worker pool's primitive counts stay exact — every worker contributes to
/// one shared atomic tally regardless of which thread ran the crypto.
extern std::atomic<AtomicCountSink*> g_global_sink;
}  // namespace detail

/// RAII: installs `sink` as the process-global fallback for the scope's
/// lifetime. At most one may be active at a time (nesting throws). Ops on
/// threads without their own CountScope land in the sink directly; root
/// CountScopes (e.g. the per-operation segment scopes inside protocol
/// parties running on worker threads) forward their totals on destruction.
///
/// Lifetime contract: destroy the scope only after every thread that may
/// still call count_op() has quiesced (join the workers first). A thread
/// racing the destructor could load the sink pointer just before it is
/// cleared and bump a sink that no longer exists — same rule as any
/// observer deregistration.
class GlobalCountScope {
 public:
  explicit GlobalCountScope(AtomicCountSink& sink);
  ~GlobalCountScope();
  GlobalCountScope(const GlobalCountScope&) = delete;
  GlobalCountScope& operator=(const GlobalCountScope&) = delete;
};

/// Bumps the active thread-local counter, falling back to the process-wide
/// atomic sink when no scope is active on this thread. Called from the
/// crypto primitives themselves.
inline void count_op(Op op, std::uint64_t n = 1) {
  if (detail::g_active_scope != nullptr) {
    detail::g_active_scope->bump(op, n);
    return;
  }
  if (AtomicCountSink* sink = detail::g_global_sink.load(std::memory_order_relaxed);
      sink != nullptr)
    sink->bump(op, n);
}

}  // namespace ecqv
