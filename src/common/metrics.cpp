#include "common/metrics.hpp"

#include <stdexcept>

#include "common/result.hpp"

namespace ecqv {

namespace detail {
constinit thread_local CountScope* g_active_scope = nullptr;
std::atomic<AtomicCountSink*> g_global_sink{nullptr};
}  // namespace detail

GlobalCountScope::GlobalCountScope(AtomicCountSink& sink) {
  AtomicCountSink* expected = nullptr;
  if (!detail::g_global_sink.compare_exchange_strong(expected, &sink))
    throw std::logic_error("GlobalCountScope: a global sink is already installed");
}

GlobalCountScope::~GlobalCountScope() { detail::g_global_sink.store(nullptr); }

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kEcMulBase: return "ec_mul_base";
    case Op::kEcMulVar: return "ec_mul_var";
    case Op::kEcMulDual: return "ec_mul_dual";
    case Op::kEcMulDualCached: return "ec_mul_dual_cached";
    case Op::kEcAdd: return "ec_add";
    case Op::kModInv: return "mod_inv";
    case Op::kSha256Block: return "sha256_block";
    case Op::kAesBlock: return "aes_block";
    case Op::kHmac: return "hmac";
    case Op::kCmac: return "cmac";
    case Op::kDrbgByte: return "drbg_byte";
    case Op::kFpMul: return "fp_mul";
    case Op::kFpSqr: return "fp_sqr";
    case Op::kCount: break;
  }
  return "?";
}

OpCounts& OpCounts::operator+=(const OpCounts& other) {
  for (std::size_t i = 0; i < kOpCount; ++i) counts[i] += other.counts[i];
  return *this;
}

// Only the innermost scope is bumped live (see inline count_op); totals
// propagate outward when scopes unwind, so nesting stays O(1) per count.
CountScope::CountScope() : parent_(detail::g_active_scope) { detail::g_active_scope = this; }

CountScope::~CountScope() {
  detail::g_active_scope = parent_;
  if (parent_ != nullptr) {
    parent_->counts_ += counts_;
  } else if (AtomicCountSink* sink = detail::g_global_sink.load(std::memory_order_relaxed);
             sink != nullptr) {
    // Root scope on a worker thread: hand the tally to the process-wide
    // sink so multi-threaded accounting loses nothing.
    sink->add(counts_);
  }
}

const char* error_name(Error e) {
  switch (e) {
    case Error::kOk: return "ok";
    case Error::kDecodeFailed: return "decode_failed";
    case Error::kInvalidPoint: return "invalid_point";
    case Error::kInvalidSignature: return "invalid_signature";
    case Error::kAuthenticationFailed: return "authentication_failed";
    case Error::kBadState: return "bad_state";
    case Error::kBadLength: return "bad_length";
    case Error::kInternal: return "internal";
  }
  return "?";
}

}  // namespace ecqv
