// Clang -Wthread-safety capability annotations for the session fabric.
//
// Every locking invariant in the fabric — "decision+seal+advance happen
// under ONE shard lock" (session_store.cpp), "connect() only after the
// pending-shard locks release" (session_broker.cpp), "drive() requires the
// shard lock" — used to live in comments and TSan's dynamic luck. These
// macros turn the comments into machine-checked contracts: under clang the
// analysis proves at compile time that every GUARDED_BY field is only
// touched with its capability held and that every REQUIRES contract is met
// at every call site; CI builds src/ with -Werror=thread-safety so a
// violation is a build break, not a review comment.
//
// The macros expand to nothing under gcc (and any compiler without the
// attribute), so the portable build is untouched. Conventions:
//
//   * the lockable type (ecqv::Mutex, common/sync.hpp) is
//     CAPABILITY("mutex"); its RAII guard is SCOPED_CAPABILITY (clang does
//     not model std::lock_guard over custom mutexes — always lock through
//     ecqv::MutexLock, never std::lock_guard directly; tools/ct_lint.py
//     enforces this);
//   * data a lock protects is GUARDED_BY(that_mutex);
//   * a function with a "lock must be held" contract is REQUIRES(mutex) —
//     REQUIRES may name a parameter's member (REQUIRES(shard.mutex)), which
//     is how the sharded structures express per-shard contracts;
//   * a function that must NOT be entered with the lock held (it takes the
//     lock itself, or calls out while callers might hold it) is
//     EXCLUDES(mutex);
//   * NO_THREAD_SAFETY_ANALYSIS is a last resort with a hard budget of 3
//     uses repo-wide (enforced by tools/ct_lint.py), each carrying a
//     justification comment on the preceding lines.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define ECQV_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ECQV_THREAD_ANNOTATION
#define ECQV_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

#define CAPABILITY(x) ECQV_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY ECQV_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) ECQV_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) ECQV_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) ECQV_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) ECQV_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) ECQV_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) ECQV_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) ECQV_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) ECQV_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) ECQV_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) ECQV_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) ECQV_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) ECQV_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) ECQV_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) ECQV_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS ECQV_THREAD_ANNOTATION(no_thread_safety_analysis)
