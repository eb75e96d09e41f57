// Per-peer authentication cache: implicitly-extracted ECQV public keys and
// their cached wNAF verification tables (ROADMAP item d).
//
// Implicit public key extraction (paper eq. (1), Q_U = Hn(Cert_U)·P_U +
// Q_CA) is deterministic in the certificate bytes, so a backend serving a
// fleet can compute it once per certificate and reuse it for every
// handshake and signature from that peer. The cache keys on the subject
// identity and revalidates by exact certificate encoding: a peer presenting
// a rotated certificate replaces its entry (and table) atomically.
//
// Entries bundle the ec::VerifyTable so verification also skips the
// per-call table build. prewarm() batches both the extractions and the
// table normalizations across the whole fleet with one shared field
// inversion each (Montgomery's trick) — the fleet-enrollment fast path.
//
// Entries are handed out as shared_ptr<const Entry>: the concurrent
// broker's workers all verify against one shared cache, and a hit must
// outlive any LRU eviction another worker triggers mid-verify. The hit
// path stays allocation-free (one refcount bump under the cache's mutex).
//
// Bounded LRU, same discipline as SessionStore: public data only, so
// eviction is purely a memory concern (no wiping needed).
#pragma once

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "core/session_store.hpp"
#include "ec/verify_table.hpp"
#include "ecqv/scheme.hpp"

namespace ecqv::proto {

class PeerKeyCache {
 public:
  struct Entry {
    cert::Certificate certificate;  // exact certificate the key came from
    ec::AffinePoint public_key;     // Q_U per eq. (1)
    ec::VerifyTable table;          // cached odd-multiple wNAF table of Q_U
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  struct Stats {
    StatCounter hits = 0;
    StatCounter misses = 0;  // extractions performed (including replacements)
    StatCounter evictions = 0;
  };

  explicit PeerKeyCache(std::size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Returns the cached entry for `certificate`, extracting the public key
  /// and building the verification table on miss (or when the presented
  /// certificate differs from the cached one). The returned pointer keeps
  /// the entry alive independent of later evictions or replacements.
  Result<EntryPtr> get(const cert::Certificate& certificate, const ec::AffinePoint& q_ca);

  /// Batch prewarm: extracts every certificate's public key and builds all
  /// verification tables sharing one field inversion per phase. Returns the
  /// number of certificates successfully cached (invalid ones are skipped).
  std::size_t prewarm(const std::vector<cert::Certificate>& certificates,
                      const ec::AffinePoint& q_ca);

  /// Pure lookup by subject id: the cached entry for an ENROLLED peer, or
  /// null when the peer has never been cached (never extracts — the batch
  /// verification verbs treat unenrolled peers as invalid rather than
  /// triggering certificate work they do not have the bytes for). A hit
  /// refreshes the LRU position like get().
  [[nodiscard]] EntryPtr peek(const cert::DeviceId& subject);

  [[nodiscard]] std::size_t size() const {
    MutexLock lock(mutex_);
    return index_.size();
  }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void clear() {
    MutexLock lock(mutex_);
    lru_.clear();
    index_.clear();
  }

 private:
  using LruList = std::list<std::pair<cert::DeviceId, EntryPtr>>;
  void locked_insert(const cert::DeviceId& subject, EntryPtr entry) REQUIRES(mutex_);

  std::size_t capacity_;
  mutable Mutex mutex_;
  LruList lru_ GUARDED_BY(mutex_);  // front = most recently used
  std::unordered_map<cert::DeviceId, LruList::iterator, DeviceIdHash> index_ GUARDED_BY(mutex_);
  Stats stats_;
};

}  // namespace ecqv::proto
