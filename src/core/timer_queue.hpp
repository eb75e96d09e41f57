// Virtual-time timer wheel for the session fabric's reliability engine.
//
// The fabric prices everything in simulated milliseconds (PR 5's
// Transport::now_ms() virtual clock); recovery must run on the SAME clock
// or lossy timelines stop being deterministic and priceable. A TimerQueue
// is a min-heap of (due_ms, peer, kind) entries the broker arms when it
// puts a message on the wire that needs an answer — the caller expires it
// with the transport clock and acts on whatever came due.
//
// Cancellation is lazy, naviserver-style: every armed entry carries the
// generation stamp of the reliability state it belongs to, and an expired
// entry whose generation no longer matches the live state is simply
// skipped. Arming is O(log n), cancel is O(1) (bump the generation), and
// the heap never needs random-access deletion.
//
// Thread safety: all operations serialize on one Mutex.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "common/sync.hpp"
#include "ecqv/certificate.hpp"

namespace ecqv::proto {

class TimerQueue {
 public:
  /// What the armed timer guards. The broker switches on this at expiry.
  enum class Kind : std::uint8_t {
    kHandshake,  // an unanswered handshake message (A1..B2 retransmission)
    kRatchet,    // an unacked RK1 epoch-ratchet announcement
    kFinished,   // a completed handshake's cached final reply (replay TTL)
  };

  struct Entry {
    double due_ms = 0.0;
    cert::DeviceId peer;
    Kind kind = Kind::kHandshake;
    /// Generation stamp of the reliability state this timer belongs to; an
    /// expired entry is acted on only while the live state still carries
    /// the same stamp (lazy cancellation).
    std::uint64_t gen = 0;
  };

  /// Arms one timer. Entries for the same instant expire in arming order.
  void schedule(double due_ms, const cert::DeviceId& peer, Kind kind, std::uint64_t gen);

  /// Pops every entry due at or before `now_ms`, in due order.
  std::vector<Entry> expire(double now_ms);

  /// Earliest armed due time (nullopt when empty). Lazily cancelled
  /// entries still count until they expire — callers use this to advance
  /// a virtual clock, where overshooting onto a dead entry is harmless.
  [[nodiscard]] std::optional<double> next_due_ms() const;

  [[nodiscard]] std::size_t size() const;

 private:
  struct Armed {
    Entry entry;
    std::uint64_t seq = 0;  // FIFO tie-break for equal due times
  };
  struct Later {
    bool operator()(const Armed& a, const Armed& b) const {
      if (a.entry.due_ms != b.entry.due_ms) return a.entry.due_ms > b.entry.due_ms;
      return a.seq > b.seq;
    }
  };

  mutable Mutex mutex_;
  std::priority_queue<Armed, std::vector<Armed>, Later> heap_ GUARDED_BY(mutex_);
  std::uint64_t seq_ GUARDED_BY(mutex_) = 0;
};

}  // namespace ecqv::proto
