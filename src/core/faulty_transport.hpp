// Deterministic fault injection for any Transport.
//
// Every robustness question the fabric faces — does a handshake survive a
// lost B1? does a duplicated RK1 double-advance an epoch? — used to be
// answered by an ad-hoc `drop_frame` lambda wired into one specific CAN-FD
// config. FaultyTransport makes fault injection a first-class decorator:
// it wraps ANY Transport (ideal link or CAN-FD stack) and perturbs the
// datagram stream according to a seeded probabilistic model plus an exact
// per-datagram fault plan, so a failing run replays bit-identically from
// its seed.
//
// Fault semantics (applied at send(), one fault per datagram):
//   * drop      — the datagram silently never reaches the inner transport
//                 (send still returns kOk: loss is the receiver's problem);
//   * duplicate — forwarded twice back-to-back;
//   * reorder   — held back and released after the NEXT datagram passes
//                 (adjacent swap; flushed by receive()/idle() so nothing is
//                 held forever);
//   * delay     — held until the virtual clock reaches send-time +
//                 `delay_ms` (released lazily by receive()/idle());
//   * corrupt   — one random payload bit flipped before forwarding (MACs
//                 and signatures catch it downstream; empty payloads
//                 degrade to drop).
//
// The decorator keeps its own virtual clock floor so delay faults work
// over the ideal link (whose clock is pinned at 0): now_ms() is
// max(inner clock, local floor), advanced by advance_to() —
// the same clock the broker's retransmission timers run on.
//
// Thread safety: all mutable state serializes on one Mutex; the inner
// transport handles its own locking.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "core/transport.hpp"

namespace ecqv::can {
class TimelineRecorder;  // src/canfd/timeline.hpp (included by the .cpp)
struct CanFdFrame;
}  // namespace ecqv::can

namespace ecqv::proto {

class FaultyTransport final : public Transport {
 public:
  enum class Fault : std::uint8_t {
    kNone,
    kDrop,
    kDuplicate,
    kReorder,
    kDelay,
    kCorrupt,
  };

  struct Config {
    /// Seed of the fault stream. Same seed + same send sequence = same
    /// faults, independent of wall time and thread scheduling.
    std::uint64_t seed = 1;

    // Per-datagram fault probabilities, evaluated in this order from one
    // uniform draw (so p_drop=0.05, p_duplicate=0.05 means 5% drop, 5%
    // duplicate, 90% clean). Sum must stay <= 1.
    double p_drop = 0.0;
    double p_duplicate = 0.0;
    double p_reorder = 0.0;
    double p_delay = 0.0;
    double p_corrupt = 0.0;

    /// Virtual-time penalty applied by delay faults.
    double delay_ms = 5.0;

    /// Cap on simultaneously held datagrams (reorder + delay). When full,
    /// further reorder/delay faults degrade to clean forwarding and count
    /// as `held_overflow` — bounded memory under any fault storm.
    std::size_t max_held = 64;

    /// Optional timeline sink: drops emit kDrop events, every other fault
    /// emits kFault with the fault name as label.
    can::TimelineRecorder* recorder = nullptr;

    /// Exact fault plan: datagram serial number (0-based count of send()
    /// calls) -> forced fault. Overrides the probabilistic model, so a
    /// test can script "kill exactly the third message" deterministically.
    std::unordered_map<std::uint64_t, Fault> plan;
  };

  struct Stats {
    StatCounter sent = 0;        // send() calls observed
    StatCounter forwarded = 0;   // datagrams handed to the inner transport
    StatCounter dropped = 0;
    StatCounter duplicated = 0;
    StatCounter reordered = 0;
    StatCounter delayed = 0;
    StatCounter corrupted = 0;
    StatCounter held_overflow = 0;  // reorder/delay degraded to clean
  };

  FaultyTransport(Transport& inner, Config config);

  void attach(const cert::DeviceId& endpoint) override;
  Status send(const cert::DeviceId& src, const cert::DeviceId& dst,
              const Message& message) override;
  std::optional<Datagram> receive(const cert::DeviceId& dst) override;
  [[nodiscard]] bool idle() override;

  [[nodiscard]] double now_ms() override;
  void charge(const cert::DeviceId& endpoint, double ms) override;
  [[nodiscard]] double endpoint_time_ms(const cert::DeviceId& endpoint) override;

  /// Swaps the probabilistic fault model mid-run (the plan, seed and
  /// serial counter are untouched). Scenarios use this to, e.g., hand-
  /// shake over a clean link and then turn loss on for the data plane.
  void set_fault_probabilities(double drop, double duplicate, double reorder, double delay,
                               double corrupt);

  /// Advances the local clock floor and releases due delayed datagrams.
  /// Monotonic: moving backwards is a no-op.
  void advance_to(double t_ms) override;

  /// Earliest instant a held datagram becomes releasable (delay faults
  /// only — reorder holds release on traffic, not time). nullopt when no
  /// delayed datagram is pending. settle() advances the clock here when
  /// the link stalls.
  [[nodiscard]] std::optional<double> next_release_ms() override;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] Transport& inner() { return inner_; }

  /// A seeded Bernoulli frame-loss predicate for CanFdTransport's
  /// `drop_frame` hook: drops each frame with probability `p`,
  /// deterministically from `seed`. Replaces the hand-rolled RNG lambdas
  /// the benches used to wire in.
  static std::function<bool(const can::CanFdFrame&)> frame_drop_plan(std::uint64_t seed,
                                                                     double p);

 private:
  struct Held {
    Datagram datagram;
    double due_ms = 0.0;  // 0 for reorder holds (released by traffic)
    bool reorder = false;
  };

  Fault pick_fault() REQUIRES(mutex_);
  /// Forwards due holds into the inner transport; takes the lock itself.
  void release_ready() EXCLUDES(mutex_);
  void emit_event(Fault fault, const Datagram& d) REQUIRES(mutex_);
  /// Calls into the inner transport (which locks for itself) — never under
  /// our own mutex, or a recorder/inner callback could deadlock back in.
  Status forward(const Datagram& d) EXCLUDES(mutex_);

  Transport& inner_;
  Config config_;
  Mutex mutex_;
  std::uint64_t rng_state_ GUARDED_BY(mutex_);
  std::uint64_t serial_ GUARDED_BY(mutex_) = 0;
  double clock_floor_ GUARDED_BY(mutex_) = 0.0;
  std::vector<Held> held_ GUARDED_BY(mutex_);
  Stats stats_;
};

}  // namespace ecqv::proto
