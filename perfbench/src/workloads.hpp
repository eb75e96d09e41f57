// The three workloads: connect (first-contact handshakes, closed loop),
// stream (records over established sessions, closed loop) and fleet
// (seeded Poisson events, open loop, worker-pool server). See
// perfbench/README.md for why each exists and which layers it loads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fabric.hpp"

namespace perfbench {

/// What one timed run of a workload did.
struct RunStats {
  std::uint64_t units = 0;       // work units started (sessions, bursts, events)
  std::uint64_t wait_ns = 0;     // device-side thread blocked waiting (open loop)
};

/// How a workload reads its rates and p50s: windows of a fixed number of
/// completions (about half a second each on this host; every window's p50
/// has at least ten samples beyond it), and the quantile of the windows'
/// rates and p50s it reports. perfbench/STEADINESS.md shows the choice.
struct WindowStat {
  std::size_t handshakes = 0;  // completions per handshake window
  std::size_t records = 0;     // completions per record window
  double rate_quantile = 0;    // of the window rates
  double latency_quantile = 0; // of the window p50s
};

/// One heap reading taken during a run (connect measures its slope).
struct HeapProbe {
  std::uint64_t at = 0;
  std::size_t heap = 0;
  std::size_t sessions = 0;
  bool cache_full = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the fabric, provisions credentials and warms up.
  virtual void setup() = 0;
  /// Runs until `deadline` or until `max_units` units have started; work
  /// in flight at the end is left for drain().
  virtual RunStats run(std::uint64_t deadline, std::uint64_t max_units) = 0;
  /// Finishes everything in flight without starting new work. False when
  /// `timeout_ns` passes first.
  virtual bool drain(std::uint64_t timeout_ns) = 0;
  /// Exact-count phase: `n` handshakes one at a time, then a fixed amount
  /// of record traffic, each to quiescence. Returns the records moved.
  virtual void count_handshakes(std::size_t n) = 0;
  virtual std::uint64_t count_records() = 0;
  /// Heap growth per session the server holds (see README).
  [[nodiscard]] virtual double server_bytes_per_session() const = 0;
  /// In-flight bound of the closed loop (handshakes, or records for
  /// stream); 0 for the open loop.
  [[nodiscard]] virtual std::size_t in_flight_bound() const = 0;
  [[nodiscard]] virtual bool open_loop() const { return false; }
  [[nodiscard]] virtual WindowStat windows() const = 0;
  /// Threads that run fabric work during a timed phase.
  [[nodiscard]] virtual std::size_t threads() const { return 1; }

  [[nodiscard]] Fabric& fabric() { return *fabric_; }
  [[nodiscard]] SampleLog& lateness() { return lateness_; }
  void set_heap_probes(bool on) { probe_heap_ = on; }

 protected:
  std::unique_ptr<Fabric> fabric_;
  SampleLog lateness_;  // open loop: how late the generator handled each event
  bool probe_heap_ = false;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double seconds);

}  // namespace perfbench
