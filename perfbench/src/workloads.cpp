#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

constexpr std::uint64_t kMs = 1000000;

/// Quiescence loops give up after this long without finishing: a stuck
/// fabric is a failed run, not a hang.
constexpr std::uint64_t kQuiesceTimeout = 20000 * kMs;

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

// ------------------------------------------------------------------ connect
// Closed loop, one thread, inline server. Each device is fresh: one
// first-contact handshake, four records under a 2-record epoch budget (two
// piggybacked ratchets), then its broker retires and the server keeps the
// session. At most kWindow handshakes are in flight, so a round stays far
// below the 50 ms initial retransmission timeout.
class ConnectWorkload final : public Workload {
 public:
  static constexpr std::size_t kWindow = 16;
  static constexpr std::size_t kRecords = 4;
  static constexpr std::uint64_t kBudget = 2;
  static constexpr std::size_t kWarmup = 256;
  static constexpr std::size_t kCountDevices = 64;
  /// Devices provisioned per second of run: headroom over the ~1,100
  /// sessions/s of this host's fastest windows. A faster program wraps
  /// around to the oldest devices, which the server's 4,096-entry peer
  /// cache evicted long before, so every handshake stays a first contact;
  /// only the store stops growing, and the heap slope ends at the wrap.
  static constexpr double kPoolPerSecond = 1300;
  /// Heap probe interval of the timed run.
  static constexpr std::uint64_t kProbeEveryNs = 250 * kMs;

  ConnectWorkload(std::uint64_t seed, double seconds)
      : seed_(seed),
        pool_(kWarmup + kCountDevices + static_cast<std::size_t>(seconds * kPoolPerSecond)) {
    probes_.reserve(static_cast<std::size_t>(seconds * 1e9 / kProbeEveryNs) + 2);
  }

  void setup() override {
    fabric_ = std::make_unique<Fabric>(FabricConfig{seed_, pool_, 0, kBudget});
    // Room for every sample until the pool wraps, where the heap probes
    // stop: the logs never grow while the heap slope is measured.
    fabric_->handshakes().reserve(pool_);
    fabric_->records().reserve(kRecords * pool_);
    run(UINT64_MAX, kWarmup);
    require(drain(kQuiesceTimeout), "connect warm-up did not settle");
  }

  RunStats run(std::uint64_t deadline, std::uint64_t max_units) override {
    Fabric& f = *fabric_;
    RunStats stats;
    std::uint64_t next_probe = 0;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= deadline || stats.units >= max_units) break;
      if (probe_heap_ && !wrapped_ && now >= next_probe) {
        probe(now);
        next_probe = now + kProbeEveryNs;
      }
      while (in_flight_.size() < kWindow && stats.units < max_units) {
        if (next_ >= pool_ - kCountDevices) {
          next_ = 0;
          wrapped_ = true;
        }
        Device& d = f.device(static_cast<std::uint32_t>(next_++));
        f.open_device(d);
        f.start_handshake(d, now_ns());
        in_flight_.push_back(d.index);
        ++stats.units;
      }
      step();
    }
    if (probe_heap_ && !wrapped_) probe(now_ns());
    return stats;
  }

  bool drain(std::uint64_t timeout_ns) override {
    const std::uint64_t deadline = now_ns() + timeout_ns;
    while (!in_flight_.empty() || fabric_->outstanding() != 0) {
      if (now_ns() > deadline) return false;
      step();
    }
    return true;
  }

  void count_handshakes(std::size_t n) override {
    Fabric& f = *fabric_;
    for (std::size_t i = 0; i < n && i < kCountDevices; ++i) {
      Device& d = f.device(static_cast<std::uint32_t>(pool_ - kCountDevices + i));
      f.open_device(d);
      f.start_handshake(d, now_ns());
      const std::uint64_t deadline = now_ns() + kQuiesceTimeout;
      while (d.state == Device::State::kHandshake && now_ns() < deadline) {
        f.step_server();
        if (!f.pump_device(d)) f.poll_device_timers(d);
      }
      counted_.push_back(d.index);
    }
  }

  std::uint64_t count_records() override {
    Fabric& f = *fabric_;
    const std::uint64_t before = f.tally().up_done_all;
    for (const std::uint32_t index : counted_) {
      Device& d = f.device(index);
      f.send_records(d, kRecords, now_ns());
      const std::uint64_t deadline = now_ns() + kQuiesceTimeout;
      while (f.outstanding() != 0 && now_ns() < deadline) f.step_server();
      f.close_device(d);
    }
    counted_.clear();
    return f.tally().up_done_all - before;
  }

  [[nodiscard]] double server_bytes_per_session() const override {
    // Least-squares slope of heap over sessions held, fitted only to probes
    // taken once the server's peer cache is full and the 4 s replay cache
    // of completed handshakes has reached its steady size, so neither
    // bounded structure is counted. A run too short for that falls back to
    // every probe after the cache filled.
    if (probes_.empty()) return 0;
    const std::uint64_t settle =
        probes_.front().at +
        static_cast<std::uint64_t>(ecqv::proto::ReliabilityConfig{}.finished_ttl_ms * kMs) +
        500 * kMs;
    std::vector<const HeapProbe*> fit;
    for (const HeapProbe& p : probes_)
      if (p.cache_full && p.at >= settle) fit.push_back(&p);
    if (fit.size() < 3)
      for (const HeapProbe& p : probes_)
        if (p.cache_full && p.at < settle) fit.push_back(&p);
    if (fit.size() < 2) return 0;
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const HeapProbe* p : fit) {
      const auto x = static_cast<double>(p->sessions);
      const auto y = static_cast<double>(p->heap);
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
    const auto n = static_cast<double>(fit.size());
    const double var = sxx - sx * sx / n;
    return var > 0 ? (sxy - sx * sy / n) / var : 0;
  }

  [[nodiscard]] std::size_t in_flight_bound() const override { return kWindow; }
  /// The slowest window: this host's contended state is a floor nearly
  /// every run reaches, while how long and how fast its quiet phases run
  /// varies from run to run.
  [[nodiscard]] WindowStat windows() const override { return {512, 2048, 0.0, 1.0}; }

 private:
  void step() {
    Fabric& f = *fabric_;
    f.step_server();
    std::size_t kept = 0;
    for (const std::uint32_t index : in_flight_) {
      Device& d = f.device(index);
      if (f.pump_device(d)) {
        f.send_records(d, kRecords, now_ns());
        f.close_device(d);
        continue;
      }
      f.poll_device_timers(d);
      in_flight_[kept++] = index;
    }
    in_flight_.resize(kept);
  }

  void probe(std::uint64_t at) {
    auto& server = fabric_->server().broker();
    probes_.push_back({at, heap_bytes(), server.store().active_sessions(),
                       server.peer_cache().size() >= ecqv::proto::BrokerConfig{}.peer_cache_capacity});
  }

  std::uint64_t seed_;
  std::size_t pool_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
  std::vector<std::uint32_t> in_flight_;
  std::vector<std::uint32_t> counted_;
  std::vector<HeapProbe> probes_;
};

// ------------------------------------------------------------------- stream
// Closed loop, one thread, inline server. 64 sessions established in
// set-up; each device sends bursts of 8 records and waits for the server's
// 64-byte command (sent with ConcurrentSessionBroker::send_data) before
// the next. With a 256-record epoch budget and the default 8 epochs a
// session carries 2,304 records (exactly 256 burst+command cycles) and
// then the device runs a full STS handshake. Set-up staggers the devices
// through their session lives so those handshakes arrive evenly.
class StreamWorkload final : public Workload {
 public:
  static constexpr std::size_t kDevices = 64;
  static constexpr std::size_t kBurst = 8;
  static constexpr std::uint64_t kBudget = 256;
  static constexpr std::size_t kWindow = 16;
  static constexpr std::uint64_t kCyclesPerSession = 256;
  static constexpr std::uint64_t kCountCycles = 3;  // 24 records each: whole size rotations

  explicit StreamWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    fabric_ = std::make_unique<Fabric>(FabricConfig{seed_, kDevices, 0, kBudget});
    Fabric& f = *fabric_;
    f.set_burst(kBurst);
    for (Device& d : f.devices()) f.open_device(d);
    f.prewarm_caches();
    f.handshakes().reserve(kDevices);  // not counted as session memory
    const std::size_t heap_before = heap_bytes();
    establish();
    bytes_per_session_ = (static_cast<double>(heap_bytes()) - static_cast<double>(heap_before)) /
                         static_cast<double>(kDevices);
    // Stagger: device k starts the timed run k/64 of the way through its
    // session's 256 cycles.
    std::vector<std::uint64_t> caps(kDevices);
    for (std::size_t k = 0; k < kDevices; ++k) caps[k] = k * kCyclesPerSession / kDevices;
    loop(UINT64_MAX, UINT64_MAX, &caps);
  }

  RunStats run(std::uint64_t deadline, std::uint64_t max_units) override {
    return loop(deadline, max_units, nullptr);
  }

  bool drain(std::uint64_t timeout_ns) override {
    const std::uint64_t deadline = now_ns() + timeout_ns;
    std::vector<std::uint64_t> caps(kDevices, 0);
    for (;;) {
      bool busy = fabric_->outstanding() != 0;
      for (const Device& d : fabric_->devices())
        busy = busy || d.state == Device::State::kHandshake ||
               (d.state == Device::State::kAwaitCommand && !d.command_arrived);
      if (!busy) break;
      if (now_ns() > deadline) return false;
      step(caps.data());
    }
    settle_commands();
    return true;
  }

  void count_handshakes(std::size_t n) override {
    Fabric& f = *fabric_;
    for (std::size_t i = 0; i < n; ++i) {
      Device& d = f.device(static_cast<std::uint32_t>(i % kDevices));
      f.start_handshake(d, now_ns());
      const std::uint64_t deadline = now_ns() + kQuiesceTimeout;
      while (d.state == Device::State::kHandshake && now_ns() < deadline) {
        f.step_server();
        if (!f.pump_device(d)) f.poll_device_timers(d);
      }
    }
  }

  std::uint64_t count_records() override {
    Fabric& f = *fabric_;
    const std::uint64_t before = f.tally().up_done_all + f.tally().down_done_all;
    std::vector<std::uint64_t> caps(kDevices);
    for (std::size_t k = 0; k < kDevices; ++k) caps[k] = f.device(static_cast<std::uint32_t>(k)).cycles + kCountCycles;
    loop(UINT64_MAX, UINT64_MAX, &caps);
    return f.tally().up_done_all + f.tally().down_done_all - before;
  }

  [[nodiscard]] double server_bytes_per_session() const override { return bytes_per_session_; }
  [[nodiscard]] std::size_t in_flight_bound() const override { return kDevices * kBurst; }
  /// The slowest window, as in connect.
  [[nodiscard]] WindowStat windows() const override { return {32, 65536, 0.0, 1.0}; }

 private:
  void establish() {
    Fabric& f = *fabric_;
    std::size_t next = 0, done = 0;
    std::vector<std::uint32_t> in_flight;
    const std::uint64_t deadline = now_ns() + kQuiesceTimeout;
    while (done < kDevices) {
      require(now_ns() < deadline, "stream set-up handshakes did not finish");
      while (in_flight.size() < kWindow && next < kDevices) {
        Device& d = f.device(static_cast<std::uint32_t>(next++));
        f.start_handshake(d, now_ns());
        in_flight.push_back(d.index);
      }
      f.step_server();
      std::size_t kept = 0;
      for (const std::uint32_t index : in_flight) {
        Device& d = f.device(index);
        if (f.pump_device(d)) {
          ++done;
          continue;
        }
        f.poll_device_timers(d);
        in_flight[kept++] = index;
      }
      in_flight.resize(kept);
    }
  }

  /// A device whose command arrived is ready for its next burst.
  static void settle(Device& d) {
    if (d.state == Device::State::kAwaitCommand && d.command_arrived) {
      d.state = Device::State::kIdle;
      d.command_arrived = false;
      ++d.cycles;
    }
  }
  void settle_commands() {
    for (Device& d : fabric_->devices()) settle(d);
  }

  /// One closed-loop round: idle devices start their next burst (or a full
  /// handshake once the session is spent), the server opens what arrived,
  /// owed commands go out, devices take their replies. `caps` bounds each
  /// device's cycles (nullptr: unbounded).
  void step(const std::uint64_t* caps, RunStats* stats = nullptr, std::uint64_t max_units = 0) {
    Fabric& f = *fabric_;
    for (Device& d : f.devices()) {
      settle(d);
      if (d.state != Device::State::kIdle) continue;
      if (caps != nullptr && d.cycles >= caps[d.index]) continue;
      if (stats != nullptr && stats->units >= max_units) continue;
      if (!f.session_ready(d)) {
        f.start_handshake(d, now_ns());
        continue;
      }
      f.send_records(d, kBurst, now_ns());
      d.state = Device::State::kAwaitCommand;
      if (stats != nullptr) ++stats->units;
    }
    f.step_server();
    for (const std::uint32_t index : f.take_owed_commands()) f.send_command(f.device(index));
    for (Device& d : f.devices()) {
      if (d.state == Device::State::kIdle) continue;
      if (!f.pump_device(d) && d.state == Device::State::kHandshake) f.poll_device_timers(d);
    }
  }

  RunStats loop(std::uint64_t deadline, std::uint64_t max_units,
                const std::vector<std::uint64_t>* caps) {
    RunStats stats;
    const std::uint64_t guard = now_ns() + kQuiesceTimeout;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= deadline || stats.units >= max_units) break;
      if (caps != nullptr) {
        bool reached = true;
        for (const Device& d : fabric_->devices())
          reached = reached && d.cycles >= (*caps)[d.index] && d.state == Device::State::kIdle;
        if (reached) break;
        require(now < guard, "stream cycles did not finish");
      }
      step(caps != nullptr ? caps->data() : nullptr, &stats, max_units);
    }
    return stats;
  }

  std::uint64_t seed_;
  double bytes_per_session_ = 0;
};

// -------------------------------------------------------------------- fleet
// Open loop: seeded Poisson events at kRate, each for a uniformly drawn
// device, 1 in 10 a full re-handshake and 9 in 10 a burst of 4 records.
// Each device runs its events one at a time; latency counts from the due
// time. Four threads: this generator, the server's BrokerDriver thread and
// its 2 workers. The fleet is far smaller than the server's 4,096-entry
// peer cache and every first handshake runs in set-up, so both caches hit.
class FleetWorkload final : public Workload {
 public:
  static constexpr std::size_t kDevices = 512;
  static constexpr std::size_t kWorkers = 2;
  static constexpr std::uint64_t kBudget = 64;
  static constexpr double kRate = 2000;  // events per second
  static constexpr std::size_t kBurst = 4;
  static constexpr std::size_t kWindow = 32;
  static constexpr std::uint64_t kWarmupNs = 300 * kMs;
  /// Count phase: 3 bursts on each of 16 devices, 12 records each, so
  /// every device sends whole size rotations.
  static constexpr std::size_t kCountDevices = 16;
  static constexpr std::size_t kCountBursts = 3;

  explicit FleetWorkload(std::uint64_t seed) : seed_(seed), queues_(kDevices) {
    busy_.reserve(kDevices);  // a device is busy at most once
  }

  ~FleetWorkload() override {
    if (fabric_ != nullptr) fabric_->stop_server_thread();
  }

  void setup() override {
    fabric_ = std::make_unique<Fabric>(FabricConfig{seed_, kDevices, kWorkers, kBudget});
    Fabric& f = *fabric_;
    for (Device& d : f.devices()) f.open_device(d);
    f.prewarm_caches();
    f.start_server_thread();
    f.handshakes().reserve(kDevices);  // not counted as session memory
    const std::size_t heap_before = heap_bytes();
    establish();
    bytes_per_session_ = (static_cast<double>(heap_bytes()) - static_cast<double>(heap_before)) /
                         static_cast<double>(kDevices);
    arrivals_ = SplitMix{seed_ ^ 0xF1EE7ull};
    events_ = arrivals_.next() % 10;
    run(now_ns() + kWarmupNs, UINT64_MAX);
    require(drain(kQuiesceTimeout), "fleet warm-up did not settle");
  }

  RunStats run(std::uint64_t deadline, std::uint64_t max_units) override {
    Fabric& f = *fabric_;
    RunStats stats;
    std::uint64_t next_due = now_ns() + gap();
    for (;;) {
      std::uint64_t now = now_ns();
      if (now >= deadline || stats.units >= max_units) break;
      while (next_due <= now && stats.units < max_units) {
        lateness_.add(now, now - next_due);
        const auto index = static_cast<std::uint32_t>(arrivals_.next() % kDevices);
        // Exactly every tenth event re-handshakes, so the handshake rate
        // carries the arrival process's noise only, not a second coin.
        const bool handshake = ++events_ % 10 == 0;
        queues_[index].push_back({next_due, handshake});
        ++stats.units;
        if (f.device(index).state == Device::State::kIdle) start_next(f.device(index));
        next_due += gap();
      }
      service();
      now = now_ns();
      if (next_due > now) {
        Scope span(SpanName::kLoadgenWait);
        f.wait_client(std::min<std::uint64_t>(next_due - now, 2 * kMs));
        stats.wait_ns += now_ns() - now;
      }
    }
    return stats;
  }

  bool drain(std::uint64_t timeout_ns) override {
    Fabric& f = *fabric_;
    const std::uint64_t deadline = now_ns() + timeout_ns;
    for (;;) {
      bool queued = !busy_.empty();
      for (const auto& q : queues_) queued = queued || !q.empty();
      if (!queued && f.outstanding() == 0) return true;
      if (now_ns() > deadline) return false;
      service();
      f.wait_client(200000);
    }
  }

  void count_handshakes(std::size_t n) override {
    Fabric& f = *fabric_;
    for (std::size_t i = 0; i < n; ++i) {
      Device& d = f.device(static_cast<std::uint32_t>(i % kDevices));
      f.start_handshake(d, now_ns());
      const std::uint64_t deadline = now_ns() + kQuiesceTimeout;
      while (d.state == Device::State::kHandshake && now_ns() < deadline) {
        f.wait_client(kMs);
        if (!f.pump_device(d)) f.poll_device_timers(d);
      }
    }
  }

  std::uint64_t count_records() override {
    Fabric& f = *fabric_;
    const std::uint64_t before = f.tally().up_done_all;
    for (std::size_t i = 0; i < kCountDevices; ++i)
      for (std::size_t b = 0; b < kCountBursts; ++b)
        f.send_records(f.device(static_cast<std::uint32_t>(i)), kBurst, now_ns());
    const std::uint64_t deadline = now_ns() + kQuiesceTimeout;
    while (f.outstanding() != 0 && now_ns() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    return f.tally().up_done_all - before;
  }

  [[nodiscard]] double server_bytes_per_session() const override { return bytes_per_session_; }
  [[nodiscard]] std::size_t in_flight_bound() const override { return 0; }
  /// Rates follow the offered load, so the median window; p50s are
  /// wake-up and hand-off delays that interference only lengthens, so the
  /// fast-side quartile.
  [[nodiscard]] WindowStat windows() const override { return {128, 4096, 0.5, 0.25}; }
  [[nodiscard]] bool open_loop() const override { return true; }
  [[nodiscard]] std::size_t threads() const override { return 2 + kWorkers; }

 private:
  struct Event {
    std::uint64_t due = 0;
    bool handshake = false;
  };

  std::uint64_t gap() {
    return static_cast<std::uint64_t>(-std::log1p(-arrivals_.uniform()) / kRate * 1e9);
  }

  /// Starts queued events on an idle device until one leaves it busy.
  void start_next(Device& d) {
    Fabric& f = *fabric_;
    auto& queue = queues_[d.index];
    while (d.state == Device::State::kIdle && !queue.empty()) {
      const Event event = queue.front();
      if (event.handshake || !f.session_ready(d)) {
        // A spent session (never expected at this budget) re-handshakes
        // before the burst that found it spent.
        if (event.handshake) queue.pop_front();
        f.start_handshake(d, event.due);
        busy_.push_back(d.index);
        return;
      }
      queue.pop_front();
      f.send_records(d, kBurst, event.due);
    }
  }

  /// Replies for devices mid-handshake; a finished device starts its next
  /// queued event.
  void service() {
    Fabric& f = *fabric_;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < busy_.size(); ++i) {
      Device& d = f.device(busy_[i]);
      if (f.pump_device(d)) {
        start_next(d);
        continue;
      }
      f.poll_device_timers(d);
      busy_[kept++] = busy_[i];
    }
    busy_.resize(kept);
    // start_next may have appended devices that began a new handshake.
  }

  void establish() {
    Fabric& f = *fabric_;
    std::size_t next = 0, done = 0;
    const std::uint64_t deadline = now_ns() + kQuiesceTimeout;
    while (done < kDevices) {
      require(now_ns() < deadline, "fleet set-up handshakes did not finish");
      while (busy_.size() < kWindow && next < kDevices) {
        Device& d = f.device(static_cast<std::uint32_t>(next++));
        f.start_handshake(d, now_ns());
        busy_.push_back(d.index);
      }
      f.wait_client(kMs);
      std::size_t kept = 0;
      for (std::size_t i = 0; i < busy_.size(); ++i) {
        Device& d = f.device(busy_[i]);
        if (f.pump_device(d)) {
          ++done;
          continue;
        }
        f.poll_device_timers(d);
        busy_[kept++] = busy_[i];
      }
      busy_.resize(kept);
    }
  }

  std::uint64_t seed_;
  SplitMix arrivals_{0};
  std::uint64_t events_ = 0;
  std::vector<std::deque<Event>> queues_;
  std::vector<std::uint32_t> busy_;
  double bytes_per_session_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double seconds) {
  if (name == "connect") return std::make_unique<ConnectWorkload>(seed, seconds);
  if (name == "stream") return std::make_unique<StreamWorkload>(seed);
  if (name == "fleet") return std::make_unique<FleetWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
