// The benchmark's world: one certificate authority, one socket-backed
// server configured like fleet_session_server, one client UDP socket
// carrying every device, the provisioned devices themselves, and the
// checks that every record and handshake came out right.
//
// The server path is the one fleet_session_server runs:
// proto::ConcurrentSessionBroker behind net::BrokerDriver over a
// net::UdpTransport (wrapped in TimedTransport for accounting). Devices
// are proto::SessionBrokers driven by the benchmark over one shared
// client UdpTransport; the library sees only the generated inputs.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/concurrent_broker.hpp"
#include "core/credentials.hpp"
#include "net/event_loop.hpp"
#include "rng/test_rng.hpp"
#include "trace.hpp"

namespace perfbench {

/// Logical wall clock handed to the brokers for session bookkeeping (the
/// retransmission engine runs on the transports' real clock).
inline constexpr std::uint64_t kNow = 1700000000;
inline constexpr std::uint64_t kLifetime = 30 * 86400;

struct FabricConfig {
  std::uint64_t seed = 1;
  std::size_t devices = 0;       // provisioned up front
  std::size_t workers = 0;       // server worker threads (0 = inline dispatch)
  std::uint64_t epoch_budget = 0;  // RekeyPolicy::max_records, both ends
};

/// splitmix64: the benchmark's own seeded generator for inputs (payloads,
/// arrivals); the library's randomness comes from seeded TestRngs.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// A TestRng that can be re-seeded between phases, so the exact-count
/// phase draws the same randomness whatever ran before it.
class SeededRng final : public ecqv::rng::Rng {
 public:
  explicit SeededRng(std::uint64_t seed) { inner_.emplace(seed); }
  void fill(ecqv::ByteSpan out) override {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_->fill(out);
  }
  void reseed(std::uint64_t seed) {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_.emplace(seed);
  }

 private:
  std::mutex mutex_;
  std::optional<ecqv::rng::TestRng> inner_;
};

enum class Direction : std::uint8_t { kUp = 0, kDown = 1 };

/// Record payloads: device, direction and sequence number in a 9-byte
/// header, then bytes drawn from the seed. Upstream sizes rotate through
/// {16, 64, 1024} from a seeded offset per device; downstream records are
/// the fixed 64-byte command.
std::size_t payload_size(std::uint64_t seed, std::uint32_t device, Direction dir,
                         std::uint32_t seq);
ecqv::Bytes make_payload(std::uint64_t seed, std::uint32_t device, Direction dir,
                         std::uint32_t seq);

/// One latency sample: completion time and latency, both in ns.
struct Sample {
  std::uint64_t at = 0;
  std::uint64_t latency = 0;
};

class SampleLog {
 public:
  void add(std::uint64_t at, std::uint64_t latency) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back({at, latency});
  }
  /// Allocates room for `n` samples, so a heap reading taken while the log
  /// fills up to that size does not count it growing.
  void reserve(std::size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.reserve(n);
  }
  /// Samples completed in [t0, t1).
  [[nodiscard]] std::vector<Sample> between(std::uint64_t t0, std::uint64_t t1) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Sample> samples_;
};

struct Device {
  enum class State : std::uint8_t { kIdle, kHandshake, kAwaitCommand };

  std::uint32_t index = 0;
  ecqv::cert::DeviceId id;
  ecqv::proto::Credentials creds;
  std::unique_ptr<SeededRng> rng;
  std::unique_ptr<ecqv::proto::SessionBroker> broker;

  // Device side: touched only by the thread driving the devices.
  State state = State::kIdle;
  std::uint64_t hs_start = 0;  // connect() call, or the event's due time
  bool hs_timed = false;
  bool established = false;    // holds a session from an earlier handshake
  std::uint64_t hs_seen = 0;   // broker handshakes_completed before this one
  std::uint64_t hs_failed_seen = 0;  // broker handshakes_failed before this one
  double retry_at_ms = 0;      // aborted handshake: when to start a fresh one (0: none)
  std::uint32_t up_next = 0;   // next upstream sequence number
  std::uint32_t down_expect = 0;
  bool command_arrived = false;
  std::uint64_t cycles = 0;    // stream: bursts answered

  // Shared with the server's on_data and the transport observer.
  std::mutex mutex;
  std::uint32_t up_expect = 0;
  std::deque<std::uint64_t> up_sent;    // stamps of undelivered upstream records
  std::uint32_t down_next = 0;
  std::deque<std::uint64_t> down_sent;  // stamps of undelivered commands
  std::deque<std::uint64_t> dt1_seen;   // traced: driver receive() times of DT1
  std::uint64_t a1_seen = 0, a2_seen = 0;
};

/// Counters the benchmark keeps itself (atomic: the server's on_data runs
/// on worker threads in the open loop).
struct Tally {
  std::atomic<std::uint64_t> hs_started{0}, hs_done{0};           // timed only
  std::atomic<std::uint64_t> rec_sent{0}, rec_done{0};            // timed only
  std::atomic<std::uint64_t> hs_done_all{0};                      // client completions, whole run
  std::atomic<std::uint64_t> up_sent_all{0}, up_done_all{0};      // whole run
  std::atomic<std::uint64_t> down_sent_all{0}, down_done_all{0};  // whole run
  std::atomic<std::uint64_t> rekeys_all{0};  // handshakes replacing a live session
  std::atomic<std::uint64_t> hs_aborted_all{0};  // device handshakes the library aborted
  std::atomic<std::uint64_t> client_errors{0};
};

/// Library counters summed over both ends.
struct BrokerCounts {
  std::uint64_t server_retransmits = 0, client_retransmits = 0;
  std::uint64_t server_duplicates = 0, client_duplicates = 0;
  std::uint64_t server_cache_hits = 0, server_cache_misses = 0;
  std::uint64_t client_cache_hits = 0, client_cache_misses = 0;
  std::uint64_t server_handshakes = 0, client_handshakes = 0;
  std::uint64_t server_records = 0;   // SessionBroker::records_delivered
  std::uint64_t server_ratchets = 0;  // SessionStore::ratchets
  std::uint64_t send_drops = 0;       // both sockets
  std::uint64_t data_records = 0;     // ConcurrentSessionBroker::send_data
};

class Fabric {
 public:
  explicit Fabric(const FabricConfig& config);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] const FabricConfig& config() const { return config_; }
  [[nodiscard]] std::deque<Device>& devices() { return devices_; }
  [[nodiscard]] Device& device(std::uint32_t i) { return devices_[i]; }
  [[nodiscard]] ecqv::proto::ConcurrentSessionBroker& server() { return *server_; }
  [[nodiscard]] TimedTransport& server_net() { return *server_net_; }
  [[nodiscard]] ecqv::net::UdpTransport& client_net() { return *client_net_; }
  [[nodiscard]] const ecqv::cert::DeviceId& server_id() const { return server_creds_.id; }

  /// Creates the device's broker (fresh peer cache and store).
  void open_device(Device& d);
  /// Folds the broker's counters into the retired totals and destroys it.
  void close_device(Device& d);
  /// Prewarms both peer caches: the server's with every device's
  /// certificate, each open device's with the server's.
  void prewarm_caches();

  /// connect() toward the server; `start` stamps the latency origin. An
  /// operation stamped at or after the timed start counts toward
  /// attempted/failed.
  void start_handshake(Device& d, std::uint64_t start);
  /// Seals and sends `n` upstream records stamped with `stamp`.
  void send_records(Device& d, std::size_t n, std::uint64_t stamp);
  /// Server → device command via ConcurrentSessionBroker::send_data.
  void send_command(Device& d);
  /// Feeds every datagram waiting for `d` to its broker. Returns true when
  /// this completed the device's handshake. A handshake the library aborts
  /// counts as a failed attempt, and poll_device_timers starts a fresh one
  /// an initial retransmission timeout later, so the device stays in its
  /// handshake until one completes.
  bool pump_device(Device& d);
  void poll_device_timers(Device& d);

  /// One inline server step (workers == 0 only).
  void step_server();
  /// Runs the BrokerDriver on its own thread (workers > 0).
  void start_server_thread();
  void stop_server_thread();
  /// Blocks until the client socket is readable or `timeout_ns` passes.
  void wait_client(std::uint64_t timeout_ns);

  /// Device::broker->session_ready(), as a span.
  bool session_ready(Device& d);

  /// Commands the server owes (stream): devices whose burst was delivered.
  std::vector<std::uint32_t> take_owed_commands();
  void set_burst(std::size_t records) { burst_ = records; }

  /// Reseeds every RNG (server and devices) from `salt`.
  void reseed(std::uint64_t salt);

  [[nodiscard]] BrokerCounts broker_counts();
  [[nodiscard]] Tally& tally() { return tally_; }
  [[nodiscard]] SampleLog& handshakes() { return handshakes_; }
  [[nodiscard]] SampleLog& records() { return records_; }
  [[nodiscard]] SampleLog& handoffs() { return handoffs_; }
  [[nodiscard]] SampleLog& a1_times() { return a1_times_; }
  [[nodiscard]] SampleLog& a2_times() { return a2_times_; }

  /// Marks the start of the timed phase: records and handshakes stamped at
  /// or after this count toward attempted/failed.
  void set_timed_start(std::uint64_t t0) { timed_start_.store(t0); }

  /// Output-check failures (empty when every check passed).
  void violation(const std::string& what);
  [[nodiscard]] std::vector<std::string> violations();
  /// End-of-run conservation checks against the library's own counters.
  void check_conservation();

  /// Records and handshakes still outstanding.
  [[nodiscard]] std::uint64_t outstanding();

 private:
  class Observer;
  void on_server_data(const ecqv::cert::DeviceId& peer, ecqv::Bytes plaintext);
  void on_device_data(std::uint32_t index, const ecqv::cert::DeviceId& peer,
                      ecqv::Bytes plaintext);
  /// Parses and verifies a delivered payload; returns the sequence number
  /// or nullopt (after recording the violation).
  std::optional<std::uint32_t> check_payload(const ecqv::Bytes& plaintext,
                                             std::uint32_t expect_device, Direction dir);
  /// When the library aborted the device's handshake, counts the attempt
  /// as failed and schedules a fresh one from the same latency origin.
  void retry_aborted(Device& d);
  void provision();

  FabricConfig config_;
  std::unique_ptr<ecqv::cert::CertificateAuthority> ca_;
  ecqv::proto::Credentials server_creds_;
  SeededRng server_rng_;
  std::unique_ptr<TimedTransport> server_net_;
  std::unique_ptr<ecqv::net::UdpTransport> client_net_;
  int client_fd_ = -1;
  std::unique_ptr<Observer> observer_;
  std::unique_ptr<ecqv::proto::ConcurrentSessionBroker> server_;
  std::unique_ptr<ecqv::net::BrokerDriver> driver_;
  ecqv::proto::BrokerConfig device_config_;
  std::deque<Device> devices_;

  std::atomic<bool> server_running_{false};
  std::thread server_thread_;
  std::atomic<bool> server_thread_failed_{false};

  std::size_t burst_ = 0;
  std::mutex owed_mutex_;
  std::vector<std::uint32_t> owed_;

  std::atomic<std::uint64_t> timed_start_{UINT64_MAX};
  Tally tally_;
  BrokerCounts retired_;  // client counters of closed device brokers
  SampleLog handshakes_, records_, handoffs_, a1_times_, a2_times_;
  std::mutex violations_mutex_;
  std::vector<std::string> violations_;
};

/// Heap bytes in use (all malloc arenas plus mmapped blocks).
std::size_t heap_bytes();

}  // namespace perfbench
