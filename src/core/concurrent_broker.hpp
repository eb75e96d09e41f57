// Worker-pool session broker: the fabric's one endpoint type.
//
// A SessionBroker is message-driven but agnostic about who calls it. This
// wrapper binds one broker to a Transport (attaching its id, running the
// reliability engine on the transport's clock, locking the RNG), and its
// poll() is the one piece of code that moves datagrams between the two: it
// fires due retransmissions, then feeds every inbound datagram to the
// broker and sends the reply back. connect() and send_data() put the
// outbound half on the wire.
//
// With workers = 0, poll() answers inline on the calling thread: a device
// (an ECU, a vehicle, a soak client) in the single-threaded embedded
// profile, whose locks are never contended. With workers = N, inbound
// datagrams go to N threads keyed by peer-id→worker affinity (FNV-1a of
// the peer id modulo pool size — the same hash the store's shards use):
//
//   * per-peer ordering: all messages from one peer land on one worker's
//     FIFO queue, so a handshake's A1/A2 and a session's records are
//     processed in arrival order;
//   * cross-peer parallelism: handshakes for different peers run on
//     different workers, hitting disjoint pending/store shards — the
//     scalar multiplications that dominate STS (paper Table I) execute
//     truly in parallel.
//
// Workers send their replies straight back out (every transport is
// thread-safe). settle() below runs a set of endpoints in virtual time;
// net::BrokerDriver runs one on epoll. poll(now) stamps what it dispatches
// with the logical `now` seconds, like everywhere else in the library.
#pragma once

#include <condition_variable>
#include <deque>
#include <thread>
#include <vector>

#include "core/session_broker.hpp"
#include "core/transport.hpp"
#include "rng/locked_rng.hpp"

namespace ecqv::proto {

class ConcurrentSessionBroker {
 public:
  struct Config {
    BrokerConfig broker{};
    /// Worker threads terminating handshakes. 0 = inline dispatch (no
    /// threads spawned); N >= 1 spawns N workers.
    std::size_t workers = 0;
  };

  struct Stats {
    StatCounter dispatched = 0;  // datagrams handed to a worker (or inline)
    StatCounter replies = 0;     // messages sent back through the transport
    StatCounter errors = 0;      // on_message / transport failures
    // Outbound record accounting from send_data: payload vs on-the-wire
    // bytes. The difference is the record overhead actually paid, so the
    // per-suite wire savings of the negotiated AEAD format (v3 CCM-8 saves
    // 23 B/record over the legacy v2 CTR+HMAC frame) show up directly in
    // fleet stats instead of having to be inferred from frame counts.
    StatCounter data_records = 0;        // records sealed via send_data
    StatCounter data_payload_bytes = 0;  // plaintext bytes handed in
    StatCounter data_wire_bytes = 0;     // sealed record bytes shipped
  };

  /// The broker sends and receives through `transport`; the endpoint is
  /// attached on construction.
  ConcurrentSessionBroker(const Credentials& creds, rng::Rng& rng, Transport& transport,
                          Config config);
  ~ConcurrentSessionBroker();
  ConcurrentSessionBroker(const ConcurrentSessionBroker&) = delete;
  ConcurrentSessionBroker& operator=(const ConcurrentSessionBroker&) = delete;

  /// Starts a handshake toward `peer`; the A1 goes out via the transport.
  Status connect(const cert::DeviceId& peer, std::uint64_t now);

  /// Seals `plaintext` for `peer` and ships it as a DT1 datagram. `rekey`
  /// piggybacks the epoch ratchet on the record (default kAuto: advance
  /// exactly when the record spends the epoch budget). Safe alongside
  /// worker-thread opens for the same peer (the store's shard lock makes
  /// each seal+advance atomic against them) — but concurrent send_data
  /// calls FOR THE SAME PEER must be serialized by the caller, mirroring
  /// the broker's same-peer on_message contract: the seal and the
  /// transport send are two steps, so two racing sends could publish a
  /// later-sealed record (or epoch) first and desync the peer's strictly
  /// sequenced receive channel.
  Status send_data(const cert::DeviceId& peer, ByteView plaintext, std::uint64_t now,
                   DataRekey rekey = DataRekey::kAuto);

  /// Fleet enrollment, delegated to the broker (the peer cache is shared
  /// safely with the workers). Returns the number cached.
  std::size_t enroll_batch(const std::vector<cert::Certificate>& certificates);

  /// Batch signature verification fanned out across the worker pool: the
  /// request set splits into one contiguous chunk per worker (chunks stay
  /// >= 16 requests so each keeps real RLC amortization) and every chunk
  /// runs its own combined check in parallel; verdicts merge back in
  /// request order and `stats` accumulates across chunks. With workers == 0
  /// (or a small batch) this is SessionBroker::verify_batch inline. Must be
  /// called from the polling/driver thread — never from a worker callback,
  /// which would deadlock waiting on its own queue.
  std::vector<bool> verify_batch(const std::vector<SessionBroker::VerifyRequest>& requests,
                                 sig::BatchVerifyStats* stats = nullptr);

  /// Pulls every datagram currently addressed to this endpoint and hands
  /// each to its affinity worker (or processes inline with workers = 0).
  /// Returns the number dispatched.
  std::size_t poll(std::uint64_t now);

  /// Blocks until every dispatched datagram has been processed and its
  /// replies are on the transport.
  void drain();

  [[nodiscard]] SessionBroker& broker() { return broker_; }
  [[nodiscard]] Transport& transport() { return transport_; }
  [[nodiscard]] const cert::DeviceId& id() const { return broker_.id(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t workers() const { return workers_.size(); }

 private:
  struct Job {
    cert::DeviceId from;
    Message message;
    std::uint64_t now = 0;
    /// When set, the job is a compute task (a verify_batch chunk) instead
    /// of an inbound datagram; process() just runs it.
    std::function<void()> work;
  };
  struct Worker {
    Mutex mutex;
    std::condition_variable cv;
    std::deque<Job> queue GUARDED_BY(mutex);
    std::thread thread;
  };

  // NO_THREAD_SAFETY_ANALYSIS (1 of the repo's budget of 3, counted by
  // tools/ct_lint.py): the wait loop must pass the capability's native
  // std::mutex to condition_variable::wait through a std::unique_lock,
  // which the analysis cannot model — the queue pops here are guarded by
  // that same unique_lock. Every producer side (poll, verify_batch, the
  // destructor's fence) locks through the annotated MutexLock and IS
  // analyzed.
  void worker_loop(Worker& worker) NO_THREAD_SAFETY_ANALYSIS;
  void process(const Job& job);

  Transport& transport_;
  rng::LockedRng rng_;  // workers draw ephemerals concurrently
  SessionBroker broker_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> in_flight_{0};
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::atomic<bool> stop_{false};
  Stats stats_;
};

/// Runs fabric endpoints to quiescence in virtual time: polls each in
/// round-robin until a round moves nothing. If reliability work is then
/// still owed (a pending exchange or a delayed datagram), advances every
/// endpoint's transport to the earliest retransmission deadline or
/// delayed-datagram release and runs rounds again. Stops when nothing is
/// owed, when nothing armed can make progress (uncovered exchanges are the
/// TTL sweep's job), or when a link's clock cannot reach the deadline (the
/// ideal link's is pinned at 0). Returns the number of datagrams processed.
std::size_t settle(const std::vector<ConcurrentSessionBroker*>& endpoints, std::uint64_t now);

}  // namespace ecqv::proto
