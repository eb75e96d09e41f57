// Session broker: one endpoint serving many concurrent ECQV peers — the
// fleet-scale replacement for the two-party test driver.
//
// The paper establishes dynamic sessions between exactly two devices wired
// together by a blocking driver (core/driver.hpp). A realistic deployment
// (one backend terminating sessions for a vehicle/IoT fleet, V2X-SCMS
// style) inverts that: the endpoint is message-driven, holds thousands of
// sessions at once, and cannot afford either unbounded state or a full STS
// re-run per rekey. The broker composes the fabric's pieces:
//
//   transport msg in ──► on_message() ──► msg out (or none)
//                         │
//                         ├─ "A1".."B2"  interleaved STS handshakes, one
//                         │              in-flight Party per peer, installed
//                         │              into the sharded SessionStore on
//                         │              establishment
//                         ├─ "RK1"       authenticated epoch-ratchet
//                         │              announcements (cheap resumption)
//                         └─ "DT1"       sealed data-plane records, opened
//                                        through the store and delivered to
//                                        the on_data callback
//
// Handshake verification shares one PeerKeyCache: implicit public keys are
// extracted once per certificate (eq. (1)) and every signature from a peer
// verifies over its cached wNAF table.
//
// Rekey ladder (the paper's "dynamic sessions", made cheap):
//   0. piggybacked ratchet (make_data with DataRekey::kAuto/kRatchet): the
//      epoch advance rides INSIDE an authenticated DT1 data record
//      (TLS-1.3-KeyUpdate-style) — zero standalone rekey messages while
//      traffic is flowing; the receiver ratchets on open and acks
//      implicitly with its own next record.
//   1. epoch ratchet (refresh/initiate_ratchet): KS_{i+1} = HKDF(KS_i, ...)
//      — a few HMAC compressions, forward secure per epoch; announced to
//      the peer in one authenticated RK1 message. The idle-session
//      fallback: when no data record is due to carry the signal.
//   2. full rekey (after max_epochs resumptions, or when the session died):
//      a fresh STS handshake re-anchors the chain in new ephemerals.
//
// Threading: on_message() may be called from many threads as long as calls
// FOR THE SAME PEER never overlap (the worker pool in
// core/concurrent_broker.hpp guarantees this by hashing peers onto
// workers). Pending-handshake state is sharded under per-shard mutexes, the
// store locks per shard, the peer cache pins entries, and all Stats are
// relaxed atomics — so handshakes for different peers run truly in
// parallel. The single-threaded event loop takes the same uncontended
// locks.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>

#include "core/peer_cache.hpp"
#include "core/session_store.hpp"
#include "core/sts.hpp"
#include "core/timer_queue.hpp"
#include "core/transport.hpp"
#include "ecdsa/ecdsa.hpp"

namespace ecqv::proto {

/// Retransmission policy for lossy links (the broker's reliability engine).
/// Off by default: a broker on a lossless fabric behaves bit-identically to
/// the pre-reliability fabric — no timers armed, no RK2 acks emitted, no
/// replay caching. Enabled, the broker runs recovery on the transport's
/// virtual clock (bind_clock): it retransmits unanswered handshake messages
/// and RK1 announcements with exponential backoff + deterministic jitter,
/// answers retransmitted peers idempotently from a bounded replay cache,
/// and escalates when a budget is spent — handshakes abort (and strike the
/// dead-peer detector), exhausted ratchets fall back to a full rekey.
struct ReliabilityConfig {
  bool enabled = false;
  /// First retransmission timeout; attempt k waits
  /// min(rto_ms * 2^(k-1), 800 ms), jittered by +-25%. The jitter factor is
  /// derived from (peer, attempt, generation), so a seeded run replays
  /// exactly yet fleet retransmissions never synchronize into bursts.
  double rto_ms = 50.0;
  /// Total transmissions (first send + retransmits) per handshake message
  /// before the handshake aborts.
  std::uint32_t handshake_budget = 10;
  /// How long a completed handshake's final reply stays cached to answer a
  /// retransmitted last flight (the peer's ack was lost).
  double finished_ttl_ms = 4000.0;
};

struct BrokerConfig {
  StsConfig sts{};                // variant / suite offer
  SessionStore::Config store{};   // capacity, shards, policy, max_epochs
  std::size_t peer_cache_capacity = 4096;
  std::size_t max_pending = 1024;           // concurrent in-flight handshakes
  /// Delivery callback for opened data-plane records ("DT1" messages fed
  /// through on_message). May be invoked from worker threads.
  std::function<void(const cert::DeviceId& peer, Bytes plaintext)> on_data;
  /// Loss-recovery policy; disabled by default (see ReliabilityConfig).
  ReliabilityConfig reliability{};
};

class SessionBroker {
 public:
  struct Stats {
    StatCounter handshakes_started = 0;
    StatCounter handshakes_completed = 0;
    StatCounter handshakes_failed = 0;
    StatCounter ratchets_sent = 0;      // standalone RK1 announcements
    StatCounter ratchets_received = 0;  // standalone RK1s applied
    StatCounter full_rekeys = 0;  // refresh() escalations past the ratchet
    StatCounter pending_expired = 0;
    StatCounter records_delivered = 0;  // data-plane records opened via on_message
    StatCounter piggyback_sent = 0;      // DT1 records carrying the epoch signal
    StatCounter piggyback_received = 0;  // epoch signals applied on open
    StatCounter piggyback_refused = 0;   // signal seen but the chain was spent

    // ---- reliability engine (all zero while reliability.enabled is off) --
    StatCounter retransmits = 0;          // handshake messages re-sent on timer
    StatCounter ratchet_retransmits = 0;  // RK1 announcements re-sent on timer
    StatCounter duplicates_ignored = 0;   // byte-identical repeats answered from cache
    StatCounter stale_ignored = 0;        // late/orphaned traffic dropped without error
    StatCounter handshakes_aborted = 0;   // retransmit budget exhausted
    StatCounter ratchet_escalations = 0;  // RK1 budget exhausted -> full rekey
    StatCounter ratchet_acks_sent = 0;      // RK2 acks emitted
    StatCounter ratchet_acks_received = 0;  // RK2 acks consumed (timer disarmed)
    StatCounter backpressure = 0;         // exchanges run uncovered (timer cap hit)
    StatCounter dead_peers = 0;           // peers crossing the strike threshold
  };

  /// Epoch-ratchet announcement step id (alongside the STS "A1".."B2").
  static constexpr std::string_view kRatchetStep = ecqv::proto::kRatchetStepLabel;
  /// Data-plane record step id.
  static constexpr std::string_view kDataStep = ecqv::proto::kDataStepLabel;
  /// Ratchet-ack step id (reliability engine only).
  static constexpr std::string_view kRatchetAckStep = ecqv::proto::kRatchetAckStepLabel;

  SessionBroker(const Credentials& creds, rng::Rng& rng, BrokerConfig config = {});
  SessionBroker(const SessionBroker&) = delete;
  SessionBroker& operator=(const SessionBroker&) = delete;

  /// Starts a full STS handshake toward `peer`; returns the A1 message to
  /// deliver. Any previous in-flight handshake with the peer is dropped;
  /// an established session stays live until the new one installs.
  Result<Message> connect(const cert::DeviceId& peer, std::uint64_t now);

  /// Feeds one incoming message from `peer` (transport-authenticated
  /// address); returns the reply to send back, if any. Handles handshake
  /// steps, completion (installs the session), ratchet announcements and
  /// data-plane records (opened and handed to config.on_data).
  /// Simultaneous open resolves by identity tie-break: when both endpoints
  /// connect() concurrently, the broker with the lexicographically larger
  /// id keeps its initiator role and swallows the crossing A1 (no reply);
  /// the smaller-id side yields and responds.
  Result<std::optional<Message>> on_message(const cert::DeviceId& peer, const Message& incoming,
                                            std::uint64_t now);

  /// Two-party exchange for tests, benches and examples: delivers `first`
  /// (produced by `sender` — a connect(), refresh() or ratchet message for
  /// `receiver`) and hands each reply straight back until neither side has
  /// output (alternate() in core/transport.hpp). Returns the number of
  /// messages exchanged, or the first rejection.
  static Result<std::size_t> pump(SessionBroker& sender, SessionBroker& receiver,
                                  Result<Message> first, std::uint64_t now);

  /// True when a usable session with `peer` exists right now.
  [[nodiscard]] bool session_ready(const cert::DeviceId& peer, std::uint64_t now);

  /// Cheap rekey: advances the session one epoch and returns the
  /// authenticated RK1 announcement for the peer (who ratchets on receipt).
  /// kBadState when no resumable session exists — escalate to connect().
  Result<Message> initiate_ratchet(const cert::DeviceId& peer, std::uint64_t now);

  /// Policy-driven rekey: epoch ratchet while the budget allows, full STS
  /// handshake once it is spent. Returns the message to deliver (RK1 or A1).
  Result<Message> refresh(const cert::DeviceId& peer, std::uint64_t now);

  /// Data plane: seal/open application records for `peer`.
  Result<Bytes> seal(const cert::DeviceId& peer, ByteView plaintext, std::uint64_t now);
  Result<Bytes> open(const cert::DeviceId& peer, ByteView record, std::uint64_t now);

  /// Seals `plaintext` and wraps it as a transportable DT1 message — the
  /// outbound half of the data plane when records ride the fabric
  /// transport (the peer's on_message opens it). `rekey` piggybacks the
  /// epoch ratchet on the record (kAuto: exactly when this record spends
  /// the epoch's budget; kRatchet: forced) so a flowing stream rekeys with
  /// ZERO standalone RK1 rounds — see the ladder in the class comment.
  Result<Message> make_data(const cert::DeviceId& peer, ByteView plaintext, std::uint64_t now,
                            DataRekey rekey = DataRekey::kAuto);

  // ---- fleet-scale batch verbs (the throughput engine's front door) -----

  /// Fleet enrollment fast path: batch-extracts every certificate's
  /// implicit public key (eq. (1)) and builds all cached verification
  /// tables into the peer cache — one shared field inversion per phase, and
  /// at fleet sizes the normalizations ride the AVX-512 IFMA 8-way lane.
  /// Returns the number of certificates cached (invalid ones are skipped).
  std::size_t enroll_batch(const std::vector<cert::Certificate>& certificates);

  /// One signed claim for verify_batch, attributed to an enrolled peer.
  struct VerifyRequest {
    cert::DeviceId peer;
    hash::Digest digest{};
    sig::Signature sig;
  };

  /// True batch signature verification against enrolled peers: ONE
  /// random-linear-combination Straus pass (sig::verify_digest_batch)
  /// checks every signature at once over the peers' cached tables, with
  /// bisection attributing any failure to its exact request. Coefficients
  /// come from the broker's session RNG. Requests for peers that were never
  /// enrolled (no cache entry) come back invalid without touching the rest
  /// of the batch. Returns one verdict per request, in order.
  std::vector<bool> verify_batch(const VerifyRequest* requests, std::size_t n,
                                 sig::BatchVerifyStats* stats = nullptr);
  std::vector<bool> verify_batch(const std::vector<VerifyRequest>& requests,
                                 sig::BatchVerifyStats* stats = nullptr);

  /// Maintenance: bulk-expires dead sessions and stalled handshakes.
  /// Returns the number of entries reclaimed.
  std::size_t sweep(std::uint64_t now);

  // ---- reliability engine (active only with config.reliability.enabled) --

  /// Binds the virtual clock recovery runs on. Also reroutes the pending-
  /// handshake TTL from wall seconds onto this clock (milliseconds), so a
  /// lossy simulated timeline can expire stalled handshakes
  /// deterministically. Call before traffic flows.
  void bind_clock(Transport* clock) { clock_ = clock; }

  /// One message the reliability engine wants on the wire.
  struct Outbound {
    cert::DeviceId peer;
    Message message;
  };

  /// Expires every retransmission timer due at or before `now_ms` (the
  /// transport clock) and returns the messages to send: retransmitted
  /// handshake flights, retransmitted RK1s, or fresh A1s from ratchet
  /// escalations. `now` is the wall clock for session bookkeeping. The
  /// caller (ConcurrentSessionBroker::poll, or a test driver) puts each
  /// Outbound on the transport.
  std::vector<Outbound> poll_retransmits(double now_ms, std::uint64_t now);

  /// Earliest armed retransmission deadline (transport-clock ms); nullopt
  /// when nothing is armed. Lossy drivers advance the virtual clock here
  /// when the link drains without converging.
  [[nodiscard]] std::optional<double> next_retransmit_due_ms() { return timers_.next_due_ms(); }

  /// Unfinished reliability work: in-flight handshakes plus unacked RK1
  /// announcements. A lossy settle loop is done when this reaches zero.
  /// Lock-free (two relaxed counters) — safe to poll every driver round.
  [[nodiscard]] std::size_t reliability_backlog() const {
    return pending_count_.load(std::memory_order_relaxed) +
           await_count_.load(std::memory_order_relaxed);
  }

  /// True once `peer` crossed the dead-peer strike threshold (three
  /// consecutive aborted exchanges). Cleared by the next completed
  /// handshake with the peer.
  [[nodiscard]] bool peer_dead(const cert::DeviceId& peer);

  [[nodiscard]] SessionStore& store() { return store_; }
  [[nodiscard]] PeerKeyCache& peer_cache() { return cache_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t pending_handshakes() const {
    return pending_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const cert::DeviceId& id() const { return creds_.id; }

 private:
  struct Pending {
    std::unique_ptr<Party> party;
    Role role = Role::kInitiator;
    std::uint64_t started_at = 0;
    // Reliability bookkeeping (unused while the engine is off). `last_in`/
    // `last_out` are the most recent exchange: a byte-identical repeat of
    // last_in re-elicits last_out without touching the party (whose state
    // machine poisons on any replayed input), and last_out is what the
    // retransmission timer puts back on the wire.
    Message last_in;
    std::optional<Message> last_out;
    std::uint32_t attempts = 1;   // transmissions of last_out so far
    std::uint64_t gen = 0;        // timer generation stamp (lazy cancel)
    double started_ms = 0.0;      // transport-clock birth (virtual-time TTL)
  };
  /// A completed handshake's afterlife: if the peer's final flight was
  /// answered but our answer was lost, the peer retransmits — the cached
  /// reply answers it idempotently instead of poisoning a fresh party.
  struct Finished {
    Message first_in;              // the flight that OPENED the handshake (its
                                   // stragglers must not seed a new party)
    Message last_in;               // the flight that completed the handshake
    std::optional<Message> reply;  // cached answer (nullopt on the ack side)
    double expires_ms = 0.0;
    std::uint64_t gen = 0;
  };
  /// An RK1 announcement awaiting its RK2 ack.
  struct RatchetAwait {
    Message announce;
    std::uint32_t new_epoch = 0;
    std::uint32_t attempts = 1;
    std::uint64_t gen = 0;
  };
  /// Pending handshakes shard like the store: map operations and the
  /// long-running party step for a peer both happen under the shard mutex,
  /// so a sweep() on another thread can never free a party mid-step. The
  /// worker pool's peer affinity means two peers of one shard virtually
  /// always belong to the same worker anyway — the lock is a correctness
  /// backstop, not a contention point. The reliability maps (finished
  /// replay cache, unacked ratchets, dead-peer strikes) ride the same
  /// shard and lock.
  struct PendingShard {
    mutable Mutex mutex;
    std::unordered_map<cert::DeviceId, Pending, DeviceIdHash> map GUARDED_BY(mutex);
    std::unordered_map<cert::DeviceId, Finished, DeviceIdHash> finished GUARDED_BY(mutex);
    std::unordered_map<cert::DeviceId, RatchetAwait, DeviceIdHash> awaits GUARDED_BY(mutex);
    std::unordered_map<cert::DeviceId, std::uint32_t, DeviceIdHash> strikes GUARDED_BY(mutex);
  };
  static constexpr std::size_t kPendingShards = 64;  // power of two

  [[nodiscard]] PendingShard& pending_shard(const cert::DeviceId& peer) {
    return pending_[DeviceIdHash{}(peer) & (kPendingShards - 1)];
  }
  [[nodiscard]] StsConfig sts_config(std::uint64_t now);
  /// Admission control for a new pending handshake with `peer`. Must be
  /// called WITHOUT the shard lock held (it sweeps all shards when full).
  /// False = at capacity even after a sweep; the caller rejects.
  [[nodiscard]] bool ensure_pending_capacity(PendingShard& shard, const cert::DeviceId& peer,
                                             std::uint64_t now) EXCLUDES(shard.mutex);
  /// `resident` marks whether `pending` is the map entry for `peer` (and
  /// may be erased on failure) or a not-yet-inserted replacement.
  Result<std::optional<Message>> drive(PendingShard& shard, const cert::DeviceId& peer,
                                       Pending& pending, const Message& incoming,
                                       std::uint64_t now, bool resident) REQUIRES(shard.mutex);
  Result<std::optional<Message>> on_ratchet(const cert::DeviceId& peer, const Message& incoming,
                                            std::uint64_t now);
  Result<std::optional<Message>> on_ratchet_ack(const cert::DeviceId& peer,
                                                const Message& incoming);
  Result<std::optional<Message>> on_data(const cert::DeviceId& peer, const Message& incoming,
                                         std::uint64_t now);
  std::size_t sweep_pending(std::uint64_t now);

  // ---- reliability internals -------------------------------------------
  [[nodiscard]] bool reliable() const { return config_.reliability.enabled; }
  [[nodiscard]] double clock_ms() { return clock_ != nullptr ? clock_->now_ms() : 0.0; }
  /// Backoff delay before the NEXT transmission, given `attempts` already
  /// made — exponential, capped, deterministically jittered.
  [[nodiscard]] double rto_after(const cert::DeviceId& peer, std::uint32_t attempts,
                                 std::uint64_t gen) const;
  /// Arms one timer unless the heap is at its cap (then counts
  /// backpressure instead — the exchange runs uncovered).
  void arm(double due_ms, const cert::DeviceId& peer, TimerQueue::Kind kind, std::uint64_t gen);
  /// Records one aborted exchange against the peer; flips it dead at the
  /// strike threshold.
  void strike(PendingShard& shard, const cert::DeviceId& peer) REQUIRES(shard.mutex);
  /// Post-drive bookkeeping for a surviving handshake exchange: remembers
  /// {incoming -> reply}, restarts the retransmission timer (initiator
  /// side only — responders are re-elicited by the peer's retransmits).
  void record_exchange(PendingShard& shard, const cert::DeviceId& peer, const Message& incoming,
                       const std::optional<Message>& reply) REQUIRES(shard.mutex);

  const Credentials& creds_;
  rng::Rng& rng_;
  BrokerConfig config_;
  SessionStore store_;
  PeerKeyCache cache_;
  std::array<PendingShard, kPendingShards> pending_;
  std::atomic<std::size_t> pending_count_{0};
  std::atomic<std::size_t> await_count_{0};
  Transport* clock_ = nullptr;
  TimerQueue timers_;
  std::atomic<std::uint64_t> gen_counter_{1};
  Stats stats_;
};

}  // namespace ecqv::proto
