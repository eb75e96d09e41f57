// Sharded, capacity-bounded session store — the resident-state backbone of
// the fleet session fabric.
//
// The paper's two-party model (§IV) keys exactly one peer; a backend
// terminating sessions for an ECQV fleet (V2X SCMS-style, one endpoint vs
// thousands of certificate holders) needs bounded memory and cheap rekeys.
// This store replaces the old per-manager std::map with:
//
//  * Sharding: peers hash (FNV-1a over the 16-byte DeviceId) onto 2^k
//    shards, each an LRU list + unordered index, so lookups stay O(1).
//  * Per-shard locking: every shard carries its own mutex, so the
//    concurrent broker's workers operate on disjoint shards in parallel.
//    No operation ever holds two shard locks at once (capacity eviction
//    and sweep() lock one shard at a time), so the lock graph is trivially
//    cycle-free. Stats are relaxed atomics readable without any lock.
//  * Capacity bound + LRU eviction: the store never holds more than
//    `capacity` sessions at rest; inserting past the bound wipes and evicts
//    the least-recently-used session (per-shard order; exact global order
//    with shards = 1). Under concurrent insert bursts the bound may be
//    exceeded transiently by at most one session per in-flight install.
//    Evicted peers simply re-handshake.
//  * No lingering state: a session that is neither usable (budget spent /
//    aged out) nor resumable (ratchet epochs exhausted / expired) is wiped
//    and removed the moment any lookup or sweep touches it — dead key
//    material never survives in memory, and active_sessions() counts only
//    live state (paper §II-A's stale-key complaint, made structural).
//  * Epoch ratchet: a spent record budget can advance the session to the
//    next key epoch (kdf::ratchet_session_keys) instead of re-running the
//    full STS handshake. After `max_epochs` resumptions the session must be
//    re-established from scratch (full rekey escalation) so the DKD
//    property is re-anchored in fresh ephemerals.
//  * Piggybacked ratchet (TLS-1.3-KeyUpdate-style): seal(..., DataRekey)
//    can fold the epoch advance into an authenticated data record
//    (SecureChannel::kFlagRatchet) — the sender advances right after
//    sealing, the receiver advances on open, and the receiver's own next
//    record is the implicit ack. No standalone RK1 round while traffic
//    flows; RK1 (ratchet()) remains the idle-session path.
//  * Epoch acceptance window: after any ratchet the previous epoch's
//    receive channel is retained for up to 64 opens (kEpochWindowRecords
//    in session_store.cpp), so in-flight records that straddle the
//    boundary (sealed under KS_i, arriving after the holder advanced to
//    KS_{i+1}) still authenticate and decrypt — DTLS-1.3-style bounded
//    retention. The window holds at most ONE previous epoch and dies at
//    the next ratchet, on exhaustion, or with the session; per-epoch
//    forward secrecy is delayed by exactly that bounded window, never
//    waived.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "core/secure_channel.hpp"
#include "ecqv/certificate.hpp"

namespace ecqv::proto {

struct RekeyPolicy {
  std::uint64_t max_records = 1024;     // seal+open budget per epoch
  std::uint64_t max_age_seconds = 600;  // communication session lifetime

  [[nodiscard]] static RekeyPolicy unlimited() {
    return RekeyPolicy{UINT64_MAX, UINT64_MAX};
  }
};

// DeviceIdHash (FNV-1a shard + bucket hash) lives in core/message.hpp,
// shared with the transports and the worker pool's peer affinity.

/// How a data-plane seal interacts with the epoch ratchet.
enum class DataRekey : std::uint8_t {
  kNone,     // plain record, epoch untouched
  kAuto,     // piggyback the advance when this record spends the epoch's
             // record budget and the chain can still move — otherwise plain
  kRatchet,  // force the piggybacked advance (kBadState when it cannot)
};

class SessionStore {
 public:
  struct Config {
    RekeyPolicy policy{};
    std::size_t capacity = 4096;   // fleet-wide resident-session bound
    std::size_t shards = 16;       // rounded up to a power of two
    std::uint32_t max_epochs = 8;  // ratchet resumptions before full rekey
  };

  struct Stats {
    StatCounter installs = 0;
    StatCounter ratchets = 0;            // epoch resumptions (all paths)
    StatCounter capacity_evictions = 0;  // LRU pressure at the bound
    StatCounter dead_evictions = 0;      // expired/exhausted, wiped on touch
    StatCounter seals = 0;
    StatCounter opens = 0;
    StatCounter ratchet_signals_sent = 0;     // piggybacked advances sealed
    StatCounter ratchet_signals_applied = 0;  // piggybacked advances applied on open
    StatCounter ratchet_signals_refused = 0;  // signal seen, chain could not move
    StatCounter window_opens = 0;   // records accepted via the previous epoch
    StatCounter epoch_rejects = 0;  // records outside current epoch + window
  };

  /// What open() observed besides the plaintext (all false on the plain
  /// current-epoch path). Callers that meter the ratchet (the broker's
  /// stats) read it; everyone else passes nullptr.
  struct OpenInfo {
    bool ratchet_applied = false;  // piggybacked signal advanced the epoch
    bool ratchet_refused = false;  // signal present but the chain was spent
    bool via_window = false;       // opened by the previous epoch's channel
  };

  SessionStore(Role default_role, Config config);

  /// Installs freshly negotiated keys for `peer` at epoch 0, replacing (and
  /// wiping) any previous session. May LRU-evict another peer when the
  /// store is at capacity. The role selects the secure-channel direction
  /// lanes; the overload without it uses the store's default role.
  void install(const cert::DeviceId& peer, const kdf::SessionKeys& keys, std::uint64_t now);
  void install(const cert::DeviceId& peer, const kdf::SessionKeys& keys, Role role,
               std::uint64_t now);

  /// True when no usable session exists and the caller must rekey (via
  /// ratchet when can_ratchet() still holds, else a full handshake).
  /// Dead sessions encountered here are wiped and evicted.
  [[nodiscard]] bool needs_rekey(const cert::DeviceId& peer, std::uint64_t now);

  /// True when the session can advance one more epoch cheaply.
  [[nodiscard]] bool can_ratchet(const cert::DeviceId& peer, std::uint64_t now);

  /// Advances `peer` to the next key epoch: derives KS_{i+1} from KS_i,
  /// wipes the old keys, resets the record budget, age window and channel
  /// sequence numbers (retaining the previous epoch's receive window for up
  /// to 64 opens). Returns the new epoch index. kBadState
  /// when the session is missing or its ratchet budget is exhausted.
  Result<std::uint32_t> ratchet(const cert::DeviceId& peer, std::uint64_t now);

  /// Seals/opens application data for `peer`. kBadState when the session is
  /// missing or its budget is exhausted — stale keys cannot be used
  /// silently, exactly the property the paper asks for.
  Result<Bytes> seal(const cert::DeviceId& peer, ByteView plaintext, std::uint64_t now);
  Result<Bytes> open(const cert::DeviceId& peer, ByteView record, std::uint64_t now);

  /// Data-plane seal with a piggybacked epoch advance. The mode decision,
  /// the seal and the ratchet happen in ONE shard-lock critical section, so
  /// a concurrent worker can never split the announcement from the advance.
  /// When the record carries the signal, `*ratcheted` (if given) is set and
  /// the sender's chain is already at the next epoch on return.
  Result<Bytes> seal(const cert::DeviceId& peer, ByteView plaintext, std::uint64_t now,
                     DataRekey rekey, bool* ratcheted);

  /// Epoch-aware open: records sealed under the current epoch open on the
  /// live channel (applying any piggybacked ratchet signal); records sealed
  /// under the immediately previous epoch open through the acceptance
  /// window; anything else is rejected with kBadState WITHOUT touching any
  /// budget or delivery counter. `info` (optional) reports what happened.
  Result<Bytes> open(const cert::DeviceId& peer, ByteView record, std::uint64_t now,
                     OpenInfo* info);

  /// Retires a session and wipes its key material.
  void retire(const cert::DeviceId& peer);

  /// Bulk expiry sweep: wipes and evicts every dead session, locking one
  /// shard at a time (concurrent traffic on other shards is never blocked).
  /// Returns the number removed. A fleet endpoint calls this periodically
  /// so expired peers do not wait for their own next message to be
  /// reclaimed.
  std::size_t sweep(std::uint64_t now);

  /// Current epoch of `peer`'s session (nullopt when absent). Does not
  /// disturb LRU order.
  [[nodiscard]] std::optional<std::uint32_t> epoch(const cert::DeviceId& peer) const;

  /// Session role of `peer` (nullopt when absent).
  [[nodiscard]] std::optional<Role> session_role(const cert::DeviceId& peer) const;

  /// Copies `peer`'s current-epoch MAC key into `out` under the shard lock
  /// (ratchet announcements are authenticated under it); false when absent.
  /// A copy rather than a view: a view could dangle the instant another
  /// worker's install LRU-evicts the session. The copy is secret-tainted
  /// and wipes itself when the caller's Secret dies.
  [[nodiscard]] bool copy_peer_mac_key(const cert::DeviceId& peer,
                                       ct::Secret<kdf::SessionKeys::MacKey>& out) const;

  [[nodiscard]] std::size_t active_sessions() const {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return config_.capacity; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// Previous-epoch receive state retained after a ratchet (the acceptance
  /// window). The channel keeps its own key copy — it is the only surviving
  /// copy of the retired hierarchy and is wiped when the window closes.
  /// The constructor takes the channel by rvalue so make_unique constructs
  /// it directly in the heap object — no stack temporary holds the keys.
  struct PrevEpoch {
    PrevEpoch(SecureChannel&& retiring, std::uint64_t opens)
        : channel(std::move(retiring)), opens_left(opens) {}
    SecureChannel channel;
    std::uint64_t opens_left = 0;
  };
  struct Session {
    cert::DeviceId peer;
    kdf::SessionKeys keys;
    SecureChannel channel;
    Role role;
    std::uint64_t established_at = 0;  // reset at every epoch
    std::uint64_t records = 0;
    std::uint32_t epoch = 0;
    std::unique_ptr<PrevEpoch> prev;  // acceptance window, at most one epoch
  };
  struct Shard {
    mutable Mutex mutex;
    std::list<Session> lru GUARDED_BY(mutex);  // front = most recently used
    std::unordered_map<cert::DeviceId, std::list<Session>::iterator, DeviceIdHash> index
        GUARDED_BY(mutex);
  };

  [[nodiscard]] Shard& shard_for(const cert::DeviceId& peer);
  [[nodiscard]] const Shard& shard_for(const cert::DeviceId& peer) const;
  [[nodiscard]] bool usable(const Session& s, std::uint64_t now) const;
  [[nodiscard]] bool resumable(const Session& s, std::uint64_t now) const;
  /// Advances the session one epoch, rolling the retiring channel into the
  /// acceptance window. Caller checked resumable(). `shard` owns `s`; the
  /// REQUIRES is the PR 4 invariant — the decision, the seal and this
  /// advance share ONE critical section.
  std::uint32_t locked_ratchet(Shard& shard, Session& s, std::uint64_t now)
      REQUIRES(shard.mutex);
  void wipe_and_erase(Shard& shard, std::list<Session>::iterator it) REQUIRES(shard.mutex);
  /// Finds `peer` in `shard`, evicting it when dead; on a hit, refreshes
  /// LRU order.
  Session* locked_lookup(Shard& shard, const cert::DeviceId& peer, std::uint64_t now)
      REQUIRES(shard.mutex);
  /// Evicts one LRU victim while the store is over capacity. Locks at most
  /// one shard at a time; `inserting` is the shard that just grew (its own
  /// tail is the preferred victim, matching the old pre-insert semantics).
  /// Never entered with any shard lock held — it takes them itself.
  void evict_one(Shard& inserting) EXCLUDES(inserting.mutex);

  Role default_role_;
  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;
  std::atomic<std::size_t> size_{0};
  Stats stats_;
};

}  // namespace ecqv::proto
