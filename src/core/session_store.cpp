#include "core/session_store.hpp"

#include <algorithm>

namespace ecqv::proto {

namespace {

/// Out-of-epoch acceptance window: how many in-flight records sealed under
/// the PREVIOUS epoch may still open after a ratchet.
constexpr std::uint64_t kEpochWindowRecords = 64;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SessionStore::SessionStore(Role default_role, Config config)
    : default_role_(default_role), config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  const std::size_t shard_count = round_up_pow2(config_.shards == 0 ? 1 : config_.shards);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) shards_.push_back(std::make_unique<Shard>());
  shard_mask_ = shard_count - 1;
}

SessionStore::Shard& SessionStore::shard_for(const cert::DeviceId& peer) {
  return *shards_[DeviceIdHash{}(peer) & shard_mask_];
}

const SessionStore::Shard& SessionStore::shard_for(const cert::DeviceId& peer) const {
  return *shards_[DeviceIdHash{}(peer) & shard_mask_];
}

bool SessionStore::usable(const Session& s, std::uint64_t now) const {
  if (s.records >= config_.policy.max_records) return false;
  if (now < s.established_at) return false;  // clock went backwards
  if (config_.policy.max_age_seconds != UINT64_MAX &&
      now - s.established_at > config_.policy.max_age_seconds)
    return false;
  return true;
}

bool SessionStore::resumable(const Session& s, std::uint64_t now) const {
  if (s.epoch >= config_.max_epochs) return false;
  if (now < s.established_at) return false;
  // The epoch window itself must not have aged out: an expired session is
  // dead, not resumable — ratcheting cannot launder stale key material.
  if (config_.policy.max_age_seconds != UINT64_MAX &&
      now - s.established_at > config_.policy.max_age_seconds)
    return false;
  return true;
}

void SessionStore::wipe_and_erase(Shard& shard, std::list<Session>::iterator it) {
  it->keys.wipe();
  it->channel.wipe_keys();
  if (it->prev != nullptr) it->prev->channel.wipe_keys();
  shard.index.erase(it->peer);
  shard.lru.erase(it);
  size_.fetch_sub(1, std::memory_order_relaxed);
}

SessionStore::Session* SessionStore::locked_lookup(Shard& shard, const cert::DeviceId& peer,
                                                   std::uint64_t now) {
  const auto idx = shard.index.find(peer);
  if (idx == shard.index.end()) return nullptr;
  const auto it = idx->second;
  if (!usable(*it, now) && !resumable(*it, now)) {
    wipe_and_erase(shard, it);
    ++stats_.dead_evictions;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it);  // touch
  return &*it;
}

void SessionStore::evict_one(Shard& inserting) {
  // Preferred victim: the inserting shard's own LRU tail — but only while
  // the shard holds more than the session that was just inserted (the tail
  // must be an *old* entry, never the fresh install itself).
  {
    MutexLock lock(inserting.mutex);
    if (inserting.lru.size() > 1) {
      wipe_and_erase(inserting, std::prev(inserting.lru.end()));
      ++stats_.capacity_evictions;
      return;
    }
  }
  // The inserting shard has nothing old to give (rare — only under heavy
  // hash skew): evict from the fullest other shard. Shards are probed and
  // locked strictly one at a time; sizes read between locks are a
  // heuristic, and the final re-check under the victim's lock keeps the
  // operation safe when the picture shifted.
  Shard* victim = nullptr;
  std::size_t victim_size = 0;
  for (auto& shard : shards_) {
    if (shard.get() == &inserting) continue;
    MutexLock lock(shard->mutex);
    if (shard->lru.size() > victim_size) {
      victim = shard.get();
      victim_size = shard->lru.size();
    }
  }
  if (victim == nullptr) return;
  MutexLock lock(victim->mutex);
  if (victim->lru.empty()) return;
  wipe_and_erase(*victim, std::prev(victim->lru.end()));
  ++stats_.capacity_evictions;
}

void SessionStore::install(const cert::DeviceId& peer, const kdf::SessionKeys& keys,
                           std::uint64_t now) {
  install(peer, keys, default_role_, now);
}

void SessionStore::install(const cert::DeviceId& peer, const kdf::SessionKeys& keys, Role role,
                           std::uint64_t now) {
  Shard& shard = shard_for(peer);
  {
    MutexLock lock(shard.mutex);
    const auto idx = shard.index.find(peer);
    if (idx != shard.index.end()) wipe_and_erase(shard, idx->second);
    shard.lru.push_front(
        Session{peer, keys, SecureChannel(keys, role), role, now, 0, 0, nullptr});
    shard.index.emplace(peer, shard.lru.begin());
    size_.fetch_add(1, std::memory_order_relaxed);
    ++stats_.installs;
  }
  // Enforce the bound after the insert so no operation holds two shard
  // locks. Concurrent installs may momentarily overshoot by one session
  // each; every overshoot is reclaimed here before install returns.
  while (size_.load(std::memory_order_relaxed) > config_.capacity) evict_one(shard);
}

bool SessionStore::needs_rekey(const cert::DeviceId& peer, std::uint64_t now) {
  Shard& shard = shard_for(peer);
  MutexLock lock(shard.mutex);
  const Session* s = locked_lookup(shard, peer, now);
  return s == nullptr || !usable(*s, now);
}

bool SessionStore::can_ratchet(const cert::DeviceId& peer, std::uint64_t now) {
  Shard& shard = shard_for(peer);
  MutexLock lock(shard.mutex);
  const Session* s = locked_lookup(shard, peer, now);
  return s != nullptr && resumable(*s, now);
}

std::uint32_t SessionStore::locked_ratchet(Shard&, Session& s, std::uint64_t now) {
  // At most one previous epoch is ever retained: key material from epoch
  // i-1 dies the moment epoch i+1 begins, whatever its window had left.
  if (s.prev != nullptr) {
    s.prev->channel.wipe_keys();
    s.prev.reset();
  }
  s.prev = std::make_unique<PrevEpoch>(std::move(s.channel), kEpochWindowRecords);
  kdf::ratchet_session_keys_in_place(s.keys, s.epoch + 1);
  // rekey() first wipes the channel's residual key copy — the moved-from
  // husk after the window roll (array "moves" are copies) — then installs
  // the new hierarchy in place: no stack temporary holds either epoch's
  // keys.
  s.channel.rekey(s.keys, s.epoch + 1);
  ++s.epoch;
  s.records = 0;
  s.established_at = now;
  ++stats_.ratchets;
  return s.epoch;
}

Result<std::uint32_t> SessionStore::ratchet(const cert::DeviceId& peer, std::uint64_t now) {
  Shard& shard = shard_for(peer);
  MutexLock lock(shard.mutex);
  Session* s = locked_lookup(shard, peer, now);
  if (s == nullptr || !resumable(*s, now)) return Error::kBadState;
  return locked_ratchet(shard, *s, now);
}

Result<Bytes> SessionStore::seal(const cert::DeviceId& peer, ByteView plaintext,
                                 std::uint64_t now) {
  return seal(peer, plaintext, now, DataRekey::kNone, nullptr);
}

Result<Bytes> SessionStore::seal(const cert::DeviceId& peer, ByteView plaintext,
                                 std::uint64_t now, DataRekey rekey, bool* ratcheted) {
  Shard& shard = shard_for(peer);
  MutexLock lock(shard.mutex);
  Session* s = locked_lookup(shard, peer, now);
  if (s == nullptr) return Error::kBadState;
  bool signal = false;
  if (!usable(*s, now)) {
    // The budget is spent but the chain is live (a session surviving
    // locked_lookup in this state can only have spent its RECORD budget —
    // resumable() re-checks age and clock). Opens share the budget, so the
    // boundary can be crossed without a seal ever seeing records+1 ==
    // max_records; the rekey announcement itself is still allowed out as
    // one bounded overshoot record (TLS sends KeyUpdate *at* the limit).
    // Plain kNone seals keep failing — stale keys still cannot be used.
    if (rekey == DataRekey::kNone || !resumable(*s, now)) return Error::kBadState;
    signal = true;
  } else {
    switch (rekey) {
      case DataRekey::kNone:
        break;
      case DataRekey::kRatchet:
        if (!resumable(*s, now)) return Error::kBadState;
        signal = true;
        break;
      case DataRekey::kAuto:
        // Piggyback exactly when this record spends the epoch's record
        // budget and the chain can still move — the next seal would
        // otherwise fail and force a standalone RK1 mid-stream.
        signal = s->records + 1 >= config_.policy.max_records && resumable(*s, now);
        break;
    }
  }
  Bytes record = s->channel.seal(plaintext, signal ? SecureChannel::kFlagRatchet : 0);
  ++stats_.seals;
  if (signal) {
    // Advance in the same critical section that sealed the announcement:
    // our very next record is already epoch i+1, so the wire never carries
    // two epochs' worth of flagged records for one advance.
    ++stats_.ratchet_signals_sent;
    locked_ratchet(shard, *s, now);
    if (ratcheted != nullptr) *ratcheted = true;
  } else {
    ++s->records;
  }
  return record;
}

Result<Bytes> SessionStore::open(const cert::DeviceId& peer, ByteView record, std::uint64_t now) {
  return open(peer, record, now, nullptr);
}

Result<Bytes> SessionStore::open(const cert::DeviceId& peer, ByteView record, std::uint64_t now,
                                 OpenInfo* info) {
  Shard& shard = shard_for(peer);
  MutexLock lock(shard.mutex);
  Session* s = locked_lookup(shard, peer, now);
  if (s == nullptr) return Error::kBadState;
  const auto epoch = SecureChannel::peek_epoch(record, s->keys.suite);
  if (!epoch.ok()) return epoch.error();

  if (epoch.value() == s->epoch) {
    if (!usable(*s, now)) {
      // Spent record budget, live chain: accept exactly the peer's rekey
      // announcement (a flagged current-epoch record) — the mirror of the
      // overshoot seal above; both counters track the same record stream,
      // so when the sender hits the limit the receiver is at it too. The
      // flag only steers routing; the record MAC decides authenticity.
      const auto flags = SecureChannel::peek_flags(record, s->keys.suite);
      if (!flags.ok()) return flags.error();
      if ((flags.value() & SecureChannel::kFlagRatchet) == 0 || !resumable(*s, now))
        return Error::kBadState;
    }
    auto plaintext = s->channel.open(record);
    if (!plaintext.ok()) return plaintext;  // rejected: no budget/counter moves
    ++s->records;
    ++stats_.opens;
    const std::uint8_t flags = SecureChannel::peek_flags(record, s->keys.suite).value();
    if ((flags & SecureChannel::kFlagRatchet) != 0) {
      if (resumable(*s, now)) {
        locked_ratchet(shard, *s, now);
        ++stats_.ratchet_signals_applied;
        if (info != nullptr) info->ratchet_applied = true;
      } else {
        // Epoch advance colliding with the max_epochs escalation: the
        // record is genuine and delivered, but the chain is spent — the
        // session's next refresh() escalates to a full STS rekey instead.
        ++stats_.ratchet_signals_refused;
        if (info != nullptr) info->ratchet_refused = true;
      }
    }
    return plaintext;
  }

  if (s->prev != nullptr && epoch.value() == s->prev->channel.epoch() &&
      s->prev->opens_left > 0) {
    // In-flight record that straddled the epoch boundary — accepted even
    // when the CURRENT epoch's budget is spent: window opens are billed to
    // the old epoch (no ++records below) and bounded by opens_left, so the
    // fresh budget's state is irrelevant here. A ratchet flag at the
    // previous epoch is stale — we already advanced past it (the
    // simultaneous-signal collision) — so it must never advance us again:
    // that is the double-advance protection for crossing announcements.
    auto plaintext = s->prev->channel.open(record);
    if (!plaintext.ok()) return plaintext;
    if (--s->prev->opens_left == 0) {
      s->prev->channel.wipe_keys();
      s->prev.reset();
    }
    // No ++s->records: the sender already billed this record to the OLD
    // epoch's budget before ratcheting. Charging it to the fresh epoch
    // would let straddling traffic double-count and exhaust the new budget
    // before it carried a single new-epoch record; the window's own
    // opens_left is the bound on this path.
    ++stats_.opens;
    ++stats_.window_opens;
    if (info != nullptr) info->via_window = true;
    return plaintext;
  }

  ++stats_.epoch_rejects;
  return Error::kBadState;
}

void SessionStore::retire(const cert::DeviceId& peer) {
  Shard& shard = shard_for(peer);
  MutexLock lock(shard.mutex);
  const auto idx = shard.index.find(peer);
  if (idx == shard.index.end()) return;
  wipe_and_erase(shard, idx->second);
}

std::size_t SessionStore::sweep(std::uint64_t now) {
  std::size_t removed = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      const auto next = std::next(it);
      if (!usable(*it, now) && !resumable(*it, now)) {
        wipe_and_erase(*shard, it);
        ++stats_.dead_evictions;
        ++removed;
      }
      it = next;
    }
  }
  return removed;
}

std::optional<std::uint32_t> SessionStore::epoch(const cert::DeviceId& peer) const {
  const Shard& shard = shard_for(peer);
  MutexLock lock(shard.mutex);
  const auto idx = shard.index.find(peer);
  if (idx == shard.index.end()) return std::nullopt;
  return idx->second->epoch;
}

std::optional<Role> SessionStore::session_role(const cert::DeviceId& peer) const {
  const Shard& shard = shard_for(peer);
  MutexLock lock(shard.mutex);
  const auto idx = shard.index.find(peer);
  if (idx == shard.index.end()) return std::nullopt;
  return idx->second->role;
}

bool SessionStore::copy_peer_mac_key(const cert::DeviceId& peer,
                                     ct::Secret<kdf::SessionKeys::MacKey>& out) const {
  const Shard& shard = shard_for(peer);
  MutexLock lock(shard.mutex);
  const auto idx = shard.index.find(peer);
  if (idx == shard.index.end()) return false;
  out = idx->second->keys.mac_key;
  return true;
}

}  // namespace ecqv::proto
