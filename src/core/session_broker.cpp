#include "core/session_broker.hpp"

#include <algorithm>

#include "common/wipe.hpp"
#include "hash/hmac.hpp"

namespace ecqv::proto {

namespace {

// RK1 payload: be32(new_epoch) || HMAC-SHA256(mac_key_i, label || role || epoch).
// Keyed with the *current* (pre-ratchet) epoch's MAC key: only the two
// session holders can move the chain forward, and the epoch index in both
// payload and MAC input stops replays from re-applying an announcement.
constexpr std::string_view kRatchetLabel = "ecqv-ratchet-v1";
// RK2 payload mirrors RK1 (be32(epoch) || HMAC) but is keyed with the
// *post*-ratchet epoch's MAC key under its own label: producing it proves
// the acker actually advanced the chain, and the label + role byte keep it
// from ever colliding with an RK1 MAC.
constexpr std::string_view kRatchetAckLabel = "ecqv-ratchet-ack-v1";
constexpr std::size_t kRatchetPayloadSize = 4 + hash::kSha256DigestSize;

std::uint8_t ratchet_role_byte(Role sender) {
  return sender == Role::kInitiator ? 0xA5 : 0xB5;
}

hash::Digest keyed_epoch_mac(std::string_view label, ByteView mac_key, Role sender,
                             std::uint32_t epoch) {
  std::array<std::uint8_t, 4> epoch_be{};
  store_be32(ByteSpan(epoch_be), epoch);
  const std::uint8_t role = ratchet_role_byte(sender);
  return hash::hmac_sha256(mac_key, {bytes_of(label), ByteView(&role, 1), ByteView(epoch_be)});
}

hash::Digest ratchet_mac(ByteView mac_key, Role sender, std::uint32_t new_epoch) {
  return keyed_epoch_mac(kRatchetLabel, mac_key, sender, new_epoch);
}

hash::Digest ratchet_ack_mac(ByteView mac_key, Role sender, std::uint32_t epoch) {
  return keyed_epoch_mac(kRatchetAckLabel, mac_key, sender, epoch);
}

Message epoch_message(std::string_view step, Role sender, std::uint32_t epoch,
                      const hash::Digest& mac) {
  Message out;
  out.sender = sender;
  out.step = std::string(step);
  out.payload.resize(kRatchetPayloadSize);
  store_be32(ByteSpan(out.payload).subspan(0, 4), epoch);
  std::copy(mac.begin(), mac.end(), out.payload.begin() + 4);
  return out;
}

/// Byte-identity of two fabric messages — what "the peer retransmitted
/// this" means. Anything that differs in any byte is NOT a retransmission
/// and goes through the normal (poisoning) paths.
bool same_message(const Message& a, const Message& b) {
  return a.sender == b.sender && a.step == b.step && a.payload == b.payload;
}

// Retransmission backoff: attempt k waits min(rto_ms * kBackoff^(k-1),
// kMaxRtoMs), jittered by +-kJitterFrac.
constexpr double kBackoff = 2.0;
constexpr double kMaxRtoMs = 800.0;
constexpr double kJitterFrac = 0.25;
// Backpressure bound on armed timers: at the cap, new exchanges run without
// retransmission cover (counted in stats.backpressure) instead of growing
// the heap without bound.
constexpr std::size_t kMaxTracked = 4096;

}  // namespace

SessionBroker::SessionBroker(const Credentials& creds, rng::Rng& rng, BrokerConfig config)
    : creds_(creds),
      rng_(rng),
      config_(std::move(config)),
      store_(Role::kResponder, config_.store),
      cache_(config_.peer_cache_capacity) {}

double SessionBroker::rto_after(const cert::DeviceId& peer, std::uint32_t attempts,
                                std::uint64_t gen) const {
  double base = config_.reliability.rto_ms;
  for (std::uint32_t i = 1; i < attempts && base < kMaxRtoMs; ++i) base *= kBackoff;
  base = std::min(base, kMaxRtoMs);
  // Deterministic jitter from (peer, attempt, generation): replayable from
  // a seed, yet no two exchanges back off in lockstep.
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : peer.bytes) h = (h ^ b) * 1099511628211ull;
  h = (h ^ attempts) * 1099511628211ull;
  h = (h ^ gen) * 1099511628211ull;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return base * (1.0 + kJitterFrac * (2.0 * u - 1.0));
}

void SessionBroker::arm(double due_ms, const cert::DeviceId& peer, TimerQueue::Kind kind,
                        std::uint64_t gen) {
  if (timers_.size() >= kMaxTracked) {
    ++stats_.backpressure;  // exchange runs uncovered; TTL sweep still applies
    return;
  }
  timers_.schedule(due_ms, peer, kind, gen);
}

void SessionBroker::strike(PendingShard& shard, const cert::DeviceId& peer) {
  if (++shard.strikes[peer] == config_.reliability.dead_after) ++stats_.dead_peers;
}

bool SessionBroker::peer_dead(const cert::DeviceId& peer) {
  PendingShard& shard = pending_shard(peer);
  MutexLock lock(shard.mutex);
  const auto it = shard.strikes.find(peer);
  return it != shard.strikes.end() && it->second >= config_.reliability.dead_after;
}

StsConfig SessionBroker::sts_config(std::uint64_t now) {
  StsConfig sts = config_.sts;
  sts.now = now;
  sts.peer_cache = &cache_;
  return sts;
}

bool SessionBroker::ensure_pending_capacity(PendingShard& shard, const cert::DeviceId& peer,
                                            std::uint64_t now) {
  // Runs before the caller takes the shard lock: sweep_pending() visits
  // every shard one at a time and must never nest inside one of them. The
  // bound is soft under concurrency (racing admissions may overshoot by a
  // few entries); it exists to cap memory, not to count precisely. A peer
  // that is already pending is always admitted — replacing its entry does
  // not grow the map.
  if (pending_count_.load(std::memory_order_relaxed) < config_.max_pending) return true;
  {
    MutexLock lock(shard.mutex);
    if (shard.map.find(peer) != shard.map.end()) return true;
  }
  sweep_pending(now);
  return pending_count_.load(std::memory_order_relaxed) < config_.max_pending;
}

Result<Message> SessionBroker::connect(const cert::DeviceId& peer, std::uint64_t now) {
  PendingShard& shard = pending_shard(peer);
  if (!ensure_pending_capacity(shard, peer, now)) return Error::kBadState;
  MutexLock lock(shard.mutex);
  auto party = std::make_unique<StsInitiator>(creds_, rng_, sts_config(now));
  auto first = party->start();
  if (!first.has_value()) return Error::kInternal;
  Pending pending;
  pending.party = std::move(party);
  pending.role = Role::kInitiator;
  pending.started_at = now;
  pending.started_ms = clock_ms();
  if (reliable()) {
    pending.last_out = *first;
    pending.gen = gen_counter_.fetch_add(1, std::memory_order_relaxed);
    // A fresh handshake supersedes the previous one's replay afterlife.
    shard.finished.erase(peer);
    arm(clock_ms() + rto_after(peer, 1, pending.gen), peer, TimerQueue::Kind::kHandshake,
        pending.gen);
  }
  const bool inserted = shard.map.insert_or_assign(peer, std::move(pending)).second;
  if (inserted) pending_count_.fetch_add(1, std::memory_order_relaxed);
  ++stats_.handshakes_started;
  return std::move(*first);
}

Result<std::optional<Message>> SessionBroker::drive(PendingShard& shard,
                                                    const cert::DeviceId& peer, Pending& pending,
                                                    const Message& incoming, std::uint64_t now,
                                                    bool resident) {
  // "Erase the resident entry" is spelled out at each failure/completion
  // site (not a lambda: the thread-safety analysis cannot see a lambda
  // body's REQUIRES context). Only drop the map entry when the
  // failing/completing party IS the map entry; a fresh A1 replacement that
  // fails must not destroy a healthy in-flight handshake.
  auto reply = pending.party->on_message(incoming);
  if (!reply) {
    if (resident) {
      shard.map.erase(peer);
      pending_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    ++stats_.handshakes_failed;
    return reply.error();
  }
  if (pending.party->established()) {
    // The transport address must match the authenticated identity — a
    // session installed under a different id than the certificate subject
    // would route another peer's records to these keys.
    if (!(pending.party->peer_id() == peer)) {
      if (resident) {
        shard.map.erase(peer);
        pending_count_.fetch_sub(1, std::memory_order_relaxed);
      }
      ++stats_.handshakes_failed;
      return Error::kAuthenticationFailed;
    }
    store_.install(peer, pending.party->session_keys(), pending.role, now);
    // The flight that opened the exchange — saved now because for resident
    // entries `pending` aliases the map node the erase below destroys.
    Message opener;
    if (reliable()) opener = std::move(pending.last_in);
    if (resident) {
      shard.map.erase(peer);
      pending_count_.fetch_sub(1, std::memory_order_relaxed);
    }
    ++stats_.handshakes_completed;
    if (reliable()) {
      // Afterlife: if our final reply (or silence) is lost, the peer will
      // retransmit its last flight — answer it from this cache instead of
      // feeding a poisonous replay into a fresh party.
      Finished finished;
      finished.first_in = std::move(opener);
      finished.last_in = incoming;
      if (reply->has_value()) finished.reply = **reply;
      finished.gen = gen_counter_.fetch_add(1, std::memory_order_relaxed);
      finished.expires_ms = clock_ms() + config_.reliability.finished_ttl_ms;
      arm(finished.expires_ms, peer, TimerQueue::Kind::kFinished, finished.gen);
      shard.finished[peer] = std::move(finished);
      shard.strikes.erase(peer);  // the peer answered: provably alive
    }
  }
  return reply;
}

Result<std::optional<Message>> SessionBroker::on_message(const cert::DeviceId& peer,
                                                         const Message& incoming,
                                                         std::uint64_t now) {
  if (incoming.step == kRatchetStep) return on_ratchet(peer, incoming, now);
  if (incoming.step == kRatchetAckStep) return on_ratchet_ack(peer, incoming);
  if (incoming.step == kDataStep) return on_data(peer, incoming, now);

  PendingShard& shard = pending_shard(peer);
  if (incoming.step == "A1") {
    if (!ensure_pending_capacity(shard, peer, now)) return Error::kBadState;
    MutexLock lock(shard.mutex);
    const auto existing = shard.map.find(peer);
    // A byte-identical repeat of the A1 we already answered is the peer's
    // retransmission (our B1 was lost): re-elicit the same B1 without
    // touching the party — a second feed would poison its state machine.
    if (reliable() && existing != shard.map.end() && existing->second.last_out.has_value() &&
        same_message(incoming, existing->second.last_in)) {
      ++stats_.duplicates_ignored;
      return std::optional<Message>(*existing->second.last_out);
    }
    // A straggler of the A1 that opened an already-completed handshake
    // (duplicated or reordered past its own completion) must not seed a
    // fresh responder: the orphan's B1 would poison the peer's live party.
    if (reliable()) {
      const auto fin = shard.finished.find(peer);
      if (fin != shard.finished.end() && same_message(incoming, fin->second.first_in)) {
        ++stats_.duplicates_ignored;
        return std::optional<Message>(std::nullopt);
      }
    }
    // Simultaneous open: both endpoints sent A1 at once. Exactly one side
    // must yield its initiator role or the crossing handshakes deadlock.
    // Tie-break on identity: the larger id keeps initiating and ignores
    // the peer's A1 (its own A1 is already in flight and the smaller-id
    // side will answer it); the smaller id falls through and responds.
    // Only a *live* initiator justifies the swallow — if ours stalled past
    // the TTL (our A1 was probably lost) or the clock regressed, yielding
    // to the inbound handshake is the only path that still converges.
    const auto initiator_live = [&](const Pending& p) {
      if (clock_ != nullptr) {
        // Virtual-clock fabrics measure handshake age on the transport's
        // simulated milliseconds (S1): wall time never advances in a
        // simulated lossy timeline, so TTL decisions must not use it.
        const double now_ms = clock_->now_ms();
        const double ttl_ms = static_cast<double>(config_.pending_ttl_seconds) * 1000.0;
        return now_ms >= p.started_ms && now_ms - p.started_ms <= ttl_ms;
      }
      return now >= p.started_at && now - p.started_at <= config_.pending_ttl_seconds;
    };
    if (existing != shard.map.end() && existing->second.role == Role::kInitiator &&
        initiator_live(existing->second) && peer.bytes < creds_.id.bytes)
      return std::optional<Message>(std::nullopt);
    // Fresh inbound handshake; it replaces any stalled in-flight one with
    // this peer (the established session, if any, stays live until the new
    // keys install).
    Pending pending;
    pending.party = std::make_unique<StsResponder>(creds_, rng_, sts_config(now));
    pending.role = Role::kResponder;
    pending.started_at = now;
    pending.started_ms = clock_ms();
    auto reply = drive(shard, peer, pending, incoming, now, /*resident=*/false);
    if (reply.ok()) {
      if (reliable()) {
        pending.last_in = incoming;
        if (reply->has_value()) pending.last_out = **reply;
        pending.gen = gen_counter_.fetch_add(1, std::memory_order_relaxed);
        // Responders arm no retransmission timer: every responder flight
        // answers an initiator flight, and the initiator's retransmits
        // re-elicit it through the duplicate path above.
      }
      const bool inserted = shard.map.insert_or_assign(peer, std::move(pending)).second;
      if (inserted) pending_count_.fetch_add(1, std::memory_order_relaxed);
    }
    ++stats_.handshakes_started;
    return reply;
  }

  MutexLock lock(shard.mutex);
  const auto it = shard.map.find(peer);
  if (it == shard.map.end()) {
    if (reliable()) {
      // No live handshake. Either this is the retransmitted final flight
      // of one we just completed (answer idempotently from the afterlife
      // cache) or it is late junk from an exchange that no longer exists —
      // on a lossy link neither is an error worth poisoning counters for.
      const auto fin = shard.finished.find(peer);
      if (fin != shard.finished.end() && same_message(incoming, fin->second.last_in)) {
        ++stats_.duplicates_ignored;
        if (fin->second.reply.has_value())
          return std::optional<Message>(*fin->second.reply);
        return std::optional<Message>(std::nullopt);
      }
      ++stats_.stale_ignored;
      return std::optional<Message>(std::nullopt);
    }
    return Error::kBadState;
  }
  if (reliable() && it->second.last_out.has_value() &&
      same_message(incoming, it->second.last_in)) {
    ++stats_.duplicates_ignored;
    return std::optional<Message>(*it->second.last_out);
  }
  // A conflicting version of a step we already consumed — e.g. the B1 of
  // an orphan handshake raced past its origin by reordering — would poison
  // the live party, which has moved beyond that step. Byte-identical
  // repeats are retransmissions; same-step/different-bytes is late junk.
  if (reliable() && incoming.step == it->second.last_in.step &&
      !same_message(incoming, it->second.last_in)) {
    ++stats_.stale_ignored;
    return std::optional<Message>(std::nullopt);
  }
  auto reply = drive(shard, peer, it->second, incoming, now, /*resident=*/true);
  if (reliable() && reply.ok()) record_exchange(shard, peer, incoming, *reply);
  return reply;
}

void SessionBroker::record_exchange(PendingShard& shard, const cert::DeviceId& peer,
                                    const Message& incoming,
                                    const std::optional<Message>& reply) {
  // Shard lock held. The entry is gone when the exchange completed the
  // handshake (drive() erased it; the finished cache took over).
  const auto it = shard.map.find(peer);
  if (it == shard.map.end()) return;
  Pending& pending = it->second;
  pending.last_in = incoming;
  if (!reply.has_value()) return;
  pending.last_out = *reply;
  pending.attempts = 1;
  pending.gen = gen_counter_.fetch_add(1, std::memory_order_relaxed);  // cancels old timer
  if (pending.role == Role::kInitiator)
    arm(clock_ms() + rto_after(peer, 1, pending.gen), peer, TimerQueue::Kind::kHandshake,
        pending.gen);
}

bool SessionBroker::session_ready(const cert::DeviceId& peer, std::uint64_t now) {
  return !store_.needs_rekey(peer, now);
}

Result<Message> SessionBroker::initiate_ratchet(const cert::DeviceId& peer, std::uint64_t now) {
  if (!store_.can_ratchet(peer, now)) return Error::kBadState;
  const auto role = store_.session_role(peer);
  const auto current = store_.epoch(peer);
  if (!role.has_value() || !current.has_value()) return Error::kBadState;
  const std::uint32_t new_epoch = *current + 1;
  // MAC under the *current* keys (a copy taken under the shard lock — the
  // session may be LRU-evicted by another worker at any point), then
  // advance our own side; if the session vanished in between, ratchet()
  // fails and no announcement leaves.
  ct::Secret<kdf::SessionKeys::MacKey> mac_key;
  if (!store_.copy_peer_mac_key(peer, mac_key)) return Error::kBadState;
  const hash::Digest mac = ratchet_mac(mac_key.bytes(), *role, new_epoch);
  auto advanced = store_.ratchet(peer, now);
  if (!advanced) return advanced.error();

  Message announce = epoch_message(kRatchetStep, *role, new_epoch, mac);
  ++stats_.ratchets_sent;
  if (reliable()) {
    // Track the announcement until its RK2 ack: the timer retransmits it,
    // and a spent budget escalates to a full rekey (poll_retransmits).
    PendingShard& shard = pending_shard(peer);
    MutexLock lock(shard.mutex);
    RatchetAwait await;
    await.announce = announce;
    await.new_epoch = new_epoch;
    await.gen = gen_counter_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t gen = await.gen;
    if (shard.awaits.insert_or_assign(peer, std::move(await)).second)
      await_count_.fetch_add(1, std::memory_order_relaxed);
    arm(clock_ms() + rto_after(peer, 1, gen), peer, TimerQueue::Kind::kRatchet, gen);
  }
  return announce;
}

/// Builds the RK2 for an epoch we now hold. nullopt when the session
/// vanished in between (LRU eviction) — nothing to ack with.
static std::optional<Message> make_ratchet_ack(SessionStore& store, const cert::DeviceId& peer,
                                               std::uint32_t epoch, Role our_role) {
  ct::Secret<kdf::SessionKeys::MacKey> mac_key;
  if (!store.copy_peer_mac_key(peer, mac_key)) return std::nullopt;
  const hash::Digest mac = ratchet_ack_mac(mac_key.bytes(), our_role, epoch);
  return epoch_message(ecqv::proto::kRatchetAckStepLabel, our_role, epoch, mac);
}

Result<std::optional<Message>> SessionBroker::on_ratchet(const cert::DeviceId& peer,
                                                         const Message& incoming,
                                                         std::uint64_t now) {
  if (incoming.payload.size() != kRatchetPayloadSize) return Error::kBadLength;
  const auto our_role = store_.session_role(peer);
  const auto current = store_.epoch(peer);
  if (!our_role.has_value() || !current.has_value()) return Error::kBadState;

  const std::uint32_t announced = load_be32(ByteView(incoming.payload).subspan(0, 4));
  // The duplicate check runs BEFORE the budget gate: a retransmitted RK1
  // for the chain's final allowed epoch must still be re-acked even though
  // no further ratchet is possible.
  if (reliable() && announced <= *current) {
    // Lossy-link leftovers. announced == current: we already applied this
    // ratchet but our RK2 was lost and the peer is retransmitting — re-ack
    // (the RK2 MAC is keyed with the post-ratchet epoch we now hold, so we
    // can always rebuild it; state does not move). Anything older is junk.
    if (announced == *current) {
      ++stats_.duplicates_ignored;
      auto ack = make_ratchet_ack(store_, peer, announced, *our_role);
      if (ack.has_value()) ++stats_.ratchet_acks_sent;
      return std::optional<Message>(std::move(ack));
    }
    ++stats_.stale_ignored;
    return std::optional<Message>(std::nullopt);
  }
  if (!store_.can_ratchet(peer, now)) return Error::kBadState;
  if (announced != *current + 1) return Error::kBadState;  // lockstep only
  const Role sender_role =
      *our_role == Role::kInitiator ? Role::kResponder : Role::kInitiator;
  ct::Secret<kdf::SessionKeys::MacKey> mac_key;
  if (!store_.copy_peer_mac_key(peer, mac_key)) return Error::kBadState;
  const hash::Digest expected = ratchet_mac(mac_key.bytes(), sender_role, announced);
  if (!ct_equal(ByteView(incoming.payload).subspan(4), ByteView(expected)))
    return Error::kAuthenticationFailed;

  auto advanced = store_.ratchet(peer, now);
  if (!advanced) return advanced.error();
  ++stats_.ratchets_received;
  if (reliable()) {
    auto ack = make_ratchet_ack(store_, peer, announced, *our_role);
    if (ack.has_value()) ++stats_.ratchet_acks_sent;
    return std::optional<Message>(std::move(ack));
  }
  return std::optional<Message>(std::nullopt);
}

Result<std::optional<Message>> SessionBroker::on_ratchet_ack(const cert::DeviceId& peer,
                                                             const Message& incoming) {
  // RK2 only exists on reliability-armed fabrics; elsewhere it is an
  // unknown step.
  if (!reliable()) return Error::kBadState;
  if (incoming.payload.size() != kRatchetPayloadSize) return Error::kBadLength;
  const std::uint32_t epoch = load_be32(ByteView(incoming.payload).subspan(0, 4));

  PendingShard& shard = pending_shard(peer);
  MutexLock lock(shard.mutex);
  const auto it = shard.awaits.find(peer);
  if (it == shard.awaits.end() || it->second.new_epoch != epoch) {
    // Nothing outstanding (already acked, or the await escalated): a
    // duplicated/reordered RK2 straggler, not an error.
    ++stats_.stale_ignored;
    return std::optional<Message>(std::nullopt);
  }
  const auto our_role = store_.session_role(peer);
  if (!our_role.has_value()) {
    ++stats_.stale_ignored;
    return std::optional<Message>(std::nullopt);
  }
  const Role sender_role = *our_role == Role::kInitiator ? Role::kResponder : Role::kInitiator;
  ct::Secret<kdf::SessionKeys::MacKey> mac_key;
  if (!store_.copy_peer_mac_key(peer, mac_key)) {
    ++stats_.stale_ignored;
    return std::optional<Message>(std::nullopt);
  }
  // We advanced when we announced, so our current MAC key IS the epoch the
  // ack is keyed with.
  const hash::Digest expected = ratchet_ack_mac(mac_key.bytes(), sender_role, epoch);
  if (!ct_equal(ByteView(incoming.payload).subspan(4), ByteView(expected)))
    return Error::kAuthenticationFailed;
  shard.awaits.erase(it);  // timer dies by generation mismatch
  await_count_.fetch_sub(1, std::memory_order_relaxed);
  ++stats_.ratchet_acks_received;
  return std::optional<Message>(std::nullopt);
}

Result<std::optional<Message>> SessionBroker::on_data(const cert::DeviceId& peer,
                                                      const Message& incoming,
                                                      std::uint64_t now) {
  // A record rejected here (bad MAC, replay, epoch outside the acceptance
  // window) must leave every counter untouched — records_delivered only
  // moves for records actually handed to the application.
  SessionStore::OpenInfo info;
  auto plaintext = store_.open(peer, incoming.payload, now, &info);
  if (!plaintext.ok()) return plaintext.error();
  ++stats_.records_delivered;
  if (info.ratchet_applied) ++stats_.piggyback_received;
  if (info.ratchet_refused) ++stats_.piggyback_refused;
  if (config_.on_data) config_.on_data(peer, std::move(plaintext).value());
  return std::optional<Message>(std::nullopt);
}

Result<Message> SessionBroker::refresh(const cert::DeviceId& peer, std::uint64_t now) {
  if (store_.can_ratchet(peer, now)) return initiate_ratchet(peer, now);
  auto first = connect(peer, now);
  // Count the escalation only when the handshake actually launched — a
  // connect() rejected at pending capacity must not drift the counter.
  if (first.ok()) ++stats_.full_rekeys;
  return first;
}

Result<Bytes> SessionBroker::seal(const cert::DeviceId& peer, ByteView plaintext,
                                  std::uint64_t now) {
  return store_.seal(peer, plaintext, now);
}

Result<Bytes> SessionBroker::open(const cert::DeviceId& peer, ByteView record,
                                  std::uint64_t now) {
  return store_.open(peer, record, now);
}

Result<Message> SessionBroker::make_data(const cert::DeviceId& peer, ByteView plaintext,
                                         std::uint64_t now, DataRekey rekey) {
  bool ratcheted = false;
  auto record = store_.seal(peer, plaintext, now, rekey, &ratcheted);
  if (!record.ok()) return record.error();
  if (ratcheted) ++stats_.piggyback_sent;
  Message message;
  message.sender = store_.session_role(peer).value_or(Role::kInitiator);
  message.step = std::string(kDataStep);
  message.payload = std::move(record).value();
  return message;
}

std::size_t SessionBroker::enroll_batch(const std::vector<cert::Certificate>& certificates) {
  return cache_.prewarm(certificates, creds_.ca_public);
}

std::vector<bool> SessionBroker::verify_batch(const VerifyRequest* requests, std::size_t n,
                                              sig::BatchVerifyStats* stats) {
  // Pin every peer's cache entry for the duration: the batch verifier holds
  // raw table pointers, and another thread's enroll/evict must not be able
  // to free a table mid-pass.
  std::vector<PeerKeyCache::EntryPtr> pins(n);
  std::vector<sig::BatchVerifyItem> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    pins[i] = cache_.peek(requests[i].peer);
    items[i].q_table = pins[i] != nullptr ? &pins[i]->table : nullptr;
    items[i].digest = requests[i].digest;
    items[i].sig = requests[i].sig;
  }
  return sig::verify_digest_batch(items.data(), n, rng_, stats);
}

std::vector<bool> SessionBroker::verify_batch(const std::vector<VerifyRequest>& requests,
                                              sig::BatchVerifyStats* stats) {
  return verify_batch(requests.data(), requests.size(), stats);
}

std::size_t SessionBroker::sweep_pending(std::uint64_t now) {
  std::size_t removed = 0;
  // With a transport clock bound (S1), handshake age is measured on the
  // virtual-time axis — pending_ttl_seconds worth of simulated
  // milliseconds — so a lossy simulated timeline expires stalled
  // handshakes deterministically without wall time moving at all.
  const double now_ms = clock_ms();
  const double ttl_ms = static_cast<double>(config_.pending_ttl_seconds) * 1000.0;
  for (auto& shard : pending_) {
    MutexLock lock(shard.mutex);
    if (reliable()) {
      for (auto fin = shard.finished.begin(); fin != shard.finished.end();)
        fin = now_ms > fin->second.expires_ms ? shard.finished.erase(fin) : std::next(fin);
    }
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      // Clock regression kills the entry too (mirrors SessionStore::usable):
      // a handshake "started in the future" can never legitimately finish.
      const bool stalled =
          clock_ != nullptr
              ? (now_ms < it->second.started_ms || now_ms - it->second.started_ms > ttl_ms)
              : (now < it->second.started_at ||
                 now - it->second.started_at > config_.pending_ttl_seconds);
      if (stalled) {
        it = shard.map.erase(it);
        pending_count_.fetch_sub(1, std::memory_order_relaxed);
        ++stats_.pending_expired;
        ++removed;
      } else {
        ++it;
      }
    }
  }
  return removed;
}

std::size_t SessionBroker::sweep(std::uint64_t now) {
  return store_.sweep(now) + sweep_pending(now);
}

std::vector<SessionBroker::Outbound> SessionBroker::poll_retransmits(double now_ms,
                                                                     std::uint64_t now) {
  std::vector<Outbound> out;
  if (!reliable()) return out;
  std::vector<cert::DeviceId> escalate;
  for (const TimerQueue::Entry& entry : timers_.expire(now_ms)) {
    PendingShard& shard = pending_shard(entry.peer);
    MutexLock lock(shard.mutex);
    switch (entry.kind) {
      case TimerQueue::Kind::kHandshake: {
        const auto it = shard.map.find(entry.peer);
        // Generation mismatch = the exchange this timer covered already
        // moved on (answered, replaced, or completed): lazy cancellation.
        if (it == shard.map.end() || it->second.gen != entry.gen ||
            !it->second.last_out.has_value())
          break;
        Pending& pending = it->second;
        if (pending.attempts >= config_.reliability.handshake_budget) {
          // Budget spent: the handshake aborts — cleanly, with its own
          // stat — and the peer takes a dead-peer strike.
          shard.map.erase(it);
          pending_count_.fetch_sub(1, std::memory_order_relaxed);
          ++stats_.handshakes_aborted;
          strike(shard, entry.peer);
          break;
        }
        ++pending.attempts;
        ++stats_.retransmits;
        out.push_back(Outbound{entry.peer, *pending.last_out});
        arm(now_ms + rto_after(entry.peer, pending.attempts, pending.gen), entry.peer,
            TimerQueue::Kind::kHandshake, pending.gen);
        break;
      }
      case TimerQueue::Kind::kRatchet: {
        const auto it = shard.awaits.find(entry.peer);
        if (it == shard.awaits.end() || it->second.gen != entry.gen) break;
        RatchetAwait& await = it->second;
        if (await.attempts >= config_.reliability.ratchet_budget) {
          // The cheap rung failed for good — climb the ladder: a fresh
          // STS handshake re-anchors the chain (queued after the loop;
          // connect() must not run under this shard lock).
          shard.awaits.erase(it);
          await_count_.fetch_sub(1, std::memory_order_relaxed);
          ++stats_.ratchet_escalations;
          escalate.push_back(entry.peer);
          break;
        }
        ++await.attempts;
        ++stats_.ratchet_retransmits;
        out.push_back(Outbound{entry.peer, await.announce});
        arm(now_ms + rto_after(entry.peer, await.attempts, await.gen), entry.peer,
            TimerQueue::Kind::kRatchet, await.gen);
        break;
      }
      case TimerQueue::Kind::kFinished: {
        const auto it = shard.finished.find(entry.peer);
        if (it != shard.finished.end() && it->second.gen == entry.gen)
          shard.finished.erase(it);
        break;
      }
    }
  }
  for (const cert::DeviceId& peer : escalate) {
    auto first = connect(peer, now);
    if (first.ok()) {
      ++stats_.full_rekeys;
      out.push_back(Outbound{peer, std::move(first).value()});
    }
  }
  return out;
}

Result<std::size_t> SessionBroker::pump(SessionBroker& sender, SessionBroker& receiver,
                                        Result<Message> first, std::uint64_t now) {
  if (!first.ok()) return first.error();
  return alternate(std::move(first).value(), [&](bool to_receiver, const Message& message) {
    SessionBroker& from = to_receiver ? sender : receiver;
    return (to_receiver ? receiver : sender).on_message(from.id(), message, now);
  });
}

}  // namespace ecqv::proto
