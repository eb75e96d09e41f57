#include "core/concurrent_broker.hpp"

namespace ecqv::proto {

ConcurrentSessionBroker::ConcurrentSessionBroker(const Credentials& creds, rng::Rng& rng,
                                                 Transport& transport, Config config)
    : transport_(transport),
      rng_(rng),
      broker_(creds, rng_, std::move(config.broker)) {
  transport_.attach(broker_.id());
  // The reliability engine (and the S1 virtual-time TTL) runs on the bound
  // transport's clock.
  broker_.bind_clock(&transport_);
  workers_.reserve(config.workers);
  for (std::size_t i = 0; i < config.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    Worker& worker = *workers_.back();
    worker.thread = std::thread([this, &worker] { worker_loop(worker); });
  }
}

ConcurrentSessionBroker::~ConcurrentSessionBroker() {
  stop_.store(true);
  for (auto& worker : workers_) {
    {
      MutexLock lock(worker->mutex);  // fence: wait re-checks stop_ under the lock
    }
    worker->cv.notify_all();
  }
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
}

Status ConcurrentSessionBroker::connect(const cert::DeviceId& peer, std::uint64_t now) {
  auto first = broker_.connect(peer, now);
  if (!first.ok()) return first.error();
  return transport_.send(broker_.id(), peer, std::move(first).value());
}

Status ConcurrentSessionBroker::send_data(const cert::DeviceId& peer, ByteView plaintext,
                                          std::uint64_t now, DataRekey rekey) {
  auto message = broker_.make_data(peer, plaintext, now, rekey);
  if (!message.ok()) return message.error();
  ++stats_.data_records;
  stats_.data_payload_bytes += plaintext.size();
  stats_.data_wire_bytes += message.value().payload.size();
  return transport_.send(broker_.id(), peer, std::move(message).value());
}

void ConcurrentSessionBroker::process(const Job& job) {
  if (job.work) {
    job.work();
    return;
  }
  auto reply = broker_.on_message(job.from, job.message, job.now);
  if (!reply.ok()) {
    ++stats_.errors;
    return;
  }
  if (reply->has_value()) {
    if (transport_.send(broker_.id(), job.from, **reply).ok())
      ++stats_.replies;
    else
      ++stats_.errors;
  }
}

void ConcurrentSessionBroker::worker_loop(Worker& worker) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(worker.mutex.native());
      worker.cv.wait(lock, [&] { return stop_.load() || !worker.queue.empty(); });
      if (worker.queue.empty()) return;  // stop requested, queue drained
      job = std::move(worker.queue.front());
      worker.queue.pop_front();
    }
    process(job);
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      drain_cv_.notify_all();
    }
  }
}

std::size_t ConcurrentSessionBroker::enroll_batch(
    const std::vector<cert::Certificate>& certificates) {
  return broker_.enroll_batch(certificates);
}

std::vector<bool> ConcurrentSessionBroker::verify_batch(
    const std::vector<SessionBroker::VerifyRequest>& requests, sig::BatchVerifyStats* stats) {
  // Below this, chunking would shrink the RLC passes faster than the cores
  // speed them up (each chunk pays the shared doubling chain once).
  constexpr std::size_t kMinChunk = 16;
  const std::size_t w = workers_.size();
  if (w == 0 || requests.size() < 2 * kMinChunk) return broker_.verify_batch(requests, stats);

  const std::size_t chunks = std::min(w, (requests.size() + kMinChunk - 1) / kMinChunk);
  const std::size_t per = (requests.size() + chunks - 1) / chunks;
  std::vector<std::vector<bool>> parts(chunks);
  std::vector<sig::BatchVerifyStats> part_stats(chunks);
  std::atomic<std::size_t> remaining{chunks};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * per;
    const std::size_t hi = std::min(requests.size(), lo + per);
    Job job;
    // The RNG behind broker_ is this wrapper's LockedRng, so concurrent
    // chunks draw their combination coefficients safely.
    job.work = [this, &requests, &parts, &part_stats, &remaining, &done_mutex, &done_cv, c, lo,
                hi] {
      parts[c] = broker_.verify_batch(requests.data() + lo, hi - lo, &part_stats[c]);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(done_mutex);
        done_cv.notify_all();
      }
    };
    Worker& worker = *workers_[c % w];
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(worker.mutex);
      worker.queue.push_back(std::move(job));
    }
    worker.cv.notify_one();
  }
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining.load(std::memory_order_acquire) == 0; });
  }
  std::vector<bool> out;
  out.reserve(requests.size());
  for (std::size_t c = 0; c < chunks; ++c) {
    out.insert(out.end(), parts[c].begin(), parts[c].end());
    if (stats != nullptr) {
      stats->rlc_checks += part_stats[c].rlc_checks;
      stats->single_checks += part_stats[c].single_checks;
    }
  }
  return out;
}

std::size_t ConcurrentSessionBroker::poll(std::uint64_t now) {
  std::size_t dispatched = 0;
  // Service due retransmission timers first: what the reliability engine
  // wants re-sent goes on the wire before this round's inbound is drained,
  // so a poll loop alternates recovery and delivery on one thread.
  for (SessionBroker::Outbound& outbound : broker_.poll_retransmits(transport_.now_ms(), now)) {
    if (transport_.send(broker_.id(), outbound.peer, std::move(outbound.message)).ok())
      ++stats_.replies;
    else
      ++stats_.errors;
  }
  while (auto datagram = transport_.receive(broker_.id())) {
    ++dispatched;
    ++stats_.dispatched;
    Job job{datagram->src, std::move(datagram->message), now};
    if (workers_.empty()) {
      process(job);
      continue;
    }
    Worker& worker = *workers_[DeviceIdHash{}(job.from) % workers_.size()];
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(worker.mutex);
      worker.queue.push_back(std::move(job));
    }
    worker.cv.notify_one();
  }
  return dispatched;
}

void ConcurrentSessionBroker::drain() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drain_cv_.wait(lock, [&] { return in_flight_.load(std::memory_order_acquire) == 0; });
}

std::size_t settle(const std::vector<ConcurrentSessionBroker*>& endpoints, std::uint64_t now) {
  constexpr std::size_t kMaxAdvances = 1000000;  // a stuck-fabric backstop, not a knob
  std::size_t processed = 0;
  for (std::size_t advance = 0; advance < kMaxAdvances; ++advance) {
    std::size_t round = 0;
    do {
      round = 0;
      for (ConcurrentSessionBroker* endpoint : endpoints) round += endpoint->poll(now);
      for (ConcurrentSessionBroker* endpoint : endpoints) endpoint->drain();
      processed += round;
      // A zero round means every inbox was empty *after* all workers had
      // drained, so no endpoint can produce further traffic right now.
    } while (round > 0);
    // Whatever is still owed can only move by time: move every clock to the
    // earliest retransmission deadline or delayed-datagram release, and
    // settle again (poll services the due retransmissions first).
    std::size_t backlog = 0;
    bool held = false;
    std::optional<double> due;
    for (ConcurrentSessionBroker* endpoint : endpoints) {
      backlog += endpoint->broker().reliability_backlog();
      const std::optional<double> release = endpoint->transport().next_release_ms();
      held = held || release.has_value();
      for (const std::optional<double>& t : {release, endpoint->broker().next_retransmit_due_ms()})
        if (t.has_value() && (!due.has_value() || *t < *due)) due = t;
    }
    if (backlog == 0 && !held) return processed;  // converged
    if (!due.has_value()) return processed;       // uncovered backlog: nothing to wait for
    for (ConcurrentSessionBroker* endpoint : endpoints) endpoint->transport().advance_to(*due);
    for (ConcurrentSessionBroker* endpoint : endpoints)
      if (endpoint->transport().now_ms() < *due) return processed;  // the clock cannot get there
  }
  return processed;
}

}  // namespace ecqv::proto
