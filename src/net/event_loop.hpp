// Epoll readiness loop: the blocking heart of the network data plane.
//
// The simulated fabrics poll — pump_endpoints() and settle() spin until
// the link reports idle, which works when the transport IS the
// simulation. A kernel socket has no such oracle: readiness arrives
// asynchronously, so the loop must block on epoll and wake for exactly two
// reasons — a socket became readable/writable, or a broker retransmission
// deadline (PR 6's TimerQueue, surfaced as next_retransmit_due_ms())
// expired. The epoll timeout IS the timer queue's next deadline: no
// polling tick, no latency floor beyond the kernel's.
//
// EventLoop is the thin epoll wrapper; BrokerDriver binds one
// ConcurrentSessionBroker to one FdTransport and turns socket readiness
// into broker poll()/drain() cycles — the socket-world replacement for the
// pump_endpoints() loop.
#pragma once

#include <functional>
#include <unordered_map>

#include "core/concurrent_broker.hpp"
#include "net/fd_transport.hpp"
#include "net/socket.hpp"

namespace ecqv::net {

class EventLoop {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;  // EPOLLERR/EPOLLHUP
  };

  EventLoop();

  /// False when epoll_create1 failed at construction (fd exhaustion) —
  /// every other call then fails kBadState.
  [[nodiscard]] bool valid() const { return epoll_.valid(); }

  /// Adds or updates interest in `fd` (modify-if-exists semantics, so
  /// callers just declare current interest every iteration).
  Status watch(int fd, bool want_write);
  void unwatch(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever, 0 = poll) for readiness.
  /// Returns the ready set — empty on timeout. EINTR returns empty rather
  /// than erroring: the caller's loop just comes around again.
  Result<std::vector<Event>> wait(int timeout_ms);

  [[nodiscard]] std::size_t watched() const { return interest_.size(); }

 private:
  Fd epoll_;
  std::unordered_map<int, bool> interest_;  // fd -> want_write
};

/// Binds a worker-pool broker to its socket transport: declares fd
/// interest from the transport (EPOLLOUT only where short writes left
/// backlog), blocks on epoll with the broker's next retransmission
/// deadline as the timeout, and runs service() + poll() + drain() per
/// wakeup. One driver per (broker, transport) pair; a process hosting
/// several brokers runs one driver each or shares an EventLoop manually.
class BrokerDriver {
 public:
  struct Config {
    /// Ceiling on one epoll_wait block, so run_until() re-checks its
    /// predicate even with no traffic and no armed timers.
    int max_wait_ms = 20;
  };

  BrokerDriver(proto::ConcurrentSessionBroker& broker, FdTransport& transport);
  BrokerDriver(proto::ConcurrentSessionBroker& broker, FdTransport& transport, Config config);

  /// One readiness cycle: epoll_wait (timeout = min(next retransmission
  /// deadline, max_wait_ms)), transport.service(), broker poll+drain.
  /// Returns the number of datagrams the broker dispatched.
  Result<std::size_t> step(std::uint64_t now);

  /// Runs step() until `done()` returns true or `timeout_ms` of wall time
  /// elapses. Returns kBadState on timeout — a soak that did not converge
  /// is a failure, not a hang.
  Status run_until(const std::function<bool()>& done, std::uint64_t now, int timeout_ms);

  [[nodiscard]] EventLoop& loop() { return loop_; }

 private:
  proto::ConcurrentSessionBroker& broker_;
  FdTransport& transport_;
  EventLoop loop_;
  Config config_;
};

}  // namespace ecqv::net
