// Epoll readiness loop: the blocking heart of the network data plane.
//
// The simulated fabrics run in virtual time — settle() polls until the
// link is quiet and then moves the link's clock itself. A kernel socket
// has neither oracle: readiness arrives asynchronously and the clock is
// the wall's, so the loop must block on epoll and wake for exactly two
// reasons — a socket became readable/writable, or a broker retransmission
// deadline (TimerQueue, surfaced as next_retransmit_due_ms()) expired. The
// epoll timeout IS the timer queue's next deadline, capped so a caller's
// step() loop re-checks its own exit condition.
//
// EventLoop is the thin epoll wrapper; BrokerDriver binds one
// ConcurrentSessionBroker to one FdTransport and turns socket readiness
// into broker poll()/drain() cycles — the epoll runner beside settle().
#pragma once

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
/// several brokers runs one driver each.
class BrokerDriver {
 public:
  BrokerDriver(proto::ConcurrentSessionBroker& broker, FdTransport& transport);

  /// One readiness cycle: epoll_wait (timeout = the next retransmission
  /// deadline, capped at 20 ms), transport.service(), broker poll+drain.
  /// Returns the number of datagrams the broker dispatched.
  Result<std::size_t> step(std::uint64_t now);

 private:
  proto::ConcurrentSessionBroker& broker_;
  FdTransport& transport_;
  EventLoop loop_;
};

}  // namespace ecqv::net
