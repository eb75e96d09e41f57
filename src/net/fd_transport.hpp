// Common shape of the socket-backed transports: real file descriptors, a
// non-blocking service() step that moves bytes between the kernel and the
// per-endpoint inboxes, and a wall clock.
//
// Unlike the simulated links, a socket transport cannot conjure progress
// inside receive() alone — the kernel hands it bytes only when they have
// arrived. The epoll event loop (net/event_loop.hpp) owns blocking: it
// watches poll_fds(), calls service() on readiness, and the Transport
// receive()/idle() methods then operate on what service() decoded. Polling
// callers (tests, simple tools) may just call service() in a loop.
//
// The clock is real: now_ms() is the steady monotonic wall clock, shared
// by every FdTransport in the process. Brokers bound to a socket transport
// therefore schedule retransmissions in actual milliseconds — the
// reliability engine's RTO backoff runs against the same clock the kernel
// delivers packets on.
#pragma once

#include <chrono>
#include <vector>

#include "core/transport.hpp"

namespace ecqv::net {

class FdTransport : public proto::Transport {
 public:
  /// On-the-wire accounting, one level below the protocol payload counts
  /// the simulated links keep: what actually crossed the socket.
  struct WireStats {
    StatCounter datagrams_sent = 0;
    StatCounter datagrams_received = 0;
    StatCounter bytes_sent = 0;      // encoded fabric bytes incl. framing
    StatCounter bytes_received = 0;
    StatCounter decode_errors = 0;   // hostile/corrupt inbound, dropped
    StatCounter send_drops = 0;      // kernel refused (full buffers), dropped
  };

  /// File descriptors the event loop must watch for readability.
  [[nodiscard]] virtual std::vector<int> poll_fds() = 0;

  /// True when `fd` has queued outbound bytes the kernel refused so far —
  /// the event loop adds EPOLLOUT interest for exactly these.
  [[nodiscard]] virtual bool wants_write(int fd) { return (void)fd, false; }

  /// Non-blocking I/O step: drains readable sockets into the endpoint
  /// inboxes and flushes pending writes. Returns the number of fabric
  /// datagrams decoded. Never blocks; safe to call with nothing pending.
  virtual std::size_t service() = 0;

  /// Fds the transport closed since the last call, oldest first. The
  /// kernel may hand a closed number straight to the next accept, so the
  /// event loop unwatches these before it declares interest again.
  [[nodiscard]] virtual std::vector<int> take_closed_fds() { return {}; }

  /// Steady wall clock in ms, one epoch per process — real time, because
  /// real packets. All FdTransports share it, so a broker's retransmission
  /// deadlines and the event loop's epoll timeouts read the same clock.
  [[nodiscard]] double now_ms() override { return steady_now_ms(); }

  static double steady_now_ms() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - epoch)
        .count();
  }

  [[nodiscard]] const WireStats& wire_stats() const { return wire_stats_; }

 protected:
  WireStats wire_stats_;
};

}  // namespace ecqv::net
