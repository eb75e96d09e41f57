// UDP socket transport: one bound socket carrying any number of local
// endpoints, one fabric datagram per UDP datagram (net/wire.hpp encoding,
// no extra framing — the kernel preserves datagram boundaries).
//
// Addressing: fabric device ids, not sockets, are the routable names. A
// route maps a remote device id to the UDP address its transport is bound
// to. Routes are installed explicitly (add_route — the client knowing the
// server's port) or learned from inbound traffic (the server learns each
// client's address from the source of its first datagram, exactly how the
// session broker learns peers). One server socket therefore terminates an
// entire fleet: 100k sessions are 100k store entries and route entries,
// not 100k file descriptors.
//
// Loss: UDP drops are real here. A send the kernel refuses (full buffers)
// is counted and reported as success — loss is the receiver's problem, as
// on any datagram link — and the broker's reliability engine (PR 8)
// retransmits against this transport's wall clock.
#pragma once

#include <netinet/in.h>

#include <memory>
#include <unordered_map>

#include "net/fd_transport.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace ecqv::net {

class UdpTransport final : public FdTransport {
 public:
  struct Config {
    std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral port
    /// Unread: the transport always locks. Kept only because perfbench's
    /// fabric still names it in a designated initializer.
    bool concurrent = false;
  };

  struct Stats {
    StatCounter unknown_destination = 0;  // inbound for an unattached id
    StatCounter unroutable = 0;           // send() with no route for dst
  };

  /// Opens and binds the socket; fails (kBadState) when the port is taken.
  static Result<std::unique_ptr<UdpTransport>> open(Config config);

  /// The bound UDP port (resolves ephemeral requests) — what peers
  /// add_route() against.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Installs a static route: datagrams for `dst` go to 127.0.0.1:`port`.
  void add_route(const cert::DeviceId& dst, std::uint16_t port);

  // Transport interface --------------------------------------------------
  void attach(const cert::DeviceId& endpoint) override;
  Status send(const cert::DeviceId& src, const cert::DeviceId& dst,
              const proto::Message& message) override;
  /// Pops `dst`'s inbox; reads the socket (service()) only when the inbox
  /// is empty, so a queued datagram costs no recvfrom.
  std::optional<proto::Datagram> receive(const cert::DeviceId& dst) override;
  [[nodiscard]] bool idle() override;

  // FdTransport interface ------------------------------------------------
  [[nodiscard]] std::vector<int> poll_fds() override { return {fd_.get()}; }
  std::size_t service() override;

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  UdpTransport(Fd fd, std::uint16_t port);
  std::optional<proto::Datagram> pop(const cert::DeviceId& dst) EXCLUDES(mutex_);

  Fd fd_;
  std::uint16_t port_ = 0;
  Mutex mutex_;
  std::unordered_map<cert::DeviceId, std::deque<proto::Datagram>, proto::DeviceIdHash> inboxes_
      GUARDED_BY(mutex_);
  std::unordered_map<cert::DeviceId, sockaddr_in, proto::DeviceIdHash> routes_
      GUARDED_BY(mutex_);
  std::atomic<std::uint16_t> session_counter_{0};
  Stats stats_;
};

}  // namespace ecqv::net
