// TCP stream transport: length-prefixed fabric datagrams (net/wire.hpp)
// over real connections, with explicit partial-read and short-write state
// machines.
//
//   * Reads land at arbitrary byte boundaries — each connection owns a
//     StreamDecoder that reassembles frames from whatever read() returned,
//     one byte at a time if the kernel feels like it.
//   * Writes may be short — each connection owns an outbound buffer with a
//     flush offset; what the kernel refuses now goes out when the event
//     loop reports the fd writable (wants_write()).
//
// Server mode (listen) accepts any number of connections on one port and
// learns which device ids live behind each connection from inbound frame
// sources. Client mode (connect_to) holds one connection and routes every
// destination through it. A framing violation (zero or oversized declared
// length) kills the connection — a desynced stream has no recovery point.
//
// A connection dying drops its routes: sends to peers behind it then fail
// kBadState (unroutable) until the peer reconnects, while inboxes keep
// whatever was already decoded. TCP handles loss itself; the broker's
// reliability engine stays useful for dead-connection recovery.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>

#include "net/fd_transport.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace ecqv::net {

class TcpStreamTransport final : public FdTransport {
 public:
  struct Config {
    std::uint16_t port = 0;  // listen(): 0 = ephemeral; connect_to(): target
  };

  struct Stats {
    StatCounter accepted = 0;
    StatCounter connections_closed = 0;  // EOF/reset/framing-violation teardowns
    StatCounter framing_violations = 0;
    StatCounter unknown_destination = 0;
    StatCounter unroutable = 0;
    StatCounter short_writes = 0;  // flushes the kernel cut short
  };

  /// Server: listen on 127.0.0.1:config.port.
  static Result<std::unique_ptr<TcpStreamTransport>> listen(Config config);

  /// Client: one connection to 127.0.0.1:config.port (non-blocking — sends
  /// buffer until the handshake completes).
  static Result<std::unique_ptr<TcpStreamTransport>> connect_to(Config config);

  /// Listening port (server mode; resolves ephemeral requests).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Transport interface --------------------------------------------------
  void attach(const cert::DeviceId& endpoint) override;
  Status send(const cert::DeviceId& src, const cert::DeviceId& dst,
              const proto::Message& message) override;
  std::optional<proto::Datagram> receive(const cert::DeviceId& dst) override;
  [[nodiscard]] bool idle() override;

  // FdTransport interface ------------------------------------------------
  [[nodiscard]] std::vector<int> poll_fds() override;
  [[nodiscard]] bool wants_write(int fd) override;
  std::size_t service() override;
  [[nodiscard]] std::vector<int> take_closed_fds() override;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t connections();

 private:
  struct Conn {
    Fd fd;
    StreamDecoder decoder;
    Bytes tx;                    // encoded frames awaiting the kernel
    std::size_t tx_offset = 0;   // flushed prefix of tx
    bool dead = false;
  };

  TcpStreamTransport(Fd listen_fd, Fd client_fd, std::uint16_t port);

  void accept_pending() REQUIRES(mutex_);
  std::size_t service_conn(Conn& conn) REQUIRES(mutex_);
  /// Short-write state machine: pushes tx[tx_offset..] until done or the
  /// kernel refuses; compacts the flushed prefix.
  void flush_conn(Conn& conn) REQUIRES(mutex_);
  void reap_dead() REQUIRES(mutex_);

  Fd listen_fd_;  // server mode only
  std::uint16_t port_ = 0;
  int client_fd_ = -1;  // client mode: the single connection's fd

  Mutex mutex_;
  std::map<int, std::unique_ptr<Conn>> conns_ GUARDED_BY(mutex_);
  std::vector<int> closed_fds_ GUARDED_BY(mutex_);  // reaped since take_closed_fds()
  std::unordered_map<cert::DeviceId, int, proto::DeviceIdHash> routes_ GUARDED_BY(mutex_);
  std::unordered_map<cert::DeviceId, std::deque<proto::Datagram>, proto::DeviceIdHash> inboxes_
      GUARDED_BY(mutex_);
  std::atomic<std::uint16_t> session_counter_{0};
  Stats stats_;
};

}  // namespace ecqv::net
