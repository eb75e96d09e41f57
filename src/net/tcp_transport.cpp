#include "net/tcp_transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace ecqv::net {

namespace {

/// Cap on one connection's un-flushed outbound buffer; a frame that would
/// exceed it is dropped (counted in wire_stats().send_drops) — backpressure
/// must not become unbounded memory.
constexpr std::size_t kMaxTxBacklog = 16 * 1024 * 1024;

}  // namespace

Result<std::unique_ptr<TcpStreamTransport>> TcpStreamTransport::listen(Config config) {
  auto fd = tcp_listen_loopback(config.port);
  if (!fd.ok()) return fd.error();
  auto bound = local_port(fd->get());
  if (!bound.ok()) return bound.error();
  return std::unique_ptr<TcpStreamTransport>(
      new TcpStreamTransport(std::move(fd).value(), Fd(), bound.value()));
}

Result<std::unique_ptr<TcpStreamTransport>> TcpStreamTransport::connect_to(Config config) {
  auto fd = tcp_connect_loopback(config.port);
  if (!fd.ok()) return fd.error();
  return std::unique_ptr<TcpStreamTransport>(
      new TcpStreamTransport(Fd(), std::move(fd).value(), config.port));
}

TcpStreamTransport::TcpStreamTransport(Fd listen_fd, Fd client_fd, std::uint16_t port)
    : listen_fd_(std::move(listen_fd)), port_(port) {
  if (client_fd.valid()) {
    MutexLock lock(mutex_);
    client_fd_ = client_fd.get();
    auto conn = std::make_unique<Conn>();
    conn->fd = std::move(client_fd);
    conns_.emplace(client_fd_, std::move(conn));
  }
}

void TcpStreamTransport::attach(const cert::DeviceId& endpoint) {
  MutexLock lock(mutex_);
  inboxes_.try_emplace(endpoint);
}

Status TcpStreamTransport::send(const cert::DeviceId& src, const cert::DeviceId& dst,
                                const proto::Message& message) {
  const std::uint16_t tag = session_counter_.fetch_add(1, std::memory_order_relaxed);
  const Bytes wire = encode_datagram(proto::Datagram{src, dst, message}, tag);
  MutexLock lock(mutex_);
  if (inboxes_.find(src) == inboxes_.end()) return Error::kBadState;
  int conn_fd = client_fd_;
  if (const auto route = routes_.find(dst); route != routes_.end()) conn_fd = route->second;
  const auto it = conns_.find(conn_fd);
  if (it == conns_.end() || it->second->dead) {
    ++stats_.unroutable;
    return Error::kBadState;
  }
  Conn& conn = *it->second;
  if (conn.tx.size() - conn.tx_offset + wire.size() + kFramePrefixSize > kMaxTxBacklog) {
    ++wire_stats_.send_drops;
    return {};
  }
  append_frame(conn.tx, wire);
  ++wire_stats_.datagrams_sent;
  wire_stats_.bytes_sent += wire.size() + kFramePrefixSize;
  flush_conn(conn);
  return {};
}

void TcpStreamTransport::flush_conn(Conn& conn) {
  while (conn.tx_offset < conn.tx.size()) {
    ssize_t wrote;
    do {
      // MSG_NOSIGNAL: a peer that vanished mid-write is a dead connection,
      // not a SIGPIPE for the whole process.
      wrote = ::send(conn.fd.get(), conn.tx.data() + conn.tx_offset,
                     conn.tx.size() - conn.tx_offset, MSG_NOSIGNAL);
    } while (wrote < 0 && errno == EINTR);
    if (wrote < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOTCONN ||
          errno == EINPROGRESS) {
        // Kernel said "not now" (full buffer or handshake still running):
        // the remainder stays queued; the event loop retries on writable.
        ++stats_.short_writes;
        break;
      }
      conn.dead = true;
      break;
    }
    conn.tx_offset += static_cast<std::size_t>(wrote);
    if (conn.tx_offset < conn.tx.size()) ++stats_.short_writes;
  }
  if (conn.tx_offset == conn.tx.size()) {
    conn.tx.clear();
    conn.tx_offset = 0;
  } else if (conn.tx_offset > conn.tx.size() / 2 && conn.tx_offset > 4096) {
    conn.tx.erase(conn.tx.begin(), conn.tx.begin() + static_cast<std::ptrdiff_t>(conn.tx_offset));
    conn.tx_offset = 0;
  }
}

void TcpStreamTransport::accept_pending() {
  if (!listen_fd_.valid()) return;
  for (;;) {
    int fd;
    do {
      fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) break;  // EAGAIN: no more pending
    if (!set_nonblocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = Fd(fd);
    conns_.emplace(fd, std::move(conn));
    ++stats_.accepted;
  }
}

std::size_t TcpStreamTransport::service_conn(Conn& conn) {
  std::size_t decoded = 0;
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    ssize_t got;
    do {
      got = ::recv(conn.fd.get(), buffer, sizeof buffer, 0);
    } while (got < 0 && errno == EINTR);
    if (got < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != ENOTCONN) conn.dead = true;
      break;
    }
    if (got == 0) {  // orderly EOF
      conn.dead = true;
      break;
    }
    wire_stats_.bytes_received += static_cast<std::size_t>(got);
    if (!conn.decoder.feed(ByteView(buffer, static_cast<std::size_t>(got))).ok()) {
      ++stats_.framing_violations;
      conn.dead = true;
      break;
    }
    while (auto frame = conn.decoder.next_frame()) {
      auto datagram = decode_datagram(*frame);
      if (!datagram.ok()) {
        ++wire_stats_.decode_errors;
        continue;
      }
      // This connection is how we reach whoever sends through it.
      routes_[datagram->src] = conn.fd.get();
      const auto inbox = inboxes_.find(datagram->dst);
      if (inbox == inboxes_.end()) {
        ++stats_.unknown_destination;
        continue;
      }
      inbox->second.push_back(std::move(datagram).value());
      ++wire_stats_.datagrams_received;
      ++decoded;
    }
  }
  return decoded;
}

void TcpStreamTransport::reap_dead() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (!it->second->dead) {
      ++it;
      continue;
    }
    const int fd = it->first;
    for (auto route = routes_.begin(); route != routes_.end();)
      route = route->second == fd ? routes_.erase(route) : std::next(route);
    it = conns_.erase(it);
    closed_fds_.push_back(fd);
    ++stats_.connections_closed;
  }
}

std::size_t TcpStreamTransport::service() {
  MutexLock lock(mutex_);
  accept_pending();
  std::size_t decoded = 0;
  for (auto& [fd, conn] : conns_) {
    if (conn->dead) continue;
    decoded += service_conn(*conn);
    if (!conn->dead) flush_conn(*conn);
  }
  reap_dead();
  return decoded;
}

std::optional<proto::Datagram> TcpStreamTransport::receive(const cert::DeviceId& dst) {
  service();
  MutexLock lock(mutex_);
  const auto inbox = inboxes_.find(dst);
  if (inbox == inboxes_.end() || inbox->second.empty()) return std::nullopt;
  proto::Datagram out = std::move(inbox->second.front());
  inbox->second.pop_front();
  return out;
}

bool TcpStreamTransport::idle() {
  service();
  MutexLock lock(mutex_);
  for (const auto& [id, inbox] : inboxes_)
    if (!inbox.empty()) return false;
  for (const auto& [fd, conn] : conns_)
    if (conn->tx_offset < conn->tx.size()) return false;
  return true;
}

std::vector<int> TcpStreamTransport::poll_fds() {
  MutexLock lock(mutex_);
  std::vector<int> fds;
  fds.reserve(conns_.size() + 1);
  if (listen_fd_.valid()) fds.push_back(listen_fd_.get());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  return fds;
}

std::vector<int> TcpStreamTransport::take_closed_fds() {
  MutexLock lock(mutex_);
  return std::exchange(closed_fds_, {});
}

bool TcpStreamTransport::wants_write(int fd) {
  MutexLock lock(mutex_);
  const auto it = conns_.find(fd);
  return it != conns_.end() && it->second->tx_offset < it->second->tx.size();
}

std::size_t TcpStreamTransport::connections() {
  MutexLock lock(mutex_);
  return conns_.size();
}

}  // namespace ecqv::net
