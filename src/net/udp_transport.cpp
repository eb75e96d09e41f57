#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace ecqv::net {

namespace {

sockaddr_in loopback_route(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

Result<std::unique_ptr<UdpTransport>> UdpTransport::open(Config config) {
  auto fd = udp_bind_loopback(config.port);
  if (!fd.ok()) return fd.error();
  if (config.buffer_bytes > 0) {
    if (const Status s = set_receive_buffer(fd->get(), config.buffer_bytes); !s.ok())
      return s.error();
    if (const Status s = set_send_buffer(fd->get(), config.buffer_bytes); !s.ok())
      return s.error();
  }
  auto bound = local_port(fd->get());
  if (!bound.ok()) return bound.error();
  return std::unique_ptr<UdpTransport>(
      new UdpTransport(std::move(fd).value(), bound.value()));
}

UdpTransport::UdpTransport(Fd fd, std::uint16_t port) : fd_(std::move(fd)), port_(port) {}

void UdpTransport::add_route(const cert::DeviceId& dst, std::uint16_t port) {
  MutexLock lock(mutex_);
  routes_[dst] = loopback_route(port);
}

void UdpTransport::attach(const cert::DeviceId& endpoint) {
  MutexLock lock(mutex_);
  inboxes_.try_emplace(endpoint);
}

Status UdpTransport::send(const cert::DeviceId& src, const cert::DeviceId& dst,
                          const proto::Message& message) {
  sockaddr_in route{};
  {
    MutexLock lock(mutex_);
    if (inboxes_.find(src) == inboxes_.end()) return Error::kBadState;
    const auto it = routes_.find(dst);
    if (it == routes_.end()) {
      ++stats_.unroutable;
      return Error::kBadState;
    }
    route = it->second;
  }
  const std::uint16_t tag = session_counter_.fetch_add(1, std::memory_order_relaxed);
  const Bytes wire = encode_datagram(proto::Datagram{src, dst, message}, tag);
  ssize_t sent;
  do {
    sent = ::sendto(fd_.get(), wire.data(), wire.size(), 0,
                    reinterpret_cast<const sockaddr*>(&route), sizeof route);
  } while (sent < 0 && errno == EINTR);
  if (sent < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS ||
        errno == ECONNREFUSED) {
      // The datagram is lost, not the transport: kernel backpressure and
      // dead peers are link loss, the reliability engine's department.
      ++wire_stats_.send_drops;
      return {};
    }
    return Error::kInternal;
  }
  ++wire_stats_.datagrams_sent;
  wire_stats_.bytes_sent += wire.size();
  return {};
}

std::size_t UdpTransport::service() {
  std::size_t decoded = 0;
  std::uint8_t buffer[kMaxDatagramBytes + 1];
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof from;
    ssize_t got;
    do {
      got = ::recvfrom(fd_.get(), buffer, sizeof buffer, 0,
                       reinterpret_cast<sockaddr*>(&from), &from_len);
    } while (got < 0 && errno == EINTR);
    if (got < 0) break;  // EAGAIN: socket drained
    wire_stats_.bytes_received += static_cast<std::size_t>(got);
    auto datagram = decode_datagram(ByteView(buffer, static_cast<std::size_t>(got)));
    if (!datagram.ok()) {
      ++wire_stats_.decode_errors;
      continue;
    }
    MutexLock lock(mutex_);
    // Learn the way back: the sender's bound address is the route to its
    // source id (refreshed every datagram, so rebinding peers heal).
    routes_[datagram->src] = from;
    const auto inbox = inboxes_.find(datagram->dst);
    if (inbox == inboxes_.end()) {
      ++stats_.unknown_destination;
      continue;
    }
    inbox->second.push_back(std::move(datagram).value());
    ++wire_stats_.datagrams_received;
    ++decoded;
  }
  return decoded;
}

std::optional<proto::Datagram> UdpTransport::pop(const cert::DeviceId& dst) {
  MutexLock lock(mutex_);
  const auto inbox = inboxes_.find(dst);
  if (inbox == inboxes_.end() || inbox->second.empty()) return std::nullopt;
  proto::Datagram out = std::move(inbox->second.front());
  inbox->second.pop_front();
  return out;
}

std::optional<proto::Datagram> UdpTransport::receive(const cert::DeviceId& dst) {
  if (auto queued = pop(dst)) return queued;
  service();
  return pop(dst);
}

bool UdpTransport::idle() {
  service();
  MutexLock lock(mutex_);
  for (const auto& [id, inbox] : inboxes_)
    if (!inbox.empty()) return false;
  return true;
}

}  // namespace ecqv::net
