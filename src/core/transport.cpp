#include "core/transport.hpp"

namespace ecqv::proto {

double Transport::now_ms() { return 0.0; }

void Transport::charge(const cert::DeviceId& /*endpoint*/, double /*ms*/) {}

double Transport::endpoint_time_ms(const cert::DeviceId& /*endpoint*/) { return now_ms(); }

void Transport::advance_to(double /*t_ms*/) {}

std::optional<double> Transport::next_release_ms() { return std::nullopt; }

void IdealLinkTransport::attach(const cert::DeviceId& endpoint) {
  MutexLock lock(mutex_);
  inboxes_.try_emplace(endpoint);
}

Status IdealLinkTransport::send(const cert::DeviceId& src, const cert::DeviceId& dst,
                                const Message& message) {
  MutexLock lock(mutex_);
  if (inboxes_.find(src) == inboxes_.end()) return Error::kBadState;
  const auto inbox = inboxes_.find(dst);
  if (inbox == inboxes_.end()) return Error::kBadState;
  ++stats_.messages;
  stats_.payload_bytes += message.payload.size();
  inbox->second.push_back(Datagram{src, dst, message});
  return {};
}

std::optional<Datagram> IdealLinkTransport::receive(const cert::DeviceId& dst) {
  MutexLock lock(mutex_);
  const auto inbox = inboxes_.find(dst);
  if (inbox == inboxes_.end() || inbox->second.empty()) return std::nullopt;
  Datagram out = std::move(inbox->second.front());
  inbox->second.pop_front();
  return out;
}

bool IdealLinkTransport::idle() {
  MutexLock lock(mutex_);
  for (const auto& [id, inbox] : inboxes_)
    if (!inbox.empty()) return false;
  return true;
}

}  // namespace ecqv::proto
