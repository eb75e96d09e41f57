#include "net/event_loop.hpp"

#include <sys/epoll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

namespace ecqv::net {

// Ceiling on one epoll_wait block in BrokerDriver::step, so a caller's step()
// loop re-checks its exit condition even with no traffic and no armed timers.
constexpr int kMaxWaitMs = 20;

EventLoop::EventLoop() : epoll_(::epoll_create1(0)) {}

Status EventLoop::watch(int fd, bool want_write) {
  if (!epoll_.valid()) return Error::kBadState;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  const auto it = interest_.find(fd);
  if (it == interest_.end()) {
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) return Error::kInternal;
    interest_.emplace(fd, want_write);
    return {};
  }
  if (it->second == want_write) return {};
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) return Error::kInternal;
  it->second = want_write;
  return {};
}

void EventLoop::unwatch(int fd) {
  if (!epoll_.valid()) return;
  if (interest_.erase(fd) != 0) (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

Result<std::vector<EventLoop::Event>> EventLoop::wait(int timeout_ms) {
  if (!epoll_.valid()) return Error::kBadState;
  epoll_event ready[64];
  const int n = ::epoll_wait(epoll_.get(), ready, 64, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return std::vector<Event>{};  // interrupted: spin the loop
    return Error::kInternal;
  }
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event e;
    e.fd = ready[i].data.fd;
    e.readable = (ready[i].events & EPOLLIN) != 0;
    e.writable = (ready[i].events & EPOLLOUT) != 0;
    e.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events.push_back(e);
  }
  return events;
}

BrokerDriver::BrokerDriver(proto::ConcurrentSessionBroker& broker, FdTransport& transport)
    : broker_(broker), transport_(transport) {}

Result<std::size_t> BrokerDriver::step(std::uint64_t now) {
  // Declare the current fd set every cycle: TCP transports accept and
  // reap connections between steps, and EPOLLOUT interest follows the
  // short-write backlog.
  std::vector<int> fds = transport_.poll_fds();
  for (const int fd : fds) {
    const Status watched = loop_.watch(fd, transport_.wants_write(fd));
    if (!watched.ok()) return watched.error();
  }
  // Sleep until traffic or the broker's next retransmission deadline —
  // the TimerQueue's head, read in the transport's (wall) clock.
  int timeout_ms = kMaxWaitMs;
  if (const auto due = broker_.broker().next_retransmit_due_ms(); due.has_value()) {
    const double wait = *due - transport_.now_ms();
    timeout_ms = std::clamp(static_cast<int>(std::ceil(std::max(wait, 0.0))), 0, kMaxWaitMs);
  }
  auto events = loop_.wait(timeout_ms);
  if (!events.ok()) return events.error();
  // Dead fds get dropped from the interest set; the transport reaps the
  // connection itself during service().
  for (const EventLoop::Event& event : *events)
    if (event.error) loop_.unwatch(event.fd);
  transport_.service();
  const std::size_t dispatched = broker_.poll(now);
  broker_.drain();
  // A closed connection's fd must not linger in epoll: unwatch anything
  // the transport no longer reports.
  std::vector<int> live = transport_.poll_fds();
  if (live.size() != loop_.watched()) {
    std::sort(live.begin(), live.end());
    std::vector<int> stale;
    for (const int fd : fds)
      if (!std::binary_search(live.begin(), live.end(), fd)) stale.push_back(fd);
    for (const int fd : stale) loop_.unwatch(fd);
  }
  return dispatched;
}

}  // namespace ecqv::net
