#include "trace.hpp"

#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <cstring>

#include "net/wire.hpp"

namespace perfbench {

using ecqv::cert::DeviceId;
using ecqv::proto::Datagram;
using ecqv::proto::Message;

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           epoch)
          .count());
}

const char* span_name(SpanName name) {
  static constexpr const char* kNames[kSpanNames] = {
      "client.connect",        "client.on_message.B1", "client.on_message.B2",
      "client.on_message.hs",  "client.poll_retransmits",
      "client.make_data.16",   "client.make_data.64",  "client.make_data.1024",
      "client.on_message.DT1", "client.session_ready", "client.net.send",
      "client.net.receive",    "server.step",          "server.send_data",
      "server.net.send",       "server.net.service",   "server.net.receive",
      "server.net.poll_fds",   "gap.epoll_wait",       "gap.on_message.A1",
      "gap.on_message.A2",     "gap.on_message.DT1",   "gap.on_message.other",
      "gap.dispatch",          "gap.drain",            "gap.loop",
      "bench.on_data.server",  "bench.on_data.device", "loadgen.wait",
  };
  return kNames[static_cast<std::size_t>(name)];
}

std::atomic<bool> Tracer::enabled_{false};

namespace {

std::atomic<std::uint64_t> g_recvfrom_calls{0};

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadTrace>>& registry() {
  static std::vector<std::unique_ptr<ThreadTrace>> threads;
  return threads;
}

std::int32_t open_at(ThreadTrace& t, SpanName name, std::uint64_t request, std::uint64_t at) {
  const auto index = static_cast<std::int32_t>(t.spans.size());
  Span span;
  span.start = at;
  span.request = request;
  span.parent = t.open.empty() ? -1 : t.open.back();
  span.name = static_cast<std::uint16_t>(name);
  t.spans.push_back(span);
  t.open.push_back(index);
  return index;
}

void close_at(ThreadTrace& t, std::int32_t index, std::uint64_t at) {
  t.spans[static_cast<std::size_t>(index)].end = at;
  if (!t.open.empty() && t.open.back() == index) t.open.pop_back();
}

/// Closes the driver thread's open gap, naming it by what it turned out
/// to be.
void close_gap(ThreadTrace& t, SpanName next, std::uint64_t at) {
  if (t.gap < 0) return;
  Span& gap = t.spans[static_cast<std::size_t>(t.gap)];
  gap.name = static_cast<std::uint16_t>(next == SpanName::kNetService ? SpanName::kGapEpollWait
                                                                      : t.after);
  close_at(t, t.gap, at);
  t.gap = -1;
}

}  // namespace

ThreadTrace& Tracer::local() {
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<ThreadTrace>();
    mine = fresh.get();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    registry().push_back(std::move(fresh));
  }
  return *mine;
}

std::vector<ThreadTrace*> Tracer::threads() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<ThreadTrace*> out;
  for (const auto& t : registry()) out.push_back(t.get());
  return out;
}

std::int32_t Tracer::open(SpanName name, std::uint64_t request) {
  return open_at(local(), name, request, now_ns());
}

void Tracer::close(std::int32_t index) {
  if (index < 0) return;
  close_at(local(), index, now_ns());
}

bool Tracer::write(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  bool ok = std::fwrite("PBSPANS1", 1, 8, out) == 8;
  const auto names = static_cast<std::uint32_t>(kSpanNames);
  ok = ok && std::fwrite(&names, sizeof names, 1, out) == 1;
  for (std::size_t i = 0; i < kSpanNames && ok; ++i) {
    const char* name = span_name(static_cast<SpanName>(i));
    const auto len = static_cast<std::uint32_t>(std::strlen(name));
    ok = std::fwrite(&len, sizeof len, 1, out) == 1 && std::fwrite(name, 1, len, out) == len;
  }
  const auto buffers = threads();
  const auto thread_count = static_cast<std::uint32_t>(buffers.size());
  ok = ok && std::fwrite(&thread_count, sizeof thread_count, 1, out) == 1;
  for (const ThreadTrace* t : buffers) {
    if (!ok) break;
    const auto count = static_cast<std::uint64_t>(t->spans.size());
    ok = std::fwrite(&count, sizeof count, 1, out) == 1;
    for (const Span& s : t->spans) {
      if (!ok) break;
      ok = std::fwrite(&s.start, 8, 1, out) == 1 && std::fwrite(&s.end, 8, 1, out) == 1 &&
           std::fwrite(&s.request, 8, 1, out) == 1 && std::fwrite(&s.parent, 4, 1, out) == 1 &&
           std::fwrite(&s.name, 2, 1, out) == 1;
    }
  }
  return std::fclose(out) == 0 && ok;
}

StepScope::StepScope() : index_(-1) {
  if (!Tracer::enabled()) return;
  ThreadTrace& t = Tracer::local();
  index_ = open_at(t, SpanName::kServerStep, 0, now_ns());
  t.in_step = true;
}

StepScope::~StepScope() {
  if (index_ < 0) return;
  ThreadTrace& t = Tracer::local();
  const std::uint64_t at = now_ns();
  close_gap(t, SpanName::kServerStep, at);
  t.in_step = false;
  close_at(t, index_, at);
}

Step step_of(const std::string& label) {
  if (label.size() == 2) {
    if (label == "A1") return Step::kA1;
    if (label == "B1") return Step::kB1;
    if (label == "A2") return Step::kA2;
    if (label == "B2") return Step::kB2;
  }
  if (label == "DT1") return Step::kData;
  return Step::kOther;
}

TimedTransport::Counts TimedTransport::Counts::minus(const Counts& earlier) const {
  Counts d = *this;
  for (std::size_t i = 0; i < kSteps; ++i) {
    d.bytes_in[i] -= earlier.bytes_in[i];
    d.bytes_out[i] -= earlier.bytes_out[i];
    d.datagrams_in[i] -= earlier.datagrams_in[i];
    d.datagrams_out[i] -= earlier.datagrams_out[i];
  }
  return d;
}

TimedTransport::TimedTransport(std::unique_ptr<ecqv::net::UdpTransport> inner, bool workers)
    : inner_(std::move(inner)), workers_(workers) {}

TimedTransport::Counts TimedTransport::counts() const {
  Counts c;
  for (std::size_t i = 0; i < kSteps; ++i) {
    c.bytes_in[i] = atomics_.bytes_in[i].load(std::memory_order_relaxed);
    c.bytes_out[i] = atomics_.bytes_out[i].load(std::memory_order_relaxed);
    c.datagrams_in[i] = atomics_.datagrams_in[i].load(std::memory_order_relaxed);
    c.datagrams_out[i] = atomics_.datagrams_out[i].load(std::memory_order_relaxed);
  }
  return c;
}

std::int32_t TimedTransport::begin_call(SpanName name, std::uint64_t at) {
  ThreadTrace& t = Tracer::local();
  if (t.in_step) close_gap(t, name, at);
  return open_at(t, name, 0, at);
}

void TimedTransport::end_call(std::int32_t index, SpanName gap_after, std::uint64_t at) {
  ThreadTrace& t = Tracer::local();
  close_at(t, index, at);
  if (t.in_step) {
    t.gap = open_at(t, SpanName::kGapLoop, 0, at);
    t.after = gap_after;
  }
}

ecqv::Status TimedTransport::send(const DeviceId& src, const DeviceId& dst,
                                  const Message& message) {
  const auto step = static_cast<std::size_t>(step_of(message.step));
  atomics_.bytes_out[step].fetch_add(ecqv::net::kDatagramHeaderSize + message.payload.size(),
                                     std::memory_order_relaxed);
  atomics_.datagrams_out[step].fetch_add(1, std::memory_order_relaxed);
  if (!Tracer::enabled()) return inner_->send(src, dst, message);
  const std::uint64_t start = now_ns();
  if (observer_ != nullptr) observer_->sending(dst, static_cast<Step>(step), start);
  const std::int32_t span = begin_call(SpanName::kNetSend, start);
  const ecqv::Status status = inner_->send(src, dst, message);
  end_call(span, SpanName::kGapLoop, now_ns());
  return status;
}

std::optional<Datagram> TimedTransport::receive(const DeviceId& dst) {
  const bool traced = Tracer::enabled();
  std::int32_t span = -1;
  if (traced) span = begin_call(SpanName::kNetReceive, now_ns());
  std::optional<Datagram> datagram = inner_->receive(dst);
  SpanName after = SpanName::kGapDrain;
  if (datagram.has_value()) {
    const Step step = step_of(datagram->message.step);
    const auto i = static_cast<std::size_t>(step);
    atomics_.bytes_in[i].fetch_add(ecqv::net::kDatagramHeaderSize +
                                       datagram->message.payload.size(),
                                   std::memory_order_relaxed);
    atomics_.datagrams_in[i].fetch_add(1, std::memory_order_relaxed);
    if (workers_) {
      after = SpanName::kGapDispatch;
    } else {
      switch (step) {
        case Step::kA1: after = SpanName::kGapMsgA1; break;
        case Step::kA2: after = SpanName::kGapMsgA2; break;
        case Step::kData: after = SpanName::kGapMsgDt1; break;
        default: after = SpanName::kGapMsgOther; break;
      }
    }
  }
  if (traced) {
    const std::uint64_t end = now_ns();
    if (datagram.has_value() && observer_ != nullptr) observer_->received(*datagram, end);
    end_call(span, after, end);
  }
  return datagram;
}

std::vector<int> TimedTransport::poll_fds() {
  if (!Tracer::enabled()) return inner_->poll_fds();
  const std::int32_t span = begin_call(SpanName::kNetPollFds, now_ns());
  std::vector<int> fds = inner_->poll_fds();
  end_call(span, SpanName::kGapLoop, now_ns());
  return fds;
}

std::size_t TimedTransport::service() {
  if (!Tracer::enabled()) return inner_->service();
  const std::int32_t span = begin_call(SpanName::kNetService, now_ns());
  const std::size_t decoded = inner_->service();
  end_call(span, SpanName::kGapLoop, now_ns());
  return decoded;
}

std::uint64_t recvfrom_calls() { return g_recvfrom_calls.load(std::memory_order_relaxed); }

}  // namespace perfbench

// The counting wrapper behind recvfrom_calls(); the linker routes every
// recvfrom reference here and __real_recvfrom to libc's.
extern "C" {
ssize_t __real_recvfrom(int fd, void* buf, size_t len, int flags, sockaddr* from,
                        socklen_t* from_len);
ssize_t __wrap_recvfrom(int fd, void* buf, size_t len, int flags, sockaddr* from,
                        socklen_t* from_len) {
  perfbench::g_recvfrom_calls.fetch_add(1, std::memory_order_relaxed);
  return __real_recvfrom(fd, buf, len, flags, from, from_len);
}
}
