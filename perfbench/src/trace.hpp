// Spans for the traced run, and the timing wrapper the server's socket
// transport runs behind.
//
// Everything here sits outside the library: spans are recorded around the
// benchmark's own calls into each layer and around every call the server
// makes through its FdTransport. Inside BrokerDriver::step the wrapper also
// records the gaps between those calls, which is where the epoll wait, the
// inline on_message work per datagram and the worker drain live.
//
// Spans are kept in per-thread buffers and written out when the run ends.
// Tracing is off unless a traced phase switches it on; off, every hook is
// one relaxed atomic load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/udp_transport.hpp"

namespace perfbench {

/// Steady clock in ns since the first call in this process.
std::uint64_t now_ns();

enum class SpanName : std::uint16_t {
  // client side: benchmark calls into the device brokers and the client socket
  kClientConnect,
  kClientB1,
  kClientB2,
  kClientHandshakeOther,  // duplicate or stale handshake flights
  kClientRetransmit,      // SessionBroker::poll_retransmits
  kClientMakeData16,
  kClientMakeData64,
  kClientMakeData1024,
  kClientOpen,  // device on_message for a DT1 command
  kClientSessionReady,
  kClientNetSend,
  kClientNetReceive,
  // server side: benchmark calls
  kServerStep,      // BrokerDriver::step
  kServerSendData,  // ConcurrentSessionBroker::send_data
  // server side: every call through the FdTransport
  kNetSend,
  kNetService,
  kNetReceive,
  kNetPollFds,
  // server side: gaps between those calls inside one step
  kGapEpollWait,   // ends at service(): epoll_wait and interest bookkeeping
  kGapMsgA1,       // receive() returned an A1: inline on_message until the next call
  kGapMsgA2,
  kGapMsgDt1,
  kGapMsgOther,
  kGapDispatch,  // receive() returned a datagram that went to a worker queue
  kGapDrain,     // receive() came back empty: drain() until the step's last call
  kGapLoop,      // anything else between calls (retransmit poll, epoll interest)
  // benchmark work inside library callbacks
  kOnDataServer,  // payload checks in the server's on_data
  kOnDataDevice,  // payload checks in a device's on_data
  // open-loop generator waiting for the next due event or a reply
  kLoadgenWait,
  kCount,
};

inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);
const char* span_name(SpanName name);

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t request = 0;  // handshake attempt or record id
  std::int32_t parent = -1;   // index into the same thread's buffer
  std::uint16_t name = 0;
};

/// One thread's span buffer plus the gap state of the server driver loop.
struct ThreadTrace {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of open span indices
  bool in_step = false;            // inside a kServerStep span
  std::int32_t gap = -1;           // open gap span, if any
  SpanName after = SpanName::kGapLoop;  // what the call that opened the gap implies
};

class Tracer {
 public:
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// This thread's buffer (registered on first use).
  static ThreadTrace& local();
  /// Every registered buffer. Read only after the traced phase has quiesced.
  static std::vector<ThreadTrace*> threads();

  static std::int32_t open(SpanName name, std::uint64_t request);
  static void close(std::int32_t index);

  /// Writes every span as a binary record file (see perfbench/README.md).
  static bool write(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span; a no-op while tracing is off.
class Scope {
 public:
  Scope(SpanName name, std::uint64_t request = 0)
      : index_(Tracer::enabled() ? Tracer::open(name, request) : -1) {}
  ~Scope() { Tracer::close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int32_t index_;
};

/// The server step as a span: marks the thread as the driver loop so the
/// wrapper records the gaps between its calls, and closes the last gap.
class StepScope {
 public:
  StepScope();
  ~StepScope();
  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

 private:
  std::int32_t index_;
};

/// recvfrom(2) calls this process has made, on every socket. The build
/// links with -Wl,--wrap=recvfrom, so the library's UdpTransports call a
/// counting wrapper without knowing it.
std::uint64_t recvfrom_calls();

/// Handshake step of a fabric message, for wire accounting.
enum class Step : std::uint8_t { kA1, kB1, kA2, kB2, kData, kOther, kCount };
inline constexpr std::size_t kSteps = static_cast<std::size_t>(Step::kCount);
Step step_of(const std::string& label);

/// Hooks the wrapper calls back into the benchmark with (traced phase only).
class TransportObserver {
 public:
  virtual ~TransportObserver() = default;
  virtual void received(const ecqv::proto::Datagram& datagram, std::uint64_t at_ns) = 0;
  virtual void sending(const ecqv::cert::DeviceId& dst, Step step, std::uint64_t at_ns) = 0;
};

/// The server's FdTransport: forwards every call to a UdpTransport, counts
/// encoded bytes and datagrams by handshake step in both directions, and
/// records spans and gaps while tracing is on.
class TimedTransport final : public ecqv::net::FdTransport {
 public:
  struct Counts {
    std::array<std::uint64_t, kSteps> bytes_in{}, bytes_out{}, datagrams_in{}, datagrams_out{};

    [[nodiscard]] std::uint64_t bytes(Step s) const {
      return bytes_in[static_cast<std::size_t>(s)] + bytes_out[static_cast<std::size_t>(s)];
    }
    [[nodiscard]] std::uint64_t datagrams(Step s) const {
      return datagrams_in[static_cast<std::size_t>(s)] +
             datagrams_out[static_cast<std::size_t>(s)];
    }
    [[nodiscard]] Counts minus(const Counts& earlier) const;
  };

  TimedTransport(std::unique_ptr<ecqv::net::UdpTransport> inner, bool workers);

  void set_observer(TransportObserver* observer) { observer_ = observer; }
  [[nodiscard]] ecqv::net::UdpTransport& inner() { return *inner_; }
  [[nodiscard]] Counts counts() const;

  void attach(const ecqv::cert::DeviceId& endpoint) override { inner_->attach(endpoint); }
  ecqv::Status send(const ecqv::cert::DeviceId& src, const ecqv::cert::DeviceId& dst,
                    const ecqv::proto::Message& message) override;
  std::optional<ecqv::proto::Datagram> receive(const ecqv::cert::DeviceId& dst) override;
  [[nodiscard]] bool idle() override { return inner_->idle(); }
  [[nodiscard]] double now_ms() override { return inner_->now_ms(); }
  [[nodiscard]] std::vector<int> poll_fds() override;
  [[nodiscard]] bool wants_write(int fd) override { return inner_->wants_write(fd); }
  std::size_t service() override;

 private:
  struct Atomics {
    std::array<std::atomic<std::uint64_t>, kSteps> bytes_in{}, bytes_out{}, datagrams_in{},
        datagrams_out{};
  };
  /// Call boundary on the driver thread: closes the open gap (classified
  /// by what ended it) and returns the call's own span.
  std::int32_t begin_call(SpanName name, std::uint64_t at);
  void end_call(std::int32_t index, SpanName gap_after, std::uint64_t at);

  std::unique_ptr<ecqv::net::UdpTransport> inner_;
  bool workers_;
  TransportObserver* observer_ = nullptr;
  Atomics atomics_;
};

}  // namespace perfbench
