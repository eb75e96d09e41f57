// Pluggable transport layer: how fabric messages move between endpoints.
//
// The paper frames the protocol as messages riding a CAN-FD stack (Fig. 6).
// A Transport makes that link an explicit, swappable component:
//
//   * IdealLinkTransport — the zero-latency in-memory link, behind one
//     mutex so a worker pool can send replies while the main loop polls.
//   * can::CanFdTransport (src/canfd/canfd_transport.hpp) — the same
//     datagrams framed through session-layer PDUs + ISO-TP fragmentation
//     onto the simulated CAN-FD bus, so fleet runs measure real
//     fragmentation, flow control and bus timing.
//   * FaultyTransport (fault injection over either) and the net/ sockets.
//
// A Datagram is one addressed fabric message: source, destination, and the
// protocol Message (handshake step, ratchet announcement, or sealed data
// record). Transports deliver per-destination FIFO; per-source ordering to
// one destination is preserved — the property the broker's per-peer
// handshake state machine relies on. ConcurrentSessionBroker::poll is the
// one piece of code that moves datagrams between a Transport and a broker.
// A two-party exchange never has more than one message in flight, so it
// needs no link: alternate() below hands each reply straight back.
#pragma once

#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/sync.hpp"
#include "core/message.hpp"

namespace ecqv::proto {

struct Datagram {
  cert::DeviceId src;
  cert::DeviceId dst;
  Message message;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers an endpoint address. Sending from / to an unattached
  /// endpoint fails with kBadState.
  virtual void attach(const cert::DeviceId& endpoint) = 0;

  /// Queues one message from `src` to `dst`. A transport may drop traffic
  /// (lossy links return kOk — loss is the receiver's problem, as on a real
  /// bus); errors are reserved for misuse (unattached endpoints, oversized
  /// payloads).
  virtual Status send(const cert::DeviceId& src, const cert::DeviceId& dst,
                      const Message& message) = 0;

  /// Next datagram addressed to `dst` (FIFO), advancing the link
  /// simulation as needed. nullopt when nothing is deliverable.
  virtual std::optional<Datagram> receive(const cert::DeviceId& dst) = 0;

  /// True when no datagram is queued for any endpoint and nothing is in
  /// flight. Stalled partial transfers on lossy links do not count — they
  /// can never complete.
  [[nodiscard]] virtual bool idle() = 0;

  // ---- virtual-time hooks ----------------------------------------------
  // Transports that model link time (the CAN-FD bus simulation) expose
  // their clock here so sim/schedule can build time-faithful timelines
  // from the transported bytes themselves. The defaults model the ideal
  // link: time never advances and compute is free, so existing transports
  // and tests are unaffected.

  /// Simulated link clock (ms) after everything sent so far has been
  /// delivered. Ideal links return 0 — delivery is instantaneous.
  [[nodiscard]] virtual double now_ms();

  /// Charges `ms` of device compute time to an endpoint's local clock:
  /// the endpoint cannot inject traffic earlier than its clock, so
  /// protocol timelines serialize compute and bus occupancy correctly.
  virtual void charge(const cert::DeviceId& endpoint, double ms);

  /// An endpoint's local clock: the later of its accumulated compute and
  /// the link clock at its last delivery.
  [[nodiscard]] virtual double endpoint_time_ms(const cert::DeviceId& endpoint);

  /// Moves the link clock forward to `t_ms`, releasing whatever the link
  /// held until then. Monotonic: moving backwards is a no-op. Links whose
  /// clock is not the caller's to move ignore it: the ideal link stays
  /// pinned at 0, the bus advances with its own traffic.
  virtual void advance_to(double t_ms);

  /// Earliest link-clock instant at which held traffic becomes deliverable
  /// with no further sends (a delayed datagram). nullopt when the link
  /// holds nothing for time.
  [[nodiscard]] virtual std::optional<double> next_release_ms();
};

/// The ideal in-memory link: instant delivery, per-destination FIFO
/// inboxes behind one mutex, so worker pools may share it.
class IdealLinkTransport final : public Transport {
 public:
  struct Stats {
    StatCounter messages = 0;
    StatCounter payload_bytes = 0;
  };

  void attach(const cert::DeviceId& endpoint) override;
  Status send(const cert::DeviceId& src, const cert::DeviceId& dst,
              const Message& message) override;
  std::optional<Datagram> receive(const cert::DeviceId& dst) override;
  [[nodiscard]] bool idle() override;

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  Mutex mutex_;
  std::unordered_map<cert::DeviceId, std::deque<Datagram>, DeviceIdHash> inboxes_
      GUARDED_BY(mutex_);
  Stats stats_;
};

/// Upper bound on one two-party exchange. No protocol here exceeds 8
/// messages; the bound stops two state machines ping-ponging forever.
inline constexpr std::size_t kMaxExchange = 16;

/// Runs one two-party exchange: `first` goes to the second party, then each
/// reply goes straight back to the other side until one side has nothing
/// to say. `deliver(to_second, message)` hands `message` to that party and
/// returns its reply. Returns the number of messages delivered, the first
/// rejection, or kBadState when a reply is still owed after kMaxExchange
/// deliveries.
template <typename Deliver>
Result<std::size_t> alternate(Message first, Deliver&& deliver) {
  std::optional<Message> next = std::move(first);
  std::size_t delivered = 0;
  for (bool to_second = true; next.has_value(); to_second = !to_second) {
    if (delivered == kMaxExchange) return Error::kBadState;
    ++delivered;
    Result<std::optional<Message>> reply = deliver(to_second, *next);
    if (!reply.ok()) return reply.error();
    next = std::move(reply).value();
  }
  return delivered;
}

}  // namespace ecqv::proto
