// Pluggable transport layer: how fabric messages move between endpoints.
//
// The paper frames the protocol as messages riding a CAN-FD stack (Fig. 6);
// PR 2's broker instead shuttled Message objects directly between two
// objects in memory, and every test/bench/example grew its own copy of that
// loop. This interface makes the link an explicit, swappable component:
//
//   * IdealLinkTransport — the zero-latency in-memory link (what the old
//     pump loops modeled implicitly), with optional thread safety so a
//     worker pool can send replies while the main loop polls.
//   * can::CanFdTransport (src/canfd/canfd_transport.hpp) — the same
//     datagrams framed through session-layer PDUs + ISO-TP fragmentation
//     onto the simulated CAN-FD bus, so fleet runs measure real
//     fragmentation, flow control and bus timing.
//
// A Datagram is one addressed fabric message: source, destination, and the
// protocol Message (handshake step, ratchet announcement, or sealed data
// record). Transports deliver per-destination FIFO; per-source ordering to
// one destination is preserved — the property the broker's per-peer
// handshake state machine relies on.
#pragma once

#include <deque>
#include <functional>
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

/// One transport endpoint for the shared pump: an address plus the handler
/// that consumes an inbound message and may produce a reply (sent back to
/// the datagram's source).
struct Endpoint {
  cert::DeviceId id;
  std::function<Result<std::optional<Message>>(const cert::DeviceId& from, const Message&)>
      handler;
};

/// What one pump_endpoints() run did. Per-datagram failures are isolated:
/// a handler rejecting one malformed message (or one reply failing to
/// send) is counted here and the loop keeps draining every other endpoint
/// — one poisoned datagram from one peer must not starve the fabric.
struct PumpStats {
  std::size_t delivered = 0;       // datagrams handed to handlers
  std::size_t handler_errors = 0;  // handler rejections (datagram consumed, loop continued)
  std::size_t send_errors = 0;     // reply send failures (loop continued)
  /// First handler/send failure, for callers that treat any casualty as
  /// fatal (the two-party driver does: its handshake cannot survive one).
  Error first_error = Error::kOk;

  [[nodiscard]] bool clean() const { return handler_errors == 0 && send_errors == 0; }
};

/// THE message loop — drains `transport`, dispatching every datagram to its
/// endpoint's handler and sending replies back through the transport, until
/// the link is idle. Replaces the hand-rolled shuttling loops that used to
/// live in core/driver, SessionBroker::pump, the benches and the examples.
///
/// Per-datagram handler/send failures do NOT abort the loop — they are
/// counted in the returned PumpStats (see above) and draining continues, so
/// one corrupted datagram cannot stall healthy peers. The error return is
/// reserved for transport misuse: kBadState when `max_messages` datagrams
/// have been delivered and traffic is still queued (a protocol state
/// machine ping-ponging forever). The budget is checked BEFORE receiving,
/// so no datagram is ever consumed and then silently dropped at the
/// boundary — whatever the budget refuses stays queued in the transport.
Result<PumpStats> pump_endpoints(Transport& transport, const std::vector<Endpoint>& endpoints,
                                 std::size_t max_messages = 100000);

}  // namespace ecqv::proto
