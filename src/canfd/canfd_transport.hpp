// CAN-FD fabric transport: proto::Transport over the full Fig. 6 stack.
//
// Every fabric datagram is framed as
//
//   src id (16) || dst id (16) || AppPdu (comm code, session id, op code, data)
//
// then segmented by ISO-TP into CAN-FD frames on one shared simulated bus.
// Addressing follows ISO-TP normal addressing with a session-layer
// extension: the 11-bit arbitration id identifies the *sender* (assigned
// at attach), so concurrent transfers from different peers demultiplex by
// arbitration id — exactly how interleaved multi-peer ISO-TP coexists on a
// real bus — while the destination rides in the payload header and is
// filtered at the session layer (the paper's session comm id row).
//
// Arbitration realism: competing senders' pending frames are merged onto
// the bus round-robin, one frame per sender per turn (equal-priority
// arbitration), so a 5-frame B1 from one peer genuinely interleaves with
// another peer's transfer. After a First Frame the receiver's Flow Control
// frame is scheduled from the receiver's node, charging the FC round to
// the bus exactly as transfer.cpp's per-message model does. (The sender
// does not stall waiting for the FC — BS=0/STmin=0, the same documented
// approximation the rest of src/canfd uses.)
//
// Loss model: `drop_frame` (a test hook standing in for bus errors) kills
// individual frames before they reach the bus. A dropped Flow Control
// aborts the remaining Consecutive Frames of its transfer — the sender's
// FC timeout (N_Bs) — counted in stats().fc_timeouts; a dropped FF/CF
// surfaces as an aborted reassembly (stats().aborted_transfers, with a
// kAbort timeline event). Message loss is silent to send(), as on the real
// bus: recovery belongs to the layers above — since PR 6 that is the
// broker's reliability engine (core/session_broker.hpp ReliabilityConfig:
// retransmission timers on this bus clock, duplicate suppression, abort/
// rekey escalation), with the pending-handshake TTL as the backstop. For
// datagram-level fault injection (drop/duplicate/reorder/delay/corrupt)
// wrap this transport in proto::FaultyTransport; frame-level Bernoulli
// loss plugs in via FaultyTransport::frame_drop_plan as `drop_frame`.
//
// Thread safety: all public calls serialize on one internal mutex — the
// bus simulation is inherently a shared medium, so coarse locking *is* the
// faithful model.
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "canfd/bus.hpp"
#include "canfd/isotp.hpp"
#include "canfd/session_layer.hpp"
#include "canfd/timeline.hpp"
#include "core/transport.hpp"

namespace ecqv::can {

class CanFdTransport final : public proto::Transport {
 public:
  struct Config {
    BusTiming timing{};
    /// Test hook simulating bus errors: return true to drop this frame.
    std::function<bool(const CanFdFrame&)> drop_frame;
    /// Virtual-clock tap (not owned; must outlive the transport): every
    /// frame, flow-control round, completed datagram, drop and N_Bs
    /// timeout is recorded with its bus-time interval. Null = no events.
    TimelineRecorder* recorder = nullptr;
    /// Sender-side N_Bs: how long (simulated ms) a sender waits for the
    /// Flow Control after a First Frame before abandoning the transfer.
    /// Charged to the sender's node clock when the loss model kills the
    /// FC (or the FF itself), so lossy timelines stall realistically.
    /// ISO 15765-2 allows up to 1000 ms; embedded stacks typically run
    /// much tighter budgets.
    double fc_timeout_ms = 100.0;
  };

  struct Stats {
    StatCounter messages_sent = 0;
    StatCounter messages_delivered = 0;
    StatCounter frames_sent = 0;       // data-bearing frames put on the bus
    StatCounter flow_controls = 0;     // FC frames scheduled by receivers
    StatCounter frames_dropped = 0;    // killed by the loss hook
    StatCounter fc_timeouts = 0;       // transfers aborted by a lost FC
    StatCounter aborted_transfers = 0; // reassembly failures (loss, gaps)
    StatCounter stray_frames = 0;      // orphan CFs trailing an aborted transfer
    StatCounter wire_bytes = 0;        // DLC-padded bytes on the bus
    StatCounter payload_bytes = 0;     // application Message payload bytes
  };

  CanFdTransport() : CanFdTransport(Config{}) {}
  explicit CanFdTransport(Config config);

  void attach(const cert::DeviceId& endpoint) override;
  Status send(const cert::DeviceId& src, const cert::DeviceId& dst,
              const proto::Message& message) override;
  std::optional<proto::Datagram> receive(const cert::DeviceId& dst) override;
  [[nodiscard]] bool idle() override;

  /// Simulated bus clock (ms) after everything queued so far has been
  /// arbitrated and delivered.
  [[nodiscard]] double bus_time_ms();

  /// Total medium occupancy (ms): bus_time_ms() minus idle air time. The
  /// recorder's Summary::bus_busy_ms sums the same quantity from frame
  /// events — test_timeline.cpp pins the two definitions together.
  [[nodiscard]] double bus_busy_ms();

  // Virtual-time hooks (proto::Transport): the bus clock IS the link
  // clock, compute charges gate the endpoint's next injection, and the
  // endpoint clock is CanBus::node_time_ms — so sim/schedule timelines
  // built over this transport are bus-time faithful.
  [[nodiscard]] double now_ms() override { return bus_time_ms(); }
  void charge(const cert::DeviceId& endpoint, double ms) override;
  [[nodiscard]] double endpoint_time_ms(const cert::DeviceId& endpoint) override;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t frames_delivered() const { return bus_.frames_delivered(); }

 private:
  struct Node {
    cert::DeviceId id;
    CanBus::NodeId bus_node = 0;
    std::size_t txq = 0;  // index into txq_
    std::uint32_t can_id = 0;
    std::deque<proto::Datagram> inbox;
  };
  struct OutFrame {
    CanBus::NodeId bus_node = 0;
    CanFdFrame frame;
    std::uint64_t transfer = 0;  // serial of the transfer this frame belongs to
    bool flow_control = false;
    CanBus::NodeId data_node = 0;  // the transfer's data sender (N_Bs charges)
  };
  /// First-frame timing of the transfer currently reassembling for one
  /// sender arbitration id (feeds the per-datagram timeline event).
  struct RxTiming {
    double ready_ms = 0.0;
    double start_ms = 0.0;
    std::size_t wire_bytes = 0;  // DLC-padded bytes of the transfer so far
  };

  /// Merges every sender's pending frames onto the bus round-robin (one
  /// frame per sender per turn) and runs the bus until drained. Lock held.
  void flush() REQUIRES(mutex_);
  /// Switch-side frame sink (runs inside bus_.run() from flush — the lock
  /// is held across the run, re-asserted at the lambda boundary because the
  /// analysis cannot follow the bus's callback indirection).
  void on_bus_frame(const CanFdFrame& frame, double now_ms) REQUIRES(mutex_);
  /// Bus frame-timing tap (runs inside bus_.run(); recorder configured).
  void on_frame_timed(const CanFdFrame& frame, double ready_ms, double start_ms, double end_ms)
      REQUIRES(mutex_);
  /// Counts one abandoned transfer and emits its kAbort timeline event
  /// (`label` names the failure: gap, short payload, bad header, ...).
  void record_abort(std::uint32_t can_id, double now_ms, const char* label, std::size_t n = 1)
      REQUIRES(mutex_);

  Config config_;
  // The bus itself is only driven under the lock (flush and its callbacks),
  // but stays unguarded: frames_delivered() reads a monotone counter for
  // test assertions after the fabric quiesces.
  CanBus bus_;
  Mutex mutex_;
  std::vector<std::unique_ptr<Node>> nodes_ GUARDED_BY(mutex_);
  std::unordered_map<cert::DeviceId, Node*, proto::DeviceIdHash> by_id_ GUARDED_BY(mutex_);
  std::unordered_map<std::uint32_t, Node*> by_can_id_ GUARDED_BY(mutex_);
  std::unordered_map<std::uint32_t, IsoTpReassembler> reassembly_
      GUARDED_BY(mutex_);  // keyed by sender can id
  std::unordered_map<std::uint32_t, RxTiming> rx_timing_
      GUARDED_BY(mutex_);  // keyed by sender can id
  std::vector<std::deque<OutFrame>> txq_
      GUARDED_BY(mutex_);  // per attached endpoint (Node::txq)
  std::size_t queued_frames_ GUARDED_BY(mutex_) = 0;  // frames in txq_ (flush fast path)
  std::uint64_t next_transfer_ GUARDED_BY(mutex_) = 1;
  std::uint32_t next_can_id_ GUARDED_BY(mutex_) = 0x001;
  Stats stats_;
};

}  // namespace ecqv::can
