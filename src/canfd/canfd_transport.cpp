#include "canfd/canfd_transport.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace ecqv::can {

namespace {

/// Fabric payload header: src id || dst id ahead of the AppPdu.
constexpr std::size_t kFabricHeaderSize = 2 * cert::kDeviceIdSize;

}  // namespace

CanFdTransport::CanFdTransport(Config config)
    : config_(std::move(config)), bus_(config_.timing) {
  // The switch: one silent bus node that sees every frame exactly once
  // (it never transmits), reassembles per sender arbitration id, and
  // routes completed datagrams to the destination inbox — the acceptance
  // filtering a real controller does in hardware.
  // The bus only runs from flush(), which holds mutex_ — but the analysis
  // cannot follow the callback indirection, so each sink re-asserts the
  // capability at its boundary instead of the sink functions going
  // unchecked.
  bus_.attach([this](const CanFdFrame& frame, double now) {
    mutex_.assert_held();
    on_bus_frame(frame, now);
  });
  if (config_.recorder != nullptr) {
    bus_.set_frame_observer(
        [this](CanBus::NodeId, const CanFdFrame& frame, double ready, double start, double end) {
          mutex_.assert_held();
          on_frame_timed(frame, ready, start, end);
        });
  }
}

void CanFdTransport::attach(const cert::DeviceId& endpoint) {
  MutexLock lock(mutex_);
  if (by_id_.find(endpoint) != by_id_.end()) return;
  if (next_can_id_ > 0x7ff)
    throw std::length_error("CanFdTransport: 11-bit arbitration id space exhausted");
  auto node = std::make_unique<Node>();
  node->id = endpoint;
  node->can_id = next_can_id_++;
  node->bus_node = bus_.attach([](const CanFdFrame&, double) {
    // Endpoint nodes only transmit; reception is centralized in the switch.
  });
  node->txq = txq_.size();
  by_id_.emplace(endpoint, node.get());
  by_can_id_.emplace(node->can_id, node.get());
  nodes_.push_back(std::move(node));
  txq_.emplace_back();
}

Status CanFdTransport::send(const cert::DeviceId& src, const cert::DeviceId& dst,
                            const proto::Message& message) {
  MutexLock lock(mutex_);
  const auto src_it = by_id_.find(src);
  const auto dst_it = by_id_.find(dst);
  if (src_it == by_id_.end() || dst_it == by_id_.end()) return Error::kBadState;
  const Node& src_node = *src_it->second;
  const Node& dst_node = *dst_it->second;

  const std::uint64_t transfer = next_transfer_++;
  Bytes payload;
  payload.reserve(kFabricHeaderSize + kAppHeaderSize + message.payload.size());
  payload.insert(payload.end(), src.bytes.begin(), src.bytes.end());
  payload.insert(payload.end(), dst.bytes.begin(), dst.bytes.end());
  append(payload, wrap_fabric(message, static_cast<std::uint16_t>(transfer)).encode());
  if (payload.size() > kIsoTpMaxPayload) return Error::kBadLength;

  const auto frames = isotp_segment(src_node.can_id, payload);
  std::deque<OutFrame>& queue = txq_[src_node.txq];
  const std::size_t queued_before = queue.size();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    queue.push_back(OutFrame{src_node.bus_node, frames[i], transfer, false, src_node.bus_node});
    if (i == 0 && frames.size() > 1) {
      // Segmented transfer: the receiver answers the First Frame with a
      // Flow Control frame before the Consecutive Frames proceed.
      queue.push_back(OutFrame{dst_node.bus_node, flow_control_frame(dst_node.can_id), transfer,
                               true, src_node.bus_node});
    }
  }
  queued_frames_ += queue.size() - queued_before;
  ++stats_.messages_sent;
  stats_.payload_bytes += message.payload.size();
  return {};
}

void CanFdTransport::flush() {
  // Idle fast path: receive()/idle() call flush() per datagram pull, and a
  // fleet-sized endpoint list must not pay an O(endpoints) queue scan when
  // nothing is waiting.
  if (queued_frames_ == 0) return;
  // Equal-priority arbitration: one frame per competing sender per turn,
  // so concurrent multi-frame transfers genuinely interleave on the bus.
  // Each round is *served* (bus_.run()) before the next round merges:
  // deliveries advance the receiving nodes' clocks first, so a reactive
  // frame (the FC answering a First Frame, the CFs released by that FC)
  // is stamped ready at its causal trigger, not at the stale clock its
  // node had when the whole transfer was queued — the timeline's
  // per-frame waits then measure genuine bus contention only.
  std::unordered_set<std::uint64_t> cancelled;
  std::vector<CanBus::NodeId> timed_out_senders;
  bool pending = true;
  while (pending) {
    pending = false;
    for (auto& queue : txq_) {
      if (queue.empty()) continue;
      pending = true;
      OutFrame out = std::move(queue.front());
      queue.pop_front();
      if (cancelled.count(out.transfer) != 0) continue;
      if (config_.drop_frame && config_.drop_frame(out.frame)) {
        ++stats_.frames_dropped;
        if (config_.recorder != nullptr) {
          // Drops are decided at the flush boundary, before the bus run
          // serializes this round — the event is stamped with the clock
          // as of the previous run (documented approximation).
          TimelineEvent e;
          e.kind = TimelineEvent::Kind::kDrop;
          e.can_id = out.frame.id;
          e.queued_ms = e.start_ms = e.end_ms = bus_.now_ms();
          config_.recorder->record(std::move(e));
        }
        const std::uint8_t type = out.frame.data.empty() ? 0xff : out.frame.data[0] >> 4;
        if (out.flow_control) {
          // The sender's N_Bs timeout fires: without the FC it must not
          // push the Consecutive Frames. The transfer is lost; recovery
          // belongs to the layers above.
          ++stats_.fc_timeouts;
          cancelled.insert(out.transfer);
          timed_out_senders.push_back(out.data_node);
        } else if (type == 0x1) {
          // Lost First Frame: the receiver never answers with an FC, so
          // the sender times out and abandons the whole transfer.
          record_abort(out.frame.id, bus_.now_ms(), "lost-ff");
          cancelled.insert(out.transfer);
          timed_out_senders.push_back(out.data_node);
        }
        continue;
      }
      stats_.wire_bytes += out.frame.data.size();
      if (out.flow_control)
        ++stats_.flow_controls;
      else
        ++stats_.frames_sent;
      bus_.send(out.bus_node, out.frame);
    }
    bus_.run();
  }
  queued_frames_ = 0;
  // N_Bs charges land after the round serializes: the sender sat waiting
  // for an FC (or an FF acknowledgment) that never came, so its node
  // clock — and therefore its next injection — moves out by the timeout.
  for (const CanBus::NodeId node : timed_out_senders) {
    const double t0 = bus_.node_time_ms(node);
    bus_.advance_node_time(node, config_.fc_timeout_ms);
    if (config_.recorder != nullptr) {
      TimelineEvent e;
      e.kind = TimelineEvent::Kind::kFcTimeout;
      e.queued_ms = e.start_ms = t0;
      e.end_ms = t0 + config_.fc_timeout_ms;
      config_.recorder->record(std::move(e));
    }
  }
}

void CanFdTransport::on_frame_timed(const CanFdFrame& frame, double ready_ms, double start_ms,
                                    double end_ms) {
  const std::uint8_t pci_type = frame.data.empty() ? 0xff : frame.data[0] >> 4;
  TimelineEvent e;
  e.kind = pci_type == 0x3 ? TimelineEvent::Kind::kFlowControl : TimelineEvent::Kind::kFrame;
  e.can_id = frame.id;
  e.queued_ms = ready_ms;
  e.start_ms = start_ms;
  e.end_ms = end_ms;
  e.wire_bytes = frame.data.size();
  config_.recorder->record(std::move(e));
  if (pci_type == 0x3) return;
  // Transfer timing: a First/Single Frame opens (or preempts) the
  // sender's in-flight transfer; Consecutive Frames accumulate bytes.
  RxTiming& rx = rx_timing_[frame.id];
  if (pci_type == 0x0 || pci_type == 0x1) rx = RxTiming{ready_ms, start_ms, 0};
  rx.wire_bytes += frame.data.size();
}

void CanFdTransport::record_abort(std::uint32_t can_id, double now_ms, const char* label,
                                  std::size_t n) {
  stats_.aborted_transfers += n;
  if (config_.recorder == nullptr) return;
  TimelineEvent e;
  e.kind = TimelineEvent::Kind::kAbort;
  e.can_id = can_id;
  e.label = label;
  e.queued_ms = e.start_ms = e.end_ms = now_ms;
  config_.recorder->record(std::move(e));
}

void CanFdTransport::on_bus_frame(const CanFdFrame& frame, double now_ms) {
  const auto sender = by_can_id_.find(frame.id);
  if (sender == by_can_id_.end()) return;  // switch's own FCs carry dst ids too
  const std::uint8_t pci_type = frame.data.empty() ? 0xff : frame.data[0] >> 4;
  if (pci_type == 0x3) return;  // flow control: transparent to reassembly
  IsoTpReassembler& rx = reassembly_[frame.id];
  const bool was_in_progress = rx.in_progress();
  const std::size_t aborted_before = rx.aborted();
  auto fed = rx.feed(frame);
  // A transfer can die two ways: a feed error (sequence gap), or a fresh
  // FF/SF terminating a stale in-flight transfer on the ok path (ISO
  // 15765-2 preemption — e.g. after a lost final consecutive frame).
  if (rx.aborted() > aborted_before)
    record_abort(frame.id, now_ms, "reassembly", rx.aborted() - aborted_before);
  if (!fed.ok()) {
    // Orphan frames trailing an already-aborted transfer (consecutive
    // frames arriving with no transfer open) are strays, not new aborts.
    if (!was_in_progress) ++stats_.stray_frames;
    return;
  }
  if (!fed->has_value()) return;
  const Bytes& payload = **fed;
  if (payload.size() < kFabricHeaderSize + kAppHeaderSize) {
    record_abort(frame.id, now_ms, "short-payload");
    return;
  }
  cert::DeviceId src, dst;
  std::copy_n(payload.begin(), cert::kDeviceIdSize, src.bytes.begin());
  std::copy_n(payload.begin() + cert::kDeviceIdSize, cert::kDeviceIdSize, dst.bytes.begin());
  // The arbitration id is the link-layer sender: a header claiming another
  // source is malformed (or spoofed) and never reaches the session layer.
  if (!(sender->second->id == src)) {
    record_abort(frame.id, now_ms, "src-mismatch");
    return;
  }
  auto pdu = AppPdu::decode(ByteView(payload).subspan(kFabricHeaderSize));
  if (!pdu.ok()) {
    record_abort(frame.id, now_ms, "bad-pdu");
    return;
  }
  Result<proto::Message> message = Error::kDecodeFailed;
  try {
    message = unwrap_fabric(pdu.value());
  } catch (const std::invalid_argument&) {
    // step_for_op_code rejects op codes outside the fabric vocabulary.
  }
  if (!message.ok()) {
    record_abort(frame.id, now_ms, "bad-step");
    return;
  }
  const auto dst_it = by_id_.find(dst);
  if (dst_it == by_id_.end()) return;  // addressed to nobody we know
  if (config_.recorder != nullptr) {
    // One event per delivered fabric datagram: FF readiness through the
    // final frame's end — the interval sim/schedule renders as "tx:<step>".
    const auto timing = rx_timing_.find(frame.id);
    TimelineEvent e;
    e.kind = TimelineEvent::Kind::kDatagram;
    e.can_id = frame.id;
    e.src = src;
    e.dst = dst;
    e.label = message->step;
    e.queued_ms = timing != rx_timing_.end() ? timing->second.ready_ms : now_ms;
    e.start_ms = timing != rx_timing_.end() ? timing->second.start_ms : now_ms;
    e.end_ms = now_ms;
    e.wire_bytes = timing != rx_timing_.end() ? timing->second.wire_bytes : 0;
    config_.recorder->record(std::move(e));
  }
  dst_it->second->inbox.push_back(
      proto::Datagram{src, dst, std::move(message).value()});
  ++stats_.messages_delivered;
}

std::optional<proto::Datagram> CanFdTransport::receive(const cert::DeviceId& dst) {
  MutexLock lock(mutex_);
  flush();
  const auto it = by_id_.find(dst);
  if (it == by_id_.end() || it->second->inbox.empty()) return std::nullopt;
  proto::Datagram out = std::move(it->second->inbox.front());
  it->second->inbox.pop_front();
  return out;
}

bool CanFdTransport::idle() {
  MutexLock lock(mutex_);
  flush();
  for (const auto& node : nodes_)
    if (!node->inbox.empty()) return false;
  return true;
}

double CanFdTransport::bus_time_ms() {
  MutexLock lock(mutex_);
  flush();
  return bus_.now_ms();
}

double CanFdTransport::bus_busy_ms() {
  MutexLock lock(mutex_);
  flush();
  return bus_.busy_ms();
}

void CanFdTransport::charge(const cert::DeviceId& endpoint, double ms) {
  MutexLock lock(mutex_);
  flush();  // the charge starts after everything already on the bus
  const auto it = by_id_.find(endpoint);
  if (it == by_id_.end()) return;
  const double t0 = bus_.node_time_ms(it->second->bus_node);
  bus_.advance_node_time(it->second->bus_node, ms);
  if (config_.recorder != nullptr) {
    TimelineEvent e;
    e.kind = TimelineEvent::Kind::kCompute;
    e.can_id = it->second->can_id;
    e.src = endpoint;
    e.queued_ms = e.start_ms = t0;
    e.end_ms = t0 + ms;
    config_.recorder->record(std::move(e));
  }
}

double CanFdTransport::endpoint_time_ms(const cert::DeviceId& endpoint) {
  MutexLock lock(mutex_);
  flush();
  const auto it = by_id_.find(endpoint);
  if (it == by_id_.end()) return bus_.now_ms();
  return bus_.node_time_ms(it->second->bus_node);
}

}  // namespace ecqv::can
