// Virtual-clock invariants of the CAN-FD timeline (tentpole of the
// time-faithful Fig. 7 rebuild): frame events are monotone and
// non-overlapping on one bus, per-frame occupancy equals the bitstream's
// exact bit counts, contention waits measure exactly the bus-busy time a
// ready frame sat behind, compute charges gate injection, the N_Bs
// timeout stalls the sender's clock, and sim::replay_timeline composes
// all of it into a schedule whose totals come from the transported bytes.
#include <gtest/gtest.h>

#include "canfd/bitstream.hpp"
#include "canfd/canfd_transport.hpp"
#include "canfd/isotp.hpp"
#include "sim/calibrate.hpp"
#include "sim/schedule.hpp"

namespace ecqv {
namespace {

using can::TimelineEvent;

cert::DeviceId id_of(const char* name) { return cert::DeviceId::from_string(name); }

proto::Message data_message(std::size_t payload_size, std::uint8_t fill = 0x5a) {
  proto::Message m;
  m.step = std::string(proto::kDataStepLabel);
  m.sender = proto::Role::kInitiator;
  m.payload = Bytes(payload_size, fill);
  return m;
}

/// The exact fabric payload the transport puts on the wire for `message`
/// sent src -> dst as transfer serial `serial`.
Bytes fabric_payload(const cert::DeviceId& src, const cert::DeviceId& dst,
                     const proto::Message& message, std::uint16_t serial) {
  Bytes payload;
  payload.insert(payload.end(), src.bytes.begin(), src.bytes.end());
  payload.insert(payload.end(), dst.bytes.begin(), dst.bytes.end());
  append(payload, can::wrap_fabric(message, serial).encode());
  return payload;
}

std::vector<TimelineEvent> frame_events(const can::TimelineRecorder& recorder) {
  std::vector<TimelineEvent> frames;
  for (const auto& e : recorder.events())
    if (e.kind == TimelineEvent::Kind::kFrame || e.kind == TimelineEvent::Kind::kFlowControl)
      frames.push_back(e);
  return frames;
}

TEST(Timeline, FrameOccupancyMatchesExactBitstreamBits) {
  // One segmented transfer: every frame event's occupancy must equal the
  // serialized frame's exact bit budget (dynamic stuffing, fixed CRC-field
  // stuffing, CRC-17/21 split) at the configured phase bit rates.
  can::TimelineRecorder recorder;
  can::CanFdTransport::Config config;
  config.timing.stuffing = can::StuffModel::kExact;
  config.recorder = &recorder;
  can::CanFdTransport link(config);
  link.attach(id_of("a"));
  link.attach(id_of("b"));

  const proto::Message message = data_message(300);
  ASSERT_TRUE(link.send(id_of("a"), id_of("b"), message).ok());
  ASSERT_TRUE(link.receive(id_of("b")).has_value());

  // Reconstruct the expected wire image: sender frames (can id 0x001 was
  // assigned to "a" first) plus the receiver's FC (0x002), in bus order
  // FF, FC, CF... — the FC answers the FF before the CFs proceed.
  const auto sender_frames =
      can::isotp_segment(0x001, fabric_payload(id_of("a"), id_of("b"), message, 1));
  ASSERT_GT(sender_frames.size(), 1u);
  std::vector<can::CanFdFrame> wire;
  wire.push_back(sender_frames[0]);
  wire.push_back(can::flow_control_frame(0x002));
  for (std::size_t i = 1; i < sender_frames.size(); ++i) wire.push_back(sender_frames[i]);

  const auto frames = frame_events(recorder);
  ASSERT_EQ(frames.size(), wire.size());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const double expected = can::exact_frame_duration_ms(wire[i], config.timing);
    EXPECT_NEAR(frames[i].duration_ms(), expected, 1e-12) << "frame " << i;
    EXPECT_EQ(frames[i].wire_bytes, wire[i].data.size()) << "frame " << i;
    // And the exact budget really is the two-phase bit split.
    const auto bits = can::exact_frame_bits(wire[i]);
    const double recomputed = (static_cast<double>(bits.nominal) / config.timing.nominal_bitrate +
                               static_cast<double>(bits.data) / config.timing.data_bitrate) *
                              1e3;
    EXPECT_NEAR(expected, recomputed, 1e-12);
  }
}

TEST(Timeline, FrameEventsAreMonotoneAndNonOverlappingPerBus) {
  can::TimelineRecorder recorder;
  can::CanFdTransport::Config config;
  config.recorder = &recorder;
  can::CanFdTransport link(config);
  for (const char* name : {"a", "b", "c", "sink"}) link.attach(id_of(name));
  // Three competing multi-frame transfers plus replies interleave.
  for (const char* name : {"a", "b", "c"})
    ASSERT_TRUE(link.send(id_of(name), id_of("sink"), data_message(200)).ok());
  while (link.receive(id_of("sink")).has_value()) {
  }

  const auto frames = frame_events(recorder);
  ASSERT_GE(frames.size(), 9u);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_GE(frames[i].start_ms, frames[i - 1].start_ms) << i;
    EXPECT_GE(frames[i].start_ms, frames[i - 1].end_ms - 1e-12) << "frames overlap at " << i;
  }
  for (const auto& f : frames) {
    EXPECT_GE(f.start_ms, f.queued_ms) << "frame started before it was ready";
    EXPECT_GT(f.duration_ms(), 0.0);
  }
}

TEST(Timeline, ContentionWaitsSumToBusBusyTime) {
  // K senders, one single-frame message each, all ready at t=0: frame i
  // waits exactly the bus occupancy of the frames serialized before it,
  // and the bus never idles, so busy time == timeline horizon.
  can::TimelineRecorder recorder;
  can::CanFdTransport::Config config;
  config.recorder = &recorder;
  can::CanFdTransport link(config);
  for (const char* name : {"a", "b", "c", "sink"}) link.attach(id_of(name));
  for (const char* name : {"a", "b", "c"})
    ASSERT_TRUE(link.send(id_of(name), id_of("sink"), data_message(10)).ok());
  while (link.receive(id_of("sink")).has_value()) {
  }

  const auto frames = frame_events(recorder);
  ASSERT_EQ(frames.size(), 3u);  // three Single Frames, no FC rounds
  double busy_before = 0.0;
  double wait_sum = 0.0;
  for (const auto& f : frames) {
    EXPECT_DOUBLE_EQ(f.queued_ms, 0.0);
    EXPECT_NEAR(f.wait_ms(), busy_before, 1e-12);
    busy_before += f.duration_ms();
    wait_sum += f.wait_ms();
  }
  const auto summary = recorder.summary();
  EXPECT_NEAR(summary.contention_wait_ms, wait_sum, 1e-12);
  EXPECT_NEAR(summary.bus_busy_ms, summary.end_ms, 1e-12);  // no idle air
  EXPECT_NEAR(summary.bus_busy_ms, busy_before, 1e-12);
  EXPECT_EQ(summary.frames, 3u);
  // The bus's own occupancy counter and the event-derived sum are the
  // same quantity — neither definition may drift from the other.
  EXPECT_NEAR(link.bus_busy_ms(), summary.bus_busy_ms, 1e-12);
}

TEST(Timeline, ComputeChargesGateInjectionAndAreRecorded) {
  can::TimelineRecorder recorder;
  can::CanFdTransport::Config config;
  config.recorder = &recorder;
  can::CanFdTransport link(config);
  link.attach(id_of("a"));
  link.attach(id_of("b"));

  link.charge(id_of("a"), 5.0);
  EXPECT_DOUBLE_EQ(link.endpoint_time_ms(id_of("a")), 5.0);
  ASSERT_TRUE(link.send(id_of("a"), id_of("b"), data_message(10)).ok());
  ASSERT_TRUE(link.receive(id_of("b")).has_value());

  const auto frames = frame_events(recorder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_DOUBLE_EQ(frames[0].queued_ms, 5.0);  // could not inject earlier
  EXPECT_DOUBLE_EQ(frames[0].start_ms, 5.0);   // free bus: starts when ready
  // The receiver's clock lands at delivery; the compute event is recorded.
  EXPECT_DOUBLE_EQ(link.endpoint_time_ms(id_of("b")), frames[0].end_ms);
  bool saw_compute = false;
  for (const auto& e : recorder.events()) {
    if (e.kind != TimelineEvent::Kind::kCompute) continue;
    saw_compute = true;
    EXPECT_EQ(e.src, id_of("a"));
    EXPECT_DOUBLE_EQ(e.start_ms, 0.0);
    EXPECT_DOUBLE_EQ(e.end_ms, 5.0);
  }
  EXPECT_TRUE(saw_compute);
}

TEST(Timeline, DatagramEventSpansItsWholeTransfer) {
  can::TimelineRecorder recorder;
  can::CanFdTransport::Config config;
  config.recorder = &recorder;
  can::CanFdTransport link(config);
  link.attach(id_of("a"));
  link.attach(id_of("b"));
  ASSERT_TRUE(link.send(id_of("a"), id_of("b"), data_message(300)).ok());
  ASSERT_TRUE(link.receive(id_of("b")).has_value());

  const auto frames = frame_events(recorder);
  std::size_t data_bytes = 0;
  for (const auto& f : frames)
    if (f.kind == TimelineEvent::Kind::kFrame) data_bytes += f.wire_bytes;
  const auto events = recorder.events();
  const auto datagram =
      std::find_if(events.begin(), events.end(), [](const TimelineEvent& e) {
        return e.kind == TimelineEvent::Kind::kDatagram;
      });
  ASSERT_NE(datagram, events.end());
  EXPECT_EQ(datagram->label, proto::kDataStepLabel);
  EXPECT_EQ(datagram->src, id_of("a"));
  EXPECT_EQ(datagram->dst, id_of("b"));
  EXPECT_DOUBLE_EQ(datagram->queued_ms, frames.front().queued_ms);
  EXPECT_DOUBLE_EQ(datagram->start_ms, frames.front().start_ms);
  EXPECT_DOUBLE_EQ(datagram->end_ms, frames.back().end_ms);
  EXPECT_EQ(datagram->wire_bytes, data_bytes);  // FC bytes are not payload path
}

TEST(Timeline, LostFlowControlChargesNbsTimeoutToTheSender) {
  can::TimelineRecorder recorder;
  can::CanFdTransport::Config config;
  config.recorder = &recorder;
  config.drop_frame = [](const can::CanFdFrame& frame) {
    return !frame.data.empty() && (frame.data[0] >> 4) == 0x3;  // kill every FC
  };
  can::CanFdTransport link(config);
  link.attach(id_of("a"));
  link.attach(id_of("b"));
  ASSERT_TRUE(link.send(id_of("a"), id_of("b"), data_message(300)).ok());
  EXPECT_FALSE(link.receive(id_of("b")).has_value());  // transfer died
  EXPECT_EQ(link.stats().fc_timeouts, 1u);

  const auto summary = recorder.summary();
  EXPECT_EQ(summary.drops, 1u);
  EXPECT_EQ(summary.fc_timeouts, 1u);
  bool saw_timeout = false;
  for (const auto& e : recorder.events()) {
    if (e.kind != TimelineEvent::Kind::kFcTimeout) continue;
    saw_timeout = true;
    EXPECT_NEAR(e.duration_ms(), 100.0, 1e-12);  // the sender's N_Bs
  }
  EXPECT_TRUE(saw_timeout);
  // The stalled sender cannot inject again before the timeout elapsed.
  EXPECT_GE(link.endpoint_time_ms(id_of("a")), 100.0);
}

TEST(Timeline, IdealLinkTimeHooksAreFreeByDefault) {
  proto::IdealLinkTransport link;
  link.attach(id_of("a"));
  EXPECT_DOUBLE_EQ(link.now_ms(), 0.0);
  link.charge(id_of("a"), 123.0);  // no-op by contract
  EXPECT_DOUBLE_EQ(link.endpoint_time_ms(id_of("a")), 0.0);
}

// ------------------------------------------------- sim/schedule composition

TEST(Timeline, BusTimingComesFromTheDeviceLinkProfile) {
  sim::DeviceModel dev{"unit", 1.0, 1.0};
  dev.link.nominal_bitrate = 125'000.0;
  dev.link.data_bitrate = 1'000'000.0;
  const can::BusTiming timing = sim::bus_timing(dev);
  EXPECT_DOUBLE_EQ(timing.nominal_bitrate, 125'000.0);
  EXPECT_DOUBLE_EQ(timing.data_bitrate, 1'000'000.0);
  EXPECT_EQ(timing.stuffing, can::StuffModel::kExact);
  EXPECT_EQ(sim::bus_timing(dev, can::StuffModel::kEstimate).stuffing,
            can::StuffModel::kEstimate);
}

TEST(Timeline, ReplayTimelineDerivesTotalsFromTheTransportClock) {
  const sim::RunRecord record = sim::record_run(proto::ProtocolKind::kSts);
  sim::DeviceModel dev{"unit", 0.01, 0.001};  // small but nonzero compute

  can::TimelineRecorder recorder;
  can::CanFdTransport::Config config;
  config.timing.stuffing = can::StuffModel::kExact;
  config.recorder = &recorder;
  can::CanFdTransport link(config);
  const auto timeline = sim::replay_timeline(record, dev, dev, "BMS", "EVCC", link);

  ASSERT_FALSE(timeline.empty());
  // Monotone schedule; the timeline's horizon IS the transport's clock.
  for (std::size_t i = 1; i < timeline.size(); ++i)
    EXPECT_GE(timeline[i].start_ms, timeline[i - 1].start_ms - 1e-12) << i;
  EXPECT_NEAR(sim::timeline_total_ms(timeline), link.now_ms(), 1e-9);

  // Exactly one tx row per transcript message, sourced from real datagrams.
  std::size_t tx_rows = 0;
  double compute_ms = 0.0;
  for (const auto& e : timeline) {
    if (e.label.rfind("tx:", 0) == 0) {
      ++tx_rows;
      EXPECT_GT(e.duration_ms(), 0.0) << e.label;  // real wire time, not 0
    } else {
      compute_ms += e.duration_ms();
    }
  }
  EXPECT_EQ(tx_rows, record.transcript.size());
  EXPECT_EQ(recorder.summary().datagrams, record.transcript.size());
  // Wire time strictly separates the total from pure compute.
  EXPECT_GT(sim::timeline_total_ms(timeline), compute_ms);

  // The same run on the ideal link collapses to compute only (hooks
  // default to zero time) without throwing.
  proto::IdealLinkTransport ideal;
  const auto flat = sim::replay_timeline(record, dev, dev, "BMS", "EVCC", ideal);
  for (const auto& e : flat)
    if (e.label.rfind("tx:", 0) == 0) EXPECT_DOUBLE_EQ(e.duration_ms(), 0.0);
}

TEST(Timeline, TransportTimelineRendersDatagramAndComputeRows) {
  can::TimelineRecorder recorder;
  can::CanFdTransport::Config config;
  config.recorder = &recorder;
  can::CanFdTransport link(config);
  link.attach(id_of("a"));
  link.attach(id_of("b"));
  link.charge(id_of("a"), 2.0);
  ASSERT_TRUE(link.send(id_of("a"), id_of("b"), data_message(100)).ok());
  ASSERT_TRUE(link.receive(id_of("b")).has_value());

  const auto rows = sim::transport_timeline(
      recorder, [](const cert::DeviceId& id) { return id == id_of("a") ? "A" : "B"; });
  ASSERT_EQ(rows.size(), 2u);  // one compute row + one tx row, sorted
  EXPECT_EQ(rows[0].label, "compute");
  EXPECT_EQ(rows[0].device, "A");
  EXPECT_EQ(rows[1].label, std::string("tx:") + std::string(proto::kDataStepLabel));
  EXPECT_GE(rows[1].start_ms, rows[0].start_ms);
}

}  // namespace
}  // namespace ecqv
