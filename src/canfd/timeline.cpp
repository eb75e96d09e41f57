#include "canfd/timeline.hpp"

#include <algorithm>

namespace ecqv::can {

void TimelineRecorder::record(TimelineEvent event) {
  MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

void TimelineRecorder::clear() {
  MutexLock lock(mutex_);
  events_.clear();
}

std::vector<TimelineEvent> TimelineRecorder::events() const {
  MutexLock lock(mutex_);
  return events_;
}

TimelineRecorder::Summary TimelineRecorder::summary() const {
  MutexLock lock(mutex_);
  Summary out;
  for (const TimelineEvent& e : events_) {
    out.end_ms = std::max(out.end_ms, e.end_ms);
    switch (e.kind) {
      case TimelineEvent::Kind::kFrame:
      case TimelineEvent::Kind::kFlowControl:
        ++out.frames;
        out.bus_busy_ms += e.duration_ms();
        out.contention_wait_ms += e.wait_ms();
        out.max_wait_ms = std::max(out.max_wait_ms, e.wait_ms());
        out.wire_bytes += e.wire_bytes;
        break;
      case TimelineEvent::Kind::kDatagram: ++out.datagrams; break;
      case TimelineEvent::Kind::kDrop: ++out.drops; break;
      case TimelineEvent::Kind::kFcTimeout: ++out.fc_timeouts; break;
      case TimelineEvent::Kind::kCompute: break;
      case TimelineEvent::Kind::kAbort: ++out.aborts; break;
      case TimelineEvent::Kind::kFault: ++out.faults; break;
    }
  }
  return out;
}

}  // namespace ecqv::can
