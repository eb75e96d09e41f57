#include "core/faulty_transport.hpp"

#include <algorithm>
#include <memory>

#include "canfd/canfd_transport.hpp"
#include "canfd/timeline.hpp"

namespace ecqv::proto {
namespace {

// splitmix64: tiny, seedable, and statistically fine for fault sampling.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

const char* fault_name(FaultyTransport::Fault f) {
  switch (f) {
    case FaultyTransport::Fault::kNone: return "none";
    case FaultyTransport::Fault::kDrop: return "drop";
    case FaultyTransport::Fault::kDuplicate: return "duplicate";
    case FaultyTransport::Fault::kReorder: return "reorder";
    case FaultyTransport::Fault::kDelay: return "delay";
    case FaultyTransport::Fault::kCorrupt: return "corrupt";
  }
  return "?";
}

}  // namespace

FaultyTransport::FaultyTransport(Transport& inner, Config config)
    : inner_(inner), config_(std::move(config)), rng_state_(config_.seed) {}

void FaultyTransport::attach(const cert::DeviceId& endpoint) { inner_.attach(endpoint); }

FaultyTransport::Fault FaultyTransport::pick_fault() {
  const std::uint64_t serial = serial_++;
  if (const auto planned = config_.plan.find(serial); planned != config_.plan.end())
    return planned->second;
  const double draw = uniform01(rng_state_);
  double edge = config_.p_drop;
  if (draw < edge) return Fault::kDrop;
  if (draw < (edge += config_.p_duplicate)) return Fault::kDuplicate;
  if (draw < (edge += config_.p_reorder)) return Fault::kReorder;
  if (draw < (edge += config_.p_delay)) return Fault::kDelay;
  if (draw < (edge += config_.p_corrupt)) return Fault::kCorrupt;
  return Fault::kNone;
}

void FaultyTransport::emit_event(Fault fault, const Datagram& d) {
  if (config_.recorder == nullptr) return;
  can::TimelineEvent event;
  event.kind = fault == Fault::kDrop ? can::TimelineEvent::Kind::kDrop
                                     : can::TimelineEvent::Kind::kFault;
  event.src = d.src;
  event.dst = d.dst;
  event.label = fault == Fault::kDrop ? d.message.step
                                      : std::string(fault_name(fault)) + ":" + d.message.step;
  const double now = std::max(inner_.now_ms(), clock_floor_);
  event.queued_ms = event.start_ms = event.end_ms = now;
  config_.recorder->record(std::move(event));
}

Status FaultyTransport::forward(const Datagram& d) {
  const Status status = inner_.send(d.src, d.dst, d.message);
  if (status.ok()) ++stats_.forwarded;
  return status;
}

Status FaultyTransport::send(const cert::DeviceId& src, const cert::DeviceId& dst,
                             const Message& message) {
  Datagram d{src, dst, message};
  std::vector<Datagram> out;
  {
    MutexLock lock(mutex_);
    ++stats_.sent;
    Fault fault = pick_fault();
    // Degradations that keep the model well-defined: corrupting an empty
    // payload is a drop, and a full hold buffer forwards cleanly instead
    // of growing without bound.
    if (fault == Fault::kCorrupt && message.payload.empty()) fault = Fault::kDrop;
    if ((fault == Fault::kReorder || fault == Fault::kDelay) &&
        held_.size() >= config_.max_held) {
      ++stats_.held_overflow;
      fault = Fault::kNone;
    }
    switch (fault) {
      case Fault::kNone:
        out.push_back(std::move(d));
        break;
      case Fault::kDrop:
        ++stats_.dropped;
        emit_event(fault, d);
        break;
      case Fault::kDuplicate:
        ++stats_.duplicated;
        emit_event(fault, d);
        out.push_back(d);
        out.push_back(std::move(d));
        break;
      case Fault::kCorrupt: {
        ++stats_.corrupted;
        emit_event(fault, d);
        const std::uint64_t bit = splitmix64(rng_state_) % (d.message.payload.size() * 8);
        d.message.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        out.push_back(std::move(d));
        break;
      }
      case Fault::kReorder:
        ++stats_.reordered;
        emit_event(fault, d);
        held_.push_back(Held{std::move(d), 0.0, true});
        break;
      case Fault::kDelay:
        ++stats_.delayed;
        emit_event(fault, d);
        held_.push_back(Held{std::move(d), std::max(inner_.now_ms(), clock_floor_) +
                                               config_.delay_ms,
                             false});
        break;
    }
    // Any datagram that actually goes out releases the reorder holds
    // queued behind it — they re-enter the stream one slot late.
    if (!out.empty() && !held_.empty()) {
      auto kept = held_.begin();
      for (auto& h : held_) {
        if (h.reorder) {
          out.push_back(std::move(h.datagram));
        } else {
          if (&*kept != &h) *kept = std::move(h);  // self-move would wipe it
          ++kept;
        }
      }
      held_.erase(kept, held_.end());
    }
  }
  for (const Datagram& dg : out)
    if (const Status status = forward(dg); !status.ok()) return status;
  return Status();
}

void FaultyTransport::release_ready() {
  std::vector<Datagram> out;
  {
    MutexLock lock(mutex_);
    if (held_.empty()) return;
    const double now = std::max(inner_.now_ms(), clock_floor_);
    auto kept = held_.begin();
    for (auto& h : held_) {
      if (h.reorder || h.due_ms <= now) {
        out.push_back(std::move(h.datagram));
      } else {
        if (&*kept != &h) *kept = std::move(h);  // self-move would wipe it
        ++kept;
      }
    }
    held_.erase(kept, held_.end());
  }
  for (const Datagram& dg : out) forward(dg);
}

std::optional<Datagram> FaultyTransport::receive(const cert::DeviceId& dst) {
  release_ready();
  return inner_.receive(dst);
}

bool FaultyTransport::idle() {
  release_ready();
  {
    MutexLock lock(mutex_);
    if (!held_.empty()) return false;
  }
  return inner_.idle();
}

double FaultyTransport::now_ms() {
  // The floor is guarded: an unlocked read here raced advance_to() on
  // concurrent fabrics (found by the thread-safety analysis, not TSan —
  // the window is a single double store). Lock order stays ours → inner's,
  // same as send().
  MutexLock lock(mutex_);
  return std::max(inner_.now_ms(), clock_floor_);
}

void FaultyTransport::charge(const cert::DeviceId& endpoint, double ms) {
  inner_.charge(endpoint, ms);
}

double FaultyTransport::endpoint_time_ms(const cert::DeviceId& endpoint) {
  MutexLock lock(mutex_);
  return std::max(inner_.endpoint_time_ms(endpoint), clock_floor_);
}

void FaultyTransport::set_fault_probabilities(double drop, double duplicate, double reorder,
                                              double delay, double corrupt) {
  MutexLock lock(mutex_);
  config_.p_drop = drop;
  config_.p_duplicate = duplicate;
  config_.p_reorder = reorder;
  config_.p_delay = delay;
  config_.p_corrupt = corrupt;
}

void FaultyTransport::advance_to(double t_ms) {
  {
    MutexLock lock(mutex_);
    clock_floor_ = std::max(clock_floor_, t_ms);
  }
  release_ready();
}

std::optional<double> FaultyTransport::next_release_ms() {
  MutexLock lock(mutex_);
  std::optional<double> next;
  for (const Held& h : held_)
    if (!h.reorder && (!next || h.due_ms < *next)) next = h.due_ms;
  return next;
}

std::function<bool(const can::CanFdFrame&)> FaultyTransport::frame_drop_plan(std::uint64_t seed,
                                                                             double p) {
  // Shared state keeps the stream deterministic across lambda copies; the
  // drop hook is only ever called from the bus-flush path, single-threaded
  // per transport, so no lock is needed.
  auto state = std::make_shared<std::uint64_t>(seed);
  return [state, p](const can::CanFdFrame&) { return uniform01(*state) < p; };
}

}  // namespace ecqv::proto
