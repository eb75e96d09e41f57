#include "fabric.hpp"

#include <malloc.h>
#include <poll.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "aead/suite.hpp"
#include "ec/curve.hpp"

namespace perfbench {

using ecqv::Bytes;
using ecqv::cert::DeviceId;
namespace proto = ecqv::proto;

namespace {

constexpr std::size_t kHeader = 9;  // device(4) || seq(4) || direction(1)
constexpr std::size_t kSizes[3] = {16, 64, 1024};
constexpr std::size_t kCommandSize = 64;
constexpr char kDevicePrefix[] = "bench-dev";
constexpr std::size_t kProvisionThreads = 4;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  SplitMix m{a ^ (b * 0xD1B54A32D192ED03ull)};
  return m.next();
}

std::uint64_t payload_key(std::uint64_t seed, std::uint32_t device, Direction dir,
                          std::uint32_t seq) {
  return mix(mix(seed, device), (static_cast<std::uint64_t>(seq) << 1) |
                                    static_cast<std::uint64_t>(dir));
}

DeviceId device_id(std::uint32_t index) {
  DeviceId id;
  std::memcpy(id.bytes.data(), kDevicePrefix, sizeof kDevicePrefix - 1);
  ecqv::store_be32(ecqv::ByteSpan(id.bytes).subspan(12, 4), index);
  return id;
}

std::optional<std::uint32_t> device_index(const DeviceId& id, std::size_t count) {
  if (std::memcmp(id.bytes.data(), kDevicePrefix, sizeof kDevicePrefix - 1) != 0)
    return std::nullopt;
  const std::uint32_t index = ecqv::load_be32(ecqv::ByteView(id.bytes).subspan(12, 4));
  if (index >= count) return std::nullopt;
  return index;
}

std::uint64_t record_request(std::uint32_t device, Direction dir, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(device) << 33) |
         (static_cast<std::uint64_t>(dir) << 32) | seq;
}

std::uint64_t handshake_request(const Device& d) {
  return (1ull << 63) | (static_cast<std::uint64_t>(d.index) << 24) |
         (d.hs_seen & 0xFFFFFF);
}

void fill_payload(std::uint8_t* out, std::size_t size, std::uint64_t seed,
                  std::uint32_t device, Direction dir, std::uint32_t seq) {
  ecqv::store_be32(ecqv::ByteSpan(out, 4), device);
  ecqv::store_be32(ecqv::ByteSpan(out + 4, 4), seq);
  out[8] = static_cast<std::uint8_t>(dir);
  SplitMix gen{payload_key(seed, device, dir, seq)};
  for (std::size_t i = kHeader; i < size; i += 8) {
    const std::uint64_t word = gen.next();
    std::memcpy(out + i, &word, std::min<std::size_t>(8, size - i));
  }
}

}  // namespace

std::size_t payload_size(std::uint64_t seed, std::uint32_t device, Direction dir,
                         std::uint32_t seq) {
  if (dir == Direction::kDown) return kCommandSize;
  // A seeded starting point per device, then the three sizes in turn: equal
  // shares, and any 3k consecutive records of a device carry the same bytes
  // whatever ran before them (the exact-count phase relies on this).
  return kSizes[(mix(seed ^ 0x5A5A, device) + seq) % 3];
}

Bytes make_payload(std::uint64_t seed, std::uint32_t device, Direction dir,
                   std::uint32_t seq) {
  Bytes out(payload_size(seed, device, dir, seq));
  fill_payload(out.data(), out.size(), seed, device, dir, seq);
  return out;
}

std::vector<Sample> SampleLog::between(std::uint64_t t0, std::uint64_t t1) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Sample> out;
  for (const Sample& s : samples_)
    if (s.at >= t0 && s.at < t1) out.push_back(s);
  return out;
}

std::size_t heap_bytes() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}

/// Traced phase only: driver-side receive times, so the benchmark can time
/// the hand-off to on_data and the server's A1/A2 turnaround.
class Fabric::Observer final : public TransportObserver {
 public:
  explicit Observer(Fabric& fabric) : fabric_(fabric) {}

  void received(const proto::Datagram& datagram, std::uint64_t at) override {
    const auto index = device_index(datagram.src, fabric_.devices_.size());
    if (!index) return;
    Device& d = fabric_.devices_[*index];
    const Step step = step_of(datagram.message.step);
    std::lock_guard<std::mutex> lock(d.mutex);
    if (step == Step::kData) d.dt1_seen.push_back(at);
    if (step == Step::kA1) d.a1_seen = at;
    if (step == Step::kA2) d.a2_seen = at;
  }

  void sending(const DeviceId& dst, Step step, std::uint64_t at) override {
    if (step != Step::kB1 && step != Step::kB2) return;
    const auto index = device_index(dst, fabric_.devices_.size());
    if (!index) return;
    Device& d = fabric_.devices_[*index];
    std::uint64_t seen = 0;
    {
      std::lock_guard<std::mutex> lock(d.mutex);
      std::uint64_t& slot = step == Step::kB1 ? d.a1_seen : d.a2_seen;
      seen = slot;
      slot = 0;
    }
    if (seen != 0) (step == Step::kB1 ? fabric_.a1_times_ : fabric_.a2_times_).add(at, at - seen);
  }

 private:
  Fabric& fabric_;
};

Fabric::Fabric(const FabricConfig& config)
    : config_(config), server_rng_(mix(config.seed, 2)) {
  provision();

  auto server_udp = ecqv::net::UdpTransport::open({.port = 0, .concurrent = config_.workers > 0});
  if (!server_udp.ok()) throw std::runtime_error("cannot open the server UDP socket");
  const std::uint16_t server_port = (*server_udp)->port();
  server_net_ = std::make_unique<TimedTransport>(std::move(server_udp).value(),
                                                 config_.workers > 0);
  observer_ = std::make_unique<Observer>(*this);
  server_net_->set_observer(observer_.get());

  // fleet_session_server's configuration; only the epoch budget differs.
  const proto::RekeyPolicy policy{config_.epoch_budget, /*max_age_seconds=*/UINT64_MAX};
  proto::ConcurrentSessionBroker::Config server_config;
  server_config.workers = config_.workers;
  server_config.broker.store.capacity = 1 << 18;
  server_config.broker.store.shards = 64;
  server_config.broker.store.policy = policy;
  server_config.broker.reliability.enabled = true;
  server_config.broker.sts.offered_suites = ecqv::aead::kOfferAll;
  server_config.broker.on_data = [this](const DeviceId& peer, Bytes plaintext) {
    on_server_data(peer, std::move(plaintext));
  };
  server_ = std::make_unique<proto::ConcurrentSessionBroker>(server_creds_, server_rng_,
                                                             *server_net_, server_config);
  driver_ = std::make_unique<ecqv::net::BrokerDriver>(*server_, *server_net_);

  auto client_udp = ecqv::net::UdpTransport::open({.port = 0});
  if (!client_udp.ok()) throw std::runtime_error("cannot open the client UDP socket");
  client_net_ = std::move(client_udp).value();
  client_fd_ = client_net_->poll_fds().front();
  client_net_->add_route(server_creds_.id, server_port);
  for (Device& d : devices_) client_net_->attach(d.id);

  device_config_.store.capacity = 4;
  device_config_.store.shards = 1;
  device_config_.store.policy = policy;
  device_config_.peer_cache_capacity = 4;
  device_config_.reliability.enabled = true;
  device_config_.sts.offered_suites = ecqv::aead::kOfferAll;
}

Fabric::~Fabric() {
  stop_server_thread();
  // The server's workers call back into devices_, and device brokers hold
  // references to their credentials and the client socket: tear down in
  // that order.
  driver_.reset();
  server_.reset();
  for (Device& d : devices_) d.broker.reset();
}

void Fabric::provision() {
  ecqv::rng::TestRng boot(mix(config_.seed, 1));
  const ecqv::bi::U256 root = ecqv::ec::Curve::p256().random_scalar(boot);
  const DeviceId ca_id = DeviceId::from_string("bench-ca");
  ca_ = std::make_unique<ecqv::cert::CertificateAuthority>(ca_id, root);
  ecqv::rng::TestRng server_provision(mix(config_.seed, 3));
  server_creds_ = proto::provision_device(*ca_, DeviceId::from_string("bench-server"), kNow,
                                          kLifetime, server_provision);

  for (std::size_t i = 0; i < config_.devices; ++i) {
    Device& d = devices_.emplace_back();
    d.index = static_cast<std::uint32_t>(i);
    d.id = device_id(d.index);
  }
  // Enrollment is the expensive part of set-up; it runs on a fixed number
  // of threads, each with its own CA instance over the same root key, so
  // certificate serials (and with them every byte on the wire) depend on
  // the seed only.
  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (std::size_t t = 0; t < kProvisionThreads; ++t) {
    threads.emplace_back([this, t, &root, &ca_id, &failed] {
      try {
        ecqv::cert::CertificateAuthority ca(ca_id, root);
        for (std::size_t i = t; i < devices_.size(); i += kProvisionThreads) {
          Device& d = devices_[i];
          ecqv::rng::TestRng rng(mix(config_.seed, 1000 + i));
          d.creds = proto::provision_device(ca, d.id, kNow, kLifetime, rng);
        }
      } catch (const std::exception&) {
        failed = true;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (failed) throw std::runtime_error("device provisioning failed");
}

void Fabric::open_device(Device& d) {
  d.rng = std::make_unique<SeededRng>(mix(config_.seed, 1u << 20 | d.index));
  proto::BrokerConfig config = device_config_;
  const std::uint32_t index = d.index;
  config.on_data = [this, index](const DeviceId& peer, Bytes plaintext) {
    on_device_data(index, peer, std::move(plaintext));
  };
  d.broker = std::make_unique<proto::SessionBroker>(d.creds, *d.rng, std::move(config));
  d.broker->bind_clock(client_net_.get());
}

void Fabric::close_device(Device& d) {
  const auto& stats = d.broker->stats();
  retired_.client_retransmits += stats.retransmits;
  retired_.client_duplicates += stats.duplicates_ignored;
  retired_.client_handshakes += stats.handshakes_completed;
  retired_.client_cache_hits += d.broker->peer_cache().stats().hits;
  retired_.client_cache_misses += d.broker->peer_cache().stats().misses;
  d.broker.reset();
  d.rng.reset();
}

void Fabric::prewarm_caches() {
  std::vector<ecqv::cert::Certificate> certificates;
  for (const Device& d : devices_) certificates.push_back(d.creds.certificate);
  if (server_->enroll_batch(certificates) != certificates.size())
    violation("server cache prewarm rejected a certificate");
  for (Device& d : devices_)
    if (d.broker != nullptr) (void)d.broker->enroll_batch({server_creds_.certificate});
}

void Fabric::start_handshake(Device& d, std::uint64_t start) {
  d.hs_seen = d.broker->stats().handshakes_completed;
  d.hs_failed_seen = d.broker->stats().handshakes_failed;
  d.hs_start = start;
  d.hs_timed = start >= timed_start_.load(std::memory_order_relaxed);
  if (d.hs_timed) ++tally_.hs_started;
  d.state = Device::State::kHandshake;
  ecqv::Result<proto::Message> first = ecqv::Error::kInternal;
  {
    Scope span(SpanName::kClientConnect, handshake_request(d));
    first = d.broker->connect(server_creds_.id, kNow);
  }
  if (!first.ok()) {
    ++tally_.client_errors;  // stays in kHandshake: counted failed at the end
    return;
  }
  Scope span(SpanName::kClientNetSend, handshake_request(d));
  if (!client_net_->send(d.id, server_creds_.id, first.value()).ok()) ++tally_.client_errors;
}

void Fabric::send_records(Device& d, std::size_t n, std::uint64_t stamp) {
  const bool timed = stamp >= timed_start_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t seq = d.up_next++;
    const Bytes payload = make_payload(config_.seed, d.index, Direction::kUp, seq);
    const std::uint64_t request = record_request(d.index, Direction::kUp, seq);
    const SpanName name = payload.size() == kSizes[0]   ? SpanName::kClientMakeData16
                          : payload.size() == kSizes[1] ? SpanName::kClientMakeData64
                                                        : SpanName::kClientMakeData1024;
    ecqv::Result<proto::Message> record = ecqv::Error::kInternal;
    {
      Scope span(name, request);
      record = d.broker->make_data(server_creds_.id, payload, kNow);
    }
    if (!record.ok()) {
      violation("make_data failed on device " + std::to_string(d.index) + ": " +
                ecqv::error_name(record.error()));
      --d.up_next;
      return;
    }
    {
      std::lock_guard<std::mutex> lock(d.mutex);
      d.up_sent.push_back(stamp);
    }
    ++tally_.up_sent_all;
    if (timed) ++tally_.rec_sent;
    Scope span(SpanName::kClientNetSend, request);
    if (!client_net_->send(d.id, server_creds_.id, record.value()).ok()) ++tally_.client_errors;
  }
}

void Fabric::send_command(Device& d) {
  const std::uint64_t stamp = now_ns();
  std::uint32_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    seq = d.down_next++;
    d.down_sent.push_back(stamp);
  }
  ++tally_.down_sent_all;
  if (stamp >= timed_start_.load(std::memory_order_relaxed)) ++tally_.rec_sent;
  const Bytes payload = make_payload(config_.seed, d.index, Direction::kDown, seq);
  Scope span(SpanName::kServerSendData, record_request(d.index, Direction::kDown, seq));
  const ecqv::Status sent = server_->send_data(d.id, payload, kNow);
  if (!sent.ok())
    violation("send_data failed toward device " + std::to_string(d.index) + ": " +
              ecqv::error_name(sent.error()));
}

bool Fabric::pump_device(Device& d) {
  bool completed = false;
  for (;;) {
    std::optional<proto::Datagram> datagram;
    {
      Scope span(SpanName::kClientNetReceive);
      datagram = client_net_->receive(d.id);
    }
    if (!datagram.has_value()) break;
    const Step step = step_of(datagram->message.step);
    const SpanName name = step == Step::kB1     ? SpanName::kClientB1
                          : step == Step::kB2   ? SpanName::kClientB2
                          : step == Step::kData ? SpanName::kClientOpen
                                                : SpanName::kClientHandshakeOther;
    ecqv::Result<std::optional<proto::Message>> reply = ecqv::Error::kInternal;
    {
      Scope span(name, step == Step::kData ? 0 : handshake_request(d));
      reply = d.broker->on_message(datagram->src, datagram->message, kNow);
    }
    if (!reply.ok()) {
      if (d.broker->stats().handshakes_failed == d.hs_failed_seen) ++tally_.client_errors;
      retry_aborted(d);
      continue;
    }
    if (reply->has_value()) {
      Scope span(SpanName::kClientNetSend, handshake_request(d));
      if (!client_net_->send(d.id, datagram->src, **reply).ok()) ++tally_.client_errors;
    }
    if (d.state == Device::State::kHandshake &&
        d.broker->stats().handshakes_completed > d.hs_seen) {
      const std::uint64_t t = now_ns();
      handshakes_.add(t, t - d.hs_start);
      ++tally_.hs_done_all;
      if (d.hs_timed) ++tally_.hs_done;
      if (d.established) ++tally_.rekeys_all;
      d.established = true;
      d.state = Device::State::kIdle;
      completed = true;
    }
  }
  return completed;
}

bool Fabric::session_ready(Device& d) {
  Scope span(SpanName::kClientSessionReady);
  return d.broker->session_ready(server_creds_.id, kNow);
}

void Fabric::poll_device_timers(Device& d) {
  if (d.retry_at_ms != 0 && client_net_->now_ms() >= d.retry_at_ms) {
    d.retry_at_ms = 0;
    start_handshake(d, d.hs_start);
    return;
  }
  const auto due = d.broker->next_retransmit_due_ms();
  if (!due.has_value() || *due > client_net_->now_ms()) return;
  std::vector<proto::SessionBroker::Outbound> outbound;
  {
    Scope span(SpanName::kClientRetransmit, handshake_request(d));
    outbound = d.broker->poll_retransmits(client_net_->now_ms(), kNow);
  }
  for (const auto& out : outbound) {
    Scope span(SpanName::kClientNetSend, handshake_request(d));
    if (!client_net_->send(d.id, out.peer, out.message).ok()) ++tally_.client_errors;
  }
  retry_aborted(d);  // the retransmission budget ran out
}

void Fabric::retry_aborted(Device& d) {
  // After a host stall the server replays B1/B2 for the device's
  // retransmissions; a replay that arrives once the device has started its
  // next handshake reaches that handshake's party, which rejects it and is
  // dropped by the library. The device would wait forever. The retry waits
  // out the server's reply to the aborted attempt: the library ignores it
  // while no handshake is pending, but it would abort a retry sent at once.
  const std::uint64_t failed = d.broker->stats().handshakes_failed;
  if (d.state != Device::State::kHandshake || failed == d.hs_failed_seen) return;
  d.hs_failed_seen = failed;
  ++tally_.hs_aborted_all;
  d.retry_at_ms = client_net_->now_ms() + ecqv::proto::ReliabilityConfig{}.rto_ms;
}

void Fabric::step_server() {
  StepScope span;
  if (!driver_->step(kNow).ok()) violation("server step failed");
}

void Fabric::start_server_thread() {
  server_running_ = true;
  server_thread_ = std::thread([this] {
    while (server_running_.load(std::memory_order_relaxed)) {
      StepScope span;
      if (!driver_->step(kNow).ok()) {
        server_thread_failed_ = true;
        return;
      }
    }
  });
}

void Fabric::stop_server_thread() {
  server_running_ = false;
  if (server_thread_.joinable()) server_thread_.join();
  if (server_thread_failed_.exchange(false)) violation("server step failed");
}

void Fabric::wait_client(std::uint64_t timeout_ns) {
  pollfd p{client_fd_, POLLIN, 0};
  const timespec timeout{static_cast<time_t>(timeout_ns / 1000000000ull),
                         static_cast<long>(timeout_ns % 1000000000ull)};
  (void)::ppoll(&p, 1, &timeout, nullptr);
}

std::vector<std::uint32_t> Fabric::take_owed_commands() {
  std::lock_guard<std::mutex> lock(owed_mutex_);
  std::vector<std::uint32_t> out;
  out.swap(owed_);
  return out;
}

void Fabric::reseed(std::uint64_t salt) {
  server_rng_.reseed(mix(config_.seed, salt));
  for (Device& d : devices_)
    if (d.rng != nullptr) d.rng->reseed(mix(mix(config_.seed, salt), d.index));
}

BrokerCounts Fabric::broker_counts() {
  BrokerCounts c = retired_;
  for (Device& d : devices_) {
    if (d.broker == nullptr) continue;
    const auto& stats = d.broker->stats();
    c.client_retransmits += stats.retransmits;
    c.client_duplicates += stats.duplicates_ignored;
    c.client_handshakes += stats.handshakes_completed;
    c.client_cache_hits += d.broker->peer_cache().stats().hits;
    c.client_cache_misses += d.broker->peer_cache().stats().misses;
  }
  proto::SessionBroker& server = server_->broker();
  c.server_retransmits = server.stats().retransmits;
  c.server_duplicates = server.stats().duplicates_ignored;
  c.server_handshakes = server.stats().handshakes_completed;
  c.server_records = server.stats().records_delivered;
  c.server_cache_hits = server.peer_cache().stats().hits;
  c.server_cache_misses = server.peer_cache().stats().misses;
  c.server_ratchets = server.store().stats().ratchets;
  c.send_drops = server_net_->inner().wire_stats().send_drops.load() +
                 client_net_->wire_stats().send_drops.load();
  c.data_records = server_->stats().data_records;
  return c;
}

void Fabric::violation(const std::string& what) {
  std::lock_guard<std::mutex> lock(violations_mutex_);
  if (violations_.size() < 20) violations_.push_back(what);
}

std::vector<std::string> Fabric::violations() {
  std::lock_guard<std::mutex> lock(violations_mutex_);
  return violations_;
}

std::uint64_t Fabric::outstanding() {
  std::uint64_t n = (tally_.up_sent_all - tally_.up_done_all) +
                    (tally_.down_sent_all - tally_.down_done_all);
  for (const Device& d : devices_)
    if (d.state == Device::State::kHandshake) ++n;
  return n;
}

void Fabric::check_conservation() {
  const BrokerCounts c = broker_counts();
  // A device-side abort after the server had already completed (the
  // device's A2 got through) leaves the server one completion ahead.
  if (c.server_handshakes < c.client_handshakes ||
      c.server_handshakes > c.client_handshakes + tally_.hs_aborted_all)
    violation("server completed " + std::to_string(c.server_handshakes) +
              " handshakes, devices " + std::to_string(c.client_handshakes) + " (" +
              std::to_string(tally_.hs_aborted_all.load()) + " device attempts aborted)");
  if (c.client_handshakes != tally_.hs_done_all)
    violation("device brokers completed " + std::to_string(c.client_handshakes) +
              " handshakes, the benchmark saw " + std::to_string(tally_.hs_done_all.load()));
  if (c.server_records != tally_.up_done_all)
    violation("server delivered " + std::to_string(c.server_records) +
              " records, the benchmark checked " + std::to_string(tally_.up_done_all.load()));
  if (c.data_records != tally_.down_sent_all)
    violation("send_data sealed " + std::to_string(c.data_records) + " commands, " +
              std::to_string(tally_.down_sent_all.load()) + " were sent");
  if (tally_.client_errors != 0)
    violation(std::to_string(tally_.client_errors.load()) + " device-side errors");
  // Wire accounting: the bytes counted per step at the server socket must
  // add up to what the UdpTransport itself counted.
  const TimedTransport::Counts counts = server_net_->counts();
  std::uint64_t in = 0, out = 0;
  for (std::size_t i = 0; i < kSteps; ++i) {
    in += counts.bytes_in[i];
    out += counts.bytes_out[i];
  }
  const auto& wire = server_net_->inner().wire_stats();
  if (wire.decode_errors == 0 && in != wire.bytes_received)
    violation("server socket received " + std::to_string(wire.bytes_received.load()) +
              " bytes, " + std::to_string(in) + " accounted");
  if (wire.send_drops == 0 && out != wire.bytes_sent)
    violation("server socket sent " + std::to_string(wire.bytes_sent.load()) + " bytes, " +
              std::to_string(out) + " accounted");
}

std::optional<std::uint32_t> Fabric::check_payload(const Bytes& plaintext,
                                                   std::uint32_t expect_device, Direction dir) {
  if (plaintext.size() < kHeader) {
    violation("short record (" + std::to_string(plaintext.size()) + " bytes)");
    return std::nullopt;
  }
  const std::uint32_t device = ecqv::load_be32(ecqv::ByteView(plaintext).subspan(0, 4));
  const std::uint32_t seq = ecqv::load_be32(ecqv::ByteView(plaintext).subspan(4, 4));
  if (device != expect_device || plaintext[8] != static_cast<std::uint8_t>(dir)) {
    violation("record for device " + std::to_string(device) + " arrived from device " +
              std::to_string(expect_device));
    return std::nullopt;
  }
  std::uint8_t expected[1024];
  const std::size_t size = payload_size(config_.seed, device, dir, seq);
  if (plaintext.size() != size) {
    violation("record " + std::to_string(seq) + " of device " + std::to_string(device) +
              " has the wrong size");
    return std::nullopt;
  }
  fill_payload(expected, size, config_.seed, device, dir, seq);
  if (std::memcmp(expected, plaintext.data(), size) != 0) {
    violation("record " + std::to_string(seq) + " of device " + std::to_string(device) +
              " does not match what was sealed");
    return std::nullopt;
  }
  return seq;
}

void Fabric::on_server_data(const DeviceId& peer, Bytes plaintext) {
  const std::uint64_t t = now_ns();
  Scope span(SpanName::kOnDataServer);
  const auto index = device_index(peer, devices_.size());
  if (!index) {
    violation("record from an unknown peer");
    return;
  }
  Device& d = devices_[*index];
  const auto seq = check_payload(plaintext, *index, Direction::kUp);
  if (!seq) return;
  std::uint64_t stamp = 0, seen = 0;
  bool in_order = false;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    in_order = *seq == d.up_expect && !d.up_sent.empty();
    if (in_order) {
      ++d.up_expect;
      stamp = d.up_sent.front();
      d.up_sent.pop_front();
    }
    if (!d.dt1_seen.empty()) {
      seen = d.dt1_seen.front();
      d.dt1_seen.pop_front();
    }
  }
  if (!in_order) {
    violation("device " + std::to_string(*index) + " record " + std::to_string(*seq) +
              " arrived out of order or twice");
    return;
  }
  if (seen != 0 && Tracer::enabled()) handoffs_.add(t, t - seen);
  records_.add(t, t - stamp);
  ++tally_.up_done_all;
  if (stamp >= timed_start_.load(std::memory_order_relaxed)) ++tally_.rec_done;
  if (burst_ > 0 && (*seq + 1) % burst_ == 0) {
    std::lock_guard<std::mutex> lock(owed_mutex_);
    owed_.push_back(*index);
  }
}

void Fabric::on_device_data(std::uint32_t index, const DeviceId& peer, Bytes plaintext) {
  const std::uint64_t t = now_ns();
  Scope span(SpanName::kOnDataDevice);
  if (!(peer == server_creds_.id)) {
    violation("device " + std::to_string(index) + " got a record from another peer");
    return;
  }
  Device& d = devices_[index];
  const auto seq = check_payload(plaintext, index, Direction::kDown);
  if (!seq) return;
  std::uint64_t stamp = 0;
  bool in_order = false;
  {
    std::lock_guard<std::mutex> lock(d.mutex);
    in_order = *seq == d.down_expect && !d.down_sent.empty();
    if (in_order) {
      ++d.down_expect;
      stamp = d.down_sent.front();
      d.down_sent.pop_front();
    }
  }
  if (!in_order) {
    violation("device " + std::to_string(index) + " command " + std::to_string(*seq) +
              " arrived out of order or twice");
    return;
  }
  records_.add(t, t - stamp);
  ++tally_.down_done_all;
  if (stamp >= timed_start_.load(std::memory_order_relaxed)) ++tally_.rec_done;
  d.command_arrived = true;
}

}  // namespace perfbench
