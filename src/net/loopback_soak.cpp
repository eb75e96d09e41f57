#include "net/loopback_soak.hpp"

#include <memory>
#include <string>
#include <vector>

#include "core/concurrent_broker.hpp"
#include "core/credentials.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "net/udp_transport.hpp"
#include "rng/test_rng.hpp"

namespace ecqv::net {

namespace {

constexpr std::uint64_t kNow = 1700000000;
constexpr std::uint64_t kLifetime = 7 * 86400;

/// One wave client: an inline endpoint on the shared client socket plus
/// its drive state. The endpoint dies with the wave; only the server-side
/// session survives it. The credentials and RNG live here because the
/// broker holds them by reference for its whole lifetime (declared before
/// `broker` so they outlive it on destruction too).
struct Client {
  std::unique_ptr<proto::Credentials> creds;
  std::unique_ptr<rng::TestRng> rng;
  std::unique_ptr<proto::ConcurrentSessionBroker> broker;
  std::size_t records_sent = 0;
  bool done = false;
};

}  // namespace

Result<SoakReport> run_loopback_soak(const SoakConfig& config) {
  const proto::RekeyPolicy policy{config.records_budget, /*max_age_seconds=*/UINT64_MAX};

  // --- server: one socket, one broker, every session --------------------
  rng::TestRng ca_boot(config.seed);
  cert::CertificateAuthority ca(cert::DeviceId::from_string("soak-ca"),
                                ec::Curve::p256().random_scalar(ca_boot));
  rng::TestRng provision_rng(config.seed + 1);
  const proto::Credentials server_creds = proto::provision_device(
      ca, cert::DeviceId::from_string("soak-server"), kNow, kLifetime, provision_rng);

  std::unique_ptr<FdTransport> server_transport;
  std::uint16_t server_port = 0;
  if (config.tcp) {
    auto opened = TcpStreamTransport::listen({.port = 0});
    if (!opened.ok()) return opened.error();
    server_port = (*opened)->port();
    server_transport = std::move(opened).value();
  } else {
    auto opened = UdpTransport::open({.port = 0});
    if (!opened.ok()) return opened.error();
    server_port = (*opened)->port();
    server_transport = std::move(opened).value();
  }

  proto::ConcurrentSessionBroker::Config server_config;
  server_config.workers = config.server_workers;
  server_config.broker.store.capacity = config.sessions * 2;
  server_config.broker.store.shards = 64;
  server_config.broker.store.policy = policy;
  server_config.broker.max_pending = config.wave * 4;
  server_config.broker.peer_cache_capacity = config.sessions * 2;
  server_config.broker.reliability.enabled = true;
  std::size_t records_opened = 0;
  StatCounter records_counter;  // worker threads may deliver concurrently
  server_config.broker.on_data = [&records_counter](const cert::DeviceId&, Bytes) {
    ++records_counter;
  };
  rng::TestRng server_seed_rng(config.seed + 2);
  proto::ConcurrentSessionBroker server(server_creds, server_seed_rng, *server_transport,
                                        server_config);
  BrokerDriver driver(server, *server_transport);

  // --- client side: one socket shared by every wave ---------------------
  std::unique_ptr<FdTransport> client_transport;
  UdpTransport* client_udp = nullptr;
  if (config.tcp) {
    auto opened = TcpStreamTransport::connect_to({.port = server_port});
    if (!opened.ok()) return opened.error();
    client_transport = std::move(opened).value();
  } else {
    auto opened = UdpTransport::open({.port = 0});
    if (!opened.ok()) return opened.error();
    client_udp = opened->get();
    client_transport = std::move(opened).value();
  }

  proto::ConcurrentSessionBroker::Config client_config;
  client_config.broker.store.capacity = 4;
  client_config.broker.store.policy = policy;
  client_config.broker.reliability.enabled = true;

  const double start_ms = FdTransport::steady_now_ms();
  const double deadline_ms = start_ms + config.timeout_ms;
  const Bytes telemetry = bytes_of("soak-telemetry-record");
  std::size_t provisioned = 0;
  rng::TestRng client_provision_rng(config.seed + 3);

  while (provisioned < config.sessions) {
    // --- admit one wave ------------------------------------------------
    const std::size_t wave_size = std::min(config.wave, config.sessions - provisioned);
    std::vector<Client> wave(wave_size);
    for (std::size_t i = 0; i < wave_size; ++i) {
      const cert::DeviceId id =
          cert::DeviceId::from_string("soak-ecu-" + std::to_string(provisioned + i));
      Client& client = wave[i];
      client.creds = std::make_unique<proto::Credentials>(
          proto::provision_device(ca, id, kNow, kLifetime, client_provision_rng));
      client.rng = std::make_unique<rng::TestRng>(config.seed + 100 + provisioned + i);
      client.broker = std::make_unique<proto::ConcurrentSessionBroker>(
          *client.creds, *client.rng, *client_transport, client_config);
      if (client_udp != nullptr) client_udp->add_route(server_creds.id, server_port);
      const Status sent = client.broker->connect(server_creds.id, kNow);
      if (!sent.ok()) return sent.error();
    }

    // --- drive the wave to completion ----------------------------------
    std::size_t wave_done = 0;
    while (wave_done < wave_size) {
      if (FdTransport::steady_now_ms() > deadline_ms) return Error::kBadState;
      // Server first: terminate handshakes, open records, send replies.
      const auto stepped = driver.step(kNow);
      if (!stepped.ok()) return stepped.error();
      if (server.broker().stats().handshakes_failed != 0) return Error::kAuthenticationFailed;
      // Then the clients: replies, retransmission timers, record bursts.
      client_transport->service();
      for (Client& client : wave) {
        if (client.done) continue;
        client.broker->poll(kNow);
        if (client.records_sent < config.records_per_session &&
            client.broker->broker().session_ready(server_creds.id, kNow)) {
          // Burst the records; DataRekey::kAuto piggybacks the epoch
          // ratchet exactly when the seal spends the record budget, so a
          // burst longer than the budget rekeys mid-stream on the wire.
          while (client.records_sent < config.records_per_session) {
            const Status sent = client.broker->send_data(server_creds.id, telemetry, kNow);
            if (!sent.ok()) return sent.error();
            ++client.records_sent;
          }
          client.done = true;
          ++wave_done;
        }
      }
    }
    provisioned += wave_size;
    // The wave's client brokers retire here; the server keeps the sessions.
  }

  // Let the tail of in-flight records land.
  const std::size_t expect_records = config.sessions * config.records_per_session;
  while (server.broker().stats().records_delivered.load() < expect_records) {
    if (FdTransport::steady_now_ms() > deadline_ms) return Error::kBadState;
    const auto stepped = driver.step(kNow);
    if (!stepped.ok()) return stepped.error();
  }
  records_opened = records_counter.load();

  SoakReport report;
  report.handshakes = server.broker().stats().handshakes_completed.load();
  report.records = records_opened;
  report.rekeys = server.broker().store().stats().ratchet_signals_applied.load();
  report.server_sessions = server.broker().store().active_sessions();
  report.retransmits = server.broker().stats().retransmits.load();
  report.elapsed_ms = FdTransport::steady_now_ms() - start_ms;
  report.wire_bytes = server_transport->wire_stats().bytes_received.load() +
                      server_transport->wire_stats().bytes_sent.load();
  report.wire_datagrams = server_transport->wire_stats().datagrams_received.load();
  report.send_drops = server_transport->wire_stats().send_drops.load() +
                      client_transport->wire_stats().send_drops.load();
  return report;
}

}  // namespace ecqv::net
