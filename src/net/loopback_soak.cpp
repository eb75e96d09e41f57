#include "net/loopback_soak.hpp"

#include <memory>
#include <string>
#include <vector>

#include "core/concurrent_broker.hpp"
#include "core/credentials.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "net/udp_transport.hpp"
#include "rng/locked_rng.hpp"
#include "rng/test_rng.hpp"

namespace ecqv::net {

namespace {

constexpr std::uint64_t kNow = 1700000000;
constexpr std::uint64_t kLifetime = 7 * 86400;

/// One wave client: a lightweight SessionBroker plus its drive state. The
/// broker dies with the wave; only the server-side session survives it.
/// The credentials live here because SessionBroker holds them by
/// reference for its whole lifetime (declared before `broker` so they
/// outlive it on destruction too).
struct Client {
  std::unique_ptr<proto::Credentials> creds;
  std::unique_ptr<rng::TestRng> rng;
  std::unique_ptr<rng::LockedRng> locked;
  std::unique_ptr<proto::SessionBroker> broker;
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

  proto::BrokerConfig client_config;
  client_config.store.capacity = 4;
  client_config.store.policy = policy;
  client_config.reliability.enabled = true;

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
      client.locked = std::make_unique<rng::LockedRng>(*client.rng);
      client.broker = std::make_unique<proto::SessionBroker>(*client.creds, *client.locked,
                                                             client_config);
      client.broker->bind_clock(client_transport.get());
      client_transport->attach(id);
      if (client_udp != nullptr) client_udp->add_route(server_creds.id, server_port);
      auto first = client.broker->connect(server_creds.id, kNow);
      if (!first.ok()) return first.error();
      const Status sent =
          client_transport->send(id, server_creds.id, std::move(first).value());
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
        proto::SessionBroker& broker = *client.broker;
        for (proto::SessionBroker::Outbound& out :
             broker.poll_retransmits(client_transport->now_ms(), kNow))
          (void)client_transport->send(broker.id(), out.peer, std::move(out.message));
        while (auto datagram = client_transport->receive(broker.id())) {
          auto reply = broker.on_message(datagram->src, datagram->message, kNow);
          if (reply.ok() && reply->has_value())
            (void)client_transport->send(broker.id(), datagram->src, **reply);
        }
        if (client.records_sent < config.records_per_session &&
            broker.session_ready(server_creds.id, kNow)) {
          // Burst the records; DataRekey::kAuto piggybacks the epoch
          // ratchet exactly when the seal spends the record budget, so a
          // burst longer than the budget rekeys mid-stream on the wire.
          while (client.records_sent < config.records_per_session) {
            auto record = broker.make_data(server_creds.id, telemetry, kNow);
            if (!record.ok()) return record.error();
            (void)client_transport->send(broker.id(), server_creds.id,
                                         std::move(record).value());
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
  const Status settled = driver.run_until(
      [&] {
        return static_cast<std::size_t>(
                   server.broker().stats().records_delivered.load()) >= expect_records;
      },
      kNow, static_cast<int>(deadline_ms - FdTransport::steady_now_ms()));
  if (!settled.ok()) return settled.error();
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
