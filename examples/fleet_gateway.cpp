// Fleet gateway demo: a vehicle's CAN-FD domain bridged onto IP backhaul.
//
//   ECU brokers ──(session PDUs / ISO-TP / simulated CAN-FD bus)── gateway
//   gateway ──(same fabric bytes, UDP datagrams over real loopback)── backend
//
// The ECUs never see a socket; the backend never sees a bus. The gateway
// re-frames fabric datagrams between the domains without touching the
// protocol payload, so every handshake and sealed record is end-to-end
// secure across an untrusted box. The run prints wire accounting for BOTH
// legs — CAN frames/flow-control/bus-ms on the vehicle side, socket
// bytes/datagrams on the IP side — plus the bridge's own counters.
//
// Build & run:  ./examples/fleet_gateway [--ecus N] [--records N]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "canfd/canfd_transport.hpp"
#include "canfd/timeline.hpp"
#include "core/concurrent_broker.hpp"
#include "net/event_loop.hpp"
#include "net/gateway.hpp"
#include "net/udp_transport.hpp"
#include "rng/test_rng.hpp"

using namespace ecqv;

namespace {
constexpr std::uint64_t kNow = 1700000000;
constexpr std::uint64_t kDay = 86400;
}  // namespace

int main(int argc, char** argv) {
  std::size_t ecu_count = 8;
  std::size_t records = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ecus") == 0 && i + 1 < argc) {
      ecu_count = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      records = std::strtoul(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--ecus N] [--records N]\n", argv[0]);
      return 2;
    }
  }

  std::printf("CAN-FD <-> IP fleet gateway (%zu ECUs, %zu records each)\n", ecu_count,
              records);
  std::printf("========================================================\n\n");

  // --- world ---------------------------------------------------------------
  rng::TestRng ca_boot(1);
  cert::CertificateAuthority ca(cert::DeviceId::from_string("gw-demo-ca"),
                                ec::Curve::p256().random_scalar(ca_boot));
  rng::TestRng provision(2);
  const proto::Credentials backend_creds = proto::provision_device(
      ca, cert::DeviceId::from_string("cloud-backend"), kNow, kDay, provision);
  std::vector<proto::Credentials> ecu_creds;
  for (std::size_t i = 0; i < ecu_count; ++i)
    ecu_creds.push_back(proto::provision_device(
        ca, cert::DeviceId::from_string("ecu-" + std::to_string(i)), kNow, kDay, provision));

  // --- the two domains -----------------------------------------------------
  can::TimelineRecorder timeline;
  can::CanFdTransport::Config bus_config;
  bus_config.recorder = &timeline;
  can::CanFdTransport bus(std::move(bus_config));

  auto backend_socket = net::UdpTransport::open({});
  auto gateway_socket = net::UdpTransport::open({});
  if (!backend_socket.ok() || !gateway_socket.ok()) {
    std::fprintf(stderr, "could not open loopback sockets\n");
    return 1;
  }
  (*gateway_socket)->add_route(backend_creds.id, (*backend_socket)->port());
  std::printf("backend listening on udp 127.0.0.1:%u; gateway uplink from port %u\n\n",
              (*backend_socket)->port(), (*gateway_socket)->port());

  // --- backend broker on the socket side -----------------------------------
  proto::ConcurrentSessionBroker::Config backend_config;
  backend_config.broker.store.policy = proto::RekeyPolicy{records / 2 + 1, UINT64_MAX};
  std::size_t delivered = 0;
  backend_config.broker.on_data = [&](const cert::DeviceId&, Bytes) { ++delivered; };
  rng::TestRng backend_rng(3);
  proto::ConcurrentSessionBroker backend(backend_creds, backend_rng, **backend_socket,
                                         backend_config);
  net::BrokerDriver driver(backend, **backend_socket);

  // --- the bridge ----------------------------------------------------------
  net::FleetGateway gateway(bus, **gateway_socket, {backend_creds.id});

  // --- ECUs on the bus: inline endpoints on the bus clock ------------------
  proto::ConcurrentSessionBroker::Config ecu_config;
  ecu_config.broker.store.capacity = 2;
  ecu_config.broker.store.policy = backend_config.broker.store.policy;
  std::vector<std::unique_ptr<rng::TestRng>> rngs;
  std::vector<std::unique_ptr<proto::ConcurrentSessionBroker>> ecus;
  for (std::size_t i = 0; i < ecu_count; ++i) {
    rngs.push_back(std::make_unique<rng::TestRng>(100 + i));
    ecus.push_back(std::make_unique<proto::ConcurrentSessionBroker>(ecu_creds[i],
                                                                    *rngs.back(), bus, ecu_config));
    (void)ecus.back()->connect(backend_creds.id, kNow);  // a failed ECU shows in the report
  }

  // --- run the fleet across the bridge -------------------------------------
  std::vector<std::size_t> sent(ecus.size(), 0);
  const std::size_t expect = ecu_count * records;
  const double deadline = net::FdTransport::steady_now_ms() + 30000.0;
  while (delivered < expect && net::FdTransport::steady_now_ms() < deadline) {
    gateway.pump();
    if (!driver.step(kNow).ok()) break;
    (*gateway_socket)->service();
    gateway.pump();
    for (std::size_t i = 0; i < ecus.size(); ++i) {
      proto::ConcurrentSessionBroker& ecu = *ecus[i];
      ecu.poll(kNow);
      // A record that cannot be sealed or sent is retried next iteration.
      while (sent[i] < records && ecu.broker().session_ready(backend_creds.id, kNow) &&
             ecu.send_data(backend_creds.id, bytes_of("soc=77% lat=48.1"), kNow).ok())
        ++sent[i];
    }
  }

  // --- the report: both legs, one bridge -----------------------------------
  std::printf("sessions: %llu handshakes terminated, %zu resident at the backend\n",
              static_cast<unsigned long long>(backend.broker().stats().handshakes_completed),
              backend.broker().store().active_sessions());
  std::printf("telemetry: %zu/%zu records delivered end-to-end; %llu piggybacked epoch "
              "advances crossed the bridge\n\n",
              delivered, expect,
              static_cast<unsigned long long>(
                  backend.broker().store().stats().ratchet_signals_applied));

  const auto& bus_stats = bus.stats();
  std::printf("vehicle leg (CAN-FD): %llu messages -> %llu frames (+%llu flow control), "
              "%llu wire bytes for %llu payload bytes (%.2fx), bus busy %.1f ms\n",
              static_cast<unsigned long long>(bus_stats.messages_sent),
              static_cast<unsigned long long>(bus_stats.frames_sent),
              static_cast<unsigned long long>(bus_stats.flow_controls),
              static_cast<unsigned long long>(bus_stats.wire_bytes),
              static_cast<unsigned long long>(bus_stats.payload_bytes),
              static_cast<double>(bus_stats.wire_bytes) /
                  static_cast<double>(bus_stats.payload_bytes),
              bus.bus_time_ms());
  const auto timeline_summary = timeline.summary();
  std::printf("vehicle leg timeline: %zu datagram events over %.1f virtual ms\n",
              timeline_summary.datagrams, timeline_summary.end_ms);

  const auto& up = (*gateway_socket)->wire_stats();
  const auto& down = (*backend_socket)->wire_stats();
  std::printf("backhaul leg (UDP): gateway sent %llu datagrams / %llu bytes, backend sent "
              "%llu datagrams / %llu bytes, decode errors %llu\n",
              static_cast<unsigned long long>(up.datagrams_sent),
              static_cast<unsigned long long>(up.bytes_sent),
              static_cast<unsigned long long>(down.datagrams_sent),
              static_cast<unsigned long long>(down.bytes_sent),
              static_cast<unsigned long long>(up.decode_errors + down.decode_errors));
  std::printf("bridge: %llu datagrams bus->IP, %llu IP->bus, %llu ECUs learned, "
              "%llu send errors\n",
              static_cast<unsigned long long>(gateway.stats().to_backhaul),
              static_cast<unsigned long long>(gateway.stats().to_bus),
              static_cast<unsigned long long>(gateway.stats().ecus_learned),
              static_cast<unsigned long long>(gateway.stats().send_errors));
  return delivered == expect ? 0 : 1;
}
