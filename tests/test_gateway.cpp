// Fleet gateway: ECUs on a simulated CAN-FD bus establish sessions with a
// backend living behind real UDP sockets. The gateway re-frames fabric
// datagrams between the two domains; the handshake and the sealed records
// cross it untouched, so end-to-end security holds with an untrusted box
// in the middle.
#include <gtest/gtest.h>

#include <memory>

#include "canfd/canfd_transport.hpp"
#include "core/concurrent_broker.hpp"
#include "core/credentials.hpp"
#include "net/event_loop.hpp"
#include "net/gateway.hpp"
#include "net/udp_transport.hpp"
#include "rng/test_rng.hpp"

namespace ecqv {
namespace {

constexpr std::uint64_t kNow = 1700000000;
constexpr std::uint64_t kLifetime = 7 * 86400;

TEST(FleetGateway, BridgesCanFdHandshakesOntoUdpBackhaul) {
  // World: one CA, one backend, two ECUs.
  rng::TestRng boot(11);
  cert::CertificateAuthority ca(cert::DeviceId::from_string("gw-ca"),
                                ec::Curve::p256().random_scalar(boot));
  rng::TestRng provision(12);
  const auto backend_creds = proto::provision_device(
      ca, cert::DeviceId::from_string("gw-backend"), kNow, kLifetime, provision);
  std::vector<proto::Credentials> ecu_creds;
  for (int i = 0; i < 2; ++i)
    ecu_creds.push_back(proto::provision_device(
        ca, cert::DeviceId::from_string(("gw-ecu-" + std::to_string(i)).c_str()), kNow,
        kLifetime, provision));

  // Vehicle domain: a CAN-FD bus. Backhaul: two real UDP sockets.
  can::CanFdTransport bus;
  auto backend_socket = net::UdpTransport::open({});
  auto gateway_socket = net::UdpTransport::open({});
  ASSERT_TRUE(backend_socket.ok() && gateway_socket.ok());
  (*gateway_socket)->add_route(backend_creds.id, (*backend_socket)->port());

  // Backend broker terminates sessions on the socket side of the world.
  proto::ConcurrentSessionBroker::Config backend_config;
  backend_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  std::size_t records = 0;
  backend_config.broker.on_data = [&](const cert::DeviceId&, Bytes) { ++records; };
  rng::TestRng backend_rng(20);
  proto::ConcurrentSessionBroker backend(backend_creds, backend_rng, **backend_socket,
                                         backend_config);
  net::BrokerDriver driver(backend, **backend_socket);

  // The gateway claims the backend's address on the bus.
  net::FleetGateway gateway(bus, **gateway_socket, {backend_creds.id});

  // ECUs live purely on the bus, as inline endpoints; they never see a socket.
  proto::ConcurrentSessionBroker::Config ecu_config;
  ecu_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  std::vector<std::unique_ptr<rng::TestRng>> rngs;
  std::vector<std::unique_ptr<proto::ConcurrentSessionBroker>> ecus;
  for (int i = 0; i < 2; ++i) {
    rngs.push_back(std::make_unique<rng::TestRng>(30 + i));
    ecus.push_back(std::make_unique<proto::ConcurrentSessionBroker>(ecu_creds[i],
                                                                    *rngs.back(), bus, ecu_config));
    ASSERT_TRUE(ecus.back()->connect(backend_creds.id, kNow).ok());
  }

  std::vector<bool> sent(ecus.size(), false);
  const double deadline = net::FdTransport::steady_now_ms() + 10000.0;
  while (records < ecus.size()) {
    ASSERT_LT(net::FdTransport::steady_now_ms(), deadline) << "bridge did not converge";
    gateway.pump();                     // bus → IP, IP → bus
    ASSERT_TRUE(driver.step(kNow).ok());  // backend terminates handshakes
    (*gateway_socket)->service();
    gateway.pump();
    for (std::size_t i = 0; i < ecus.size(); ++i) {
      proto::ConcurrentSessionBroker& ecu = *ecus[i];
      ecu.poll(kNow);
      if (!sent[i] && ecu.broker().session_ready(backend_creds.id, kNow)) {
        ASSERT_TRUE(ecu.send_data(backend_creds.id, bytes_of("bridged-telemetry"), kNow).ok());
        sent[i] = true;
      }
    }
  }

  // Both sessions terminated end-to-end across the bridge.
  EXPECT_EQ(backend.broker().stats().handshakes_completed.load(), ecus.size());
  EXPECT_EQ(backend.broker().store().active_sessions(), ecus.size());
  // The gateway learned the ECUs and moved traffic both ways.
  EXPECT_EQ(gateway.stats().ecus_learned.load(), ecus.size());
  EXPECT_GT(gateway.stats().to_backhaul.load(), 0u);
  EXPECT_GT(gateway.stats().to_bus.load(), 0u);
  EXPECT_EQ(gateway.stats().send_errors.load(), 0u);
  // Wire accounting exists on BOTH legs: CAN frames on the bus, socket
  // bytes on the backhaul, carrying the same fabric payload.
  EXPECT_GT(bus.stats().messages_sent.load(), 0u);
  EXPECT_GT((*gateway_socket)->wire_stats().bytes_sent.load(), 0u);
  EXPECT_GT((*gateway_socket)->wire_stats().bytes_received.load(), 0u);
}

}  // namespace
}  // namespace ecqv
