// Socket transports over real loopback: UDP datagrams, TCP streams with
// short-write/partial-read machinery, endpoint multiplexing, hostile
// bytes, the epoll event loop, and full broker handshakes + sealed records
// through actual kernel sockets.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>

#include "core/concurrent_broker.hpp"
#include "core/credentials.hpp"
#include "net/event_loop.hpp"
#include "net/tcp_transport.hpp"
#include "net/udp_transport.hpp"
#include "rng/test_rng.hpp"

namespace ecqv {
namespace {

constexpr std::uint64_t kNow = 1700000000;
constexpr std::uint64_t kLifetime = 7 * 86400;

cert::DeviceId id_of(const char* name) { return cert::DeviceId::from_string(name); }

proto::Message text_message(const char* step, const char* text) {
  return proto::Message{proto::Role::kInitiator, step, bytes_of(text)};
}

/// Loopback delivery is asynchronous (softirq): spin `transport.service()`
/// until `pred` holds or ~2s of wall time elapses.
template <typename Pred>
bool eventually(net::FdTransport& transport, Pred pred) {
  const double deadline = net::FdTransport::steady_now_ms() + 2000.0;
  while (!pred()) {
    transport.service();
    if (net::FdTransport::steady_now_ms() > deadline) return false;
    ::usleep(200);
  }
  return true;
}

// ------------------------------------------------------------------ UDP

TEST(UdpTransport, RoundTripAndRouteLearning) {
  auto a = net::UdpTransport::open({});
  auto b = net::UdpTransport::open({});
  ASSERT_TRUE(a.ok() && b.ok());
  const cert::DeviceId alice = id_of("udp-alice");
  const cert::DeviceId bob = id_of("udp-bob");
  (*a)->attach(alice);
  (*b)->attach(bob);
  // Only the client knows the server's port; the reverse route is learned.
  (*a)->add_route(bob, (*b)->port());

  ASSERT_TRUE((*a)->send(alice, bob, text_message("A1", "ping")).ok());
  std::optional<proto::Datagram> got;
  ASSERT_TRUE(eventually(**b, [&] { return (got = (*b)->receive(bob)).has_value(); }));
  EXPECT_EQ(got->src, alice);
  EXPECT_EQ(got->message.step, "A1");
  EXPECT_EQ(got->message.payload, bytes_of("ping"));

  // B never called add_route: the way back was learned from the datagram.
  ASSERT_TRUE((*b)->send(bob, alice, text_message("B1", "pong")).ok());
  ASSERT_TRUE(eventually(**a, [&] { return (got = (*a)->receive(alice)).has_value(); }));
  EXPECT_EQ(got->src, bob);
  EXPECT_EQ(got->message.payload, bytes_of("pong"));
  EXPECT_EQ((*a)->wire_stats().datagrams_sent.load(), 1u);
  EXPECT_EQ((*a)->wire_stats().datagrams_received.load(), 1u);
}

TEST(UdpTransport, OneSocketMultiplexesManyEndpoints) {
  // The fleet-server shape: one socket, many attached fabric ids.
  auto server = net::UdpTransport::open({});
  auto client = net::UdpTransport::open({});
  ASSERT_TRUE(server.ok() && client.ok());
  const cert::DeviceId sender = id_of("mux-sender");
  (*client)->attach(sender);
  std::vector<cert::DeviceId> locals;
  for (int i = 0; i < 5; ++i) {
    locals.push_back(id_of(("mux-local-" + std::to_string(i)).c_str()));
    (*server)->attach(locals.back());
    (*client)->add_route(locals.back(), (*server)->port());
    ASSERT_TRUE(
        (*client)->send(sender, locals.back(), text_message("A1", "to-you")).ok());
  }
  ASSERT_TRUE(eventually(
      **server, [&] { return (*server)->wire_stats().datagrams_received.load() == 5u; }));
  for (const auto& local : locals) {
    auto got = (*server)->receive(local);
    ASSERT_TRUE(got.has_value()) << "no datagram demuxed to its endpoint";
    EXPECT_EQ(got->dst, local);
  }
}

TEST(UdpTransport, SendFailuresAreExplicit) {
  auto t = net::UdpTransport::open({});
  ASSERT_TRUE(t.ok());
  const cert::DeviceId local = id_of("udp-lonely");
  // Unattached source is misuse.
  EXPECT_EQ((*t)->send(local, id_of("nobody"), text_message("A1", "x")).error(),
            Error::kBadState);
  (*t)->attach(local);
  // No route for the destination is misuse too (nothing was learned).
  EXPECT_EQ((*t)->send(local, id_of("nobody"), text_message("A1", "x")).error(),
            Error::kBadState);
  EXPECT_EQ((*t)->stats().unroutable.load(), 1u);
}

TEST(UdpTransport, HostileBytesAreCountedAndDropped) {
  auto t = net::UdpTransport::open({});
  ASSERT_TRUE(t.ok());
  (*t)->attach(id_of("udp-victim"));
  // Raw garbage straight at the socket: short runt, bad op code, huge blob.
  const int raw = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons((*t)->port());
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const Bytes runt(7, 0x41);
  const Bytes badop(40, 0x00);
  ASSERT_GT(::sendto(raw, runt.data(), runt.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof to), 0);
  ASSERT_GT(::sendto(raw, badop.data(), badop.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof to), 0);
  ::close(raw);
  ASSERT_TRUE(eventually(**t, [&] { return (*t)->wire_stats().decode_errors.load() == 2u; }));
  EXPECT_EQ((*t)->receive(id_of("udp-victim")), std::nullopt);
  EXPECT_TRUE((*t)->idle());
}

// ------------------------------------------------------------------ TCP

TEST(TcpTransport, RoundTripOverRealConnection) {
  auto server = net::TcpStreamTransport::listen({});
  ASSERT_TRUE(server.ok());
  auto client = net::TcpStreamTransport::connect_to({.port = (*server)->port()});
  ASSERT_TRUE(client.ok());
  const cert::DeviceId alice = id_of("tcp-alice");
  const cert::DeviceId bob = id_of("tcp-bob");
  (*client)->attach(alice);
  (*server)->attach(bob);

  // Client mode routes everything through its one connection — even before
  // the non-blocking connect completes (the frame buffers, then flushes).
  ASSERT_TRUE((*client)->send(alice, bob, text_message("A1", "stream-ping")).ok());
  std::optional<proto::Datagram> got;
  ASSERT_TRUE(eventually(**server, [&] {
    (*client)->service();  // flush the client side too
    return (got = (*server)->receive(bob)).has_value();
  }));
  EXPECT_EQ(got->message.payload, bytes_of("stream-ping"));
  EXPECT_EQ((*server)->stats().accepted.load(), 1u);

  // Server learned alice lives behind the accepted connection.
  ASSERT_TRUE((*server)->send(bob, alice, text_message("B1", "stream-pong")).ok());
  ASSERT_TRUE(eventually(**client, [&] {
    (*server)->service();
    return (got = (*client)->receive(alice)).has_value();
  }));
  EXPECT_EQ(got->message.payload, bytes_of("stream-pong"));
}

TEST(TcpTransport, ShortWritesDrainThroughTheStateMachine) {
  auto server = net::TcpStreamTransport::listen({});
  ASSERT_TRUE(server.ok());
  auto client = net::TcpStreamTransport::connect_to({.port = (*server)->port()});
  ASSERT_TRUE(client.ok());
  const cert::DeviceId alice = id_of("tcp-burst-alice");
  const cert::DeviceId bob = id_of("tcp-burst-bob");
  (*client)->attach(alice);
  (*server)->attach(bob);
  // Strangle the client's send buffer so a burst of fat frames cannot
  // possibly fit: the kernel must cut writes short and the transport must
  // finish them from its per-connection offset machine.
  ASSERT_TRUE(net::set_send_buffer((*client)->poll_fds()[0], 4096).ok());

  constexpr std::size_t kBurst = 64;
  const Bytes fat(8000, 0x5A);
  for (std::size_t i = 0; i < kBurst; ++i) {
    proto::Message m{proto::Role::kInitiator, "DT1", fat};
    ASSERT_TRUE((*client)->send(alice, bob, m).ok());
  }
  std::size_t received = 0;
  ASSERT_TRUE(eventually(**server, [&] {
    (*client)->service();  // keep flushing the choked connection
    while ((*server)->receive(bob).has_value()) ++received;
    return received == kBurst;
  }));
  EXPECT_GT((*client)->stats().short_writes.load(), 0u)
      << "burst fit the strangled buffer — short-write path never exercised";
  EXPECT_EQ((*server)->wire_stats().datagrams_received.load(), kBurst);
}

TEST(TcpTransport, FramingViolationKillsOnlyThatConnection) {
  auto server = net::TcpStreamTransport::listen({});
  ASSERT_TRUE(server.ok());
  (*server)->attach(id_of("tcp-victim"));
  // A healthy client and a hostile raw connection.
  auto good = net::TcpStreamTransport::connect_to({.port = (*server)->port()});
  ASSERT_TRUE(good.ok());
  (*good)->attach(id_of("tcp-good"));
  ASSERT_TRUE(
      (*good)->send(id_of("tcp-good"), id_of("tcp-victim"), text_message("A1", "hi")).ok());

  const int raw = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons((*server)->port());
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&to), sizeof to), 0);
  const std::uint8_t hostile[] = {0xff, 0xff, 0xff, 0xff, 0x00, 0x00};
  ASSERT_GT(::send(raw, hostile, sizeof hostile, 0), 0);

  ASSERT_TRUE(eventually(**server, [&] {
    (*good)->service();
    return (*server)->stats().framing_violations.load() == 1u &&
           (*server)->receive(id_of("tcp-victim")).has_value();
  }));
  // The hostile connection is gone; the good one survived.
  EXPECT_EQ((*server)->stats().connections_closed.load(), 1u);
  EXPECT_EQ((*server)->connections(), 1u);
  ::close(raw);
}

// ----------------------------------------------------------- event loop

TEST(EventLoop, WakesOnReadinessNotPolling) {
  net::EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto a = net::UdpTransport::open({});
  auto b = net::UdpTransport::open({});
  ASSERT_TRUE(a.ok() && b.ok());
  (*a)->attach(id_of("el-a"));
  (*b)->attach(id_of("el-b"));
  (*a)->add_route(id_of("el-b"), (*b)->port());
  for (const int fd : (*b)->poll_fds()) ASSERT_TRUE(loop.watch(fd, false).ok());

  // Nothing pending: a zero-timeout wait returns empty.
  auto quiet = loop.wait(0);
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet->empty());

  ASSERT_TRUE((*a)->send(id_of("el-a"), id_of("el-b"), text_message("A1", "wake")).ok());
  auto ready = loop.wait(2000);
  ASSERT_TRUE(ready.ok());
  ASSERT_FALSE(ready->empty());
  EXPECT_TRUE(ready->front().readable);
  (*b)->service();
  EXPECT_TRUE((*b)->receive(id_of("el-b")).has_value());
}

TEST(EventLoop, ReusedFdOfAClosedConnectionIsWatchedAgain) {
  // epoll drops a closed fd by itself, but the loop's interest map keeps
  // the number; an accept that reuses it must still reach epoll_ctl.
  net::EventLoop loop;
  ASSERT_TRUE(loop.valid());
  auto server = net::TcpStreamTransport::listen({});
  ASSERT_TRUE(server.ok());
  const int listen_fd = (*server)->poll_fds().front();
  const auto accepted_fd = [&] {
    for (const int fd : (*server)->poll_fds())
      if (fd != listen_fd) return fd;
    return -1;
  };

  auto first = net::TcpStreamTransport::connect_to({.port = (*server)->port()});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(eventually(**server, [&] { return (*server)->connections() == 1u; }));
  const int reused = accepted_fd();
  ASSERT_TRUE(loop.watch(reused, false).ok());

  first->reset();  // the client closes; the server reads EOF and reaps
  ASSERT_TRUE(eventually(**server, [&] { return (*server)->connections() == 0u; }));
  for (const int fd : (*server)->take_closed_fds()) loop.unwatch(fd);

  auto second = net::TcpStreamTransport::connect_to({.port = (*server)->port()});
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(eventually(**server, [&] { return (*server)->connections() == 1u; }));
  ASSERT_EQ(accepted_fd(), reused) << "the accept did not reuse the closed fd number";
  ASSERT_TRUE(loop.watch(reused, false).ok());

  (*second)->attach(id_of("reuse-client"));
  ASSERT_TRUE(
      (*second)->send(id_of("reuse-client"), id_of("reuse-server"), text_message("A1", "hi")).ok());
  (*second)->service();  // flush in case the connect was still completing
  auto ready = loop.wait(2000);
  ASSERT_TRUE(ready.ok());
  ASSERT_FALSE(ready->empty()) << "the reused fd never reached the epoll set";
  EXPECT_EQ(ready->front().fd, reused);
  EXPECT_TRUE(ready->front().readable);
}

// -------------------------------------- brokers over sockets, end to end

struct NetWorld {
  cert::CertificateAuthority ca;
  std::vector<proto::Credentials> devices;

  explicit NetWorld(std::size_t n)
      : ca(id_of("net-ca"), [] {
          rng::TestRng boot(7);
          return ec::Curve::p256().random_scalar(boot);
        }()) {
    rng::TestRng rng(8);
    for (std::size_t i = 0; i <= n; ++i)
      devices.push_back(proto::provision_device(
          ca, id_of(("net-dev-" + std::to_string(i)).c_str()), kNow, kLifetime, rng));
  }
};

/// Full handshakes + sealed records through real sockets, both transports.
void run_broker_exchange(net::FdTransport& server_transport,
                         net::FdTransport& client_transport, NetWorld& world,
                         std::size_t clients) {
  proto::ConcurrentSessionBroker::Config server_config;
  server_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  server_config.broker.reliability.enabled = true;
  std::vector<Bytes> delivered;
  server_config.broker.on_data = [&](const cert::DeviceId&, Bytes plaintext) {
    delivered.push_back(std::move(plaintext));
  };
  rng::TestRng server_rng(100);
  proto::ConcurrentSessionBroker server(world.devices[0], server_rng, server_transport,
                                        server_config);
  net::BrokerDriver driver(server, server_transport);

  proto::ConcurrentSessionBroker::Config client_config;
  client_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  client_config.broker.reliability.enabled = true;
  std::vector<std::unique_ptr<rng::TestRng>> rngs;
  std::vector<std::unique_ptr<proto::ConcurrentSessionBroker>> fleet;
  for (std::size_t i = 1; i <= clients; ++i) {
    rngs.push_back(std::make_unique<rng::TestRng>(200 + i));
    fleet.push_back(std::make_unique<proto::ConcurrentSessionBroker>(
        world.devices[i], *rngs.back(), client_transport, client_config));
    ASSERT_TRUE(fleet.back()->connect(world.devices[0].id, kNow).ok());
  }

  std::vector<bool> sent(fleet.size(), false);
  std::size_t records_sent = 0;
  const double deadline = net::FdTransport::steady_now_ms() + 10000.0;
  while (delivered.size() < clients) {
    ASSERT_LT(net::FdTransport::steady_now_ms(), deadline) << "exchange did not converge";
    ASSERT_TRUE(driver.step(kNow).ok());
    client_transport.service();
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      proto::ConcurrentSessionBroker& client = *fleet[i];
      client.poll(kNow);
      if (!sent[i] && client.broker().session_ready(world.devices[0].id, kNow)) {
        ASSERT_TRUE(client.send_data(world.devices[0].id, bytes_of("net-telemetry"), kNow).ok());
        sent[i] = true;
        ++records_sent;
      }
    }
  }
  EXPECT_EQ(server.broker().stats().handshakes_completed.load(), clients);
  EXPECT_EQ(server.broker().store().active_sessions(), clients);
  EXPECT_EQ(records_sent, clients);
  for (const Bytes& plaintext : delivered) EXPECT_EQ(plaintext, bytes_of("net-telemetry"));
}

TEST(NetBroker, HandshakesAndRecordsOverUdpSockets) {
  NetWorld world(3);
  auto server = net::UdpTransport::open({});
  auto client = net::UdpTransport::open({});
  ASSERT_TRUE(server.ok() && client.ok());
  (*client)->add_route(world.devices[0].id, (*server)->port());
  run_broker_exchange(**server, **client, world, 3);
}

TEST(NetBroker, HandshakesAndRecordsOverTcpSockets) {
  NetWorld world(3);
  auto server = net::TcpStreamTransport::listen({});
  ASSERT_TRUE(server.ok());
  auto client = net::TcpStreamTransport::connect_to({.port = (*server)->port()});
  ASSERT_TRUE(client.ok());
  run_broker_exchange(**server, **client, world, 3);
}

TEST(NetBroker, RetransmissionTimerRecoversRealLoss) {
  // The A1 goes into a black hole (a bound socket nobody services, then
  // closed → refused). The client's reliability engine, running on the
  // REAL wall clock through the socket transport, must re-send after its
  // RTO; once the route points at the real server the handshake completes.
  NetWorld world(1);
  auto server = net::UdpTransport::open({});
  auto client = net::UdpTransport::open({});
  auto black_hole = net::udp_bind_loopback(0);
  ASSERT_TRUE(server.ok() && client.ok() && black_hole.ok());
  auto hole_port = net::local_port(black_hole->get());
  ASSERT_TRUE(hole_port.ok());

  proto::ConcurrentSessionBroker::Config server_config;
  server_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  server_config.broker.reliability.enabled = true;
  rng::TestRng server_rng(300);
  proto::ConcurrentSessionBroker backend(world.devices[0], server_rng, **server,
                                         server_config);
  net::BrokerDriver driver(backend, **server);

  proto::ConcurrentSessionBroker::Config client_config;
  client_config.broker.store.policy = proto::RekeyPolicy::unlimited();
  client_config.broker.reliability.enabled = true;
  client_config.broker.reliability.rto_ms = 20.0;
  rng::TestRng client_rng(301);
  proto::ConcurrentSessionBroker ecu(world.devices[1], client_rng, **client, client_config);
  (*client)->add_route(world.devices[0].id, hole_port.value());  // wrong on purpose
  ASSERT_TRUE(ecu.connect(world.devices[0].id, kNow).ok());

  // Wait out the RTO on the wall clock; poll() must fire the timer and
  // re-send the A1 (still into the hole).
  const double deadline = net::FdTransport::steady_now_ms() + 5000.0;
  while (ecu.broker().stats().retransmits.load() == 0) {
    ASSERT_LT(net::FdTransport::steady_now_ms(), deadline) << "retransmit never fired";
    ::usleep(5000);
    ecu.poll(kNow);
  }

  // Heal the route; the next retransmission reaches the real server.
  (*client)->add_route(world.devices[0].id, (*server)->port());
  const double finish = net::FdTransport::steady_now_ms() + 5000.0;
  while (!ecu.broker().session_ready(world.devices[0].id, kNow)) {
    ASSERT_LT(net::FdTransport::steady_now_ms(), finish) << "handshake never completed";
    ASSERT_TRUE(driver.step(kNow).ok());
    ecu.poll(kNow);
  }
  EXPECT_EQ(backend.broker().stats().handshakes_completed.load(), 1u);
}

}  // namespace
}  // namespace ecqv
