// Loopback soak harness: drives a fleet of short-lived clients against one
// socket-backed broker until the server holds `sessions` concurrent store
// sessions, each established by a real handshake over the kernel's
// loopback stack and exercised with sealed records (piggyback-rekeyed
// mid-stream when the policy's record budget is spent).
//
// The server is a ConcurrentSessionBroker stepped by net::BrokerDriver;
// each client is an inline one (workers = 0) on one shared client socket.
// Clients are admitted in waves: each wave provisions fresh devices, runs
// its handshakes and telemetry bursts concurrently, then retires its
// client endpoints — the SERVER keeps every negotiated session, which is
// the point: 100k concurrent sessions are 100k store entries behind one
// socket, not 100k live client objects. Waves bound client memory and the
// UDP socket buffers at the same time.
//
// Shared by test_net_soak (small, TSan-friendly), bench_net_soak (the
// 100k+ capture) and the net-smoke CI job.
#pragma once

#include <cstdint>

#include "common/result.hpp"

namespace ecqv::net {

struct SoakConfig {
  std::size_t sessions = 1000;          // total concurrent server sessions
  std::size_t wave = 256;               // clients in flight at once
  std::size_t records_per_session = 4;  // sealed records per client
  std::uint64_t records_budget = 2;     // per-epoch seal budget → mid-stream rekey
  std::size_t server_workers = 0;       // broker worker threads (0 = inline)
  bool tcp = false;                     // false = UDP datagrams, true = TCP streams
  int timeout_ms = 300000;              // whole-soak wall-clock budget
  std::uint64_t seed = 42;
};

struct SoakReport {
  std::size_t handshakes = 0;         // completed on the server
  std::size_t records = 0;            // sealed records the server opened
  std::size_t rekeys = 0;             // piggybacked epoch advances applied
  std::size_t server_sessions = 0;    // concurrent store sessions at the end
  std::size_t retransmits = 0;        // reliability engine firings (loss happened)
  double elapsed_ms = 0.0;
  std::uint64_t wire_bytes = 0;       // server-side socket bytes, both directions
  std::uint64_t wire_datagrams = 0;   // server-side datagrams received
  std::uint64_t send_drops = 0;       // kernel-refused sends (UDP backpressure)
};

/// Runs the soak; kBadState when it fails to converge inside timeout_ms
/// or any handshake fails.
Result<SoakReport> run_loopback_soak(const SoakConfig& config);

}  // namespace ecqv::net
