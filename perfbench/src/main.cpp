// session_bench: runs one workload from a seed over loopback UDP and
// prints its metrics as the last line of stdout.
//
//   session_bench --workload connect|stream|fleet --seed N --seconds S
//                 --trace 0|1 [--spans FILE]
//
// --trace 0 sets the workload up three times (setup_s is the median), runs
// it for S seconds and prints the end-to-end metrics. --trace 1 sets it up
// once, runs it untraced for 60% of S and then traced for two seconds,
// runs a fixed exact-count phase, and prints the per-layer metrics;
// --spans writes every recorded span to FILE. A failed output check
// prints "correct": false and exits 1.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr int kSetups = 3;
constexpr std::uint64_t kDrainTimeout = 30000000000ull;
/// Traced run: share of --seconds spent in the untraced phase, length of
/// the traced phase (its spans stay in memory: stream records ~850k spans
/// a second), and handshakes in the count phase.
constexpr double kUntracedShare = 0.6;
constexpr double kTracedSeconds = 2.0;
constexpr std::size_t kCountHandshakes = 64;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<Sample>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const Sample& s : samples) sum += static_cast<double>(s.latency);
  return sum / static_cast<double>(samples.size());
}

double latency_quantile(const std::vector<Sample>& samples, double q) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(static_cast<double>(s.latency));
  return quantile(std::move(v), q);
}

/// Window statistics of one operation kind. A window is a fixed number
/// of consecutive completions; its rate is that count over the time from
/// its first completion to the next window's first, so bursts of
/// completions never quantize it.
struct Windowed {
  double rate = 0;  // the workload's quantile of the window rates (1/s)
  double p50 = 0;   // the workload's quantile of the window p50s (ns)
  double p99 = 0;   // pooled p99 (ns)
  std::size_t samples = 0;
  std::size_t windows = 0;
};

Windowed windowed(std::vector<Sample> samples, std::size_t per_window, double rate_q,
                  double latency_q) {
  Windowed out;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.at < b.at; });
  out.samples = samples.size();
  std::vector<double> pooled;
  pooled.reserve(samples.size());
  for (const Sample& s : samples) pooled.push_back(static_cast<double>(s.latency));
  out.p99 = quantile(pooled, 0.99);
  out.windows = samples.empty() ? 0 : (samples.size() - 1) / per_window;
  std::vector<double> rates, p50s;
  for (std::size_t j = 0; j < out.windows; ++j) {
    const std::size_t lo = j * per_window, hi = lo + per_window;
    const double span = static_cast<double>(samples[hi].at - samples[lo].at);
    rates.push_back(static_cast<double>(per_window) * 1e9 / std::max(span, 1.0));
    p50s.push_back(quantile(std::vector<double>(pooled.begin() + static_cast<std::ptrdiff_t>(lo),
                                                pooled.begin() + static_cast<std::ptrdiff_t>(hi)),
                            0.5));
  }
  out.rate = quantile(rates, rate_q);
  out.p50 = quantile(p50s, latency_q);
  return out;
}

std::uint64_t handshake_bytes(const TimedTransport::Counts& c) {
  return c.bytes(Step::kA1) + c.bytes(Step::kB1) + c.bytes(Step::kA2) + c.bytes(Step::kB2);
}
std::uint64_t handshake_datagrams(const TimedTransport::Counts& c) {
  return c.datagrams(Step::kA1) + c.datagrams(Step::kB1) + c.datagrams(Step::kA2) +
         c.datagrams(Step::kB2);
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Reports check failures; true when there were none.
bool report_violations(Fabric& f) {
  const auto violations = f.violations();
  for (const auto& v : violations) std::fprintf(stderr, "output check failed: %s\n", v.c_str());
  return violations.empty();
}

std::uint64_t records_delivered(Fabric& f) {
  return f.tally().up_done_all + f.tally().down_done_all;
}

// ------------------------------------------------------------ end to end
int run_end_to_end(const Options& opt) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();  // tear the previous world down outside the timed set-up
    const std::uint64_t start = now_ns();
    w = make_workload(opt.workload, opt.seed, opt.seconds);
    w->setup();
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  Fabric& f = w->fabric();
  w->set_heap_probes(true);
  const BrokerCounts before = f.broker_counts();
  const TimedTransport::Counts wire0 = f.server_net().counts();
  const auto run_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  const std::uint64_t t0 = now_ns();
  f.set_timed_start(t0);
  const RunStats run = w->run(t0 + run_ns, UINT64_MAX);
  const std::uint64_t t_end = now_ns();
  const TimedTransport::Counts wire = f.server_net().counts().minus(wire0);
  const bool drained = w->drain(kDrainTimeout);
  if (!drained) f.violation("in-flight work did not finish within the drain timeout");
  f.check_conservation();
  const BrokerCounts after = f.broker_counts();

  const WindowStat ws = w->windows();
  const Windowed hs = windowed(f.handshakes().between(t0, t_end), ws.handshakes,
                               ws.rate_quantile, ws.latency_quantile);
  const Windowed rec = windowed(f.records().between(t0, t_end), ws.records, ws.rate_quantile,
                                ws.latency_quantile);
  const std::size_t hs_in_run = hs.samples;
  const std::size_t rec_in_run = rec.samples;

  Tally& t = f.tally();
  const std::uint64_t attempted = t.hs_started + t.rec_sent;
  const std::uint64_t done = t.hs_done + t.rec_done;
  const std::uint64_t failed = attempted - std::min(attempted, done);
  const bool correct = report_violations(f);

  std::string setups;
  for (const double v : setup_s) setups += (setups.empty() ? "" : ", ") + std::to_string(v);
  std::printf("# {\"workload\": \"%s\", \"seed\": %llu, \"units\": %llu, \"handshakes\": %zu, "
              "\"records\": %zu, \"windows\": [%zu, %zu], \"window_size\": [%zu, %zu], "
              "\"in_flight\": %zu, "
              "\"retransmits_server\": %llu, \"retransmits_client\": %llu, "
              "\"duplicates\": %llu, \"send_drops\": %llu, \"handshake_aborts\": %llu, "
              "\"late_p99_ms\": %.4f, "
              "\"busy_share\": %.4f, \"p99_ms\": [%.4f, %.4f], \"setup_runs_s\": [%s]}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(run.units), hs_in_run, rec_in_run, hs.windows,
              rec.windows, ws.handshakes, ws.records, w->in_flight_bound(),
              static_cast<unsigned long long>(after.server_retransmits - before.server_retransmits),
              static_cast<unsigned long long>(after.client_retransmits - before.client_retransmits),
              static_cast<unsigned long long>(after.server_duplicates + after.client_duplicates -
                                              before.server_duplicates - before.client_duplicates),
              static_cast<unsigned long long>(after.send_drops - before.send_drops),
              static_cast<unsigned long long>(t.hs_aborted_all.load()),
              latency_quantile(w->lateness().between(t0, t_end), 0.99) / 1e6,
              1.0 - static_cast<double>(run.wait_ns) / static_cast<double>(t_end - t0),
              hs.p99 / 1e6, rec.p99 / 1e6, setups.c_str());

  std::vector<Metric> m;
  m.push_back({"handshakes_per_s", hs.rate, "1/s"});
  m.push_back({"records_per_s", rec.rate, "1/s"});
  m.push_back({"handshake_p50_ms", hs.p50 / 1e6, "ms"});
  m.push_back({"record_p50_us", rec.p50 / 1e3, "us"});
  m.push_back({"wire_bytes_per_handshake",
               ratio(static_cast<double>(handshake_bytes(wire)), static_cast<double>(hs_in_run)),
               "B"});
  m.push_back({"wire_bytes_per_record",
               ratio(static_cast<double>(wire.bytes(Step::kData)), static_cast<double>(rec_in_run)),
               "B"});
  m.push_back({"server_bytes_per_session", w->server_bytes_per_session(), "B"});
  m.push_back({"completed_share",
               ratio(static_cast<double>(done), static_cast<double>(attempted)), "1"});
  m.push_back({"setup_s", quantile(setup_s, 0.5), "s"});
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

// -------------------------------------------------------------- per layer
enum class Layer : std::uint8_t {
  kClientSts,
  kClientStore,
  kClientNet,
  kServerSts,
  kServerStore,
  kServerNet,
  kEpollWait,
  kServerLoop,
  kHandoff,
  kBench,
  kLoadgenWait,
  kCount,
};

constexpr const char* kLayerNames[] = {
    "time.client_sts_share",   "time.client_store_share", "time.client_net_share",
    "time.server_sts_share",   "time.server_store_share", "time.server_net_share",
    "time.epoll_wait_share",   "time.server_loop_share",  "time.broker_handoff_share",
    "time.bench_checks_share", "time.loadgen_wait_share",
};

Layer layer_of(SpanName name) {
  switch (name) {
    case SpanName::kClientConnect:
    case SpanName::kClientB1:
    case SpanName::kClientB2:
    case SpanName::kClientHandshakeOther:
    case SpanName::kClientRetransmit: return Layer::kClientSts;
    case SpanName::kClientMakeData16:
    case SpanName::kClientMakeData64:
    case SpanName::kClientMakeData1024:
    case SpanName::kClientOpen:
    case SpanName::kClientSessionReady: return Layer::kClientStore;
    case SpanName::kClientNetSend:
    case SpanName::kClientNetReceive: return Layer::kClientNet;
    case SpanName::kGapMsgA1:
    case SpanName::kGapMsgA2:
    case SpanName::kGapMsgOther: return Layer::kServerSts;
    case SpanName::kGapMsgDt1:
    case SpanName::kServerSendData: return Layer::kServerStore;
    case SpanName::kNetSend:
    case SpanName::kNetService:
    case SpanName::kNetReceive:
    case SpanName::kNetPollFds: return Layer::kServerNet;
    case SpanName::kGapEpollWait: return Layer::kEpollWait;
    case SpanName::kServerStep:
    case SpanName::kGapLoop: return Layer::kServerLoop;
    case SpanName::kGapDispatch:
    case SpanName::kGapDrain: return Layer::kHandoff;
    case SpanName::kOnDataServer:
    case SpanName::kOnDataDevice: return Layer::kBench;
    case SpanName::kLoadgenWait:
    case SpanName::kCount: break;
  }
  return Layer::kLoadgenWait;
}

struct SpanTotals {
  std::array<std::uint64_t, kSpanNames> count{}, total{}, self{};
  std::uint64_t thread_ns = 0;  // wall time of every traced thread, summed
  std::uint64_t spans = 0;
};

SpanTotals span_totals(std::uint64_t t0, std::uint64_t t1, std::size_t threads) {
  SpanTotals out;
  std::size_t traced_threads = 0;
  for (ThreadTrace* t : Tracer::threads()) {
    if (t->spans.empty()) continue;
    ++traced_threads;
    std::vector<std::uint64_t> child(t->spans.size(), 0);
    std::uint64_t last = t1;
    for (const Span& s : t->spans) {
      const std::uint64_t end = std::max(s.end, s.start);
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += end - s.start;
      last = std::max(last, end);
    }
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      const std::uint64_t dur = std::max(s.end, s.start) - s.start;
      out.count[s.name] += 1;
      out.total[s.name] += dur;
      out.self[s.name] += dur - std::min(dur, child[i]);
    }
    out.thread_ns += last - t0;
    out.spans += t->spans.size();
  }
  // Threads that never recorded a span (an idle worker) still ran.
  if (traced_threads < threads) out.thread_ns += (threads - traced_threads) * (t1 - t0);
  return out;
}

double mean_self_us(const SpanTotals& s, SpanName n) {
  const auto i = static_cast<std::size_t>(n);
  return ratio(static_cast<double>(s.self[i]), static_cast<double>(s.count[i])) / 1e3;
}
double mean_total_us(const SpanTotals& s, std::initializer_list<SpanName> names) {
  double total = 0, count = 0;
  for (const SpanName n : names) {
    total += static_cast<double>(s.total[static_cast<std::size_t>(n)]);
    count += static_cast<double>(s.count[static_cast<std::size_t>(n)]);
  }
  return ratio(total, count) / 1e3;
}
double self_ns(const SpanTotals& s, SpanName n) {
  return static_cast<double>(s.self[static_cast<std::size_t>(n)]);
}

int run_traced(const Options& opt) {
  std::unique_ptr<Workload> w = make_workload(opt.workload, opt.seed, opt.seconds);
  w->setup();
  Fabric& f = w->fabric();

  // Untraced, then the same amount of work traced.
  const BrokerCounts counts0 = f.broker_counts();
  const std::uint64_t records0 = records_delivered(f);
  const std::uint64_t rekeys0 = f.tally().rekeys_all;
  const std::uint64_t hs0 = f.tally().hs_done_all;
  const std::uint64_t u0 = now_ns();
  f.set_timed_start(u0);
  const RunStats untraced =
      w->run(u0 + static_cast<std::uint64_t>(opt.seconds * kUntracedShare * 1e9), UINT64_MAX);
  const std::uint64_t u1 = now_ns();
  bool drained = w->drain(kDrainTimeout);

  const std::uint64_t server_dg0 = f.server_net().inner().wire_stats().datagrams_received;
  const std::uint64_t client_dg0 = f.client_net().wire_stats().datagrams_received;
  const std::uint64_t recv0 = recvfrom_calls();
  Tracer::enable(true);
  const std::uint64_t t0 = now_ns();
  const double traced_s = std::min(kTracedSeconds, opt.seconds * 0.25);
  const RunStats traced = w->run(t0 + static_cast<std::uint64_t>(traced_s * 1e9), UINT64_MAX);
  const std::uint64_t t1 = now_ns();
  Tracer::enable(false);
  const std::uint64_t datagrams_t =
      f.server_net().inner().wire_stats().datagrams_received - server_dg0 +
      f.client_net().wire_stats().datagrams_received - client_dg0;
  const std::uint64_t recv_t = recvfrom_calls() - recv0;
  drained = w->drain(kDrainTimeout) && drained;
  const BrokerCounts counts1 = f.broker_counts();
  const std::uint64_t records1 = records_delivered(f);
  const std::uint64_t hs1 = f.tally().hs_done_all;

  // Exact-count phase: fixed work from freshly seeded randomness.
  static ecqv::AtomicCountSink sink;
  f.reseed(0xC0C0);
  const TimedTransport::Counts wire_c0 = f.server_net().counts();
  const BrokerCounts cache_c0 = f.broker_counts();
  ecqv::OpCounts ops_hs, ops_rec;
  TimedTransport::Counts wire_hs, wire_rec;
  BrokerCounts cache_c1;
  std::uint64_t count_records = 0;
  {
    ecqv::GlobalCountScope scope(sink);
    sink.reset();
    w->count_handshakes(kCountHandshakes);
    ops_hs = sink.snapshot();
    wire_hs = f.server_net().counts().minus(wire_c0);
    cache_c1 = f.broker_counts();
    sink.reset();
    const TimedTransport::Counts wire_r0 = f.server_net().counts();
    count_records = w->count_records();
    ops_rec = sink.snapshot();
    wire_rec = f.server_net().counts().minus(wire_r0);
  }
  if (!w->drain(kDrainTimeout) || !drained)
    f.violation("in-flight work did not finish within the drain timeout");
  if (cache_c1.client_handshakes - cache_c0.client_handshakes != kCountHandshakes)
    f.violation("count phase did not complete every handshake");
  f.check_conservation();
  // Every datagram either socket delivered took one successful recvfrom.
  if (recv_t < datagrams_t)
    f.violation("counted " + std::to_string(recv_t) + " recvfrom calls for " +
                std::to_string(datagrams_t) + " datagrams received");

  const SpanTotals s = span_totals(t0, t1, w->threads());
  const double thread_ns = static_cast<double>(s.thread_ns);
  const double wall_ns = static_cast<double>(t1 - t0);
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer{};
  double covered = 0;
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    layer[static_cast<std::size_t>(layer_of(static_cast<SpanName>(i)))] +=
        static_cast<double>(s.self[i]);
    covered += static_cast<double>(s.self[i]);
  }

  const double hs_count = static_cast<double>(kCountHandshakes);
  const double handshakes_timed = static_cast<double>(hs1 - hs0);
  const double records_timed = static_cast<double>(records1 - records0);
  auto op = [&](ecqv::Op o) { return static_cast<double>(ops_hs[o]) / hs_count; };

  // Closed loops: the record rate of the untraced phase's last stretch as
  // long as the traced phase (the adjacent host state) over the traced
  // rate. The open loop's wall time is fixed by its schedule, so it
  // compares the generator's busy time per event instead.
  double overhead = 0;
  if (w->open_loop()) {
    const double busy_u = ratio(static_cast<double>(u1 - u0 - untraced.wait_ns),
                                static_cast<double>(untraced.units));
    const double busy_t = ratio(static_cast<double>(t1 - t0 - traced.wait_ns),
                                static_cast<double>(traced.units));
    overhead = ratio(busy_t - busy_u, busy_u);
  } else {
    const std::uint64_t span_ns = std::min(t1 - t0, u1 - u0);
    const double rate_u =
        static_cast<double>(f.records().between(u1 - span_ns, u1).size()) / span_ns;
    const double rate_t = static_cast<double>(f.records().between(t0, t1).size()) / (t1 - t0);
    overhead = ratio(rate_u - rate_t, rate_t);
  }
  const auto handoff = f.handoffs().between(t0, t1 + kDrainTimeout);

  std::vector<Metric> m;
  // Pooled over the untraced phase: these tails do not repeat within a
  // tenth on this host (see STEADINESS.md), so they are diagnostics here.
  m.push_back({"handshake_p99_ms",
               latency_quantile(f.handshakes().between(u0, u1), 0.99) / 1e6, "ms"});
  m.push_back({"record_p99_us", latency_quantile(f.records().between(u0, u1), 0.99) / 1e3, "us"});
  m.push_back({"sts.fp_mul_per_handshake", op(ecqv::Op::kFpMul), "count"});
  m.push_back({"sts.fp_sqr_per_handshake", op(ecqv::Op::kFpSqr), "count"});
  m.push_back({"sts.mod_inv_per_handshake", op(ecqv::Op::kModInv), "count"});
  m.push_back({"sts.ec_mul_per_handshake",
               op(ecqv::Op::kEcMulBase) + op(ecqv::Op::kEcMulVar) + op(ecqv::Op::kEcMulDual) +
                   op(ecqv::Op::kEcMulDualCached),
               "count"});
  m.push_back({"sts.sha256_blocks_per_handshake", op(ecqv::Op::kSha256Block), "count"});
  m.push_back({"session_broker.connect_us", mean_self_us(s, SpanName::kClientConnect), "us"});
  m.push_back({"session_broker.b1_us", mean_self_us(s, SpanName::kClientB1), "us"});
  m.push_back({"session_broker.a1_us", mean(f.a1_times().between(t0, t1)) / 1e3, "us"});
  m.push_back({"session_broker.a2_us", mean(f.a2_times().between(t0, t1)) / 1e3, "us"});
  m.push_back({"peer_cache.server_hit_ratio",
               1.0 - static_cast<double>(cache_c1.server_cache_misses -
                                         cache_c0.server_cache_misses) / hs_count,
               "1"});
  m.push_back({"peer_cache.client_hit_ratio",
               1.0 - static_cast<double>(cache_c1.client_cache_misses -
                                         cache_c0.client_cache_misses) / hs_count,
               "1"});
  m.push_back({"session_broker.retransmits_per_handshake",
               ratio(static_cast<double>(counts1.server_retransmits + counts1.client_retransmits -
                                         counts0.server_retransmits - counts0.client_retransmits),
                     handshakes_timed),
               "count"});
  m.push_back({"session_broker.duplicates_per_handshake",
               ratio(static_cast<double>(counts1.server_duplicates + counts1.client_duplicates -
                                         counts0.server_duplicates - counts0.client_duplicates),
                     handshakes_timed),
               "count"});
  m.push_back({"session_store.make_data_us_16", mean_self_us(s, SpanName::kClientMakeData16), "us"});
  m.push_back({"session_store.make_data_us_64", mean_self_us(s, SpanName::kClientMakeData64), "us"});
  m.push_back({"session_store.make_data_us_1024", mean_self_us(s, SpanName::kClientMakeData1024),
               "us"});
  m.push_back({"session_store.send_data_us", mean_self_us(s, SpanName::kServerSendData), "us"});
  m.push_back({"session_broker.dt1_us",
               w->threads() > 1 ? mean(handoff) / 1e3 : mean_self_us(s, SpanName::kGapMsgDt1),
               "us"});
  m.push_back({"session_store.ratchets_per_krecord",
               ratio(static_cast<double>(counts1.server_ratchets - counts0.server_ratchets),
                     records_timed) * 1000,
               "count"});
  m.push_back({"session_store.full_rekeys_per_krecord",
               ratio(static_cast<double>(f.tally().rekeys_all - rekeys0), records_timed) * 1000,
               "count"});
  m.push_back({"aead.aes_blocks_per_record",
               ratio(static_cast<double>(ops_rec[ecqv::Op::kAesBlock]),
                     static_cast<double>(count_records)),
               "count"});
  m.push_back({"net.send_us", mean_total_us(s, {SpanName::kNetSend, SpanName::kClientNetSend}),
               "us"});
  m.push_back({"net.service_us_per_datagram",
               ratio(static_cast<double>(
                         s.total[static_cast<std::size_t>(SpanName::kNetService)] +
                         s.total[static_cast<std::size_t>(SpanName::kNetReceive)] +
                         s.total[static_cast<std::size_t>(SpanName::kClientNetReceive)]),
                     static_cast<double>(datagrams_t)) / 1e3,
               "us"});
  m.push_back({"net.recv_calls_per_datagram",
               ratio(static_cast<double>(recv_t), static_cast<double>(datagrams_t)), "count"});
  m.push_back({"net.datagrams_per_handshake",
               static_cast<double>(handshake_datagrams(wire_hs)) / hs_count, "count"});
  m.push_back({"net.send_drops", static_cast<double>(counts1.send_drops), "count"});
  m.push_back({"wire.a1_bytes", static_cast<double>(wire_hs.bytes(Step::kA1)) / hs_count, "B"});
  m.push_back({"wire.b1_bytes", static_cast<double>(wire_hs.bytes(Step::kB1)) / hs_count, "B"});
  m.push_back({"wire.a2_bytes", static_cast<double>(wire_hs.bytes(Step::kA2)) / hs_count, "B"});
  m.push_back({"wire.b2_bytes", static_cast<double>(wire_hs.bytes(Step::kB2)) / hs_count, "B"});
  m.push_back({"wire.dt1_bytes_per_record",
               ratio(static_cast<double>(wire_rec.bytes(Step::kData)),
                     static_cast<double>(count_records)),
               "B"});
  m.push_back({"net.epoll_wait_share", self_ns(s, SpanName::kGapEpollWait) / wall_ns, "1"});
  m.push_back({"concurrent_broker.handoff_us_p50", latency_quantile(handoff, 0.5) / 1e3, "us"});
  m.push_back({"concurrent_broker.handoff_us_p99", latency_quantile(handoff, 0.99) / 1e3, "us"});
  m.push_back({"concurrent_broker.drain_wait_share", self_ns(s, SpanName::kGapDrain) / wall_ns,
               "1"});
  m.push_back({"loadgen.late_p99_ms", latency_quantile(w->lateness().between(t0, t1), 0.99) / 1e6,
               "ms"});
  m.push_back({"loadgen.busy_share",
               1.0 - static_cast<double>(traced.wait_ns) / wall_ns, "1"});
  m.push_back({"trace.overhead_share", overhead, "1"});
  m.push_back({"trace.unattributed_share", (thread_ns - covered) / thread_ns, "1"});
  for (std::size_t i = 0; i < layer.size(); ++i)
    m.push_back({kLayerNames[i], layer[i] / thread_ns, "1"});

  if (!opt.spans.empty() && !Tracer::write(opt.spans))
    std::fprintf(stderr, "could not write spans to %s\n", opt.spans.c_str());
  std::printf("# {\"workload\": \"%s\", \"seed\": %llu, \"traced_units\": %llu, "
              "\"spans\": %llu, \"traced_wall_ms\": %.3f, \"threads\": %zu}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(traced.units),
              static_cast<unsigned long long>(s.spans), wall_ns / 1e6, w->threads());

  Tally& t = f.tally();
  const std::uint64_t attempted = t.hs_started + t.rec_sent;
  const std::uint64_t done = t.hs_done + t.rec_done;
  const bool correct = report_violations(f);
  print_result(correct, attempted, attempted - std::min(attempted, done), m);
  return correct ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") opt.trace = std::strcmp(value, "0") != 0;
    else if (key == "--spans") opt.spans = value;
    else return false;
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: session_bench --workload connect|stream|fleet --seed N --seconds S "
                 "--trace 0|1 [--spans FILE]\n");
    return 2;
  }
  if (make_workload(opt.workload, opt.seed, opt.seconds) == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  try {
    return opt.trace ? run_traced(opt) : run_end_to_end(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "session_bench: %s\n", e.what());
    return 1;
  }
}
