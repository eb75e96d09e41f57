// Ablation: hardware acceleration of the EC primitives — the paper's
// stated future work ("investigate the influence of security modules and
// hardware accelerators ... especially those related to session
// establishment").
//
// The device model makes this a one-knob experiment: scale the calibrated
// EC factor by an accelerator speedup while the symmetric stack stays on
// the CPU, and watch where the STS-vs-S-ECDSA premium and the absolute
// costs go. A second ablation varies which STS optimization is deployed.
#include <cstdio>

#include "report.hpp"
#include "sim/calibrate.hpp"
#include "sim/schedule.hpp"

using namespace ecqv;

int main() {
  const auto fits = sim::calibrate_all_paper_devices();
  const sim::RunRecord sts = sim::record_run(proto::ProtocolKind::kSts);
  const sim::RunRecord secdsa = sim::record_run(proto::ProtocolKind::kSEcdsa);

  bench::section("Ablation 1: EC hardware accelerator on the S32K144 (paper future work)");
  std::printf("EC scalar work offloaded with speedup k; symmetric stack unchanged.\n\n");

  bench::Table table({"EC speedup", "STS (ms)", "S-ECDSA (ms)", "STS premium", "STS opt.II (ms)",
                      "bottleneck"});
  const sim::DeviceModel base = fits[1].model;
  for (const double speedup : {1.0, 2.0, 5.0, 10.0, 50.0, 100.0}) {
    sim::DeviceModel accel = base;
    accel.ec_factor_ms = base.ec_factor_ms / speedup;
    const double t_sts = sim::sequential_total_ms(sts, accel, accel);
    const double t_secdsa = sim::sequential_total_ms(secdsa, accel, accel);
    const auto ta = sim::sts_op_times(sts.initiator_segments, accel);
    const auto tb = sim::sts_op_times(sts.responder_segments, accel);
    const double t_opt2 = sim::sts_total_ms(ta, tb, proto::StsVariant::kOptII);
    // Where does the time go once EC is cheap?
    sim::DeviceModel ec_only = accel;
    ec_only.sym_factor_ms = 0;
    const double ec_share = sim::sequential_total_ms(sts, ec_only, ec_only) / t_sts;
    table.add_row({bench::fmt(speedup, 0) + "x", bench::fmt(t_sts, 1),
                   bench::fmt(t_secdsa, 1),
                   bench::fmt(100.0 * (t_sts - t_secdsa) / t_secdsa, 1) + "%",
                   bench::fmt(t_opt2, 1),
                   ec_share > 0.5 ? "EC compute" : "symmetric/RNG"});
  }
  table.print();
  std::printf("\nReading: the *relative* STS premium is speedup-invariant (same EC op\n"
              "ratio), but the absolute premium drops from ~seconds to ~milliseconds —\n"
              "the paper's argument that accelerators make DKD essentially free.\n");

  bench::section("Ablation 2: which optimization to deploy (all four devices, STS)");
  bench::Table opts({"Device", "baseline (ms)", "opt. I (ms)", "opt. II (ms)",
                     "opt. II saving", "opt. II vs S-ECDSA"});
  for (std::size_t d = 0; d < sim::kPaperDevices.size(); ++d) {
    const sim::DeviceModel& model = fits[d].model;
    const auto ta = sim::sts_op_times(sts.initiator_segments, model);
    const auto tb = sim::sts_op_times(sts.responder_segments, model);
    const double t0 = sim::sts_total_ms(ta, tb, proto::StsVariant::kBaseline);
    const double t1 = sim::sts_total_ms(ta, tb, proto::StsVariant::kOptI);
    const double t2 = sim::sts_total_ms(ta, tb, proto::StsVariant::kOptII);
    const double t_secdsa = sim::sequential_total_ms(secdsa, model, model);
    opts.add_row({model.name, bench::fmt(t0, 1), bench::fmt(t1, 1), bench::fmt(t2, 1),
                  bench::fmt(100.0 * (t0 - t2) / t0, 1) + "%",
                  t2 < t_secdsa ? "faster" : "slower"});
  }
  opts.print();

  bench::section("Ablation 3: asymmetric device pairings (gateway + node)");
  std::printf("Opt. I/II overlap hides the *faster* device's work; pairing a RPi4\n"
              "gateway with an S32K144 node shows eq. (6)'s asymmetric term.\n\n");
  bench::Table pairs({"Initiator", "Responder", "baseline (ms)", "opt. I (ms)", "opt. II (ms)"});
  for (const auto [i, j] : {std::pair<std::size_t, std::size_t>{1, 3},
                            std::pair<std::size_t, std::size_t>{3, 1},
                            std::pair<std::size_t, std::size_t>{2, 1}}) {
    const auto ta = sim::sts_op_times(sts.initiator_segments, fits[i].model);
    const auto tb = sim::sts_op_times(sts.responder_segments, fits[j].model);
    pairs.add_row({fits[i].model.name, fits[j].model.name,
                   bench::fmt(sim::sts_total_ms(ta, tb, proto::StsVariant::kBaseline), 1),
                   bench::fmt(sim::sts_total_ms(ta, tb, proto::StsVariant::kOptI), 1),
                   bench::fmt(sim::sts_total_ms(ta, tb, proto::StsVariant::kOptII), 1)});
  }
  pairs.print();
  return 0;
}
