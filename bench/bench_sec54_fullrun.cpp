// §5.4 reproduction: full-run precision modes and the full-system
// extrapolation model.
//
// Paper: 2e9 galaxies on 9636 nodes — mixed precision 982.4 s vs double
// 1070.6 s (a 9% win); 8.17e15 pairs; 609 FLOP/pair end-to-end (576 kernel
// + ~37 tree search); sustained 5.06 PF mixed / 4.65 PF double; single-node
// kernel 1.017 TF = 39% of peak.
//
// Here: the same measurement on one laptop "node", then the paper's own
// extrapolation arithmetic (pairs x FLOP-per-pair / measured rate) applied
// to our rates to estimate this machine's hypothetical 2-billion-galaxy
// time — making the scale gap explicit rather than hidden.
#include <cstdio>

#include "bench_util.hpp"

using namespace galactos;
using namespace galactos::bench;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  const std::size_t n = args.get<std::size_t>("n", 80000);
  const double rmax = args.get<double>("rmax", 16.0);
  args.finish();

  print_header("Sec. 5.4 analog — precision modes + full-system model");
  print_kv("galaxies", fmt(static_cast<double>(n), "%.0f"));
  print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));

  const sim::Catalog cat = outer_rim_scaled(n, 999);

  struct Mode {
    const char* name;
    core::TreePrecision precision;
  };
  const Mode modes[] = {{"double", core::TreePrecision::kDouble},
                        {"mixed", core::TreePrecision::kMixed}};

  double time_double = 0, time_mixed = 0, rate_mixed = 0;
  Table t({"precision", "time (s)", "pairs", "kernel GF/s", "end-to-end GF/s"});
  for (const Mode& m : modes) {
    core::EngineConfig cfg = paper_engine_config(rmax, 10, 0);
    cfg.tree.precision = m.precision;
    core::EngineStats stats;
    (void)core::Engine(cfg).run(cat, nullptr, &stats);
    // End-to-end rate with the paper's 609 FLOP/pair accounting
    // (572 kernel at lmax=10 + ~37 for the tree search).
    const double flops_e2e = static_cast<double>(stats.pairs) * 609.0;
    const double kern = stats.phases.get("multipole kernel");
    t.add_row({m.name, fmt(stats.wall_seconds, "%.3f"),
               fmt(static_cast<double>(stats.pairs), "%.3e"),
               fmt(stats.kernel_flop_count / kern / 1e9, "%.2f"),
               fmt(flops_e2e / stats.wall_seconds / 1e9, "%.2f")});
    if (m.precision == core::TreePrecision::kDouble)
      time_double = stats.wall_seconds;
    else {
      time_mixed = stats.wall_seconds;
      rate_mixed = flops_e2e / stats.wall_seconds;
    }
  }
  std::printf("\n");
  t.print();

  const double gain = 100.0 * (time_double - time_mixed) / time_double;
  print_kv("mixed-precision gain", fmt(gain, "%.1f%%"));
  print_kv("paper mixed-precision gain", "9% (1070.6s -> 982.4s)");

  // Full-system model: the paper's 2e9-galaxy run has 8.17e15 pairs.
  const double full_pairs = 8.17e15;
  const double est_seconds = full_pairs * 609.0 / rate_mixed;
  print_kv("paper full-run pairs", "8.17e15");
  print_kv("this machine @ measured rate",
           fmt(est_seconds / 86400.0, "%.1f days (hypothetical)"));
  print_kv("paper on 9636 KNL nodes", "982.4 s at 5.06 PF sustained");
  std::printf(
      "\nNote: the ratio of those two numbers is the point of the paper —\n"
      "the 3PCF at survey scale is an HPC problem; the algorithm and code\n"
      "structure here are the same, the machine is not.\n");
  return 0;
}
