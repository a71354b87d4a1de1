// Figure 5 reproduction: thread scaling on a single node.
//
// Paper: 10,000 Outer Rim galaxies on one 68-core KNL; 58x speedup from
// 1 -> 68 physical cores, 65x with 272 hyperthreads (marginal ~35% HT
// gain); the k-d tree search degrades slightly under HT.
//
// Here: same-structure sweep over the host's cores. Columns mirror the
// figure: physical-core count (and host hyperthread points), time to
// solution, speedup vs 1 thread, parallel efficiency. The workload is
// scaled up from 10,000 galaxies so per-thread work is measurable.
#include <thread>

#include "bench_util.hpp"

using namespace galactos;
using namespace galactos::bench;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  const std::size_t n = args.get<std::size_t>("n", 40000);
  const double rmax = args.get<double>("rmax", 16.0);
  args.finish();

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  print_header("Fig. 5 analog — thread scaling (single node)");
  print_kv("galaxies", fmt(static_cast<double>(n), "%.0f"));
  print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));
  print_kv("hardware threads", fmt(hw, "%.0f"));
  print_kv("paper reference", "58x @ 68 cores, 65x @ 272 threads (Fig. 5)");

  const sim::Catalog cat = outer_rim_scaled(n, 77);

  std::vector<int> counts;
  for (int t = 1; t <= hw; t *= 2) counts.push_back(t);
  if (counts.back() != hw) counts.push_back(hw);

  Table table({"threads", "time (s)", "speedup", "efficiency", "kernel GF/s",
               "query share"});
  double t1 = 0;
  for (int t : counts) {
    core::EngineConfig cfg = paper_engine_config(rmax, 10, t);
    core::EngineStats stats;
    (void)core::Engine(cfg).run(cat, nullptr, &stats);
    if (t == 1) t1 = stats.wall_seconds;
    const double speedup = t1 / stats.wall_seconds;
    const double kern = stats.phases.get("multipole kernel");
    table.add_row({fmt(t, "%.0f"), fmt(stats.wall_seconds, "%.3f"),
                   fmt(speedup, "%.2fx"), fmt(100.0 * speedup / t, "%.1f%%"),
                   fmt(stats.kernel_flop_count / (kern * t) / 1e9 * t, "%.2f"),
                   fmt(100.0 * stats.phases.get("neighbor query") /
                           stats.phases.total(),
                       "%.1f%%")});
  }
  std::printf("\n");
  table.print();
  std::printf(
      "\nNote: counts beyond the physical-core count of this host exercise\n"
      "SMT, the analog of the paper's hyperthreading points (expect a\n"
      "smaller marginal gain there, as in the paper's ~35%%).\n");
  return 0;
}
