// Figure 7 reproduction: strong scaling.
//
// Paper: the 128-node dataset (28.8M galaxies) run on 128..8192 nodes; 64x
// more nodes gives 27x speedup (994 s -> 37 s). The deviation from ideal is
// attributed to pair-count imbalance: primaries balanced to 0.1% but up to
// 60% variation in primary/secondary pairs at high node counts.
//
// Here: a fixed laptop-scale catalog at Outer Rim density over 1..N ranks,
// reporting speedup, efficiency, and both balance metrics (primaries and
// pairs), which should mirror the paper's story: primaries balanced tightly,
// pairs increasingly imbalanced as domains shrink.
#include <cstdio>

#include "bench_util.hpp"
#include "dist/runner.hpp"
#include "math/stats.hpp"

using namespace galactos;
using namespace galactos::bench;

int main(int argc, char** argv) {
  dist::Session session = dist::init(&argc, &argv);
  BenchArgs args(argc, argv);
  const std::size_t n = args.get<std::size_t>("n", 60000);
  const double rmax = args.get<double>("rmax", 14.0);
  int max_ranks = args.get<int>("max-ranks", 8);
  args.finish();

  // Under mpirun, ranks are real MPI processes: sweep up to the world size
  // (smaller points run on leading sub-communicators), root prints.
  const bool root = session.is_root();
  if (session.backend() == dist::Backend::kMpi)
    max_ranks = std::min(max_ranks, session.size());

  if (root) {
    print_header("Fig. 7 analog — strong scaling (fixed dataset)");
    print_kv("backend", dist::backend_name(session.backend()));
    print_kv("galaxies", fmt(static_cast<double>(n), "%.0f"));
    print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));
    print_kv("paper reference", "64x nodes -> 27x speedup (994s -> 37s)");
  }

  const sim::Catalog cat = outer_rim_scaled(n, 555);

  std::vector<int> rank_counts;
  for (int r = 1; r <= max_ranks; r *= 2) rank_counts.push_back(r);
  if (max_ranks >= 4)
    rank_counts.push_back(max_ranks - 1);  // non-power-of-two point

  Table t({"# ranks", "time (s)", "speedup", "efficiency",
           "primary imbalance", "pair imbalance"});
  double t1 = 0;
  for (int r : rank_counts) {
    dist::DistRunConfig dcfg;
    dcfg.engine = paper_engine_config(rmax, 10, 1);
    dcfg.ranks = r;
    std::vector<dist::RankReport> reports;
    Timer timer;
    (void)dist::run_distributed(session, cat, dcfg, &reports);
    const double elapsed = timer.seconds();
    if (r == 1) t1 = elapsed;

    std::vector<double> owned, pairs;
    for (const auto& rep : reports) {
      owned.push_back(static_cast<double>(rep.owned));
      pairs.push_back(static_cast<double>(rep.pairs));
    }
    const double imb_own =
        (math::max_of(owned) - math::min_of(owned)) / math::mean(owned);
    const double imb_pairs =
        (math::max_of(pairs) - math::min_of(pairs)) / math::mean(pairs);
    t.add_row({fmt(r, "%.0f"), fmt(elapsed, "%.3f"),
               fmt(t1 / elapsed, "%.2fx"),
               fmt(100.0 * t1 / elapsed / r, "%.1f%%"),
               fmt(100.0 * imb_own, "%.2f%%"),
               fmt(100.0 * imb_pairs, "%.1f%%")});
  }
  if (root) {
    std::printf("\n");
    t.print();
    std::printf(
        "\nNote: the paper balances primaries to 0.1%% but sees up to 60%%\n"
        "pair variation when strong-scaling to many small domains; the same\n"
        "divergence between the two imbalance columns should appear here.\n");
  }
  return 0;
}
