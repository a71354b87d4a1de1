// Table 1 + Figure 6 reproduction: weak scaling.
//
// Paper Table 1 builds datasets at fixed Outer Rim density (one box per
// node count, 225,000 galaxies per node); Fig. 6 shows end-to-end time to
// solution rising only 9% from 128 to 8192 nodes (64x), with <10%
// variation in per-node pair counts.
//
// Here: "nodes" are minimpi ranks (1 OpenMP thread each, pinned workload
// per rank), per-rank galaxy count fixed, box side from the density — the
// exact Table 1 construction, scaled down. We print the Table 1 analog
// first, then the Fig. 6 time-to-solution column with the pair-count
// imbalance the paper tracks.
#include <cstdio>

#include "bench_util.hpp"
#include "dist/runner.hpp"
#include "math/stats.hpp"

using namespace galactos;
using namespace galactos::bench;

int main(int argc, char** argv) {
  dist::Session session = dist::init(&argc, &argv);
  BenchArgs args(argc, argv);
  const std::size_t per_rank = args.get<std::size_t>("per-rank", 20000);
  const double rmax = args.get<double>("rmax", 14.0);
  int max_ranks = args.get<int>("max-ranks", 8);
  args.finish();

  // Under mpirun, "nodes" are real MPI ranks: the sweep is capped at the
  // world size and only world rank 0 prints.
  const bool root = session.is_root();
  const bool mpi = session.backend() == dist::Backend::kMpi;
  if (mpi) max_ranks = std::min(max_ranks, session.size());

  if (root) {
  print_header("Table 1 analog — weak-scaling dataset family");
  print_kv("backend", dist::backend_name(session.backend()));
  print_kv("per-rank galaxies", fmt(static_cast<double>(per_rank), "%.0f"));
  print_kv("number density (Mpc/h)^-3", fmt(sim::kOuterRimDensity, "%.4f"));
  {
    Table t({"# ranks", "# galaxies", "cubic box length (Mpc/h)"});
    for (int r = 1; r <= max_ranks; r *= 2) {
      const std::size_t n = per_rank * static_cast<std::size_t>(r);
      t.add_row({fmt(r, "%.0f"), fmt(static_cast<double>(n), "%.3e"),
                 fmt(sim::outer_rim_box_side(n), "%.1f")});
    }
    // The paper's full-system row is not a power of two (9636 nodes); our
    // analog: a non-power-of-two rank count, exercising the partitioner's
    // headline feature.
    const int odd = max_ranks + max_ranks / 2 - 1;
    const std::size_t n = per_rank * static_cast<std::size_t>(odd);
    t.add_row({fmt(odd, "%.0f") + " (non-2^k)",
               fmt(static_cast<double>(n), "%.3e"),
               fmt(sim::outer_rim_box_side(n), "%.1f")});
    std::printf("\n");
    t.print();
  }

  print_header("Fig. 6 analog — weak scaling (fixed per-rank load)");
  print_kv("paper reference", "+9% time from 128 -> 8192 nodes (64x)");
  print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));
  }  // if (root)

  Table t({"# ranks", "time (s)", "vs 1 rank", "pair imbalance",
           "max halo/owned"});
  double t1 = 0;
  std::vector<int> rank_counts;
  for (int r = 1; r <= max_ranks; r *= 2) rank_counts.push_back(r);
  // Non-power-of-two point (the paper's 9636-node row) — only when it is a
  // NEW point (max_ranks <= 2 would repeat the last row) and, under MPI,
  // only if the world can host it.
  const int odd_ranks = max_ranks + max_ranks / 2 - 1;
  if (odd_ranks > max_ranks && (!mpi || odd_ranks <= session.size()))
    rank_counts.push_back(odd_ranks);
  for (int r : rank_counts) {
    const std::size_t n = per_rank * static_cast<std::size_t>(r);
    const sim::Catalog cat = outer_rim_scaled(n, 4000 + r);
    dist::DistRunConfig dcfg;
    dcfg.engine = paper_engine_config(rmax, 10, 1);
    dcfg.ranks = r;
    std::vector<dist::RankReport> reports;
    Timer timer;
    (void)dist::run_distributed(session, cat, dcfg, &reports);
    const double elapsed = timer.seconds();
    if (r == 1) t1 = elapsed;

    std::vector<double> pairs, ratio;
    for (const auto& rep : reports) {
      pairs.push_back(static_cast<double>(rep.pairs));
      ratio.push_back(static_cast<double>(rep.held - rep.owned) /
                      static_cast<double>(std::max<std::uint64_t>(rep.owned, 1)));
    }
    const double imb =
        (math::max_of(pairs) - math::min_of(pairs)) / math::mean(pairs);
    t.add_row({fmt(r, "%.0f"), fmt(elapsed, "%.3f"),
               fmt(100.0 * elapsed / t1 - 100.0, "%+.1f%%"),
               fmt(100.0 * imb, "%.1f%%"),
               fmt(math::max_of(ratio), "%.2f")});
  }
  if (root) {
    std::printf("\n");
    t.print();
    std::printf(
        "\nNote: ranks share this machine's memory bandwidth, so the flat\n"
        "weak-scaling curve (paper: +9%% over 64x) appears here as a modest\n"
        "rise; the pair-count imbalance column is the paper's <10%% metric.\n");
  }
  return 0;
}
