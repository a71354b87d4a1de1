// §3.1 verification: the O(N^2) complexity claim.
//
// Two sweeps:
//  1. Fixed box, growing N: pair count ~ N^2, so time ~ N^2 (the regime
//     where the naive triplet count would be N^3).
//  2. Fixed density (the survey regime, paper Table 1): pairs/primary is
//     constant, so time ~ N.
// Both exponents are fit and printed; the brute-force O(N^3) oracle is
// timed on small N for contrast.
#include <cstdio>

#include "baseline/brute3pcf.hpp"
#include "bench_util.hpp"
#include "math/stats.hpp"

using namespace galactos;
using namespace galactos::bench;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  const int steps = args.get<int>("steps", 4);
  args.finish();

  print_header("Sec. 3.1 verification — complexity scaling");

  // --- fixed box: pairs ~ N^2 and (pair work dominating) time -> N^2.
  // R_max is chosen large enough that the O(N^2) pair kernel dominates the
  // O(N) per-primary bookkeeping even at the smallest N.
  {
    const double side = 120.0;
    const double rmax = 30.0;
    std::vector<double> ns, times, pairs;
    Table t({"N (fixed box)", "pairs", "time (s)"});
    std::size_t n = 12000;
    for (int s = 0; s < steps; ++s, n *= 2) {
      const sim::Catalog cat =
          sim::uniform_box(n, sim::Aabb::cube(side), 10 + s);
      core::EngineConfig cfg = paper_engine_config(rmax, 10, 0);
      core::EngineStats stats;
      Timer timer;
      (void)core::Engine(cfg).run(cat, nullptr, &stats);
      const double el = timer.seconds();
      ns.push_back(static_cast<double>(n));
      times.push_back(el);
      pairs.push_back(static_cast<double>(stats.pairs));
      t.add_row({fmt(static_cast<double>(n), "%.0f"),
                 fmt(static_cast<double>(stats.pairs), "%.3e"),
                 fmt(el, "%.3f")});
    }
    std::printf("\n");
    t.print();
    const auto pfit = math::fit_power_law(ns, pairs);
    print_kv("pair-count exponent (expect 2.00)", fmt(pfit.exponent, "%.2f"));
    const auto fit = math::fit_power_law(ns, times);
    print_kv("time exponent (crossover -> 2)", fmt(fit.exponent, "%.2f"));
    // The O(N) per-primary bookkeeping still matters at the small end of a
    // laptop sweep; the asymptotic slope shows in the last doubling.
    const std::size_t last = times.size() - 1;
    print_kv("last doubling time ratio (-> 4)",
             fmt(times[last] / times[last - 1], "%.2f"));
    print_kv("fit R^2", fmt(fit.r2, "%.3f"));
  }

  // --- fixed density: time ~ N ---
  {
    const double rmax = 14.0;
    std::vector<double> ns, times;
    Table t({"N (fixed density)", "pairs", "time (s)"});
    std::size_t n = 20000;
    for (int s = 0; s < steps; ++s, n *= 2) {
      const sim::Catalog cat = outer_rim_scaled(n, 20 + s);
      core::EngineConfig cfg = paper_engine_config(rmax, 10, 0);
      core::EngineStats stats;
      Timer timer;
      (void)core::Engine(cfg).run(cat, nullptr, &stats);
      const double el = timer.seconds();
      ns.push_back(static_cast<double>(n));
      times.push_back(el);
      t.add_row({fmt(static_cast<double>(n), "%.0f"),
                 fmt(static_cast<double>(stats.pairs), "%.3e"),
                 fmt(el, "%.3f")});
    }
    std::printf("\n");
    t.print();
    const auto fit = math::fit_power_law(ns, times);
    print_kv("fitted exponent (expect ~1)", fmt(fit.exponent, "%.2f"));
    print_kv("fit R^2", fmt(fit.r2, "%.3f"));
  }

  // --- the O(N^3) brute force for contrast ---
  {
    Table t({"N (brute force)", "time (s)", "engine time (s)"});
    for (std::size_t n : {60u, 120u}) {
      const sim::Catalog cat =
          sim::uniform_box(n, sim::Aabb::cube(30.0), 99);
      baseline::OracleConfig ocfg;
      ocfg.bins = core::RadialBins(2.0, 15.0, 5);
      ocfg.lmax = 10;
      Timer tb;
      (void)baseline::brute_force_triplets(cat, ocfg);
      const double brute = tb.seconds();
      core::EngineConfig cfg;
      cfg.bins = ocfg.bins;
      cfg.lmax = 10;
      Timer te;
      (void)core::Engine(cfg).run(cat);
      t.add_row({fmt(static_cast<double>(n), "%.0f"), fmt(brute, "%.3f"),
                 fmt(te.seconds(), "%.3f")});
    }
    std::printf("\n");
    t.print();
    std::printf(
        "\nThe brute-force column doubles ~8x per N doubling (O(N^3));\n"
        "Galactos doubles ~4x in the fixed box (O(N^2)) — the paper's\n"
        "central complexity reduction.\n");
  }
  return 0;
}
