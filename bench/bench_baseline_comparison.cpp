// §2.3 reproduction: Galactos vs the state-of-the-art isotropic Legendre
// algorithm (Slepian & Eisenstein 2015).
//
// Paper: the isotropic code ran 642,619 galaxies in 170 s on a 6-core
// i7-3930K (kernel ~30% of peak); Galactos computes a strictly richer
// statistic (all anisotropic coefficients, of which the isotropic zeta_l
// are a projection) in O(N^2) as well. The quantitative comparison "should
// serve only as a guide" (paper's words) — the interesting checks are that
// (a) both are O(N^2) with similar constants, and (b) Galactos' isotropic
// projection equals the baseline's output (verified in the test suite).
#include <cstdio>

#include "baseline/legendre_iso.hpp"
#include "bench_util.hpp"

using namespace galactos;
using namespace galactos::bench;

int main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  const std::size_t n = args.get<std::size_t>("n", 60000);
  const double rmax = args.get<double>("rmax", 14.0);
  args.finish();

  print_header("Sec. 2.3 analog — Galactos vs isotropic Legendre baseline");
  print_kv("galaxies", fmt(static_cast<double>(n), "%.0f"));
  print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));
  print_kv("paper baseline", "642,619 galaxies in 170 s on 6-core i7");

  const sim::Catalog cat = outer_rim_scaled(n, 31);

  // Isotropic Legendre (per-pair Y_lm recurrences, cell-grid index).
  baseline::LegendreIsoConfig icfg;
  icfg.bins = core::RadialBins(rmax / 10.0, rmax, 10);
  icfg.lmax = 10;
  const baseline::LegendreIsoResult iso =
      baseline::legendre_isotropic_3pcf(cat, icfg);

  // Galactos engine (full anisotropic statistic).
  core::EngineConfig ecfg = paper_engine_config(rmax, 10, 0);
  core::EngineStats stats;
  Timer timer;
  const core::ZetaResult aniso = core::Engine(ecfg).run(cat, nullptr, &stats);
  const double galactos_time = timer.seconds();

  Table t({"algorithm", "statistic", "time (s)", "pairs", "us/pair"});
  t.add_row({"Legendre isotropic (S&E15)", "zeta_l(r1,r2)",
             fmt(iso.wall_seconds, "%.3f"),
             fmt(static_cast<double>(iso.n_pairs), "%.3e"),
             fmt(1e6 * iso.wall_seconds / static_cast<double>(iso.n_pairs),
                 "%.4f")});
  t.add_row({"Galactos (anisotropic)", "zeta^m_ll'(r1,r2)",
             fmt(galactos_time, "%.3f"),
             fmt(static_cast<double>(stats.pairs), "%.3e"),
             fmt(1e6 * galactos_time / static_cast<double>(stats.pairs),
                 "%.4f")});
  std::printf("\n");
  t.print();

  // Consistency spot check (full check is in the test suite).
  const double a = aniso.isotropic(2, 2, 7);
  const double i = iso.zeta_l(2, 2, 7);
  print_kv("isotropic projection check",
           "zeta_2(b2,b7): galactos=" + fmt(a, "%.6e") +
               " baseline=" + fmt(i, "%.6e"));
  std::printf(
      "\nNote: Galactos computes 506 anisotropic coefficients per bin pair\n"
      "versus 11 isotropic multipoles, at comparable per-pair cost — the\n"
      "power-sum kernel is why (Eq. 1: one 286-term sweep serves all of\n"
      "them). This is the paper's core algorithmic claim.\n");
  return 0;
}
