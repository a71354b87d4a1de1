// §3.3 ablations: every single-node design choice the paper calls out,
// toggled one at a time against the paper-default configuration.
//
//   pre-binning bucket size k  (paper: 128, sized to the vector registers)
//   ILP stream count           (paper: 4 independent vectors; more hurts)
//   kernel scheme              (running-product vs cache-blocked z-buffer)
//   OpenMP schedule            (paper: dynamic >> static)
//   neighbor index             (k-d tree vs cell grid)
//   tree precision             (mixed vs double; paper: 9% end-to-end)
//   k-d leaf size
//   self-pair correction       (subtract_self_pairs; printed as a ratio)
#include <cstdio>

#include "bench_util.hpp"
#include "util/argparse.hpp"

using namespace galactos;
using namespace galactos::bench;

namespace {

// Best of three runs — the knobs differ by a few percent, below the
// run-to-run noise of a single measurement.
double run_best(const core::EngineConfig& cfg, const sim::Catalog& cat) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    (void)core::Engine(cfg).run(cat);
    best = std::min(best, timer.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  const std::size_t n = args.get<std::size_t>("n", 60000);
  const double rmax = args.get<double>("rmax", 14.0);
  args.finish();

  print_header("Sec. 3.3 ablations — single-node design choices");
  print_kv("galaxies", fmt(static_cast<double>(n), "%.0f"));
  print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));

  const sim::Catalog cat = outer_rim_scaled(n, 2024);
  const core::EngineConfig base = paper_engine_config(rmax, 10, 0);
  const double t_base = run_best(base, cat);
  print_kv("paper-default config time (s)", fmt(t_base, "%.3f"));

  Table t({"knob", "setting", "time (s)", "vs default"});
  auto row = [&](const char* knob, const std::string& setting, double time) {
    t.add_row({knob, setting, fmt(time, "%.3f"),
               fmt(100.0 * (time / t_base - 1.0), "%+.1f%%")});
  };
  row("(default)", "running-product,k=128,ilp=4,dyn,kd,mixed", t_base);

  for (int k : {8, 32, 512, 1024}) {
    core::EngineConfig cfg = base;
    cfg.tree.bucket_capacity = k;
    row("bucket size", "k=" + fmt(k, "%.0f"), run_best(cfg, cat));
  }
  for (int ilp : {1, 2}) {
    core::EngineConfig cfg = base;
    cfg.tree.ilp = ilp;
    row("ILP streams", "ilp=" + fmt(ilp, "%.0f"), run_best(cfg, cat));
  }
  {
    core::EngineConfig cfg = base;
    cfg.tree.scheme = core::KernelScheme::kZBuffered;
    row("kernel scheme", "z-buffered (cache-blocked)", run_best(cfg, cat));
  }
  {
    core::EngineConfig cfg = base;
    cfg.tree.schedule = core::OmpSchedule::kStatic;
    row("omp schedule", "static (paper: dynamic wins)", run_best(cfg, cat));
  }
  {
    core::EngineConfig cfg = base;
    cfg.tree.index = core::NeighborIndex::kCellGrid;
    row("neighbor index", "cell grid (S&E15 gridding)", run_best(cfg, cat));
  }
  {
    core::EngineConfig cfg = base;
    cfg.tree.precision = core::TreePrecision::kDouble;
    row("precision", "all-double (paper: mixed ~9% faster)",
        run_best(cfg, cat));
  }
  for (int leaf : {8, 64, 128}) {
    core::EngineConfig cfg = base;
    cfg.tree.leaf_size = leaf;
    row("kd leaf size", "leaf=" + fmt(leaf, "%.0f"), run_best(cfg, cat));
  }
  double t_self = 0.0;
  {
    core::EngineConfig cfg = base;
    cfg.subtract_self_pairs = true;
    t_self = run_best(cfg, cat);
    row("self-pair corr.", "on (closed-form Legendre moments)", t_self);
  }
  std::printf("\n");
  t.print();
  print_kv("self-pair corr. / default",
           fmt(t_self / t_base, "%.2fx") + " (target <= 3x)");
  return 0;
}
