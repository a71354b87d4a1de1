// perfbench runner: generates one workload from a seed, sets it up, runs a
// closed loop of checked solves and writes the raw samples as JSON (one
// list per metric) for perfbench/run.py to summarize.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --work DIR --out RAW.json [--trace-out SPANS.json]
//
// trace 0 runs untraced solves only (the end-to-end numbers). trace 1 runs
// half the budget untraced and half traced, records spans around every call
// into the library, derives the per-layer metrics from those spans and from
// the counters the calls return, and reports the traced-minus-untraced solve
// time as the tracing overhead.
#include <omp.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/estimator.hpp"
#include "core/kernel.hpp"
#include "dist/comm.hpp"
#include "dist/runner.hpp"
#include "harness.hpp"
#include "io/catalog_io.hpp"
#include "math/fft.hpp"
#include "math/rng.hpp"
#include "mocks/lognormal.hpp"
#include "sim/generators.hpp"
#include "sim/mask.hpp"

using namespace galactos;
using perfbench::JsonObject;
using perfbench::ScopedSpan;
using perfbench::Tracer;

namespace {

// The closed loop runs at least this many solves whatever the time budget,
// so every median has a few samples.
constexpr int kMinSolves = 3;
// Setup (read catalog files + construct the estimator) repetitions; the
// reported setup time is their median.
constexpr int kSetupReps = 101;
// Gate of core::max_gated_rel_err: coefficients below 3% of the largest
// are cancellation-dominated (the repo's FFT accuracy contract).
constexpr double kGate = 3e-2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string out;
  std::string trace_out;
  int threads = 1;
};

// Everything one run measured. Lists hold one value per sample; the
// summarizer takes their medians.
struct Report {
  perfbench::LoopStats untraced;
  perfbench::LoopStats traced;
  std::vector<double> setup_s, read_s;
  double read_bytes = 0.0;
  double flops_per_solve = 0.0;
  std::vector<double> zeta_rel_err;
  std::vector<double> solve_rss_mb;  // peak RSS of each untraced solve
  std::map<std::string, std::vector<double>> layers;
  JsonObject params;

  void layer(const std::string& name, double v) { layers[name].push_back(v); }
  double layer_median(const std::string& name) const {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : perfbench::median(it->second);
  }
};

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return omp_get_num_procs();
}

// Process high-water mark in MB (getrusage).
double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Resets the kernel's resident-set high-water mark (VmHWM) to the current
// RSS, so the next read covers one solve. Best effort: where the kernel
// refuses, VmHWM keeps the process peak.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// VmHWM in MB: the peak RSS since the last reset_peak_rss().
double peak_rss_since_reset_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return process_peak_rss_mb();
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<std::uint64_t>(f.tellg()) : 0;
}

// Reads `paths` with io::read_catalog_binary (one span around all of them)
// and records the read time; returns the catalogs.
std::vector<sim::Catalog> read_catalogs(const std::vector<std::string>& paths,
                                        Tracer* tr, Report& r) {
  std::vector<sim::Catalog> cats;
  ScopedSpan read(tr, "io.read_catalog_binary");
  for (const std::string& p : paths) cats.push_back(io::read_catalog_binary(p));
  r.read_s.push_back(read.stop());
  return cats;
}

// Repeats setup (read the catalog files, construct the estimator) and keeps
// the last catalogs and estimator.
std::unique_ptr<core::Estimator> timed_setup(
    const std::vector<std::string>& paths, const core::EngineConfig& cfg,
    Tracer* tr, Report& r, std::vector<sim::Catalog>& cats) {
  r.read_bytes = 0;
  for (const std::string& p : paths)
    r.read_bytes += static_cast<double>(file_bytes(p));
  std::unique_ptr<core::Estimator> est;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan setup(tr, "setup");
    cats = read_catalogs(paths, tr, r);
    {
      ScopedSpan make(tr, "core.make_estimator");
      est = core::make_estimator(cfg);
    }
    r.setup_s.push_back(setup.stop());
  }
  return est;
}

// Isolated bucket kernel (128 pairs, ilp 4, one thread) at `lmax`: the
// per-core ceiling the in-engine kernel rate is compared against.
void measure_isolated_kernel(int lmax, Tracer* tr, Report& r) {
  constexpr int kBucket = 128;
  math::Rng rng(42);
  std::vector<double> ux(kBucket), uy(kBucket), uz(kBucket), w(kBucket);
  for (int i = 0; i < kBucket; ++i) {
    rng.unit_vector(ux[i], uy[i], uz[i]);
    w[i] = rng.uniform(0.5, 1.5);
  }
  std::vector<double> acc(
      static_cast<std::size_t>(math::monomial_count(lmax)) * core::kLanes,
      0.0);
  auto run = [&](long iters) {
    for (long it = 0; it < iters; ++it)
      core::kernel_running_product(ux.data(), uy.data(), uz.data(), w.data(),
                                   kBucket, lmax, acc.data(), 4);
  };
  run(1000);  // warm up
  long iters = 1000;
  for (;;) {  // calibrate to ~50 ms per sample
    const auto t0 = perfbench::Clock::now();
    run(iters);
    if (perfbench::seconds_since(t0) >= 0.05) break;
    iters *= 2;
  }
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan s(tr, "core.kernel_running_product");
    run(iters);
    r.layer("kernel.isolated_gflops",
            core::kernel_flops_per_pair(lmax) * kBucket *
                static_cast<double>(iters) / s.stop() / 1e9);
  }
}

// Per-solve counters of one single-node engine run.
void engine_layers(const core::EngineStats& st, Report& r) {
  const double kern = st.phases.get("multipole kernel");
  r.layer("tree.neighbor_query_s", st.phases.get("neighbor query"));
  r.layer("tree.candidates_per_pair",
          st.pairs ? static_cast<double>(st.candidates) /
                         static_cast<double>(st.pairs)
                   : 0.0);
  r.layer("kernel.engine_gflops", kern > 0 ? st.kernel_flop_count / kern / 1e9
                                           : 0.0);
  r.layer("zeta.alm_zeta_s", st.phases.get("alm+zeta"));
}

void kernel_counts(std::uint64_t pairs, int lmax, Report& r) {
  r.layer("kernel.pairs", static_cast<double>(pairs));
  r.layer("kernel.flops",
          static_cast<double>(pairs) * core::kernel_flops_per_pair(lmax));
}

// Runs a checked warm-up solve (unless the workload's own reference solve
// already warmed the same path), then the closed loop(s). With a tracer,
// half the budget is untraced and half runs `traced_solve` inside a "solve"
// span.
void run_loops(const Options& o, Report& r, Tracer* tr, bool warm_up,
               const perfbench::SolveFn& solve,
               const perfbench::SolveFn& traced_solve,
               const perfbench::CheckFn& check) {
  if (warm_up) {
    perfbench::LoopStats warm;
    perfbench::closed_loop(0.0, 1, solve, check, warm);
    r.untraced.attempted += warm.attempted;
    r.untraced.failed += warm.failed;
    r.untraced.errors = warm.errors;
  }
  // Untraced solves also record their peak RSS: reset before the solve,
  // read after it (outside the timed interval).
  auto check_rss = [&](const core::ZetaResult& z) {
    r.solve_rss_mb.push_back(peak_rss_since_reset_mb());
    return check(z);
  };
  auto reset = [](int) { reset_peak_rss(); };
  perfbench::closed_loop(tr ? 0.5 * o.seconds : o.seconds, kMinSolves, solve,
                         check_rss, r.untraced, reset);
  if (!tr) return;
  auto traced = [&]() {
    ScopedSpan s(tr, "solve");
    return traced_solve();
  };
  perfbench::closed_loop(0.5 * o.seconds, kMinSolves, traced, check,
                         r.traced, [&](int i) { tr->set_solve(i); });
  tr->set_solve(-1);
}

std::string workfile(const Options& o, const std::string& tag) {
  return o.work_dir + "/" + o.workload + "-" + std::to_string(o.seed) + "-" +
         tag + ".glxcat";
}

// The clustered workloads draw from one fixed lognormal realization (this
// universe seed) and let --seed choose which galaxies are kept: pair counts,
// solve times and the mesh error then differ between seeds by sampling
// noise, not by the cosmic variance of a small box.
constexpr std::uint64_t kUniverseSeed = 1709;

// Keeps exactly `n` galaxies of `c`, drawn without replacement by `seed`,
// in their original order.
sim::Catalog subsample(const sim::Catalog& c, std::size_t n,
                       std::uint64_t seed) {
  if (c.size() < n)
    throw std::runtime_error("subsample: catalog has " +
                             std::to_string(c.size()) + " < " +
                             std::to_string(n) + " galaxies");
  std::vector<std::size_t> idx(c.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  math::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    std::swap(idx[i], idx[i + rng.next_u64() % (idx.size() - i)]);
  idx.resize(n);
  std::sort(idx.begin(), idx.end());
  sim::Catalog out;
  out.reserve(n);
  for (std::size_t i : idx) out.push_back(c.position(i), c.w[i]);
  return out;
}

// ---------------------------------------------------------------------------
// paper_lmax10 — the paper's single-node configuration scaled down: uniform
// galaxies at Outer Rim density, lmax 10, mixed precision. Kernel-bound.
void paper_lmax10(const Options& o, Report& r, Tracer* tr) {
  constexpr std::size_t kN = 60000;
  constexpr double kRmax = 20.0;
  constexpr int kBins = 10, kLmax = 10;
  const double side = sim::outer_rim_box_side(kN);
  r.params.num("n", kN).num("box_side", side).num("rmax", kRmax)
      .num("nbins", kBins).num("lmax", kLmax)
      .str("generator", "sim::uniform_box(seed)").str("precision", "mixed");
  const std::string path = workfile(o, "data");
  io::write_catalog_binary(sim::uniform_box(kN, sim::Aabb::cube(side), o.seed),
                           path);

  core::EngineConfig cfg;
  cfg.bins = core::RadialBins(kRmax / kBins, kRmax, kBins);
  cfg.lmax = kLmax;
  cfg.threads = o.threads;
  cfg.tree.precision = core::TreePrecision::kMixed;

  std::vector<sim::Catalog> cats;
  const auto est = timed_setup({path}, cfg, tr, r, cats);
  const sim::Catalog& cat = cats[0];

  // References, outside the timed region: f64 values, and the pair count of
  // a first mixed-precision solve, which also warms the path (mixed flips
  // knife-edge bin assignments against f64, but must repeat its own count
  // exactly).
  core::EngineConfig cfg64 = cfg;
  cfg64.tree.precision = core::TreePrecision::kDouble;
  const core::ZetaResult ref64 = core::Engine(cfg64).run(cat);
  const std::uint64_t ref_pairs = est->run(cat).n_pairs;
  r.flops_per_solve =
      static_cast<double>(ref_pairs) * core::kernel_flops_per_pair(kLmax);

  auto check = [&](const core::ZetaResult& z) {
    double err = 0.0;
    std::string e = perfbench::check_gated(ref64, z, kGate, 2e-3, &err);
    r.zeta_rel_err.push_back(err);
    if (e.empty()) e = perfbench::check_pairs_equal(z.n_pairs, ref_pairs);
    return e;
  };
  auto solve = [&]() { return est->run(cat); };
  auto traced = [&]() {
    const core::Engine engine(cfg);
    core::Engine::Staged staged;
    {
      ScopedSpan s(tr, "core.Engine::build_index");
      staged = engine.build_index(cat);
      r.layer("tree.index_build_s", s.stop());
    }
    core::EngineStats st;
    core::ZetaResult z;
    {
      ScopedSpan s(tr, "core.Staged::run_indexed");
      z = staged.run_indexed(nullptr, &st);
    }
    engine_layers(st, r);
    kernel_counts(z.n_pairs, kLmax, r);
    return z;
  };
  run_loops(o, r, tr, /*warm_up=*/false, solve, traced, check);
  if (tr) measure_isolated_kernel(kLmax, tr, r);
}

// ---------------------------------------------------------------------------
// dist_let_lowl — clustered lognormal mock through the distributed pipeline
// (4 thread-ranks x 1 thread, LET halos, two-pass overlap, pair-weighted
// cuts) at low lmax, where partition, halo, gather and reduce dominate.
void dist_let_lowl(const Options& o, Report& r, Tracer* tr) {
  constexpr double kBox = 200.0, kNbar = 0.025, kRmax = 16.0;
  constexpr std::size_t kN = 100000;
  constexpr int kBins = 8, kLmax = 3;
  const int ranks = o.threads;
  mocks::LognormalParams mp;
  mp.grid_n = 64;
  mp.box_side = kBox;
  mp.nbar = kNbar;
  mp.bias = 1.5;
  mp.seed = kUniverseSeed;
  r.params.num("n", kN).num("box_side", kBox).num("nbar", kNbar)
      .num("grid_n", 64).num("bias", 1.5).num("rmax", kRmax)
      .num("nbins", kBins).num("lmax", kLmax).num("ranks", ranks)
      .num("threads_per_rank", 1)
      .str("generator", "subsample(lognormal_catalog(BaoPowerSpectrum, "
                        "universe seed), n, seed)")
      .str("precision", "double").str("halo", "let")
      .str("overlap", "two_pass").str("partition", "pair_weighted");
  const std::string path = workfile(o, "data");
  io::write_catalog_binary(
      subsample(mocks::lognormal_catalog(mp, mocks::BaoPowerSpectrum{}).galaxies,
                kN, o.seed),
      path);

  dist::DistRunConfig dcfg;
  dcfg.engine.bins = core::RadialBins(kRmax / kBins, kRmax, kBins);
  dcfg.engine.lmax = kLmax;
  dcfg.engine.threads = 1;
  dcfg.ranks = ranks;
  dcfg.partition = dist::PartitionPolicy::kPairWeighted;
  dcfg.overlap = dist::OverlapMode::kTwoPass;
  dcfg.halo.mode = dist::HaloMode::kLet;

  std::vector<sim::Catalog> cats;
  timed_setup({path}, dcfg.engine, tr, r, cats);
  const sim::Catalog& cat = cats[0];

  // Reference: the single-node engine on all threads, outside the timed
  // region. Its counters stand in for the tree and kernel layers, which the
  // distributed path does not report per phase.
  core::EngineConfig single = dcfg.engine;
  single.threads = o.threads;
  core::EngineStats ref_st;
  core::ZetaResult ref;
  {
    ScopedSpan s(tr, "reference.core.Engine::run");
    ref = core::Engine(single).run(cat, nullptr, &ref_st);
  }
  r.flops_per_solve =
      static_cast<double>(ref.n_pairs) * core::kernel_flops_per_pair(kLmax);

  auto check = [&](const core::ZetaResult& z) {
    double err = 0.0;
    std::string e = perfbench::check_gated(ref, z, kGate, 1e-10, &err);
    r.zeta_rel_err.push_back(err);
    if (e.empty()) e = perfbench::check_pairs_equal(z.n_pairs, ref.n_pairs);
    if (e.empty() && z.n_primaries != ref.n_primaries)
      e = "n_primaries " + std::to_string(z.n_primaries) + " != reference " +
          std::to_string(ref.n_primaries);
    return e;
  };
  auto solve = [&]() { return dist::run_distributed(cat, dcfg); };
  auto traced = [&]() {
    std::vector<dist::RankReport> reps;
    core::ZetaResult z;
    {
      ScopedSpan s(tr, "dist.run_distributed");
      z = dist::run_distributed(cat, dcfg, &reps);
    }
    double part = 0, blocked = 0, blocked_sum = 0, hidden = 0, p1 = 0, p2 = 0,
           red = 0, build = 0, halo = 0, comm = 0, pruned = 0;
    for (const dist::RankReport& rep : reps) {
      part = std::max(part, rep.partition_seconds);
      blocked = std::max(blocked, rep.halo_seconds);
      blocked_sum += rep.halo_seconds;
      p1 = std::max(p1, rep.owned_pass_seconds);
      p2 = std::max(p2, rep.secondary_pass_seconds);
      red = std::max(red, rep.reduce_seconds);
      build = std::max(build, rep.index_build_seconds);
      hidden += rep.halo_hidden_seconds;
      halo += static_cast<double>(rep.halo_bytes_sent);
      pruned += static_cast<double>(rep.let_cells_pruned);
      for (int ph = 0; ph < dist::kPhaseCount; ++ph)
        comm += static_cast<double>(rep.phase_bytes_sent[ph]);
    }
    r.layer("dist.partition_s", part);
    r.layer("dist.halo_blocked_s", blocked);
    r.layer("dist.halo_hidden_frac",
            hidden + blocked_sum > 0 ? hidden / (hidden + blocked_sum) : 0.0);
    r.layer("dist.pass1_s", p1);
    r.layer("dist.pass2_s", p2);
    r.layer("dist.reduce_s", red);
    r.layer("dist.pair_imbalance", reps.empty() ? 0.0 : reps[0].pair_imbalance);
    r.layer("dist.halo_bytes", halo);
    r.layer("dist.comm_bytes", comm);
    r.layer("dist.let_cells_pruned", pruned);
    r.layer("tree.index_build_s", build);
    kernel_counts(z.n_pairs, kLmax, r);
    return z;
  };
  run_loops(o, r, tr, /*warm_up=*/true, solve, traced, check);
  if (tr) {
    engine_layers(ref_st, r);
    measure_isolated_kernel(kLmax, tr, r);
  }
}

// ---------------------------------------------------------------------------
// fft_mesh — the mesh estimator (Slepian & Eisenstein 1506.04746) on a
// periodic lognormal box; checked against the f64 tree backend.
std::size_t fft_transforms(int lmax, int nbins, bool interlace) {
  // Density: one real-input transform per mesh (two with interlacing).
  // Per (l, m <= l, bin): the kernel's forward transform and the field's
  // inverse.
  const std::size_t lm = static_cast<std::size_t>((lmax + 1) * (lmax + 2) / 2);
  return (interlace ? 2 : 1) + 2 * lm * static_cast<std::size_t>(nbins);
}

void fft_mesh(const Options& o, Report& r, Tracer* tr) {
  // 16-wide bins: with 10-wide bins ([56, 96)) the mesh error of single
  // realizations reaches 6.3e-4, above the 5e-4 ceiling.
  constexpr double kBox = 200.0, kNbar = 5e-3, kRmin = 30.0, kRmax = 94.0;
  constexpr std::size_t kN = 20000, kGrid = 128;
  constexpr int kBins = 4, kLmax = 3;
  mocks::LognormalParams mp;
  mp.grid_n = 64;
  mp.box_side = kBox;
  mp.nbar = kNbar;
  mp.bias = 1.5;
  mp.seed = kUniverseSeed;
  r.params.num("n", kN).num("box_side", kBox).num("nbar", kNbar)
      .num("grid_n", 64).num("bias", 1.5).num("rmin", kRmin)
      .num("rmax", kRmax).num("nbins", kBins).num("lmax", kLmax)
      .num("mesh", kGrid).str("assignment", "tsc+interlace")
      .str("generator", "subsample(lognormal_catalog(BaoPowerSpectrum, "
                        "universe seed), n, seed)");
  const std::string path = workfile(o, "data");
  io::write_catalog_binary(
      subsample(mocks::lognormal_catalog(mp, mocks::BaoPowerSpectrum{}).galaxies,
                kN, o.seed),
      path);

  core::EngineConfig cfg;
  cfg.bins = core::RadialBins(kRmin, kRmax, kBins);
  cfg.lmax = kLmax;
  cfg.threads = o.threads;
  cfg.backend = core::EstimatorBackend::kFFT;
  cfg.fft.grid_n = kGrid;
  cfg.fft.assignment = core::MassAssignment::kTsc;
  cfg.fft.interlace = true;
  cfg.fft.box_side = kBox;

  std::vector<sim::Catalog> cats;
  const auto est = timed_setup({path}, cfg, tr, r, cats);
  const sim::Catalog& cat = cats[0];

  core::EngineConfig tree = cfg;
  tree.backend = core::EstimatorBackend::kTree;
  const core::ZetaResult ref =
      core::periodic_box_3pcf(cat, sim::Aabb::cube(kBox), tree);

  const std::size_t transforms = fft_transforms(kLmax, kBins, true);
  const double n3 = static_cast<double>(kGrid * kGrid * kGrid);
  // 5 N log2 N per complex 3-D transform; half that for a real-input one.
  const double flops_complex = 5.0 * n3 * std::log2(n3);
  r.flops_per_solve = flops_complex * static_cast<double>(transforms - 2) +
                      0.5 * flops_complex * 2.0;

  auto check = [&](const core::ZetaResult& z) {
    double err = 0.0;
    const std::string e = perfbench::check_gated(ref, z, kGate, 5e-4, &err);
    r.zeta_rel_err.push_back(err);
    return e;
  };
  auto solve = [&]() { return est->run(cat); };
  auto traced = [&]() {
    core::EngineStats st;
    core::ZetaResult z;
    {
      ScopedSpan s(tr, "core.Estimator::run[fft]");
      z = est->run(cat, nullptr, &st);
    }
    r.layer("fft.gridding_s", st.phases.get("gridding"));
    r.layer("fft.density_fft_s", st.phases.get("density fft"));
    r.layer("fft.kernel_conv_s", st.phases.get("kernel fft + convolution"));
    r.layer("zeta.alm_zeta_s", st.phases.get("interpolate+zeta"));
    return z;
  };
  // No warm-up: every solve allocates and faults in its own meshes, and the
  // reference run has already started the thread pool.
  run_loops(o, r, tr, /*warm_up=*/false, solve, traced, check);
  if (!tr) return;
  std::vector<math::cplx> cube(kGrid * kGrid * kGrid);
  math::Rng rng(o.seed);
  for (math::cplx& c : cube) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan s(tr, "math.fft_3d");
    math::fft_3d(cube, kGrid, rep % 2 ? +1 : -1);
    r.layer("fft.one_transform_s", s.stop());
  }
  r.layer("fft.transforms_computed", static_cast<double>(transforms));
  const double bound =
      static_cast<double>(transforms) * r.layer_median("fft.one_transform_s");
  r.layer("fft.solve_over_transform_bound",
          perfbench::median(r.traced.solve_s) / bound);
}

// ---------------------------------------------------------------------------
// survey_selfpairs — survey_3pcf over masked data and randoms with a radial
// line of sight and self-pair subtraction (negative random weights).
void survey_selfpairs(const Options& o, Report& r, Tracer* tr) {
  constexpr double kBox = 600.0, kNbar = 2.1e-4, kRmin = 5.0, kRmax = 50.0;
  constexpr std::size_t kData = 8000, kRandoms = 16000;
  constexpr int kBins = 8, kLmax = 6;
  mocks::LognormalParams mp;
  mp.grid_n = 64;
  mp.box_side = kBox;
  mp.nbar = kNbar;
  mp.bias = 1.5;
  mp.seed = kUniverseSeed;
  const sim::Vec3 observer{-0.2 * kBox, -0.2 * kBox, -0.2 * kBox};
  sim::ShellSectorMask mask(observer, 0.45 * kBox, 1.35 * kBox, 1.1);
  mask.add_hole(sim::Vec3{0.3, 0.25, 1.0}.normalized(), 0.05);
  mask.add_hole(sim::Vec3{0.5, 0.6, 1.0}.normalized(), 0.04);
  const sim::Catalog data = subsample(
      sim::apply_mask(
          mocks::lognormal_catalog(mp, mocks::BaoPowerSpectrum{}).galaxies,
          mask),
      kData, o.seed);
  const sim::Catalog randoms = sim::random_in_mask(
      kRandoms, sim::Aabb::cube(kBox).expanded(0.6 * kBox), mask, o.seed + 1);
  r.params.num("box_side", kBox).num("nbar", kNbar).num("grid_n", 64)
      .num("bias", 1.5).num("n_data", static_cast<double>(data.size()))
      .num("n_randoms", static_cast<double>(randoms.size()))
      .num("rmin", kRmin).num("rmax", kRmax).num("nbins", kBins)
      .num("lmax", kLmax).str("los", "radial").str("precision", "double")
      .str("mask", "ShellSectorMask(0.45-1.35 box, cap 1.1 rad, 2 holes)")
      .str("generator",
           "subsample(apply_mask(lognormal(universe seed)), n_data, seed); "
           "random_in_mask(n_randoms, seed + 1)");
  const std::string dpath = workfile(o, "data"), rpath = workfile(o, "randoms");
  io::write_catalog_binary(data, dpath);
  io::write_catalog_binary(randoms, rpath);

  core::EngineConfig cfg;
  cfg.bins = core::RadialBins(kRmin, kRmax, kBins);
  cfg.lmax = kLmax;
  cfg.threads = o.threads;
  cfg.los = core::LineOfSight::kRadial;
  cfg.observer = observer;
  cfg.subtract_self_pairs = true;

  std::vector<sim::Catalog> cats;
  timed_setup({dpath, rpath}, cfg, tr, r, cats);
  const sim::Catalog& d = cats[0];
  const sim::Catalog& rnd = cats[1];

  // Reference, outside the timed region: the literal per-primary traversal
  // (Algorithm 1), an independent traversal whose per-primary pair sequences
  // the default leaf-blocked traversal must reproduce.
  core::EngineConfig per_primary = cfg;
  per_primary.tree.traversal = core::TraversalMode::kPerPrimary;
  const core::ZetaResult ref = core::survey_3pcf(d, rnd, per_primary);
  r.flops_per_solve =
      static_cast<double>(ref.n_pairs) * core::kernel_flops_per_pair(kLmax);

  auto check = [&](const core::ZetaResult& z) {
    double err = 0.0;
    std::string e = perfbench::check_gated(ref, z, kGate, 1e-10, &err);
    r.zeta_rel_err.push_back(err);
    if (e.empty()) e = perfbench::check_pairs_equal(z.n_pairs, ref.n_pairs);
    return e;
  };
  auto solve = [&]() { return core::survey_3pcf(d, rnd, cfg); };
  auto traced = [&]() {
    core::EngineStats st;
    core::ZetaResult z;
    {
      ScopedSpan s(tr, "core.survey_3pcf");
      z = core::survey_3pcf(d, rnd, cfg, &st);
    }
    r.layer("tree.index_build_s", st.phases.get("index build"));
    engine_layers(st, r);
    kernel_counts(z.n_pairs, kLmax, r);
    return z;
  };
  run_loops(o, r, tr, /*warm_up=*/true, solve, traced, check);
  if (!tr) return;
  // Self-pair share: the same call without subtraction, as a separate
  // traced sample set.
  core::EngineConfig plain = cfg;
  plain.subtract_self_pairs = false;
  std::vector<double> plain_s;
  const auto t0 = perfbench::Clock::now();
  while (plain_s.size() < kMinSolves ||
         perfbench::seconds_since(t0) < 0.1 * o.seconds) {
    ScopedSpan s(tr, "core.survey_3pcf[no self-pairs]");
    core::survey_3pcf(d, rnd, plain);
    plain_s.push_back(s.stop());
  }
  r.layer("estimator.selfpair_share",
          1.0 - perfbench::median(plain_s) /
                    perfbench::median(r.traced.solve_s));
  measure_isolated_kernel(kLmax, tr, r);
}

// ---------------------------------------------------------------------------

std::string host_json(const Options& o) {
  JsonObject h;
  h.num("nproc", available_cpus())
      .num("threads", o.threads)
      .str("kernel_isa", core::kernel_isa_name(core::kernel_isa()))
      .str("dist_transport",
           std::string(dist::backend_name(dist::Backend::kThreads)) +
               " (in-process thread ranks)")
      .str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE);
  return h.dump();
}

std::string loop_json(const perfbench::LoopStats& s) {
  JsonObject j;
  j.num("attempted", s.attempted)
      .num("failed", s.failed)
      .raw("solve_s", perfbench::json_array(s.solve_s))
      .raw("errors", perfbench::json_array(s.errors));
  return j.dump();
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--work") {
      o.work_dir = v;
    } else if (a == "--out") {
      o.out = v;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      throw std::runtime_error("unknown argument " + a);
    }
  }
  if (!have_workload || !have_seed || o.work_dir.empty() || o.out.empty())
    throw std::runtime_error(
        "usage: perfbench_runner --workload NAME --seed N --seconds S "
        "--trace 0|1 --work DIR --out FILE [--trace-out FILE]");
  o.threads = std::min(4, available_cpus());
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    omp_set_num_threads(o.threads);
    Tracer tracer;
    Tracer* tr = o.trace ? &tracer : nullptr;
    Report r;
    const auto t0 = perfbench::Clock::now();
    if (o.workload == "paper_lmax10") {
      paper_lmax10(o, r, tr);
    } else if (o.workload == "dist_let_lowl") {
      dist_let_lowl(o, r, tr);
    } else if (o.workload == "fft_mesh") {
      fft_mesh(o, r, tr);
    } else if (o.workload == "survey_selfpairs") {
      survey_selfpairs(o, r, tr);
    } else {
      throw std::runtime_error("unknown workload " + o.workload);
    }
    for (double s : r.read_s) {
      r.layer("io.read_catalog_s", s);
      r.layer("io.read_mb_per_s", r.read_bytes / s / 1e6);
    }
    if (tr) {
      const double iso = r.layer_median("kernel.isolated_gflops");
      if (iso > 0)
        r.layer("kernel.engine_over_isolated",
                r.layer_median("kernel.engine_gflops") / (o.threads * iso));
      r.layer("trace.overhead_s", perfbench::median(r.traced.solve_s) -
                                      perfbench::median(r.untraced.solve_s));
    }
    std::string layers = "{";
    for (const auto& [name, values] : r.layers)
      layers += (layers.size() > 1 ? ", " : "") + perfbench::json_string(name) +
                ": " + perfbench::json_array(values);
    layers += "}";

    JsonObject out;
    out.str("workload", o.workload)
        .num("seed", static_cast<double>(o.seed))
        .num("trace", o.trace ? 1 : 0)
        .raw("host", host_json(o))
        .raw("params", r.params.dump())
        .raw("untraced", loop_json(r.untraced))
        .raw("traced", loop_json(r.traced))
        .raw("setup_s", perfbench::json_array(r.setup_s))
        .raw("read_s", perfbench::json_array(r.read_s))
        .num("read_bytes", r.read_bytes)
        .num("flops_per_solve", r.flops_per_solve)
        .raw("zeta_rel_err", perfbench::json_array(r.zeta_rel_err))
        .raw("solve_rss_mb", perfbench::json_array(r.solve_rss_mb))
        .num("process_peak_rss_mb", process_peak_rss_mb())
        .num("wall_s", perfbench::seconds_since(t0))
        .raw("layers", layers);
    std::ofstream(o.out) << out.dump() << "\n";
    if (tr && !o.trace_out.empty()) std::ofstream(o.trace_out) << tracer.json();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
}
