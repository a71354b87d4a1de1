// FFT estimator backend: config gates, exact discrete equivalence with the
// tree backend, grid-refinement convergence on a lognormal mock, the
// interlacing aliasing test, and Engine/make_estimator dispatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "core/engine.hpp"
#include "core/estimator.hpp"
#include "core/fft_estimator.hpp"
#include "core/gridder.hpp"
#include "math/fft.hpp"
#include "mocks/lognormal.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace s = galactos::sim;
namespace mocks = galactos::mocks;
using galactos::testing::expect_results_match;

namespace {

c::EngineConfig small_fft_config() {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.7, 6.3, 3);
  cfg.lmax = 4;
  cfg.threads = 3;
  cfg.backend = c::EstimatorBackend::kFFT;
  cfg.fft.grid_n = 16;
  cfg.fft.box_side = 20.0;
  cfg.fft.assignment = c::MassAssignment::kNgp;
  cfg.fft.interlace = false;
  cfg.fft.compensate = false;
  cfg.fft.edge_antialias = false;  // sharp binning: exact on gridded data
  return cfg;
}

// Shared lognormal mock + tree reference for the convergence /
// interlacing / committed-config tests (the tree run is the expensive
// part; compute it once).
struct MockRef {
  s::Catalog cat;
  c::EngineConfig base;  // tree backend; bins/lmax/threads shared
  c::ZetaResult tree;
};

const MockRef& mock_ref() {
  static const MockRef* ref = [] {
    auto* r = new MockRef;
    mocks::LognormalParams mp;
    mp.grid_n = 64;
    mp.box_side = 200.0;
    mp.nbar = 6e-4;
    mp.bias = 1.5;
    mp.seed = 99;
    r->cat = mocks::lognormal_catalog(mp, mocks::BaoPowerSpectrum{}).galaxies;
    r->base.bins = c::RadialBins(55.0, 95.0, 2);
    r->base.lmax = 3;
    r->base.threads = 3;
    r->tree = c::periodic_box_3pcf(r->cat, s::Aabb::cube(200.0), r->base);
    return r;
  }();
  return *ref;
}

// FFT run against the shared mock, returning the gated error vs the tree.
double mock_fft_err(std::size_t grid_n, c::MassAssignment a, bool interlace,
                    bool compensate) {
  const MockRef& r = mock_ref();
  c::EngineConfig cfg = r.base;
  cfg.backend = c::EstimatorBackend::kFFT;
  cfg.fft.grid_n = grid_n;
  cfg.fft.box_side = 200.0;
  cfg.fft.assignment = a;
  cfg.fft.interlace = interlace;
  cfg.fft.compensate = compensate;
  const c::ZetaResult fft = c::Engine(cfg).run(r.cat);
  // 3% gate: the committed accuracy contract covers coefficients carrying
  // at least 3% of the peak signal (below that, the tree value itself is
  // cancellation noise for this statistically isotropic mock).
  return c::max_gated_rel_err(r.tree, fft, 0.03);
}

}  // namespace

TEST(FftEstimator, BackendNamesRoundTrip) {
  EXPECT_STREQ(c::backend_name(c::EstimatorBackend::kTree), "tree");
  EXPECT_STREQ(c::backend_name(c::EstimatorBackend::kFFT), "fft");
  EXPECT_EQ(c::backend_from_name("tree"), c::EstimatorBackend::kTree);
  EXPECT_EQ(c::backend_from_name("fft"), c::EstimatorBackend::kFFT);
  EXPECT_THROW(c::backend_from_name("mesh"), std::logic_error);
}

TEST(FftEstimator, RejectsInvalidConfigs) {
  s::Catalog cat;
  cat.push_back(1.0, 1.0, 1.0);
  const c::EngineConfig good = small_fft_config();
  EXPECT_NO_THROW(c::validate_fft_config(good));

  {  // box_side is required
    c::EngineConfig cfg = good;
    cfg.fft.box_side = 0.0;
    EXPECT_THROW(c::Engine(cfg).run(cat), std::logic_error);
  }
  {  // radial LOS: a convolution has a single global line of sight
    c::EngineConfig cfg = good;
    cfg.los = c::LineOfSight::kRadial;
    EXPECT_THROW(c::Engine(cfg).run(cat), std::logic_error);
  }
  {  // rmax must stay below half the box (minimum image)
    c::EngineConfig cfg = good;
    cfg.bins = c::RadialBins(1.7, 10.0, 3);
    EXPECT_THROW(c::Engine(cfg).run(cat), std::logic_error);
  }
  {  // rmin == 0 would include the zero-lag self cell
    c::EngineConfig cfg = good;
    cfg.bins = c::RadialBins(0.0, 6.3, 3);
    EXPECT_THROW(c::Engine(cfg).run(cat), std::logic_error);
  }
  {  // grid_n must be a power of two
    c::EngineConfig cfg = good;
    cfg.fft.grid_n = 24;
    EXPECT_THROW(c::Engine(cfg).run(cat), std::logic_error);
  }
  {  // self-pair subtraction needs per-pair products the mesh cannot give
    c::EngineConfig cfg = good;
    cfg.subtract_self_pairs = true;
    EXPECT_THROW(c::Engine(cfg).run(cat), std::logic_error);
  }
  {  // make_estimator / FftEstimator validate eagerly, before any catalog
    c::EngineConfig cfg = good;
    cfg.fft.box_side = -5.0;
    EXPECT_THROW(c::make_estimator(cfg), std::logic_error);
    EXPECT_THROW(c::FftEstimator{cfg}, std::logic_error);
  }
}

TEST(FftEstimator, ConstructorRejectsTooManyAntialiasedBins) {
  // The antialiased cell split caps the bin count; construction must reject
  // a larger config rather than the solve throwing midway.
  constexpr int kMax = c::FftBinCells::kMaxAntialiasBins;
  c::EngineConfig cfg = small_fft_config();
  cfg.fft.edge_antialias = true;
  cfg.bins = c::RadialBins(1.7, 6.3, kMax + 1);
  EXPECT_THROW(c::FftEstimator{cfg}, std::logic_error);
  EXPECT_THROW(c::make_estimator(cfg), std::logic_error);
  cfg.bins = c::RadialBins(1.7, 6.3, kMax);
  EXPECT_NO_THROW(c::FftEstimator{cfg});
  cfg.fft.edge_antialias = false;  // sharp binning has no cap
  cfg.bins = c::RadialBins(1.7, 6.3, kMax + 1);
  EXPECT_NO_THROW(c::FftEstimator{cfg});
}

TEST(FftEstimator, BuildIndexIsTreeOnly) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(50, 20.0, 5);
  EXPECT_THROW(c::Engine(small_fft_config()).build_index(cat),
               std::logic_error);
}

TEST(FftEstimator, RejectsOutOfBoxAndDuplicatePrimaries) {
  s::Catalog cat;
  cat.push_back(1.0, 1.0, 1.0);
  cat.push_back(2.0, 2.0, 2.0);
  const c::EngineConfig cfg = small_fft_config();
  {
    std::vector<std::int64_t> bad = {0, 2};
    EXPECT_THROW(c::Engine(cfg).run(cat, &bad), std::logic_error);
  }
  {
    std::vector<std::int64_t> bad = {1, 1};
    EXPECT_THROW(c::Engine(cfg).run(cat, &bad), std::logic_error);
  }
}

// The cornerstone equivalence: on a catalog that already lives at cell
// centers, NGP gridding is lossless, so the FFT backend (no interlacing, no
// compensation) computes EXACTLY the tree backend's discrete pair sum — the
// only difference is FFT round-off.
TEST(FftEstimator, MatchesTreeExactlyOnCellCenterCatalog) {
  const double box = 20.0;
  const std::size_t n = 16;
  const s::Catalog raw = galactos::testing::clumpy_catalog(2000, box, 21);
  std::vector<double> mesh;
  c::assign_to_mesh(raw, c::MassAssignment::kNgp, n, box, 0.0, mesh);
  const s::Catalog cells = c::mesh_to_catalog(mesh, n, box);

  c::EngineConfig tree_cfg;
  tree_cfg.bins = c::RadialBins(1.7, 6.3, 3);
  tree_cfg.lmax = 4;
  tree_cfg.threads = 3;
  const c::ZetaResult tree =
      c::periodic_box_3pcf(cells, s::Aabb::cube(box), tree_cfg);

  c::EngineConfig fft_cfg = small_fft_config();
  const c::ZetaResult fft = c::Engine(fft_cfg).run(cells);

  EXPECT_EQ(fft.n_pairs, 0u);  // documented: the mesh has no discrete count
  expect_results_match(tree, fft, 1e-9, 1e-6);
}

// Primary subsets: zeta sums over primaries, so a partition of the primary
// set must reproduce the full run coefficient by coefficient.
TEST(FftEstimator, PrimarySubsetsAreAdditive) {
  const double box = 20.0;
  const s::Catalog cat = galactos::testing::clumpy_catalog(400, box, 31);
  const c::EngineConfig cfg = small_fft_config();
  const c::Engine engine(cfg);

  std::vector<std::int64_t> evens, odds;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(cat.size()); ++i)
    (i % 2 ? odds : evens).push_back(i);

  const c::ZetaResult full = engine.run(cat);
  const c::ZetaResult a = engine.run(cat, &evens);
  const c::ZetaResult b = engine.run(cat, &odds);

  EXPECT_EQ(a.n_primaries + b.n_primaries, full.n_primaries);
  galactos::testing::expect_close(a.sum_primary_weight + b.sum_primary_weight,
                                  full.sum_primary_weight, 1e-12, 1e-12,
                                  "sum_primary_weight");
  const int nb = cfg.bins.count();
  for (int b1 = 0; b1 < nb; ++b1) {
    galactos::testing::expect_close(a.pair_counts[b1] + b.pair_counts[b1],
                                    full.pair_counts[b1], 1e-10, 1e-8,
                                    "pair_counts");
    for (int l = 0; l <= cfg.lmax; ++l)
      galactos::testing::expect_close(
          a.xi_raw_at(l, b1) + b.xi_raw_at(l, b1), full.xi_raw_at(l, b1),
          1e-10, 1e-8, "xi_raw");
    for (int b2 = b1; b2 < nb; ++b2)
      for (int l = 0; l <= cfg.lmax; ++l)
        for (int lp = 0; lp <= cfg.lmax; ++lp)
          for (int m = 0; m <= std::min(l, lp); ++m) {
            const auto zf = full.zeta_m(b1, b2, l, lp, m);
            const auto zs = a.zeta_m(b1, b2, l, lp, m) +
                            b.zeta_m(b1, b2, l, lp, m);
            galactos::testing::expect_close(zs.real(), zf.real(), 1e-10, 1e-8,
                                            "zeta.re");
            galactos::testing::expect_close(zs.imag(), zf.imag(), 1e-10, 1e-8,
                                            "zeta.im");
          }
  }
}

// Interlacing and the real-field (non-interlaced) code path must agree on
// what they estimate: with a band-limited point set (cell centers), both
// converge to the same answer. Here we just pin determinism: same config,
// two runs, bitwise-equal results.
TEST(FftEstimator, Deterministic) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(500, 20.0, 41);
  c::EngineConfig cfg = small_fft_config();
  cfg.fft.assignment = c::MassAssignment::kTsc;
  cfg.fft.interlace = true;
  cfg.fft.compensate = true;
  const c::Engine engine(cfg);
  const c::ZetaResult r1 = engine.run(cat);
  const c::ZetaResult r2 = engine.run(cat);
  expect_results_match(r1, r2, 0.0, 1e-300);
}

TEST(FftEstimator, EngineDispatchMatchesMakeEstimator) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(300, 20.0, 51);
  {  // FFT backend: Engine::run delegates to the same code path
    const c::EngineConfig cfg = small_fft_config();
    const c::ZetaResult via_engine = c::Engine(cfg).run(cat);
    const c::ZetaResult via_iface = c::make_estimator(cfg)->run(cat);
    expect_results_match(via_engine, via_iface, 0.0, 1e-300);
  }
  {  // Tree backend through the interface is the engine, bit for bit
    c::EngineConfig cfg;
    cfg.bins = c::RadialBins(1.7, 6.3, 3);
    cfg.lmax = 4;
    cfg.threads = 1;
    const c::ZetaResult via_engine = c::Engine(cfg).run(cat);
    const c::ZetaResult via_iface = c::make_estimator(cfg)->run(cat);
    expect_results_match(via_engine, via_iface, 0.0, 1e-300);
  }
}

TEST(FftEstimator, EmptyResultMatchesShape) {
  const c::EngineConfig cfg = small_fft_config();
  const c::ZetaResult z = c::make_estimator(cfg)->empty_result();
  EXPECT_EQ(z.lmax, cfg.lmax);
  EXPECT_EQ(z.bins.count(), cfg.bins.count());
  EXPECT_EQ(z.n_primaries, 0u);
  EXPECT_EQ(z.sum_primary_weight, 0.0);
}

// Grid refinement sweep on a clustered lognormal mock: the gated error vs
// the tree answer must fall monotonically as the mesh refines, with the
// tolerance tightening each refinement, and at the committed configuration
// (grid_n = 128, TSC, interlaced, compensated, edge-antialiased) it must be
// below 1e-3 — the acceptance bar for science use of the backend.
// Measured at the committed mock (seed 99): 2.7e-3 / 6.7e-4 / 2.5e-4.
TEST(FftEstimator, ConvergesMonotonicallyToTreeOnLognormalMock) {
  const double e32 = mock_fft_err(32, c::MassAssignment::kTsc, true, true);
  const double e64 = mock_fft_err(64, c::MassAssignment::kTsc, true, true);
  const double e128 = mock_fft_err(128, c::MassAssignment::kTsc, true, true);
  SCOPED_TRACE("err(32)=" + std::to_string(e32) +
               " err(64)=" + std::to_string(e64) +
               " err(128)=" + std::to_string(e128));
  EXPECT_LT(e64, e32);
  EXPECT_LT(e128, e64);
  EXPECT_LE(e32, 1e-2);
  EXPECT_LE(e64, 2e-3);
  EXPECT_LE(e128, 1e-3);  // committed config
}

// Aliasing control, tested at the level where the theory is exact: the
// density spectrum. For a point set, the mesh spectrum is
//
//   DFT_j = sum_m (-1)^(mx+my+mz) exact(k_j + K_m) W(k_j + K_m),
//
// where exact(k) = sum_p w_p e^{-i k.x_p} is the analytic transform,
// W = the assignment window, K_m = 2 k_Ny m the image offsets, and the
// (-1)^m sign comes from the cell-center lattice offset. The m = 0 term is
// what compensation reconstructs; everything else is aliasing. Interlacing
// (half-cell-shifted second mesh, phased and averaged) cancels every image
// with ODD mx+my+mz — the nearest and largest ones — so the deviation of
// the combined spectrum from the principal term must drop by a large
// factor, deterministically. This also pins the interlace_phase sign
// convention: a wrong sign would corrupt the principal term instead.
TEST(FftEstimator, InterlacingCancelsOddAliasImagesOfTheSpectrum) {
  const double box = 20.0;
  const std::size_t n = 16;
  const auto assignment = c::MassAssignment::kTsc;
  galactos::math::Rng rng(77);
  s::Catalog cat;
  for (int p = 0; p < 50; ++p)
    cat.push_back(rng.uniform(0.0, box), rng.uniform(0.0, box),
                  rng.uniform(0.0, box), 1.0);

  std::vector<double> mesh1, mesh2;
  c::assign_to_mesh(cat, assignment, n, box, 0.0, mesh1);
  c::assign_to_mesh(cat, assignment, n, box, 0.5, mesh2);
  std::vector<std::complex<double>> spec1, spec2;
  galactos::math::fft_r2c_3d(mesh1.data(), 1, n, spec1);
  galactos::math::fft_r2c_3d(mesh2.data(), 1, n, spec2);

  const int order = c::assignment_order(assignment);
  auto sgn = [n](std::size_t j) {
    return static_cast<double>(j <= n / 2 ? static_cast<long long>(j)
                                          : static_cast<long long>(j) -
                                                static_cast<long long>(n));
  };
  // Score only modes below half-Nyquist per axis — the band the estimator's
  // bin kernels actually read (bins span many cells). There the nearest
  // surviving image after interlacing is even and far out in the window's
  // sinc tail, so the error collapse is strongest.
  double err_plain = 0.0, err_inter = 0.0, norm = 0.0;
  for (std::size_t jx = 0; jx < n; ++jx)
    for (std::size_t jy = 0; jy < n; ++jy)
      for (std::size_t jz = 0; jz < n; ++jz) {
        if (std::abs(sgn(jx)) > n / 4.0 || std::abs(sgn(jy)) > n / 4.0 ||
            std::abs(sgn(jz)) > n / 4.0)
          continue;
        const double kx = 2.0 * M_PI * sgn(jx) / box;
        const double ky = 2.0 * M_PI * sgn(jy) / box;
        const double kz = 2.0 * M_PI * sgn(jz) / box;
        std::complex<double> exact(0.0, 0.0);
        for (std::size_t p = 0; p < cat.size(); ++p) {
          const double phase =
              kx * cat.x[p] + ky * cat.y[p] + kz * cat.z[p];
          exact += std::complex<double>(std::cos(phase), -std::sin(phase));
        }
        // Principal (m = 0) term in the mesh-1 convention: window times the
        // half-cell lattice phase (the same factor interlace_phase applies).
        const double win = c::assignment_window_1d(jx, n, order) *
                           c::assignment_window_1d(jy, n, order) *
                           c::assignment_window_1d(jz, n, order);
        const std::complex<double> pred =
            c::interlace_phase(jx, jy, jz, n) * win * exact;
        const std::size_t idx = (jx * n + jy) * n + jz;
        const std::complex<double> combined =
            0.5 * (spec1[idx] +
                   c::interlace_phase(jx, jy, jz, n) * spec2[idx]);
        err_plain += std::norm(spec1[idx] - pred);
        err_inter += std::norm(combined - pred);
        norm += std::norm(pred);
      }
  const double plain = std::sqrt(err_plain / norm);
  const double inter = std::sqrt(err_inter / norm);
  SCOPED_TRACE("plain=" + std::to_string(plain) +
               " interlaced=" + std::to_string(inter));
  EXPECT_LT(inter, 0.2 * plain);  // odd images dominate by far
}
