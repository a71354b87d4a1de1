// The decisive correctness tests: the optimized engine against the O(N^3)
// triplet oracle and the independent direct-summation implementation,
// across line-of-sight modes, weights, self-pair handling and lmax.
#include <gtest/gtest.h>

#include "baseline/brute3pcf.hpp"
#include "core/engine.hpp"
#include "sim/generators.hpp"
#include "sim/mask.hpp"
#include "test_helpers.hpp"

namespace b = galactos::baseline;
namespace c = galactos::core;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

c::EngineConfig engine_cfg(const b::OracleConfig& o) {
  c::EngineConfig cfg;
  cfg.bins = o.bins;
  cfg.lmax = o.lmax;
  cfg.los = o.los;
  cfg.observer = o.observer;
  cfg.subtract_self_pairs = !o.include_degenerate;
  cfg.threads = 2;
  return cfg;
}

}  // namespace

struct OracleCase {
  const char* name;
  int n;
  int lmax;
  bool radial;
  bool degenerate;
  std::uint64_t seed;
};

class EngineVsOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(EngineVsOracle, MatchesBruteForceTriplets) {
  const OracleCase& tc = GetParam();
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(2.0, 25.0, 3);
  ocfg.lmax = tc.lmax;
  ocfg.include_degenerate = tc.degenerate;
  if (tc.radial) {
    ocfg.los = c::LineOfSight::kRadial;
    ocfg.observer = {-40.0, -35.0, -50.0};
  }
  const s::Catalog cat = galactos::testing::clumpy_catalog(tc.n, 40.0, tc.seed);

  const c::ZetaResult oracle = b::brute_force_triplets(cat, ocfg);
  const c::ZetaResult engine = c::Engine(engine_cfg(ocfg)).run(cat);
  expect_results_match(engine, oracle, 1e-9, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineVsOracle,
    ::testing::Values(
        OracleCase{"plane_l2", 90, 2, false, true, 101},
        OracleCase{"plane_l4", 90, 4, false, true, 102},
        OracleCase{"plane_l4_self", 90, 4, false, false, 103},
        OracleCase{"radial_l3", 80, 3, true, true, 104},
        OracleCase{"radial_l3_self", 80, 3, true, false, 105},
        OracleCase{"plane_l6", 70, 6, false, true, 106}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return info.param.name;
    });

struct DirectCase {
  const char* name;
  int n;
  int lmax;
  int nbins;
  bool radial;
  bool self;
  c::TreePrecision precision;
  c::KernelScheme scheme;
  c::NeighborIndex index;
  std::uint64_t seed;
};

class EngineVsDirect : public ::testing::TestWithParam<DirectCase> {};

TEST_P(EngineVsDirect, MatchesDirectSummation) {
  const DirectCase& tc = GetParam();
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(1.5, 28.0, tc.nbins);
  ocfg.lmax = tc.lmax;
  ocfg.include_degenerate = !tc.self;
  if (tc.radial) {
    ocfg.los = c::LineOfSight::kRadial;
    ocfg.observer = {-30.0, -30.0, -30.0};
  }
  const s::Catalog cat = galactos::testing::clumpy_catalog(tc.n, 45.0, tc.seed);

  c::EngineConfig ecfg = engine_cfg(ocfg);
  ecfg.tree.precision = tc.precision;
  ecfg.tree.scheme = tc.scheme;
  ecfg.tree.index = tc.index;
  const c::ZetaResult direct = b::direct_summation(cat, ocfg);
  const c::ZetaResult engine = c::Engine(ecfg).run(cat);
  const double tol = tc.precision == c::TreePrecision::kMixed ? 2e-3 : 1e-9;
  if (tc.precision == c::TreePrecision::kMixed) {
    // Mixed mode can flip knife-edge bin assignments; compare only the
    // aggregate: total pairs within one part in 1e3 and isotropic monopole.
    const double rel =
        std::abs(static_cast<double>(engine.n_pairs) -
                 static_cast<double>(direct.n_pairs)) /
        static_cast<double>(direct.n_pairs);
    EXPECT_LT(rel, 1e-3);
    const double a = engine.isotropic(0, 0, tc.nbins - 1);
    const double d = direct.isotropic(0, 0, tc.nbins - 1);
    EXPECT_NEAR(a, d, tol * std::max({1.0, std::abs(a), std::abs(d)}));
  } else {
    expect_results_match(engine, direct, tol, tol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineVsDirect,
    ::testing::Values(
        DirectCase{"plane_l10", 400, 10, 4, false, false,
                   c::TreePrecision::kDouble, c::KernelScheme::kZBuffered,
                   c::NeighborIndex::kKdTree, 201},
        DirectCase{"plane_l10_running", 400, 10, 4, false, false,
                   c::TreePrecision::kDouble, c::KernelScheme::kRunningProduct,
                   c::NeighborIndex::kKdTree, 202},
        DirectCase{"radial_l5", 350, 5, 5, true, false,
                   c::TreePrecision::kDouble, c::KernelScheme::kZBuffered,
                   c::NeighborIndex::kKdTree, 203},
        DirectCase{"grid_l6", 300, 6, 3, false, false,
                   c::TreePrecision::kDouble, c::KernelScheme::kZBuffered,
                   c::NeighborIndex::kCellGrid, 204},
        DirectCase{"self_l4", 300, 4, 4, false, true,
                   c::TreePrecision::kDouble, c::KernelScheme::kZBuffered,
                   c::NeighborIndex::kKdTree, 205},
        DirectCase{"radial_self_l4", 250, 4, 3, true, true,
                   c::TreePrecision::kDouble, c::KernelScheme::kRunningProduct,
                   c::NeighborIndex::kKdTree, 206},
        DirectCase{"mixed_l6", 500, 6, 4, false, false,
                   c::TreePrecision::kMixed, c::KernelScheme::kZBuffered,
                   c::NeighborIndex::kKdTree, 207},
        DirectCase{"plane_l0", 300, 0, 3, false, false,
                   c::TreePrecision::kDouble, c::KernelScheme::kZBuffered,
                   c::NeighborIndex::kKdTree, 208}),
    [](const ::testing::TestParamInfo<DirectCase>& info) {
      return info.param.name;
    });

TEST(OracleConsistency, TripletsAgreeWithDirectSummation) {
  // The two oracles must agree with each other, both with and without
  // degenerate triplets.
  const s::Catalog cat = galactos::testing::clumpy_catalog(70, 30.0, 301);
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(1.0, 20.0, 3);
  ocfg.lmax = 3;
  for (bool degenerate : {true, false}) {
    ocfg.include_degenerate = degenerate;
    const c::ZetaResult a = b::brute_force_triplets(cat, ocfg);
    const c::ZetaResult d = b::direct_summation(cat, ocfg);
    expect_results_match(a, d, 1e-9, 1e-9);
  }
}

TEST(OracleConsistency, DegenerateTermsOnlyAffectDiagonal) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(80, 30.0, 302);
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(1.0, 20.0, 3);
  ocfg.lmax = 3;
  ocfg.include_degenerate = true;
  const c::ZetaResult with = b::brute_force_triplets(cat, ocfg);
  ocfg.include_degenerate = false;
  const c::ZetaResult without = b::brute_force_triplets(cat, ocfg);
  for (int b1 = 0; b1 < 3; ++b1)
    for (int b2 = b1 + 1; b2 < 3; ++b2)
      for (int l = 0; l <= 3; ++l)
        EXPECT_NEAR(std::abs(with.zeta_m(b1, b2, l, l, 0) -
                             without.zeta_m(b1, b2, l, l, 0)),
                    0.0, 1e-12)
            << b1 << "," << b2;
  // And the diagonal must differ (degenerate terms are positive for l=l',
  // m=0 sums over real |Y|^2 ... not strictly, but for l=0 they are).
  EXPECT_GT(std::abs(with.zeta_m(0, 0, 0, 0, 0) -
                     without.zeta_m(0, 0, 0, 0, 0)),
            1e-6);
}

// Survey configuration end to end: radial LOS, lmax 6, a D - R contrast
// catalog (randoms carry negative weights) and self-pair subtraction, for
// both traversal drivers and the two-pass staged path. The staged run is
// checked by splitting the catalog into two owned halves, each seeing the
// other as its halo, and summing the per-half results — the distributed
// reduction on two ranks. Against the oracle the tolerance is the suite's
// 1e-9: on the D - R diagonal, |a|^2 minus the self term cancels to ~1e-11
// relative in any summation order. Two-pass against fused keeps 1e-11.
TEST(EngineVsOracleSurvey, RadialDataMinusRandomsSelfPairs) {
  b::OracleConfig ocfg;
  ocfg.bins = c::RadialBins(2.0, 22.0, 3);
  ocfg.lmax = 6;
  ocfg.los = c::LineOfSight::kRadial;
  ocfg.observer = {-45.0, -30.0, -55.0};
  ocfg.include_degenerate = false;
  const s::Catalog data = galactos::testing::clumpy_catalog(60, 30.0, 121);
  const s::Catalog randoms = s::uniform_box(90, s::Aabb::cube(30.0), 122);
  const s::Catalog cat = s::data_minus_randoms(data, randoms);
  bool has_negative = false;
  for (double w : cat.w) has_negative = has_negative || w < 0.0;
  ASSERT_TRUE(has_negative);

  const c::ZetaResult oracle = b::brute_force_triplets(cat, ocfg);
  c::EngineConfig cfg = engine_cfg(ocfg);
  ASSERT_TRUE(cfg.subtract_self_pairs);
  for (c::TraversalMode traversal :
       {c::TraversalMode::kPerPrimary, c::TraversalMode::kLeafBlocked}) {
    cfg.tree.traversal = traversal;
    cfg.tree.leaf_size = 8;  // enough leaves that leaf-blocked engages
    SCOPED_TRACE(traversal == c::TraversalMode::kPerPrimary ? "per-primary"
                                                            : "leaf-blocked");
    const c::Engine engine(cfg);
    const c::ZetaResult fused = engine.run(cat);
    expect_results_match(fused, oracle, 1e-9, 1e-9);

    s::Catalog left, right;
    for (std::size_t i = 0; i < cat.size(); ++i)
      (cat.x[i] < 15.0 ? left : right)
          .push_back(cat.x[i], cat.y[i], cat.z[i], cat.w[i]);
    ASSERT_FALSE(left.empty());
    ASSERT_FALSE(right.empty());
    c::ZetaResult two_pass = c::ZetaResult::zero_like(ocfg.bins, ocfg.lmax);
    for (const auto& [owned, halo] :
         {std::pair{&left, &right}, std::pair{&right, &left}}) {
      c::Engine::Staged staged = engine.build_index(*owned);
      staged.run_owned_pass();
      staged.extend_with_secondaries(*halo);
      two_pass.accumulate(staged.run_secondary_pass());
    }
    expect_results_match(two_pass, fused, 1e-11, 1e-11);
    expect_results_match(two_pass, oracle, 1e-9, 1e-9);
  }
}
