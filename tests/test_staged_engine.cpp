// Engine staged pipeline (build_index → extend_with_secondaries →
// run_indexed):
//   * with no secondaries the staged path must be BITWISE identical to
//     Engine::run over the same catalog, for every index/precision/
//     traversal combination (it is the same code over the same index);
//   * with halo points indexed as secondaries, the pair set must equal a
//     fused run over the combined catalog restricted to owned primaries —
//     only FP accumulation order may differ (candidate order changes), so
//     results match to tight tolerance and pair counts match exactly.
//
// The sweep also runs three threads under both OpenMP schedules, so the
// two-pass pipeline's per-thread parked partials are exercised with more
// than one slot. A static schedule partitions the work identically run to
// run, so the bitwise contracts hold; a dynamic one may hand a primary to a
// different thread each run, which reassociates the final merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

struct StagedCase {
  c::NeighborIndex index;
  c::TreePrecision precision;
  c::TraversalMode traversal;
  int threads = 1;
  c::OmpSchedule schedule = c::OmpSchedule::kDynamic;
};

// Tolerance for the contracts that are bitwise under a deterministic
// work partition.
double exact_tol(const StagedCase& p) {
  return p.threads == 1 || p.schedule == c::OmpSchedule::kStatic ? 0.0
                                                                  : 1e-11;
}

std::string case_name(const ::testing::TestParamInfo<StagedCase>& info) {
  std::string n;
  n += info.param.index == c::NeighborIndex::kKdTree ? "KdTree" : "CellGrid";
  n += info.param.precision == c::TreePrecision::kDouble ? "Double" : "Mixed";
  n += info.param.traversal == c::TraversalMode::kLeafBlocked ? "LeafBlocked"
                                                              : "PerPrimary";
  if (info.param.threads > 1) {
    n += "T" + std::to_string(info.param.threads);
    n += info.param.schedule == c::OmpSchedule::kStatic ? "Static"
                                                        : "Dynamic";
  }
  return n;
}

c::EngineConfig make_config(const StagedCase& p) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 16.0, 4);
  cfg.lmax = 4;
  cfg.threads = p.threads;
  cfg.tree.schedule = p.schedule;
  cfg.tree.index = p.index;
  cfg.tree.precision = p.precision;
  cfg.tree.traversal = p.traversal;
  return cfg;
}

}  // namespace

class StagedEngine : public ::testing::TestWithParam<StagedCase> {};

TEST_P(StagedEngine, NoSecondariesBitwiseMatchesRun) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog cat = s::uniform_box(900, s::Aabb::cube(50), 61);

  const c::Engine engine(cfg);
  const c::ZetaResult fused = engine.run(cat);

  c::Engine::Staged staged = engine.build_index(cat);
  c::EngineStats stats;
  const c::ZetaResult piped = staged.run_indexed(nullptr, &stats);

  const double tol = exact_tol(GetParam());
  expect_results_match(piped, fused, tol, tol);  // bitwise when static
  EXPECT_EQ(piped.n_pairs, fused.n_pairs);
  EXPECT_GT(stats.pairs, 0u);
}

TEST_P(StagedEngine, SecondariesMatchFusedCombinedRun) {
  const c::EngineConfig cfg = make_config(GetParam());
  // Owned points in the left half of the box, halo in the right half with
  // plenty of cross-boundary pairs inside R_max.
  const s::Catalog owned =
      s::uniform_box(500, s::Aabb{{0, 0, 0}, {25, 50, 50}}, 62);
  const s::Catalog halo =
      s::uniform_box(500, s::Aabb{{25, 0, 0}, {50, 50, 50}}, 63);

  s::Catalog combined = owned;
  combined.append(halo);
  std::vector<std::int64_t> primaries(owned.size());
  std::iota(primaries.begin(), primaries.end(), 0);

  const c::Engine engine(cfg);
  c::EngineStats fused_stats;
  const c::ZetaResult fused = engine.run(combined, &primaries, &fused_stats);

  c::Engine::Staged staged = engine.build_index(owned);
  staged.extend_with_secondaries(halo);
  c::EngineStats staged_stats;
  const c::ZetaResult piped = staged.run_indexed(nullptr, &staged_stats);

  // Identical pair sets (candidate order may differ → FP tolerance).
  EXPECT_EQ(staged_stats.pairs, fused_stats.pairs);
  expect_results_match(piped, fused, 1e-12, 1e-12);
}

TEST_P(StagedEngine, SecondariesNeverActAsPrimaries) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned = s::uniform_box(300, s::Aabb::cube(30), 64);
  const s::Catalog halo = s::uniform_box(400, s::Aabb::cube(30), 65);

  const c::Engine engine(cfg);
  c::Engine::Staged staged = engine.build_index(owned);
  staged.extend_with_secondaries(halo);
  const c::ZetaResult r = staged.run_indexed();
  EXPECT_EQ(r.n_primaries, owned.size());
}

// Two-pass pipeline, no secondaries ever indexed: run_owned_pass +
// run_secondary_pass must reproduce run_indexed (and hence Engine::run)
// BITWISE — pass 2 touches nothing, and the merge runs in the same
// thread-id order.
TEST_P(StagedEngine, TwoPassNoSecondariesBitwiseMatchesRun) {
  const c::EngineConfig cfg = make_config(GetParam());
  const double tol = exact_tol(GetParam());
  const s::Catalog cat = s::uniform_box(900, s::Aabb::cube(50), 61);

  const c::Engine engine(cfg);
  const c::ZetaResult fused = engine.run(cat);

  c::Engine::Staged staged = engine.build_index(cat);
  EXPECT_FALSE(staged.owned_pass_pending());
  c::EngineStats pass1, pass2;
  staged.run_owned_pass(nullptr, &pass1);
  EXPECT_TRUE(staged.owned_pass_pending());
  const c::ZetaResult piped = staged.run_secondary_pass(&pass2);
  EXPECT_FALSE(staged.owned_pass_pending());

  expect_results_match(piped, fused, tol, tol);  // bitwise when static
  EXPECT_EQ(piped.n_pairs, fused.n_pairs);
  EXPECT_GT(pass1.pairs, 0u);
  EXPECT_EQ(pass2.pairs, 0u);  // no secondaries → no new pairs
}

// Two-pass with a genuine halo: the owned pass sees only owned points, the
// secondary pass adds the owned-vs-halo completion. Must agree with the
// fused staged run (union candidates per leaf) to tight tolerance, with
// exactly the same physical pair count split across the passes.
TEST_P(StagedEngine, TwoPassWithSecondariesMatchesRunIndexed) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned =
      s::uniform_box(500, s::Aabb{{0, 0, 0}, {25, 50, 50}}, 62);
  const s::Catalog halo =
      s::uniform_box(500, s::Aabb{{25, 0, 0}, {50, 50, 50}}, 63);

  const c::Engine engine(cfg);
  c::Engine::Staged fused_staged = engine.build_index(owned);
  fused_staged.extend_with_secondaries(halo);
  c::EngineStats fused_stats;
  const c::ZetaResult fused = fused_staged.run_indexed(nullptr, &fused_stats);

  c::Engine::Staged staged = engine.build_index(owned);
  c::EngineStats pass1, pass2;
  staged.run_owned_pass(nullptr, &pass1);
  staged.extend_with_secondaries(halo);
  const c::ZetaResult piped = staged.run_secondary_pass(&pass2);

  EXPECT_EQ(pass1.pairs + pass2.pairs, fused_stats.pairs);
  EXPECT_GT(pass2.pairs, 0u);  // the halo really contributes
  EXPECT_EQ(piped.n_pairs, fused.n_pairs);
  EXPECT_EQ(piped.n_primaries, fused.n_primaries);
  expect_results_match(piped, fused, 1e-11, 1e-11);
}

// Halo points scattered INSIDE the owned volume (no clean boundary): the
// completion term must stay exact even when almost every leaf is affected.
TEST_P(StagedEngine, TwoPassInterleavedHaloMatchesRunIndexed) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned = s::uniform_box(400, s::Aabb::cube(40), 68);
  const s::Catalog halo = s::uniform_box(300, s::Aabb::cube(40), 69);

  const c::Engine engine(cfg);
  c::Engine::Staged fused_staged = engine.build_index(owned);
  fused_staged.extend_with_secondaries(halo);
  const c::ZetaResult fused = fused_staged.run_indexed();

  c::Engine::Staged staged = engine.build_index(owned);
  staged.run_owned_pass();
  staged.extend_with_secondaries(halo);
  const c::ZetaResult piped = staged.run_secondary_pass();

  expect_results_match(piped, fused, 1e-11, 1e-11);
}

// The SecondaryBound hint (runner: "all halo lies outside my domain box")
// lets pass 1 snapshot boundary power sums so pass 2 skips the owned
// kernel re-run — the result must be IDENTICAL to the hint-less two-pass
// (alm_from_power_sums over the same bits is the same arithmetic).
TEST_P(StagedEngine, TwoPassSecondaryBoundHintMatchesNoHint) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned =
      s::uniform_box(500, s::Aabb{{0, 0, 0}, {25, 50, 50}}, 62);
  const s::Catalog halo =
      s::uniform_box(500, s::Aabb{{25, 0, 0}, {50, 50, 50}}, 63);
  const c::Engine engine(cfg);

  c::Engine::Staged plain = engine.build_index(owned);
  plain.run_owned_pass();
  plain.extend_with_secondaries(halo);
  const c::ZetaResult no_hint = plain.run_secondary_pass();

  const c::Engine::SecondaryBound bound{{0, 0, 0}, {25, 50, 50}};
  c::Engine::Staged hinted = engine.build_index(owned);
  hinted.run_owned_pass(nullptr, nullptr, {}, &bound);
  hinted.extend_with_secondaries(halo);
  const c::ZetaResult with_hint = hinted.run_secondary_pass();

  const double tol = exact_tol(GetParam());
  expect_results_match(with_hint, no_hint, tol, tol);  // bitwise when static
  EXPECT_EQ(with_hint.n_pairs, no_hint.n_pairs);
}

// A VIOLATED promise (secondaries inside the bound box) must cost time,
// never correctness: unsnapshotted primaries take the recompute fallback.
TEST_P(StagedEngine, TwoPassViolatedBoundFallsBackExactly) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned = s::uniform_box(400, s::Aabb::cube(40), 68);
  const s::Catalog halo = s::uniform_box(300, s::Aabb::cube(40), 69);
  const c::Engine engine(cfg);

  c::Engine::Staged fused_staged = engine.build_index(owned);
  fused_staged.extend_with_secondaries(halo);
  const c::ZetaResult fused = fused_staged.run_indexed();

  // Promise a huge box (every primary is deep interior → nothing is
  // snapshotted) that every secondary then violates by lying inside it.
  const c::Engine::SecondaryBound bound{{-200, -200, -200}, {200, 200, 200}};
  c::Engine::Staged staged = engine.build_index(owned);
  staged.run_owned_pass(nullptr, nullptr, {}, &bound);
  staged.extend_with_secondaries(halo);
  const c::ZetaResult piped = staged.run_secondary_pass();

  expect_results_match(piped, fused, 1e-11, 1e-11);
}

// A primary subset must restrict both passes identically.
TEST_P(StagedEngine, TwoPassWithPrimarySubset) {
  const c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned =
      s::uniform_box(400, s::Aabb{{0, 0, 0}, {25, 50, 50}}, 71);
  const s::Catalog halo =
      s::uniform_box(400, s::Aabb{{25, 0, 0}, {50, 50, 50}}, 72);
  std::vector<std::int64_t> primaries;
  for (std::size_t i = 0; i < owned.size(); i += 3)
    primaries.push_back(static_cast<std::int64_t>(i));

  const c::Engine engine(cfg);
  c::Engine::Staged fused_staged = engine.build_index(owned);
  fused_staged.extend_with_secondaries(halo);
  const c::ZetaResult fused = fused_staged.run_indexed(&primaries);

  c::Engine::Staged staged = engine.build_index(owned);
  staged.run_owned_pass(&primaries);
  staged.extend_with_secondaries(halo);
  const c::ZetaResult piped = staged.run_secondary_pass();

  EXPECT_EQ(piped.n_primaries, primaries.size());
  expect_results_match(piped, fused, 1e-11, 1e-11);
}

// Radial LOS with the observer exactly on the owned primary nearest the
// halo: both passes must skip it (no LOS direction), and pass 2 must not
// count it again, so n_primaries matches the fused run.
TEST_P(StagedEngine, TwoPassRadialObserverOnPrimaryMatchesFused) {
  c::EngineConfig cfg = make_config(GetParam());
  const s::Catalog owned =
      s::uniform_box(500, s::Aabb{{0, 0, 0}, {25, 50, 50}}, 62);
  const s::Catalog halo =
      s::uniform_box(500, s::Aabb{{25, 0, 0}, {50, 50, 50}}, 63);
  std::size_t at = 0;
  for (std::size_t i = 1; i < owned.size(); ++i)
    if (owned.position(i).x > owned.position(at).x) at = i;
  cfg.los = c::LineOfSight::kRadial;
  cfg.observer = owned.position(at);

  const c::Engine engine(cfg);
  c::Engine::Staged fused_staged = engine.build_index(owned);
  fused_staged.extend_with_secondaries(halo);
  c::EngineStats fused_stats;
  const c::ZetaResult fused = fused_staged.run_indexed(nullptr, &fused_stats);

  c::Engine::Staged staged = engine.build_index(owned);
  c::EngineStats pass1, pass2;
  staged.run_owned_pass(nullptr, &pass1);
  staged.extend_with_secondaries(halo);
  const c::ZetaResult piped = staged.run_secondary_pass(&pass2);

  EXPECT_EQ(fused_stats.primaries_skipped, 1u);
  EXPECT_EQ(pass1.primaries_skipped, 1u);
  EXPECT_EQ(pass2.primaries_skipped, 0u);
  EXPECT_EQ(fused.n_primaries, owned.size() - 1);
  EXPECT_EQ(piped.n_primaries, fused.n_primaries);
  EXPECT_EQ(piped.n_pairs, fused.n_pairs);
  EXPECT_EQ(pass1.pairs + pass2.pairs, fused_stats.pairs);
  expect_results_match(piped, fused, 1e-11, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, StagedEngine,
    ::testing::Values(
        StagedCase{c::NeighborIndex::kKdTree, c::TreePrecision::kDouble,
                   c::TraversalMode::kLeafBlocked},
        StagedCase{c::NeighborIndex::kKdTree, c::TreePrecision::kDouble,
                   c::TraversalMode::kPerPrimary},
        StagedCase{c::NeighborIndex::kKdTree, c::TreePrecision::kMixed,
                   c::TraversalMode::kLeafBlocked},
        StagedCase{c::NeighborIndex::kCellGrid, c::TreePrecision::kDouble,
                   c::TraversalMode::kLeafBlocked},
        StagedCase{c::NeighborIndex::kCellGrid, c::TreePrecision::kMixed,
                   c::TraversalMode::kPerPrimary},
        StagedCase{c::NeighborIndex::kCellGrid, c::TreePrecision::kMixed,
                   c::TraversalMode::kLeafBlocked},
        StagedCase{c::NeighborIndex::kKdTree, c::TreePrecision::kDouble,
                   c::TraversalMode::kLeafBlocked, 3,
                   c::OmpSchedule::kStatic},
        StagedCase{c::NeighborIndex::kKdTree, c::TreePrecision::kMixed,
                   c::TraversalMode::kPerPrimary, 3,
                   c::OmpSchedule::kStatic},
        StagedCase{c::NeighborIndex::kKdTree, c::TreePrecision::kDouble,
                   c::TraversalMode::kLeafBlocked, 3,
                   c::OmpSchedule::kDynamic},
        StagedCase{c::NeighborIndex::kCellGrid, c::TreePrecision::kMixed,
                   c::TraversalMode::kLeafBlocked, 3,
                   c::OmpSchedule::kDynamic},
        StagedCase{c::NeighborIndex::kKdTree, c::TreePrecision::kDouble,
                   c::TraversalMode::kPerPrimary, 3,
                   c::OmpSchedule::kDynamic}),
    case_name);

TEST(StagedEngineApi, EmptyHaloIsNoop) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 2);
  cfg.lmax = 2;
  cfg.threads = 1;
  const s::Catalog cat = s::uniform_box(200, s::Aabb::cube(20), 66);
  const c::Engine engine(cfg);

  c::Engine::Staged staged = engine.build_index(cat);
  staged.extend_with_secondaries(s::Catalog{});
  expect_results_match(staged.run_indexed(), engine.run(cat), 0.0, 0.0);
}

TEST(StagedEngineApi, MisuseThrows) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 2);
  cfg.lmax = 2;
  cfg.threads = 1;
  const s::Catalog cat = s::uniform_box(100, s::Aabb::cube(15), 67);
  const s::Catalog halo = s::uniform_box(50, s::Aabb::cube(15), 68);
  const c::Engine engine(cfg);

  c::Engine::Staged empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.run_indexed(), std::logic_error);
  EXPECT_THROW(empty.extend_with_secondaries(halo), std::logic_error);
  EXPECT_THROW(engine.build_index(s::Catalog{}), std::logic_error);

  c::Engine::Staged staged = engine.build_index(cat);
  staged.extend_with_secondaries(halo);
  EXPECT_THROW(staged.extend_with_secondaries(halo), std::logic_error);

  // Primaries must index the OWNED catalog only.
  std::vector<std::int64_t> bad{static_cast<std::int64_t>(cat.size())};
  EXPECT_THROW(staged.run_indexed(&bad), std::logic_error);
}

TEST(StagedEngineApi, TwoPassMisuseThrows) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 2);
  cfg.lmax = 2;
  cfg.threads = 1;
  const s::Catalog cat = s::uniform_box(100, s::Aabb::cube(15), 73);
  const c::Engine engine(cfg);

  c::Engine::Staged empty;
  EXPECT_THROW(empty.run_owned_pass(), std::logic_error);
  EXPECT_THROW(empty.run_secondary_pass(), std::logic_error);

  c::Engine::Staged staged = engine.build_index(cat);
  // Secondary pass before any owned pass.
  EXPECT_THROW(staged.run_secondary_pass(), std::logic_error);
  staged.run_owned_pass();
  // Owned pass twice without completing; fused run mid-pipeline.
  EXPECT_THROW(staged.run_owned_pass(), std::logic_error);
  EXPECT_THROW(staged.run_indexed(), std::logic_error);
  (void)staged.run_secondary_pass();
  // The parked state was consumed: a fresh round is legal again.
  staged.run_owned_pass();
  (void)staged.run_secondary_pass();
}

// The owned pass invokes the caller's poll hook between leaf batches — the
// distributed runner uses it to progress outstanding halo receives.
TEST(StagedEngineApi, OwnedPassInvokesPollHook) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 10.0, 3);
  cfg.lmax = 2;
  cfg.threads = 1;
  cfg.tree.leaf_size = 8;  // plenty of leaves so the stride fires repeatedly
  const s::Catalog cat = s::uniform_box(3000, s::Aabb::cube(60), 74);
  const c::Engine engine(cfg);

  c::Engine::Staged staged = engine.build_index(cat);
  int polls = 0;
  staged.run_owned_pass(nullptr, nullptr, [&polls] { ++polls; });
  EXPECT_GT(polls, 0);

  const c::ZetaResult piped = staged.run_secondary_pass();
  expect_results_match(piped, engine.run(cat), 0.0, 0.0);  // still bitwise
}

// The self-pair correction splits additively across the passes: owned
// self terms in pass 1, halo self terms in pass 2.
TEST(StagedEngineApi, TwoPassSubtractSelfPairsMatchesFused) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 10.0, 3);
  cfg.lmax = 3;
  cfg.threads = 1;
  cfg.subtract_self_pairs = true;
  const s::Catalog owned =
      s::uniform_box(250, s::Aabb{{0, 0, 0}, {15, 30, 30}}, 75);
  const s::Catalog halo =
      s::uniform_box(250, s::Aabb{{15, 0, 0}, {30, 30, 30}}, 76);
  const c::Engine engine(cfg);

  c::Engine::Staged fused_staged = engine.build_index(owned);
  fused_staged.extend_with_secondaries(halo);
  const c::ZetaResult fused = fused_staged.run_indexed();

  c::Engine::Staged staged = engine.build_index(owned);
  staged.run_owned_pass();
  staged.extend_with_secondaries(halo);
  const c::ZetaResult piped = staged.run_secondary_pass();

  expect_results_match(piped, fused, 1e-11, 1e-11);
}

// extend_with_secondaries(empty) between the passes is a no-op and the
// two-pass result stays bitwise equal to the fused no-secondary run.
TEST(StagedEngineApi, TwoPassEmptyHaloIsBitwiseNoop) {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(1.0, 8.0, 2);
  cfg.lmax = 2;
  cfg.threads = 1;
  const s::Catalog cat = s::uniform_box(200, s::Aabb::cube(20), 66);
  const c::Engine engine(cfg);

  c::Engine::Staged staged = engine.build_index(cat);
  staged.run_owned_pass();
  staged.extend_with_secondaries(s::Catalog{});
  expect_results_match(staged.run_secondary_pass(), engine.run(cat), 0.0,
                       0.0);
}
