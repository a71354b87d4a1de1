// Distributed edge cases beyond the main sweeps:
//   * nranks = 1 must reproduce the single-node engine BITWISE — the
//     degenerate pipeline (identity scatter, zero k-d levels, no halo,
//     identity reduction) may not perturb a single double;
//   * pathologically clustered catalogs (everything in one octant of the
//     nominal volume, plus a dominant clump) must keep every partition
//     invariant — in particular halo completeness must not degrade when
//     domains collapse around the clump and R_max spans many domains.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "dist/partition.hpp"
#include "dist/runner.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace d = galactos::dist;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

c::EngineConfig small_config() {
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 18.0, 3);
  cfg.lmax = 4;
  cfg.threads = 1;
  return cfg;
}

// All galaxies confined to one octant of the nominal cube(side) volume,
// with a dense clump in the corner holding ~2/3 of them.
s::Catalog octant_clustered(std::size_t n, double side, std::uint64_t seed) {
  const std::size_t nclump = 2 * n / 3;
  s::Catalog cat =
      s::uniform_box(nclump, s::Aabb{{0, 0, 0}, {side / 8, side / 8, side / 8}},
                     seed);
  cat.append(s::uniform_box(n - nclump,
                            s::Aabb{{0, 0, 0}, {side / 2, side / 2, side / 2}},
                            seed + 1));
  return cat;
}

std::tuple<double, double, double> key(double x, double y, double z) {
  return {x, y, z};
}

std::vector<d::PartitionResult> partition_all(const s::Catalog& full,
                                              int nranks, double rmax) {
  std::vector<d::PartitionResult> results(nranks);
  std::mutex mu;
  d::run_ranks(nranks, [&](d::Comm& comm) {
    s::Catalog mine;
    for (std::size_t i = comm.rank(); i < full.size();
         i += static_cast<std::size_t>(comm.size()))
      mine.push_back(full.position(i), full.w[i]);
    d::PartitionResult res = d::kd_partition(comm, mine, rmax);
    std::lock_guard<std::mutex> lock(mu);
    results[comm.rank()] = std::move(res);
  });
  return results;
}

}  // namespace

TEST(DistributedVsSingleEdge, OneRankIsBitwiseIdentical) {
  const s::Catalog full = galactos::testing::clumpy_catalog(800, 50.0, 91);
  const c::ZetaResult single = c::Engine(small_config()).run(full);

  d::DistRunConfig dcfg;
  dcfg.engine = small_config();
  dcfg.ranks = 1;
  std::vector<d::RankReport> reports;
  const c::ZetaResult dist = d::run_distributed(full, dcfg, &reports);

  // Zero tolerance: identical primary order, no halo, identity reduction.
  expect_results_match(dist, single, 0.0, 0.0);
  const std::vector<double> pa = dist.reduce_payload();
  const std::vector<double> pb = single.reduce_payload();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].owned, full.size());
  EXPECT_EQ(reports[0].held, full.size());
  EXPECT_EQ(reports[0].levels, 0);
  // One rank has no peer: no LET is built and nothing crosses the wire.
  EXPECT_EQ(reports[0].halo_bytes_sent, 0u);
  EXPECT_EQ(reports[0].halo_bytes_recv, 0u);
  EXPECT_EQ(reports[0].let_cells_sent + reports[0].let_cells_pruned, 0u);
}

class OctantClustered : public ::testing::TestWithParam<int> {};

TEST_P(OctantClustered, HaloCompletenessDoesNotDegrade) {
  const int nranks = GetParam();
  const double side = 80.0;
  const double rmax = 12.0;  // spans several collapsed clump domains
  const s::Catalog full = octant_clustered(1200, side, 92);
  const auto results = partition_all(full, nranks, rmax);

  // Exactly-once ownership survives the degenerate geometry.
  std::map<std::tuple<double, double, double>, int> owner_count;
  for (const auto& r : results)
    for (std::size_t i = 0; i < r.local.size(); ++i)
      owner_count[key(r.local.x[i], r.local.y[i], r.local.z[i])] += 1;
  ASSERT_EQ(owner_count.size(), full.size());
  for (const auto& [k, count] : owner_count) EXPECT_EQ(count, 1);

  // Halo completeness: every neighbor of every owned galaxy is present,
  // owned or decoded from a peer's LET.
  for (const auto& r : results) {
    std::set<std::tuple<double, double, double>> present;
    for (const s::Catalog* c : {&r.local, &r.halo})
      for (std::size_t i = 0; i < c->size(); ++i)
        present.insert(key(c->x[i], c->y[i], c->z[i]));
    for (std::size_t i = 0; i < r.local.size(); ++i) {
      const s::Vec3 p = r.local.position(i);
      for (std::size_t j = 0; j < full.size(); ++j) {
        if ((full.position(j) - p).norm2() > rmax * rmax) continue;
        EXPECT_TRUE(present.count(key(full.x[j], full.y[j], full.z[j])))
            << "rank missing a clump neighbor";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, OctantClustered,
                         ::testing::Values(2, 5, 8));

TEST(DegenerateCatalogs, OneGalaxyManyRanks) {
  // Zero-extent global bounding box: the split interval is degenerate at
  // every level; the cut must fall back gracefully (everything to one
  // side) instead of asserting.
  s::Catalog full;
  full.push_back(3.0, 4.0, 5.0, 2.5);
  c::EngineConfig ecfg;
  ecfg.bins = c::RadialBins(0.5, 2.0, 2);
  ecfg.lmax = 2;
  ecfg.threads = 1;
  d::DistRunConfig dcfg;
  dcfg.engine = ecfg;
  dcfg.ranks = 3;
  std::vector<d::RankReport> reports;
  const c::ZetaResult dist = d::run_distributed(full, dcfg, &reports);
  EXPECT_EQ(dist.n_primaries, 1u);
  EXPECT_EQ(dist.n_pairs, 0u);
  EXPECT_DOUBLE_EQ(dist.sum_primary_weight, 2.5);
  std::uint64_t owned = 0;
  for (const auto& r : reports) owned += r.owned;
  EXPECT_EQ(owned, 1u);
}

TEST(DegenerateCatalogs, CoincidentGalaxiesStayExactlyOnce) {
  // All galaxies at one point: every cut interval is degenerate, yet each
  // copy must still be owned exactly once across ranks.
  s::Catalog full;
  for (int i = 0; i < 10; ++i) full.push_back(1.0, 2.0, 3.0, 1.0);
  const auto results = partition_all(full, 4, 5.0);
  std::size_t owned = 0, held = 0;
  for (const auto& r : results) {
    owned += r.local.size();
    held += r.local.size() + r.halo.size();
  }
  EXPECT_EQ(owned, full.size());
  EXPECT_GE(held, full.size());
}

TEST(OctantClusteredRun, DistributedMatchesSingle) {
  const s::Catalog full = octant_clustered(900, 70.0, 93);
  const c::ZetaResult single = c::Engine(small_config()).run(full);
  d::DistRunConfig dcfg;
  dcfg.engine = small_config();
  dcfg.ranks = 5;
  const c::ZetaResult dist = d::run_distributed(full, dcfg);
  expect_results_match(dist, single, 1e-10, 1e-10);
}

// Two-pass edge ranks. More ranks than galaxies leaves some ranks with
// zero owned points (no staged engine at all — they contribute
// empty_result and skip both passes); a huge R_max relative to rank
// domains makes every leaf halo-adjacent. Both must stay exact under
// every overlap mode and either LET coordinate width (the f32 runs snap
// the catalog to float32, on which the quantized wire is lossless).
class OverlapModeEdges
    : public ::testing::TestWithParam<std::tuple<d::OverlapMode, bool>> {
 protected:
  bool f32() const { return std::get<1>(GetParam()); }
  s::Catalog wire_exact(s::Catalog cat) const {
    if (f32())
      for (std::vector<double>* plane : {&cat.x, &cat.y, &cat.z})
        for (double& v : *plane)
          v = static_cast<double>(static_cast<float>(v));
    return cat;
  }
  d::DistRunConfig dist_config(const c::EngineConfig& ecfg, int ranks) const {
    d::DistRunConfig dcfg;
    dcfg.engine = ecfg;
    dcfg.ranks = ranks;
    dcfg.overlap = std::get<0>(GetParam());
    dcfg.halo.let_f32 = f32();
    return dcfg;
  }
};

TEST_P(OverlapModeEdges, ZeroOwnedRanksStayExact) {
  const s::Catalog full = wire_exact(s::uniform_box(5, s::Aabb::cube(8), 95));
  c::EngineConfig ecfg;
  ecfg.bins = c::RadialBins(0.5, 6.0, 2);
  ecfg.lmax = 2;
  ecfg.threads = 1;
  const c::ZetaResult single = c::Engine(ecfg).run(full);
  const d::DistRunConfig dcfg =
      dist_config(ecfg, 8);  // at least 3 ranks own nothing
  std::vector<d::RankReport> reports;
  const c::ZetaResult dist = d::run_distributed(full, dcfg, &reports);
  expect_results_match(dist, single, 1e-10, 1e-10);
  int empty_ranks = 0;
  for (const auto& r : reports)
    if (r.owned == 0) {
      ++empty_ranks;
      EXPECT_EQ(r.owned_pass_seconds, 0.0);
      EXPECT_EQ(r.secondary_pass_seconds, 0.0);
    }
  EXPECT_GE(empty_ranks, 3);
}

TEST_P(OverlapModeEdges, EmptyHaloRanksStayExact) {
  // Two far-apart clusters, R_max far smaller than their gap: after the
  // 2-way cut neither rank receives any halo copy, so the secondary pass
  // has nothing to do on every rank.
  s::Catalog full = s::uniform_box(300, s::Aabb::cube(20), 96);
  full.append(s::uniform_box(
      300, s::Aabb{{500, 500, 500}, {520, 520, 520}}, 97));
  full = wire_exact(std::move(full));
  c::EngineConfig ecfg;
  ecfg.bins = c::RadialBins(1.0, 10.0, 3);
  ecfg.lmax = 3;
  ecfg.threads = 1;
  const c::ZetaResult single = c::Engine(ecfg).run(full);
  const d::DistRunConfig dcfg = dist_config(ecfg, 2);
  std::vector<d::RankReport> reports;
  const c::ZetaResult dist = d::run_distributed(full, dcfg, &reports);
  expect_results_match(dist, single, 1e-10, 1e-10);
  for (const auto& r : reports) EXPECT_EQ(r.held, r.owned);  // no halo
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, OverlapModeEdges,
    ::testing::Combine(::testing::Values(d::OverlapMode::kSequential,
                                         d::OverlapMode::kTwoPass),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string n = d::overlap_mode_name(std::get<0>(info.param));
      n += std::get<1>(info.param) ? "_f32" : "_f64";
      return n;
    });
