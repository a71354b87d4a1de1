// k-d partitioning invariants (paper §3.2): exactly-once ownership, load
// balance proportional to sub-communicator sizes, domain disjointness, and
// — the crucial one — halo completeness: every rank holds EVERY galaxy
// within R_max of its owned galaxies, owned or decoded from a peer's LET.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <tuple>

#include "dist/partition.hpp"
#include "tree/kdtree.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace d = galactos::dist;
namespace s = galactos::sim;

namespace {

// Round-robin initial scatter (each galaxy to exactly one rank).
s::Catalog scatter_slice(const s::Catalog& full, int rank, int nranks) {
  s::Catalog mine;
  for (std::size_t i = rank; i < full.size();
       i += static_cast<std::size_t>(nranks))
    mine.push_back(full.position(i), full.w[i]);
  return mine;
}

struct PartitionOutputs {
  std::vector<d::PartitionResult> results;
};

PartitionOutputs run_partition(
    const s::Catalog& full, int nranks, double rmax,
    d::PartitionPolicy policy = d::PartitionPolicy::kPrimaryBalanced) {
  PartitionOutputs out;
  out.results.resize(nranks);
  std::mutex mu;
  d::run_ranks(nranks, [&](d::Comm& comm) {
    const s::Catalog mine = scatter_slice(full, comm.rank(), comm.size());
    d::PartitionResult res = d::kd_partition(comm, mine, rmax, policy);
    std::lock_guard<std::mutex> lock(mu);
    out.results[comm.rank()] = std::move(res);
  });
  return out;
}

// Every point a rank holds: its owned galaxies plus the decoded halo.
std::set<std::tuple<double, double, double>> held_points(
    const d::PartitionResult& r) {
  std::set<std::tuple<double, double, double>> present;
  for (const s::Catalog* c : {&r.local, &r.halo})
    for (std::size_t i = 0; i < c->size(); ++i)
      present.insert({c->x[i], c->y[i], c->z[i]});
  return present;
}

// Ownership exactly-once + halo completeness — the invariants every policy
// and every exchange schedule must preserve.
void check_core_invariants(const s::Catalog& full,
                           const std::vector<d::PartitionResult>& results,
                           double rmax) {
  std::map<std::tuple<double, double, double>, int> owner_count;
  for (const auto& r : results)
    for (std::size_t i = 0; i < r.local.size(); ++i)
      owner_count[{r.local.x[i], r.local.y[i], r.local.z[i]}] += 1;
  ASSERT_EQ(owner_count.size(), full.size());
  for (const auto& [k, c] : owner_count) EXPECT_EQ(c, 1);

  for (const auto& r : results) {
    const auto present = held_points(r);
    for (std::size_t i = 0; i < r.local.size(); ++i) {
      const s::Vec3 p = r.local.position(i);
      for (std::size_t j = 0; j < full.size(); ++j) {
        if ((full.position(j) - p).norm2() <= rmax * rmax) {
          EXPECT_TRUE(present.count({full.x[j], full.y[j], full.z[j]}))
              << "missing neighbor";
        }
      }
    }
  }
}

// Key for exact-match identification of galaxies.
std::tuple<double, double, double> key(double x, double y, double z) {
  return {x, y, z};
}

}  // namespace

class PartitionInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PartitionInvariants, OwnershipExactlyOnceAndComplete) {
  const int nranks = GetParam();
  const s::Catalog full = s::uniform_box(4000, s::Aabb::cube(100), 77);
  const double rmax = 15.0;
  const auto out = run_partition(full, nranks, rmax);

  std::map<std::tuple<double, double, double>, int> owner_count;
  for (const auto& r : out.results)
    for (std::size_t i = 0; i < r.local.size(); ++i)
      owner_count[key(r.local.x[i], r.local.y[i], r.local.z[i])] += 1;

  EXPECT_EQ(owner_count.size(), full.size());
  for (const auto& [k, c] : owner_count) EXPECT_EQ(c, 1);
}

TEST_P(PartitionInvariants, OwnedGalaxiesInsideDomain) {
  const int nranks = GetParam();
  const s::Catalog full = s::uniform_box(3000, s::Aabb::cube(80), 78);
  const auto out = run_partition(full, nranks, 10.0);
  for (const auto& r : out.results)
    for (std::size_t i = 0; i < r.local.size(); ++i)
      EXPECT_TRUE(r.domain.contains_closed(r.local.position(i)));
}

TEST_P(PartitionInvariants, LoadBalanceProportional) {
  const int nranks = GetParam();
  const s::Catalog full = s::uniform_box(8000, s::Aabb::cube(100), 79);
  const auto out = run_partition(full, nranks, 8.0);
  // The recursive proportional split guarantees each rank within ~1 galaxy
  // per level of the exact proportional share; allow 1%.
  const double share = static_cast<double>(full.size()) / nranks;
  for (const auto& r : out.results)
    EXPECT_NEAR(static_cast<double>(r.local.size()) / share, 1.0, 0.01)
        << "rank owns " << r.local.size();
}

TEST_P(PartitionInvariants, HaloCompleteness) {
  // For every owned galaxy, every other galaxy of the full catalog within
  // rmax must be present locally (owned or decoded from a peer's LET).
  const int nranks = GetParam();
  const s::Catalog full = s::uniform_box(1500, s::Aabb::cube(60), 80);
  const double rmax = 12.0;
  const auto out = run_partition(full, nranks, rmax);

  for (const auto& r : out.results) {
    const auto present = held_points(r);
    for (std::size_t i = 0; i < r.local.size(); ++i) {
      const s::Vec3 p = r.local.position(i);
      for (std::size_t j = 0; j < full.size(); ++j) {
        const double d2 = (full.position(j) - p).norm2();
        if (d2 <= rmax * rmax) {
          EXPECT_TRUE(present.count(key(full.x[j], full.y[j], full.z[j])))
              << "rank missing neighbor at distance " << std::sqrt(d2);
        }
      }
    }
  }
}

TEST_P(PartitionInvariants, HaloGalaxiesAreNearDomain) {
  // No rank should receive halo galaxies far outside its expanded domain,
  // and none of them is a galaxy the rank owns itself.
  const int nranks = GetParam();
  const s::Catalog full = s::uniform_box(2000, s::Aabb::cube(70), 81);
  const double rmax = 9.0;
  const auto out = run_partition(full, nranks, rmax);
  for (const auto& r : out.results) {
    const s::Aabb expanded = r.domain.expanded(rmax * 1.0000001);
    std::set<std::tuple<double, double, double>> owned;
    for (std::size_t i = 0; i < r.local.size(); ++i)
      owned.insert(key(r.local.x[i], r.local.y[i], r.local.z[i]));
    for (std::size_t i = 0; i < r.halo.size(); ++i) {
      EXPECT_TRUE(expanded.contains_closed(r.halo.position(i)));
      EXPECT_FALSE(owned.count(key(r.halo.x[i], r.halo.y[i], r.halo.z[i])));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, PartitionInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

TEST(Partition, WeightsSurviveExchange) {
  const int nranks = 3;
  s::Catalog full = s::uniform_box(500, s::Aabb::cube(40), 82);
  for (std::size_t i = 0; i < full.size(); ++i)
    full.w[i] = 1.0 + static_cast<double>(i % 7);
  const auto out = run_partition(full, nranks, 6.0);
  // Total owned weight preserved, and every decoded halo copy carries the
  // weight of the galaxy it copies.
  std::map<std::tuple<double, double, double>, double> weight_of;
  for (std::size_t i = 0; i < full.size(); ++i)
    weight_of[key(full.x[i], full.y[i], full.z[i])] = full.w[i];
  double total = 0;
  std::size_t halo_points = 0;
  for (const auto& r : out.results) {
    for (std::size_t i = 0; i < r.local.size(); ++i) total += r.local.w[i];
    for (std::size_t i = 0; i < r.halo.size(); ++i)
      EXPECT_EQ(r.halo.w[i],
                weight_of.at(key(r.halo.x[i], r.halo.y[i], r.halo.z[i])));
    halo_points += r.halo.size();
  }
  EXPECT_NEAR(total, full.total_weight(), 1e-9);
  EXPECT_GT(halo_points, 0u);
}

TEST(Partition, SingleRankKeepsEverything) {
  const s::Catalog full = s::uniform_box(300, s::Aabb::cube(30), 83);
  const auto out = run_partition(full, 1, 5.0);
  EXPECT_EQ(out.results[0].local.size(), full.size());
  EXPECT_EQ(out.results[0].halo.size(), 0u);
  EXPECT_EQ(out.results[0].levels, 0);
}

// --- split-phase halo exchange + partition policies ----------------------

TEST(SplitPhaseHalo, PostThenCompleteMatchesInvariants) {
  // post_halo_exchange must return with only owned points and no halo;
  // completing later (after unrelated work) must decode the halo without
  // touching the owned block and restore every partition invariant.
  const int nranks = 5;
  const double rmax = 10.0;
  const s::Catalog full = s::uniform_box(1600, s::Aabb::cube(60), 84);
  std::vector<d::PartitionResult> results(nranks);
  std::mutex mu;
  d::run_ranks(nranks, [&](d::Comm& comm) {
    const s::Catalog mine = scatter_slice(full, comm.rank(), comm.size());
    d::PendingPartition pend = d::post_halo_exchange(comm, mine, rmax);
    const std::size_t n_owned = pend.result.local.size();
    EXPECT_TRUE(pend.result.halo.empty());
    EXPECT_EQ(pend.peers.size(), static_cast<std::size_t>(nranks - 1));

    // Simulate overlapped work between post and complete.
    double busy = 0;
    for (std::size_t i = 0; i < n_owned; ++i) busy += pend.result.local.x[i];
    (void)busy;

    d::PartitionResult res = d::complete_halo_exchange(pend);
    EXPECT_EQ(res.local.size(), n_owned);  // the halo lands in `halo`
    EXPECT_GT(res.halo.size(), 0u);
    std::lock_guard<std::mutex> lock(mu);
    results[comm.rank()] = std::move(res);
  });
  check_core_invariants(full, results, rmax);
}

class PairWeightedInvariants : public ::testing::TestWithParam<int> {};

TEST_P(PairWeightedInvariants, OwnershipAndHaloSurvive) {
  const int nranks = GetParam();
  const double rmax = 9.0;
  const s::Catalog full = galactos::testing::clumpy_catalog(1200, 60.0, 85);
  const auto out = run_partition(full, nranks, rmax,
                                 d::PartitionPolicy::kPairWeighted);
  check_core_invariants(full, out.results, rmax);
}

INSTANTIATE_TEST_SUITE_P(RankSweep, PairWeightedInvariants,
                         ::testing::Values(2, 3, 5, 8));

TEST(PairWeighted, ImprovesPairBalanceOnClusteredCatalog) {
  // The Fig. 7 story: primary-balanced cuts equalize galaxy counts, so on a
  // clustered catalog the dense rank does far more pair work; pair-weighted
  // cuts must bring max/mean pair counts strictly closer to 1. A dominant
  // clump holding half the galaxies in 1/512 of the volume makes the
  // imbalance pronounced.
  const int nranks = 8;
  const double rmax = 10.0;
  const double side = 80.0;
  s::Catalog full = s::uniform_box(
      2000, s::Aabb{{0, 0, 0}, {side / 8, side / 8, side / 8}}, 86);
  full.append(s::uniform_box(2000, s::Aabb::cube(side), 87));
  galactos::tree::KdTree<double> index(full);

  auto pair_imbalance = [&](d::PartitionPolicy policy) {
    const auto out = run_partition(full, nranks, rmax, policy);
    std::vector<double> pairs;
    for (const auto& r : out.results) {
      double p = 0;
      for (std::size_t i = 0; i < r.local.size(); ++i)
        p += static_cast<double>(index.count_within(
            r.local.x[i], r.local.y[i], r.local.z[i], rmax));
      pairs.push_back(p);
    }
    double mx = 0, sum = 0;
    for (double p : pairs) {
      mx = std::max(mx, p);
      sum += p;
    }
    return mx / (sum / nranks);
  };

  const double balanced = pair_imbalance(d::PartitionPolicy::kPrimaryBalanced);
  const double weighted = pair_imbalance(d::PartitionPolicy::kPairWeighted);
  EXPECT_LT(weighted, balanced);
  EXPECT_GE(weighted, 1.0);
}

// --- distributed_split_point degenerate inputs ---------------------------

TEST(DistributedSplitPoint, AllEqualCoordinates) {
  d::run_ranks(3, [](d::Comm& comm) {
    const std::vector<double> mine(5, 42.0);
    // Degenerate interval: every value sits at one point; the cut must fall
    // back to lo so all values land on the right side (v < cut false).
    const double cut =
        d::distributed_split_point(comm, mine, 42.0, 42.0, 7, 7200);
    EXPECT_DOUBLE_EQ(cut, 42.0);
    for (double v : mine) EXPECT_FALSE(v < cut);
  });
}

TEST(DistributedSplitPoint, EmptyRankContributions) {
  d::run_ranks(4, [](d::Comm& comm) {
    // Only rank 0 holds values; everyone else contributes nothing but must
    // still participate in the reduction.
    std::vector<double> mine;
    if (comm.rank() == 0)
      for (int v = 0; v < 40; ++v) mine.push_back(v);
    const double cut =
        d::distributed_split_point(comm, mine, -1.0, 41.0, 20, 7300);
    std::int64_t below = 0;
    for (double v : mine)
      if (v < cut) ++below;
    EXPECT_EQ(comm.allreduce_sum_value(below, 7301), 20);
  });
}

TEST(DistributedSplitPoint, TargetZeroAndTargetN) {
  d::run_ranks(2, [](d::Comm& comm) {
    std::vector<double> mine;
    for (int v = comm.rank(); v < 30; v += 2) mine.push_back(v);

    const double cut0 =
        d::distributed_split_point(comm, mine, -0.5, 29.5, 0, 7400);
    std::int64_t below = 0;
    for (double v : mine)
      if (v < cut0) ++below;
    EXPECT_EQ(comm.allreduce_sum_value(below, 7401), 0);

    const double cutn =
        d::distributed_split_point(comm, mine, -0.5, 29.5, 30, 7402);
    below = 0;
    for (double v : mine)
      if (v < cutn) ++below;
    EXPECT_EQ(comm.allreduce_sum_value(below, 7403), 30);
  });
}

TEST(DistributedSplitPointWeighted, RespectsWeights) {
  d::run_ranks(2, [](d::Comm& comm) {
    // Values 0..9 on each rank; weight 9 on value 0, weight 1 elsewhere.
    // Half the total weight (18 of 36) sits below any cut in (0, 1].
    std::vector<double> values, weights;
    for (int v = 0; v < 10; ++v) {
      values.push_back(v);
      weights.push_back(v == 0 ? 9.0 : 1.0);
    }
    const double cut = d::distributed_split_point_weighted(
        comm, values, weights, -0.5, 9.5, 18.0, 7500);
    EXPECT_GT(cut, 0.0);
    EXPECT_LE(cut, 1.0);
  });
}

TEST(DistributedSplitPoint, FindsMedian) {
  d::run_ranks(4, [](d::Comm& comm) {
    // Values 0..99 strided across 4 ranks; target 50 => cut ~ 50.
    std::vector<double> mine;
    for (int v = comm.rank(); v < 100; v += 4) mine.push_back(v);
    const double cut =
        d::distributed_split_point(comm, mine, -1.0, 101.0, 50, 7000);
    std::int64_t less = 0;
    for (double v : mine)
      if (v < cut) ++less;
    const auto total = comm.allreduce_sum_value<std::int64_t>(less, 7100);
    EXPECT_EQ(total, 50);
  });
}
