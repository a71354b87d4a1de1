// The multipole kernel: the running-product SIMD kernel against the scalar
// oracle, the bucket/accumulator lifecycle, padding, bucket-size and ILP
// sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/kernel.hpp"
#include "math/rng.hpp"

namespace c = galactos::core;
namespace m = galactos::math;

namespace {

struct PairSet {
  std::vector<double> ux, uy, uz, w;
};

PairSet random_pairs(int n, std::uint64_t seed) {
  m::Rng rng(seed);
  PairSet p;
  for (int i = 0; i < n; ++i) {
    double x, y, z;
    rng.unit_vector(x, y, z);
    p.ux.push_back(x);
    p.uy.push_back(y);
    p.uz.push_back(z);
    p.w.push_back(rng.uniform(0.5, 2.0));
  }
  return p;
}

std::vector<double> reduce_lanes(const std::vector<double>& acc, int nmono) {
  std::vector<double> s(nmono, 0.0);
  for (int t = 0; t < nmono; ++t)
    for (int l = 0; l < c::kLanes; ++l) s[t] += acc[t * c::kLanes + l];
  return s;
}

}  // namespace

class BucketKernelTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // lmax, count

TEST_P(BucketKernelTest, RunningProductMatchesReference) {
  const auto [lmax, count] = GetParam();
  ASSERT_EQ(count % c::kLanes, 0);
  const int nmono = m::monomial_count(lmax);
  const PairSet p = random_pairs(count, 1000 + lmax);

  std::vector<double> ref(nmono, 0.0);
  c::kernel_reference(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(),
                      count, lmax, ref.data());

  for (int ilp : {1, 2, 4}) {
    std::vector<double> acc(static_cast<std::size_t>(nmono) * c::kLanes, 0.0);
    c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                              p.w.data(), count, lmax, acc.data(), ilp);
    const std::vector<double> got = reduce_lanes(acc, nmono);
    for (int t = 0; t < nmono; ++t)
      EXPECT_NEAR(got[t], ref[t], 1e-11 * (1 + std::abs(ref[t])))
          << "lmax=" << lmax << " ilp=" << ilp << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BucketKernelTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 5, 10),
                       ::testing::Values(8, 32, 128, 256)));

TEST(Kernel, FlopsPerPairMatchesPaper) {
  // 286 monomials at lmax=10; the paper quotes 576 FLOP/pair for the
  // multipole kernel (2 FLOPs per monomial).
  EXPECT_EQ(m::monomial_count(10), 286);
  EXPECT_DOUBLE_EQ(c::kernel_flops_per_pair(10), 572.0);
}

TEST(Kernel, ZeroWeightPairsContributeNothing) {
  const int lmax = 6;
  const int nmono = m::monomial_count(lmax);
  PairSet p = random_pairs(64, 3);
  for (int i = 32; i < 64; ++i) p.w[i] = 0.0;
  std::vector<double> ref(nmono, 0.0);
  c::kernel_reference(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(), 32,
                      lmax, ref.data());
  std::vector<double> acc(static_cast<std::size_t>(nmono) * c::kLanes, 0.0);
  c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(),
                            64, lmax, acc.data(), 4);
  const std::vector<double> got = reduce_lanes(acc, nmono);
  for (int t = 0; t < nmono; ++t)
    EXPECT_NEAR(got[t], ref[t], 1e-12 * (1 + std::abs(ref[t])));
}

class AccumulatorTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};
// lmax, bucket_capacity, ilp

TEST_P(AccumulatorTest, MatchesReferenceAcrossBinsAndPrimaries) {
  const auto [lmax, capacity, ilp] = GetParam();
  const int nbins = 5;
  const int nmono = m::monomial_count(lmax);

  c::KernelConfig cfg;
  cfg.lmax = lmax;
  cfg.nbins = nbins;
  cfg.bucket_capacity = capacity;
  cfg.ilp = ilp;
  c::MultipoleAccumulator acc(cfg);

  m::Rng rng(99);
  std::uint64_t expected_pairs = 0;
  for (int primary = 0; primary < 3; ++primary) {
    // Reference sums per bin.
    std::vector<std::vector<double>> ref(nbins,
                                         std::vector<double>(nmono, 0.0));
    std::vector<bool> used(nbins, false);

    acc.start_primary();
    const int npush = 1 + static_cast<int>(rng.uniform_u64(700));
    for (int i = 0; i < npush; ++i) {
      double x, y, z;
      rng.unit_vector(x, y, z);
      const double w = rng.uniform(0.1, 3.0);
      // Leave bin 2 deliberately empty to test the touched flags.
      int bin = static_cast<int>(rng.uniform_u64(nbins - 1));
      if (bin >= 2) ++bin;
      acc.push(bin, x, y, z, w);
      c::kernel_reference(&x, &y, &z, &w, 1, lmax, ref[bin].data());
      used[bin] = true;
      ++expected_pairs;
    }
    acc.finish_primary();

    for (int b = 0; b < nbins; ++b) {
      EXPECT_EQ(acc.bin_touched(b), used[b]) << "bin " << b;
      if (!used[b]) continue;
      const double* S = acc.power_sums(b);
      for (int t = 0; t < nmono; ++t)
        EXPECT_NEAR(S[t], ref[b][t], 1e-11 * (1 + std::abs(ref[b][t])))
            << "primary=" << primary << " bin=" << b << " t=" << t;
    }
  }
  EXPECT_EQ(acc.pairs_processed(), expected_pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AccumulatorTest,
    ::testing::Combine(::testing::Values(4, 10),
                       ::testing::Values(8, 64, 128, 256),
                       ::testing::Values(1, 2, 4)));

TEST(Accumulator, StartPrimaryResetsState) {
  c::KernelConfig cfg;
  cfg.lmax = 2;
  cfg.nbins = 2;
  c::MultipoleAccumulator acc(cfg);
  acc.start_primary();
  acc.push(0, 1, 0, 0, 1.0);
  acc.finish_primary();
  EXPECT_TRUE(acc.bin_touched(0));
  const double s000_first = acc.power_sums(0)[0];
  EXPECT_DOUBLE_EQ(s000_first, 1.0);

  acc.start_primary();
  EXPECT_FALSE(acc.bin_touched(0));
  acc.push(0, 0, 1, 0, 2.0);
  acc.finish_primary();
  EXPECT_DOUBLE_EQ(acc.power_sums(0)[0], 2.0);  // not 3.0: state was reset
}

TEST(Accumulator, RejectsBadConfig) {
  c::KernelConfig cfg;
  cfg.bucket_capacity = 12;  // not a multiple of 8
  EXPECT_THROW(c::MultipoleAccumulator{cfg}, std::logic_error);
  cfg.bucket_capacity = 128;
  cfg.ilp = 3;
  EXPECT_THROW(c::MultipoleAccumulator{cfg}, std::logic_error);
  cfg.ilp = 4;
  cfg.lmax = 99;
  EXPECT_THROW(c::MultipoleAccumulator{cfg}, std::logic_error);
}

TEST(Accumulator, PushBlockMatchesScalarPushBitwise) {
  // push_block chunks through the same bucket with the same flush
  // boundaries as scalar push, so the power sums must agree bitwise — the
  // property the leaf-blocked engine path relies on.
  c::KernelConfig cfg;
  cfg.lmax = 5;
  cfg.nbins = 4;
  cfg.bucket_capacity = 24;  // force mid-block flushes
  c::MultipoleAccumulator scalar(cfg), blocked(cfg);
  const int nmono = m::monomial_count(cfg.lmax);
  m::Rng rng(77);

  const int npairs = 500;
  PairSet p = random_pairs(npairs, 66);
  std::vector<int> bin(npairs);
  for (int i = 0; i < npairs; ++i)
    bin[i] = static_cast<int>(rng.uniform_u64(cfg.nbins));

  scalar.start_primary();
  for (int i = 0; i < npairs; ++i)
    scalar.push(bin[i], p.ux[i], p.uy[i], p.uz[i], p.w[i]);
  scalar.finish_primary();

  // Stable per-bin grouping preserves each bin's pair order.
  blocked.start_primary();
  for (int b = 0; b < cfg.nbins; ++b) {
    std::vector<double> ux, uy, uz, w;
    for (int i = 0; i < npairs; ++i) {
      if (bin[i] != b) continue;
      ux.push_back(p.ux[i]);
      uy.push_back(p.uy[i]);
      uz.push_back(p.uz[i]);
      w.push_back(p.w[i]);
    }
    blocked.push_block(b, ux.data(), uy.data(), uz.data(), w.data(),
                       static_cast<int>(ux.size()));
  }
  blocked.finish_primary();

  EXPECT_EQ(scalar.pairs_processed(), blocked.pairs_processed());
  for (int b = 0; b < cfg.nbins; ++b) {
    ASSERT_EQ(scalar.bin_touched(b), blocked.bin_touched(b));
    if (!scalar.bin_touched(b)) continue;
    for (int t = 0; t < nmono; ++t)
      EXPECT_EQ(scalar.power_sums(b)[t], blocked.power_sums(b)[t])
          << "bin=" << b << " t=" << t;
  }
}

TEST(Accumulator, ManyFlushesExactlyAccumulate) {
  // Push far more pairs than one bucket to force repeated flushes.
  c::KernelConfig cfg;
  cfg.lmax = 3;
  cfg.nbins = 1;
  cfg.bucket_capacity = 8;
  c::MultipoleAccumulator acc(cfg);
  const int nmono = m::monomial_count(3);
  const PairSet p = random_pairs(1000, 55);
  std::vector<double> ref(nmono, 0.0);
  c::kernel_reference(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(), 1000,
                      3, ref.data());
  acc.start_primary();
  for (int i = 0; i < 1000; ++i) acc.push(0, p.ux[i], p.uy[i], p.uz[i], p.w[i]);
  acc.finish_primary();
  for (int t = 0; t < nmono; ++t)
    EXPECT_NEAR(acc.power_sums(0)[t], ref[t], 1e-10 * (1 + std::abs(ref[t])));
}
