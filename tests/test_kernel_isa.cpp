// Runtime kernel-ISA dispatch: the GALACTOS_KERNEL_ISA env contract, the
// set_kernel_isa override, and the cross-ISA equivalence matrix — every
// compiled+supported level must produce BITWISE identical power sums (the
// per-lane operation sequence is the same at every level) and bitwise
// identical engine results, over ragged bucket tails and zero-weight pads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/kernel.hpp"
#include "math/rng.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"

namespace c = galactos::core;
namespace m = galactos::math;
namespace s = galactos::sim;
using galactos::testing::expect_results_match;

namespace {

// Restores a clean dispatch state (no env override, auto level) no matter
// how the test body exits.
struct IsaGuard {
  IsaGuard() { unsetenv("GALACTOS_KERNEL_ISA"); }
  ~IsaGuard() {
    unsetenv("GALACTOS_KERNEL_ISA");
    c::set_kernel_isa(c::KernelIsa::kAuto);
  }
};

std::vector<c::KernelIsa> supported_levels() {
  std::vector<c::KernelIsa> out;
  for (c::KernelIsa isa :
       {c::KernelIsa::kScalar, c::KernelIsa::kAvx2, c::KernelIsa::kAvx512})
    if (c::kernel_isa_supported(isa)) out.push_back(isa);
  return out;
}

struct PairSet {
  std::vector<double> ux, uy, uz, w;
};

// `nzero` of the `n` points get exactly zero weight (like pad entries).
PairSet random_pairs(int n, int nzero, std::uint64_t seed) {
  m::Rng rng(seed);
  PairSet p;
  for (int i = 0; i < n; ++i) {
    double x, y, z;
    rng.unit_vector(x, y, z);
    p.ux.push_back(x);
    p.uy.push_back(y);
    p.uz.push_back(z);
    p.w.push_back(i % std::max(1, n / std::max(1, nzero)) == 0 && nzero > 0
                      ? 0.0
                      : rng.uniform(0.5, 2.0));
  }
  return p;
}

// One primary's power sums for every bin, computed at the given ISA level.
// Points round-robin over bins so buckets end with ragged tails.
std::vector<double> sums_at(c::KernelIsa isa, const c::KernelConfig& cfg,
                            const PairSet& p) {
  c::set_kernel_isa(isa);
  c::MultipoleAccumulator acc(cfg);
  acc.start_primary();
  const int n = static_cast<int>(p.w.size());
  for (int i = 0; i < n; ++i)
    acc.push(i % cfg.nbins, p.ux[i], p.uy[i], p.uz[i], p.w[i]);
  acc.finish_primary();
  std::vector<double> out;
  for (int b = 0; b < cfg.nbins; ++b) {
    const double* s = acc.power_sums(b);
    out.insert(out.end(), s, s + acc.n_mono());
  }
  return out;
}

}  // namespace

// --- Env / parse contract ---------------------------------------------------

TEST(KernelIsaEnv, ParseAcceptsTheFourSpellings) {
  EXPECT_EQ(c::parse_kernel_isa("scalar"), c::KernelIsa::kScalar);
  EXPECT_EQ(c::parse_kernel_isa("avx2"), c::KernelIsa::kAvx2);
  EXPECT_EQ(c::parse_kernel_isa("avx512"), c::KernelIsa::kAvx512);
  EXPECT_EQ(c::parse_kernel_isa("auto"), c::KernelIsa::kAuto);
}

TEST(KernelIsaEnv, ParseRejectsAnythingElseWithClearMessage) {
  for (const char* bad : {"sse2", "AVX2", "scalar ", "", "avx-512"}) {
    try {
      c::parse_kernel_isa(bad);
      FAIL() << "expected std::logic_error for '" << bad << "'";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("valid values"), std::string::npos)
          << e.what();
    }
  }
}

TEST(KernelIsaEnv, UnsetOrEmptyMeansAuto) {
  IsaGuard guard;
  unsetenv("GALACTOS_KERNEL_ISA");
  EXPECT_EQ(c::kernel_isa_from_env(), c::KernelIsa::kAuto);
  setenv("GALACTOS_KERNEL_ISA", "", 1);
  EXPECT_EQ(c::kernel_isa_from_env(), c::KernelIsa::kAuto);
}

TEST(KernelIsaEnv, SetValueIsParsed) {
  IsaGuard guard;
  setenv("GALACTOS_KERNEL_ISA", "scalar", 1);
  EXPECT_EQ(c::kernel_isa_from_env(), c::KernelIsa::kScalar);
  setenv("GALACTOS_KERNEL_ISA", "bogus", 1);
  EXPECT_THROW(c::kernel_isa_from_env(), std::logic_error);
}

// --- Dispatch state ---------------------------------------------------------

TEST(KernelIsaDispatch, DetectNeverReturnsAutoAndIsSupported) {
  const c::KernelIsa best = c::kernel_isa_detect();
  EXPECT_NE(best, c::KernelIsa::kAuto);
  EXPECT_TRUE(c::kernel_isa_supported(best));
}

TEST(KernelIsaDispatch, ScalarAlwaysCompiledAndSupported) {
  EXPECT_TRUE(c::kernel_isa_compiled(c::KernelIsa::kScalar));
  EXPECT_TRUE(c::kernel_isa_supported(c::KernelIsa::kScalar));
}

TEST(KernelIsaDispatch, SetOverridesAndAutoRedetects) {
  IsaGuard guard;
  for (c::KernelIsa isa : supported_levels()) {
    c::set_kernel_isa(isa);
    EXPECT_EQ(c::kernel_isa(), isa);
  }
  c::set_kernel_isa(c::KernelIsa::kAuto);
  EXPECT_EQ(c::kernel_isa(), c::kernel_isa_detect());
}

TEST(KernelIsaDispatch, SetRejectsUnsupportedLevel) {
  IsaGuard guard;
  for (c::KernelIsa isa : {c::KernelIsa::kAvx2, c::KernelIsa::kAvx512}) {
    if (c::kernel_isa_supported(isa)) continue;
    EXPECT_THROW(c::set_kernel_isa(isa), std::logic_error);
  }
  // Always at least one unsupported-by-construction probe: name round-trip.
  EXPECT_STREQ(c::kernel_isa_name(c::KernelIsa::kAvx512), "avx512");
}

// --- Cross-ISA equivalence matrix ------------------------------------------

// lmax 1..10 x ragged tails x zero weights: every supported level must
// reproduce the scalar kernel's power sums BITWISE (same per-lane IEEE
// operation sequence at every level).
TEST(KernelIsaEquivalence, PowerSumsBitwiseAcrossLevelsLmaxSweep) {
  IsaGuard guard;
  const std::vector<c::KernelIsa> levels = supported_levels();
  ASSERT_GE(levels.size(), 1u);
  for (int lmax = 1; lmax <= 10; ++lmax) {
    c::KernelConfig cfg;
    cfg.lmax = lmax;
    cfg.nbins = 3;
    cfg.bucket_capacity = 32;  // small buckets -> many flushes + ragged tail
    for (c::KernelScheme scheme :
         {c::KernelScheme::kRunningProduct, c::KernelScheme::kZBuffered}) {
      cfg.scheme = scheme;
      // 157 points: ragged across bins AND lanes; 25 zero-weight entries.
      const PairSet p = random_pairs(157, 25, 7000 + lmax);
      const std::vector<double> ref =
          sums_at(c::KernelIsa::kScalar, cfg, p);
      for (c::KernelIsa isa : levels) {
        const std::vector<double> got = sums_at(isa, cfg, p);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
          ASSERT_EQ(got[i], ref[i])
              << "lmax=" << lmax << " scheme=" << static_cast<int>(scheme)
              << " isa=" << c::kernel_isa_name(isa) << " term=" << i;
      }
    }
  }
}

// Raw bucket kernels, all ilp variants, directly on lane accumulators.
TEST(KernelIsaEquivalence, RawKernelsBitwiseAcrossLevels) {
  IsaGuard guard;
  const int lmax = 8;
  const int count = 64;
  const int nmono = m::monomial_count(lmax);
  const PairSet p = random_pairs(count, 8, 991);
  for (c::KernelIsa isa : supported_levels()) {
    for (int ilp : {1, 2, 4}) {
      c::set_kernel_isa(c::KernelIsa::kScalar);
      std::vector<double> ref(static_cast<std::size_t>(nmono) * c::kLanes,
                              0.0);
      c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                                p.w.data(), count, lmax, ref.data(), ilp);
      c::set_kernel_isa(isa);
      std::vector<double> got(ref.size(), 0.0);
      c::kernel_running_product(p.ux.data(), p.uy.data(), p.uz.data(),
                                p.w.data(), count, lmax, got.data(), ilp);
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "running_product ilp=" << ilp << " isa="
                                  << c::kernel_isa_name(isa) << " i=" << i;
    }
    c::set_kernel_isa(c::KernelIsa::kScalar);
    std::vector<double> zs(2 * count);
    std::vector<double> ref(static_cast<std::size_t>(nmono) * c::kLanes, 0.0);
    c::kernel_zbuffered(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(),
                        count, lmax, ref.data(), zs.data());
    c::set_kernel_isa(isa);
    std::vector<double> got(ref.size(), 0.0);
    c::kernel_zbuffered(p.ux.data(), p.uy.data(), p.uz.data(), p.w.data(),
                        count, lmax, got.data(), zs.data());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ASSERT_EQ(got[i], ref[i])
          << "zbuffered isa=" << c::kernel_isa_name(isa) << " i=" << i;
  }
}

// Full engine, fused AND staged drivers: identical ZetaResult at every
// supported level. lmax 10 gives zeta rows of 11 coefficients, which the
// AVX-512 flush holds in two vectors (one with masked lanes) and AVX2 in
// three; a smaller catalog keeps that case cheap under the sanitizers.
TEST(KernelIsaEquivalence, EngineResultsIdenticalAcrossLevels) {
  IsaGuard guard;
  c::EngineConfig cfg;
  cfg.bins = c::RadialBins(2.0, 12.0, 4);
  cfg.threads = 1;
  cfg.subtract_self_pairs = true;

  for (const auto& [lmax, npoints] : {std::pair{4, 700}, std::pair{10, 250}}) {
    const s::Catalog cat = s::uniform_box(npoints, s::Aabb::cube(40), 77);
    cfg.lmax = lmax;
    for (c::TraversalMode traversal :
         {c::TraversalMode::kPerPrimary, c::TraversalMode::kLeafBlocked}) {
      SCOPED_TRACE(::testing::Message()
                   << "lmax=" << lmax
                   << " traversal=" << static_cast<int>(traversal));
      cfg.tree.traversal = traversal;
      c::set_kernel_isa(c::KernelIsa::kScalar);
      const c::Engine engine(cfg);
      const c::ZetaResult ref_fused = engine.run(cat);
      c::Engine::Staged ref_staged = engine.build_index(cat);
      const c::ZetaResult ref_piped = ref_staged.run_indexed(nullptr, nullptr);

      for (c::KernelIsa isa : supported_levels()) {
        c::set_kernel_isa(isa);
        const c::ZetaResult fused = engine.run(cat);
        expect_results_match(fused, ref_fused, 0.0, 0.0);  // bitwise
        EXPECT_EQ(fused.n_pairs, ref_fused.n_pairs);
        c::Engine::Staged staged = engine.build_index(cat);
        const c::ZetaResult piped = staged.run_indexed(nullptr, nullptr);
        expect_results_match(piped, ref_piped, 0.0, 0.0);  // bitwise
        EXPECT_EQ(piped.n_pairs, ref_piped.n_pairs);
      }
    }
  }
}
