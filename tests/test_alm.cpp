// Closed-form self-pair correction: the Legendre-moment accumulator and its
// expansion table against the explicit per-secondary sum
// sum_p w_p sum_j w_j^2 conj(Y_lm(u_j)) Y_l'm(u_j) built from
// SphHarmTable::eval.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "core/alm.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"

namespace c = galactos::core;
namespace m = galactos::math;

namespace {

struct Secondary {
  int bin;
  double ux, uy, uz, w;
};

// One primary's secondaries: random directions plus both poles, with
// weights of both signs spread over `nbins` bins.
std::vector<Secondary> secondaries(int n, int nbins, std::uint64_t seed) {
  m::Rng rng(seed);
  std::vector<Secondary> out;
  for (int j = 0; j < n; ++j) {
    Secondary s;
    rng.unit_vector(s.ux, s.uy, s.uz);
    s.bin = static_cast<int>(
        rng.uniform_u64(static_cast<std::uint64_t>(nbins)));
    s.w = rng.uniform(-1.5, 1.5);
    out.push_back(s);
  }
  out.push_back({0, 0.0, 0.0, 1.0, -0.8});
  out.push_back({nbins - 1, 0.0, 0.0, -1.0, 1.3});
  out.push_back({0, 0.0, 0.0, -1.0, 0.6});
  return out;
}

}  // namespace

TEST(SelfPairClosedForm, MatchesExplicitYlmProducts) {
  const int nbins = 3;
  const double primary_w[] = {1.0, -0.45, 2.5};
  for (int lmax : {0, 1, 6, 10, 16}) {
    const m::SphHarmTable table(lmax);
    const c::LlmIndex llm(lmax);
    const c::SelfPairTable self_table(table, llm);
    ASSERT_EQ(self_table.n_moments(), 2 * lmax + 1);
    c::SelfPairAccumulator acc(self_table, nbins);
    c::ZetaAccumulator zeta(lmax, nbins);

    // Reference: explicit complex products, and the natural scale of each
    // entry, sum |w_p| w_j^2 max|Y_lm| max|Y_l'm| with
    // max|Y_lm| = sqrt((2l+1)/(4 pi)).
    const std::size_t n = static_cast<std::size_t>(nbins) * llm.size();
    std::vector<std::complex<double>> ref(n, {0.0, 0.0});
    std::vector<double> scale(n, 0.0);
    std::vector<std::complex<double>> y(m::nlm(lmax));
    for (int p = 0; p < 3; ++p) {
      const double wp = primary_w[p];
      acc.start_primary(wp);
      for (const Secondary& s :
           secondaries(40, nbins, 900 + 10 * lmax + p)) {
        acc.add(s.bin, s.uz, s.w);
        for (int l = 0; l <= lmax; ++l)
          for (int mm = 0; mm <= l; ++mm)
            y[m::lm_index(l, mm)] = table.eval(l, mm, s.ux, s.uy, s.uz);
        for (int i = 0; i < llm.size(); ++i) {
          const auto t = llm.at(i);
          const std::size_t k =
              static_cast<std::size_t>(s.bin) * llm.size() + i;
          ref[k] += wp * s.w * s.w *
                    std::conj(y[llm.alm_index_1()[i]]) *
                    y[llm.alm_index_2()[i]];
          scale[k] += std::abs(wp) * s.w * s.w *
                      std::sqrt((2.0 * t.l + 1.0) * (2.0 * t.lp + 1.0)) /
                      (4.0 * M_PI);
        }
      }
    }
    acc.fold_into(zeta);

    for (int b = 0; b < nbins; ++b)
      for (int i = 0; i < llm.size(); ++i) {
        const auto t = llm.at(i);
        const std::size_t k = static_cast<std::size_t>(b) * llm.size() + i;
        const std::complex<double> got = zeta.raw(b, b, t.l, t.lp, t.m);
        // The self term is real: the imaginary plane is never touched, and
        // the explicit products agree to round-off.
        EXPECT_EQ(got.imag(), 0.0) << "lmax=" << lmax << " i=" << i;
        EXPECT_NEAR(ref[k].imag(), 0.0, 1e-12 * scale[k])
            << "lmax=" << lmax << " b=" << b << " (" << t.l << "," << t.lp
            << "," << t.m << ")";
        EXPECT_NEAR(-got.real(), ref[k].real(), 1e-12 * scale[k])
            << "lmax=" << lmax << " b=" << b << " (" << t.l << "," << t.lp
            << "," << t.m << ")";
      }

    // Off-diagonal bin pairs carry no self term.
    for (int b1 = 0; b1 < nbins; ++b1)
      for (int b2 = b1 + 1; b2 < nbins; ++b2)
        EXPECT_EQ(zeta.raw(b1, b2, lmax, lmax, 0),
                  std::complex<double>(0.0));
  }
}

// fold_into clears the moments: folding again subtracts nothing.
TEST(SelfPairClosedForm, FoldClearsMoments) {
  const int lmax = 4, nbins = 2;
  const m::SphHarmTable table(lmax);
  const c::LlmIndex llm(lmax);
  const c::SelfPairTable self_table(table, llm);
  c::SelfPairAccumulator acc(self_table, nbins);
  acc.start_primary(-0.7);
  for (const Secondary& s : secondaries(25, nbins, 31))
    acc.add(s.bin, s.uz, s.w);

  c::ZetaAccumulator once(lmax, nbins), twice(lmax, nbins);
  acc.fold_into(once);
  acc.start_primary(-0.7);
  for (const Secondary& s : secondaries(25, nbins, 31))
    acc.add(s.bin, s.uz, s.w);
  acc.fold_into(twice);
  acc.fold_into(twice);
  EXPECT_EQ(once.snapshot(), twice.snapshot());
}
