// FFT substrate tests: oracle agreement, round trips, Parseval, 3-D axes,
// batched strided lines, and twiddle accuracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "math/fft.hpp"
#include "math/rng.hpp"

namespace m = galactos::math;
using cd = m::cplx;

namespace {

std::vector<cd> random_signal(std::size_t n, std::uint64_t seed) {
  m::Rng rng(seed);
  std::vector<cd> v(n);
  for (auto& x : v) x = cd(rng.normal(), rng.normal());
  return v;
}

// Naive separable 3-D DFT: dft_reference along z, then y, then x.
std::vector<cd> naive_dft_3d(std::vector<cd> a, std::size_t n, int sign) {
  const std::size_t axis_stride[3] = {1, n, n * n};
  for (std::size_t s : axis_stride)
    for (std::size_t base = 0; base < n * n * n; ++base) {
      if ((base / s) % n != 0) continue;  // not the first element of a line
      std::vector<cd> line(n);
      for (std::size_t k = 0; k < n; ++k) line[k] = a[base + k * s];
      line = m::dft_reference(line, sign);
      for (std::size_t k = 0; k < n; ++k) a[base + k * s] = line[k];
    }
  return a;
}

double max_abs_diff(const std::vector<cd>& a, const std::vector<cd>& b) {
  double e = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    e = std::max(e, std::abs(a[i] - b[i]));
  return e;
}

}  // namespace

TEST(Fft1d, MatchesNaiveDft) {
  for (std::size_t n : {2u, 4u, 8u, 32u, 128u}) {
    std::vector<cd> sig = random_signal(n, 100 + n);
    std::vector<cd> ref = m::dft_reference(sig, -1);
    std::vector<cd> got = sig;
    m::fft_1d(got.data(), n, -1);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(got[i] - ref[i]), 0.0, 1e-9 * n) << "n=" << n;
  }
}

TEST(Fft1d, InverseMatchesNaive) {
  const std::size_t n = 64;
  std::vector<cd> sig = random_signal(n, 5);
  std::vector<cd> ref = m::dft_reference(sig, +1);
  std::vector<cd> got = sig;
  m::fft_1d(got.data(), n, +1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(got[i] - ref[i]), 0.0, 1e-10);
}

TEST(Fft1d, RoundTripIsIdentity) {
  const std::size_t n = 256;
  std::vector<cd> sig = random_signal(n, 9);
  std::vector<cd> work = sig;
  m::fft_1d(work.data(), n, -1);
  m::fft_1d(work.data(), n, +1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(work[i] - sig[i]), 0.0, 1e-11);
}

TEST(Fft1d, DeltaTransformsToConstant) {
  const std::size_t n = 16;
  std::vector<cd> sig(n, cd(0, 0));
  sig[0] = 1.0;
  m::fft_1d(sig.data(), n, -1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(sig[i] - cd(1, 0)), 0.0, 1e-12);
}

TEST(Fft1d, SingleModeLandsInRightBin) {
  const std::size_t n = 32;
  const int k0 = 5;
  std::vector<cd> sig(n);
  for (std::size_t j = 0; j < n; ++j)
    sig[j] = std::exp(cd(0, 2 * M_PI * k0 * static_cast<double>(j) / n));
  m::fft_1d(sig.data(), n, -1);
  for (std::size_t k = 0; k < n; ++k) {
    const double expect = (k == k0) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(sig[k]), expect, 1e-9) << "k=" << k;
  }
}

TEST(Fft1d, Parseval) {
  const std::size_t n = 128;
  std::vector<cd> sig = random_signal(n, 17);
  double time_e = 0;
  for (const cd& v : sig) time_e += std::norm(v);
  std::vector<cd> work = sig;
  m::fft_1d(work.data(), n, -1);
  double freq_e = 0;
  for (const cd& v : work) freq_e += std::norm(v);
  EXPECT_NEAR(freq_e, time_e * n, 1e-8 * time_e * n);
}

TEST(Fft1d, TwiddleTableAccuracyAtLength4096) {
  // Table twiddles keep the error at a few ulp of the spectrum's rms; the
  // former w *= wlen recurrence reached ~1.1e-13 of it at this length.
  const std::size_t n = 4096;
  const std::vector<cd> sig = random_signal(n, 4096);
  const std::vector<cd> ref = m::dft_reference(sig, -1);
  std::vector<cd> got = sig;
  m::fft_1d(got.data(), n, -1);
  double rms = 0.0;
  for (const cd& v : ref) rms += std::norm(v);
  rms = std::sqrt(rms / static_cast<double>(n));
  EXPECT_LT(max_abs_diff(got, ref), 4e-14 * rms);
}

TEST(FftLines, StridedGroupsMatchPerLineTransforms) {
  // Lines of length 8 along the middle axis of a 5 x 8 x 11 array: 11 lines
  // per group (one full tile of eight plus a partial one), 5 groups.
  const std::size_t n = 8, nz = 11, ngroups = 5;
  const std::vector<cd> sig = random_signal(ngroups * n * nz, 71);
  std::vector<cd> got = sig;
  m::fft_lines(got.data(), n, {nz, 1, nz, ngroups, n * nz}, -1, 2);
  for (std::size_t g = 0; g < ngroups; ++g)
    for (std::size_t iz = 0; iz < nz; ++iz) {
      std::vector<cd> line(n);
      for (std::size_t k = 0; k < n; ++k)
        line[k] = sig[g * n * nz + k * nz + iz];
      m::fft_1d(line.data(), n, -1);
      for (std::size_t k = 0; k < n; ++k)
        EXPECT_EQ(got[g * n * nz + k * nz + iz], line[k]);
    }
}

TEST(Fft1d, RejectsNonPowerOfTwo) {
  std::vector<cd> sig(12);
  EXPECT_THROW(m::fft_1d(sig.data(), 12, -1), std::logic_error);
}

TEST(Fft3d, RoundTrip) {
  const std::size_t n = 8;
  std::vector<cd> sig = random_signal(n * n * n, 23);
  std::vector<cd> work = sig;
  m::fft_3d(work, n, -1);
  m::fft_3d(work, n, +1);
  for (std::size_t i = 0; i < sig.size(); ++i)
    EXPECT_NEAR(std::abs(work[i] - sig[i]), 0.0, 1e-10);
}

TEST(Fft3d, MatchesNaiveSeparableDft) {
  // Below, at and above the eight-line tile width.
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    const std::vector<cd> sig = random_signal(n * n * n, 300 + n);
    for (int sign : {-1, 1}) {
      std::vector<cd> got = sig;
      m::fft_3d(got, n, sign);
      const std::vector<cd> ref = naive_dft_3d(sig, n, sign);
      const double scale = sign == -1 ? static_cast<double>(n * n * n) : 1.0;
      EXPECT_LT(max_abs_diff(got, ref), 1e-14 * scale) << "n=" << n
                                                       << " sign=" << sign;
    }
  }
}

TEST(Fft3d, SeparableSingleMode) {
  // A plane wave e^{i 2 pi (ax + by + cz)/n} transforms to a single spike.
  const std::size_t n = 8;
  const int a = 2, b = 5, c = 1;
  std::vector<cd> sig(n * n * n);
  for (std::size_t ix = 0; ix < n; ++ix)
    for (std::size_t iy = 0; iy < n; ++iy)
      for (std::size_t iz = 0; iz < n; ++iz)
        sig[(ix * n + iy) * n + iz] = std::exp(
            cd(0, 2 * M_PI *
                      (a * static_cast<double>(ix) + b * static_cast<double>(iy) +
                       c * static_cast<double>(iz)) /
                      static_cast<double>(n)));
  m::fft_3d(sig, n, -1);
  for (std::size_t ix = 0; ix < n; ++ix)
    for (std::size_t iy = 0; iy < n; ++iy)
      for (std::size_t iz = 0; iz < n; ++iz) {
        const bool spike = ix == static_cast<std::size_t>(a) &&
                           iy == static_cast<std::size_t>(b) &&
                           iz == static_cast<std::size_t>(c);
        const double expect = spike ? static_cast<double>(n * n * n) : 0.0;
        EXPECT_NEAR(std::abs(sig[(ix * n + iy) * n + iz]), expect, 1e-7);
      }
}

TEST(FftR2c, MatchesComplexTransform) {
  // The strided real-input path must agree with staging into a complex cube.
  const std::size_t n = 8;
  for (std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
    m::Rng rng(41 + stride);
    std::vector<double> real(n * n * n * stride, -7.0);  // sentinel between
    for (std::size_t i = 0; i < n * n * n; ++i) real[i * stride] = rng.normal();
    std::vector<cd> staged(n * n * n);
    for (std::size_t i = 0; i < n * n * n; ++i)
      staged[i] = cd(real[i * stride], 0.0);
    m::fft_3d(staged, n, -1);
    std::vector<cd> got;
    m::fft_r2c_3d(real.data(), stride, n, got);
    ASSERT_EQ(got.size(), n * n * n);
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(std::abs(got[i] - staged[i]), 0.0, 1e-12) << "stride=" << stride;
  }
}

TEST(FftR2c, SmallAndLargeGridsThroughStrides) {
  // r2c against the staged complex transform, then c2r back, at grids below
  // and above the tile width.
  for (std::size_t n : {2u, 4u, 16u})
    for (std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
      const std::size_t n3 = n * n * n;
      m::Rng rng(500 + n + stride);
      std::vector<double> real(n3 * stride, -7.0);  // sentinel between
      for (std::size_t i = 0; i < n3; ++i) real[i * stride] = rng.normal();
      std::vector<cd> staged(n3);
      for (std::size_t i = 0; i < n3; ++i)
        staged[i] = cd(real[i * stride], 0.0);
      m::fft_3d(staged, n, -1);
      std::vector<cd> spec;
      m::fft_r2c_3d(real.data(), stride, n, spec);
      ASSERT_EQ(spec.size(), n3);
      EXPECT_LT(max_abs_diff(spec, staged), 1e-12)
          << "n=" << n << " stride=" << stride;
      std::vector<double> back(n3 * stride, -7.0);
      m::fft_c2r_3d(spec, n, back.data(), stride);
      for (std::size_t i = 0; i < n3 * stride; ++i)
        EXPECT_NEAR(back[i], real[i], 1e-12)
            << "n=" << n << " stride=" << stride << " i=" << i;
    }
}

TEST(FftC2r, InPlaceIntoRealPartsOfTheSpectrum) {
  // The estimator writes real fields over their own spectra (stride 2).
  const std::size_t n = 16, n3 = n * n * n;
  m::Rng rng(83);
  std::vector<double> real(n3);
  for (double& v : real) v = rng.normal();
  std::vector<cd> spec;
  m::fft_r2c_3d(real.data(), 1, n, spec);
  m::fft_c2r_3d(spec, n, reinterpret_cast<double*>(spec.data()), 2);
  for (std::size_t i = 0; i < n3; ++i)
    EXPECT_NEAR(spec[i].real(), real[i], 1e-12) << "i=" << i;
}

TEST(FftR2c, DeltaFunctionSpectrumIsPlaneWave) {
  // delta at x0 -> spectrum e^{-i 2 pi j.x0 / n}, |spectrum| = 1 everywhere.
  const std::size_t n = 8;
  const std::size_t x0 = 3, y0 = 1, z0 = 6;
  std::vector<double> real(n * n * n, 0.0);
  real[(x0 * n + y0) * n + z0] = 1.0;
  std::vector<cd> spec;
  m::fft_r2c_3d(real.data(), 1, n, spec);
  for (std::size_t jx = 0; jx < n; ++jx)
    for (std::size_t jy = 0; jy < n; ++jy)
      for (std::size_t jz = 0; jz < n; ++jz) {
        const double phase =
            -2.0 * M_PI *
            static_cast<double>(jx * x0 + jy * y0 + jz * z0) /
            static_cast<double>(n);
        const cd expect(std::cos(phase), std::sin(phase));
        EXPECT_NEAR(std::abs(spec[(jx * n + jy) * n + jz] - expect), 0.0, 1e-12);
      }
}

TEST(FftR2c, Parseval) {
  const std::size_t n = 16;
  m::Rng rng(59);
  std::vector<double> real(n * n * n);
  for (auto& v : real) v = rng.normal();
  double space_e = 0;
  for (double v : real) space_e += v * v;
  std::vector<cd> spec;
  m::fft_r2c_3d(real.data(), 1, n, spec);
  double freq_e = 0;
  for (const cd& v : spec) freq_e += std::norm(v);
  const double ncube = static_cast<double>(n * n * n);
  EXPECT_NEAR(freq_e, space_e * ncube, 1e-10 * space_e * ncube);
}

TEST(FftC2r, RoundTripToRealField) {
  // r2c then in-place c2r recovers the field to 1e-12, through strides.
  const std::size_t n = 8;
  for (std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
    m::Rng rng(73 + stride);
    std::vector<double> real(n * n * n * stride, 0.0);
    for (std::size_t i = 0; i < n * n * n; ++i) real[i * stride] = rng.normal();
    std::vector<cd> spec;
    m::fft_r2c_3d(real.data(), stride, n, spec);
    std::vector<double> back(n * n * n * stride, 0.0);
    m::fft_c2r_3d(spec, n, back.data(), stride);
    for (std::size_t i = 0; i < n * n * n; ++i)
      EXPECT_NEAR(back[i * stride], real[i * stride], 1e-12)
          << "stride=" << stride;
  }
}

TEST(FftC2r, HermitianSingleModeGivesCosine) {
  // spectrum with conjugate pair at +-j0 -> 2 cos(2 pi j0.x / n) field.
  const std::size_t n = 8;
  const std::size_t jx0 = 2, jy0 = 0, jz0 = 3;
  std::vector<cd> spec(n * n * n, cd(0, 0));
  const double ncube = static_cast<double>(n * n * n);
  spec[(jx0 * n + jy0) * n + jz0] = ncube;
  spec[(((n - jx0) % n) * n + ((n - jy0) % n)) * n + ((n - jz0) % n)] = ncube;
  std::vector<double> field(n * n * n);
  m::fft_c2r_3d(spec, n, field.data(), 1);
  for (std::size_t ix = 0; ix < n; ++ix)
    for (std::size_t iy = 0; iy < n; ++iy)
      for (std::size_t iz = 0; iz < n; ++iz) {
        const double expect =
            2.0 * std::cos(2.0 * M_PI *
                           static_cast<double>(jx0 * ix + jy0 * iy + jz0 * iz) /
                           static_cast<double>(n));
        EXPECT_NEAR(field[(ix * n + iy) * n + iz], expect, 1e-12);
      }
}

TEST(Fft3d, LinearityUnderScaling) {
  const std::size_t n = 8;
  std::vector<cd> sig = random_signal(n * n * n, 31);
  std::vector<cd> twice = sig;
  for (auto& v : twice) v *= 2.0;
  m::fft_3d(sig, n, -1);
  m::fft_3d(twice, n, -1);
  for (std::size_t i = 0; i < sig.size(); ++i)
    EXPECT_NEAR(std::abs(twice[i] - 2.0 * sig[i]), 0.0, 1e-9);
}
