// Zeta accumulation: LlmIndex, bin-pair layout, symmetry, merging,
// result arithmetic and the isotropic projection identity.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <stdexcept>

#include "core/kernel.hpp"
#include "core/zeta.hpp"
#include "math/legendre.hpp"
#include "math/rng.hpp"
#include "math/sph_table.hpp"

namespace c = galactos::core;
namespace m = galactos::math;
using cd = std::complex<double>;

TEST(LlmIndex, SizeMatchesClosedForm) {
  // sum over m of (lmax+1-m)^2.
  for (int lmax : {0, 1, 2, 4, 10}) {
    c::LlmIndex llm(lmax);
    int expect = 0;
    for (int mm = 0; mm <= lmax; ++mm)
      expect += (lmax + 1 - mm) * (lmax + 1 - mm);
    EXPECT_EQ(llm.size(), expect);
  }
  EXPECT_EQ(c::LlmIndex(10).size(), 506);
}

TEST(LlmIndex, RoundTripAndAlmIndices) {
  c::LlmIndex llm(6);
  for (int i = 0; i < llm.size(); ++i) {
    const auto t = llm.at(i);
    EXPECT_EQ(llm.index(t.l, t.lp, t.m), i);
    EXPECT_LE(t.m, std::min(t.l, t.lp));
    EXPECT_EQ(llm.alm_index_1()[i], m::lm_index(t.l, t.m));
    EXPECT_EQ(llm.alm_index_2()[i], m::lm_index(t.lp, t.m));
  }
}

TEST(LlmIndex, StaticPositionMatchesEnumeration) {
  for (int lmax : {0, 1, 3, 10, 16}) {
    c::LlmIndex llm(lmax);
    EXPECT_EQ(c::LlmIndex::count(lmax), llm.size());
    for (int i = 0; i < llm.size(); ++i) {
      const auto t = llm.at(i);
      EXPECT_EQ(c::LlmIndex::position(lmax, t.l, t.lp, t.m), i);
    }
  }
}

TEST(ZetaAccumulator, BinPairLayout) {
  c::ZetaAccumulator z(2, 4);
  EXPECT_EQ(c::ZetaAccumulator::bin_pair_count(4), 10);
  int expect = 0;
  for (int b1 = 0; b1 < 4; ++b1)
    for (int b2 = b1; b2 < 4; ++b2) EXPECT_EQ(z.bin_pair(b1, b2), expect++);
}

namespace {

// Builds alm arrays for a synthetic set of per-bin weighted directions and
// returns the expected zeta via explicit double loops.
struct Synthetic {
  std::vector<cd> alm;             // [nbins][nlm]
  std::vector<std::uint8_t> touched;
};

Synthetic make_synthetic(int lmax, int nbins, std::uint64_t seed) {
  m::SphHarmTable table(lmax);
  m::Rng rng(seed);
  Synthetic s;
  const int nlm = m::nlm(lmax);
  s.alm.assign(static_cast<std::size_t>(nbins) * nlm, cd{0, 0});
  s.touched.assign(nbins, 0);
  for (int b = 0; b < nbins; ++b) {
    if (b == 1) continue;  // leave a hole
    s.touched[b] = 1;
    const int npts = 3 + static_cast<int>(rng.uniform_u64(5));
    for (int p = 0; p < npts; ++p) {
      double x, y, z;
      rng.unit_vector(x, y, z);
      const double w = rng.uniform(0.5, 1.5);
      for (int l = 0; l <= lmax; ++l)
        for (int mm = 0; mm <= l; ++mm)
          s.alm[static_cast<std::size_t>(b) * nlm + m::lm_index(l, mm)] +=
              w * std::conj(table.eval(l, mm, x, y, z));
    }
  }
  return s;
}

}  // namespace

TEST(ZetaAccumulator, AddPrimaryMatchesExplicitProducts) {
  const int lmax = 3, nbins = 3;
  const int nlm = m::nlm(lmax);
  c::ZetaAccumulator z(lmax, nbins);
  const Synthetic s = make_synthetic(lmax, nbins, 42);
  const double wp = 1.7;
  z.add_primary(wp, s.alm.data(), s.touched.data());
  z.flush();
  EXPECT_EQ(z.primaries(), 1u);
  EXPECT_DOUBLE_EQ(z.sum_weight(), wp);

  for (int b1 = 0; b1 < nbins; ++b1)
    for (int b2 = 0; b2 < nbins; ++b2)
      for (int l = 0; l <= lmax; ++l)
        for (int lp = 0; lp <= lmax; ++lp)
          for (int mm = 0; mm <= std::min(l, lp); ++mm) {
            cd expect{0, 0};
            if (s.touched[b1] && s.touched[b2])
              expect = wp *
                       s.alm[static_cast<std::size_t>(b1) * nlm +
                             m::lm_index(l, mm)] *
                       std::conj(s.alm[static_cast<std::size_t>(b2) * nlm +
                                       m::lm_index(lp, mm)]);
            const cd got = z.raw(b1, b2, l, lp, mm);
            EXPECT_NEAR(std::abs(got - expect), 0.0, 1e-12)
                << b1 << b2 << " " << l << lp << mm;
          }
}

// add_primary(A) + add_primary_cross(A, B) must equal add_primary(A + B):
// the two-pass completion identity a·a* = A·A* + (A·B* + B·A* + B·B*),
// with disjoint, overlapping and empty touched-bin patterns — and it must
// not count an extra primary.
TEST(ZetaAccumulator, AddPrimaryCrossCompletesTheSplit) {
  const int lmax = 3, nbins = 4;
  const int nlm = m::nlm(lmax);
  const double wp = 1.3;
  const Synthetic a = make_synthetic(lmax, nbins, 11);
  Synthetic b = make_synthetic(lmax, nbins, 12);
  // Make the touched patterns genuinely different: clear one bin A has.
  b.touched[0] = 0;
  for (int k = 0; k < nlm; ++k) b.alm[k] = cd{0, 0};

  // Reference: one shot over the union alm.
  Synthetic u = a;
  for (int bb = 0; bb < nbins; ++bb) {
    if (!b.touched[bb]) continue;
    u.touched[bb] = 1;
    for (int k = 0; k < nlm; ++k)
      u.alm[static_cast<std::size_t>(bb) * nlm + k] +=
          b.alm[static_cast<std::size_t>(bb) * nlm + k];
  }
  c::ZetaAccumulator fused(lmax, nbins);
  fused.add_primary(wp, u.alm.data(), u.touched.data());
  fused.flush();

  c::ZetaAccumulator split(lmax, nbins);
  split.add_primary(wp, a.alm.data(), a.touched.data());
  split.add_primary_cross(wp, a.alm.data(), a.touched.data(), b.alm.data(),
                          b.touched.data());

  EXPECT_EQ(split.primaries(), 1u);  // the cross term is not a primary
  EXPECT_DOUBLE_EQ(split.sum_weight(), wp);
  const auto sf = fused.snapshot(), ss = split.snapshot();
  for (std::size_t i = 0; i < sf.size(); ++i)
    EXPECT_NEAR(std::abs(sf[i] - ss[i]), 0.0, 1e-12) << i;
}

// Degenerate cross patterns: B empty everywhere adds exactly nothing; A
// empty everywhere reduces the completion to the pure B·B* product.
TEST(ZetaAccumulator, AddPrimaryCrossDegenerateSides) {
  const int lmax = 2, nbins = 3;
  const int nlm = m::nlm(lmax);
  const Synthetic a = make_synthetic(lmax, nbins, 21);
  std::vector<cd> zero_alm(static_cast<std::size_t>(nbins) * nlm, cd{0, 0});
  std::vector<std::uint8_t> zero_touched(nbins, 0);

  c::ZetaAccumulator only_a(lmax, nbins), with_empty_b(lmax, nbins);
  only_a.add_primary(1.0, a.alm.data(), a.touched.data());
  with_empty_b.add_primary(1.0, a.alm.data(), a.touched.data());
  only_a.flush();
  with_empty_b.add_primary_cross(1.0, a.alm.data(), a.touched.data(),
                                 zero_alm.data(), zero_touched.data());
  const auto s1 = only_a.snapshot(), s2 = with_empty_b.snapshot();
  for (std::size_t i = 0; i < s1.size(); ++i)
    EXPECT_EQ(s1[i], s2[i]);  // bitwise: the empty side must add nothing

  c::ZetaAccumulator pure_b(lmax, nbins), cross_only_b(lmax, nbins);
  pure_b.add_primary(2.0, a.alm.data(), a.touched.data());
  pure_b.flush();
  cross_only_b.add_primary_cross(2.0, zero_alm.data(), zero_touched.data(),
                                 a.alm.data(), a.touched.data());
  const auto s3 = pure_b.snapshot(), s4 = cross_only_b.snapshot();
  for (std::size_t i = 0; i < s3.size(); ++i)
    EXPECT_NEAR(std::abs(s3[i] - s4[i]), 0.0, 1e-13);
}

TEST(ZetaAccumulator, SymmetryUnderBinSwap) {
  const int lmax = 4, nbins = 4;
  c::ZetaAccumulator z(lmax, nbins);
  const Synthetic s = make_synthetic(lmax, nbins, 7);
  z.add_primary(1.0, s.alm.data(), s.touched.data());
  z.flush();
  for (int b1 = 0; b1 < nbins; ++b1)
    for (int b2 = 0; b2 < nbins; ++b2)
      for (int l = 0; l <= lmax; ++l)
        for (int lp = 0; lp <= lmax; ++lp)
          for (int mm = 0; mm <= std::min(l, lp); ++mm) {
            const cd a = z.raw(b1, b2, l, lp, mm);
            const cd b = z.raw(b2, b1, lp, l, mm);
            EXPECT_NEAR(std::abs(a - std::conj(b)), 0.0, 1e-13);
          }
}

TEST(ZetaAccumulator, MergeEqualsSequential) {
  const int lmax = 2, nbins = 3;
  c::ZetaAccumulator a(lmax, nbins), b(lmax, nbins), both(lmax, nbins);
  const Synthetic s1 = make_synthetic(lmax, nbins, 1);
  const Synthetic s2 = make_synthetic(lmax, nbins, 2);
  a.add_primary(1.0, s1.alm.data(), s1.touched.data());
  b.add_primary(2.0, s2.alm.data(), s2.touched.data());
  both.add_primary(1.0, s1.alm.data(), s1.touched.data());
  both.add_primary(2.0, s2.alm.data(), s2.touched.data());
  b.flush();
  both.flush();
  a.merge(b);
  EXPECT_EQ(a.primaries(), both.primaries());
  EXPECT_DOUBLE_EQ(a.sum_weight(), both.sum_weight());
  const auto sa = a.snapshot(), sb = both.snapshot();
  for (std::size_t i = 0; i < sa.size(); ++i)
    EXPECT_NEAR(std::abs(sa[i] - sb[i]), 0.0, 1e-13);
}

TEST(ZetaAccumulator, MergeRejectsMismatchedShapes) {
  c::ZetaAccumulator a(2, 3), b(3, 3), cc(2, 4);
  EXPECT_THROW(a.merge(b), std::logic_error);
  EXPECT_THROW(a.merge(cc), std::logic_error);
}

// --- Batched accumulator vs the per-primary loop ---------------------------

namespace {

// The accumulator before batching, kept as the oracle: every add_primary
// sweeps the planes once with the element update the batched flush must
// reproduce bit for bit. (This file builds with -ffp-contract=off, like the
// flush, so neither side is fused into FMAs.)
class PerPrimaryZeta {
 public:
  PerPrimaryZeta(int lmax, int nbins) : lmax_(lmax), nbins_(nbins), llm_(lmax) {
    const std::size_t total =
        static_cast<std::size_t>(c::ZetaAccumulator::bin_pair_count(nbins)) *
        llm_.size();
    re_.assign(total, 0.0);
    im_.assign(total, 0.0);
    const std::size_t scratch = static_cast<std::size_t>(nbins) * m::nlm(lmax);
    tr_re_.assign(scratch, 0.0);
    tr_im_.assign(scratch, 0.0);
    tb_re_.assign(scratch, 0.0);
    tb_im_.assign(scratch, 0.0);
  }

  void add_primary(double wp, const cd* alm, const std::uint8_t* touched) {
    const int nlm = m::nlm(lmax_);
    for (int b = 0; b < nbins_; ++b) {
      if (!touched[b]) continue;
      transpose(alm + static_cast<std::size_t>(b) * nlm,
                tr_re_.data() + static_cast<std::size_t>(b) * nlm,
                tr_im_.data() + static_cast<std::size_t>(b) * nlm);
    }
    const int nllm = llm_.size();
    for (int b1 = 0; b1 < nbins_; ++b1) {
      if (!touched[b1]) continue;
      const double* a1r = tr_re_.data() + static_cast<std::size_t>(b1) * nlm;
      const double* a1i = tr_im_.data() + static_cast<std::size_t>(b1) * nlm;
      for (int b2 = b1; b2 < nbins_; ++b2) {
        if (!touched[b2]) continue;
        const double* a2r = tr_re_.data() + static_cast<std::size_t>(b2) * nlm;
        const double* a2i = tr_im_.data() + static_cast<std::size_t>(b2) * nlm;
        const std::size_t base = static_cast<std::size_t>(pair(b1, b2)) * nllm;
        int idx = 0;
        for (int mm = 0; mm <= lmax_; ++mm) {
          const int cnt = lmax_ + 1 - mm;
          const double* br = a2r + ml(mm, mm);
          const double* bi = a2i + ml(mm, mm);
          for (int l = mm; l <= lmax_; ++l) {
            const double tr = wp * a1r[ml(mm, l)];
            const double ti = wp * a1i[ml(mm, l)];
            double* r = re_.data() + base + idx;
            double* i = im_.data() + base + idx;
            for (int k = 0; k < cnt; ++k) {
              r[k] += tr * br[k] + ti * bi[k];
              i[k] += ti * br[k] - tr * bi[k];
            }
            idx += cnt;
          }
        }
      }
    }
  }

  void add_primary_cross(double wp, const cd* alm_a,
                         const std::uint8_t* touched_a, const cd* alm_b,
                         const std::uint8_t* touched_b) {
    const int nlm = m::nlm(lmax_);
    const std::vector<cd> zero(static_cast<std::size_t>(nlm), cd{0, 0});
    for (int b = 0; b < nbins_; ++b) {
      if (!touched_a[b] && !touched_b[b]) continue;
      const std::size_t o = static_cast<std::size_t>(b) * nlm;
      transpose(touched_a[b] ? alm_a + o : zero.data(), tr_re_.data() + o,
                tr_im_.data() + o);
      transpose(touched_b[b] ? alm_b + o : zero.data(), tb_re_.data() + o,
                tb_im_.data() + o);
    }
    const int nllm = llm_.size();
    for (int b1 = 0; b1 < nbins_; ++b1) {
      if (!touched_a[b1] && !touched_b[b1]) continue;
      const std::size_t o1 = static_cast<std::size_t>(b1) * nlm;
      for (int b2 = b1; b2 < nbins_; ++b2) {
        if (!touched_a[b2] && !touched_b[b2]) continue;
        if (!touched_b[b1] && !touched_b[b2]) continue;
        const std::size_t o2 = static_cast<std::size_t>(b2) * nlm;
        const std::size_t base = static_cast<std::size_t>(pair(b1, b2)) * nllm;
        int idx = 0;
        for (int mm = 0; mm <= lmax_; ++mm) {
          const int cnt = lmax_ + 1 - mm;
          const std::size_t off = o2 + ml(mm, mm);
          for (int l = mm; l <= lmax_; ++l) {
            const std::size_t k1 = o1 + ml(mm, l);
            const double ar = wp * tr_re_[k1], ai = wp * tr_im_[k1];
            const double br = wp * tb_re_[k1], bi = wp * tb_im_[k1];
            double* r = re_.data() + base + idx;
            double* i = im_.data() + base + idx;
            for (int k = 0; k < cnt; ++k) {
              const double xar = tr_re_[off + k], xai = tr_im_[off + k];
              const double xbr = tb_re_[off + k], xbi = tb_im_[off + k];
              const double sr = xar + xbr;
              const double si = xai + xbi;
              r[k] += ar * xbr + ai * xbi + br * sr + bi * si;
              i[k] += ai * xbr - ar * xbi + bi * sr - br * si;
            }
            idx += cnt;
          }
        }
      }
    }
  }

  void subtract_self(int bin, const double* self) {
    const std::size_t base =
        static_cast<std::size_t>(pair(bin, bin)) * llm_.size();
    for (int i = 0; i < llm_.size(); ++i) re_[base + i] -= self[i];
  }

  void merge(const PerPrimaryZeta& o) {
    for (std::size_t i = 0; i < re_.size(); ++i) {
      re_[i] += o.re_[i];
      im_[i] += o.im_[i];
    }
  }

  std::vector<cd> snapshot() const {
    std::vector<cd> out(re_.size());
    for (std::size_t i = 0; i < re_.size(); ++i) out[i] = {re_[i], im_[i]};
    return out;
  }

  cd raw(int b1, int b2, int l, int lp, int mm) const {  // b1 <= b2
    const std::size_t i = static_cast<std::size_t>(pair(b1, b2)) * llm_.size() +
                          llm_.index(l, lp, mm);
    return {re_[i], im_[i]};
  }

 private:
  int pair(int b1, int b2) const {
    return b1 * nbins_ - b1 * (b1 - 1) / 2 + (b2 - b1);
  }
  int ml(int mm, int l) const {
    return mm * (lmax_ + 1) - mm * (mm - 1) / 2 + (l - mm);
  }
  void transpose(const cd* a, double* tr, double* ti) const {
    for (int mm = 0; mm <= lmax_; ++mm)
      for (int l = mm; l <= lmax_; ++l) {
        tr[ml(mm, l)] = a[m::lm_index(l, mm)].real();
        ti[ml(mm, l)] = a[m::lm_index(l, mm)].imag();
      }
  }

  int lmax_, nbins_;
  c::LlmIndex llm_;
  std::vector<double> re_, im_;
  std::vector<double> tr_re_, tr_im_, tb_re_, tb_im_;
};

// Random a_lm with m = 0 imaginary parts of +0.0 or -0.0 (as real-field
// a_l0 carry), and a random touched pattern that leaves bins untouched.
Synthetic random_alm(int lmax, int nbins, m::Rng& rng) {
  const int nlm = m::nlm(lmax);
  Synthetic s;
  s.alm.assign(static_cast<std::size_t>(nbins) * nlm, cd{0, 0});
  s.touched.assign(nbins, 0);
  for (int b = 0; b < nbins; ++b) {
    if (rng.uniform(0.0, 1.0) < 0.3) continue;
    s.touched[b] = 1;
    for (int l = 0; l <= lmax; ++l)
      for (int mm = 0; mm <= l; ++mm) {
        const double re = rng.uniform(-2.0, 2.0);
        double im = rng.uniform(-2.0, 2.0);
        if (mm == 0) im = rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : -0.0;
        s.alm[static_cast<std::size_t>(b) * nlm + m::lm_index(l, mm)] = {re,
                                                                         im};
      }
  }
  return s;
}

bool same_bits(const std::vector<cd>& a, const std::vector<cd>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cd)) == 0;
}

// Restores the automatic kernel-ISA level however the test exits.
struct IsaReset {
  ~IsaReset() { c::set_kernel_isa(c::KernelIsa::kAuto); }
};

}  // namespace

// The batched accumulator against the per-primary loop at every supported
// ISA level: memcmp-equal planes (sign of zero included) for lmax up to 16,
// rows longer than one and two vectors, untouched bins, negative primary
// weights, counts that end mid-batch, and every read or change of the planes
// issued while a batch is pending.
TEST(ZetaAccumulator, BatchedMatchesPerPrimaryLoopBitwise) {
  IsaReset reset;
  const int kb = c::ZetaAccumulator::kBatch;
  for (c::KernelIsa isa :
       {c::KernelIsa::kScalar, c::KernelIsa::kAvx2, c::KernelIsa::kAvx512}) {
    if (!c::kernel_isa_supported(isa)) continue;
    c::set_kernel_isa(isa);
    for (int lmax : {0, 1, 3, 6, 8, 9, 10, 16})
      for (int nbins : {1, 3, 10}) {
        SCOPED_TRACE(::testing::Message()
                     << "isa=" << c::kernel_isa_name(isa) << " lmax=" << lmax
                     << " nbins=" << nbins);
        m::Rng rng(1000 + 31 * lmax + nbins);
        c::ZetaAccumulator z(lmax, nbins);
        PerPrimaryZeta o(lmax, nbins);
        const int nprim = 4 * kb + 3;  // ends mid-batch
        for (int p = 0; p < nprim; ++p) {
          const Synthetic s = random_alm(lmax, nbins, rng);
          const double wp = rng.uniform(-1.0, 2.0);
          z.add_primary(wp, s.alm.data(), s.touched.data());
          o.add_primary(wp, s.alm.data(), s.touched.data());

          if (p == 3) {  // raw: refused while pending, exact once flushed
            EXPECT_THROW(z.raw(0, 0, 0, 0, 0), std::logic_error);
            z.flush();
            const int b1 = static_cast<int>(rng.uniform_u64(nbins));
            const int b2 = b1 + static_cast<int>(rng.uniform_u64(nbins - b1));
            const int l = static_cast<int>(rng.uniform_u64(lmax + 1));
            const int lp = static_cast<int>(rng.uniform_u64(lmax + 1));
            const int mm = static_cast<int>(
                rng.uniform_u64(std::min(l, lp) + 1));
            const cd got = z.raw(b1, b2, l, lp, mm);
            const cd want = o.raw(b1, b2, l, lp, mm);
            EXPECT_EQ(std::memcmp(&got, &want, sizeof(cd)), 0);
          } else if (p == kb + 8) {  // snapshot
            EXPECT_THROW(z.snapshot(), std::logic_error);
            z.flush();
            EXPECT_TRUE(same_bits(z.snapshot(), o.snapshot()));
          } else if (p == kb + 12) {  // merge of a flushed partner
            c::ZetaAccumulator other(lmax, nbins);
            PerPrimaryZeta other_o(lmax, nbins);
            for (int q = 0; q < 3; ++q) {
              const Synthetic t = random_alm(lmax, nbins, rng);
              other.add_primary(0.5, t.alm.data(), t.touched.data());
              other_o.add_primary(0.5, t.alm.data(), t.touched.data());
            }
            EXPECT_THROW(z.merge(other), std::logic_error);
            other.flush();
            z.merge(other);
            o.merge(other_o);
          } else if (p == 2 * kb + 3) {  // subtract_self
            const int bin = static_cast<int>(rng.uniform_u64(nbins));
            std::vector<double> self(c::LlmIndex(lmax).size());
            for (double& v : self) v = rng.uniform(-1.0, 1.0);
            z.subtract_self(bin, self.data());
            o.subtract_self(bin, self.data());
          } else if (p == 3 * kb + 5) {  // add_primary_cross
            const Synthetic a = random_alm(lmax, nbins, rng);
            const Synthetic b = random_alm(lmax, nbins, rng);
            z.add_primary_cross(wp, a.alm.data(), a.touched.data(),
                                b.alm.data(), b.touched.data());
            o.add_primary_cross(wp, a.alm.data(), a.touched.data(),
                                b.alm.data(), b.touched.data());
          }
        }
        EXPECT_THROW(z.snapshot(), std::logic_error);  // ends mid-batch
        z.flush();
        // + the 3 primaries the merged partner brought
        EXPECT_EQ(z.primaries(), static_cast<std::uint64_t>(nprim + 3));
        EXPECT_TRUE(same_bits(z.snapshot(), o.snapshot()));
      }
  }
}

TEST(ZetaResult, IsotropicProjectionMatchesAdditionTheorem) {
  // Single primary with two secondaries in different bins: the isotropic
  // multipole must equal 4pi/(2l+1) * (2l+1)/(4pi) * P_l(u1.u2) = P_l(mu).
  const int lmax = 6, nbins = 2;
  m::SphHarmTable table(lmax);
  const int nlm = m::nlm(lmax);
  m::Rng rng(12);
  double x1, y1, z1, x2, y2, z2;
  rng.unit_vector(x1, y1, z1);
  rng.unit_vector(x2, y2, z2);
  std::vector<cd> alm(static_cast<std::size_t>(nbins) * nlm, cd{0, 0});
  std::vector<std::uint8_t> touched(nbins, 1);
  for (int l = 0; l <= lmax; ++l)
    for (int mm = 0; mm <= l; ++mm) {
      alm[m::lm_index(l, mm)] = std::conj(table.eval(l, mm, x1, y1, z1));
      alm[nlm + m::lm_index(l, mm)] = std::conj(table.eval(l, mm, x2, y2, z2));
    }
  c::ZetaAccumulator z(lmax, nbins);
  z.add_primary(1.0, alm.data(), touched.data());
  z.flush();

  c::ZetaResult res;
  res.bins = c::RadialBins(1, 3, nbins);
  res.lmax = lmax;
  res.zeta_data = z.snapshot();
  res.sum_primary_weight = 1.0;
  res.n_primaries = 1;
  res.pair_counts.assign(nbins, 0.0);
  res.xi_raw.assign((lmax + 1) * nbins, 0.0);

  const double mu = x1 * x2 + y1 * y2 + z1 * z2;
  for (int l = 0; l <= lmax; ++l)
    EXPECT_NEAR(res.isotropic(l, 0, 1), m::legendre_p(l, mu), 1e-10) << l;
}

TEST(ZetaResult, AccumulateAddsEverything) {
  c::ZetaResult a, b;
  a.bins = b.bins = c::RadialBins(1, 10, 2);
  a.lmax = b.lmax = 1;
  a.n_primaries = 3;
  b.n_primaries = 4;
  a.sum_primary_weight = 1.5;
  b.sum_primary_weight = 2.5;
  a.n_pairs = 10;
  b.n_pairs = 20;
  c::LlmIndex llm(1);
  a.zeta_data.assign(3 * llm.size(), cd{1, 1});
  b.zeta_data.assign(3 * llm.size(), cd{2, -1});
  a.pair_counts = {1, 2};
  b.pair_counts = {10, 20};
  a.xi_raw.assign(4, 1.0);
  b.xi_raw.assign(4, 3.0);
  a.accumulate(b);
  EXPECT_EQ(a.n_primaries, 7u);
  EXPECT_DOUBLE_EQ(a.sum_primary_weight, 4.0);
  EXPECT_EQ(a.n_pairs, 30u);
  EXPECT_EQ(a.zeta_data[0], (cd{3, 0}));
  EXPECT_DOUBLE_EQ(a.pair_counts[1], 22.0);
  EXPECT_DOUBLE_EQ(a.xi_raw[2], 4.0);
}

TEST(ZetaResult, AccumulateRejectsMismatch) {
  c::ZetaResult a, b;
  a.bins = c::RadialBins(1, 10, 2);
  b.bins = c::RadialBins(1, 10, 3);
  a.lmax = b.lmax = 1;
  EXPECT_THROW(a.accumulate(b), std::logic_error);
}
