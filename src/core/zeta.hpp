// Anisotropic 3PCF coefficients zeta^m_{l l'}(r1, r2) (paper §3.1):
//
//   zeta(r1_vec, r2_vec) = sum_{l l' m} zeta^m_{ll'}(r1, r2)
//                          Y_lm(r1_hat) Y*_l'm(r2_hat),
//
// estimated per primary as a_lm(r1) a*_l'm(r2) with
// a_lm(bin) = sum_j w_j conj(Y_lm(u_j)), then averaged over primaries.
// Only m >= 0 is stored: the density field is real, so
// a_{l,-m} = (-1)^m conj(a_lm) and the m < 0 products are conjugates of the
// stored ones.
//
// Symmetry: zeta^m_{ll'}(b1,b2) = conj(zeta^m_{l'l}(b2,b1)), so storage
// covers b1 <= b2 with all (l, l') and the accessor reflects.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "core/bins.hpp"
#include "util/check.hpp"

namespace galactos::core {

// Canonical enumeration of (l, l', m) with 0 <= l, l' <= lmax and
// 0 <= m <= min(l, l'): m outer, then l, then l' — m-major so that the hot
// zeta accumulation loop walks l' contiguously at fixed (m, l).
class LlmIndex {
 public:
  explicit LlmIndex(int lmax);

  int lmax() const { return lmax_; }
  int size() const { return static_cast<int>(triples_.size()); }

  struct Llm {
    int l, lp, m;
  };
  Llm at(int i) const { return triples_[i]; }
  int index(int l, int lp, int m) const {
    GLX_DCHECK(l >= 0 && l <= lmax_ && lp >= 0 && lp <= lmax_ && m >= 0 &&
               m <= std::min(l, lp));
    return lookup_[(l * (lmax_ + 1) + lp) * (lmax_ + 1) + m];
  }

  // Flat a_lm indices for each triple (precomputed for the hot loop).
  const std::vector<int>& alm_index_1() const { return alm1_; }
  const std::vector<int>& alm_index_2() const { return alm2_; }

 private:
  int lmax_;
  std::vector<Llm> triples_;
  std::vector<int> lookup_;
  std::vector<int> alm1_, alm2_;
};

// Accumulates zeta over primaries; one instance per thread, merged at the
// end (paper §3.3: "multipole values are combined at the end of the loop
// over primary galaxies"). Internally the coefficients live in separate
// real/imaginary planes and a_lm is transposed to m-major layout per
// primary, so the hot loop is a pair of FMA-vectorizable sweeps over l'.
class ZetaAccumulator {
 public:
  ZetaAccumulator(int lmax, int nbins);

  int lmax() const { return llm_.lmax(); }
  int nbins() const { return nbins_; }
  const LlmIndex& llm() const { return llm_; }

  static int bin_pair_count(int nbins) { return nbins * (nbins + 1) / 2; }
  int bin_pair(int b1, int b2) const {  // requires b1 <= b2
    GLX_DCHECK(b1 >= 0 && b1 <= b2 && b2 < nbins_);
    return b1 * nbins_ - b1 * (b1 - 1) / 2 + (b2 - b1);
  }

  // alm: [nbins][nlm(lmax)] complex; touched: per-bin validity flags.
  void add_primary(double wp, const std::complex<double>* alm,
                   const std::uint8_t* touched);

  // Two-pass completion term. With one primary's a_lm split over two
  // disjoint secondary sets, a = A + B (A = owned-only, already folded in
  // by add_primary; B = halo-only), the full product expands as
  //   a(b1) a*(b2) = A(b1) A*(b2) + [A(b1) B*(b2) + B(b1) A*(b2)
  //                                  + B(b1) B*(b2)],
  // and this adds exactly the bracket — a pure sum of products, no
  // cancellation — WITHOUT counting a new primary (add_primary already
  // did). Bins untouched in A resp. B contribute zero planes.
  void add_primary_cross(double wp, const std::complex<double>* alm_a,
                         const std::uint8_t* touched_a,
                         const std::complex<double>* alm_b,
                         const std::uint8_t* touched_b);

  // Subtracts the degenerate j == k "triplet" contribution from the
  // diagonal bin pair (bin, bin): self[llm] = sum_p w_p sum_j w_j^2
  // conj(Y_lm(u_j)) Y_l'm(u_j) in LlmIndex order, already summed over
  // primaries. Same-m products are real, so only the real plane changes
  // (SelfPairAccumulator::fold_into builds `self` from Legendre moments).
  void subtract_self(int bin, const double* self);

  void merge(const ZetaAccumulator& other);

  // Raw accumulated sum over primaries (not divided by sum of weights).
  std::complex<double> raw(int b1, int b2, int l, int lp, int m) const;

  double sum_weight() const { return sum_wp_; }
  std::uint64_t primaries() const { return n_primaries_; }
  // Interleaved complex copy in [bin_pair][LlmIndex] order.
  std::vector<std::complex<double>> snapshot() const;

 private:
  // Transposed a_lm index at fixed m: entries l = m..lmax are contiguous.
  int ml_index(int m, int l) const {
    return m * (llm_.lmax() + 1) - m * (m - 1) / 2 + (l - m);
  }

  int nbins_;
  LlmIndex llm_;
  std::vector<double> re_, im_;       // [bin_pair][llm] planes
  std::vector<double> tr_re_, tr_im_; // scratch: m-major a_lm per bin
  std::vector<double> tb_re_, tb_im_; // scratch: second operand of _cross
  double sum_wp_ = 0.0;
  std::uint64_t n_primaries_ = 0;
};

// Final result: zeta coefficients plus the anisotropic-2PCF byproduct and
// run metadata. Produced by the engine, merged by the distributed runner.
struct ZetaResult {
  RadialBins bins;
  int lmax = 0;
  std::uint64_t n_primaries = 0;
  double sum_primary_weight = 0.0;
  std::uint64_t n_pairs = 0;

  // zeta data, [bin_pair][llm] in LlmIndex order (b1 <= b2).
  std::vector<std::complex<double>> zeta_data;

  // Weighted pair counts per bin: sum_p w_p sum_j w_j (the S[0,0,0] sums).
  std::vector<double> pair_counts;
  // Raw anisotropic 2PCF multipole sums: sum_p w_p sum_j w_j P_l(mu_j).
  std::vector<double> xi_raw;  // [lmax+1][nbins]

  // --- accessors ---
  std::complex<double> zeta_m(int b1, int b2, int l, int lp, int m) const;
  // Per-primary average: raw / sum of primary weights.
  std::complex<double> zeta_m_mean(int b1, int b2, int l, int lp, int m) const;
  // Isotropic multipole (Slepian–Eisenstein zeta_l): via the addition
  // theorem, N_l(b1,b2) = 4pi/(2l+1) sum_m zeta^m_{ll} — the Legendre
  // moment of the triplet counts.
  double isotropic(int l, int b1, int b2) const;
  // 2PCF multipole estimate for a box of density nbar:
  // xi_l(bin) = (2l+1) * xi_raw / RR_expected - delta_l0.
  double xi_l(int l, int bin, double nbar) const;
  double xi_raw_at(int l, int bin) const;

  void check_compatible(const ZetaResult& other) const;
  // Element-wise accumulation (used by reductions over ranks/jackknife).
  void accumulate(const ZetaResult& other);

  // --- distributed-reduction hooks (dist/runner.cpp) ---
  // Zero-valued result of the shape implied by (bins, lmax): the reduction
  // identity, and the contribution of a rank that owns no primaries.
  static ZetaResult zero_like(const RadialBins& bins, int lmax);
  // Flat additive payload (summed weight, zeta planes, pair counts, 2PCF
  // moments) for an elementwise allreduce across ranks; the integer
  // counters (n_primaries, n_pairs) travel separately to stay exact.
  std::vector<double> reduce_payload() const;
  void set_reduce_payload(const std::vector<double>& payload);
};

// Cross-backend accuracy metric: max relative deviation of `other` from
// `ref` over the GATED coefficients — zeta entries whose |ref| is at least
// `gate_frac` times the largest |ref| entry — plus every pair count.
// Coefficients below the gate are cancellation-dominated in both backends
// and carry no science; the gate keeps the metric meaningful. Used by the
// tree-vs-FFT validation tests and the FFT bench/regression gate.
double max_gated_rel_err(const ZetaResult& ref, const ZetaResult& other,
                         double gate_frac);

// Global relative L2 deviation sqrt(sum |delta zeta|^2 / sum |zeta_ref|^2)
// over all zeta coefficients. Aggregates over the whole coefficient set, so
// unlike the max metric it averages out which single coefficient a noise
// term lands on — the right metric for broadband effects like aliasing
// (the interlacing A/B test uses it).
double l2_rel_err(const ZetaResult& ref, const ZetaResult& other);

}  // namespace galactos::core
