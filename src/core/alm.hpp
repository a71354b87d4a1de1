// Per-primary a_lm assembly and the optional self-pair correction.
//
// After the kernel has reduced a primary's power sums, a_lm(bin) follows
// from the precomputed Y_lm monomial tables (math/sph_table.hpp). For
// diagonal bin pairs (r1 and r2 in the same shell) the product
// a_lm(b) a*_l'm(b) includes the degenerate j == k terms — "triangles"
// whose two secondaries are the same galaxy — which subtract_self_pairs
// removes exactly (validated against the brute-force oracle both ways):
//
//   self_b[l, l', m] = sum_p w_p sum_{j in b} w_j^2 conj(Y_lm(u_j)) Y_l'm(u_j).
//
// Only same-m products are stored, so the e^{i m phi} factors cancel and
// conj(Y_lm) Y_l'm = K_lm K_l'm P_l^m(mu) P_l'^m(mu) is real, depends on
// mu = u_z alone and is a polynomial of degree l + l' <= 2 lmax. It is
// therefore a fixed linear combination of Legendre polynomials,
//
//   conj(Y_lm) Y_l'm (mu) = sum_{L=0}^{2 lmax} g[llm][L] P_L(mu),
//
// (the Gaunt contraction with no phi dependence left), and the self term is
// the same linear map applied to the weighted Legendre moments
// sum_p w_p sum_j w_j^2 P_L(mu_j). SelfPairTable holds g; the accumulator
// runs one three-term recurrence per secondary (2 lmax + 1 FMAs) and expands
// the moments into the zeta planes once, when its thread finishes.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "core/kernel.hpp"
#include "core/zeta.hpp"
#include "math/sph_table.hpp"

namespace galactos::core {

// Computes alm[bin][lm] for every touched bin of `acc`; untouched bins are
// left unmodified (callers consult `touched`). alm must hold
// nbins * nlm(lmax) complex entries; touched must hold nbins flags.
void compute_alm(const math::SphHarmTable& table,
                 const MultipoleAccumulator& acc, std::complex<double>* alm,
                 std::uint8_t* touched);

// Legendre coefficients g[llm][L] of conj(Y_lm) Y_l'm for every LlmIndex
// entry. Built by Gauss–Legendre quadrature with 2 lmax + 1 nodes of
// SphHarmTable::eval at phi = 0, which is exact for the degree <= 4 lmax
// integrands.
class SelfPairTable {
 public:
  SelfPairTable(const math::SphHarmTable& table, const LlmIndex& llm);

  int lmax() const { return lmax_; }
  int n_moments() const { return 2 * lmax_ + 1; }
  // self[i] = sum_L g[i][L] moments[L] for every LlmIndex entry i.
  void expand(const double* moments, double* self) const;

 private:
  int lmax_;
  int nllm_;
  std::vector<double> g_;  // [llm][L]
};

// Per-thread self-pair moments: moments[bin][L] = sum_p w_p sum_j w_j^2
// P_L(u_z,j) over every secondary added since construction.
class SelfPairAccumulator {
 public:
  SelfPairAccumulator(const SelfPairTable& table, int nbins);

  // Weight of the primary whose secondaries follow.
  void start_primary(double wp) { wp_ = wp; }
  // Adds one secondary in `bin` with LOS-frame direction cosine uz and
  // weight w.
  void add(int bin, double uz, double w);
  // Subtracts the accumulated self terms from zeta's diagonal bin pairs and
  // clears the moments.
  void fold_into(ZetaAccumulator& zeta);

 private:
  const SelfPairTable* table_;
  int nbins_;
  int nmom_;
  double wp_ = 0.0;
  std::vector<double> rec_a_, rec_b_;  // P_L = a_L mu P_{L-1} - b_L P_{L-2}
  std::vector<double> moments_;        // [nbins][nmom]
};

}  // namespace galactos::core
