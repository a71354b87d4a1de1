#include "core/alm.hpp"

#include <algorithm>
#include <cmath>

#include "math/legendre.hpp"

namespace galactos::core {

void compute_alm(const math::SphHarmTable& table,
                 const MultipoleAccumulator& acc, std::complex<double>* alm,
                 std::uint8_t* touched) {
  const int nbins = acc.config().nbins;
  const int nlm = math::nlm(table.lmax());
  for (int b = 0; b < nbins; ++b) {
    touched[b] = acc.bin_touched(b) ? 1 : 0;
    if (!touched[b]) continue;
    table.alm_from_power_sums(acc.power_sums(b),
                              alm + static_cast<std::size_t>(b) * nlm);
  }
}

SelfPairTable::SelfPairTable(const math::SphHarmTable& table,
                             const LlmIndex& llm)
    : lmax_(llm.lmax()), nllm_(llm.size()) {
  GLX_CHECK(table.lmax() == lmax_);
  const int nmom = n_moments();
  std::vector<double> nodes, weights;
  math::gauss_legendre(nmom, nodes, weights);

  // At phi = 0 every Y_lm is real: g[i][L] = (2L+1)/2 *
  // sum_k weight_k Y_lm(mu_k) Y_l'm(mu_k) P_L(mu_k).
  std::vector<double> ylm(math::nlm(lmax_)), pl(nmom);
  g_.assign(static_cast<std::size_t>(nllm_) * nmom, 0.0);
  for (int k = 0; k < nmom; ++k) {
    const double mu = nodes[k];
    const double s = std::sqrt(std::max(0.0, 1.0 - mu * mu));
    for (int l = 0; l <= lmax_; ++l)
      for (int m = 0; m <= l; ++m)
        ylm[math::lm_index(l, m)] = table.eval(l, m, s, 0.0, mu).real();
    math::legendre_all(nmom - 1, mu, pl.data());
    for (int L = 0; L < nmom; ++L) pl[L] *= weights[k] * (L + 0.5);
    for (int i = 0; i < nllm_; ++i) {
      const double f = ylm[llm.alm_index_1()[i]] * ylm[llm.alm_index_2()[i]];
      double* row = g_.data() + static_cast<std::size_t>(i) * nmom;
      for (int L = 0; L < nmom; ++L) row[L] += f * pl[L];
    }
  }
}

void SelfPairTable::expand(const double* moments, double* self) const {
  const int nmom = n_moments();
  for (int i = 0; i < nllm_; ++i) {
    const double* row = g_.data() + static_cast<std::size_t>(i) * nmom;
    double s = 0.0;
    for (int L = 0; L < nmom; ++L) s += row[L] * moments[L];
    self[i] = s;
  }
}

SelfPairAccumulator::SelfPairAccumulator(const SelfPairTable& table,
                                         int nbins)
    : table_(&table), nbins_(nbins), nmom_(table.n_moments()) {
  rec_a_.assign(nmom_, 0.0);
  rec_b_.assign(nmom_, 0.0);
  for (int L = 2; L < nmom_; ++L) {
    rec_a_[L] = (2.0 * L - 1.0) / L;
    rec_b_[L] = (L - 1.0) / L;
  }
  moments_.assign(static_cast<std::size_t>(nbins) * nmom_, 0.0);
}

void SelfPairAccumulator::add(int bin, double uz, double w) {
  GLX_DCHECK(bin >= 0 && bin < nbins_);
  const double s = wp_ * w * w;
  double* __restrict row =
      moments_.data() + static_cast<std::size_t>(bin) * nmom_;
  row[0] += s;
  if (nmom_ == 1) return;
  // Bonnet recurrence on mu = uz; stable for |mu| <= 1.
  double p0 = 1.0, p1 = uz;
  row[1] += s * p1;
  for (int L = 2; L < nmom_; ++L) {
    const double p2 = rec_a_[L] * uz * p1 - rec_b_[L] * p0;
    row[L] += s * p2;
    p0 = p1;
    p1 = p2;
  }
}

void SelfPairAccumulator::fold_into(ZetaAccumulator& zeta) {
  GLX_CHECK(zeta.lmax() == table_->lmax() && zeta.nbins() == nbins_);
  std::vector<double> self(static_cast<std::size_t>(zeta.llm().size()));
  for (int b = 0; b < nbins_; ++b) {
    double* row = moments_.data() + static_cast<std::size_t>(b) * nmom_;
    table_->expand(row, self.data());
    zeta.subtract_self(b, self.data());
    std::fill(row, row + nmom_, 0.0);
  }
}

}  // namespace galactos::core
