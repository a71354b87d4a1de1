#include "core/zeta.hpp"

#include <algorithm>
#include <cmath>

#include "core/kernel.hpp"
#include "core/kernel_isa.hpp"
#include "math/sph_table.hpp"

namespace galactos::core {

LlmIndex::LlmIndex(int lmax) : lmax_(lmax) {
  GLX_CHECK(lmax >= 0);
  // m-major ordering: the zeta hot loop runs contiguously over lp.
  for (int m = 0; m <= lmax; ++m)
    for (int l = m; l <= lmax; ++l)
      for (int lp = m; lp <= lmax; ++lp) {
        triples_.push_back({l, lp, m});
        alm1_.push_back(math::lm_index(l, m));
        alm2_.push_back(math::lm_index(lp, m));
      }
}

ZetaAccumulator::ZetaAccumulator(int lmax, int nbins)
    : nbins_(nbins), llm_(lmax) {
  GLX_CHECK(nbins >= 1);
  static_assert(kBatch >= 1 && kBatch <= 32, "one mask bit per batch slot");
  const std::size_t total =
      static_cast<std::size_t>(bin_pair_count(nbins)) * llm_.size();
  re_.assign(total, 0.0);
  im_.assign(total, 0.0);
  const std::size_t nlm = static_cast<std::size_t>(math::nlm(lmax));
  tr_re_.assign(static_cast<std::size_t>(nbins) * nlm, 0.0);
  tr_im_.assign(static_cast<std::size_t>(nbins) * nlm, 0.0);
  tb_re_.assign(static_cast<std::size_t>(nbins) * nlm, 0.0);
  tb_im_.assign(static_cast<std::size_t>(nbins) * nlm, 0.0);
  row_off_.resize(static_cast<std::size_t>(lmax) + 1);
  for (int m = 0; m <= lmax; ++m) {
    row_off_[m] = row_len_;
    row_len_ += (lmax + 1 - m + kLanes - 1) / kLanes * kLanes;
  }
}

void ZetaAccumulator::add_primary(double wp, const std::complex<double>* alm,
                                  const std::uint8_t* touched) {
  const int lmax = llm_.lmax();
  const int nlm = math::nlm(lmax);
  const std::size_t rec = static_cast<std::size_t>(row_len_);
  if (batch_re_.empty()) {
    const std::size_t n = static_cast<std::size_t>(nbins_) * kBatch * rec;
    batch_re_.assign(n, 0.0);  // row padding stays zero for good
    batch_im_.assign(n, 0.0);
    scaled_re_.assign(kBatch * rec, 0.0);
    scaled_im_.assign(kBatch * rec, 0.0);
    batch_mask_.assign(static_cast<std::size_t>(nbins_), 0u);
  }

  // Transpose touched bins' a_lm into this slot's m-major rows.
  const int p = batch_n_;
  batch_wp_[p] = wp;
  for (int b = 0; b < nbins_; ++b) {
    if (!touched[b]) continue;
    batch_mask_[b] |= 1u << p;
    const std::complex<double>* a =
        alm + static_cast<std::size_t>(b) * nlm;
    const std::size_t at = (static_cast<std::size_t>(b) * kBatch + p) * rec;
    double* tr = batch_re_.data() + at;
    double* ti = batch_im_.data() + at;
    for (int m = 0; m <= lmax; ++m)
      for (int l = m; l <= lmax; ++l) {
        const std::complex<double> v = a[math::lm_index(l, m)];
        const int k = row_off_[m] + (l - m);
        tr[k] = v.real();
        ti[k] = v.imag();
      }
  }
  sum_wp_ += wp;
  n_primaries_ += 1;
  if (++batch_n_ == kBatch) flush();
}

void ZetaAccumulator::flush() {
  if (batch_n_ == 0) return;
  ZetaBatchView v;
  v.lmax = llm_.lmax();
  v.nbins = nbins_;
  v.capacity = kBatch;
  v.row_len = row_len_;
  v.row_off = row_off_.data();
  v.wp = batch_wp_;
  v.mask = batch_mask_.data();
  v.ar = batch_re_.data();
  v.ai = batch_im_.data();
  v.scaled_re = scaled_re_.data();
  v.scaled_im = scaled_im_.data();
  v.re = re_.data();
  v.im = im_.data();
  switch (kernel_isa()) {
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
    case KernelIsa::kAvx512:
      isa_avx512::zeta_flush(v);
      break;
#endif
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
    case KernelIsa::kAvx2:
      isa_avx2::zeta_flush(v);
      break;
#endif
    default:
      isa_scalar::zeta_flush(v);
      break;
  }
  std::fill(batch_mask_.begin(), batch_mask_.end(), 0u);
  batch_n_ = 0;
}

void ZetaAccumulator::check_flushed() const {
  GLX_CHECK_MSG(batch_n_ == 0, "ZetaAccumulator read with "
                                   << batch_n_
                                   << " primaries pending: call flush() first");
}

void ZetaAccumulator::add_primary_cross(double wp,
                                        const std::complex<double>* alm_a,
                                        const std::uint8_t* touched_a,
                                        const std::complex<double>* alm_b,
                                        const std::uint8_t* touched_b) {
  flush();
  const int lmax = llm_.lmax();
  const int nlm = math::nlm(lmax);

  // Transpose every active bin's A and B planes to m-major; a side
  // untouched in a bin gets an explicit zero plane (the scratch is reused
  // across primaries, so stale data must be cleared).
  for (int b = 0; b < nbins_; ++b) {
    if (!touched_a[b] && !touched_b[b]) continue;
    double* ar = tr_re_.data() + static_cast<std::size_t>(b) * nlm;
    double* ai = tr_im_.data() + static_cast<std::size_t>(b) * nlm;
    double* br = tb_re_.data() + static_cast<std::size_t>(b) * nlm;
    double* bi = tb_im_.data() + static_cast<std::size_t>(b) * nlm;
    const std::complex<double>* a = alm_a + static_cast<std::size_t>(b) * nlm;
    const std::complex<double>* bb = alm_b + static_cast<std::size_t>(b) * nlm;
    for (int m = 0; m <= lmax; ++m)
      for (int l = m; l <= lmax; ++l) {
        const int k = ml_index(m, l);
        if (touched_a[b]) {
          const std::complex<double> v = a[math::lm_index(l, m)];
          ar[k] = v.real();
          ai[k] = v.imag();
        } else {
          ar[k] = 0.0;
          ai[k] = 0.0;
        }
        if (touched_b[b]) {
          const std::complex<double> v = bb[math::lm_index(l, m)];
          br[k] = v.real();
          bi[k] = v.imag();
        } else {
          br[k] = 0.0;
          bi[k] = 0.0;
        }
      }
  }

  const int nllm = llm_.size();
  for (int b1 = 0; b1 < nbins_; ++b1) {
    if (!touched_a[b1] && !touched_b[b1]) continue;
    const double* a1r = tr_re_.data() + static_cast<std::size_t>(b1) * nlm;
    const double* a1i = tr_im_.data() + static_cast<std::size_t>(b1) * nlm;
    const double* b1r = tb_re_.data() + static_cast<std::size_t>(b1) * nlm;
    const double* b1i = tb_im_.data() + static_cast<std::size_t>(b1) * nlm;
    for (int b2 = b1; b2 < nbins_; ++b2) {
      if (!touched_a[b2] && !touched_b[b2]) continue;
      // A(b1) A*(b2) was pass 1's job; a pair with no B on either side
      // adds nothing here.
      if (!touched_b[b1] && !touched_b[b2]) continue;
      const double* a2r = tr_re_.data() + static_cast<std::size_t>(b2) * nlm;
      const double* a2i = tr_im_.data() + static_cast<std::size_t>(b2) * nlm;
      const double* b2r = tb_re_.data() + static_cast<std::size_t>(b2) * nlm;
      const double* b2i = tb_im_.data() + static_cast<std::size_t>(b2) * nlm;
      const std::size_t base =
          static_cast<std::size_t>(bin_pair(b1, b2)) * nllm;
      double* __restrict outr = re_.data() + base;
      double* __restrict outi = im_.data() + base;
      int idx = 0;
      for (int m = 0; m <= lmax; ++m) {
        const int cnt = lmax + 1 - m;
        const int off = ml_index(m, m);
        const double* __restrict xar = a2r + off;
        const double* __restrict xai = a2i + off;
        const double* __restrict xbr = b2r + off;
        const double* __restrict xbi = b2i + off;
        for (int l = m; l <= lmax; ++l) {
          // out += wp * [A1 conj(B2) + B1 conj(A2 + B2)] over contiguous l'.
          const int k1 = ml_index(m, l);
          const double ar = wp * a1r[k1], ai = wp * a1i[k1];
          const double br = wp * b1r[k1], bi = wp * b1i[k1];
          double* __restrict r = outr + idx;
          double* __restrict i = outi + idx;
#pragma omp simd
          for (int k = 0; k < cnt; ++k) {
            const double sr = xar[k] + xbr[k];
            const double si = xai[k] + xbi[k];
            r[k] += ar * xbr[k] + ai * xbi[k] + br * sr + bi * si;
            i[k] += ai * xbr[k] - ar * xbi[k] + bi * sr - br * si;
          }
          idx += cnt;
        }
      }
    }
  }
}

void ZetaAccumulator::subtract_self(int bin, const double* self) {
  flush();
  const int nllm = llm_.size();
  const std::size_t base =
      static_cast<std::size_t>(bin_pair(bin, bin)) * nllm;
  for (int i = 0; i < nllm; ++i) re_[base + i] -= self[i];
}

void ZetaAccumulator::merge(const ZetaAccumulator& other) {
  GLX_CHECK(other.nbins_ == nbins_ && other.llm_.lmax() == llm_.lmax());
  other.check_flushed();
  flush();
  for (std::size_t i = 0; i < re_.size(); ++i) {
    re_[i] += other.re_[i];
    im_[i] += other.im_[i];
  }
  sum_wp_ += other.sum_wp_;
  n_primaries_ += other.n_primaries_;
}

std::complex<double> ZetaAccumulator::raw(int b1, int b2, int l, int lp,
                                          int m) const {
  check_flushed();
  if (b1 <= b2) {
    const std::size_t i =
        static_cast<std::size_t>(bin_pair(b1, b2)) * llm_.size() +
        llm_.index(l, lp, m);
    return {re_[i], im_[i]};
  }
  const std::size_t i =
      static_cast<std::size_t>(bin_pair(b2, b1)) * llm_.size() +
      llm_.index(lp, l, m);
  return {re_[i], -im_[i]};
}

std::vector<std::complex<double>> ZetaAccumulator::snapshot() const {
  check_flushed();
  std::vector<std::complex<double>> out(re_.size());
  for (std::size_t i = 0; i < re_.size(); ++i) out[i] = {re_[i], im_[i]};
  return out;
}

std::complex<double> ZetaResult::zeta_m(int b1, int b2, int l, int lp,
                                        int m) const {
  const int nb = bins.count();
  GLX_CHECK(b1 >= 0 && b1 < nb && b2 >= 0 && b2 < nb);
  GLX_CHECK(l >= 0 && l <= lmax && lp >= 0 && lp <= lmax && m >= 0 &&
            m <= std::min(l, lp));
  const std::size_t nllm = static_cast<std::size_t>(LlmIndex::count(lmax));
  auto bp = [&](int a, int b) { return a * nb - a * (a - 1) / 2 + (b - a); };
  if (b1 <= b2)
    return zeta_data[static_cast<std::size_t>(bp(b1, b2)) * nllm +
                     LlmIndex::position(lmax, l, lp, m)];
  return std::conj(zeta_data[static_cast<std::size_t>(bp(b2, b1)) * nllm +
                             LlmIndex::position(lmax, lp, l, m)]);
}

std::complex<double> ZetaResult::zeta_m_mean(int b1, int b2, int l, int lp,
                                             int m) const {
  GLX_CHECK(sum_primary_weight != 0.0);
  return zeta_m(b1, b2, l, lp, m) / sum_primary_weight;
}

double ZetaResult::isotropic(int l, int b1, int b2) const {
  // sum over all m in [-l, l]: m=0 term plus twice the real part for m>0.
  double s = zeta_m(b1, b2, l, l, 0).real();
  for (int m = 1; m <= l; ++m) s += 2.0 * zeta_m(b1, b2, l, l, m).real();
  return 4.0 * M_PI / (2.0 * l + 1.0) * s;
}

double ZetaResult::xi_raw_at(int l, int bin) const {
  GLX_CHECK(l >= 0 && l <= lmax && bin >= 0 && bin < bins.count());
  return xi_raw[static_cast<std::size_t>(l) * bins.count() + bin];
}

double ZetaResult::xi_l(int l, int bin, double nbar) const {
  const double rr = sum_primary_weight * nbar * bins.shell_volume(bin);
  GLX_CHECK(rr > 0);
  const double v = (2.0 * l + 1.0) * xi_raw_at(l, bin) / rr;
  return l == 0 ? v - 1.0 : v;
}

void ZetaResult::check_compatible(const ZetaResult& other) const {
  GLX_CHECK(other.lmax == lmax);
  GLX_CHECK(other.bins.count() == bins.count());
  GLX_CHECK(other.zeta_data.size() == zeta_data.size());
  GLX_CHECK(other.xi_raw.size() == xi_raw.size());
}

ZetaResult ZetaResult::zero_like(const RadialBins& bins, int lmax) {
  ZetaResult r;
  r.bins = bins;
  r.lmax = lmax;
  const std::size_t npairs =
      static_cast<std::size_t>(ZetaAccumulator::bin_pair_count(bins.count()));
  r.zeta_data.assign(npairs * LlmIndex(lmax).size(), {0.0, 0.0});
  r.pair_counts.assign(static_cast<std::size_t>(bins.count()), 0.0);
  r.xi_raw.assign(static_cast<std::size_t>(lmax + 1) * bins.count(), 0.0);
  return r;
}

std::vector<double> ZetaResult::reduce_payload() const {
  std::vector<double> p;
  p.reserve(1 + 2 * zeta_data.size() + pair_counts.size() + xi_raw.size());
  p.push_back(sum_primary_weight);
  for (const std::complex<double>& z : zeta_data) {
    p.push_back(z.real());
    p.push_back(z.imag());
  }
  p.insert(p.end(), pair_counts.begin(), pair_counts.end());
  p.insert(p.end(), xi_raw.begin(), xi_raw.end());
  return p;
}

void ZetaResult::set_reduce_payload(const std::vector<double>& payload) {
  GLX_CHECK(payload.size() ==
            1 + 2 * zeta_data.size() + pair_counts.size() + xi_raw.size());
  std::size_t k = 0;
  sum_primary_weight = payload[k++];
  for (std::complex<double>& z : zeta_data) {
    const double re = payload[k++];
    const double im = payload[k++];
    z = {re, im};
  }
  for (double& v : pair_counts) v = payload[k++];
  for (double& v : xi_raw) v = payload[k++];
}

void ZetaResult::accumulate(const ZetaResult& other) {
  check_compatible(other);
  n_primaries += other.n_primaries;
  sum_primary_weight += other.sum_primary_weight;
  n_pairs += other.n_pairs;
  for (std::size_t i = 0; i < zeta_data.size(); ++i)
    zeta_data[i] += other.zeta_data[i];
  for (std::size_t i = 0; i < pair_counts.size(); ++i)
    pair_counts[i] += other.pair_counts[i];
  for (std::size_t i = 0; i < xi_raw.size(); ++i)
    xi_raw[i] += other.xi_raw[i];
}

double max_gated_rel_err(const ZetaResult& ref, const ZetaResult& other,
                         double gate_frac) {
  ref.check_compatible(other);
  double zmax = 0.0;
  for (const std::complex<double>& z : ref.zeta_data)
    zmax = std::max(zmax, std::abs(z));
  const double gate = gate_frac * zmax;
  double err = 0.0;
  for (std::size_t i = 0; i < ref.zeta_data.size(); ++i) {
    const double mag = std::abs(ref.zeta_data[i]);
    if (mag < gate) continue;
    err = std::max(err, std::abs(ref.zeta_data[i] - other.zeta_data[i]) / mag);
  }
  for (std::size_t b = 0; b < ref.pair_counts.size(); ++b)
    if (ref.pair_counts[b] != 0.0)
      err = std::max(err, std::abs(ref.pair_counts[b] - other.pair_counts[b]) /
                              std::abs(ref.pair_counts[b]));
  return err;
}

double l2_rel_err(const ZetaResult& ref, const ZetaResult& other) {
  ref.check_compatible(other);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.zeta_data.size(); ++i) {
    num += std::norm(ref.zeta_data[i] - other.zeta_data[i]);
    den += std::norm(ref.zeta_data[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

}  // namespace galactos::core
