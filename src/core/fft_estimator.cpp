#include "core/fft_estimator.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>

#include "util/timer.hpp"

namespace galactos::core {

using math::cplx;

void validate_fft_config(const EngineConfig& cfg) {
  GLX_CHECK_MSG(cfg.backend == EstimatorBackend::kFFT,
                "validate_fft_config on a non-FFT configuration");
  GLX_CHECK(cfg.lmax >= 0 && cfg.lmax <= 16);
  GLX_CHECK(cfg.bins.count() >= 1);
  const FftConfig& f = cfg.fft;
  GLX_CHECK_MSG(f.box_side > 0.0,
                "fft backend: fft.box_side must be set (> 0)");
  GLX_CHECK_MSG(math::is_pow2(f.grid_n) && f.grid_n >= 4,
                "fft backend: grid_n must be a power of two >= 4, got "
                    << f.grid_n);
  GLX_CHECK_MSG(cfg.los == LineOfSight::kPlaneParallelZ,
                "fft backend: only the plane-parallel +z line of sight is "
                "supported (a mesh convolution has one global LOS)");
  GLX_CHECK_MSG(!cfg.subtract_self_pairs,
                "fft backend: subtract_self_pairs is unsupported");
  GLX_CHECK_MSG(cfg.bins.rmin() > 0.0,
                "fft backend: bins.rmin() must be > 0 (the zero-lag cell "
                "holds the primary itself)");
  GLX_CHECK_MSG(!f.edge_antialias ||
                    cfg.bins.count() <= FftBinCells::kMaxAntialiasBins,
                "fft backend: edge_antialias supports at most "
                    << FftBinCells::kMaxAntialiasBins << " bins, got "
                    << cfg.bins.count());
  GLX_CHECK_MSG(cfg.bins.rmax() < 0.5 * f.box_side,
                "fft backend: bins.rmax() must be < box_side / 2 "
                "(minimum-image separations), got rmax = "
                    << cfg.bins.rmax() << " box_side = " << f.box_side);
}

FftBinCells FftBinCells::build(const RadialBins& bins, std::size_t n,
                               double h, std::size_t x_begin,
                               std::size_t x_end, bool edge_antialias) {
  GLX_CHECK(x_begin <= x_end && x_end <= n);
  GLX_CHECK(!edge_antialias || bins.count() <= kMaxAntialiasBins);
  FftBinCells out;
  const double rmax = bins.rmax();
  // Per-axis pruning margin: a cell can reach `rmax` if any point of its
  // cube can, so the antialiased list keeps cells whose center is up to h/2
  // per axis beyond the sharp cut.
  const double margin = edge_antialias ? 0.5 * h : 0.0;
  auto axis_min = [margin](double s) {
    return std::max(0.0, std::abs(s) - margin);
  };
  const double rmax2 = rmax * rmax;
  auto sgn = [n](std::size_t i) {
    return static_cast<double>(i <= n / 2
                                   ? static_cast<long long>(i)
                                   : static_cast<long long>(i) -
                                         static_cast<long long>(n));
  };
  constexpr int kSub = 4;  // supersampling per axis for straddling cells
  for (std::size_t ix = x_begin; ix < x_end; ++ix) {
    const double sx = sgn(ix) * h;
    if (axis_min(sx) * axis_min(sx) >= rmax2) continue;
    for (std::size_t iy = 0; iy < n; ++iy) {
      const double sy = sgn(iy) * h;
      const double sxy2 =
          axis_min(sx) * axis_min(sx) + axis_min(sy) * axis_min(sy);
      if (sxy2 >= rmax2) continue;
      const std::size_t base = ((ix - x_begin) * n + iy) * n;
      for (std::size_t iz = 0; iz < n; ++iz) {
        const double sz = sgn(iz) * h;
        const double r2 = sx * sx + sy * sy + sz * sz;
        if (r2 == 0.0) continue;  // zero lag: no direction, never binned
        const double r = std::sqrt(r2);
        const double ux = -sx / r, uy = -sy / r, uz = -sz / r;
        if (!edge_antialias) {
          if (r2 >= rmax2) continue;
          const int bin = bins.bin_of(r);
          if (bin < 0) continue;
          out.cells.push_back({base + iz, bin, 1.0, ux, uy, uz});
          continue;
        }
        // Radial extent of the cube [s - h/2, s + h/2]^3.
        const double rlo =
            std::sqrt(axis_min(sx) * axis_min(sx) +
                      axis_min(sy) * axis_min(sy) +
                      axis_min(sz) * axis_min(sz));
        const double rhi = std::sqrt((std::abs(sx) + margin) *
                                         (std::abs(sx) + margin) +
                                     (std::abs(sy) + margin) *
                                         (std::abs(sy) + margin) +
                                     (std::abs(sz) + margin) *
                                         (std::abs(sz) + margin));
        if (rhi <= bins.rmin() || rlo >= rmax) continue;
        const int blo = bins.bin_of(rlo);
        if (blo >= 0 && blo == bins.bin_of(rhi)) {
          out.cells.push_back({base + iz, blo, 1.0, ux, uy, uz});
          continue;
        }
        // Straddles an edge (or the in-range boundary): volume fractions.
        int counts[kMaxAntialiasBins] = {0};
        for (int a = 0; a < kSub; ++a) {
          const double ox = sx + ((a + 0.5) / kSub - 0.5) * h;
          for (int b = 0; b < kSub; ++b) {
            const double oy = sy + ((b + 0.5) / kSub - 0.5) * h;
            for (int c = 0; c < kSub; ++c) {
              const double oz = sz + ((c + 0.5) / kSub - 0.5) * h;
              const int sb =
                  bins.bin_of(std::sqrt(ox * ox + oy * oy + oz * oz));
              if (sb >= 0) ++counts[sb];
            }
          }
        }
        const double inv = 1.0 / (kSub * kSub * kSub);
        for (int bin = 0; bin < bins.count(); ++bin)
          if (counts[bin] > 0)
            out.cells.push_back(
                {base + iz, bin, counts[bin] * inv, ux, uy, uz});
      }
    }
  }
  return out;
}

void sample_ylm_bin_kernels(const math::SphHarmTable& ylm, int m,
                            const FftBinCells& cells, int nbins,
                            std::vector<std::vector<cplx>>& kernels,
                            int nthreads) {
  const int nf = (ylm.lmax() + 1 - m) * nbins;
  GLX_CHECK(m >= 0 && m <= ylm.lmax() &&
            kernels.size() >= static_cast<std::size_t>(nf));
  const long long ncells = static_cast<long long>(cells.cells.size());
#pragma omp parallel num_threads(nthreads)
  {
    for (int k = 0; k < nf; ++k) {
      std::vector<cplx>& kern = kernels[static_cast<std::size_t>(k)];
#pragma omp for schedule(static) nowait
      for (long long i = 0; i < static_cast<long long>(kern.size()); ++i)
        kern[static_cast<std::size_t>(i)] = cplx(0.0, 0.0);
    }
#pragma omp barrier
    // A cell entry of bin b writes only the meshes of bin b, and no two
    // entries share (idx, bin), so the fill is race-free.
#pragma omp for schedule(static)
    for (long long i = 0; i < ncells; ++i) {
      const FftBinCells::Cell& c = cells.cells[static_cast<std::size_t>(i)];
      for (int l = m; l <= ylm.lmax(); ++l)
        kernels[static_cast<std::size_t>((l - m) * nbins + c.bin)][c.idx] =
            c.weight * std::conj(ylm.eval(l, m, c.ux, c.uy, c.uz));
    }
  }
}

double assignment_window_1d(std::size_t j, std::size_t n, int order) {
  const long long js = j <= n / 2 ? static_cast<long long>(j)
                                  : static_cast<long long>(j) -
                                        static_cast<long long>(n);
  if (js == 0) return 1.0;
  const double x = M_PI * static_cast<double>(js) / static_cast<double>(n);
  return std::pow(std::sin(x) / x, order);
}

cplx interlace_phase(std::size_t jx, std::size_t jy, std::size_t jz,
                     std::size_t n) {
  auto sgn = [n](std::size_t j) {
    return j <= n / 2 ? static_cast<long long>(j)
                      : static_cast<long long>(j) -
                            static_cast<long long>(n);
  };
  const double ang = M_PI *
                     static_cast<double>(sgn(jx) + sgn(jy) + sgn(jz)) /
                     static_cast<double>(n);
  return cplx(std::cos(ang), std::sin(ang));
}

FftZetaAccumulator::FftZetaAccumulator(int lmax, int nbins)
    : lmax_(lmax),
      nbins_(nbins),
      llm_(lmax),
      zeta_(static_cast<std::size_t>(
                ZetaAccumulator::bin_pair_count(nbins)) *
                static_cast<std::size_t>(llm_.size()),
            cplx(0.0, 0.0)),
      xi_raw_(static_cast<std::size_t>(lmax + 1) *
                  static_cast<std::size_t>(nbins),
              0.0),
      counts_(static_cast<std::size_t>(nbins), 0.0) {}

void FftZetaAccumulator::count_primary(double wp) {
  sum_wp_ += wp;
  ++n_primaries_;
}

void FftZetaAccumulator::add_primary(int m, double wp, const cplx* v) {
  const int nllm = llm_.size();
  if (m == 0) {
    // a_00 = sum_j w_j / sqrt(4pi); Y_l0 = sqrt((2l+1)/4pi) P_l(mu).
    for (int b = 0; b < nbins_; ++b)
      counts_[b] += wp * std::sqrt(4.0 * M_PI) * v[b].real();
    for (int l = 0; l <= lmax_; ++l)
      for (int b = 0; b < nbins_; ++b)
        xi_raw_[static_cast<std::size_t>(l) * nbins_ + b] +=
            wp * std::sqrt(4.0 * M_PI / (2.0 * l + 1.0)) *
            v[static_cast<std::size_t>(l) * nbins_ + b].real();
  }
  for (int l = m; l <= lmax_; ++l) {
    const cplx* vl = v + static_cast<std::size_t>(l - m) * nbins_;
    for (int lp = m; lp <= lmax_; ++lp) {
      const cplx* vlp = v + static_cast<std::size_t>(lp - m) * nbins_;
      const int k = llm_.index(l, lp, m);
      for (int b1 = 0; b1 < nbins_; ++b1) {
        const cplx a1 = wp * vl[b1];
        std::size_t bp =
            static_cast<std::size_t>(b1 * nbins_ - b1 * (b1 - 1) / 2);
        for (int b2 = b1; b2 < nbins_; ++b2, ++bp)
          zeta_[bp * nllm + k] += a1 * std::conj(vlp[b2]);
      }
    }
  }
}

void FftZetaAccumulator::merge(const FftZetaAccumulator& other) {
  GLX_CHECK(other.lmax_ == lmax_ && other.nbins_ == nbins_);
  for (std::size_t i = 0; i < zeta_.size(); ++i) zeta_[i] += other.zeta_[i];
  for (std::size_t i = 0; i < xi_raw_.size(); ++i)
    xi_raw_[i] += other.xi_raw_[i];
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  sum_wp_ += other.sum_wp_;
  n_primaries_ += other.n_primaries_;
}

ZetaResult FftZetaAccumulator::finalize(const RadialBins& bins) const {
  ZetaResult r = ZetaResult::zero_like(bins, lmax_);
  GLX_CHECK(r.zeta_data.size() == zeta_.size() &&
            r.xi_raw.size() == xi_raw_.size() &&
            r.pair_counts.size() == counts_.size());
  r.n_primaries = n_primaries_;
  r.sum_primary_weight = sum_wp_;
  r.zeta_data = zeta_;
  r.pair_counts = counts_;
  r.xi_raw = xi_raw_;
  return r;
}

namespace {

void validate_primaries(std::size_t catalog_size,
                        const std::vector<std::int64_t>* primaries) {
  if (!primaries) return;
  std::vector<std::uint8_t> seen(catalog_size, 0);
  for (std::int64_t p : *primaries) {
    GLX_CHECK_MSG(p >= 0 && p < static_cast<std::int64_t>(catalog_size),
                  "primary index out of range: " << p);
    GLX_CHECK_MSG(!seen[static_cast<std::size_t>(p)],
                  "duplicate primary index: " << p);
    seen[static_cast<std::size_t>(p)] = 1;
  }
}

}  // namespace

ZetaResult fft_3pcf(const EngineConfig& cfg, const sim::Catalog& catalog,
                    const std::vector<std::int64_t>* primaries,
                    EngineStats* stats) {
  validate_fft_config(cfg);
  GLX_CHECK_MSG(!catalog.empty(), "empty catalog");
  validate_primaries(catalog.size(), primaries);

  Timer wall;
  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;

  const FftConfig& f = cfg.fft;
  const std::size_t n = f.grid_n;
  const std::size_t ncube = n * n * n;
  const double h = f.box_side / static_cast<double>(n);
  const int nbins = cfg.bins.count();
  const int lmax = cfg.lmax;
  const int nthreads = cfg.threads > 0 ? cfg.threads : omp_get_max_threads();
  const std::size_t nprim = primaries ? primaries->size() : catalog.size();

  // --- gridding ---
  Timer t;
  std::vector<double> mesh, mesh2;
  assign_to_mesh(catalog, f.assignment, n, f.box_side, 0.0, mesh);
  if (f.interlace)
    assign_to_mesh(catalog, f.assignment, n, f.box_side, 0.5, mesh2);
  st.phases.add("gridding", t.seconds());

  // --- density spectrum: interlace combine, then window compensation ---
  t.restart();
  std::vector<cplx> what;
  math::fft_r2c_3d(mesh.data(), 1, n, what);
  mesh.clear();
  mesh.shrink_to_fit();
  if (f.interlace) {
    std::vector<cplx> w2;
    math::fft_r2c_3d(mesh2.data(), 1, n, w2);
    mesh2.clear();
    mesh2.shrink_to_fit();
#pragma omp parallel for schedule(static) collapse(2) num_threads(nthreads)
    for (long long jx = 0; jx < static_cast<long long>(n); ++jx)
      for (long long jy = 0; jy < static_cast<long long>(n); ++jy) {
        const std::size_t base =
            (static_cast<std::size_t>(jx) * n + static_cast<std::size_t>(jy)) *
            n;
        for (std::size_t jz = 0; jz < n; ++jz) {
          const cplx ph = interlace_phase(static_cast<std::size_t>(jx),
                                          static_cast<std::size_t>(jy), jz, n);
          what[base + jz] = 0.5 * (what[base + jz] + ph * w2[base + jz]);
        }
      }
  }
  if (f.compensate) {
    const int order = assignment_order(f.assignment);
    std::vector<double> win(n);
    for (std::size_t j = 0; j < n; ++j)
      win[j] = assignment_window_1d(j, n, order);
#pragma omp parallel for schedule(static) collapse(2) num_threads(nthreads)
    for (long long jx = 0; jx < static_cast<long long>(n); ++jx)
      for (long long jy = 0; jy < static_cast<long long>(n); ++jy) {
        const std::size_t base =
            (static_cast<std::size_t>(jx) * n + static_cast<std::size_t>(jy)) *
            n;
        const double wxy = win[static_cast<std::size_t>(jx)] *
                           win[static_cast<std::size_t>(jy)];
        for (std::size_t jz = 0; jz < n; ++jz) {
          // Squared: deconvolve assignment AND the field interpolation back
          // at the primaries.
          const double u = wxy * win[jz];
          what[base + jz] /= u * u;
        }
      }
  }
  st.phases.add("density fft", t.seconds());

  // Without interlacing the combined spectrum is Hermitian to round-off, so
  // the m == 0 fields (real kernels) can use the half-cost c2r inverse,
  // written in place into the real parts of their meshes. The interlace
  // phase breaks exact Hermitian symmetry at the Nyquist planes, so that
  // path keeps fields complex throughout.
  const bool m0_real = !f.interlace;

  const FftBinCells cells =
      FftBinCells::build(cfg.bins, n, h, 0, n, f.edge_antialias);
  const math::SphHarmTable ylm(lmax);

  std::vector<FftZetaAccumulator> acc(
      static_cast<std::size_t>(nthreads), FftZetaAccumulator(lmax, nbins));

  // One mesh per (l, b) field of the m = 0 pass, allocated (and first
  // touched) in parallel once per solve; pass m reuses the first
  // (lmax + 1 - m) * nbins of them. Each mesh holds a sampled kernel, then
  // its spectrum, then its a_lm field.
  std::vector<std::vector<cplx>> fields(
      static_cast<std::size_t>((lmax + 1) * nbins));
#pragma omp parallel for schedule(static, 1) num_threads(nthreads)
  for (long long k = 0; k < static_cast<long long>(fields.size()); ++k)
    fields[static_cast<std::size_t>(k)].resize(ncube);

  for (int m = 0; m <= lmax; ++m) {
    const int nf = (lmax + 1 - m) * nbins;
    // Real fields are stored in place as the real parts of their meshes.
    const bool real_fields = m0_real && m == 0;

    t.restart();
    sample_ylm_bin_kernels(ylm, m, cells, nbins, fields, nthreads);
    for (int k = 0; k < nf; ++k) {
      std::vector<cplx>& fld = fields[static_cast<std::size_t>(k)];
      math::fft_3d(fld, n, -1);
#pragma omp parallel for schedule(static) num_threads(nthreads)
      for (long long i = 0; i < static_cast<long long>(ncube); ++i)
        fld[static_cast<std::size_t>(i)] *= what[static_cast<std::size_t>(i)];
      if (real_fields)
        math::fft_c2r_3d(fld, n, reinterpret_cast<double*>(fld.data()), 2);
      else
        math::fft_3d(fld, n, +1);
    }
    st.phases.add("kernel fft + convolution", t.seconds());

    // --- interpolate the a_lm fields at each primary and accumulate ---
    t.restart();
#pragma omp parallel num_threads(nthreads)
    {
      const int tid = omp_get_thread_num();
      FftZetaAccumulator& a = acc[static_cast<std::size_t>(tid)];
      std::vector<cplx> v(static_cast<std::size_t>(nf));
      double sw[27];
      std::size_t sidx[27];
#pragma omp for schedule(static)
      for (long long i = 0; i < static_cast<long long>(nprim); ++i) {
        const std::size_t p = primaries
                                  ? static_cast<std::size_t>(
                                        (*primaries)[static_cast<std::size_t>(i)])
                                  : static_cast<std::size_t>(i);
        const AxisStencil sx =
            axis_stencil(f.assignment, catalog.x[p], h, n, 0.0);
        const AxisStencil sy =
            axis_stencil(f.assignment, catalog.y[p], h, n, 0.0);
        const AxisStencil sz =
            axis_stencil(f.assignment, catalog.z[p], h, n, 0.0);
        int ns = 0;
        for_each_stencil_cell(sx, sy, sz, n,
                              [&](double w, std::size_t idx) {
                                sw[ns] = w;
                                sidx[ns] = idx;
                                ++ns;
                              });
        for (int k = 0; k < nf; ++k) {
          const cplx* fld = fields[static_cast<std::size_t>(k)].data();
          if (real_fields) {
            double s = 0.0;
            for (int c = 0; c < ns; ++c) s += sw[c] * fld[sidx[c]].real();
            v[static_cast<std::size_t>(k)] = s;
          } else {
            cplx s(0.0, 0.0);
            for (int c = 0; c < ns; ++c) s += sw[c] * fld[sidx[c]];
            v[static_cast<std::size_t>(k)] = s;
          }
        }
        const double wp = catalog.w[p];
        if (m == 0) a.count_primary(wp);
        a.add_primary(m, wp, v.data());
      }
    }
    st.phases.add("interpolate+zeta", t.seconds());
  }

  t.restart();
  for (int tid = 1; tid < nthreads; ++tid)
    acc[0].merge(acc[static_cast<std::size_t>(tid)]);
  ZetaResult result = acc[0].finalize(cfg.bins);
  st.phases.add("merge", t.seconds());
  st.wall_seconds = wall.seconds();
  return result;
}

FftEstimator::FftEstimator(EngineConfig cfg) : Estimator(std::move(cfg)) {
  validate_fft_config(cfg_);
}

ZetaResult FftEstimator::run(const sim::Catalog& catalog,
                             const std::vector<std::int64_t>* primaries,
                             EngineStats* stats) const {
  return fft_3pcf(cfg_, catalog, primaries, stats);
}

}  // namespace galactos::core
