#include "dist/fft_slab.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "core/fft_estimator.hpp"
#include "core/gridder.hpp"
#include "dist/tags.hpp"
#include "math/fft.hpp"
#include "math/sph_table.hpp"
#include "util/timer.hpp"

namespace galactos::dist {

using core::AxisStencil;
using math::cplx;

namespace {

// Distributed 3-D FFT over x-slabs. Forward input is the x-slab layout
// data[((ix - x0) * n + iy) * n + iz]; the z- and y-line passes are local,
// then an all-to-all transpose re-slabs over y and the x-line pass runs
// locally. The spectrum is therefore left in the TRANSPOSED y-slab layout
// spec[((jy - y0) * n + jx) * n + jz] — pointwise spectral work only needs
// (jx, jy, jz) recoverable from the index, which it is. inverse() undoes
// the trip (x-lines, transpose back, y-lines, z-lines), restoring x-slab
// layout with the full 1/n^3 normalization (fft_lines divides by n per
// inverse pass).
class SlabFft {
 public:
  SlabFft(Comm& comm, std::size_t n, int nthreads)
      : comm_(comm),
        n_(n),
        nloc_(n / static_cast<std::size_t>(comm.size())),
        nthreads_(nthreads) {}

  std::size_t planes() const { return nloc_; }

  void forward(std::vector<cplx>& a) {
    line_pass_z(a, -1);
    line_pass_strided(a, -1);  // y-lines in x-slab layout
    transpose(a);
    line_pass_strided(a, -1);  // x-lines in y-slab layout
  }

  void inverse(std::vector<cplx>& a) {
    line_pass_strided(a, +1);  // x-lines
    transpose(a);
    line_pass_strided(a, +1);  // y-lines
    line_pass_z(a, +1);
  }

 private:
  // Innermost-axis lines are contiguous in both layouts.
  void line_pass_z(std::vector<cplx>& a, int sign) {
    math::fft_lines(a.data(), n_, {1, n_, nloc_ * n_}, sign, nthreads_);
  }

  // Middle-axis lines: stride n_ at fixed (outer plane, iz) in either
  // layout (y-lines before the transpose, x-lines after).
  void line_pass_strided(std::vector<cplx>& a, int sign) {
    math::fft_lines(a.data(), n_, {n_, 1, n_, nloc_, n_ * n_}, sign,
                    nthreads_);
  }

  // All-to-all block exchange between x-slab and y-slab layouts — the SAME
  // index mapping in both directions (it is an involution: pack rows
  // (o, q * L + d), unpack to (d, src * L + o)). Block (src -> dst)
  // carries nloc_ * nloc_ * n_ values packed [outer_local][dst_local][iz].
  // One buffered send per peer, then deterministic in-order receives —
  // same-tag reuse across sequential transposes is safe (FIFO per
  // channel).
  void transpose(std::vector<cplx>& a) {
    const int P = comm_.size();
    const int r = comm_.rank();
    const std::size_t L = nloc_;
    std::vector<cplx> out(a.size());
    std::vector<cplx> block(L * L * n_);
    // In both directions the pack reads rows (o, q * L + d) of the current
    // layout and the unpack writes rows (d, src * L + o) of the new one.
    for (int q = 0; q < P; ++q) {
      for (std::size_t o = 0; o < L; ++o)
        for (std::size_t d = 0; d < L; ++d) {
          const std::size_t mid = static_cast<std::size_t>(q) * L + d;
          std::copy_n(a.data() + (o * n_ + mid) * n_, n_,
                      block.data() + (o * L + d) * n_);
        }
      if (q == r) {
        unpack(out, block, r);
      } else {
        comm_.send(q, tags::kFftTranspose, block);
      }
    }
    for (int q = 0; q < P; ++q) {
      if (q == r) continue;
      const std::vector<cplx> got = comm_.recv<cplx>(q, tags::kFftTranspose);
      GLX_CHECK(got.size() == L * L * n_);
      unpack(out, got, q);
    }
    a.swap(out);
  }

  void unpack(std::vector<cplx>& out, const std::vector<cplx>& block,
              int src) {
    const std::size_t L = nloc_;
    for (std::size_t o = 0; o < L; ++o)
      for (std::size_t d = 0; d < L; ++d) {
        const std::size_t mid = static_cast<std::size_t>(src) * L + o;
        std::copy_n(block.data() + (o * L + d) * n_, n_,
                    out.data() + (d * n_ + mid) * n_);
      }
  }

  Comm& comm_;
  std::size_t n_, nloc_;
  int nthreads_;
};

// Wraps v into [0, span).
inline double wrap_coord(double v, double span) {
  const double w = v - span * std::floor(v / span);
  return w >= span ? 0.0 : w;
}

// Mass assignment of `local` points into this rank's slab plus kSpill
// boundary planes each side (unwrapped AxisStencil::lo indexes straight
// into the widened buffer), then nearest-neighbor exchange folds the spill
// planes onto their owners. Output: owned planes only, x-slab layout.
constexpr std::size_t kSpill = 2;  // TSC + half-cell interlace shift reach

std::vector<double> slab_assign(Comm& comm, const sim::Catalog& local,
                                core::MassAssignment a, std::size_t n,
                                std::size_t x0, std::size_t L,
                                double box_side, double shift) {
  const double h = box_side / static_cast<double>(n);
  const std::size_t plane = n * n;
  std::vector<double> buf((L + 2 * kSpill) * plane, 0.0);
  for (std::size_t p = 0; p < local.size(); ++p) {
    const AxisStencil sx = core::axis_stencil(a, local.x[p], h, n, shift);
    const AxisStencil sy = core::axis_stencil(a, local.y[p], h, n, shift);
    const AxisStencil sz = core::axis_stencil(a, local.z[p], h, n, shift);
    const double wp = local.w[p];
    for (int ax = 0; ax < sx.count; ++ax) {
      // Unwrapped plane relative to the widened buffer: ownership puts
      // every stencil plane within [x0 - 1, x0 + L + kSpill).
      const long long slot = sx.lo + ax - static_cast<long long>(x0) +
                             static_cast<long long>(kSpill);
      GLX_CHECK(slot >= 0 &&
                slot < static_cast<long long>(L + 2 * kSpill));
      double* pl = buf.data() + static_cast<std::size_t>(slot) * plane;
      for (int ay = 0; ay < sy.count; ++ay) {
        const double wxy = wp * sx.w[ax] * sy.w[ay];
        double* row = pl + static_cast<std::size_t>(sy.cell[ay]) * n;
        for (int az = 0; az < sz.count; ++az)
          row[sz.cell[az]] += wxy * sz.w[az];
      }
    }
  }

  const int P = comm.size();
  const int r = comm.rank();
  if (P > 1) {
    const int prev = (r + P - 1) % P;
    const int next = (r + 1) % P;
    // My low spill planes belong to prev's slab top; high to next's bottom.
    std::vector<double> lo(buf.begin(),
                           buf.begin() + static_cast<std::ptrdiff_t>(
                                             kSpill * plane));
    std::vector<double> hi(buf.end() - static_cast<std::ptrdiff_t>(
                                           kSpill * plane),
                           buf.end());
    comm.send(prev, tags::kFftSpillHi, lo);  // receiver's high boundary
    comm.send(next, tags::kFftSpillLo, hi);  // receiver's low boundary
    const std::vector<double> from_prev =
        comm.recv<double>(prev, tags::kFftSpillLo);
    const std::vector<double> from_next =
        comm.recv<double>(next, tags::kFftSpillHi);
    GLX_CHECK(from_prev.size() == kSpill * plane &&
              from_next.size() == kSpill * plane);
    // from_prev holds planes [x0 - kSpill, x0): its tail folds onto our
    // first owned planes; symmetric at the top.
    for (std::size_t i = 0; i < kSpill * plane; ++i) {
      buf[kSpill * plane + i] += from_prev[i];
      buf[L * plane + i] += from_next[i];
    }
  } else {
    // Single rank: the spill planes wrap onto this same slab.
    for (std::size_t k = 0; k < kSpill; ++k)
      for (std::size_t i = 0; i < plane; ++i) {
        buf[(kSpill + ((L - kSpill + k) % L)) * plane + i] +=
            buf[k * plane + i];
        buf[(kSpill + (k % L)) * plane + i] +=
            buf[(kSpill + L + k) * plane + i];
      }
  }
  return std::vector<double>(
      buf.begin() + static_cast<std::ptrdiff_t>(kSpill * plane),
      buf.begin() + static_cast<std::ptrdiff_t>((kSpill + L) * plane));
}

}  // namespace

void validate_fft_slab(const core::EngineConfig& cfg, int nranks) {
  core::validate_fft_config(cfg);
  GLX_CHECK_MSG(nranks >= 1, "fft slab: nranks must be >= 1");
  const std::size_t n = cfg.fft.grid_n;
  GLX_CHECK_MSG(n % static_cast<std::size_t>(nranks) == 0,
                "fft slab: grid_n (" << n << ") must divide evenly over "
                                     << nranks << " ranks");
  GLX_CHECK_MSG(nranks == 1 || n / static_cast<std::size_t>(nranks) >= 2,
                "fft slab: need >= 2 planes per rank (got grid_n = "
                    << n << " over " << nranks
                    << " ranks); spill/ghost traffic is nearest-neighbor");
}

core::ZetaResult fft_slab_3pcf(Comm& comm, const sim::Catalog& mine,
                               const core::EngineConfig& cfg,
                               core::EngineStats* stats) {
  validate_fft_slab(cfg, comm.size());
  if (comm.size() == 1) return core::fft_3pcf(cfg, mine, nullptr, stats);

  Timer wall;
  core::EngineStats local_stats;
  core::EngineStats& st = stats ? *stats : local_stats;

  const core::FftConfig& f = cfg.fft;
  const int P = comm.size();
  const int r = comm.rank();
  const std::size_t n = f.grid_n;
  const std::size_t L = n / static_cast<std::size_t>(P);
  const std::size_t x0 = static_cast<std::size_t>(r) * L;
  const std::size_t plane = n * n;
  const std::size_t nslab = L * plane;
  const double h = f.box_side / static_cast<double>(n);
  const int nbins = cfg.bins.count();
  const int lmax = cfg.lmax;
  const int nthreads = cfg.threads > 0 ? cfg.threads : omp_get_max_threads();

  // --- 1. redistribute points to the rank owning their x-plane ---
  Timer t;
  std::vector<std::vector<double>> bucket(static_cast<std::size_t>(P));
  for (std::size_t p = 0; p < mine.size(); ++p) {
    const double xw = wrap_coord(mine.x[p], f.box_side);
    const std::size_t ix = std::min(
        static_cast<std::size_t>(xw / h), n - 1);
    auto& b = bucket[ix / L];
    b.push_back(xw);
    b.push_back(wrap_coord(mine.y[p], f.box_side));
    b.push_back(wrap_coord(mine.z[p], f.box_side));
    b.push_back(mine.w[p]);
  }
  for (int q = 0; q < P; ++q)
    if (q != r) comm.send(q, tags::kFftPoints, bucket[static_cast<std::size_t>(q)]);
  sim::Catalog local;
  for (int q = 0; q < P; ++q) {
    const std::vector<double> pts =
        q == r ? std::move(bucket[static_cast<std::size_t>(q)])
               : comm.recv<double>(q, tags::kFftPoints);
    GLX_CHECK(pts.size() % 4 == 0);
    for (std::size_t i = 0; i < pts.size(); i += 4)
      local.push_back(pts[i], pts[i + 1], pts[i + 2], pts[i + 3]);
  }
  st.phases.add("redistribute", t.seconds());

  // --- 2. density slab(s), distributed spectrum ---
  t.restart();
  std::vector<double> mesh =
      slab_assign(comm, local, f.assignment, n, x0, L, f.box_side, 0.0);
  st.phases.add("gridding", t.seconds());

  t.restart();
  SlabFft fft(comm, n, nthreads);
  std::vector<cplx> what(mesh.begin(), mesh.end());
  mesh.clear();
  mesh.shrink_to_fit();
  fft.forward(what);  // now y-slab layout: [(jy - y0) * n + jx][jz]
  if (f.interlace) {
    std::vector<double> mesh2 =
        slab_assign(comm, local, f.assignment, n, x0, L, f.box_side, 0.5);
    std::vector<cplx> w2(mesh2.begin(), mesh2.end());
    fft.forward(w2);
#pragma omp parallel for schedule(static) collapse(2) num_threads(nthreads)
    for (long long jy_loc = 0; jy_loc < static_cast<long long>(L); ++jy_loc)
      for (long long jx = 0; jx < static_cast<long long>(n); ++jx) {
        const std::size_t base =
            (static_cast<std::size_t>(jy_loc) * n +
             static_cast<std::size_t>(jx)) * n;
        const std::size_t jy = x0 + static_cast<std::size_t>(jy_loc);
        for (std::size_t jz = 0; jz < n; ++jz) {
          const cplx ph =
              core::interlace_phase(static_cast<std::size_t>(jx), jy, jz, n);
          what[base + jz] = 0.5 * (what[base + jz] + ph * w2[base + jz]);
        }
      }
  }
  if (f.compensate) {
    const int order = core::assignment_order(f.assignment);
    std::vector<double> win(n);
    for (std::size_t j = 0; j < n; ++j)
      win[j] = core::assignment_window_1d(j, n, order);
#pragma omp parallel for schedule(static) collapse(2) num_threads(nthreads)
    for (long long jy_loc = 0; jy_loc < static_cast<long long>(L); ++jy_loc)
      for (long long jx = 0; jx < static_cast<long long>(n); ++jx) {
        const std::size_t base =
            (static_cast<std::size_t>(jy_loc) * n +
             static_cast<std::size_t>(jx)) * n;
        const double wxy = win[x0 + static_cast<std::size_t>(jy_loc)] *
                           win[static_cast<std::size_t>(jx)];
        for (std::size_t jz = 0; jz < n; ++jz) {
          const double u = wxy * win[jz];
          what[base + jz] /= u * u;  // assignment AND interpolation windows
        }
      }
  }
  st.phases.add("density fft", t.seconds());

  // --- 3. per-(l, m, bin) convolutions on the slab ---
  const core::FftBinCells cells =
      core::FftBinCells::build(cfg.bins, n, h, x0, x0 + L, f.edge_antialias);
  const math::SphHarmTable ylm(lmax);

  std::vector<core::FftZetaAccumulator> acc(
      static_cast<std::size_t>(nthreads),
      core::FftZetaAccumulator(lmax, nbins));

  const int prev = (r + P - 1) % P;
  const int next = (r + 1) % P;
  // (lmax + 1) * nbins slab meshes, allocated once and reused for every m
  // (see core::fft_3pcf).
  std::vector<std::vector<cplx>> fields(
      static_cast<std::size_t>((lmax + 1) * nbins));
#pragma omp parallel for schedule(static, 1) num_threads(nthreads)
  for (long long k = 0; k < static_cast<long long>(fields.size()); ++k)
    fields[static_cast<std::size_t>(k)].resize(nslab);
  for (int m = 0; m <= lmax; ++m) {
    const int nf = (lmax + 1 - m) * nbins;

    t.restart();
    core::sample_ylm_bin_kernels(ylm, m, cells, nbins, fields, nthreads);
    for (int k = 0; k < nf; ++k) {
      std::vector<cplx>& fld = fields[static_cast<std::size_t>(k)];
      fft.forward(fld);
#pragma omp parallel for schedule(static) num_threads(nthreads)
      for (long long i = 0; i < static_cast<long long>(nslab); ++i)
        fld[static_cast<std::size_t>(i)] *= what[static_cast<std::size_t>(i)];
      fft.inverse(fld);
    }
    st.phases.add("kernel fft + convolution", t.seconds());

    // Ghost exchange: interpolation stencils reach one plane past the slab
    // each side. One batched message per direction carries that boundary
    // plane of every field of this m.
    t.restart();
    std::vector<cplx> first(static_cast<std::size_t>(nf) * plane);
    std::vector<cplx> last(static_cast<std::size_t>(nf) * plane);
    for (int k = 0; k < nf; ++k) {
      std::copy_n(fields[static_cast<std::size_t>(k)].data(), plane,
                  first.data() + static_cast<std::size_t>(k) * plane);
      std::copy_n(
          fields[static_cast<std::size_t>(k)].data() + (L - 1) * plane, plane,
          last.data() + static_cast<std::size_t>(k) * plane);
    }
    comm.send(next, tags::kFftGhostLo, last);   // receiver's plane x0 - 1
    comm.send(prev, tags::kFftGhostHi, first);  // receiver's plane x1
    const std::vector<cplx> ghost_lo = comm.recv<cplx>(prev, tags::kFftGhostLo);
    const std::vector<cplx> ghost_hi = comm.recv<cplx>(next, tags::kFftGhostHi);
    GLX_CHECK(ghost_lo.size() == static_cast<std::size_t>(nf) * plane &&
              ghost_hi.size() == static_cast<std::size_t>(nf) * plane);

    // --- interpolate the a_lm fields at each local primary ---
#pragma omp parallel num_threads(nthreads)
    {
      const int tid = omp_get_thread_num();
      core::FftZetaAccumulator& a = acc[static_cast<std::size_t>(tid)];
      std::vector<cplx> v(static_cast<std::size_t>(nf));
#pragma omp for schedule(static)
      for (long long i = 0; i < static_cast<long long>(local.size()); ++i) {
        const std::size_t p = static_cast<std::size_t>(i);
        const AxisStencil sx =
            core::axis_stencil(f.assignment, local.x[p], h, n, 0.0);
        const AxisStencil sy =
            core::axis_stencil(f.assignment, local.y[p], h, n, 0.0);
        const AxisStencil sz =
            core::axis_stencil(f.assignment, local.z[p], h, n, 0.0);
        std::fill(v.begin(), v.end(), cplx(0.0, 0.0));
        for (int ax = 0; ax < sx.count; ++ax) {
          // Slot 0 = the lo ghost plane, 1..L = owned, L + 1 = hi ghost.
          const long long slot =
              sx.lo + ax - static_cast<long long>(x0) + 1;
          GLX_CHECK(slot >= 0 && slot <= static_cast<long long>(L) + 1);
          for (int ay = 0; ay < sy.count; ++ay) {
            const double wxy = sx.w[ax] * sy.w[ay];
            const std::size_t row =
                static_cast<std::size_t>(sy.cell[ay]) * n;
            for (int az = 0; az < sz.count; ++az) {
              const double w = wxy * sz.w[az];
              const std::size_t off = row +
                  static_cast<std::size_t>(sz.cell[az]);
              if (slot == 0) {
                for (int k = 0; k < nf; ++k)
                  v[static_cast<std::size_t>(k)] +=
                      w * ghost_lo[static_cast<std::size_t>(k) * plane + off];
              } else if (slot == static_cast<long long>(L) + 1) {
                for (int k = 0; k < nf; ++k)
                  v[static_cast<std::size_t>(k)] +=
                      w * ghost_hi[static_cast<std::size_t>(k) * plane + off];
              } else {
                const std::size_t base =
                    (static_cast<std::size_t>(slot) - 1) * plane + off;
                for (int k = 0; k < nf; ++k)
                  v[static_cast<std::size_t>(k)] +=
                      w * fields[static_cast<std::size_t>(k)][base];
              }
            }
          }
        }
        const double wp = local.w[p];
        if (m == 0) a.count_primary(wp);
        a.add_primary(m, wp, v.data());
      }
    }
    st.phases.add("interpolate+zeta", t.seconds());
  }

  t.restart();
  for (int tid = 1; tid < nthreads; ++tid)
    acc[0].merge(acc[static_cast<std::size_t>(tid)]);
  core::ZetaResult result = acc[0].finalize(cfg.bins);
  st.phases.add("merge", t.seconds());
  st.wall_seconds = wall.seconds();
  return result;
}

}  // namespace galactos::dist
