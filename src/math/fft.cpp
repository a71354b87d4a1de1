#include "math/fft.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>

namespace galactos::math {

namespace {

// Lines per tile. Eight complex doubles are one 128-byte row of a column
// gather.
constexpr std::size_t kLanes = 8;

// Batches smaller than this many elements run on the calling thread: at
// such sizes a parallel region costs more than the transform.
constexpr std::size_t kMinParallelElems = std::size_t{1} << 15;

// Twiddle and bit-reversal tables for one length. Immutable once built.
struct Plan {
  explicit Plan(std::size_t len)
      : n(len), wr(len / 2), wi(len / 2), rev(len) {
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double ang =
          -2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n);
      wr[k] = std::cos(ang);
      wi[k] = std::sin(ang);
    }
    for (std::size_t i = 1, j = 0; i < n; ++i) {
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      rev[i] = j;
    }
  }
  std::size_t n;
  std::vector<double> wr, wi;  // e^{-2 pi i k / n}, k < n / 2
  std::vector<std::size_t> rev;
};

// kLanes lines of length n in split real/imaginary planes, lanes innermost:
// element k of lane t sits at [k * kLanes + t]. put() stores in bit-reversed
// order, so after transform() get() reads the spectrum in natural order.
class Tile {
 public:
  explicit Tile(const Plan& plan)
      : plan_(plan), re_(plan.n * kLanes), im_(plan.n * kLanes) {}

  void put(std::size_t k, std::size_t t, cplx v) {
    const std::size_t i = plan_.rev[k] * kLanes + t;
    re_[i] = v.real();
    im_[i] = v.imag();
  }
  cplx get(std::size_t k, std::size_t t) const {
    return {re_[k * kLanes + t], im_[k * kLanes + t]};
  }

  // Row forms of put/get: element k of all lanes from/to kLanes
  // consecutive values (one 128-byte row of a column gather).
  void put_row(std::size_t k, const cplx* src) {
    const double* s = reinterpret_cast<const double*>(src);
    double* re = &re_[plan_.rev[k] * kLanes];
    double* im = &im_[plan_.rev[k] * kLanes];
#pragma omp simd
    for (std::size_t t = 0; t < kLanes; ++t) {
      re[t] = s[2 * t];
      im[t] = s[2 * t + 1];
    }
  }
  void get_row(std::size_t k, cplx* dst) const {
    double* d = reinterpret_cast<double*>(dst);
    const double* re = &re_[k * kLanes];
    const double* im = &im_[k * kLanes];
#pragma omp simd
    for (std::size_t t = 0; t < kLanes; ++t) {
      d[2 * t] = re[t];
      d[2 * t + 1] = im[t];
    }
  }

  // Iterative butterflies on all lanes at once: radix-2 stages fused in
  // pairs (radix 2^2, one sweep over the tile per two stages), plus one
  // radix-2 stage when log2(n) is odd.
  void transform(int sign) {
    const std::size_t n = plan_.n;
    const double* tr = plan_.wr.data();
    const double* ti = plan_.wi.data();
    const double sg = -sign;  // conjugates the forward table for sign = +1
    double* re = re_.data();
    double* im = im_.data();
    std::size_t half = 1;
    for (; 4 * half <= n; half *= 4) {
      const std::size_t step1 = n / (2 * half), step2 = step1 / 2;
      for (std::size_t i = 0; i < n; i += 4 * half)
        for (std::size_t k = 0; k < half; ++k) {
          // Stage `half` twiddle w1; stage 2 * half twiddles w2 and
          // w3 = w2 * e^{sign i pi / 2} (exact quarter turn).
          const double w1r = tr[k * step1], w1i = sg * ti[k * step1];
          const double w2r = tr[k * step2], w2i = sg * ti[k * step2];
          const double w3r = -sign * w2i, w3i = sign * w2r;
          double* r0 = re + (i + k) * kLanes;
          double* i0 = im + (i + k) * kLanes;
          double* r1 = r0 + half * kLanes;
          double* i1 = i0 + half * kLanes;
          double* r2 = r1 + half * kLanes;
          double* i2 = i1 + half * kLanes;
          double* r3 = r2 + half * kLanes;
          double* i3 = i2 + half * kLanes;
#pragma omp simd
          for (std::size_t t = 0; t < kLanes; ++t) {
            const double b1r = r1[t] * w1r - i1[t] * w1i;
            const double b1i = r1[t] * w1i + i1[t] * w1r;
            const double b3r = r3[t] * w1r - i3[t] * w1i;
            const double b3i = r3[t] * w1i + i3[t] * w1r;
            const double x0r = r0[t] + b1r, x0i = i0[t] + b1i;
            const double x1r = r0[t] - b1r, x1i = i0[t] - b1i;
            const double x2r = r2[t] + b3r, x2i = i2[t] + b3i;
            const double x3r = r2[t] - b3r, x3i = i2[t] - b3i;
            const double c2r = x2r * w2r - x2i * w2i;
            const double c2i = x2r * w2i + x2i * w2r;
            const double c3r = x3r * w3r - x3i * w3i;
            const double c3i = x3r * w3i + x3i * w3r;
            r0[t] = x0r + c2r;
            i0[t] = x0i + c2i;
            r2[t] = x0r - c2r;
            i2[t] = x0i - c2i;
            r1[t] = x1r + c3r;
            i1[t] = x1i + c3i;
            r3[t] = x1r - c3r;
            i3[t] = x1i - c3i;
          }
        }
    }
    if (half < n) {  // last radix-2 stage: half = n / 2, step 1
      for (std::size_t k = 0; k < half; ++k) {
        const double wr = tr[k], wi = sg * ti[k];
        double* ar = re + k * kLanes;
        double* ai = im + k * kLanes;
        double* br = ar + half * kLanes;
        double* bi = ai + half * kLanes;
#pragma omp simd
        for (std::size_t t = 0; t < kLanes; ++t) {
          const double vr = br[t] * wr - bi[t] * wi;
          const double vi = br[t] * wi + bi[t] * wr;
          br[t] = ar[t] - vr;
          bi[t] = ai[t] - vi;
          ar[t] += vr;
          ai[t] += vi;
        }
      }
    }
    if (sign == 1) {
      const double inv = 1.0 / static_cast<double>(n);
#pragma omp simd
      for (std::size_t i = 0; i < n * kLanes; ++i) {
        re[i] *= inv;
        im[i] *= inv;
      }
    }
  }

 private:
  const Plan& plan_;
  std::vector<double> re_, im_;
};

std::size_t tiles_for(std::size_t lines) {
  return (lines + kLanes - 1) / kLanes;
}

std::size_t tile_count(const LineLayout& layout) {
  return layout.groups * tiles_for(layout.lines);
}

// Gathers `lanes` lines of length n starting at base (element stride es,
// line stride ls) into the tile, and scatters them back. A full tile of
// adjacent lines (ls == 1) moves one contiguous row per element.
void load_lines(Tile& tile, const cplx* base, std::size_t n, std::size_t es,
                std::size_t ls, std::size_t lanes) {
  if (ls == 1 && lanes == kLanes) {
    for (std::size_t k = 0; k < n; ++k) tile.put_row(k, base + k * es);
    return;
  }
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t t = 0; t < lanes; ++t)
      tile.put(k, t, base[k * es + t * ls]);
}

void store_lines(const Tile& tile, cplx* base, std::size_t n, std::size_t es,
                 std::size_t ls, std::size_t lanes) {
  if (ls == 1 && lanes == kLanes) {
    for (std::size_t k = 0; k < n; ++k) tile.get_row(k, base + k * es);
    return;
  }
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t t = 0; t < lanes; ++t)
      base[k * es + t * ls] = tile.get(k, t);
}

// Transforms tile j of `layout` in place: lines [j * kLanes, j * kLanes +
// kLanes) of the flattened (group, line) order, never crossing a group.
void lines_tile(Tile& tile, cplx* data, std::size_t n,
                const LineLayout& layout, std::size_t j, int sign) {
  const std::size_t per_group = tiles_for(layout.lines);
  const std::size_t i0 = (j % per_group) * kLanes;
  const std::size_t lanes = std::min(kLanes, layout.lines - i0);
  cplx* base = data + (j / per_group) * layout.group_stride +
               i0 * layout.line_stride;
  load_lines(tile, base, n, layout.elem_stride, layout.line_stride, lanes);
  tile.transform(sign);
  store_lines(tile, base, n, layout.elem_stride, layout.line_stride, lanes);
}

// Forward z-pass of real rows, two per lane: lane t of tile j transforms
// rows r0 = 2 (j * kLanes + t) and r0 + 1 of `in` (sample stride `stride`)
// packed as c = row0 + i*row1, and splits the result into complex rows r0,
// r0 + 1 of `out` with F0[k] = (C[k] + conj(C[n-k]))/2 and
// F1[k] = (C[k] - conj(C[n-k]))/(2i). `pairs` bounds the row pairs.
void r2c_rows_tile(Tile& tile, const double* in, std::size_t stride,
                   cplx* out, std::size_t n, std::size_t pairs,
                   std::size_t j) {
  const std::size_t lanes = std::min(kLanes, pairs - j * kLanes);
  for (std::size_t t = 0; t < lanes; ++t) {
    const double* a = in + 2 * (j * kLanes + t) * n * stride;
    const double* b = a + n * stride;
    for (std::size_t k = 0; k < n; ++k)
      tile.put(k, t, cplx(a[k * stride], b[k * stride]));
  }
  tile.transform(-1);
  for (std::size_t t = 0; t < lanes; ++t) {
    cplx* o0 = out + 2 * (j * kLanes + t) * n;
    cplx* o1 = o0 + n;
    o0[0] = cplx(tile.get(0, t).real(), 0.0);
    o1[0] = cplx(tile.get(0, t).imag(), 0.0);
    for (std::size_t k = 1; k < n; ++k) {
      const cplx ck = tile.get(k, t);
      const cplx cnk = std::conj(tile.get(n - k, t));
      const cplx d = ck - cnk;
      o0[k] = 0.5 * (ck + cnk);
      o1[k] = cplx(0.5 * d.imag(), -0.5 * d.real());
    }
  }
}

// Inverse z-pass to real rows, two per lane: ifft(Z0 + i*Z1) = z0 + i*z1
// splits exactly into the two real rows when both are real (Hermitian
// spectra). Rows are read before any is written, so `out` may alias the
// real parts of `spec`.
void c2r_rows_tile(Tile& tile, const cplx* spec, double* out,
                   std::size_t stride, std::size_t n, std::size_t pairs,
                   std::size_t j) {
  const std::size_t lanes = std::min(kLanes, pairs - j * kLanes);
  for (std::size_t t = 0; t < lanes; ++t) {
    const cplx* s0 = spec + 2 * (j * kLanes + t) * n;
    const cplx* s1 = s0 + n;
    for (std::size_t k = 0; k < n; ++k)
      tile.put(k, t, cplx(s0[k].real() - s1[k].imag(),
                          s0[k].imag() + s1[k].real()));
  }
  tile.transform(1);
  for (std::size_t t = 0; t < lanes; ++t) {
    double* a = out + 2 * (j * kLanes + t) * n * stride;
    double* b = a + n * stride;
    for (std::size_t k = 0; k < n; ++k) {
      a[k * stride] = tile.get(k, t).real();
      b[k * stride] = tile.get(k, t).imag();
    }
  }
}

// Runs body(tile, item) for items 0..nitems-1 on an OpenMP team with one
// Tile per thread (serial below kMinParallelElems elements of work). Items
// must touch disjoint memory.
template <class Body>
void for_each_item(const Plan& plan, std::size_t nitems, std::size_t elems,
                   int nthreads, const Body& body) {
  const bool parallel = nitems > 1 && elems >= kMinParallelElems;
#pragma omp parallel num_threads(nthreads > 0 ? nthreads \
                                              : omp_get_max_threads()) \
    if (parallel)
  {
    Tile tile(plan);
#pragma omp for schedule(static)
    for (long long j = 0; j < static_cast<long long>(nitems); ++j)
      body(tile, static_cast<std::size_t>(j));
  }
}

void check_args(std::size_t n, int sign) {
  GLX_CHECK_MSG(is_pow2(n), "FFT length must be a power of two, got " << n);
  GLX_CHECK(sign == 1 || sign == -1);
}

// ---- Passes over an n^3 cube ----
//
// The z and y passes of one x-plane run back to back while the plane
// (256 KB at n = 128) is cache-resident (plane_pass), so every 3-D
// transform streams the cube through memory twice: once per x-plane, once
// for the x columns (x_lines, tiles of eight adjacent iz). 1-D transforms
// along different axes commute, so only the real-data variants care about
// the order: r2c packs real z rows first, c2r unpacks them last.

template <class PlaneBody>
void plane_pass(const Plan& plan, const PlaneBody& body) {
  for_each_item(plan, plan.n, plan.n * plan.n * plan.n, 0, body);
}

// Complex z and y lines of plane p.
void c2c_plane(Tile& tile, cplx* p, std::size_t n, int sign) {
  const LineLayout z{1, n, n}, y{n, 1, n};
  for (std::size_t j = 0; j < tile_count(z); ++j)
    lines_tile(tile, p, n, z, j, sign);
  for (std::size_t j = 0; j < tile_count(y); ++j)
    lines_tile(tile, p, n, y, j, sign);
}

// Real rows of plane `in` (sample stride `stride`) to the complex plane p.
void r2c_plane(Tile& tile, const double* in, std::size_t stride, cplx* p,
               std::size_t n) {
  for (std::size_t j = 0; j < tiles_for(n / 2); ++j)
    r2c_rows_tile(tile, in, stride, p, n, n / 2, j);
  const LineLayout y{n, 1, n};
  for (std::size_t j = 0; j < tile_count(y); ++j)
    lines_tile(tile, p, n, y, j, -1);
}

// Inverse y lines of plane p, then its rows to real plane `out`.
void c2r_plane(Tile& tile, cplx* p, double* out, std::size_t stride,
               std::size_t n) {
  const LineLayout y{n, 1, n};
  for (std::size_t j = 0; j < tile_count(y); ++j)
    lines_tile(tile, p, n, y, j, 1);
  for (std::size_t j = 0; j < tiles_for(n / 2); ++j)
    c2r_rows_tile(tile, p, out, stride, n, n / 2, j);
}

void x_lines(const Plan& plan, cplx* data, int sign) {
  const std::size_t n = plan.n;
  const LineLayout x{n * n, 1, n * n};
  for_each_item(plan, tile_count(x), n * n * n, 0,
                [&](Tile& tile, std::size_t j) {
                  lines_tile(tile, data, n, x, j, sign);
                });
}

}  // namespace

void fft_lines(cplx* data, std::size_t n, const LineLayout& layout, int sign,
               int nthreads) {
  check_args(n, sign);
  const Plan plan(n);
  for_each_item(plan, tile_count(layout),
                layout.groups * layout.lines * n, nthreads,
                [&](Tile& tile, std::size_t j) {
                  lines_tile(tile, data, n, layout, j, sign);
                });
}

void fft_1d(cplx* data, std::size_t n, int sign) {
  fft_lines(data, n, {1, n, 1}, sign, 1);
}

void fft_3d(std::vector<cplx>& data, std::size_t n, int sign) {
  GLX_CHECK(data.size() == n * n * n);
  check_args(n, sign);
  const Plan plan(n);
  plane_pass(plan, [&](Tile& tile, std::size_t ix) {
    c2c_plane(tile, data.data() + ix * n * n, n, sign);
  });
  x_lines(plan, data.data(), sign);
}

void fft_r2c_3d(const double* in, std::size_t stride, std::size_t n,
                std::vector<cplx>& out) {
  check_args(n, -1);
  GLX_CHECK(stride >= 1 && n >= 2);
  out.resize(n * n * n);
  const Plan plan(n);
  plane_pass(plan, [&](Tile& tile, std::size_t ix) {
    r2c_plane(tile, in + ix * n * n * stride, stride,
              out.data() + ix * n * n, n);
  });
  x_lines(plan, out.data(), -1);
}

void fft_c2r_3d(std::vector<cplx>& spec, std::size_t n, double* out,
                std::size_t stride) {
  GLX_CHECK(spec.size() == n * n * n);
  check_args(n, 1);
  GLX_CHECK(stride >= 1 && n >= 2);
  const Plan plan(n);
  x_lines(plan, spec.data(), 1);
  plane_pass(plan, [&](Tile& tile, std::size_t ix) {
    c2r_plane(tile, spec.data() + ix * n * n, out + ix * n * n * stride,
              stride, n);
  });
}

std::vector<cplx> dft_reference(const std::vector<cplx>& in, int sign) {
  const std::size_t n = in.size();
  std::vector<cplx> out(n, cplx(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * M_PI *
                         static_cast<double>((k * j) % n) /
                         static_cast<double>(n);
      out[k] += in[j] * cplx(std::cos(ang), std::sin(ang));
    }
  if (sign == 1)
    for (auto& v : out) v /= static_cast<double>(n);
  return out;
}

}  // namespace galactos::math
