// The batched zeta update (ZetaAccumulator::flush), compiled once per ISA
// level next to the multipole kernels: kernel_scalar.cpp / kernel_avx2.cpp /
// kernel_avx512.cpp include this header under GALACTOS_KERNEL_NS, and
// core/zeta.cpp dispatches on kernel_isa().
//
// For every bin pair b1 <= b2 the primaries of the batch that touched both
// bins are listed in batch order. Each (m, l) output row of lmax + 1 - m
// coefficients then stays in vector registers while those primaries stream
// past, and each applies exactly the per-primary update
//
//   r += tr*br + ti*bi,   i += ti*br - tr*bi,   (tr + i ti) = wp a_lm(b1),
//                                                (br + i bi) = a_l'm(b2),
//
// with separate IEEE mul, add and sub: no dv_fmadd here, and the including
// TUs build with -ffp-contract=off so the compiler cannot fuse them either.
// Every coefficient therefore sees the same operation sequence, in the same
// primary order, as one add_primary sweep per primary: the flush is bitwise
// identical to that loop at every ISA level, wherever a batch ends.
#ifndef GALACTOS_KERNEL_NS
#error "zeta_flush_body.hpp must be included with GALACTOS_KERNEL_NS defined"
#endif

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/kernel.hpp"
#include "core/kernel_isa.hpp"
#include "math/simd.hpp"

namespace galactos::core {
namespace GALACTOS_KERNEL_NS {

namespace {

using math::simd::DVec;
using math::simd::dv_broadcast;
using math::simd::dv_load;
using math::simd::dv_load_n;
using math::simd::dv_store;
using math::simd::dv_store_n;

constexpr int kW = DVec::kWidth;
static_assert(kLanes % kW == 0, "a_l'm rows are padded to kLanes doubles");
// Vectors per row piece: 24 coefficients at 8 lanes, 20 at 4, so rows up to
// lmax 19 take one piece; longer rows are split.
constexpr int kMaxNV = kW == 8 ? 3 : 5;
static_assert(kMaxNV <= 5, "row_update is instantiated for NV <= 5");

// Columns [0, cnt) of one output row, (NV - 1) * kW < cnt <= NV * kW, over
// the `np` batch primaries `prim`. tr/ti and br/bi are the first primary's
// operands; primary p's sit p * stride doubles further on.
template <int NV>
void row_update(int cnt, const int* prim, int np, const double* tr,
                const double* ti, const double* br, const double* bi,
                std::size_t stride, double* r, double* i) {
  DVec vr[NV], vi[NV];
  const int tail = cnt - (NV - 1) * kW;
  for (int v = 0; v + 1 < NV; ++v) {
    vr[v] = dv_load(r + v * kW);
    vi[v] = dv_load(i + v * kW);
  }
  vr[NV - 1] = dv_load_n(r + (NV - 1) * kW, tail);
  vi[NV - 1] = dv_load_n(i + (NV - 1) * kW, tail);
  for (int q = 0; q < np; ++q) {
    const std::size_t off = static_cast<std::size_t>(prim[q]) * stride;
    const DVec sr = dv_broadcast(tr[off]);
    const DVec si = dv_broadcast(ti[off]);
    const double* xr = br + off;
    const double* xi = bi + off;
    for (int v = 0; v < NV; ++v) {
      const DVec a = dv_load(xr + v * kW);
      const DVec b = dv_load(xi + v * kW);
      vr[v] = vr[v] + (sr * a + si * b);
      vi[v] = vi[v] + (si * a - sr * b);
    }
  }
  for (int v = 0; v + 1 < NV; ++v) {
    dv_store(r + v * kW, vr[v]);
    dv_store(i + v * kW, vi[v]);
  }
  dv_store_n(r + (NV - 1) * kW, vr[NV - 1], tail);
  dv_store_n(i + (NV - 1) * kW, vi[NV - 1], tail);
}

void row(int cnt, const int* prim, int np, const double* tr, const double* ti,
         const double* br, const double* bi, std::size_t stride, double* r,
         double* i) {
  for (int c0 = 0; c0 < cnt; c0 += kMaxNV * kW) {
    const int n = std::min(cnt - c0, kMaxNV * kW);
    const double* xr = br + c0;
    const double* xi = bi + c0;
    switch ((n + kW - 1) / kW) {
      case 1:
        row_update<1>(n, prim, np, tr, ti, xr, xi, stride, r + c0, i + c0);
        break;
      case 2:
        row_update<2>(n, prim, np, tr, ti, xr, xi, stride, r + c0, i + c0);
        break;
      case 3:
        row_update<3>(n, prim, np, tr, ti, xr, xi, stride, r + c0, i + c0);
        break;
      case 4:
        row_update<4>(n, prim, np, tr, ti, xr, xi, stride, r + c0, i + c0);
        break;
      default:
        row_update<5>(n, prim, np, tr, ti, xr, xi, stride, r + c0, i + c0);
        break;
    }
  }
}

}  // namespace

void zeta_flush(const ZetaBatchView& z) {
  const int lmax = z.lmax;
  const int nb = z.nbins;
  int nllm = 0;
  for (int m = 0; m <= lmax; ++m) nllm += (lmax + 1 - m) * (lmax + 1 - m);
  const std::size_t rec = static_cast<std::size_t>(z.row_len);
  const std::size_t bin_stride = static_cast<std::size_t>(z.capacity) * rec;
  int prim[32];

  for (int b1 = 0; b1 < nb; ++b1) {
    const std::uint32_t m1 = z.mask[b1];
    if (!m1) continue;
    // wp * a_lm(b1) once per batch primary, reused by every b2 >= b1.
    for (int p = 0; p < z.capacity; ++p) {
      if (!((m1 >> p) & 1u)) continue;
      const double* sr = z.ar + b1 * bin_stride + p * rec;
      const double* si = z.ai + b1 * bin_stride + p * rec;
      double* dr = z.scaled_re + p * rec;
      double* di = z.scaled_im + p * rec;
      const double wp = z.wp[p];
      for (std::size_t k = 0; k < rec; ++k) {
        dr[k] = wp * sr[k];
        di[k] = wp * si[k];
      }
    }
    for (int b2 = b1; b2 < nb; ++b2) {
      const std::uint32_t both = m1 & z.mask[b2];
      if (!both) continue;
      int np = 0;
      for (int p = 0; p < z.capacity; ++p)
        if ((both >> p) & 1u) prim[np++] = p;
      const std::size_t pair =
          static_cast<std::size_t>(b1 * nb - b1 * (b1 - 1) / 2 + (b2 - b1));
      double* outr = z.re + pair * nllm;
      double* outi = z.im + pair * nllm;
      const double* b2r = z.ar + b2 * bin_stride;
      const double* b2i = z.ai + b2 * bin_stride;
      for (int m = 0; m <= lmax; ++m) {
        const int cnt = lmax + 1 - m;
        const int off = z.row_off[m];
        for (int l = m; l <= lmax; ++l) {
          row(cnt, prim, np, z.scaled_re + off + (l - m),
              z.scaled_im + off + (l - m), b2r + off, b2i + off, rec, outr,
              outi);
          outr += cnt;
          outi += cnt;
        }
      }
    }
  }
}

}  // namespace GALACTOS_KERNEL_NS
}  // namespace galactos::core
