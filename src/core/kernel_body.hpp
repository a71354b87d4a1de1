// The multipole bucket kernels, compiled once per ISA level.
//
// This header is included by exactly one translation unit per ISA
// (kernel_scalar.cpp / kernel_avx2.cpp / kernel_avx512.cpp), each built with
// its own per-source target flags; the includer must define
// GALACTOS_KERNEL_NS to the ISA namespace (isa_scalar / isa_avx2 /
// isa_avx512) declared in core/kernel_isa.hpp. math/simd.hpp resolves DVec
// to the widest vector the TU's flags allow, so one generic body yields all
// three kernels — and core/kernel.cpp picks between them at runtime.
//
// Numerical contract (what the ISA equivalence tests pin down): every level
// performs the identical IEEE operation sequence per lane of the 8-wide
// accumulator block — lanes never mix, adds and muls are never fused or
// reassociated — so the per-ISA kernels are BITWISE identical, not merely
// close. Keep it that way: no dv_fmadd in this file.
#ifndef GALACTOS_KERNEL_NS
#error "kernel_body.hpp must be included with GALACTOS_KERNEL_NS defined"
#endif

#include "core/kernel.hpp"
#include "math/simd.hpp"

namespace galactos::core {
namespace GALACTOS_KERNEL_NS {

namespace {

using math::simd::DVec;
using math::simd::dv_load;
using math::simd::dv_store;

static_assert(kLanes % DVec::kWidth == 0,
              "lane accumulator block must be a whole number of vectors");
inline constexpr int kNB = kLanes / DVec::kWidth;  // vectors per lane block

// One 8-pair chunk through the monomial tree with running products.
// NV chunks are interleaved for ILP; their partial products are summed
// pairwise before the single accumulator update per monomial, keeping the
// dependency chain on acc short. With OVW the accumulator is stored, not
// accumulated (first contribution of a primary — saves the zeroing pass).
template <int NV, bool OVW>
void running_product_block(const double* __restrict ux,
                           const double* __restrict uy,
                           const double* __restrict uz,
                           const double* __restrict w, int lmax,
                           double* __restrict acc) {
  DVec vux[NV][kNB], vuy[NV][kNB], vuz[NV][kNB];
  DVec px[NV][kNB], py[NV][kNB], pz[NV][kNB];
  for (int v = 0; v < NV; ++v)
    for (int n = 0; n < kNB; ++n) {
      const int off = v * kLanes + n * DVec::kWidth;
      vux[v][n] = dv_load(ux + off);
      vuy[v][n] = dv_load(uy + off);
      vuz[v][n] = dv_load(uz + off);
      px[v][n] = dv_load(w + off);
    }

  int t = 0;
  for (int a = 0; a <= lmax; ++a) {
    for (int v = 0; v < NV; ++v)
      for (int n = 0; n < kNB; ++n) py[v][n] = px[v][n];
    for (int b = 0; a + b <= lmax; ++b) {
      for (int v = 0; v < NV; ++v)
        for (int n = 0; n < kNB; ++n) pz[v][n] = py[v][n];
      for (int c = 0; a + b + c <= lmax; ++c) {
        double* __restrict at = acc + static_cast<std::size_t>(t) * kLanes;
        for (int n = 0; n < kNB; ++n) {
          DVec s;
          if constexpr (NV == 1) {
            s = pz[0][n];
          } else if constexpr (NV == 2) {
            s = pz[0][n] + pz[1][n];
          } else {
            static_assert(NV == 4);
            s = (pz[0][n] + pz[1][n]) + (pz[2][n] + pz[3][n]);
          }
          double* atn = at + n * DVec::kWidth;
          if constexpr (OVW)
            dv_store(atn, s);
          else
            dv_store(atn, dv_load(atn) + s);
        }
        for (int v = 0; v < NV; ++v)
          for (int n = 0; n < kNB; ++n) pz[v][n] = pz[v][n] * vuz[v][n];
        ++t;
      }
      for (int v = 0; v < NV; ++v)
        for (int n = 0; n < kNB; ++n) py[v][n] = py[v][n] * vuy[v][n];
    }
    for (int v = 0; v < NV; ++v)
      for (int n = 0; n < kNB; ++n) px[v][n] = px[v][n] * vux[v][n];
  }
}

template <int NV>
void dispatch_block(const double* ux, const double* uy, const double* uz,
                    const double* w, int lmax, double* acc, bool overwrite) {
  if (overwrite)
    running_product_block<NV, true>(ux, uy, uz, w, lmax, acc);
  else
    running_product_block<NV, false>(ux, uy, uz, w, lmax, acc);
}

}  // namespace

void kernel_running_product(const double* ux, const double* uy,
                            const double* uz, const double* w, int count,
                            int lmax, double* acc, int ilp, bool overwrite) {
  int i = 0;
  const int step = ilp * kLanes;
  bool ovw = overwrite;
  for (; i + step <= count; i += step) {
    switch (ilp) {
      case 1:
        dispatch_block<1>(ux + i, uy + i, uz + i, w + i, lmax, acc, ovw);
        break;
      case 2:
        dispatch_block<2>(ux + i, uy + i, uz + i, w + i, lmax, acc, ovw);
        break;
      default:
        dispatch_block<4>(ux + i, uy + i, uz + i, w + i, lmax, acc, ovw);
        break;
    }
    ovw = false;
  }
  for (; i < count; i += kLanes) {
    dispatch_block<1>(ux + i, uy + i, uz + i, w + i, lmax, acc, ovw);
    ovw = false;
  }
}

}  // namespace GALACTOS_KERNEL_NS
}  // namespace galactos::core
