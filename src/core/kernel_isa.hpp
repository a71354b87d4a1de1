// Internal: the per-ISA hot-loop entry points — the multipole bucket
// kernels and the batched zeta flush.
//
// Each namespace is defined by one translation unit that includes
// core/kernel_body.hpp and core/zeta_flush_body.hpp under its own target
// flags (see CMakeLists.txt — kernel_scalar.cpp builds with the baseline
// flags, kernel_avx2.cpp with -mavx2 -mfma, kernel_avx512.cpp with
// -mavx512f, all three with -ffp-contract=off; the AVX TUs exist only when
// the compiler accepts the flags, signalled by GALACTOS_KERNEL_HAVE_AVX2 /
// GALACTOS_KERNEL_HAVE_AVX512). core/kernel.cpp and core/zeta.cpp own the
// runtime CPUID dispatch between them; nothing else should call these
// directly.
#pragma once

#include <cstdint>

namespace galactos::core {

// One ZetaAccumulator batch, as the flush reads it. a_l'm rows are m-major
// with row m starting at row_off[m] and padded with zeros to a multiple of
// kLanes doubles, so a row always loads as whole vectors; one record of
// row_len doubles per (bin, batch primary), bin-major.
struct ZetaBatchView {
  int lmax = 0;
  int nbins = 0;
  int capacity = 0;                   // records per bin
  int row_len = 0;                    // doubles per record
  const int* row_off = nullptr;       // [lmax + 1]
  const double* wp = nullptr;         // [capacity] primary weights
  const std::uint32_t* mask = nullptr;  // [nbins] bit p: primary p touched
  const double* ar = nullptr;         // [nbins][capacity][row_len] real
  const double* ai = nullptr;         // ... imaginary
  double* scaled_re = nullptr;        // scratch [capacity][row_len]
  double* scaled_im = nullptr;
  double* re = nullptr;               // accumulator planes [bin_pair][llm]
  double* im = nullptr;
};

#define GLX_KERNEL_ISA_DECL                                                  \
  void kernel_running_product(const double* ux, const double* uy,            \
                              const double* uz, const double* w, int count,  \
                              int lmax, double* acc, int ilp,                \
                              bool overwrite);                               \
  void kernel_zbuffered(const double* ux, const double* uy,                  \
                        const double* uz, const double* w, int count,        \
                        int lmax, double* acc, double* zscratch,             \
                        bool overwrite);                                     \
  void zeta_flush(const ZetaBatchView& batch);

namespace isa_scalar {
GLX_KERNEL_ISA_DECL
}
#if defined(GALACTOS_KERNEL_HAVE_AVX2)
namespace isa_avx2 {
GLX_KERNEL_ISA_DECL
}
#endif
#if defined(GALACTOS_KERNEL_HAVE_AVX512)
namespace isa_avx512 {
GLX_KERNEL_ISA_DECL
}
#endif

#undef GLX_KERNEL_ISA_DECL

}  // namespace galactos::core
