// AVX2+FMA hot loops (multipole kernel, batched zeta flush) — this TU (and
// only this TU) is built with -mavx2 -mfma (see CMakeLists.txt), so
// math/simd.hpp resolves DVec to __m256d here. Reached only through the
// runtime dispatch in kernel.cpp / zeta.cpp after a CPUID check, so building
// it on any x86-64 toolchain is safe.
#if defined(__AVX2__) && defined(__FMA__)
#define GALACTOS_KERNEL_NS isa_avx2
#include "core/kernel_body.hpp"
#include "core/zeta_flush_body.hpp"
#else
#error "kernel_avx2.cpp must be compiled with -mavx2 -mfma"
#endif
