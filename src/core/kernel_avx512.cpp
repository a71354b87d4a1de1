// AVX-512 hot loops (multipole kernel, batched zeta flush) — this TU (and
// only this TU) is built with -mavx512f (see CMakeLists.txt), so
// math/simd.hpp resolves DVec to __m512d: one vector per 8-wide lane block,
// the paper's KNL layout. Reached only through the runtime dispatch in
// kernel.cpp / zeta.cpp after a CPUID check, so building it on any x86-64
// toolchain is safe.
#if defined(__AVX512F__)
#define GALACTOS_KERNEL_NS isa_avx512
#include "core/kernel_body.hpp"
#include "core/zeta_flush_body.hpp"
#else
#error "kernel_avx512.cpp must be compiled with -mavx512f"
#endif
