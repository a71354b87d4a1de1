// Scalar (baseline-flags) hot loops (multipole kernel, batched zeta flush)
// — always compiled, the dispatch fallback and the reference the SIMD
// levels must match bitwise. Built with the project's default flags, so
// "scalar" here means whatever the baseline autovectorizer produces (SSE2
// on a stock x86-64 build).
#define GALACTOS_KERNEL_NS isa_scalar
#include "core/kernel_body.hpp"
#include "core/zeta_flush_body.hpp"
