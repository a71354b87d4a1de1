// Portable double-precision SIMD wrapper — one vector type per ISA level.
//
// DVec wraps the widest vector of doubles the *current translation unit* is
// compiled for: __m512d under AVX-512, __m256d under AVX2+FMA, and a plain
// 8-double array (autovectorized like the rest of the baseline build)
// otherwise. The multipole kernel body (core/kernel_body.hpp) is compiled
// once per level into separate TUs with per-source target flags, so the same
// generic code yields the scalar, AVX2 and AVX-512 kernels that
// core/kernel.cpp dispatches between at runtime.
//
// The arithmetic set is intentionally tiny: lane-wise load/store, add, sub,
// mul, div, and explicit FMA. add/mul are exact IEEE per lane on every
// level, which is what lets the per-ISA kernels stay bitwise identical —
// each lane of the 8-wide accumulator block sees the same operation
// sequence no matter how many lanes a hardware vector holds. fmadd/fmsub
// fuse on AVX2/AVX-512 and fall back to mul-then-add on the generic level;
// use them only where cross-level bitwise identity is NOT required (the
// batched Y_lm recurrence).
#pragma once

#include <cstddef>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

namespace galactos::math::simd {

// Every branch below lives in its own `inline namespace`: the three DVec
// ABIs (64-byte struct / __m256d / __m512d) share one spelling across TUs
// compiled with different target flags, and without distinct mangled names
// the linker would be free to resolve a call in an AVX2 TU to the weak
// out-of-line generic-ABI operator emitted by an -O0 TU (a real SEGV under
// the Debug/ASan build, not a theoretical ODR violation).

#if defined(__AVX512F__)
inline namespace abi_avx512 {

// ISA level this TU is compiled for: 0 generic, 2 AVX2+FMA, 3 AVX-512.
inline constexpr int kLevel = 3;

struct DVec {
  static constexpr int kWidth = 8;
  __m512d v;
};

inline DVec dv_load(const double* p) { return {_mm512_loadu_pd(p)}; }
inline void dv_store(double* p, DVec a) { _mm512_storeu_pd(p, a.v); }
inline DVec dv_broadcast(double x) { return {_mm512_set1_pd(x)}; }
inline DVec dv_zero() { return {_mm512_setzero_pd()}; }
inline DVec operator+(DVec a, DVec b) { return {_mm512_add_pd(a.v, b.v)}; }
inline DVec operator-(DVec a, DVec b) { return {_mm512_sub_pd(a.v, b.v)}; }
inline DVec operator*(DVec a, DVec b) { return {_mm512_mul_pd(a.v, b.v)}; }
inline DVec operator/(DVec a, DVec b) { return {_mm512_div_pd(a.v, b.v)}; }
// a*b + c
inline DVec dv_fmadd(DVec a, DVec b, DVec c) {
  return {_mm512_fmadd_pd(a.v, b.v, c.v)};
}
// a*b - c
inline DVec dv_fmsub(DVec a, DVec b, DVec c) {
  return {_mm512_fmsub_pd(a.v, b.v, c.v)};
}
// c - a*b
inline DVec dv_fnmadd(DVec a, DVec b, DVec c) {
  return {_mm512_fnmadd_pd(a.v, b.v, c.v)};
}

}  // namespace abi_avx512

#elif defined(__AVX2__) && defined(__FMA__)
inline namespace abi_avx2 {

inline constexpr int kLevel = 2;

struct DVec {
  static constexpr int kWidth = 4;
  __m256d v;
};

inline DVec dv_load(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void dv_store(double* p, DVec a) { _mm256_storeu_pd(p, a.v); }
inline DVec dv_broadcast(double x) { return {_mm256_set1_pd(x)}; }
inline DVec dv_zero() { return {_mm256_setzero_pd()}; }
inline DVec operator+(DVec a, DVec b) { return {_mm256_add_pd(a.v, b.v)}; }
inline DVec operator-(DVec a, DVec b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline DVec operator*(DVec a, DVec b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline DVec operator/(DVec a, DVec b) { return {_mm256_div_pd(a.v, b.v)}; }
inline DVec dv_fmadd(DVec a, DVec b, DVec c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}
inline DVec dv_fmsub(DVec a, DVec b, DVec c) {
  return {_mm256_fmsub_pd(a.v, b.v, c.v)};
}
inline DVec dv_fnmadd(DVec a, DVec b, DVec c) {
  return {_mm256_fnmadd_pd(a.v, b.v, c.v)};
}

}  // namespace abi_avx2

#else  // generic: an 8-double block the baseline autovectorizer handles
inline namespace abi_generic {

inline constexpr int kLevel = 0;

struct DVec {
  static constexpr int kWidth = 8;
  double v[8];
};

inline DVec dv_load(const double* p) {
  DVec r;
#pragma omp simd
  for (int i = 0; i < DVec::kWidth; ++i) r.v[i] = p[i];
  return r;
}
inline void dv_store(double* p, DVec a) {
#pragma omp simd
  for (int i = 0; i < DVec::kWidth; ++i) p[i] = a.v[i];
}
inline DVec dv_broadcast(double x) {
  DVec r;
#pragma omp simd
  for (int i = 0; i < DVec::kWidth; ++i) r.v[i] = x;
  return r;
}
inline DVec dv_zero() { return dv_broadcast(0.0); }

#define GLX_DVEC_LANEWISE(name, expr)                        \
  inline DVec name(DVec a, DVec b) {                         \
    DVec r;                                                  \
    _Pragma("omp simd") for (int i = 0; i < DVec::kWidth;    \
                             ++i) r.v[i] = (expr);           \
    return r;                                                \
  }
GLX_DVEC_LANEWISE(operator+, a.v[i] + b.v[i])
GLX_DVEC_LANEWISE(operator-, a.v[i] - b.v[i])
GLX_DVEC_LANEWISE(operator*, a.v[i] * b.v[i])
GLX_DVEC_LANEWISE(operator/, a.v[i] / b.v[i])
#undef GLX_DVEC_LANEWISE

inline DVec dv_fmadd(DVec a, DVec b, DVec c) { return a * b + c; }
inline DVec dv_fmsub(DVec a, DVec b, DVec c) { return a * b - c; }
inline DVec dv_fnmadd(DVec a, DVec b, DVec c) { return c - a * b; }

}  // namespace abi_generic

#endif

}  // namespace galactos::math::simd
