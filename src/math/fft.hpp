// Power-of-two FFT — the transform substrate for the lognormal mock
// generator and the FFT estimator backend's mesh convolutions.
//
// Scope: double precision, 1-D and 3-D, complex-to-complex plus real-input
// (r2c) / real-output (c2r) 3-D variants that read/write strided real arrays
// directly so mesh pipelines never stage a full real copy into a complex
// cube. Sizes are power-of-two (enforced).
//
// Every transform is a batch of 1-D lines (fft_lines). Lines are processed
// eight at a time: a tile of eight lines is gathered into a small split
// real/imaginary buffer (L1-resident at grid 128) with the lines innermost,
// so the butterflies (radix 2^2, plus one radix-2 stage when log2 n is odd)
// run over eight lanes and vectorize, and a strided column axis is read as
// one contiguous 128-byte row per element instead of one cache line per
// element. The 3-D transforms run the z and y passes of each x-plane back
// to back while it is cache-resident, then the x pass. Twiddles come from
// a table of cos/sin values (no w *= wlen recurrence, so round-off does not
// grow with the line length). Tables are built per call and never shared
// mutably, so concurrent callers (e.g. thread-ranks) are safe.
//
// Normalization: forward is unnormalized; inverse divides by N, so
// ifft(fft(x)) == x.
#pragma once

#include <complex>
#include <vector>

#include "util/check.hpp"

namespace galactos::math {

using cplx = std::complex<double>;

inline bool is_pow2(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

// Where the lines of a batched transform live: element k of line i of group
// g is data[g * group_stride + i * line_stride + k * elem_stride]. Tiles of
// eight lines never cross a group, so a line_stride of 1 makes each tile
// row one contiguous read.
struct LineLayout {
  std::size_t elem_stride;  // between consecutive elements of a line
  std::size_t line_stride;  // between adjacent lines of a group
  std::size_t lines;        // lines per group
  std::size_t groups = 1;
  std::size_t group_stride = 0;
};

// In-place 1-D transforms of length n (power of two) over every line of
// `layout`, parallelized over tiles with `nthreads` OpenMP threads (0: the
// OpenMP default). sign = -1: forward (e^{-i k x}); sign = +1: inverse
// (scaled by 1/n).
void fft_lines(cplx* data, std::size_t n, const LineLayout& layout, int sign,
               int nthreads = 0);

// In-place 1-D transform of a contiguous line of length n (power of two).
void fft_1d(cplx* data, std::size_t n, int sign);

// In-place 3-D transform on an n*n*n cube stored row-major as
// data[(ix*n + iy)*n + iz].
void fft_3d(std::vector<cplx>& data, std::size_t n, int sign);

// Forward 3-D transform of a real field read in place: sample (ix,iy,iz)
// lives at in[((ix*n + iy)*n + iz) * stride]. `out` is resized to n^3 and
// receives the full complex spectrum, out[(jx*n + jy)*n + jz] — identical
// to staging `in` into a complex cube and calling fft_3d(out, n, -1), but
// the z-axis pass transforms two real rows per complex FFT (packed as
// re + i*im), halving that pass and skipping the staging copy.
void fft_r2c_3d(const double* in, std::size_t stride, std::size_t n,
                std::vector<cplx>& out);

// Inverse of fft_r2c_3d for (numerically) Hermitian spectra: transforms
// `spec` IN PLACE (sign = +1, 1/N^3 total normalization) and writes the
// real part of sample (ix,iy,iz) to out[((ix*n + iy)*n + iz) * stride].
// The z-axis pass again does two rows per complex FFT, which is exact when
// the output field is real; non-Hermitian round-off leaks between row
// pairs at machine precision. `spec` is clobbered (scratch afterwards).
// `out` may alias the real parts of `spec` (reinterpret_cast<double*>(
// spec.data()) with stride 2): each output row is written only after its
// own spectrum rows have been read.
void fft_c2r_3d(std::vector<cplx>& spec, std::size_t n, double* out,
                std::size_t stride);

// Naive O(N^2) DFT used only as an oracle in tests. The phase index k*j is
// reduced mod N before scaling, so the oracle's own error stays near one
// ulp per term at any N.
std::vector<cplx> dft_reference(const std::vector<cplx>& in, int sign);

}  // namespace galactos::math
