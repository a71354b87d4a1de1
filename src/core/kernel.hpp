// The multipole accumulation kernel — where Galactos spends 55 % of its
// runtime (paper Fig. 4) and reaches 39 % of peak (paper §3.3.2).
//
// Per radial bin the kernel accumulates, over all (primary, secondary)
// pairs, the power sums
//
//     S[a,b,c] += w * (dx/r)^a (dy/r)^b (dz/r)^c,    a+b+c <= lmax,
//
// 286 terms for lmax = 10 at 2 FLOPs each (575+ FLOP/pair, matching the
// paper's 576). The design follows §3.3 exactly:
//
// * Pre-binning (§3.3.1): pairs are buffered into per-bin SoA *buckets* of
//   `bucket_capacity` (paper: k = 128) and processed a bucket at a time, so
//   vector operations touch a single bin's accumulators (cache reuse).
// * Lane accumulators (§3.3.2): each S[a,b,c] is an 8-wide lane array;
//   groups of 8 pairs accumulate lane-wise and a single reduction per
//   primary collapses lanes — replacing N/8 vector reductions with one.
// * Running products (§3.3.2/§3.3.3): per 8-pair chunk, walk the (a,b,c)
//   monomial tree with running products; `ilp` independent chunks are
//   interleaved to expose instruction-level parallelism (paper: 4
//   independent vectors).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "math/sph_table.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"

namespace galactos::core {

inline constexpr int kLanes = 8;  // 512-bit worth of doubles, as on KNL

// --- Runtime ISA dispatch -------------------------------------------------
//
// The bucket kernels below are compiled once per ISA level (scalar /
// AVX2+FMA / AVX-512) into separate translation units with per-source
// target flags; every call dispatches to the best level the CPU supports.
// Every level executes the identical per-lane operation sequence, so the
// power sums are BITWISE identical across levels (asserted in ctest).
//
// The first kernel call resolves the GALACTOS_KERNEL_ISA environment
// variable (scalar | avx2 | avx512 | auto; unset means auto). A malformed
// value, or a level the CPU/build cannot run, raises std::logic_error with
// a message naming the valid choices.
enum class KernelIsa { kScalar, kAvx2, kAvx512, kAuto };

// Was this level's kernel compiled into the binary? (kScalar: always;
// kAuto: trivially true.)
bool kernel_isa_compiled(KernelIsa isa);
// Compiled AND runnable on this CPU (CPUID probe).
bool kernel_isa_supported(KernelIsa isa);
// Best supported level — what kAuto resolves to.
KernelIsa kernel_isa_detect();
// Active level, resolving GALACTOS_KERNEL_ISA on first use. Never kAuto.
KernelIsa kernel_isa();
// Overrides the active level (kAuto re-detects). Throws std::logic_error
// if the level is not supported. Used by the per-ISA bench/test A/Bs; call
// only between engine runs — kernels in flight keep their level.
void set_kernel_isa(KernelIsa isa);
// "scalar" | "avx2" | "avx512" | "auto".
const char* kernel_isa_name(KernelIsa isa);
// Parses the spelling above; throws std::logic_error on anything else.
KernelIsa parse_kernel_isa(const std::string& name);
// Re-reads GALACTOS_KERNEL_ISA: the parsed request, kAuto when unset or
// empty. Throws like parse_kernel_isa on malformed values. Exposed so the
// env contract is unit-testable; normal code just calls kernel_isa().
KernelIsa kernel_isa_from_env();

struct KernelConfig {
  int lmax = 10;
  int nbins = 10;
  int bucket_capacity = 128;  // pairs per bucket; multiple of kLanes
  int ilp = 4;  // independent running-product streams (1, 2 or 4)
};

// FLOPs per pair attributed to the kernel: one FMA (2 FLOPs) per monomial.
inline double kernel_flops_per_pair(int lmax) {
  return 2.0 * math::monomial_count(lmax);
}

// --- Raw bucket kernels (exposed for unit tests and the kernel bench). ---
// All require count % kLanes == 0 (callers pad with zero weight); `acc` is
// the lane accumulator block acc[n_mono][kLanes]. With `overwrite` the
// first contribution stores instead of accumulating, so callers never have
// to zero `acc` (the memset would cost as much as a ~40-pair bucket).

void kernel_running_product(const double* ux, const double* uy,
                            const double* uz, const double* w, int count,
                            int lmax, double* acc, int ilp,
                            bool overwrite = false);

// Scalar oracle (any count), accumulating directly into sums[n_mono].
void kernel_reference(const double* ux, const double* uy, const double* uz,
                      const double* w, int count, int lmax, double* sums);

// --- Per-primary accumulator used by the engine. ---
//
// Lifecycle per primary: start_primary(); push(...) per secondary;
// finish_primary(); then read power_sums(bin) for each touched bin.
class MultipoleAccumulator {
 public:
  explicit MultipoleAccumulator(const KernelConfig& cfg);

  const KernelConfig& config() const { return cfg_; }
  int n_mono() const { return n_mono_; }

  void start_primary();

  // Adds one pair with unit separation (ux, uy, uz) and weight w to `bin`.
  void push(int bin, double ux, double uy, double uz, double w) {
    GLX_DCHECK(bin >= 0 && bin < cfg_.nbins);
    if (!touched_[bin]) touch(bin);
    double* bu = bucket_.data() +
                 static_cast<std::size_t>(bin) * 4 * cfg_.bucket_capacity;
    const int f = fill_[bin];
    bu[f] = ux;
    bu[cfg_.bucket_capacity + f] = uy;
    bu[2 * cfg_.bucket_capacity + f] = uz;
    bu[3 * cfg_.bucket_capacity + f] = w;
    if ((fill_[bin] = f + 1) == cfg_.bucket_capacity) flush(bin);
  }

  // Adds `count` pairs bound for one bin in a single call — the batched
  // entry point of the leaf-blocked engine path. Full-bucket chunks
  // arriving on an empty bucket run the kernel directly on the caller's
  // arrays (zero copy); ragged head/tail chunks go through the bucket
  // with memcpy. Chunk boundaries match `count` scalar push() calls
  // exactly, so results are bitwise identical.
  void push_block(int bin, const double* ux, const double* uy,
                  const double* uz, const double* w, int count) {
    GLX_DCHECK(bin >= 0 && bin < cfg_.nbins);
    if (count <= 0) return;
    if (!touched_[bin]) touch(bin);
    const int cap = cfg_.bucket_capacity;
    double* bu =
        bucket_.data() + static_cast<std::size_t>(bin) * 4 * cap;
    int done = 0;
    while (done < count) {
      const int f = fill_[bin];
      if (f == 0 && count - done >= cap) {
        pairs_ += static_cast<std::uint64_t>(cap);
        run_kernel(bin, ux + done, uy + done, uz + done, w + done, cap);
        done += cap;
        continue;
      }
      const int take = std::min(cap - f, count - done);
      const std::size_t bytes = static_cast<std::size_t>(take) * sizeof(double);
      std::memcpy(bu + f, ux + done, bytes);
      std::memcpy(bu + cap + f, uy + done, bytes);
      std::memcpy(bu + 2 * cap + f, uz + done, bytes);
      std::memcpy(bu + 3 * cap + f, w + done, bytes);
      fill_[bin] = f + take;
      done += take;
      if (fill_[bin] == cap) flush(bin);
    }
  }

  void finish_primary();

  // Power sums S[a,b,c] for `bin` in MonomialMap order; valid after
  // finish_primary(). Zero pointer semantics: only touched bins are valid.
  const double* power_sums(int bin) const {
    GLX_DCHECK(bin >= 0 && bin < cfg_.nbins);
    return sums_.data() + static_cast<std::size_t>(bin) * n_mono_;
  }
  bool bin_touched(int bin) const { return touched_[bin] != 0; }

  std::uint64_t pairs_processed() const { return pairs_; }

 private:
  void touch(int bin);
  void flush(int bin);
  // Runs the bucket kernel on `padded` pairs (a multiple of
  // kLanes) from any memory, honoring the bin's first-flush overwrite.
  void run_kernel(int bin, const double* ux, const double* uy,
                  const double* uz, const double* w, int padded);

  KernelConfig cfg_;
  int n_mono_;
  AlignedBuffer<double> acc_;     // [nbins][n_mono][kLanes]
  AlignedBuffer<double> bucket_;  // [nbins][4][capacity]
  AlignedBuffer<double> sums_;    // [nbins][n_mono]
  std::vector<int> fill_;
  std::vector<std::uint8_t> touched_;
  std::vector<std::uint8_t> first_flush_;
  std::vector<int> touched_list_;
  std::uint64_t pairs_ = 0;
};

}  // namespace galactos::core
