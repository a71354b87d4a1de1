// §5.1 microbenchmark: the multipole accumulation kernel.
//
// The paper reports 1017 GF (39 % of KNL peak) for this kernel at lmax = 10,
// bucket k = 128, 8-lane accumulators, 4 independent streams. Here we
// measure the same kernel's GF/s on the host CPU at every ISA level, all ILP
// widths and several bucket sizes, using the paper's FLOP accounting
// (2 FLOPs per monomial per pair = 572 FLOP/pair at lmax = 10).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/kernel.hpp"
#include "math/rng.hpp"

namespace c = galactos::core;
namespace m = galactos::math;

namespace {

struct Bucket {
  std::vector<double> ux, uy, uz, w;
};

Bucket make_bucket(int n, std::uint64_t seed) {
  m::Rng rng(seed);
  Bucket b;
  b.ux.resize(n);
  b.uy.resize(n);
  b.uz.resize(n);
  b.w.resize(n);
  for (int i = 0; i < n; ++i) {
    rng.unit_vector(b.ux[i], b.uy[i], b.uz[i]);
    b.w[i] = rng.uniform(0.5, 1.5);
  }
  return b;
}

void set_flops(benchmark::State& state, int lmax, int count) {
  const double fl = c::kernel_flops_per_pair(lmax) * count;
  state.counters["FLOP/pair"] = c::kernel_flops_per_pair(lmax);
  state.counters["GF/s"] = benchmark::Counter(
      fl, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
  state.SetItemsProcessed(state.iterations() * count);
}

// The per-ISA A/B dimension: benchmark arg -> dispatch level. Unsupported
// levels skip with a notice instead of failing, so one binary runs
// everywhere; the RAII reset keeps the level from leaking into benches
// that don't carry the arg.
constexpr c::KernelIsa kIsaArg[] = {c::KernelIsa::kScalar, c::KernelIsa::kAvx2,
                                    c::KernelIsa::kAvx512, c::KernelIsa::kAuto};

struct IsaRun {
  bool ok;
  explicit IsaRun(benchmark::State& state, int arg) {
    const c::KernelIsa isa = kIsaArg[arg];
    ok = c::kernel_isa_supported(isa);
    if (!ok) {
      state.SkipWithError((std::string("ISA not supported on this host: ") +
                           c::kernel_isa_name(isa))
                              .c_str());
      return;
    }
    c::set_kernel_isa(isa);
    state.SetLabel(std::string("isa:") + c::kernel_isa_name(c::kernel_isa()));
  }
  ~IsaRun() { c::set_kernel_isa(c::KernelIsa::kAuto); }
};

}  // namespace

static void BM_KernelRunningProduct(benchmark::State& state) {
  const int lmax = static_cast<int>(state.range(0));
  const int count = static_cast<int>(state.range(1));
  const int ilp = static_cast<int>(state.range(2));
  IsaRun isa(state, static_cast<int>(state.range(3)));
  if (!isa.ok) return;
  const Bucket b = make_bucket(count, 42);
  std::vector<double> acc(
      static_cast<std::size_t>(m::monomial_count(lmax)) * c::kLanes, 0.0);
  for (auto _ : state) {
    c::kernel_running_product(b.ux.data(), b.uy.data(), b.uz.data(),
                              b.w.data(), count, lmax, acc.data(), ilp);
    benchmark::DoNotOptimize(acc.data());
  }
  set_flops(state, lmax, count);
}
// isa: 0 = scalar, 1 = avx2, 2 = avx512, 3 = auto. The paper configuration
// (lmax 10, bucket 128, ilp 4) runs at every level — the kernel-GFLOP/s
// A/B matrix; the shape sweeps run once at auto.
BENCHMARK(BM_KernelRunningProduct)
    ->ArgNames({"lmax", "bucket", "ilp", "isa"})
    ->Args({10, 128, 4, 0})
    ->Args({10, 128, 4, 1})
    ->Args({10, 128, 4, 2})
    ->Args({10, 128, 4, 3})
    ->Args({10, 128, 1, 3})
    ->Args({10, 128, 2, 3})
    ->Args({10, 512, 4, 3})
    ->Args({5, 128, 4, 3})
    ->Args({10, 32, 4, 3});

static void BM_KernelReferenceScalar(benchmark::State& state) {
  const int lmax = static_cast<int>(state.range(0));
  const int count = 128;
  const Bucket b = make_bucket(count, 44);
  std::vector<double> sums(m::monomial_count(lmax), 0.0);
  for (auto _ : state) {
    c::kernel_reference(b.ux.data(), b.uy.data(), b.uz.data(), b.w.data(),
                        count, lmax, sums.data());
    benchmark::DoNotOptimize(sums.data());
  }
  set_flops(state, lmax, count);
}
BENCHMARK(BM_KernelReferenceScalar)->ArgNames({"lmax"})->Arg(10)->Arg(5);

// Full accumulator path including binning/bucketing overhead — what the
// engine actually pays per pair.
static void BM_AccumulatorEndToEnd(benchmark::State& state) {
  const int lmax = 10;
  const int nbins = static_cast<int>(state.range(0));
  const int npairs = 8192;
  c::KernelConfig cfg;
  cfg.lmax = lmax;
  cfg.nbins = nbins;
  c::MultipoleAccumulator acc(cfg);
  const Bucket b = make_bucket(npairs, 45);
  m::Rng rng(46);
  std::vector<int> bins(npairs);
  for (int i = 0; i < npairs; ++i)
    bins[i] = static_cast<int>(rng.uniform_u64(nbins));
  for (auto _ : state) {
    acc.start_primary();
    for (int i = 0; i < npairs; ++i)
      acc.push(bins[i], b.ux[i], b.uy[i], b.uz[i], b.w[i]);
    acc.finish_primary();
    benchmark::DoNotOptimize(acc.power_sums(0));
  }
  set_flops(state, lmax, npairs);
}
BENCHMARK(BM_AccumulatorEndToEnd)->ArgNames({"nbins"})->Arg(10)->Arg(20);
