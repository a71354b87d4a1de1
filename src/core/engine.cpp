#include "core/engine.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>

#include "core/alm.hpp"
#include "core/fft_estimator.hpp"
#include "core/twopcf.hpp"
#include "tree/cellgrid.hpp"
#include "tree/kdtree.hpp"
#include "tree/let.hpp"
#include "util/aligned.hpp"

namespace galactos::core {

namespace detail {

// Owned-only power sums snapshotted during pass 1 for primaries that might
// see halo secondaries (within R_max of the SecondaryBound box). One
// instance per thread; concatenated SoA records, looked up by primary id
// in pass 2 so the owned a_lm is rebuilt by alm_from_power_sums instead of
// a kernel re-run.
struct SavedPrimaries {
  std::vector<std::int64_t> prim;  // primary id per record
  std::vector<int> nbins;          // touched-bin count per record
  std::vector<int> bins;           // concatenated touched-bin ids
  std::vector<double> sums;        // concatenated [n_mono] blocks
};

// Per-thread partial accumulators. The fused run_indexed path keeps them
// for the duration of one call; the two-pass pipeline parks them in the
// Staged handle between the owned pass and the secondary pass, so pass 2
// keeps adding into the exact per-thread slots pass 1 filled and the final
// merge runs in the same thread-id order either way.
struct TraversalPartials {
  int nthreads = 0;
  std::vector<std::unique_ptr<ZetaAccumulator>> zeta;
  std::vector<std::unique_ptr<TwoPcfAccumulator>> xi;
  std::vector<std::uint64_t> pairs;   // per thread; pass 2 adds halo pairs
  std::vector<SavedPrimaries> saved;  // per thread; empty without a bound
};

}  // namespace detail

namespace {

// Primary indexes always get the Morton layout and per-leaf interaction
// lists at R_max. Halo indexes (`for_secondary`) answer only per-point and
// per-box queries, never gather_leaf_neighbors, so they skip the lists.
template <typename Real, typename Index>
Index make_index(const sim::Catalog& catalog, const EngineConfig& cfg,
                 bool for_secondary) {
  const double ilist_rmax = for_secondary ? 0.0 : cfg.bins.rmax();
  if constexpr (std::is_same_v<Index, tree::KdTree<Real>>) {
    typename tree::KdTree<Real>::BuildParams bp;
    bp.leaf_size = cfg.tree.leaf_size;
    bp.interaction_rmax = ilist_rmax;
    return tree::KdTree<Real>(catalog, bp);
  } else {
    typename tree::CellGrid<Real>::BuildParams bp;
    bp.interaction_rmax = ilist_rmax;
    return tree::CellGrid<Real>(catalog, cfg.bins.rmax(), bp);
  }
}

// Dense accepted-pair staging shared by every traversal driver. fill()
// applies the candidate block's range filter / self exclusion / coincident
// rejection and stages the survivors — in candidate order — as SoA arrays
// of separation, r, 1/r and weight. This reproduces the accept set the
// per-primary index query computes during its gather, so (like separation
// formation) the filter runs on neighbor-query time; the kernel phase then
// walks only real pairs with no data-dependent branches.
//
// Two sweeps: the first compacts the accepted candidate indices
// (branchless: always store, masked advance), the second gathers those
// candidates and takes sqrt and 1/r of accepted pairs only — a candidate
// the filter rejects costs one compare, not a square root and six stores.
// No bits change anywhere: the range compare stays in index precision
// (Real), acceptance order is candidate order, sqrt and reciprocal are
// IEEE-exact, and dx stays unnormalized so the consumer still forms
// dx * (1/r) from identical operands.
class PairStage {
 public:
  std::size_t count = 0;
  std::vector<double> dx, dy, dz, r, inv, w;

  // `r2max` in index precision (pass infinity when the block is already
  // range-filtered); `self` is the primary's catalog index.
  template <typename Real>
  void fill(const Real* sdx, const Real* sdy, const Real* sdz,
            const Real* sr2, const double* sw, const std::int64_t* sidx,
            std::size_t n, Real r2max, std::int64_t self) {
    if (sel_.size() < n) {
      sel_.resize(n);
      dx.resize(n);
      dy.resize(n);
      dz.resize(n);
      r.resize(n);
      inv.resize(n);
      w.resize(n);
    }
    std::uint32_t* __restrict sel = sel_.data();
    std::size_t cnt = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const unsigned ok = static_cast<unsigned>(sr2[j] <= r2max) &
                          static_cast<unsigned>(sidx[j] != self) &
                          static_cast<unsigned>(
                              static_cast<double>(sr2[j]) > 0.0);
      sel[cnt] = static_cast<std::uint32_t>(j);
      cnt += ok;
    }
    double* __restrict ox = dx.data();
    double* __restrict oy = dy.data();
    double* __restrict oz = dz.data();
    double* __restrict orr = r.data();
    double* __restrict oi = inv.data();
    double* __restrict ow = w.data();
    for (std::size_t k = 0; k < cnt; ++k) {
      const std::uint32_t j = sel[k];
      const double rj = std::sqrt(static_cast<double>(sr2[j]));
      ox[k] = static_cast<double>(sdx[j]);
      oy[k] = static_cast<double>(sdy[j]);
      oz[k] = static_cast<double>(sdz[j]);
      orr[k] = rj;
      oi[k] = 1.0 / rj;
      ow[k] = sw[j];
    }
    count = cnt;
  }

 private:
  std::vector<std::uint32_t> sel_;  // accepted candidate indices
};

// Per-bin staging for the leaf-blocked driver's batch-binning pass: one
// bucket_capacity-sized SoA segment per bin, drained to the kernel
// bucket-at-a-time through push_block. A drain always hands over a full
// bucket on an empty bucket, so push_block runs the kernel directly on
// this memory — zero extra copies on the hot path.
class BinStage {
 public:
  BinStage(int nbins, int capacity)
      : cap_(capacity),
        data_(static_cast<std::size_t>(nbins) * 4 * capacity),
        fill_(nbins, 0),
        listed_(nbins, 0) {
    touched_.reserve(nbins);
  }

  // Appends one accepted pair; drains the bin when its segment fills.
  void add(int bin, double ux, double uy, double uz, double w,
           MultipoleAccumulator& acc) {
    if (!listed_[bin]) {
      listed_[bin] = 1;
      touched_.push_back(bin);
    }
    double* sb = data_.data() + static_cast<std::size_t>(bin) * 4 * cap_;
    const int f = fill_[bin];
    sb[f] = ux;
    sb[cap_ + f] = uy;
    sb[2 * cap_ + f] = uz;
    sb[3 * cap_ + f] = w;
    if ((fill_[bin] = f + 1) == cap_) drain(bin, acc);
  }

  // Drains every bin with staged pairs; call once per primary.
  void finish(MultipoleAccumulator& acc) {
    for (const int bin : touched_) {
      if (fill_[bin] > 0) drain(bin, acc);
      listed_[bin] = 0;
    }
    touched_.clear();
  }

 private:
  void drain(int bin, MultipoleAccumulator& acc) {
    const double* sb =
        data_.data() + static_cast<std::size_t>(bin) * 4 * cap_;
    acc.push_block(bin, sb, sb + cap_, sb + 2 * cap_, sb + 3 * cap_,
                   fill_[bin]);
    fill_[bin] = 0;
  }

  int cap_;
  AlignedBuffer<double> data_;  // [nbins][4][cap]
  std::vector<int> fill_;
  std::vector<std::uint8_t> listed_;
  std::vector<int> touched_;
};

// Forms one primary's separations against a gathered block (SIMD
// subtraction + squared norm).
template <typename Real>
inline void form_separations(const tree::NeighborBlock<Real>& block, Real px,
                             Real py, Real pz, Real* __restrict dxv,
                             Real* __restrict dyv, Real* __restrict dzv,
                             Real* __restrict r2v) {
  const Real* __restrict bx = block.x.data();
  const Real* __restrict by = block.y.data();
  const Real* __restrict bz = block.z.data();
  const std::size_t m = block.size();
#pragma omp simd
  for (std::size_t j = 0; j < m; ++j) {
    const Real ddx = bx[j] - px;
    const Real ddy = by[j] - py;
    const Real ddz = bz[j] - pz;
    dxv[j] = ddx;
    dyv[j] = ddy;
    dzv[j] = ddz;
    r2v[j] = ddx * ddx + ddy * ddy + ddz * ddz;
  }
}

// Number of leaf-blocked leaves (resp. per-primary primaries) the master
// thread processes between poll() invocations.
constexpr int kPollLeafStride = 4;
constexpr int kPollPrimaryStride = 256;

// Read-only state of one traversal, shared by every thread and by both
// pass bodies. `catalog` holds the owned points (the only ones that can act
// as primaries); `secondary`, when given, indexes halo points that act as
// secondaries only.
template <typename Real, typename Index>
struct Traversal {
  Traversal(const EngineConfig& c, const sim::Catalog& cat, const Index& idx,
            const Index* sec, const std::vector<std::int64_t>* prim)
      : cfg(c),
        catalog(cat),
        index(idx),
        secondary(sec),
        primaries(prim),
        nbins(c.bins.count()),
        nlm(math::nlm(c.lmax)),
        nthreads(c.threads > 0 ? c.threads : omp_get_max_threads()),
        table(c.lmax),
        llm(c.lmax) {
    if (cfg.subtract_self_pairs) self_table.emplace(table, llm);
    kc.lmax = cfg.lmax;
    kc.nbins = nbins;
    kc.bucket_capacity = cfg.tree.bucket_capacity;
    kc.ilp = cfg.tree.ilp;
    // Too few leaves starve a leaf-parallel run (e.g. a CellGrid whose
    // extent is a handful of R_max cells); the per-primary driver computes
    // the same answer, so fall back to it rather than idle most threads.
    blocked = cfg.tree.traversal == TraversalMode::kLeafBlocked &&
              index.leaf_count() >= 2 * static_cast<std::size_t>(nthreads);
    // Leaves hold points in index order, so the leaf-blocked driver tests
    // a subset of primaries per point.
    if (primaries && blocked) {
      is_primary.assign(catalog.size(), 0);
      for (std::int64_t p : *primaries)
        is_primary[static_cast<std::size_t>(p)] = 1;
    }
  }

  double weight(std::int64_t p) const {
    return catalog.w[static_cast<std::size_t>(p)];
  }

  Timer wall;  // first member: starts before the tables are built
  const EngineConfig& cfg;
  const sim::Catalog& catalog;
  const Index& index;
  const Index* secondary;
  const std::vector<std::int64_t>* primaries;
  int nbins, nlm, nthreads;
  math::SphHarmTable table;
  LlmIndex llm;
  std::optional<SelfPairTable> self_table;
  KernelConfig kc;
  bool blocked = false;  // leaf-blocked driver (after the fallback)
  std::vector<std::uint8_t> is_primary;
};

// Per-thread phase times and counters, reduced in thread-id order.
struct Tally {
  double query = 0, kernel = 0, zeta = 0;
  std::uint64_t candidates = 0, skipped = 0;
  std::uint64_t pairs = 0;         // new physical pairs
  std::uint64_t kernel_pairs = 0;  // executed kernel pairs
};

// One primary's candidate secondaries from the owned index, the halo index,
// or their union (halo ids offset by the owned catalog size so they can
// never collide with a primary). In leaf-blocked mode the current leaf's
// block is gathered once — lazily, for the first primary that asks — and
// shared by the leaf's ~leaf_size primaries while it is hot in cache: each
// forms its separations by SIMD subtraction and range-filters on the Real
// r2 (bitwise the accept set and order a per-primary index query computes).
// In per-primary mode every primary runs its own index query, whose r2 is
// already range-filtered; rotation preserves the norm, so binning uses the
// stored value. Gather, separation formation and the filter are all
// neighbor-search work and count toward the "neighbor query" phase.
template <typename Real, typename Index>
class Candidates {
 public:
  Candidates(const Traversal<Real, Index>& tv, bool owned, bool halo)
      : tv_(tv),
        owned_(owned ? &tv.index : nullptr),
        halo_(halo ? tv.secondary : nullptr) {}

  void start_leaf(std::size_t leaf) {
    leaf_ = leaf;
    ready_ = false;
  }

  // Stages primary `p` (owned-index storage slot `t`, read in leaf-blocked
  // mode) into `ps`; returns the number of candidates examined.
  std::size_t stage(std::int64_t p, std::size_t t, PairStage& ps,
                    double& query_time) {
    Timer tq;
    const double rmax = tv_.cfg.bins.rmax();
    std::size_t n = 0;
    if (tv_.blocked) {
      if (!ready_) gather_leaf();
      n = block_.size();
      form_separations(block_, tv_.index.x(t), tv_.index.y(t),
                       tv_.index.z(t), sdx_.data(), sdy_.data(), sdz_.data(),
                       sr2_.data());
      const Real r2max = static_cast<Real>(rmax) * static_cast<Real>(rmax);
      ps.fill(sdx_.data(), sdy_.data(), sdz_.data(), sr2_.data(),
              block_.w.data(), block_.idx.data(), n, r2max, p);
    } else {
      const sim::Vec3 pos = tv_.catalog.position(static_cast<std::size_t>(p));
      nl_.clear();
      if (owned_) owned_->gather_neighbors(pos.x, pos.y, pos.z, rmax, nl_);
      if (halo_) {
        const std::size_t before = nl_.size();
        halo_->gather_neighbors(pos.x, pos.y, pos.z, rmax, nl_);
        offset_halo(nl_.idx, before);
      }
      n = nl_.size();
      ps.fill(nl_.dx.data(), nl_.dy.data(), nl_.dz.data(), nl_.r2.data(),
              nl_.w.data(), nl_.idx.data(), n,
              std::numeric_limits<Real>::infinity(), p);
    }
    query_time += tq.seconds();
    return n;
  }

 private:
  void gather_leaf() {
    const double rmax = tv_.cfg.bins.rmax();
    block_.clear();
    if (owned_) owned_->gather_leaf_neighbors(leaf_, rmax, block_);
    if (halo_) {
      Real lo[3], hi[3];
      tv_.index.leaf_box(leaf_, lo, hi);
      const std::size_t before = block_.size();
      halo_->gather_box_neighbors(lo, hi, rmax, block_);
      offset_halo(block_.idx, before);
    }
    const std::size_t m = block_.size();
    sdx_.resize(m);
    sdy_.resize(m);
    sdz_.resize(m);
    sr2_.resize(m);
    ready_ = true;
  }

  void offset_halo(std::vector<std::int64_t>& idx, std::size_t from) const {
    const std::int64_t offset = static_cast<std::int64_t>(tv_.catalog.size());
    for (std::size_t j = from; j < idx.size(); ++j) idx[j] += offset;
  }

  const Traversal<Real, Index>& tv_;
  const Index* owned_;
  const Index* halo_;
  tree::NeighborList<Real> nl_;
  tree::NeighborBlock<Real> block_;
  std::vector<Real> sdx_, sdy_, sdz_, sr2_;
  std::size_t leaf_ = 0;
  bool ready_ = false;
};

// One a_lm pipeline: kernel accumulator, the leaf-blocked driver's bin
// staging, and the assembled a_lm.
struct AlmPipe {
  AlmPipe(const KernelConfig& kc, int nlm)
      : acc(kc),
        stage(kc.nbins, kc.bucket_capacity),
        alm(static_cast<std::size_t>(kc.nbins) * nlm),
        touched(kc.nbins, 0) {}

  // Runs the kernel over one primary's staged pairs: bin, rotate into the
  // primary's LOS frame (`rot`, when set), normalize, then hand each pair
  // over bucket-at-a-time through the bin stage (`blocked`) or one at a
  // time. `sp`, when set, takes each secondary's self-pair moment. Returns
  // the number of pairs the kernel accepted.
  std::uint64_t consume(const PairStage& ps, const RadialBins& bins,
                        const Rotation* rot, bool blocked,
                        SelfPairAccumulator* sp) {
    acc.start_primary();
    std::uint64_t accepted = 0;
    if (blocked) {
      accepted = bin_pairs(ps, bins, rot, sp,
                           [&](int b, double ux, double uy, double uz,
                               double w) { stage.add(b, ux, uy, uz, w, acc); });
      stage.finish(acc);
    } else {
      accepted = bin_pairs(ps, bins, rot, sp,
                           [&](int b, double ux, double uy, double uz,
                               double w) { acc.push(b, ux, uy, uz, w); });
    }
    acc.finish_primary();
    return accepted;
  }

  // a_lm from the kernel's power sums; `xi`, when set, also takes this
  // primary's 2PCF moments.
  void assemble(const math::SphHarmTable& table, double wp,
                TwoPcfAccumulator* xi) {
    compute_alm(table, acc, alm.data(), touched.data());
    if (!xi) return;
    for (int b = 0; b < static_cast<int>(touched.size()); ++b)
      if (touched[b])
        xi->add_primary_bin(wp, b, acc.power_sums(b), table.monomials());
  }

  MultipoleAccumulator acc;
  BinStage stage;
  std::vector<std::complex<double>> alm;
  std::vector<std::uint8_t> touched;

 private:
  template <typename Push>
  static std::uint64_t bin_pairs(const PairStage& ps, const RadialBins& bins,
                                 const Rotation* rot, SelfPairAccumulator* sp,
                                 Push&& push) {
    std::uint64_t accepted = 0;
    for (std::size_t j = 0; j < ps.count; ++j) {
      const int bin = bins.bin_of(ps.r[j]);
      if (bin < 0) continue;
      double dx = ps.dx[j];
      double dy = ps.dy[j];
      double dz = ps.dz[j];
      if (rot) rot->apply(dx, dy, dz);
      const double inv = ps.inv[j];
      push(bin, dx * inv, dy * inv, dz * inv, ps.w[j]);
      if (sp) sp->add(bin, dz * inv, ps.w[j]);
      ++accepted;
    }
    return accepted;
  }
};

// The one traversal skeleton (Algorithm 1's outer loop, §3.3). It owns the
// OpenMP region, the driver (per primary, or per leaf with the primaries a
// leaf stores), the LOS rotation and observer skip, scheduling, the poll
// hook, the per-thread phase/counter reduction, and the ending: merge the
// per-thread partials into `result`, or leave them parked in `parts` when
// `result` is null (pass 1 of the two-pass pipeline).
//
// What a pass does per primary lives in its Body, built once per thread by
// `make_body(tid)`:
//   bool wants_leaf(leaf)         leaf-level prune before any gather
//   void start_leaf(leaf)         a new leaf's primaries follow
//   void primary(p, t, rot, tally)
//   void finish(tally)            fold self pairs, report pair counts
//   kOwnsPrimaries                false for the completion pass, which only
//                                 adds to primaries pass 1 already counted
//
// `poll`, when set, is called from the master thread — the rank's own OS
// thread, so single-threaded MPI progress rules hold — every few leaves or
// primaries, so the caller can progress outstanding communication.
template <typename Real, typename Index, typename MakeBody>
void traverse(const Traversal<Real, Index>& tv,
              detail::TraversalPartials& parts, ZetaResult* result,
              EngineStats& stats, const std::function<void()>& poll,
              MakeBody&& make_body) {
  using Body = std::invoke_result_t<MakeBody&, int>;
  const int nthreads = tv.nthreads;
  const std::int64_t np =
      tv.primaries ? static_cast<std::int64_t>(tv.primaries->size())
                   : static_cast<std::int64_t>(tv.catalog.size());
  // A completion pass without a halo index has nothing to add.
  const bool idle = !Body::kOwnsPrimaries && tv.secondary == nullptr;
  const std::int64_t units =
      idle ? 0
           : tv.blocked ? static_cast<std::int64_t>(tv.index.leaf_count())
                        : np;
  const int chunk = tv.blocked ? 1 : 4;
  const int poll_stride = tv.blocked ? kPollLeafStride : kPollPrimaryStride;
  std::vector<Tally> tallies(nthreads);

  Timer tcompute;
#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    Body body = make_body(tid);
    Tally tally;
    const bool do_poll = static_cast<bool>(poll) && tid == 0;
    int since_poll = 0;

    auto visit = [&](std::int64_t p, std::size_t t) {
      Rotation rot;
      const Rotation* r = nullptr;
      if (tv.cfg.los == LineOfSight::kRadial) {
        const sim::Vec3 rel =
            tv.catalog.position(static_cast<std::size_t>(p)) -
            tv.cfg.observer;
        if (rel.norm2() == 0.0) {  // no LOS: skip the primary
          ++tally.skipped;
          return;
        }
        rot = rotation_to_z(rel);
        r = &rot;
      }
      body.primary(p, t, r, tally);
    };

    auto process = [&](std::int64_t u) {
      if (do_poll && ++since_poll >= poll_stride) {
        since_poll = 0;
        poll();
      }
      if (!tv.blocked) {
        visit(tv.primaries ? (*tv.primaries)[u] : u, 0);
        return;
      }
      const std::size_t leaf = static_cast<std::size_t>(u);
      if (!body.wants_leaf(leaf)) return;
      body.start_leaf(leaf);
      const std::size_t end = tv.index.leaf_end(leaf);
      for (std::size_t t = tv.index.leaf_begin(leaf); t < end; ++t) {
        const std::int64_t p = tv.index.original_index(t);
        if (tv.is_primary.empty() || tv.is_primary[static_cast<std::size_t>(p)])
          visit(p, t);
      }
    };

    // Paper §3.3: dynamic scheduling is "a significant performance boost
    // over a static schedule"; both stay available for the ablation bench.
    if (tv.cfg.tree.schedule == OmpSchedule::kDynamic) {
#pragma omp for schedule(dynamic, chunk)
      for (std::int64_t u = 0; u < units; ++u) process(u);
    } else {
#pragma omp for schedule(static)
      for (std::int64_t u = 0; u < units; ++u) process(u);
    }

    body.finish(tally);
    tallies[tid] = tally;
  }
  const double compute_wall = tcompute.seconds();

  Tally sum;
  std::vector<std::uint64_t> per_thread;
  for (int t = 0; t < nthreads; ++t) {
    const Tally& tt = tallies[t];
    sum.query += tt.query;
    sum.kernel += tt.kernel;
    sum.zeta += tt.zeta;
    sum.candidates += tt.candidates;
    sum.skipped += tt.skipped;
    sum.pairs += tt.pairs;
    sum.kernel_pairs += tt.kernel_pairs;
    per_thread.push_back(tt.pairs);
    parts.pairs[t] += tt.pairs;
  }

  // Thread-summed phase times divided by thread count approximate the
  // wall-clock share of each phase inside the parallel region; the residual
  // (imbalance + merge) is reported separately so shares sum to the wall.
  const double dn = static_cast<double>(nthreads);
  stats.phases.add("neighbor query", sum.query / dn);
  stats.phases.add("multipole kernel", sum.kernel / dn);
  stats.phases.add("alm+zeta", sum.zeta / dn);
  stats.phases.add("imbalance+merge",
                   std::max(0.0, compute_wall -
                                     (sum.query + sum.kernel + sum.zeta) / dn));
  stats.pairs = sum.pairs;
  stats.candidates = sum.candidates;
  stats.primaries_skipped = Body::kOwnsPrimaries ? sum.skipped : 0;
  stats.pairs_per_thread = std::move(per_thread);
  stats.kernel_flop_count = static_cast<double>(sum.kernel_pairs) *
                            kernel_flops_per_pair(tv.cfg.lmax);

  if (result) {
    // Thread-id order, so an empty completion pass reproduces the fused run
    // bitwise. Run-to-run bit identity needs more: which primaries a thread
    // accumulates, and in what order, is fixed only at one thread or under
    // kStatic — kDynamic hands leaves to whichever thread is free, so with
    // several threads the per-thread sums (and the merged result) differ in
    // the last bits from run to run.
    ZetaAccumulator zeta_total(tv.cfg.lmax, tv.nbins);
    TwoPcfAccumulator xi_total(tv.cfg.lmax, tv.nbins);
    std::uint64_t pairs_total = 0;
    for (int t = 0; t < parts.nthreads; ++t) {
      if (parts.zeta[t]) zeta_total.merge(*parts.zeta[t]);
      if (parts.xi[t]) xi_total.merge(*parts.xi[t]);
      pairs_total += parts.pairs[t];
    }
    result->bins = tv.cfg.bins;
    result->lmax = tv.cfg.lmax;
    result->n_primaries = zeta_total.primaries();
    result->sum_primary_weight = zeta_total.sum_weight();
    result->n_pairs = pairs_total;
    result->zeta_data = zeta_total.snapshot();
    result->pair_counts = xi_total.counts();
    result->xi_raw = xi_total.xi_raw();
  }
  stats.wall_seconds = tv.wall.seconds();
}

// Fused / owned pass body: each primary's a_lm over the owned index —
// unioned with the halo index in the fused staged run — accumulated into
// fresh per-thread zeta / 2PCF partials. With a SecondaryBound (two-pass
// owned pass) it also snapshots the owned power sums of primaries near the
// bound box, which may see halo secondaries in pass 2.
template <typename Real, typename Index>
class OwnedBody {
 public:
  static constexpr bool kOwnsPrimaries = true;

  OwnedBody(const Traversal<Real, Index>& tv, detail::TraversalPartials& parts,
            int tid, const Engine::SecondaryBound* bound, double bound_pad)
      : tv_(tv),
        cands_(tv, /*owned=*/true, /*halo=*/true),
        pipe_(tv.kc, tv.nlm),
        zeta_(*(parts.zeta[tid] = std::make_unique<ZetaAccumulator>(
                    tv.cfg.lmax, tv.nbins))),
        xi_(*(parts.xi[tid] = std::make_unique<TwoPcfAccumulator>(
                  tv.cfg.lmax, tv.nbins))),
        bound_(bound),
        bound_pad_(bound_pad),
        save_to_(bound ? &parts.saved[static_cast<std::size_t>(tid)]
                       : nullptr) {
    if (tv.self_table) sp_.emplace(*tv.self_table, tv.nbins);
  }

  bool wants_leaf(std::size_t) const { return true; }
  void start_leaf(std::size_t leaf) { cands_.start_leaf(leaf); }

  void primary(std::int64_t p, std::size_t t, const Rotation* rot,
               Tally& tally) {
    tally.candidates += cands_.stage(p, t, ps_, tally.query);
    const double wp = tv_.weight(p);
    Timer tk;
    if (sp_) sp_->start_primary(wp);
    pipe_.consume(ps_, tv_.cfg.bins, rot, tv_.blocked, sp_ ? &*sp_ : nullptr);
    tally.kernel += tk.seconds();

    Timer tz;
    if (save_to_ && near_bound(p)) save(p);
    pipe_.assemble(tv_.table, wp, &xi_);
    zeta_.add_primary(wp, pipe_.alm.data(), pipe_.touched.data());
    tally.zeta += tz.seconds();
  }

  void finish(Tally& tally) {
    Timer tz;
    zeta_.flush();  // the last, partial batch
    tally.zeta += tz.seconds();
    if (sp_) sp_->fold_into(zeta_);
    tally.pairs = tally.kernel_pairs = pipe_.acc.pairs_processed();
  }

 private:
  bool near_bound(std::int64_t p) const {
    const sim::Vec3 pos = tv_.catalog.position(static_cast<std::size_t>(p));
    const double margin = std::min(
        {pos.x - bound_->lo.x, bound_->hi.x - pos.x, pos.y - bound_->lo.y,
         bound_->hi.y - pos.y, pos.z - bound_->lo.z, bound_->hi.z - pos.z});
    return margin <= bound_pad_;
  }

  void save(std::int64_t p) {
    const MultipoleAccumulator& acc = pipe_.acc;
    save_to_->prim.push_back(p);
    int nb = 0;
    for (int b = 0; b < tv_.nbins; ++b)
      if (acc.bin_touched(b)) {
        save_to_->bins.push_back(b);
        const double* s = acc.power_sums(b);
        save_to_->sums.insert(save_to_->sums.end(), s, s + acc.n_mono());
        ++nb;
      }
    save_to_->nbins.push_back(nb);
  }

  const Traversal<Real, Index>& tv_;
  Candidates<Real, Index> cands_;
  PairStage ps_;
  AlmPipe pipe_;
  ZetaAccumulator& zeta_;
  TwoPcfAccumulator& xi_;
  std::optional<SelfPairAccumulator> sp_;
  const Engine::SecondaryBound* bound_;
  double bound_pad_;
  detail::SavedPrimaries* save_to_;
};

// A primary's pass-1 power-sum snapshot, looked up by primary id.
struct SavedRef {
  const int* bins = nullptr;
  const double* sums = nullptr;
  int count = -1;  // -1 = no snapshot
};

// Completion pass body (pass 2 of the two-pass pipeline): adds every
// owned-vs-halo contribution into the parked pass-1 partials.
//
// Per affected primary the completion is exact (see Staged::run_owned_pass
// in the header): the halo-only a_lm B is formed from the secondary index
// alone; the owned-only a_lm A is rebuilt from the pass-1 snapshot or, when
// none exists, recomputed with the same gather and kernel order as pass 1,
// so bitwise the pass-1 value; zeta gains wp·(A·B* + B·A* + B·B*) while the
// 2PCF moments, pair counts and self-pair terms (all additive over
// secondaries) gain their halo-only share. Primaries with no accepted halo
// pair — and entire leaves whose box is beyond R_max of the secondary
// index — are skipped: their pass-1 contribution is already final. The
// owned recompute is therefore paid only on the halo-adjacent surface of
// the domain, which is what makes running the whole O(N·n_nbr) pass 1
// while the halo is in flight a net win.
//
// Reported pairs are the NEW physical (owned, halo) kernel pairs — the
// runner adds them to the owned-pass count to recover the single-node
// total; kernel_flop_count counts executed kernel work (recompute
// included).
template <typename Real, typename Index>
class CompletionBody {
 public:
  static constexpr bool kOwnsPrimaries = false;  // pass 1 counted them

  CompletionBody(const Traversal<Real, Index>& tv,
                 detail::TraversalPartials& parts, int tid,
                 const std::vector<SavedRef>& snapshot)
      : tv_(tv),
        owned_(tv, /*owned=*/true, /*halo=*/false),
        halo_(tv, /*owned=*/false, /*halo=*/true),
        a_(tv.kc, tv.nlm),
        b_(tv.kc, tv.nlm),
        zeta_(*parts.zeta[tid]),
        xi_(*parts.xi[tid]),
        snapshot_(snapshot) {
    if (tv.self_table) sp_.emplace(*tv.self_table, tv.nbins);
  }

  // O(1) whole-secondary prune: interior leaves exit before any gather.
  bool wants_leaf(std::size_t leaf) const {
    Real lo[3], hi[3];
    tv_.index.leaf_box(leaf, lo, hi);
    return !tv_.secondary->box_beyond_reach(lo, hi, tv_.cfg.bins.rmax());
  }

  void start_leaf(std::size_t leaf) {
    owned_.start_leaf(leaf);
    halo_.start_leaf(leaf);
  }

  void primary(std::int64_t p, std::size_t t, const Rotation* rot,
               Tally& tally) {
    const std::size_t nb = halo_.stage(p, t, ps_, tally.query);
    tally.candidates += nb;
    if (nb == 0) return;
    const double wp = tv_.weight(p);
    Timer tk;
    if (sp_) sp_->start_primary(wp);
    const std::uint64_t accepted = b_.consume(ps_, tv_.cfg.bins, rot,
                                              tv_.blocked,
                                              sp_ ? &*sp_ : nullptr);
    tally.kernel += tk.seconds();
    if (accepted == 0) return;  // pass-1 contribution already final

    if (!restore_a(p, tally)) {
      tally.candidates += owned_.stage(p, t, ps_, tally.query);
      Timer tk2;
      a_.consume(ps_, tv_.cfg.bins, rot, tv_.blocked, nullptr);
      tally.kernel += tk2.seconds();
      Timer tza;
      a_.assemble(tv_.table, wp, nullptr);
      tally.zeta += tza.seconds();
    }

    Timer tz;
    b_.assemble(tv_.table, wp, &xi_);
    zeta_.add_primary_cross(wp, a_.alm.data(), a_.touched.data(),
                            b_.alm.data(), b_.touched.data());
    tally.zeta += tz.seconds();
  }

  void finish(Tally& tally) {
    if (sp_) sp_->fold_into(zeta_);
    tally.pairs = b_.acc.pairs_processed();
    tally.kernel_pairs = tally.pairs + a_.acc.pairs_processed();
  }

 private:
  // Rebuilds the owned a_lm A from its pass-1 snapshot; false when no
  // snapshot exists (the caller recomputes).
  bool restore_a(std::int64_t p, Tally& tally) {
    if (snapshot_.empty()) return false;
    const SavedRef& ref = snapshot_[static_cast<std::size_t>(p)];
    if (ref.count < 0) return false;
    Timer tz;
    const int n_mono = a_.acc.n_mono();
    std::fill(a_.touched.begin(), a_.touched.end(), 0);
    for (int i = 0; i < ref.count; ++i) {
      const int b = ref.bins[i];
      a_.touched[b] = 1;
      tv_.table.alm_from_power_sums(
          ref.sums + static_cast<std::size_t>(i) * n_mono,
          a_.alm.data() + static_cast<std::size_t>(b) * tv_.nlm);
    }
    tally.zeta += tz.seconds();
    return true;
  }

  const Traversal<Real, Index>& tv_;
  Candidates<Real, Index> owned_, halo_;
  PairStage ps_;
  AlmPipe a_;  // owned-only (A)
  AlmPipe b_;  // halo-only (B)
  ZetaAccumulator& zeta_;
  TwoPcfAccumulator& xi_;
  std::optional<SelfPairAccumulator> sp_;
  const std::vector<SavedRef>& snapshot_;
};

}  // namespace

namespace detail {

// Type-erased holder behind Engine::Staged: the (Real, Index) template
// choice is made once at build_index time, so extend/run dispatch without
// re-deciding precision or index kind.
struct EngineStagedImpl {
  virtual ~EngineStagedImpl() = default;
  virtual void extend(const sim::Catalog& halo) = 0;
  virtual bool has_secondary() const = 0;
  virtual void run(const std::vector<std::int64_t>* primaries,
                   ZetaResult& result, EngineStats& stats) const = 0;
  virtual void owned_pass(const std::vector<std::int64_t>* primaries,
                          EngineStats& stats,
                          const std::function<void()>& poll,
                          const Engine::SecondaryBound* bound) = 0;
  virtual void secondary_pass(const std::vector<std::int64_t>* primaries,
                              ZetaResult& result, EngineStats& stats) = 0;

  EngineConfig cfg;
  std::size_t owned_size = 0;
  double build_seconds = 0.0;  // primary + secondary index build time

  // Two-pass state: partials parked by run_owned_pass (consumed by
  // run_secondary_pass), the owned-pass primary restriction (pass 2 must
  // see the same set), and how much of build_seconds has already been
  // reported as an "index build" phase.
  std::unique_ptr<TraversalPartials> partials;
  std::vector<std::int64_t> primaries_storage;
  bool restrict_primaries = false;
  double build_reported = 0.0;
};

}  // namespace detail

namespace {

template <typename Real, typename Index>
struct StagedImplT final : detail::EngineStagedImpl {
  // Borrows `*borrowed` when given — the fused Engine::run path, whose
  // catalog outlives the handle, so the hot path has no O(N) copy — and
  // otherwise adopts `adopted` as storage (the public staged pipeline: the
  // caller's buffer may move or be freed before run_indexed; e.g. the
  // runner's halo append reallocates it).
  StagedImplT(const EngineConfig& c, const sim::Catalog* borrowed,
              sim::Catalog&& adopted)
      : storage(std::move(adopted)), owned(borrowed ? borrowed : &storage) {
    cfg = c;
    owned_size = owned->size();
    primary = make_index<Real, Index>(*owned, cfg, /*for_secondary=*/false);
  }

  void extend(const sim::Catalog& halo) override {
    secondary.emplace(make_index<Real, Index>(halo, cfg, /*for_secondary=*/true));
  }

  bool has_secondary() const override { return secondary.has_value(); }

  void run(const std::vector<std::int64_t>* primaries, ZetaResult& result,
           EngineStats& stats) const override {
    detail::TraversalPartials parts;
    owned_traversal(secondary ? &*secondary : nullptr, primaries, parts,
                    &result, stats, {}, nullptr);
  }

  void owned_pass(const std::vector<std::int64_t>* primaries,
                  EngineStats& stats, const std::function<void()>& poll,
                  const Engine::SecondaryBound* bound) override {
    partials = std::make_unique<detail::TraversalPartials>();
    owned_traversal(/*halo=*/nullptr, primaries, *partials,
                    /*result=*/nullptr, stats, poll, bound);
  }

  void secondary_pass(const std::vector<std::int64_t>* primaries,
                      ZetaResult& result, EngineStats& stats) override {
    detail::TraversalPartials& parts = *partials;
    const Traversal<Real, Index> tv(cfg, *owned, primary,
                                    secondary ? &*secondary : nullptr,
                                    primaries);
    GLX_CHECK_MSG(tv.nthreads == parts.nthreads,
                  "run_secondary_pass: thread count changed since the owned "
                  "pass (" << parts.nthreads << " -> " << tv.nthreads << ")");

    // Pass-1 snapshot lookup (SecondaryBound hint): primary id → its saved
    // owned power sums. Primaries without a record (hint absent, or a
    // secondary landed inside the promised bound) take the exact recompute
    // fallback.
    const int n_mono = math::monomial_count(cfg.lmax);
    std::vector<SavedRef> snapshot;
    for (const detail::SavedPrimaries& sv : parts.saved) {
      if (sv.prim.empty()) continue;
      snapshot.resize(owned->size());
      std::size_t bin_off = 0;
      for (std::size_t i = 0; i < sv.prim.size(); ++i) {
        SavedRef& ref = snapshot[static_cast<std::size_t>(sv.prim[i])];
        ref.bins = sv.bins.data() + bin_off;
        ref.sums = sv.sums.data() + bin_off * n_mono;
        ref.count = sv.nbins[i];
        bin_off += static_cast<std::size_t>(sv.nbins[i]);
      }
    }

    traverse(tv, parts, &result, stats, {}, [&](int tid) {
      return CompletionBody<Real, Index>(tv, parts, tid, snapshot);
    });
  }

  // The fused traversal (`result` set) and the two-pass owned pass
  // (`result` null: the partials stay parked in `parts`).
  void owned_traversal(const Index* halo,
                       const std::vector<std::int64_t>* primaries,
                       detail::TraversalPartials& parts, ZetaResult* result,
                       EngineStats& stats, const std::function<void()>& poll,
                       const Engine::SecondaryBound* bound) const {
    const Traversal<Real, Index> tv(cfg, *owned, primary, halo, primaries);
    const auto n = static_cast<std::size_t>(tv.nthreads);
    parts.nthreads = tv.nthreads;
    parts.zeta.resize(n);
    parts.xi.resize(n);
    parts.pairs.assign(n, 0);

    // Conservative "might see a secondary" margin for the bound hint: the
    // Real-precision accept filter can admit pairs a few ulps beyond R_max,
    // so pad the shell the same way the cell grid pads its box walk.
    double bound_pad = 0.0;
    if (bound) {
      parts.saved.resize(n);
      const double max_abs = std::max(
          {std::abs(bound->lo.x), std::abs(bound->lo.y), std::abs(bound->lo.z),
           std::abs(bound->hi.x), std::abs(bound->hi.y),
           std::abs(bound->hi.z)});
      const double eps =
          static_cast<double>(std::numeric_limits<Real>::epsilon());
      bound_pad = cfg.bins.rmax() * (1.0 + 1e-5) +
                  8.0 * eps * (max_abs + cfg.bins.rmax());
    }

    traverse(tv, parts, result, stats, poll, [&](int tid) {
      return OwnedBody<Real, Index>(tv, parts, tid, bound, bound_pad);
    });
  }

  sim::Catalog storage;                    // unless borrowed
  const sim::Catalog* owned = nullptr;     // primaries index into this
  Index primary;
  std::optional<Index> secondary;
};

}  // namespace

const char* backend_name(EstimatorBackend b) {
  switch (b) {
    case EstimatorBackend::kTree: return "tree";
    case EstimatorBackend::kFFT: return "fft";
  }
  return "?";
}

EstimatorBackend backend_from_name(const std::string& name) {
  if (name == "tree") return EstimatorBackend::kTree;
  if (name == "fft") return EstimatorBackend::kFFT;
  GLX_CHECK_MSG(false, "unknown estimator backend '" << name
                                                     << "' (tree|fft)");
  return EstimatorBackend::kTree;
}

Engine::Engine(EngineConfig cfg) : cfg_(std::move(cfg)) {
  GLX_CHECK(cfg_.lmax >= 0 && cfg_.lmax <= 16);
  GLX_CHECK(cfg_.bins.count() >= 1);
}

ZetaResult Engine::empty_result() const {
  return ZetaResult::zero_like(cfg_.bins, cfg_.lmax);
}

namespace {

// One definition of the (precision, index) dispatch: `make` is called with
// a StagedImplT<Real, Index> type tag and returns the built impl.
template <typename Real, typename Index>
struct StagedTag {
  using Impl = StagedImplT<Real, Index>;
};

template <typename Make>
std::shared_ptr<detail::EngineStagedImpl> dispatch_staged(
    const EngineConfig& cfg, Make&& make) {
  const bool mixed = cfg.tree.precision == TreePrecision::kMixed;
  const bool grid = cfg.tree.index == NeighborIndex::kCellGrid;
  if (mixed && grid) return make(StagedTag<float, tree::CellGrid<float>>{});
  if (mixed) return make(StagedTag<float, tree::KdTree<float>>{});
  if (grid) return make(StagedTag<double, tree::CellGrid<double>>{});
  return make(StagedTag<double, tree::KdTree<double>>{});
}

}  // namespace

Engine::Staged Engine::build_index(const sim::Catalog& owned) const {
  return build_index_impl(nullptr, sim::Catalog(owned));
}

Engine::Staged Engine::build_index(sim::Catalog&& owned) const {
  return build_index_impl(nullptr, std::move(owned));
}

Engine::Staged Engine::build_index_impl(const sim::Catalog* borrowed,
                                        sim::Catalog&& adopted) const {
  GLX_CHECK_MSG(cfg_.backend == EstimatorBackend::kTree,
                "build_index: the staged pipeline is tree-backend only "
                "(the FFT backend decomposes the mesh, not the points)");
  GLX_CHECK_MSG(!(borrowed ? *borrowed : adopted).empty(),
                "build_index: empty catalog");
  Timer tbuild;
  Staged staged;
  staged.impl_ = dispatch_staged(
      cfg_, [&](auto tag) -> std::shared_ptr<detail::EngineStagedImpl> {
        using Impl = typename decltype(tag)::Impl;
        return std::make_shared<Impl>(cfg_, borrowed, std::move(adopted));
      });
  staged.impl_->build_seconds = tbuild.seconds();
  return staged;
}

void Engine::Staged::extend_with_secondaries(const sim::Catalog& halo) {
  GLX_CHECK_MSG(impl_ != nullptr,
                "extend_with_secondaries on an empty Staged handle");
  GLX_CHECK_MSG(!impl_->has_secondary(),
                "extend_with_secondaries called twice");
  if (halo.empty()) return;
  Timer t;
  impl_->extend(halo);
  impl_->build_seconds += t.seconds();
}

void Engine::Staged::extend_with_let(const std::vector<tree::LetMessage>& msgs,
                                     const SecondaryBound& bound) {
  GLX_CHECK_MSG(impl_ != nullptr, "extend_with_let on an empty Staged handle");
  GLX_CHECK_MSG(!impl_->has_secondary(), "extend_with_let called twice");
  Timer t;
  // Receiver-side pruning tier: drop whole cells beyond R_max of this
  // rank's domain before the secondary build ever sees their points. The
  // senders already pruned per point against the same box, so in the
  // two-rank exchange this usually keeps everything — it pays off when a
  // sender's conservative leaf AABBs straddle the reach boundary.
  sim::Aabb target{bound.lo, bound.hi};
  const double rmax = impl_->cfg.bins.rmax();
  sim::Catalog halo;
  for (const tree::LetMessage& m : msgs)
    tree::append_let_to_catalog(m, target, rmax, halo);
  if (!halo.empty()) impl_->extend(halo);
  impl_->build_seconds += t.seconds();
}

namespace {

void validate_primaries(std::size_t owned_size,
                        const std::vector<std::int64_t>* primaries) {
  if (!primaries) return;
  std::vector<std::uint8_t> seen(owned_size, 0);
  for (std::int64_t p : *primaries) {
    GLX_CHECK_MSG(p >= 0 && p < static_cast<std::int64_t>(owned_size),
                  "primary index out of range: " << p);
    GLX_CHECK_MSG(!seen[static_cast<std::size_t>(p)],
                  "duplicate primary index: " << p);
    seen[static_cast<std::size_t>(p)] = 1;
  }
}

}  // namespace

ZetaResult Engine::Staged::run_indexed(
    const std::vector<std::int64_t>* primaries, EngineStats* stats) const {
  GLX_CHECK_MSG(impl_ != nullptr, "run_indexed on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials == nullptr,
                "run_indexed with a pending owned pass — finish the "
                "two-pass pipeline with run_secondary_pass");
  validate_primaries(impl_->owned_size, primaries);

  ZetaResult result;
  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  st.phases.add("index build", impl_->build_seconds);
  impl_->run(primaries, result, st);
  return result;
}

void Engine::Staged::run_owned_pass(
    const std::vector<std::int64_t>* primaries, EngineStats* stats,
    const std::function<void()>& poll, const SecondaryBound* bound) {
  GLX_CHECK_MSG(impl_ != nullptr, "run_owned_pass on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials == nullptr,
                "run_owned_pass called twice without run_secondary_pass");
  validate_primaries(impl_->owned_size, primaries);
  impl_->restrict_primaries = primaries != nullptr;
  impl_->primaries_storage =
      primaries ? *primaries : std::vector<std::int64_t>{};

  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  st.phases.add("index build", impl_->build_seconds);
  impl_->build_reported = impl_->build_seconds;
  impl_->owned_pass(
      impl_->restrict_primaries ? &impl_->primaries_storage : nullptr, st,
      poll, bound);
}

ZetaResult Engine::Staged::run_secondary_pass(EngineStats* stats) {
  GLX_CHECK_MSG(impl_ != nullptr,
                "run_secondary_pass on an empty Staged handle");
  GLX_CHECK_MSG(impl_->partials != nullptr,
                "run_secondary_pass without a pending run_owned_pass");

  EngineStats local_stats;
  EngineStats& st = stats ? *stats : local_stats;
  // Only the build time accrued since the owned pass reported (i.e. the
  // secondary index, in the canonical post → pass 1 → extend → pass 2
  // order).
  st.phases.add("index build", impl_->build_seconds - impl_->build_reported);
  impl_->build_reported = impl_->build_seconds;
  ZetaResult result;
  impl_->secondary_pass(
      impl_->restrict_primaries ? &impl_->primaries_storage : nullptr, result,
      st);
  impl_->partials.reset();
  return result;
}

bool Engine::Staged::owned_pass_pending() const {
  return impl_ != nullptr && impl_->partials != nullptr;
}

ZetaResult Engine::run(const sim::Catalog& catalog,
                       const std::vector<std::int64_t>* primaries,
                       EngineStats* stats) const {
  GLX_CHECK_MSG(!catalog.empty(), "empty catalog");
  if (cfg_.backend == EstimatorBackend::kFFT)
    return fft_3pcf(cfg_, catalog, primaries, stats);
  Timer wall;
  // The catalog outlives this call, so the staged handle references it
  // instead of copying (it never escapes this scope).
  const ZetaResult result =
      build_index_impl(&catalog, sim::Catalog{}).run_indexed(primaries, stats);
  if (stats) stats->wall_seconds = wall.seconds();
  return result;
}

ZetaResult Estimator::empty_result() const {
  return ZetaResult::zero_like(cfg_.bins, cfg_.lmax);
}

namespace {

// The tree backend behind the Estimator interface: a thin shell over
// Engine, whose run() IS the tree path when backend == kTree.
class TreeEstimator final : public Estimator {
 public:
  explicit TreeEstimator(EngineConfig cfg)
      : Estimator(std::move(cfg)), engine_(cfg_) {}

  ZetaResult run(const sim::Catalog& catalog,
                 const std::vector<std::int64_t>* primaries,
                 EngineStats* stats) const override {
    return engine_.run(catalog, primaries, stats);
  }

 private:
  Engine engine_;
};

}  // namespace

std::unique_ptr<Estimator> make_estimator(const EngineConfig& cfg) {
  switch (cfg.backend) {
    case EstimatorBackend::kTree:
      return std::make_unique<TreeEstimator>(cfg);
    case EstimatorBackend::kFFT:
      return std::make_unique<FftEstimator>(cfg);
  }
  GLX_CHECK_MSG(false, "unknown estimator backend");
  return nullptr;
}

}  // namespace galactos::core
