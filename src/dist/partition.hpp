// Distributed k-d domain decomposition with halo exchange (paper §3.2).
//
// Starting from an arbitrary scatter of the catalog over ranks, the
// communicator is recursively split in two (floor(P/2) / ceil(P/2) ranks)
// along the widest dimension of the current domain; the cut plane is placed
// by distributed bisection and every rank ships its off-side galaxies to a
// partner in the other half. After log2(P) levels each rank owns the
// galaxies inside a private axis-aligned domain:
//
//   * exactly-once: domains tile space half-open along every cut
//     ([lo, cut) | [cut, hi)), so each galaxy lands on exactly one rank;
//   * balance: what the cut equalizes is the PartitionPolicy's choice —
//     raw galaxy counts (kPrimaryBalanced, the paper's 0.1%-tight primary
//     balance) or an estimated pair count (kPairWeighted: each galaxy is
//     weighted by the local density seen through a coarse global histogram,
//     i.e. density x R_max ball volume up to a constant — the Fig. 7 fix
//     for pair imbalance as domains shrink);
//   * halo completeness: a final neighbor exchange ships every owned galaxy
//     to each rank whose domain it is within R_max of, so every rank sees
//     ALL secondaries of its owned primaries (§3.3: halo copies are
//     secondaries only; they are never primaries anywhere but home).
//
// The halo crosses the wire as a pruned locally essential tree (LET,
// tree/let.hpp): each rank walks its owned KdTree against every peer's
// domain box and ships only the leaf cells that can reach it (AABB +
// packed points). The shipped point SET is exactly the §3.3 shell, at
// ~0.4x its bytes; complete_halo_exchange() decodes the cells (skipping
// any whose AABB lies beyond R_max of this rank's domain) into a plain
// halo catalog, so nothing downstream sees the wire format.
//
// The halo exchange is split-phase: post_halo_exchange() returns with every
// send buffered and every receive posted, so the caller can build its
// owned-point spatial index while halo traffic is in flight and only then
// complete_halo_exchange() to decode the halo copies (dist/runner.cpp
// overlaps exactly this way). kd_partition() is the fused convenience call.
// Halo copies enter the engine as a SECONDARY index built through the same
// Morton-ordered, SIMD-padded layout as the owned index (core/engine.cpp
// make_index); secondary indexes skip the per-leaf interaction lists —
// they are only ever queried per point or per box, never per leaf.
//
// Failure semantics: both phases run under the comm's deadline when one is
// set (Comm::set_timeout) — a lost or late message surfaces as
// dist::TimeoutError naming the channel (all tags come from dist/tags.hpp)
// and pipeline phase; complete_halo_exchange() additionally reports how
// many halo peers were still outstanding. The phases are marked via
// Comm::set_phase (kPartition during the k-d cuts, kHaloPost once halo
// traffic is posted), which is also where an active FaultPlan's
// stall/crash rules fire.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/comm.hpp"
#include "sim/box.hpp"
#include "sim/catalog.hpp"

namespace galactos::dist {

// What the k-d bisection equalizes between the two sides of every cut.
enum class PartitionPolicy {
  kPrimaryBalanced,  // galaxy counts (primaries balance to ~0.1%)
  kPairWeighted,     // estimated pair counts (local density weighting)
};

// The one halo wire format. The enum and HaloOptions::mode exist only
// because perfbench/src/main.cpp assigns `dcfg.halo.mode =
// dist::HaloMode::kLet`; nothing in the library reads them.
enum class HaloMode { kLet };

struct HaloOptions {
  HaloMode mode = HaloMode::kLet;
  // Quantize LET coordinates + AABBs to float32 on the wire (3x smaller
  // payloads). OFF by default so the default exchange is bitwise lossless;
  // safe whenever the engine's tree precision is kMixed (the stored planes
  // are float anyway, so the float-valued coordinates survive the cast
  // exactly).
  bool let_f32 = false;
};

// Comm-volume counters for one rank's halo exchange (RankReport / bench).
// Bytes are LET payload bytes as handed to / taken from the comm layer
// (pre-framing). The §3.3 flat shell would ship 4 doubles (32 bytes) per
// point, so 32 x points_shipped is the uncompressed reference.
struct HaloTraffic {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t points_shipped = 0;  // points this rank sent, all peers
  std::uint64_t cells_sent = 0;      // LET cells shipped
  std::uint64_t cells_pruned = 0;    // leaves kept off the wire
};

struct PartitionResult {
  sim::Catalog local;  // the galaxies this rank owns (its primaries)
  // Halo copies decoded from every peer's LET, ascending peer rank: the
  // secondaries-only points within R_max of `domain`.
  sim::Catalog halo;
  sim::Aabb domain;    // this rank's leaf domain
  int levels = 0;      // k-d recursion depth experienced
  HaloTraffic traffic;
};

// A partition whose halo exchange is still in flight: `result.local` holds
// the owned galaxies (all sends are buffered, all receives posted);
// complete_halo_exchange() fills `result.halo`.
struct PendingPartition {
  PartitionResult result;
  double rmax = 0.0;
  std::vector<int> peers;                        // comm ranks, ascending
  std::vector<RecvRequest<std::uint8_t>> recvs;  // parallel to peers

  // Non-blocking progress on the outstanding halo receives: test()s every
  // posted request and returns true once all have claimed their message.
  // Safe to call any number of times (including after completion), from
  // the thread that posted the exchange — the two-pass runner polls this
  // between owned-pass leaf batches so the transport keeps making progress
  // while the kernel owns the core.
  bool poll();
};

// Collective over `comm`: redistributes the union of every rank's `mine`
// into k-d domains, ships halo galaxies to every neighbor rank (buffered)
// and posts the matching receives, returning before any halo data is
// waited on. `rmax` must be identical on all ranks, as must `policy`.
PendingPartition post_halo_exchange(
    Comm& comm, const sim::Catalog& mine, double rmax,
    PartitionPolicy policy = PartitionPolicy::kPrimaryBalanced,
    const HaloOptions& halo = {});

// Drains the posted halo receives in peer-rank order, decodes them into
// `halo` (deterministic layout: peer rank, then sender cell order) and
// returns the completed partition. Call exactly once.
PartitionResult complete_halo_exchange(PendingPartition& pending);

// Fused post + complete, for callers with nothing to overlap.
PartitionResult kd_partition(
    Comm& comm, const sim::Catalog& mine, double rmax,
    PartitionPolicy policy = PartitionPolicy::kPrimaryBalanced,
    const HaloOptions& halo = {});

// Collective: bisects [lo, hi] for a cut with exactly `target` of the
// ranks' combined `values` strictly below it (achievable when values are
// distinct; otherwise converges to the nearest attainable count). All
// communication uses `tag`.
double distributed_split_point(Comm& comm, const std::vector<double>& values,
                               double lo, double hi, std::int64_t target,
                               int tag);

// Weighted variant: bisects for a cut with ~`target` total `weights` (one
// per value) strictly below it. Weighted targets are generally not exactly
// attainable, so bisection runs until the interval is exhausted.
double distributed_split_point_weighted(Comm& comm,
                                        const std::vector<double>& values,
                                        const std::vector<double>& weights,
                                        double lo, double hi, double target,
                                        int tag);

}  // namespace galactos::dist
