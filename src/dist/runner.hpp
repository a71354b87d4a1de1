// Distributed 3PCF driver (paper §3.2–3.3), pipelined two ways deep:
//
//   scatter → k-d partition → [halo in flight ∥ owned-index build
//                                            ∥ PASS 1: owned × owned]
//           → complete halo → secondary (halo) index
//           → PASS 2: owned × halo (boundary leaves only)
//           → O(log P) tree allreduce of the additive ZetaResult payload
//
// post_halo_exchange() returns with the LET halo sends buffered and
// receives posted; in the default OverlapMode::kTwoPass each rank then
// builds the spatial index over its OWNED galaxies AND runs the whole
// owned-vs-owned traversal (Engine::Staged::run_owned_pass, polling the
// outstanding receives between leaf batches) before blocking on the
// exchange — the entire O(N·n_nbr) kernel phase hides the halo, not just
// the index build. complete_halo_exchange() decodes the halo copies into a
// plain catalog, which is indexed into a secondary structure, and
// run_secondary_pass adds the owned-vs-halo completion exactly.
// OverlapMode::kSequential, the A/B baseline, instead drains the exchange
// first and runs one fused owned+halo traversal. The decomposition is
// exact — every (primary, secondary) pair is evaluated on exactly one
// rank — so the reduced result matches the single-node engine up to
// floating-point summation order (bitwise for one rank, ~1e-13 relative
// for many), under either PartitionPolicy and either OverlapMode.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "dist/comm.hpp"
#include "dist/partition.hpp"
#include "sim/catalog.hpp"

namespace galactos::dist {

// How much of the pipeline runs while the halo exchange is in flight —
// the A/B axis of bench_dist_scaling.
enum class OverlapMode {
  kSequential,  // drain the exchange, then build + traverse (the baseline)
  kTwoPass,     // index build + the full owned-vs-owned pass hide the halo,
                // then a second pass adds owned-vs-halo (the default)
};

// Stable names for reports/JSON: "sequential" / "two_pass".
const char* overlap_mode_name(OverlapMode mode);

struct DistRunConfig {
  core::EngineConfig engine;
  int ranks = 1;
  // What the k-d cuts equalize: raw galaxy counts or estimated pair counts
  // (the Fig. 7 imbalance fix).
  PartitionPolicy partition = PartitionPolicy::kPrimaryBalanced;
  // What hides the halo exchange (A/B measurement axis).
  OverlapMode overlap = OverlapMode::kTwoPass;
  // Halo wire options: the pruned LET exchange, optionally with float32
  // coordinates (see dist/partition.hpp).
  HaloOptions halo;
  // Comm-wide receive deadline in seconds; <= 0 (the default) keeps the
  // pre-deadline behavior (waits block forever). GALACTOS_DIST_TIMEOUT_S
  // overrides this at run_rank entry (dist::timeout_from_env). On expiry
  // the rank throws dist::TimeoutError naming the channel and phase,
  // dumps its partial RankReport to stderr, and broadcasts an abort so
  // every peer unwinds too.
  double timeout_s = 0.0;
};

// Per-rank accounting mirrored from the paper's scaling studies: primary
// (owned) balance is tight by construction; pair balance degrades as
// domains shrink (Fig. 7's story) unless kPairWeighted counters it.
struct RankReport {
  int rank = 0;
  std::uint64_t owned = 0;  // galaxies this rank owns (primaries)
  std::uint64_t held = 0;   // owned + halo copies
  std::uint64_t pairs = 0;  // kernel pairs evaluated on this rank
  int levels = 0;           // k-d recursion depth
  double partition_seconds = 0.0;    // k-d exchange + halo posting
  double halo_seconds = 0.0;         // time BLOCKED waiting on halo data
  double index_build_seconds = 0.0;  // primary + secondary index build
  double engine_seconds = 0.0;       // traversal (excludes index build);
                                     // two-pass: owned + secondary passes
  double owned_pass_seconds = 0.0;      // pass 1 (kTwoPass only)
  double secondary_pass_seconds = 0.0;  // pass 2 (kTwoPass only)
  // Wall time spent computing between post_halo_exchange returning and
  // complete_halo_exchange being entered — the in-flight window filled
  // with useful work instead of blocking. kSequential: 0. kTwoPass: index
  // build + owned pass. The overlap health metric is halo_hidden_seconds /
  // (halo_hidden_seconds + halo_seconds), gated by
  // tools/check_bench_regression.py.
  double halo_hidden_seconds = 0.0;
  double reduce_seconds = 0.0;       // tree allreduce of the result payload
  double total_seconds = 0.0;
  // max/mean kernel pairs across ranks — identical on every rank, so the
  // Fig. 7 imbalance story is readable from any single report.
  double pair_imbalance = 0.0;
  // --- comm volume ---------------------------------------------------------
  // Halo-exchange LET payload bytes (pre-framing) and the points this rank
  // shipped to all peers. let_cells_pruned counts owned-tree leaves the
  // admissibility walk (or the per-point refinement) kept off the wire,
  // summed over peers.
  std::uint64_t halo_bytes_sent = 0;
  std::uint64_t halo_bytes_recv = 0;
  std::uint64_t halo_points_shipped = 0;
  std::uint64_t let_cells_sent = 0;
  std::uint64_t let_cells_pruned = 0;
  // Total framed wire bytes this rank moved, by pipeline phase (indexed by
  // int(dist::Phase)) — every message, collectives included, on both
  // backends (Comm::byte_counters). Receive bytes land in the phase at
  // drain time, so two-pass halo payloads count under kHaloComplete.
  std::uint64_t phase_bytes_sent[kPhaseCount] = {};
  std::uint64_t phase_bytes_recv[kPhaseCount] = {};
  // Pipeline phase the rank failed in, as int(dist::Phase) so the struct
  // stays trivially copyable for allgather. 0 (Phase::kNone) = the run
  // succeeded; see dist/error.hpp phase_name() for the names.
  int failure_phase = 0;
};

// Rank-level driver for callers already inside run_ranks(): partitions the
// union of every rank's `mine`, runs the staged engine pipeline on owned
// primaries and returns the tree-reduced result on every rank.
core::ZetaResult run_rank(Comm& comm, const sim::Catalog& mine,
                          const DistRunConfig& cfg,
                          RankReport* report = nullptr);

// End-to-end in-process driver: spawns cfg.ranks minimpi ranks, scatters
// `catalog` round-robin, and runs the full pipeline. If `reports` is given
// it is filled with one RankReport per rank, in rank order.
core::ZetaResult run_distributed(const sim::Catalog& catalog,
                                 const DistRunConfig& cfg,
                                 std::vector<RankReport>* reports = nullptr);

// Backend-agnostic driver: the same pipeline over whichever backend the
// Session selected at dist::init time.
//
//   * kThreads — delegates to the in-process driver above.
//   * kMpi — `catalog` must be IDENTICAL on every process (same file or
//     same generator seed; nothing is scattered over the wire — each rank
//     takes its own round-robin slice). The first cfg.ranks world ranks
//     (cfg.ranks == 0 means all) run the pipeline on a contiguous
//     sub-communicator; the reduced result and the per-rank reports are
//     then broadcast over the full world, so EVERY process returns the
//     same values — and, for equal rank counts, the same bits as the
//     thread backend (the collectives share one combination tree).
core::ZetaResult run_distributed(const Session& session,
                                 const sim::Catalog& catalog,
                                 const DistRunConfig& cfg,
                                 std::vector<RankReport>* reports = nullptr);

}  // namespace galactos::dist
