// Locally essential trees (Warren–Salmon LET, exafmm-style) for the
// distributed halo exchange: instead of showering every point within
// R_max of a peer's domain as a flat coordinate list, each rank walks its
// owned KdTree against the peer's domain box (leaves_in_reach) and ships a
// per-peer set of subtree summaries — surviving leaf AABBs plus packed
// point payloads only for points the peer's R_max-inflated box can touch.
//
// Wire format ("GLET", versioned) is a compact framed buffer:
//   magic[4] version u8 flags u8 n_cells u32 n_points u64
//   per cell (ascending id): LEB128 varint delta cell id, varint point
//     count, AABB (6 × f64, or 6 × outward-rounded f32 when quantized)
//   payload (SoA, cell-contiguous): x y z planes (f64, or f32 when
//     quantized), then weights (f64; elided entirely when all == 1.0)
// flags bit0 = float32-quantized coordinates (OFF by default — the
// default exchange is bitwise lossless in double), bit1 = unit weights
// elided. Cell ids are leaf ordinals of the sender's tree, delta-encoded
// strictly ascending, so a varint delta of zero is malformed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/box.hpp"
#include "sim/catalog.hpp"
#include "tree/kdtree.hpp"

namespace galactos::tree {

// One surviving leaf: its id (sender leaf ordinal), conservative AABB,
// and the [begin, begin + count) slice of the message's point planes.
struct LetCell {
  std::uint32_t id = 0;
  double lo[3] = {0, 0, 0};
  double hi[3] = {0, 0, 0};
  std::uint64_t begin = 0;
  std::uint64_t count = 0;
};

// In-memory form of one per-peer LET. Coordinates are always held as
// doubles; `f32_coords` records how they cross the wire (serialize
// narrows, deserialize widens), so a round trip is bitwise lossless when
// the flag is off and float-cast-exact when on.
struct LetMessage {
  bool f32_coords = false;
  bool unit_weights = false;  // all weights == 1.0, elided on the wire
  std::vector<LetCell> cells;
  std::vector<double> x, y, z, w;  // w empty when unit_weights

  std::size_t point_count() const { return x.size(); }
  bool empty() const { return cells.empty(); }
};

// Counters for RankReport / bench plumbing.
struct LetStats {
  std::uint64_t cells_sent = 0;
  // Leaves the admissibility walk (or the per-point refinement emptying a
  // surviving leaf) kept off the wire: sender leaf_count() - cells_sent.
  std::uint64_t cells_pruned = 0;
  std::uint64_t points_shipped = 0;
};

// Builds the LET for one peer: prunes the owned tree against the peer's
// domain box at subtree level (leaves_in_reach), then refines surviving
// leaves per point with the paper's §3.3 halo criterion
// (peer_box.dist2(p) <= rmax^2 on the tree's stored coordinates), so the
// shipped point set equals the §3.3 shell for a double-precision tree.
// Cells emptied by the refinement are dropped (and counted pruned).
template <typename Real>
LetMessage build_let_message(const KdTree<Real>& tree,
                             const sim::Aabb& peer_box, double rmax,
                             bool f32_coords = false,
                             LetStats* stats = nullptr);

// Serializes to the framed wire format described above.
std::vector<std::uint8_t> serialize_let(const LetMessage& msg);

// Parses a wire buffer; throws std::runtime_error on any malformed input
// (bad magic/version/flags, truncation, trailing bytes, non-ascending
// cell ids, cell/point count mismatch).
LetMessage deserialize_let(const std::uint8_t* data, std::size_t size);

inline LetMessage deserialize_let(const std::vector<std::uint8_t>& buf) {
  return deserialize_let(buf.data(), buf.size());
}

// Receiver-side unpack: appends the points of every cell whose AABB lies
// within rmax of `target` to `out` (cells beyond reach are skipped whole —
// the receiving rank's second pruning tier). Returns the number of points
// appended; `cells_skipped`, when given, receives the count of dropped
// cells.
std::size_t append_let_to_catalog(const LetMessage& msg,
                                  const sim::Aabb& target, double rmax,
                                  sim::Catalog& out,
                                  std::uint64_t* cells_skipped = nullptr);

}  // namespace galactos::tree
