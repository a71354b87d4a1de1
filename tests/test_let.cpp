// Locally-essential-tree halo exchange (tree/let.hpp, the one halo wire
// format): wire-format round trips, the shipped set against a brute-force
// §3.3 shell (per tree and, after a real partition, per rank), the
// degenerate boxes (empty peer, everything in reach, more ranks than
// galaxies), float32 coordinates, and a repeated 16-rank run that must
// reproduce its bits every time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "dist/partition.hpp"
#include "dist/runner.hpp"
#include "sim/generators.hpp"
#include "test_helpers.hpp"
#include "tree/kdtree.hpp"
#include "tree/let.hpp"

namespace {

namespace s = galactos::sim;
namespace t = galactos::tree;
namespace d = galactos::dist;
namespace core = galactos::core;

core::EngineConfig base_config() {
  core::EngineConfig cfg;
  cfg.bins = core::RadialBins(2.0, 18.0, 3);
  cfg.lmax = 4;
  cfg.threads = 1;
  return cfg;
}

// The flat full-shell shipping criterion, brute force over the catalog.
std::multiset<std::tuple<double, double, double, double>> full_shell_set(
    const s::Catalog& c, const s::Aabb& box, double rmax) {
  std::multiset<std::tuple<double, double, double, double>> out;
  const double r2 = rmax * rmax;
  for (std::size_t i = 0; i < c.size(); ++i)
    if (box.dist2(c.position(i)) <= r2)
      out.insert({c.x[i], c.y[i], c.z[i], c.w[i]});
  return out;
}

std::multiset<std::tuple<double, double, double, double>> message_set(
    const t::LetMessage& m) {
  std::multiset<std::tuple<double, double, double, double>> out;
  for (std::size_t i = 0; i < m.point_count(); ++i)
    out.insert({m.x[i], m.y[i], m.z[i], m.unit_weights ? 1.0 : m.w[i]});
  return out;
}

void expect_messages_equal(const t::LetMessage& a, const t::LetMessage& b) {
  EXPECT_EQ(a.f32_coords, b.f32_coords);
  EXPECT_EQ(a.unit_weights, b.unit_weights);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].id, b.cells[c].id);
    EXPECT_EQ(a.cells[c].begin, b.cells[c].begin);
    EXPECT_EQ(a.cells[c].count, b.cells[c].count);
    for (int dim = 0; dim < 3; ++dim) {
      EXPECT_EQ(a.cells[c].lo[dim], b.cells[c].lo[dim]);
      EXPECT_EQ(a.cells[c].hi[dim], b.cells[c].hi[dim]);
    }
  }
  ASSERT_EQ(a.point_count(), b.point_count());
  for (std::size_t i = 0; i < a.point_count(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]);
    EXPECT_EQ(a.y[i], b.y[i]);
    EXPECT_EQ(a.z[i], b.z[i]);
  }
  ASSERT_EQ(a.w.size(), b.w.size());
  for (std::size_t i = 0; i < a.w.size(); ++i) EXPECT_EQ(a.w[i], b.w[i]);
}

TEST(LetSerialization, RoundTripLosslessF64) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(900, 60.0, 71);
  const t::KdTree<double> tree(cat);
  const s::Aabb peer{{60.0, 0.0, 0.0}, {120.0, 60.0, 60.0}};
  t::LetStats st;
  const t::LetMessage msg =
      t::build_let_message(tree, peer, 12.0, /*f32=*/false, &st);
  ASSERT_GT(msg.point_count(), 0u);
  EXPECT_FALSE(msg.unit_weights);  // clumpy_catalog has nontrivial weights
  EXPECT_EQ(st.points_shipped, msg.point_count());
  EXPECT_EQ(st.cells_sent, msg.cells.size());
  EXPECT_EQ(st.cells_sent + st.cells_pruned, tree.leaf_count());

  const std::vector<std::uint8_t> wire = t::serialize_let(msg);
  const t::LetMessage back = t::deserialize_let(wire);
  expect_messages_equal(msg, back);  // bitwise: EXPECT_EQ on every double
}

TEST(LetSerialization, RoundTripF32IsFloatCastExact) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(500, 40.0, 72);
  const t::KdTree<double> tree(cat);
  const s::Aabb peer{{20.0, 0.0, 0.0}, {80.0, 40.0, 40.0}};
  const t::LetMessage msg =
      t::build_let_message(tree, peer, 10.0, /*f32=*/true);
  ASSERT_GT(msg.point_count(), 0u);

  const t::LetMessage back = t::deserialize_let(t::serialize_let(msg));
  ASSERT_EQ(back.point_count(), msg.point_count());
  for (std::size_t i = 0; i < msg.point_count(); ++i) {
    EXPECT_EQ(back.x[i], static_cast<double>(static_cast<float>(msg.x[i])));
    EXPECT_EQ(back.y[i], static_cast<double>(static_cast<float>(msg.y[i])));
    EXPECT_EQ(back.z[i], static_cast<double>(static_cast<float>(msg.z[i])));
    EXPECT_EQ(back.w[i], msg.w[i]);  // weights stay f64 either way
  }
  // Outward-rounded f32 AABBs still contain their cell's (quantized)
  // points, so the receiver-side cell filter stays conservative.
  for (const t::LetCell& c : back.cells)
    for (std::size_t i = c.begin; i < c.begin + c.count; ++i) {
      EXPECT_LE(c.lo[0], back.x[i]);
      EXPECT_GE(c.hi[0], back.x[i]);
      EXPECT_LE(c.lo[1], back.y[i]);
      EXPECT_GE(c.hi[1], back.y[i]);
      EXPECT_LE(c.lo[2], back.z[i]);
      EXPECT_GE(c.hi[2], back.z[i]);
    }
}

TEST(LetSerialization, UnitWeightsAreElided) {
  // uniform_box pushes default weights (1.0) — the message should drop the
  // whole weight plane and the receiver should rehydrate 1.0s.
  const s::Catalog cat = s::uniform_box(600, s::Aabb::cube(50), 73);
  const t::KdTree<double> tree(cat);
  const s::Aabb peer{{25.0, 0.0, 0.0}, {75.0, 50.0, 50.0}};
  const t::LetMessage msg = t::build_let_message(tree, peer, 8.0);
  ASSERT_GT(msg.point_count(), 0u);
  EXPECT_TRUE(msg.unit_weights);
  EXPECT_TRUE(msg.w.empty());

  const std::vector<std::uint8_t> with = t::serialize_let(msg);
  t::LetMessage fat = msg;
  fat.unit_weights = false;
  fat.w.assign(msg.point_count(), 1.0);
  EXPECT_EQ(t::serialize_let(fat).size(), with.size() + msg.point_count() * 8);

  const t::LetMessage back = t::deserialize_let(with);
  EXPECT_TRUE(back.unit_weights);
  s::Catalog out;
  t::append_let_to_catalog(back, peer, 8.0, out);
  for (double w : out.w) EXPECT_EQ(w, 1.0);
}

TEST(LetSerialization, MalformedInputThrows) {
  const s::Catalog cat = s::uniform_box(200, s::Aabb::cube(30), 74);
  const t::KdTree<double> tree(cat);
  const s::Aabb peer{{0.0, 0.0, 0.0}, {30.0, 30.0, 30.0}};
  std::vector<std::uint8_t> wire =
      t::serialize_let(t::build_let_message(tree, peer, 6.0));
  ASSERT_GT(wire.size(), 20u);

  {  // bad magic
    std::vector<std::uint8_t> bad = wire;
    bad[0] = 'X';
    EXPECT_THROW(t::deserialize_let(bad), std::runtime_error);
  }
  {  // unknown version
    std::vector<std::uint8_t> bad = wire;
    bad[4] = 99;
    EXPECT_THROW(t::deserialize_let(bad), std::runtime_error);
  }
  {  // unknown flag bits
    std::vector<std::uint8_t> bad = wire;
    bad[5] |= 0x80;
    EXPECT_THROW(t::deserialize_let(bad), std::runtime_error);
  }
  {  // truncation
    std::vector<std::uint8_t> bad(wire.begin(), wire.end() - 5);
    EXPECT_THROW(t::deserialize_let(bad), std::runtime_error);
  }
  {  // trailing bytes
    std::vector<std::uint8_t> bad = wire;
    bad.push_back(0);
    EXPECT_THROW(t::deserialize_let(bad), std::runtime_error);
  }
  EXPECT_THROW(t::deserialize_let(nullptr, 0), std::runtime_error);
}

// The admissibility walk + per-point refinement must never drop a point
// the flat full-shell halo would ship. (It is in fact EQUAL — both use the
// same criterion on the same double coordinates — which implies superset.)
TEST(LetBuild, ShipsExactlyTheFullShellSet) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(1300, 80.0, 75);
  const t::KdTree<double> tree(cat);
  const double rmax = 11.0;
  const s::Aabb boxes[] = {
      {{80.0, 0.0, 0.0}, {160.0, 80.0, 80.0}},    // face neighbor
      {{80.0, 80.0, 0.0}, {160.0, 160.0, 80.0}},  // edge neighbor
      {{-40.0, -40.0, -40.0}, {-1.0, -1.0, -1.0}},  // corner, mostly out
      {{10.0, 10.0, 10.0}, {30.0, 30.0, 30.0}},   // interior overlap
  };
  for (const s::Aabb& box : boxes) {
    const t::LetMessage msg = t::build_let_message(tree, box, rmax);
    EXPECT_EQ(message_set(msg), full_shell_set(cat, box, rmax));
  }
}

TEST(LetBuild, EmptyPeerAndAllInReachDegenerates) {
  const s::Catalog cat = s::uniform_box(400, s::Aabb::cube(40), 76);
  const t::KdTree<double> tree(cat);

  // Peer far beyond rmax: every subtree is pruned, the message is empty
  // but still round-trips.
  const s::Aabb far{{1000.0, 1000.0, 1000.0}, {1100.0, 1100.0, 1100.0}};
  t::LetStats st;
  const t::LetMessage none = t::build_let_message(tree, far, 5.0, false, &st);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(st.points_shipped, 0u);
  EXPECT_EQ(st.cells_pruned, tree.leaf_count());
  const t::LetMessage none_back = t::deserialize_let(t::serialize_let(none));
  EXPECT_TRUE(none_back.empty());
  s::Catalog out;
  EXPECT_EQ(t::append_let_to_catalog(none_back, far, 5.0, out), 0u);
  EXPECT_TRUE(out.empty());

  // Peer box containing the whole catalog: nothing can be pruned — every
  // point ships and every leaf survives.
  const s::Aabb all{{-10.0, -10.0, -10.0}, {50.0, 50.0, 50.0}};
  const t::LetMessage everything =
      t::build_let_message(tree, all, 5.0, false, &st);
  EXPECT_EQ(everything.point_count(), cat.size());
  EXPECT_EQ(st.cells_pruned, 0u);
  EXPECT_EQ(st.cells_sent, tree.leaf_count());

  // Empty tree (empty rank): well-formed empty message.
  const t::KdTree<double> empty_tree{s::Catalog{}};
  const t::LetMessage from_empty = t::build_let_message(empty_tree, all, 5.0);
  EXPECT_TRUE(from_empty.empty());
  EXPECT_TRUE(
      t::deserialize_let(t::serialize_let(from_empty)).empty());
}

TEST(LetBuild, ReceiverCellFilterDropsOutOfReachCells) {
  const s::Catalog cat = s::uniform_box(800, s::Aabb::cube(60), 77);
  const t::KdTree<double> tree(cat);
  // Ship everything (peer box covers the catalog)...
  const s::Aabb all{{-5.0, -5.0, -5.0}, {65.0, 65.0, 65.0}};
  const t::LetMessage msg = t::build_let_message(tree, all, 4.0);
  ASSERT_EQ(msg.point_count(), cat.size());
  // ...then unpack against a small corner target: whole cells beyond rmax
  // of it must be skipped, and every kept point must itself be a point.
  const s::Aabb corner{{0.0, 0.0, 0.0}, {10.0, 10.0, 10.0}};
  s::Catalog out;
  std::uint64_t skipped = 0;
  const std::size_t kept =
      t::append_let_to_catalog(msg, corner, 4.0, out, &skipped);
  EXPECT_EQ(kept, out.size());
  EXPECT_LT(kept, cat.size());
  EXPECT_GT(skipped, 0u);
  // Conservative: everything within reach of the corner box survives.
  const auto needed = full_shell_set(cat, corner, 4.0);
  auto have = message_set(t::LetMessage{});  // empty multiset, same type
  for (std::size_t i = 0; i < out.size(); ++i)
    have.insert({out.x[i], out.y[i], out.z[i], out.w[i]});
  for (const auto& p : needed) EXPECT_TRUE(have.count(p) > 0);
}

// --- the LET pipeline end to end ------------------------------------------

// Every (ranks, partition policy, coordinate width) combination: after a
// real k-d partition, each rank's decoded halo is EXACTLY the §3.3 shell —
// every galaxy another rank owns within R_max of this rank's domain, once,
// with its weight — and the traffic counters agree with it: every shipped
// point is decoded exactly once and every byte sent is received. The
// catalog is float32-representable so the f32 wire decodes the same
// doubles as the f64 one.
class LetPipeline
    : public ::testing::TestWithParam<
          std::tuple<int, d::PartitionPolicy, bool>> {};

TEST_P(LetPipeline, HaloIsExactlyTheShell) {
  const auto [ranks, policy, f32] = GetParam();
  s::Catalog cat = galactos::testing::clumpy_catalog(1100, 65.0, 54);
  for (std::vector<double>* plane : {&cat.x, &cat.y, &cat.z})
    for (double& v : *plane)
      v = static_cast<double>(static_cast<float>(v));
  const double rmax = 9.0;
  d::HaloOptions halo;
  halo.let_f32 = f32;

  std::vector<d::PartitionResult> results(ranks);
  std::mutex mu;
  d::run_ranks(ranks, [&](d::Comm& comm) {
    s::Catalog mine;
    for (std::size_t i = comm.rank(); i < cat.size();
         i += static_cast<std::size_t>(comm.size()))
      mine.push_back(cat.position(i), cat.w[i]);
    d::PartitionResult res = d::kd_partition(comm, mine, rmax, policy, halo);
    std::lock_guard<std::mutex> lock(mu);
    results[comm.rank()] = std::move(res);
  });

  std::uint64_t shipped = 0, decoded = 0, sent = 0, recv = 0;
  for (int r = 0; r < ranks; ++r) {
    const d::PartitionResult& res = results[r];
    std::multiset<std::tuple<double, double, double, double>> shell, have;
    for (int o = 0; o < ranks; ++o) {
      if (o == r) continue;
      for (const auto& p : full_shell_set(results[o].local, res.domain, rmax))
        shell.insert(p);
    }
    for (std::size_t i = 0; i < res.halo.size(); ++i)
      have.insert({res.halo.x[i], res.halo.y[i], res.halo.z[i], res.halo.w[i]});
    EXPECT_EQ(have, shell) << "rank " << r;

    shipped += res.traffic.points_shipped;
    decoded += res.halo.size();
    sent += res.traffic.bytes_sent;
    recv += res.traffic.bytes_recv;
  }
  EXPECT_EQ(shipped, decoded);
  EXPECT_EQ(sent, recv);
  if (ranks == 1) {
    EXPECT_EQ(sent, 0u);
  } else {
    EXPECT_GT(sent, 0u);
    EXPECT_GT(shipped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LetPipeline,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4, 8),
        ::testing::Values(d::PartitionPolicy::kPrimaryBalanced,
                          d::PartitionPolicy::kPairWeighted),
        ::testing::Bool()),
    [](const auto& info) {
      std::string n = "ranks" + std::to_string(std::get<0>(info.param));
      n += std::get<1>(info.param) == d::PartitionPolicy::kPairWeighted
               ? "_pair"
               : "_primary";
      n += std::get<2>(info.param) ? "_f32" : "_f64";
      return n;
    });

TEST(LetPipelineEdge, F32QuantizationStaysInGateAtMixedPrecision) {
  // On a catalog with float32-representable coordinates (the precision
  // survey catalogs are published at — and what the committed bench
  // generates), the f32 wire format is bit-lossless: the receivers decode
  // the same doubles as from the f64 format, so the results agree to the
  // 1e-10 distributed gate regardless of how the engine mixes float/double
  // comparisons. Without the snap, borderline pairs can flip under
  // quantization — that approximate regime is deliberately not gated.
  s::Catalog cat = galactos::testing::clumpy_catalog(1100, 65.0, 54);
  for (std::vector<double>* plane : {&cat.x, &cat.y, &cat.z})
    for (double& v : *plane)
      v = static_cast<double>(static_cast<float>(v));
  d::DistRunConfig f64;
  f64.engine = base_config();
  f64.engine.tree.precision = core::TreePrecision::kMixed;
  f64.ranks = 4;
  d::DistRunConfig f32 = f64;
  f32.halo.let_f32 = true;

  std::vector<d::RankReport> f64_reports, f32_reports;
  const core::ZetaResult a = d::run_distributed(cat, f64, &f64_reports);
  const core::ZetaResult b = d::run_distributed(cat, f32, &f32_reports);
  galactos::testing::expect_results_match(a, b, 1e-10, 1e-10);

  // f32 coords are the whole point: strictly fewer halo bytes than the
  // f64 LET, let alone the 32-byte/point flat shell.
  std::uint64_t f64_bytes = 0, f32_bytes = 0, f32_points = 0;
  for (const auto& r : f64_reports) f64_bytes += r.halo_bytes_sent;
  for (const auto& r : f32_reports) {
    f32_bytes += r.halo_bytes_sent;
    f32_points += r.halo_points_shipped;
  }
  EXPECT_LT(f32_bytes, f64_bytes);
  EXPECT_LT(f32_bytes, 32 * f32_points);
}

TEST(LetPipelineEdge, MoreRanksThanGalaxiesStillCorrect) {
  // 20 galaxies over 6 ranks: some ranks end up empty and ship well-formed
  // empty LET messages.
  const s::Catalog cat = s::uniform_box(20, s::Aabb::cube(25), 79);
  const core::ZetaResult single = core::Engine(base_config()).run(cat);
  d::DistRunConfig cfg;
  cfg.engine = base_config();
  cfg.ranks = 6;
  const core::ZetaResult dist = d::run_distributed(cat, cfg);
  galactos::testing::expect_results_match(dist, single, 1e-10, 1e-10);
}

TEST(LetPipelineEdge, CommByteCountersObserveTraffic) {
  const s::Catalog cat = galactos::testing::clumpy_catalog(900, 55.0, 81);
  d::DistRunConfig cfg;
  cfg.engine = base_config();
  cfg.ranks = 4;
  std::vector<d::RankReport> reports;
  d::run_distributed(cat, cfg, &reports);
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& r : reports) {
    std::uint64_t sent = 0, recv = 0;
    for (int p = 0; p < d::kPhaseCount; ++p) {
      sent += r.phase_bytes_sent[p];
      recv += r.phase_bytes_recv[p];
    }
    // Every rank moved partition + halo + reduce traffic, and the framed
    // totals dominate the unframed halo payload tally.
    EXPECT_GT(sent, r.halo_bytes_sent);
    EXPECT_GT(recv, r.halo_bytes_recv);
    // Halo payloads were posted in kHaloPost and drained by (at latest)
    // kHaloComplete; the exchange itself must be visible in the tally.
    EXPECT_GT(r.phase_bytes_sent[static_cast<int>(d::Phase::kHaloPost)], 0u);
    EXPECT_GT(r.halo_bytes_sent + r.halo_bytes_recv, 0u);
    EXPECT_GT(r.let_cells_sent + r.let_cells_pruned, 0u);
  }
}

// Race detector for the pipeline: 16 thread-ranks, one engine thread
// each, two-pass overlap (halo polling inside the owned pass) and
// pair-weighted cuts on a clumpy catalog. With one engine thread every
// summation order is fixed, so K repeats must agree to the bit — a
// divergence means a rank read data before it was complete — and each
// must stay within the 1e-10 distributed gate of the single-node engine.
TEST(LetStress, SixteenRanksRepeatBitwise) {
  constexpr int kRepeats = 8;
  const s::Catalog cat = galactos::testing::clumpy_catalog(2400, 90.0, 83);
  const core::ZetaResult single = core::Engine(base_config()).run(cat);
  d::DistRunConfig cfg;
  cfg.engine = base_config();
  cfg.ranks = 16;
  cfg.partition = d::PartitionPolicy::kPairWeighted;

  std::vector<double> first;
  for (int k = 0; k < kRepeats; ++k) {
    const core::ZetaResult dist = d::run_distributed(cat, cfg);
    galactos::testing::expect_results_match(dist, single, 1e-10, 1e-10);
    const std::vector<double> payload = dist.reduce_payload();
    if (k == 0) {
      first = payload;
      continue;
    }
    ASSERT_EQ(payload.size(), first.size());
    EXPECT_EQ(0, std::memcmp(payload.data(), first.data(),
                             first.size() * sizeof(double)))
        << "repeat " << k << " changed the bits of repeat 0";
  }
}

}  // namespace
