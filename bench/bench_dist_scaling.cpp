// Distributed pipeline scaling bench (paper §3.2 / Fig. 7 story):
//
// Section 1 — rank scaling on a CLUSTERED catalog (a dominant clump plus a
// uniform background, the geometry where pair imbalance bites): per-rank
// pairs, pipeline phase seconds (partition / halo wait / index build /
// traversal / reduce) and the max/mean pair imbalance for BOTH partition
// policies over 1..max-ranks — kPairWeighted must sit below
// kPrimaryBalanced.
//
// Section 2 — pipeline A/B: the same partition + halo exchange + index
// build + traversal, 2 ranks with a skewed initial scatter (realistic
// ingest skew, so one rank genuinely lags), run under both OverlapModes:
// sequential (drain halo, then build + traverse) and two_pass (halo hides
// behind index build AND the whole owned-vs-owned traversal, with the
// owned-vs-halo completion in a second pass). Reports, per mode, the median rank critical path
// (halo wait + index build + traversal) plus the blocked-vs-hidden halo
// seconds over many repeats; deeper overlap must not lengthen it.
// On a single-core host the A/B is throughput-bound (total CPU is
// conserved, so the margin is structural: one fewer block/wake on the
// critical path and staggered builds); multi-core hosts — e.g. the CI
// runners that upload this JSON — additionally hide the halo wait itself.
//
// Emits BENCH_dist.json (--json) for the CI artifact trail, like
// BENCH_fig4.json.
//
// Backend-agnostic: launched directly the ranks are minimpi threads;
// launched under `mpirun -np P` (GALACTOS_WITH_MPI build) the same
// sections run over real MPI ranks — rank counts are clamped to the world
// size, sweeps below it run on leading sub-communicators, and only world
// rank 0 prints/writes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dist/runner.hpp"

using namespace galactos;
using namespace galactos::bench;

namespace {

// Half the galaxies in a corner clump covering 1/512 of the volume — the
// regime where primary-balanced cuts produce strong pair imbalance.
// Coordinates are snapped to float32-representable values (the precision
// real survey catalogs are published at): the engine runs kMixed anyway,
// and it makes the LET f32 wire format bit-lossless on this catalog, so
// the halo-compression check against the single-node engine measures
// summation order, not quantization noise.
sim::Catalog clustered_catalog(std::size_t n, double side) {
  sim::Catalog cat = sim::uniform_box(
      n / 2, sim::Aabb{{0, 0, 0}, {side / 8, side / 8, side / 8}}, 404);
  cat.append(sim::uniform_box(n - n / 2, sim::Aabb::cube(side), 405));
  for (double* plane : {cat.x.data(), cat.y.data(), cat.z.data()})
    for (std::size_t i = 0; i < cat.size(); ++i)
      plane[i] = static_cast<double>(static_cast<float>(plane[i]));
  return cat;
}

struct RunSummary {
  int ranks = 0;
  std::string policy;
  std::string overlap_mode;
  double elapsed_seconds = 0;
  double pair_imbalance = 0;
  double halo_max_seconds = 0;
  double halo_hidden_max_seconds = 0;
  double index_build_max_seconds = 0;
  double reduce_max_seconds = 0;
  std::vector<dist::RankReport> reports;
};

RunSummary run_once(const dist::Session& session, const sim::Catalog& cat,
                    const core::EngineConfig& ecfg, int ranks,
                    dist::PartitionPolicy policy) {
  dist::DistRunConfig dcfg;
  dcfg.engine = ecfg;
  dcfg.ranks = ranks;
  dcfg.partition = policy;

  RunSummary s;
  s.ranks = ranks;
  s.policy = policy == dist::PartitionPolicy::kPairWeighted
                 ? "pair_weighted"
                 : "primary_balanced";
  s.overlap_mode = dist::overlap_mode_name(dcfg.overlap);

  Timer t;
  (void)dist::run_distributed(session, cat, dcfg, &s.reports);
  s.elapsed_seconds = t.seconds();

  for (const auto& r : s.reports) {
    s.pair_imbalance = r.pair_imbalance;  // identical on every rank
    s.halo_max_seconds = std::max(s.halo_max_seconds, r.halo_seconds);
    s.halo_hidden_max_seconds =
        std::max(s.halo_hidden_max_seconds, r.halo_hidden_seconds);
    s.index_build_max_seconds =
        std::max(s.index_build_max_seconds, r.index_build_seconds);
    s.reduce_max_seconds = std::max(s.reduce_max_seconds, r.reduce_seconds);
  }
  return s;
}

JsonObject summary_json(const RunSummary& s) {
  JsonObject o;
  o.add("ranks", s.ranks)
      .add("policy", s.policy)
      .add("overlap_mode", s.overlap_mode)
      .add("elapsed_seconds", s.elapsed_seconds)
      .add("pair_imbalance", s.pair_imbalance)
      .add("halo_max_seconds", s.halo_max_seconds)
      .add("halo_hidden_max_seconds", s.halo_hidden_max_seconds)
      .add("index_build_max_seconds", s.index_build_max_seconds)
      .add("reduce_max_seconds", s.reduce_max_seconds);
  std::string pairs = "[", part = "[", halo = "[", hidden = "[", build = "[",
              engine = "[", reduce = "[";
  for (std::size_t i = 0; i < s.reports.size(); ++i) {
    const auto& r = s.reports[i];
    const char* sep = i ? ", " : "";
    pairs += sep + std::to_string(r.pairs);
    part += sep + fmt(r.partition_seconds, "%.6f");
    halo += sep + fmt(r.halo_seconds, "%.6f");
    hidden += sep + fmt(r.halo_hidden_seconds, "%.6f");
    build += sep + fmt(r.index_build_seconds, "%.6f");
    engine += sep + fmt(r.engine_seconds, "%.6f");
    reduce += sep + fmt(r.reduce_seconds, "%.6f");
  }
  o.add_raw("per_rank_pairs", pairs + "]")
      .add_raw("per_rank_partition_seconds", part + "]")
      .add_raw("per_rank_halo_seconds", halo + "]")
      .add_raw("per_rank_halo_hidden_seconds", hidden + "]")
      .add_raw("per_rank_index_build_seconds", build + "]")
      .add_raw("per_rank_engine_seconds", engine + "]")
      .add_raw("per_rank_reduce_seconds", reduce + "]");
  return o;
}

// Halo comm volume at one (ranks, policy) point. The LET run ships
// float32 coordinate planes — lossless here because the catalog is
// f32-snapped and the engine runs TreePrecision::kMixed, whose stored
// planes are float either way. The §3.3 flat shell would ship the same
// point set as four doubles each, so its bytes are derived, not run.
struct HaloCompression {
  int ranks = 0;
  std::string policy;
  std::uint64_t full_shell_bytes = 0;  // 32 x let_points_shipped
  std::uint64_t let_bytes = 0;
  std::uint64_t let_points_shipped = 0;
  std::uint64_t let_cells_sent = 0;
  std::uint64_t let_cells_pruned = 0;
  double ratio = 0;               // let_bytes / full_shell_bytes
  // Worst payload deviation from the single-node engine, normalized by the
  // payload's max magnitude: max_i |a_i - b_i| / ||a||_inf. Summation-
  // reorder round-off lands at ~1e-15; a single flipped pair in any bin
  // shows at ~1e-7 — so the 1e-10 gate separates the two regimes by three
  // decades either way. A raw elementwise relative diff would explode on
  // near-zero zeta elements and gate nothing but cancellation noise.
  double zeta_max_rel_diff = 0;
};

HaloCompression halo_compression(const dist::Session& session,
                                 const sim::Catalog& cat,
                                 const core::EngineConfig& ecfg, int ranks,
                                 dist::PartitionPolicy policy,
                                 const std::vector<double>& single_payload) {
  dist::DistRunConfig cfg;
  cfg.engine = ecfg;
  cfg.ranks = ranks;
  cfg.partition = policy;
  cfg.halo.let_f32 = true;

  std::vector<dist::RankReport> reports;
  const core::ZetaResult b = dist::run_distributed(session, cat, cfg, &reports);

  HaloCompression h;
  h.ranks = ranks;
  h.policy = policy == dist::PartitionPolicy::kPairWeighted
                 ? "pair_weighted"
                 : "primary_balanced";
  for (const auto& r : reports) {
    h.let_bytes += r.halo_bytes_sent;
    h.let_points_shipped += r.halo_points_shipped;
    h.let_cells_sent += r.let_cells_sent;
    h.let_cells_pruned += r.let_cells_pruned;
  }
  h.full_shell_bytes = 4 * sizeof(double) * h.let_points_shipped;
  h.ratio = h.full_shell_bytes
                ? static_cast<double>(h.let_bytes) /
                      static_cast<double>(h.full_shell_bytes)
                : 0.0;
  const std::vector<double>& pa = single_payload;
  const std::vector<double> pb = b.reduce_payload();
  double norm = 0.0;
  for (double v : pa) norm = std::max(norm, std::abs(v));
  if (norm > 0.0)
    for (std::size_t i = 0; i < pa.size() && i < pb.size(); ++i)
      h.zeta_max_rel_diff =
          std::max(h.zeta_max_rel_diff, std::abs(pa[i] - pb[i]) / norm);
  return h;
}

struct AbSample {
  double critical_path = 0;   // max over ranks: halo + build + traversal
  double halo_blocked = 0;    // max over ranks: blocked halo wait
  double halo_hidden = 0;     // max over ranks: in-flight window worked
};

// One A/B measurement through the production run_rank pipeline: 2 ranks,
// rank 0 seeded with 95% of the catalog (skewed ingest). The traversal is
// part of the critical path on purpose — the two_pass mode's whole point
// is moving it inside the halo's in-flight window. All three maxima are
// comm-reduced, so the values are valid on whatever rank 0 is (thread 0 or
// world root).
AbSample pipeline_critical_path(const dist::Session& session,
                                const sim::Catalog& cat,
                                const core::EngineConfig& ecfg,
                                dist::OverlapMode mode) {
  constexpr int kTagAbCrit = 901;
  dist::DistRunConfig dcfg;
  dcfg.engine = ecfg;
  dcfg.ranks = 2;
  dcfg.overlap = mode;
  const std::size_t cutoff = cat.size() * 19 / 20;  // 95% / 5% scatter

  AbSample out;
  session.run(2, [&](dist::Comm& comm) {
    sim::Catalog mine;
    for (std::size_t i = 0; i < cat.size(); ++i)
      if ((i < cutoff) == (comm.rank() == 0))
        mine.push_back(cat.position(i), cat.w[i]);
    dist::RankReport rep;
    (void)dist::run_rank(comm, mine, dcfg, &rep);
    const double crit = comm.allreduce_max_value(
        rep.halo_seconds + rep.index_build_seconds + rep.engine_seconds,
        kTagAbCrit);
    const double blocked =
        comm.allreduce_max_value(rep.halo_seconds, kTagAbCrit + 1);
    const double hidden =
        comm.allreduce_max_value(rep.halo_hidden_seconds, kTagAbCrit + 2);
    if (comm.rank() == 0) {
      out.critical_path = crit;
      out.halo_blocked = blocked;
      out.halo_hidden = hidden;
    }
  });
  return out;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  dist::Session session = dist::init(&argc, &argv);
  BenchArgs args(argc, argv);
  const std::size_t n = args.get<std::size_t>("n", 40000);
  const double rmax = args.get<double>("rmax", 12.0);
  const double side = args.get<double>("side", 220.0);
  const int lmax = args.get<int>("lmax", 5);
  int max_ranks = args.get<int>("max-ranks", 16);
  const std::size_t ab_n = args.get<std::size_t>("ab-n", 200000);
  const int ab_repeats = std::max(1, args.get<int>("ab-repeats", 9));
  // lmax for the A/B catalog: > 0 so the traversal carries real weight —
  // what the two_pass mode hides the halo behind — yet small enough that
  // the partition/halo phases stay visible next to it.
  const int ab_lmax = args.get<int>("ab-lmax", 3);
  const std::string json_path = args.get_str("json", "BENCH_dist.json");
  args.finish();

  const bool root = session.is_root();
  const bool mpi = session.backend() == dist::Backend::kMpi;
  if (mpi) max_ranks = std::min(max_ranks, session.size());

  if (root) {
    print_header("Distributed pipeline scaling (clustered catalog)");
    print_kv("backend", dist::backend_name(session.backend()));
    if (mpi) print_kv("MPI world", fmt(session.size(), "%.0f"));
    print_kv("galaxies", fmt(static_cast<double>(n), "%.0f"));
    print_kv("R_max (Mpc/h)", fmt(rmax, "%.1f"));
    print_kv("lmax", fmt(lmax, "%.0f"));
    print_kv("hardware threads",
             fmt(static_cast<double>(std::thread::hardware_concurrency()),
                 "%.0f"));
    print_kv("paper reference",
             "primaries balance to 0.1%, pairs diverge up to 60% (Fig. 7)");
  }

  const sim::Catalog cat = clustered_catalog(n, side);

  core::EngineConfig ecfg;
  ecfg.bins = core::RadialBins(rmax / 10, rmax, 10);
  ecfg.lmax = lmax;
  ecfg.threads = 1;  // one engine thread per rank: ranks scale, not OpenMP
  ecfg.tree.precision = core::TreePrecision::kMixed;

  // --- Section 1: rank scaling, both policies ----------------------------
  std::vector<RunSummary> results;
  Table t({"# ranks", "policy", "time (s)", "pair imbalance",
           "halo max (ms)", "build max (ms)", "reduce max (ms)"});
  for (int ranks = 1; ranks <= max_ranks; ranks *= 2) {
    for (auto policy : {dist::PartitionPolicy::kPrimaryBalanced,
                        dist::PartitionPolicy::kPairWeighted}) {
      RunSummary s = run_once(session, cat, ecfg, ranks, policy);
      t.add_row({fmt(ranks, "%.0f"), s.policy, fmt(s.elapsed_seconds, "%.3f"),
                 fmt(s.pair_imbalance, "%.3f"),
                 fmt(1e3 * s.halo_max_seconds, "%.2f"),
                 fmt(1e3 * s.index_build_max_seconds, "%.2f"),
                 fmt(1e3 * s.reduce_max_seconds, "%.2f")});
      results.push_back(std::move(s));
    }
  }
  if (root) {
    std::printf("\n");
    t.print();
  }

  const RunSummary* bal = nullptr;
  const RunSummary* wgt = nullptr;
  for (const auto& s : results)
    if (s.ranks == results.back().ranks) {
      if (s.policy == "primary_balanced") bal = &s;
      if (s.policy == "pair_weighted") wgt = &s;
    }
  if (root && bal && wgt) {
    std::printf("\n");
    print_kv("pair imbalance, primary-balanced", fmt(bal->pair_imbalance));
    print_kv("pair imbalance, pair-weighted", fmt(wgt->pair_imbalance));
  }

  // --- Section 1b: halo compression at max ranks ------------------------
  // The comm-volume claim this repo gates: the pruned LET exchange (f32
  // coord planes, safe at kMixed) must move at most half the bytes of the
  // §3.3 flat shell at the widest decomposition, with zeta inside the
  // distributed 1e-10 gate of the single-node engine.
  std::vector<HaloCompression> halo_results;
  if (max_ranks >= 2) {
    // Only the root reports the diff; the other MPI processes skip the
    // single-node solve.
    const std::vector<double> single =
        root ? core::Engine(ecfg).run(cat).reduce_payload()
             : std::vector<double>{};
    for (auto policy : {dist::PartitionPolicy::kPrimaryBalanced,
                        dist::PartitionPolicy::kPairWeighted})
      halo_results.push_back(
          halo_compression(session, cat, ecfg, max_ranks, policy, single));
    if (root) {
      print_header("Halo compression — LET vs the flat shell (32 B/point)");
      Table ht({"policy", "full-shell (B)", "LET (B)", "ratio",
                "points shipped", "cells pruned", "zeta rel diff"});
      for (const auto& h : halo_results)
        ht.add_row({h.policy,
                    fmt(static_cast<double>(h.full_shell_bytes), "%.0f"),
                    fmt(static_cast<double>(h.let_bytes), "%.0f"),
                    fmt(h.ratio, "%.3f"),
                    fmt(static_cast<double>(h.let_points_shipped), "%.0f"),
                    fmt(static_cast<double>(h.let_cells_pruned), "%.0f"),
                    fmt(h.zeta_max_rel_diff, "%.2e")});
      std::printf("\n");
      ht.print();
    }
  }

  // --- Section 2: overlap A/B (sequential / two-pass) -------------------
  // Needs 2 ranks; an mpirun -np 1 world cannot host it.
  const bool run_ab = !mpi || session.size() >= 2;
  constexpr int kAbModeCount = 2;
  const dist::OverlapMode kAbModes[kAbModeCount] = {
      dist::OverlapMode::kSequential, dist::OverlapMode::kTwoPass};
  struct AbResult {
    std::string mode;
    double critical_path = 0, halo_blocked = 0, halo_hidden = 0;
  };
  std::vector<AbResult> ab_results;
  if (run_ab) {
    if (root) {
      print_header("Pipeline A/B — sequential vs two-pass");
      print_kv("galaxies", fmt(static_cast<double>(ab_n), "%.0f"));
      print_kv("ranks", "2 (95%/5% skewed scatter)");
      print_kv("lmax (A/B)", fmt(ab_lmax, "%.0f"));
      print_kv("repeats (median)", fmt(ab_repeats, "%.0f"));
    }

    const sim::Catalog ab_cat = clustered_catalog(ab_n, 260.0);
    core::EngineConfig ab_cfg = ecfg;
    ab_cfg.lmax = ab_lmax;

    // Interleave the modes inside every repeat so host noise hits both
    // alike.
    std::vector<std::vector<AbSample>> samples(kAbModeCount);
    for (int rep = 0; rep < ab_repeats; ++rep)
      for (int m = 0; m < kAbModeCount; ++m)
        samples[m].push_back(
            pipeline_critical_path(session, ab_cat, ab_cfg, kAbModes[m]));

    Table abt({"overlap mode", "critical path (ms)", "halo blocked (ms)",
               "halo hidden (ms)", "hidden fraction"});
    for (int m = 0; m < kAbModeCount; ++m) {
      AbResult r;
      r.mode = dist::overlap_mode_name(kAbModes[m]);
      std::vector<double> crit, blocked, hidden;
      for (const AbSample& s : samples[m]) {
        crit.push_back(s.critical_path);
        blocked.push_back(s.halo_blocked);
        hidden.push_back(s.halo_hidden);
      }
      r.critical_path = median(crit);
      r.halo_blocked = median(blocked);
      r.halo_hidden = median(hidden);
      const double denom = r.halo_blocked + r.halo_hidden;
      abt.add_row({r.mode, fmt(1e3 * r.critical_path, "%.2f"),
                   fmt(1e3 * r.halo_blocked, "%.2f"),
                   fmt(1e3 * r.halo_hidden, "%.2f"),
                   denom > 0 ? fmt(r.halo_hidden / denom, "%.3f") : "—"});
      ab_results.push_back(std::move(r));
    }
    if (root) {
      std::printf("\n");
      abt.print();
      std::printf("\n");
      print_kv("speedup, two-pass vs sequential",
               fmt(ab_results[0].critical_path / ab_results[1].critical_path,
                   "%.2fx"));
    }
    // The JSON `note` alone is easy to miss when eyeballing the table, so
    // repeat the single-core caveat on stderr where the run log shows it.
    if (root && std::thread::hardware_concurrency() < 2)
      std::fprintf(stderr,
                   "note: single-core host: rank threads time-share one CPU, "
                   "so the overlap A/B wall critical paths are "
                   "throughput-bound (~1.0x); the overlap hides halo wait "
                   "only with >= 2 cores (see the CI artifact)\n");
  } else if (root) {
    print_kv("pipeline A/B", "skipped (MPI world of 1)");
  }

  if (root && !json_path.empty()) {
    JsonObject config;
    config.add("n", static_cast<std::uint64_t>(n))
        .add("rmax", rmax)
        .add("side", side)
        .add("lmax", lmax)
        .add("max_ranks", max_ranks)
        .add("overlap_mode",
             std::string(dist::overlap_mode_name(dist::DistRunConfig{}.overlap)))
        .add("ab_n", static_cast<std::uint64_t>(ab_n))
        .add("ab_repeats", ab_repeats)
        .add("ab_lmax", ab_lmax)
        .add("backend", std::string(dist::backend_name(session.backend())))
        .add("world_size", session.size())
        .add("hardware_threads",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
        .add("catalog",
             std::string("half-in-corner-clump clustered, f32-snapped"));
    std::string runs = "[";
    for (std::size_t i = 0; i < results.size(); ++i)
      runs += (i ? ",\n    " : "\n    ") + summary_json(results[i]).str(4);
    runs += "\n  ]";
    JsonObject doc;
    doc.add_raw("config", config.str(2)).add_raw("runs", runs);
    if (!halo_results.empty()) {
      JsonObject hc;
      hc.add("ranks", halo_results.front().ranks);
      hc.add_raw("let_f32", "true");
      std::string pols = "[";
      for (std::size_t i = 0; i < halo_results.size(); ++i) {
        const HaloCompression& h = halo_results[i];
        JsonObject ho;
        ho.add("policy", h.policy)
            .add("full_shell_bytes", h.full_shell_bytes)
            .add("let_bytes", h.let_bytes)
            .add("ratio", h.ratio)
            .add("let_points_shipped", h.let_points_shipped)
            .add("let_cells_sent", h.let_cells_sent)
            .add("let_cells_pruned", h.let_cells_pruned)
            .add("zeta_max_rel_diff", h.zeta_max_rel_diff);
        pols += (i ? ",\n      " : "\n      ") + ho.str(6);
      }
      pols += "\n    ]";
      hc.add_raw("policies", pols);
      doc.add_raw("halo_compression", hc.str(2));
    }
    if (run_ab) {
      JsonObject ab;
      ab.add("ranks", 2);
      std::string modes = "[";
      for (std::size_t m = 0; m < ab_results.size(); ++m) {
        const AbResult& r = ab_results[m];
        JsonObject mo;
        const double denom = r.halo_blocked + r.halo_hidden;
        mo.add("overlap_mode", r.mode)
            .add("critical_path_seconds", r.critical_path)
            .add("halo_blocked_seconds", r.halo_blocked)
            .add("halo_hidden_seconds", r.halo_hidden)
            .add("hidden_fraction", denom > 0 ? r.halo_hidden / denom : 0.0);
        modes += (m ? ",\n      " : "\n      ") + mo.str(6);
      }
      modes += "\n    ]";
      ab.add_raw("modes", modes);
      ab.add("speedup_two_pass_vs_sequential",
             ab_results[1].critical_path > 0
                 ? ab_results[0].critical_path / ab_results[1].critical_path
                 : 0.0);
      if (std::thread::hardware_concurrency() < 2)
        ab.add("note",
               std::string("single-core host: rank threads time-share one "
                           "CPU, so wall critical paths are throughput-bound "
                           "(~1.0x); the overlap hides halo wait only with "
                           ">= 2 cores (see the CI artifact)"));
      doc.add_raw("pipeline_ab", ab.str(2));
    }
    write_json_file(json_path, doc.str());
  }
  return 0;
}
