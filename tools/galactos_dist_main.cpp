// galactos_dist_main — the mpirun-able distributed 3PCF entrypoint.
//
// One binary, two launch styles, identical pipeline (k-d partition + halo
// exchange + leaf-blocked traversal + tree reduction):
//
//   # real MPI ranks (GALACTOS_WITH_MPI build; backend auto-detected)
//   mpirun -np 4 ./build/galactos_dist_main --n 200000 --rmax 16
//
//   # in-process thread ranks (any build, no MPI installed)
//   ./build/galactos_dist_main --ranks 4 --n 200000 --rmax 16
//
// The backend is chosen at run time by dist::init (GALACTOS_DIST_BACKEND
// overrides: threads | mpi | auto). Input is either --input <catalog>
// (text "x y z [w]" or GLXCAT01 .bin) — under MPI every rank must see the
// same file — or a synthetic Outer Rim-density catalog (--n, --seed).
// Rank 0 prints the per-rank pipeline report and writes the zeta CSV /
// JSON report; the reduced result is identical on every rank.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dist/error.hpp"
#include "dist/runner.hpp"
#include "io/catalog_io.hpp"
#include "io/zeta_io.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"

using namespace galactos;
using galactos::bench::JsonObject;
using galactos::bench::Table;
using galactos::bench::fmt;

namespace {

sim::Catalog load(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin")
    return io::read_catalog_binary(path);
  return io::read_catalog_text(path);
}

constexpr const char* kUsage =
    "usage: galactos_dist_main [--input <catalog> | --n 100000 --seed 12345]\n"
    "  [--rmin rmax/nbins] [--rmax 16] [--nbins 10] [--lmax 10]\n"
    "  [--ranks 4 (threads) | mpirun world (MPI)] [--threads 1]\n"
    "  [--timeout-s 0] [--policy pair|primary]\n"
    "  [--overlap two-pass|index|sequential] [--halo-mode full|let]\n"
    "  [--let-f32] [--backend tree|fft] [--grid-n 128]\n"
    "  [--assignment ngp|cic|tsc] [--interlace 0|1]\n"
    "  [--periodic-box <side>] [--output <prefix>] [--json <file>] [--help]\n";

int run_with_session(dist::Session& session, int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.flag("help")) {
    if (session.is_root()) std::fputs(kUsage, stdout);
    return 0;
  }
  const std::string input = args.get_str("input", "");
  const std::size_t n = args.get<std::size_t>("n", 100000);
  const std::uint64_t seed = args.get<std::uint64_t>("seed", 12345);
  // Sentinel -1 = "rmax/nbins"; an explicit --rmin 0 is honored (RadialBins
  // accepts a zero lower edge for linear bins).
  const double rmin = args.get<double>("rmin", -1.0);
  const double rmax = args.get<double>("rmax", 16.0);
  const int nbins = args.get<int>("nbins", 10);
  const int lmax = args.get<int>("lmax", 10);
  const int threads = args.get<int>("threads", 1);
  // Comm-wide receive deadline (seconds); 0 = wait forever (the default).
  // GALACTOS_DIST_TIMEOUT_S overrides the flag inside run_rank.
  const double timeout_s = args.get<double>("timeout-s", 0.0);
  // kThreads: rank count (default 4). kMpi: defaults to the mpirun world;
  // smaller values run on a leading sub-communicator.
  const int ranks_arg = args.get<int>(
      "ranks", session.backend() == dist::Backend::kMpi ? 0 : 4);
  const std::string policy = args.get_str("policy", "pair");
  // Overlap depth: two-pass (default) | index | sequential. --sequential
  // is kept as a back-compat alias for --overlap sequential.
  const std::string overlap_arg =
      args.get_str("overlap", args.flag("sequential") ? "sequential"
                                                      : "two-pass");
  // Halo wire format: full (flat point shower, the reference) | let
  // (pruned locally-essential tree — comm volume scales with the domain
  // boundary). --let-f32 additionally quantizes LET coordinates to float32
  // on the wire (safe at the default kMixed tree precision, where the
  // stored planes are float anyway).
  const std::string halo_arg = args.get_str("halo-mode", "full");
  const bool let_f32 = args.flag("let-f32");
  const std::string output = args.get_str("output", "");
  const std::string json_path = args.get_str("json", "");
  // Estimator backend: tree (k-d partition + halo pipeline, the default)
  // or fft (slab-decomposed mesh estimator; periodic box required —
  // --periodic-box for file input, the synthetic box side is known).
  const std::string backend = args.get_str("backend", "tree");
  const int grid_n = args.get<int>("grid-n", 128);
  const std::string assignment = args.get_str("assignment", "tsc");
  const int interlace = args.get<int>("interlace", 1);
  const double box = args.get<double>("periodic-box", 0.0);
  args.finish();

  const bool root = session.is_root();
  if (root)
    std::printf("galactos_dist_main: backend=%s world=%d\n",
                dist::backend_name(session.backend()), session.size());

  sim::Catalog cat;
  if (!input.empty()) {
    cat = load(input);  // every MPI rank reads the same file
    if (root)
      std::printf("loaded %zu galaxies from %s\n", cat.size(),
                  input.c_str());
  } else {
    cat = bench::outer_rim_scaled(n, seed);
    if (root)
      std::printf("synthetic catalog: %zu galaxies, seed %llu\n", cat.size(),
                  static_cast<unsigned long long>(seed));
  }

  dist::DistRunConfig cfg;
  cfg.engine.bins =
      core::RadialBins(rmin >= 0 ? rmin : rmax / nbins, rmax, nbins);
  cfg.engine.lmax = lmax;
  cfg.engine.threads = threads;
  cfg.engine.tree.precision = core::TreePrecision::kMixed;
  cfg.ranks = ranks_arg;
  cfg.timeout_s = timeout_s;
  cfg.partition = policy == "primary"
                      ? dist::PartitionPolicy::kPrimaryBalanced
                      : dist::PartitionPolicy::kPairWeighted;
  if (overlap_arg == "sequential") {
    cfg.overlap = dist::OverlapMode::kSequential;
  } else if (overlap_arg == "index" || overlap_arg == "index-build") {
    cfg.overlap = dist::OverlapMode::kIndexBuild;
  } else if (overlap_arg == "two-pass" || overlap_arg == "two_pass") {
    cfg.overlap = dist::OverlapMode::kTwoPass;
  } else {
    throw std::runtime_error("--overlap must be sequential | index | "
                             "two-pass (got '" + overlap_arg + "')");
  }
  if (halo_arg == "let") {
    cfg.halo.mode = dist::HaloMode::kLet;
  } else if (halo_arg != "full" && halo_arg != "full-shell") {
    throw std::runtime_error("--halo-mode must be full | let (got '" +
                             halo_arg + "')");
  }
  cfg.halo.let_f32 = let_f32;
  cfg.engine.backend = core::backend_from_name(backend);
  if (cfg.engine.backend == core::EstimatorBackend::kFFT) {
    double side = box;
    if (side <= 0.0 && input.empty()) side = sim::outer_rim_box_side(n);
    if (side <= 0.0)
      throw std::runtime_error(
          "--backend fft with --input needs --periodic-box <side>");
    cfg.engine.fft.box_side = side;
    cfg.engine.fft.grid_n = static_cast<std::size_t>(grid_n);
    cfg.engine.fft.assignment = core::assignment_from_name(assignment);
    cfg.engine.fft.interlace = interlace != 0;
    if (root)
      std::printf("fft backend: grid %d^3, %s%s, box %.1f\n", grid_n,
                  assignment.c_str(), interlace ? ", interlaced" : "",
                  side);
  }

  std::vector<dist::RankReport> reports;
  Timer timer;
  const core::ZetaResult result =
      dist::run_distributed(session, cat, cfg, &reports);
  const double elapsed = timer.seconds();

  if (root) {
    Table t({"rank", "owned", "held", "pairs", "partition (s)", "halo (s)",
             "hidden (s)", "build (s)", "engine (s)", "pass1/pass2 (s)",
             "reduce (s)"});
    for (const auto& r : reports)
      t.add_row({fmt(r.rank, "%.0f"), std::to_string(r.owned),
                 std::to_string(r.held), std::to_string(r.pairs),
                 fmt(r.partition_seconds, "%.4f"),
                 fmt(r.halo_seconds, "%.4f"),
                 fmt(r.halo_hidden_seconds, "%.4f"),
                 fmt(r.index_build_seconds, "%.4f"),
                 fmt(r.engine_seconds, "%.4f"),
                 fmt(r.owned_pass_seconds, "%.4f") + "/" +
                     fmt(r.secondary_pass_seconds, "%.4f"),
                 fmt(r.reduce_seconds, "%.4f")});
    std::printf("\n");
    t.print();
    std::printf("\n");
    const double imbalance =
        reports.empty() ? 1.0 : reports.front().pair_imbalance;
    std::uint64_t halo_sent = 0, halo_pts = 0, cells_pruned = 0;
    std::uint64_t comm_sent = 0;
    for (const auto& r : reports) {
      halo_sent += r.halo_bytes_sent;
      halo_pts += r.halo_points_shipped;
      cells_pruned += r.let_cells_pruned;
      for (int p = 0; p < dist::kPhaseCount; ++p)
        comm_sent += r.phase_bytes_sent[p];
    }
    std::printf("ranks %zu  pairs %llu  pair-imbalance %.3f  wall %.3f s\n",
                reports.size(),
                static_cast<unsigned long long>(result.n_pairs), imbalance,
                elapsed);
    std::printf(
        "halo mode %s  halo bytes %llu  points shipped %llu  "
        "let cells pruned %llu  total comm bytes %llu\n",
        dist::halo_mode_name(cfg.halo.mode),
        static_cast<unsigned long long>(halo_sent),
        static_cast<unsigned long long>(halo_pts),
        static_cast<unsigned long long>(cells_pruned),
        static_cast<unsigned long long>(comm_sent));

    if (!output.empty()) io::write_zeta_csv(result, output + "_zeta.csv");
    if (!json_path.empty()) {
      JsonObject o;
      o.add("backend", std::string(dist::backend_name(session.backend())))
          .add("estimator_backend",
               std::string(core::backend_name(cfg.engine.backend)))
          .add("world_size", session.size())
          .add("ranks", static_cast<std::uint64_t>(reports.size()))
          .add("galaxies", static_cast<std::uint64_t>(cat.size()))
          .add("rmax", rmax)
          .add("lmax", lmax)
          .add("policy", policy == "primary" ? "primary_balanced"
                                             : "pair_weighted")
          .add("overlap_mode",
               std::string(dist::overlap_mode_name(cfg.overlap)))
          .add("halo_mode", std::string(dist::halo_mode_name(cfg.halo.mode)))
          .add("let_f32", cfg.halo.let_f32 ? 1 : 0)
          .add("halo_bytes_sent", halo_sent)
          .add("halo_points_shipped", halo_pts)
          .add("let_cells_pruned", cells_pruned)
          .add("comm_bytes_sent", comm_sent)
          .add("n_pairs", result.n_pairs)
          .add("n_primaries", result.n_primaries)
          .add("pair_imbalance", imbalance)
          .add("wall_seconds", elapsed);
      if (cfg.engine.backend == core::EstimatorBackend::kFFT)
        o.add("grid_n", static_cast<std::uint64_t>(cfg.engine.fft.grid_n))
            .add("assignment",
                 std::string(
                     core::assignment_name(cfg.engine.fft.assignment)))
            .add("interlace", cfg.engine.fft.interlace ? 1 : 0);
      double halo_blocked_max = 0, halo_hidden_max = 0;
      for (const auto& r : reports) {
        halo_blocked_max = std::max(halo_blocked_max, r.halo_seconds);
        halo_hidden_max = std::max(halo_hidden_max, r.halo_hidden_seconds);
      }
      o.add("halo_blocked_max_seconds", halo_blocked_max)
          .add("halo_hidden_max_seconds", halo_hidden_max);
      bench::write_json_file(json_path, o.str());
    }
  }
  return 0;
}

// Structured failure taxonomy (documented in README "Failure semantics"):
// scripts and the CI chaos leg key off these codes, so keep them stable.
//   3  dist::TimeoutError   — a deadline expired (what() names the channel)
//   4  dist::ProtocolError  — a framed payload failed integrity checks
//   5  other dist::Error    — peer abort, injected crash, plan parse, ...
//   1  anything else        — argument errors, I/O, std::exception
int run(int argc, char** argv) {
  // init() first: MPI_Init may consume launcher-injected argv entries.
  dist::Session session = dist::init(&argc, &argv);
  // Catch INSIDE the session's scope: the diagnostic must print before
  // anything tears the MPI world down. Under real MPI a clean exit would
  // leave peers blocked in collectives forever, so after reporting, take
  // the whole job down with the taxonomy code (no-op on the thread
  // backend, where the error is rank-local and a plain exit is safe).
  try {
    return run_with_session(session, argc, argv);
  } catch (const dist::TimeoutError& e) {
    std::fprintf(stderr, "galactos_dist_main: FAILED [TimeoutError] %s\n",
                 e.what());
    dist::abort_mpi_world(3);
    return 3;
  } catch (const dist::ProtocolError& e) {
    std::fprintf(stderr, "galactos_dist_main: FAILED [ProtocolError] %s\n",
                 e.what());
    dist::abort_mpi_world(4);
    return 4;
  } catch (const dist::Error& e) {
    std::fprintf(stderr, "galactos_dist_main: FAILED [DistError] %s\n",
                 e.what());
    dist::abort_mpi_world(5);
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "galactos_dist_main: error: %s\n", e.what());
    dist::abort_mpi_world(1);
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    // dist::init failures land here (no MPI world is up yet).
    std::fprintf(stderr, "galactos_dist_main: error: %s\n", e.what());
    galactos::dist::abort_mpi_world(1);
    return 1;
  }
}
