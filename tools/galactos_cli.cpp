// galactos — command-line 3PCF runner for catalog files.
//
//   galactos --input catalog.txt --rmin 20 --rmax 200 --nbins 10 --lmax 10
//            [--randoms randoms.txt] [--periodic-box 3000] [--radial-los]
//            [--observer-x 0 --observer-y 0 --observer-z 0]
//            [--ranks 4] [--threads 0] [--double-precision]
//            [--subtract-self] [--output zeta] [--binary] [--help]
//
// Input: text (x y z [w], '#' comments, commas allowed) or the GLXCAT01
// binary format (by .bin extension). Three estimator modes:
//   * plain        — open box, plane-parallel LOS (default)
//   * periodic     — --periodic-box <side>: exact periodic-box estimate
//   * survey       — --randoms <file>: D - (N_D/N_R) R contrast estimate
// With --ranks > 1 the full distributed pipeline (k-d partition + halo
// exchange + reduction) runs in-process — the same code path the scaling
// benches exercise.
#include <cstdio>
#include <string>

#include "core/engine.hpp"
#include "core/estimator.hpp"
#include "dist/runner.hpp"
#include "io/catalog_io.hpp"
#include "io/zeta_io.hpp"
#include "util/argparse.hpp"
#include "util/timer.hpp"

using namespace galactos;

namespace {

sim::Catalog load(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin")
    return io::read_catalog_binary(path);
  return io::read_catalog_text(path);
}

}  // namespace

namespace {

constexpr const char* kUsage =
    "usage: galactos --input <catalog> [--randoms <catalog>]\n"
    "  [--rmin 1] --rmax <R> [--nbins 10] [--lmax 10]\n"
    "  [--log-bins] [--periodic-box <side>] [--radial-los]\n"
    "  [--observer-{x,y,z} 0] [--ranks 1] [--threads 0]\n"
    "  [--double-precision] [--subtract-self]\n"
    "  [--backend tree|fft] [--grid-n 128]\n"
    "  [--assignment ngp|cic|tsc] [--interlace 0|1]\n"
    "  [--output zeta] [--binary] [--help]\n";

int run(int argc, char** argv);

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "galactos: error: %s\n", e.what());
    return 1;
  }
}

namespace {

int run(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.flag("help")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const std::string input = args.get_str("input", "");
  const std::string randoms_path = args.get_str("randoms", "");
  const std::string output = args.get_str("output", "zeta");
  const double rmin = args.get<double>("rmin", 1.0);
  const double rmax = args.get<double>("rmax", 200.0);
  const int nbins = args.get<int>("nbins", 10);
  const int lmax = args.get<int>("lmax", 10);
  const bool log_bins = args.flag("log-bins");
  const double periodic = args.get<double>("periodic-box", 0.0);
  const bool radial = args.flag("radial-los");
  const double ox = args.get<double>("observer-x", 0.0);
  const double oy = args.get<double>("observer-y", 0.0);
  const double oz = args.get<double>("observer-z", 0.0);
  const int ranks = args.get<int>("ranks", 1);
  const int threads = args.get<int>("threads", 0);
  const bool dbl = args.flag("double-precision");
  const bool self = args.flag("subtract-self");
  const bool binary = args.flag("binary");
  const std::string backend = args.get_str("backend", "tree");
  const int grid_n = args.get<int>("grid-n", 128);
  const std::string assignment = args.get_str("assignment", "tsc");
  const int interlace = args.get<int>("interlace", 1);
  args.finish();
  // --threads 0 is the OpenMP default; --ranks 0 or 1 is the single-node
  // path. Anything negative is a typo, not a request.
  GLX_CHECK_MSG(threads >= 0, "--threads must be >= 0 (got " << threads << ")");
  GLX_CHECK_MSG(ranks >= 0, "--ranks must be >= 0 (got " << ranks << ")");

  if (input.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  const sim::Catalog data = load(input);
  std::printf("loaded %zu galaxies from %s\n", data.size(), input.c_str());

  core::EngineConfig cfg;
  cfg.bins = core::RadialBins(
      rmin, rmax, nbins,
      log_bins ? core::BinSpacing::kLog : core::BinSpacing::kLinear);
  cfg.lmax = lmax;
  cfg.threads = threads;
  cfg.tree.precision =
      dbl ? core::TreePrecision::kDouble : core::TreePrecision::kMixed;
  cfg.subtract_self_pairs = self;
  if (radial) {
    cfg.los = core::LineOfSight::kRadial;
    cfg.observer = {ox, oy, oz};
  }

  cfg.backend = core::backend_from_name(backend);
  if (cfg.backend == core::EstimatorBackend::kFFT) {
    GLX_CHECK_MSG(randoms_path.empty(),
                  "--backend fft does not support survey mode (--randoms); "
                  "the mesh estimator needs a periodic box");
    GLX_CHECK_MSG(periodic > 0.0,
                  "--backend fft requires --periodic-box <side>");
    cfg.fft.box_side = periodic;
    cfg.fft.grid_n = static_cast<std::size_t>(grid_n);
    cfg.fft.assignment = core::assignment_from_name(assignment);
    cfg.fft.interlace = interlace != 0;
  }

  core::EngineStats stats;
  core::ZetaResult result;
  if (cfg.backend == core::EstimatorBackend::kFFT) {
    std::printf("fft backend: grid %d^3, %s%s\n", grid_n, assignment.c_str(),
                interlace ? ", interlaced" : "");
    if (ranks > 1) {
      std::printf("distributed mode: %d ranks (slab decomposition)\n", ranks);
      dist::DistRunConfig dcfg;
      dcfg.engine = cfg;
      dcfg.ranks = ranks;
      std::vector<dist::RankReport> reports;
      Timer timer;
      result = dist::run_distributed(data, dcfg, &reports);
      stats.wall_seconds = timer.seconds();
      for (const auto& r : reports)
        std::printf("  rank %d: primaries %llu (%.2fs)\n", r.rank,
                    static_cast<unsigned long long>(r.owned),
                    r.total_seconds);
    } else {
      result = core::Engine(cfg).run(data, nullptr, &stats);
    }
  } else if (!randoms_path.empty()) {
    const sim::Catalog randoms = load(randoms_path);
    std::printf("survey mode: %zu randoms (%s)\n", randoms.size(),
                randoms_path.c_str());
    result = core::survey_3pcf(data, randoms, cfg, &stats);
  } else if (periodic > 0.0) {
    std::printf("periodic-box mode: side %.2f\n", periodic);
    result = core::periodic_box_3pcf(data, sim::Aabb::cube(periodic), cfg,
                                     &stats);
  } else if (ranks > 1) {
    std::printf("distributed mode: %d ranks\n", ranks);
    dist::DistRunConfig dcfg;
    dcfg.engine = cfg;
    dcfg.ranks = ranks;
    std::vector<dist::RankReport> reports;
    Timer timer;
    result = dist::run_distributed(data, dcfg, &reports);
    stats.wall_seconds = timer.seconds();
    for (const auto& r : reports)
      std::printf("  rank %d: owned %llu halo %llu pairs %.3e (%.2fs)\n",
                  r.rank, static_cast<unsigned long long>(r.owned),
                  static_cast<unsigned long long>(r.held - r.owned),
                  static_cast<double>(r.pairs), r.total_seconds);
  } else {
    result = core::Engine(cfg).run(data, nullptr, &stats);
  }

  // Microsecond resolution: a small distributed run must not print zero.
  std::printf("primaries %llu, pairs %.3e, wall %.6fs\n",
              static_cast<unsigned long long>(result.n_primaries),
              static_cast<double>(result.n_pairs), stats.wall_seconds);
  if (stats.phases.total() > 0)
    std::printf("%s", stats.phases.report().c_str());

  io::write_zeta_csv(result, output + "_zeta.csv");
  io::write_xi_csv(result, output + "_xi.csv");
  std::printf("wrote %s_zeta.csv, %s_xi.csv\n", output.c_str(),
              output.c_str());
  if (binary) {
    io::write_zeta_binary(result, output + ".bin");
    std::printf("wrote %s.bin\n", output.c_str());
  }
  return 0;
}

}  // namespace
