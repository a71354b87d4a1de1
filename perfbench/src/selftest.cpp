// Self-test of the harness: the closed loop counts every failing solve
// (a thrown exception, a pair-count mismatch, a result that disagrees with
// its reference) and keeps going; passing solves give time samples; spans
// nest. Writes a span trace to argv[1] for the Python schema test.
//
//   perfbench_selftest TRACE.json     (exit 0 = all checks passed)
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "harness.hpp"
#include "sim/generators.hpp"

using namespace galactos;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest TRACE.json\n");
    return 2;
  }
  const sim::Catalog cat = sim::uniform_box(2000, sim::Aabb::cube(30.0), 7);
  core::EngineConfig cfg;
  cfg.bins = core::RadialBins(2.0, 8.0, 4);
  cfg.lmax = 3;
  cfg.threads = 2;
  const core::Engine engine(cfg);
  const core::ZetaResult ref = engine.run(cat);

  perfbench::Tracer tracer;
  auto solve = [&]() {
    perfbench::ScopedSpan s(&tracer, "solve");
    perfbench::ScopedSpan run(&tracer, "core.Engine::run");
    return engine.run(cat);
  };
  auto on_solve = [&](int i) { tracer.set_solve(i); };

  // Matching reference: every solve passes and is timed.
  perfbench::LoopStats good;
  perfbench::closed_loop(0.0, 3, solve,
                         [&](const core::ZetaResult& z) {
                           std::string e = perfbench::check_pairs_equal(
                               z.n_pairs, ref.n_pairs);
                           if (e.empty())
                             e = perfbench::check_gated(ref, z, 3e-2, 1e-10);
                           return e;
                         },
                         good, on_solve);
  tracer.set_solve(-1);
  expect(good.attempted == 3 && good.failed == 0 && good.solve_s.size() == 3,
         "matching reference: 3 attempted, 0 failed, 3 timed");

  // Reference mismatch: the largest coefficient off by 1%. Every solve
  // fails its check, none is timed, and the loop still runs them all.
  core::ZetaResult wrong = ref;
  std::size_t big = 0;
  for (std::size_t i = 0; i < wrong.zeta_data.size(); ++i)
    if (std::abs(wrong.zeta_data[i]) > std::abs(wrong.zeta_data[big])) big = i;
  wrong.zeta_data[big] *= 1.01;
  perfbench::LoopStats mismatch;
  perfbench::closed_loop(0.0, 3, [&]() { return engine.run(cat); },
                         [&](const core::ZetaResult& z) {
                           return perfbench::check_gated(wrong, z, 3e-2, 1e-10);
                         },
                         mismatch);
  expect(mismatch.attempted == 3 && mismatch.failed == 3 &&
             mismatch.solve_s.empty() && mismatch.errors.size() == 3,
         "reference mismatch: 3 attempted, 3 failed, none timed");

  // Pair-count mismatch.
  perfbench::LoopStats pairs;
  perfbench::closed_loop(0.0, 2, [&]() { return engine.run(cat); },
                         [&](const core::ZetaResult& z) {
                           return perfbench::check_pairs_equal(
                               z.n_pairs, ref.n_pairs + 1);
                         },
                         pairs);
  expect(pairs.failed == 2, "pair-count mismatch: 2 of 2 failed");

  // A solve that throws on its second call: counted, loop continues.
  int calls = 0;
  perfbench::LoopStats throws;
  perfbench::closed_loop(0.0, 3,
                         [&]() {
                           if (++calls == 2) throw std::runtime_error("boom");
                           return engine.run(cat);
                         },
                         [](const core::ZetaResult&) { return std::string(); },
                         throws);
  expect(throws.attempted == 3 && throws.failed == 1 &&
             throws.solve_s.size() == 2 &&
             throws.errors.at(0).find("boom") != std::string::npos,
         "thrown solve: 3 attempted, 1 failed, 2 timed");

  // Spans: 3 solves x (solve, run), parents and solve ids as nested.
  const auto& spans = tracer.spans();
  bool nested = spans.size() == 6;
  for (std::size_t i = 0; nested && i < spans.size(); i += 2)
    nested = spans[i].name == "solve" && spans[i].parent == -1 &&
             spans[i + 1].parent == spans[i].id &&
             spans[i].solve == static_cast<int>(i / 2) &&
             spans[i + 1].solve == spans[i].solve &&
             spans[i].start_s <= spans[i + 1].start_s &&
             spans[i + 1].end_s <= spans[i].end_s;
  expect(nested, "spans nest with parent and solve ids");

  std::ofstream(argv[1]) << tracer.json();
  return failures ? 1 : 0;
}
