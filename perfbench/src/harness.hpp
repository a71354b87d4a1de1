// Benchmark harness pieces shared by the runner and its self-test: an
// in-memory span recorder, the closed-loop solve runner with per-solve
// correctness checks, result comparisons and a small JSON writer.
//
// Everything here sits OUTSIDE the library: spans wrap calls into the
// library's public functions, and counters are read from what those calls
// return (EngineStats, RankReport, ZetaResult).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/zeta.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, the span that caused it, and the solve it belongs
// to (-1 outside any solve). Kept in memory; written once at the end.
struct Span {
  int id = 0;
  int parent = -1;
  int solve = -1;
  std::string name;
  double start_s = 0.0;  // seconds since the tracer was created
  double end_s = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int begin(const std::string& name) {
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.solve = solve_;
    s.name = name;
    s.start_s = seconds_since(origin_);
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }

  // Closes span `id` (the innermost open one) and returns its duration.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_s = seconds_since(origin_);
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    return s.end_s - s.start_s;
  }

  void set_solve(int solve) { solve_ = solve; }
  const std::vector<Span>& spans() const { return spans_; }

  // {"spans": [{"id", "parent", "solve", "name", "start_s", "end_s"}]}
  std::string json() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int solve_ = -1;
};

// Times a scope; records a span only when a tracer is given, so the
// untraced path pays one clock read at each end and nothing else.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), t0_(Clock::now()) {
    if (tracer_) id_ = tracer_->begin(name);
  }
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span (once) and returns its duration in seconds.
  double stop() {
    if (!done_) {
      seconds_ = seconds_since(t0_);
      if (tracer_) tracer_->end(id_);
      done_ = true;
    }
    return seconds_;
  }

 private:
  Tracer* tracer_;
  Clock::time_point t0_;
  int id_ = -1;
  bool done_ = false;
  double seconds_ = 0.0;
};

// ---------------------------------------------------------------------------
// Closed loop: one caller; the next solve starts when the previous one has
// returned and been checked. A solve fails if it throws or if its check
// returns a non-empty message; failures are counted, never fatal. Only
// passing solves contribute a time sample. The check runs outside the
// timed interval.
struct LoopStats {
  int attempted = 0;
  int failed = 0;
  std::vector<double> solve_s;
  std::vector<std::string> errors;  // one per failed solve
};

using SolveFn = std::function<galactos::core::ZetaResult()>;
using CheckFn =
    std::function<std::string(const galactos::core::ZetaResult&)>;

// Runs solves until `budget_s` has elapsed AND at least `min_solves` were
// attempted. `on_solve(i)` is called before solve i (tags spans).
void closed_loop(double budget_s, int min_solves, const SolveFn& solve,
                 const CheckFn& check, LoopStats& stats,
                 const std::function<void(int)>& on_solve = {});

// ---------------------------------------------------------------------------
// Result checks: "" on success, else a one-line description.

std::string check_pairs_equal(std::uint64_t got, std::uint64_t want);

// core::max_gated_rel_err(ref, got, gate) <= tol; the error is written to
// *err when given.
std::string check_gated(const galactos::core::ZetaResult& ref,
                        const galactos::core::ZetaResult& got, double gate,
                        double tol, double* err = nullptr);

// ---------------------------------------------------------------------------
// Minimal JSON builder: numbers keep all 17 significant digits.
std::string json_number(double v);
std::string json_string(const std::string& s);
std::string json_array(const std::vector<double>& v);
std::string json_array(const std::vector<std::string>& v);

class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    items_.emplace_back(key, json);
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_string(v));
  }
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

}  // namespace perfbench
