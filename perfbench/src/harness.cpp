#include "harness.hpp"

#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>

namespace perfbench {

namespace gc = galactos::core;

std::string Tracer::json() const {
  std::string out = "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject o;
    o.num("id", s.id)
        .num("parent", s.parent)
        .num("solve", s.solve)
        .str("name", s.name)
        .num("start_s", s.start_s)
        .num("end_s", s.end_s);
    out += (i ? ",\n  " : "\n  ") + o.dump();
  }
  return out + "\n]}\n";
}

void closed_loop(double budget_s, int min_solves, const SolveFn& solve,
                 const CheckFn& check, LoopStats& stats,
                 const std::function<void(int)>& on_solve) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_solves || seconds_since(start) < budget_s; ++i) {
    if (on_solve) on_solve(stats.attempted);
    ++stats.attempted;
    std::string err;
    double secs = 0.0;
    try {
      const Clock::time_point t0 = Clock::now();
      const gc::ZetaResult result = solve();
      secs = seconds_since(t0);
      err = check(result);
    } catch (const std::exception& e) {
      err = std::string("solve threw: ") + e.what();
    }
    if (err.empty()) {
      stats.solve_s.push_back(secs);
    } else {
      ++stats.failed;
      stats.errors.push_back(err);
    }
  }
}

std::string check_pairs_equal(std::uint64_t got, std::uint64_t want) {
  if (got == want) return "";
  return "n_pairs " + std::to_string(got) + " != reference " +
         std::to_string(want);
}

std::string check_gated(const gc::ZetaResult& ref, const gc::ZetaResult& got,
                        double gate, double tol, double* err) {
  const double e = gc::max_gated_rel_err(ref, got, gate);
  if (err) *err = e;
  if (e <= tol) return "";
  std::ostringstream os;
  os << "max gated rel err " << e << " > " << tol;
  return os.str();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", " : "") + json_number(v[i]);
  return out + "]";
}

std::string json_array(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", " : "") + json_string(v[i]);
  return out + "]";
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i)
    out += (i ? ", " : "") + json_string(items_[i].first) + ": " +
           items_[i].second;
  return out + "}";
}

}  // namespace perfbench
