#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and with it the galactos
library) into .bench_build/ on first use, generates the workload's inputs
from --seed, runs a closed loop of checked solves for --seconds, and prints
the metrics. The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones and writes the span trace to
.bench_build/traces/<workload>-<seed>.json. Each run also writes a record
with the host, the workload parameters and the result to
.bench_build/results/. See perfbench/README.md for every metric.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import summary  # noqa: E402

BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
WORKLOADS = ("paper_lmax10", "dist_let_lowl", "fft_mesh", "survey_selfpairs")
# Every run must end within this many seconds (the first one also builds).
RUN_DEADLINE_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build(targets=("perfbench_runner",)):
    """Configures and builds the benchmark (a no-op when up to date);
    raises on failure. Configuring every time also retries one that failed."""
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, nproc())),
              "--target", *targets]]
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = logfile.read_text().splitlines()[-20:]
                raise RuntimeError("build failed: %s\n%s"
                                   % (" ".join(cmd), "\n".join(tail)))


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run(args, spec):
    start = time.monotonic()
    build()
    tag = "%s-%d" % (args.workload, args.seed)
    work = BUILD / "work" / tag
    work.mkdir(parents=True, exist_ok=True)
    raw_path = work / "raw.json"
    trace_path = BUILD / "traces" / (tag + ".json")
    trace_path.parent.mkdir(exist_ok=True)
    cmd = [str(RUNNER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--out", str(raw_path),
           "--trace-out", str(trace_path)]
    try:
        subprocess.run(cmd, check=True,
                       timeout=max(1.0, RUN_DEADLINE_S - (time.monotonic() - start)))
        raw = json.loads(raw_path.read_text())
    finally:
        for f in work.iterdir():
            f.unlink()
        work.rmdir()

    result = summary.summarize(raw, spec)
    problems = summary.validate_result(result, spec, bool(args.trace))
    if problems:
        raise RuntimeError("malformed result: " + "; ".join(problems))
    host = dict(raw["host"], git_commit=git_commit())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host, "params": raw["params"],
              "samples": {"solve_s": raw["untraced"]["solve_s"],
                          "traced_solve_s": raw["traced"]["solve_s"],
                          "setup_s": raw["setup_s"],
                          "solve_rss_mb": raw["solve_rss_mb"]},
              "process_peak_rss_mb": raw["process_peak_rss_mb"],
              "errors": raw["untraced"]["errors"] + raw["traced"]["errors"],
              "result": result}
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / ("%s-trace%d.json" % (tag, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n")

    print("host: " + json.dumps(host))
    print("workload %s seed %d: params %s" % (args.workload, args.seed,
                                               json.dumps(raw["params"])))
    timed = raw["traced" if args.trace else "untraced"]["solve_s"]
    if timed:
        print("solve_s: median %.6g over %d solves (min %.6g, max %.6g, "
              "IQR/median %.3g), closed loop, one caller"
              % (summary.median(timed), len(timed), min(timed), max(timed),
                 summary.quartile_spread(timed)))
    for err in record["errors"][:5]:
        print("failed solve: " + err)
    attempted, failed = result["attempted"], result["failed"]
    print("solves_failed_frac: %.6g (%d of %d)"
          % (failed / attempted, failed, attempted))
    if args.trace:
        spans = json.loads(trace_path.read_text())
        problems = summary.validate_trace(spans)
        if problems:
            raise RuntimeError("malformed trace: " + "; ".join(problems[:5]))
        names = sorted({s["name"] for s in spans["spans"]})
        print("span self time (s): " + ", ".join(
            "%s %.4g" % (n, summary.self_time(spans, n)) for n in names))
        print("trace: " + str(trace_path.relative_to(ROOT)))
    for name, m in result["metrics"].items():
        print("  %-34s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        run(args, spec)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("error: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
