"""Turns the runner's raw samples into the benchmark's result line.

The C++ runner (src/main.cpp) writes one list of samples per quantity. This
module takes their medians, derives the end-to-end metrics, fills in the
per-layer metrics, counts failed solves, and validates result and trace
shapes. It has no dependencies beyond the standard library, so its tests run
without a build.
"""

import statistics

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")
SPAN_KEYS = ("id", "parent", "solve", "name", "start_s", "end_s")


def median(values):
    """Median of a non-empty list; 0.0 for an empty one."""
    return float(statistics.median(values)) if values else 0.0


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def counts(raw):
    """(attempted, failed) over every solve of the run, warm-up included."""
    loops = (raw["untraced"], raw["traced"])
    return (sum(l["attempted"] for l in loops), sum(l["failed"] for l in loops))


def end_to_end(raw):
    """End-to-end metric values from an untraced run."""
    solve_s = median(raw["untraced"]["solve_s"])
    gflops = raw["flops_per_solve"] / solve_s / 1e9 if solve_s > 0 else 0.0
    return {
        "solve_s": solve_s,
        "sustained_gflops": gflops,
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": median(raw["solve_rss_mb"]),
    }


def per_layer(raw, names):
    """Per-layer metric values from a traced run.

    A layer the workload does not exercise did no work: its metric is 0.
    """
    attempted, failed = counts(raw)
    values = {name: median(samples) for name, samples in raw["layers"].items()}
    values["solves_failed_frac"] = failed / attempted if attempted else 1.0
    values["zeta_rel_err"] = median(raw["zeta_rel_err"])
    return {name: values.get(name, 0.0) for name in names}


def summarize(raw, spec):
    """The result object: correct, attempted, failed and metrics by name.

    `spec` is the parsed BENCHMARK.json. The run is correct when at least one
    solve was attempted, none failed, and timed samples exist.
    """
    attempted, failed = counts(raw)
    trace = bool(raw["trace"])
    timed = raw["traced" if trace else "untraced"]["solve_s"]
    declared = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in declared]
    values = per_layer(raw, names) if trace else end_to_end(raw)
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    return {
        "correct": attempted > 0 and failed == 0 and bool(timed),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def validate_result(result, spec, trace):
    """Problems with a result object, as a list of strings (empty if fine)."""
    problems = []
    if tuple(result) != RESULT_KEYS:
        problems.append("keys %s != %s" % (list(result), list(RESULT_KEYS)))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(want):
        problems.append("metric names %s != %s"
                        % (sorted(result["metrics"]), sorted(want)))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"}:
            problems.append("%s: keys %s" % (name, sorted(m)))
        elif not isinstance(m["value"], (int, float)) or m["value"] != m["value"]:
            problems.append("%s: value %r is not a number" % (name, m["value"]))
        elif m["unit"] != want.get(name):
            problems.append("%s: unit %r != %r" % (name, m["unit"], want.get(name)))
    return problems


def validate_trace(trace):
    """Problems with a span trace ({"spans": [...]}), as a list of strings.

    Every span has the SPAN_KEYS, ends no earlier than it starts, and its
    parent (if any) is an earlier span that encloses it.
    """
    problems = []
    spans = trace.get("spans")
    if not isinstance(spans, list) or not spans:
        return ["no spans"]
    for i, s in enumerate(spans):
        if sorted(s) != sorted(SPAN_KEYS):
            problems.append("span %d: keys %s" % (i, sorted(s)))
    if problems:
        return problems
    for i, s in enumerate(spans):
        if s["id"] != i:
            problems.append("span %d: id %r" % (i, s["id"]))
        if s["end_s"] < s["start_s"]:
            problems.append("span %d (%s): ends before it starts" % (i, s["name"]))
        p = s["parent"]
        if p == -1:
            continue
        if not 0 <= p < i:
            problems.append("span %d: parent %r is not an earlier span" % (i, p))
            continue
        parent = spans[p]
        if not (parent["start_s"] <= s["start_s"] and s["end_s"] <= parent["end_s"]):
            problems.append("span %d (%s): outside parent %d" % (i, s["name"], p))
        if parent["solve"] != -1 and parent["solve"] != s["solve"]:
            problems.append("span %d: solve differs from its parent's" % i)
    return problems


def self_time(trace, name):
    """Summed self time of spans called `name`: duration minus the part of
    it that child spans cover (children of one span do not overlap)."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] != -1:
            child[s["parent"]] += s["end_s"] - s["start_s"]
    return sum(s["end_s"] - s["start_s"] - child[s["id"]]
               for s in spans if s["name"] == name)
