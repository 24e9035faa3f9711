#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep|long_run|fsm_import|cli
                         [--seed N] [--seconds S] [--trace 0|1]
                         [--record-digests]

Run from anywhere inside a checkout of the repository: the script finds
`src/` and `fixtures/` next to its own directory and exits 2 without a
result when they are missing.  Each line before the last names a metric
with its value and unit; the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` (the default) times whole passes over the seeded inputs,
repeated until `--seconds` have passed, and reports the end-to-end
metrics.  `--trace 1` alternates untraced and traced passes, reports the
per-layer metrics from the traced ones, and writes the spans and a
summary under `bench/out/`.  `--record-digests` runs one pass on the
workload's default seed and rewrites its entry in `bench/digests.json`.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
WORKLOAD_NAMES = ("sweep", "long_run", "fsm_import", "cli")
SETUP_PROBES = 7        # set-up is timed in this many fresh processes
CLI_PROBES = 7          # interpreter and import probes in a traced run
MIN_PASSES = 3          # repeats of every input in one run


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py",
                                description="thimac benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure whole passes until this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="rewrite the committed digests for this workload")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


class Tally:
    """Operations folded in as they complete: their latencies in a flat
    array, everything else as sums."""

    def __init__(self):
        self.latency = array("d")   # seconds, one per operation
        self.attempted = 0
        self.failed = 0
        self.ticks = 0
        self.firings = 0
        self.enabled = 0
        self.fired_enabled = 0
        self.rss_kib = 0
        self.problems = []          # the first few, for the report

    def add(self, ops):
        for op in ops:
            self.latency.append(op.latency)
            self.attempted += 1
            self.ticks += op.ticks
            self.firings += op.firings
            self.enabled += op.enabled
            self.fired_enabled += op.fired_enabled
            self.rss_kib = max(self.rss_kib, op.rss_kib)
            if op.problems:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{op.key}: {op.problems[0]}")


def emit(metrics, tallies, notes=None):
    """Print each metric on its own line, then the JSON result."""
    notes = notes or {}
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    for name, (value, unit) in metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit:<6} "
              f"{notes.get(name, '')}".rstrip())
    for tally in tallies:
        for problem in tally.problems:
            print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def measure_setup(wl, name, seed) -> float:
    """Median wall time of SETUP_PROBES fresh processes that start the
    interpreter, import the package, parse the fixtures and generate the
    inputs, then exit."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    env = wl.child_env()
    times = []
    for _ in range(SETUP_PROBES):
        elapsed, code, _out, err, _rss = wl.run_child(argv, env)
        if code != 0:
            raise RuntimeError(f"set-up exited {code}: "
                               + err.decode("utf-8", "replace")[-2000:])
        times.append(elapsed)
    return statistics.median(times)


def expected_digests(workload, seed):
    entry = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return entry["digests"]


def run_passes(work, apis, expected, seconds):
    """Whole passes, cycling through `apis`, until `seconds` have passed
    and every api has run MIN_PASSES passes.  Returns a Tally and the
    wall time for each api, and the number of passes."""
    tallies = {api.traced: Tally() for api in apis}
    walls = {api.traced: 0.0 for api in apis}
    passes = 0
    deadline = perf_counter() + seconds
    while passes < MIN_PASSES or perf_counter() < deadline:
        for api in apis:
            t0 = perf_counter()
            ops = work.run_pass(api, expected)
            walls[api.traced] += perf_counter() - t0
            tallies[api.traced].add(ops)
        passes += 1
    return tallies, walls, passes


def end_to_end(wl, tracing, workload, seed, seconds, setup_s):
    api = tracing.api()
    work = workload(seed, api)
    tallies, walls, passes = run_passes(
        work, (api,), expected_digests(workload, seed), seconds)
    tally = tallies[False]
    lat = sorted(tally.latency)
    n = len(lat)
    busy = sum(lat)
    if workload.name == "cli":
        rss_kib = tally.rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (n / busy, "1/s"),
        "ticks_per_s": (tally.ticks / busy, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "ok_share": (1 - tally.failed / tally.attempted, "ratio"),
    }
    notes = {
        "ops_per_s": f"({n} ops in {passes} passes, {busy:.2f} s in "
                     f"operations, {walls[False]:.2f} s wall)",
        "op_p50_ms": f"(n={n})",
        "op_p90_ms": f"(n={n}, {n - math.ceil(0.9 * n)} beyond)",
        "setup_s": f"(median of {SETUP_PROBES} processes)",
        "ok_share": f"({tally.failed} of {tally.attempted} operations "
                    f"failed)",
    }
    emit(metrics, [tally], notes)


def traced(wl, tracing, workload, seed, seconds):
    tracer = tracing.Tracer()
    tapi = tracing.api(tracer)
    plain = tracing.api()
    work = workload(seed, tapi)
    first_pass_span = len(tracer)
    tallies, walls, passes = run_passes(
        work, (plain, tapi), expected_digests(workload, seed), seconds)
    pass_spans = (first_pass_span, len(tracer))
    env = wl.child_env()
    for name, code in (("cli.interpreter", "pass"),
                       ("cli.import", "import thimac.cli")):
        for _ in range(CLI_PROBES):
            with tapi.span(name):
                wl.run_child([sys.executable, "-c", code], env)
    metrics, summary = layer_metrics(tracing, tracer, tallies[True], passes,
                                     pass_spans)
    metrics["tail.op_p99_ms"] = (
        percentile(sorted(tallies[False].latency), 99) * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (walls[True] / walls[False], "ratio")
    summary["overhead"] = {"traced_s": walls[True], "untraced_s": walls[False],
                           "passes": passes}
    stem = f"{workload.name}-seed{seed}"
    tracer.write(wl.OUT / f"{stem}.spans.tsv.gz")
    summary["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}
    (wl.OUT / f"{stem}.summary.json").write_text(
        json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"{'layer':<10} {'calls/pass':>12} {'self ms/pass':>14} "
          f"{'share':>7}")
    for layer, row in summary["layers"].items():
        print(f"{layer:<10} {row['calls_per_pass']:>12.1f} "
              f"{row['self_ms_per_pass']:>14.3f} {row['share']:>7.3f}")
    print(f"spans and summary: bench/out/{stem}.spans.tsv.gz, "
          f"bench/out/{stem}.summary.json")
    emit(metrics, list(tallies.values()))


def layer_metrics(tracing, tracer, tally, passes, pass_spans):
    """Per-layer metrics and the summary table from a traced run; the
    layer table covers the spans in the `pass_spans` index range."""
    median_or_zero = tracing.median_or_zero

    by_name = tracer.by_name()
    firsts = tracer.first_calls()
    dur = tracer.durations()

    def med(name, scale, later_only=False):
        return median_or_zero([d for i, d in by_name.get(name, ())
                               if not (later_only and i in firsts)]) * scale

    first = [dur[i] for i in firsts]
    records = {}
    for name in ("engine.format_trace_records", "engine.parse_trace_records"):
        for i, d in by_name.get(name, ()):
            # one sample per operation span, or per call outside any
            key = tracer.parent[i] if tracer.parent[i] >= 0 else -1 - i
            records[key] = records.get(key, 0.0) + d
    parse_s = sum(d for _i, d in by_name.get("dsl.parse", ()))
    interp = med("cli.interpreter", 1e3)
    commands = [d for name, spans in by_name.items()
                if name.startswith("cli.")
                and name not in ("cli.interpreter", "cli.import")
                for _i, d in spans]

    m = {
        "engine.first_call_ms": (median_or_zero(first) * 1e3, "ms"),
        "engine.first_call_max_ms": (max(first, default=0.0) * 1e3, "ms"),
        "engine.step_us": (med("engine.step", 1e6, True), "us"),
        "engine.step_late_over_early": (
            tracing.late_over_early(tracer.step_runs(firsts)), "ratio"),
        "engine.enabled_events_us": (
            med("engine.enabled_events", 1e6, True), "us"),
        "engine.records_ms": (median_or_zero(list(records.values())) * 1e3,
                              "ms"),
        "engine.ticks": (tally.ticks / passes, "count"),
        "engine.firings": (tally.firings / passes, "count"),
        "engine.fresh_bundles": (len(tracer.fresh_marks) / passes, "count"),
        "engine.fired_over_enabled": (
            tally.fired_enabled / tally.enabled if tally.enabled else 0.0,
            "ratio"),
        "behavior.project_us": (med("behavior.project_config", 1e6), "us"),
        "behavior.conformance_us": (
            med("behavior.check_conformance", 1e6), "us"),
        "dsl.parse_ms": (med("dsl.parse", 1e3), "ms"),
        "dsl.parse_chars_per_s": (
            tracer.counts.get("dsl.parse_chars", 0) / parse_s
            if parse_s else 0.0, "1/s"),
        "dsl.serialize_ms": (med("dsl.serialize", 1e3), "ms"),
        "model.validate_ms": (med("model.validate_model", 1e3), "ms"),
        "model.canonicalize_ms": (med("model.canonicalize", 1e3), "ms"),
        "fsmbridge.parse_fsm_ms": (med("fsmbridge.parse_fsm", 1e3), "ms"),
        "fsmbridge.fsm_to_tm_ms": (med("fsmbridge.fsm_to_tm", 1e3), "ms"),
        "dot.export_ms": (med("dot.export_dot", 1e3), "ms"),
        "cli.command_ms": (median_or_zero(commands) * 1e3, "ms"),
        "cli.interpreter_ms": (interp, "ms"),
        "cli.import_ms": (med("cli.import", 1e3) - interp if interp else 0.0,
                          "ms"),
    }

    own = tracer.self_times()
    spans = range(*pass_spans)
    traced_wall = sum(dur[i] for i in spans if tracer.parent[i] < 0)
    layers = {layer: {"calls": 0, "self_s": 0.0}
              for layer in tracing.LAYERS + ("bench",)}
    for i in spans:
        layer = tracer.names[tracer.name[i]].split(".", 1)[0]
        row = layers[layer]
        row["calls"] += 1
        row["self_s"] += own[i]
    table = {}
    for layer, row in layers.items():
        table[layer] = {
            "calls_per_pass": row["calls"] / passes,
            "self_ms_per_pass": row["self_s"] / passes * 1e3,
            "share": row["self_s"] / traced_wall if traced_wall else 0.0,
        }
        m[f"{layer}.self_ms"] = (row["self_s"] / passes * 1e3, "ms")
        m[f"{layer}.calls"] = (row["calls"] / passes, "count")
    m["trace.spans"] = (float(len(tracer)), "count")
    return m, {"layers": table, "passes": passes,
               "first_calls": len(firsts)}


def record_digests(workload, seed, wl, tracing):
    if seed != workload.default_seed:
        raise SystemExit("digests are recorded on the default seed only")
    ops = workload(seed, tracing.api()).run_pass(tracing.api(), None)
    bad = [p for op in ops for p in op.problems]
    if bad:
        raise SystemExit("refusing to record digests of a failing pass: "
                         + bad[0])
    if isinstance(ops[0].key, str):
        digests = {op.key: op.digest for op in ops}
        seed = None
    else:
        digests = [op.digest for op in ops if op.digest]
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    table[workload.name] = {"seed": seed, "digests": digests}
    DIGESTS.write_text(json.dumps(table, indent=0) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests for {workload.name}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for need in (ROOT / "src" / "thimac" / "__init__.py",
                 ROOT / "fixtures" / "assembly_line.tm"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a "
                  f"checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.setup_only:
        workload(seed, tracing.api())
        return 0
    wl.OUT.mkdir(exist_ok=True)
    if args.record_digests:
        record_digests(workload, seed, wl, tracing)
        return 0
    if args.trace:
        traced(wl, tracing, workload, seed, args.seconds)
    else:
        setup_s = measure_setup(wl, workload.name, seed)
        end_to_end(wl, tracing, workload, seed, args.seconds, setup_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
