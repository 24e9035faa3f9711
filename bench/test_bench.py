"""Checks on the benchmark itself: clean operations pass, and an altered
trace or output counts as a failed operation.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from thimac import FiredEvent, TraceEntry  # noqa: E402


def expected(workload):
    return run.expected_digests(workload, workload.default_seed)


def altered(api, **funcs):
    """A copy of `api` with some functions replaced."""
    fields = dict(vars(api))
    fields.update(funcs)
    return type(api)(**fields)


def drop_last_firing(step, at_tick):
    def bad_step(bundle, cfg):
        cfg, entry = step(bundle, cfg)
        if entry.tick == at_tick and entry.fired:
            entry = TraceEntry(entry.tick, entry.fired[:-1])
        return cfg, entry
    return bad_step


def test_digests_cover_every_default_seed():
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    assert set(table) == set(wl.WORKLOADS)
    for name, workload in wl.WORKLOADS.items():
        assert table[name]["seed"] in (None, workload.default_seed)
    assert expected(wl.Sweep) is not None
    assert run.expected_digests(wl.Sweep, wl.Sweep.heldout_seed) is None


def test_sweep_clean_ops_pass():
    api = tracing.api()
    work = wl.Sweep(wl.Sweep.default_seed, api)
    ops = [work.op(api, i, expected(wl.Sweep)) for i in range(20)]
    assert [op.problems for op in ops] == [[]] * 20
    assert sum(op.ticks for op in ops) > 0


def test_sweep_altered_trace_fails():
    api = tracing.api()
    work = wl.Sweep(wl.Sweep.default_seed, api)
    bad = altered(api, step=drop_last_firing(api.step, 5))
    op = work.op(bad, 1, expected(wl.Sweep))
    assert op.problems
    assert any("digest" in p for p in op.problems)


def test_sweep_invariants_hold_without_digests():
    """On a held-out seed only the invariant checks apply, and a trace
    that breaks the chronology still fails."""
    api = tracing.api()
    work = wl.Sweep(wl.Sweep.heldout_seed, api)
    assert not work.op(api, 3, None).problems

    def swapped(bundle, cfg):
        cfg, entry = api.step(bundle, cfg)
        if entry.tick == 3:
            entry = TraceEntry(3, tuple(
                replace(f, event="E6") if f.event == "E5" else f
                for f in entry.fired))
        return cfg, entry

    ops = [work.op(altered(api, step=swapped), i, None) for i in range(10)]
    assert any(op.problems for op in ops)


def test_long_run_altered_block_fails():
    api = tracing.api()
    work = wl.LongRun(wl.LongRun.default_seed, api)
    bad = altered(api, step=drop_last_firing(api.step, 150))
    ops = work.run_pass(bad, expected(wl.LongRun))
    failed = [op.key for op in ops if op.problems]
    assert 100 in failed and 199 in failed     # the block holding tick 150
    assert 0 not in failed and 200 not in failed


def test_fsm_import_altered_text_fails():
    api = tracing.api()
    work = wl.FsmImport(wl.FsmImport.default_seed, api)
    assert not work.op(api, 0, expected(wl.FsmImport)).problems
    bad = altered(api, export_dot=lambda b, layer: "digraph x {}\n")
    assert work.op(bad, 0, expected(wl.FsmImport)).problems

    def extra_firing(bundle, max_ticks=None):
        cfg, trace = api.run(bundle, max_ticks)
        trace.append(TraceEntry(len(trace) + 1,
                                (FiredEvent(bundle.events[0].id, None),)))
        return cfg, trace

    op = work.op(altered(api, run=extra_firing), 0, None)
    assert any("walk" in p or "oracle" in p for p in op.problems)


def test_walk_oracle_settles_two_ticks():
    case = wl.FsmCase("m", ("A", "B"), "A",
                      (("A", "B", "Go", None), ("B", "A", "Go", None),
                       ("A", "A", "Go", None)),
                      "", ((2, "Go"), (3, "Go"), (4, "Go"), (9, "Stop")))
    assert wl.walk_oracle(case) == ("A", [(2, 0), (4, 1)])


def test_cli_altered_output_fails(monkeypatch):
    api = tracing.api()
    work = wl.Cli(wl.Cli.default_seed, api)
    want = expected(wl.Cli)
    assert not work.op(api, "enumerate", want).problems
    monkeypatch.setitem(wl.COMMANDS, "enumerate",
                        ("enumerate", "B1=0..3", "M1=idle,busy"))
    assert work.op(api, "enumerate", want).problems


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "sweep", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
