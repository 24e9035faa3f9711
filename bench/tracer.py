"""In-memory spans around the benchmark's calls into the thimac layers.

A span records its name, start, end, parent span and operation id.
Spans live in flat arrays while the run lasts and are written out once,
when it ends.  `api()` hands out the public functions the workloads
call: bare when tracing is off, so the untraced run pays nothing, and
wrapped in spans when it is on.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from time import perf_counter
from types import SimpleNamespace

from thimac import behavior, dot, dsl, engine, fsmbridge, model

# Every public function a workload calls, under its span name.
CALLS = {
    "model.validate_model": model.validate_model,
    "model.canonicalize": model.canonicalize,
    "dsl.parse": dsl.parse,
    "dsl.serialize": dsl.serialize,
    "engine.init": engine.init,
    "engine.quiescent": engine.quiescent,
    "engine.enabled_events": engine.enabled_events,
    "engine.step": engine.step,
    "engine.run": engine.run,
    "engine.format_trace_records": engine.format_trace_records,
    "engine.parse_trace_records": engine.parse_trace_records,
    "behavior.behavior_graph": behavior.behavior_graph,
    "behavior.enumerate_states": behavior.enumerate_states,
    "behavior.project_config": behavior.project_config,
    "behavior.check_conformance": behavior.check_conformance,
    "fsmbridge.parse_fsm": fsmbridge.parse_fsm,
    "fsmbridge.fsm_to_tm": fsmbridge.fsm_to_tm,
    "dot.export_dot": dot.export_dot,
}

LAYERS = ("engine", "behavior", "dsl", "model", "fsmbridge", "dot", "cli")

# The first of these on a fresh bundle builds the engine's per-bundle
# analysis; `engine.first_call_ms` is that call.
FIRST_CALLS = frozenset({"engine.enabled_events", "engine.step", "engine.run"})


def _noop(*_args):
    return None


def api(tracer=None) -> SimpleNamespace:
    """The callable set for a run.  Besides the CALLS, `fresh()` marks a
    new bundle, `span(name, op)` opens a span around harness code,
    `count(name, n)` adds to a counter and `traced` says which kind of
    run this is."""
    if tracer is None:
        funcs = {name.split(".", 1)[1]: fn for name, fn in CALLS.items()}
        return SimpleNamespace(**funcs, fresh=_noop, span=_NullSpan,
                               count=_noop, traced=False)
    funcs = {name.split(".", 1)[1]: tracer.wrap(name, fn)
             for name, fn in CALLS.items()}
    return SimpleNamespace(**funcs, fresh=tracer.fresh, span=tracer.span,
                           count=tracer.count, traced=True)


class _NullSpan:
    def __init__(self, _name, _op=False):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


class Tracer:
    """Append-only span store; parents follow the call nesting."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack = [-1]
        self.current_op = -1
        self.next_op = 0
        self.fresh_marks = []       # first span index of each fresh bundle
        self.counts = {}

    def _open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float):
        self.stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, op: bool = False):
        """A span around harness code; `op` starts a new operation id."""
        return _Span(self, name, op)

    def count(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + n

    def fresh(self):
        self.fresh_marks.append(len(self.start))

    def __len__(self):
        return len(self.start)

    def write(self, path):
        """One tab-separated line per span, times in microseconds."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id\tname\tstart_us\tend_us\tparent\top\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t"
                          f"{(self.start[i] - t0) * 1e6:.1f}\t"
                          f"{(self.end[i] - t0) * 1e6:.1f}\t"
                          f"{self.parent[i]}\t{self.op[i]}\n")

    # -- analysis ----------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self):
        """Each span's duration minus the time its children cover."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def by_name(self):
        out = {}
        dur = self.durations()
        for i, nid in enumerate(self.name):
            out.setdefault(self.names[nid], []).append((i, dur[i]))
        return out

    def first_calls(self):
        """Span indices of the first engine call after each fresh bundle."""
        firsts = set()
        marks = self.fresh_marks + [len(self.start)]
        first_ids = {self.name_ids[n] for n in FIRST_CALLS
                     if n in self.name_ids}
        for lo, hi in zip(marks, marks[1:]):
            for i in range(lo, hi):
                if self.name[i] in first_ids:
                    firsts.add(i)
                    break
        return firsts

    def step_runs(self, firsts):
        """Step durations grouped per fresh bundle, first call left out."""
        sid = self.name_ids.get("engine.step")
        runs = []
        marks = self.fresh_marks + [len(self.start)]
        for lo, hi in zip(marks, marks[1:]):
            runs.append([self.end[i] - self.start[i] for i in range(lo, hi)
                         if self.name[i] == sid and i not in firsts])
        return [r for r in runs if r]


class _Span:
    __slots__ = ("tracer", "name", "op", "idx", "t0", "saved_op")

    def __init__(self, tracer, name, op):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self):
        tr = self.tracer
        self.saved_op = tr.current_op
        if self.op:
            tr.current_op = tr.next_op
            tr.next_op += 1
        self.idx = tr._open(self.name)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *_exc):
        tr = self.tracer
        tr._close(self.idx, self.t0, perf_counter())
        tr.current_op = self.saved_op
        return False


def late_over_early(runs):
    """Mean step time in the last tenth of each run over the first tenth,
    pooled over runs long enough to have both."""
    early = late = 0.0
    for r in runs:
        k = len(r) // 10
        if k < 1:
            continue
        early += sum(r[:k])
        late += sum(r[-k:])
    return late / early if early else 0.0


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
