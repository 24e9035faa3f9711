"""The four benchmark workloads: inputs from a seed, one pass of
operations, and the checks that decide whether an operation failed.

Every workload is a closed loop with one caller: the next operation
starts when the previous one has returned.  A pass runs the whole
seeded input set once; `run.py` repeats passes until its time is up.
Each operation returns an `Op`; an operation with any problem counts
as failed.

Checks that hold for any seed run on every operation.  Digests of
every trace and generated text are committed for each workload's
default seed (`digests.json`) and are checked only on that seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import string
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from thimac import (
    ActionKind,
    ComponentStateDecl,
    Injection,
    SubjectMode,
    ThimacKind,
    region_paths,
    subject_mode,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
ASSEMBLY = FIXTURES / "assembly_line.tm"
DATA = Path(__file__).resolve().parent / "data"
# traces, summaries and child output
OUT = Path(__file__).resolve().parent / "out"

# The declared 96-state product of criterion 2 and the projection onto it.
DECLS = (
    ComponentStateDecl("B1", (0, 1, 2, 3)),
    ComponentStateDecl("M1", ("idle", "busy", "blocked")),
    ComponentStateDecl("B2", (0, 1, 2, 3)),
    ComponentStateDecl("M2", ("idle", "busy")),
)
PROJECTION = ("B1.count", "M1", "B2.count", "M2")


def digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


@dataclass
class Op:
    """One completed operation and what it did."""

    key: object                     # which input: the same in every pass
    latency: float = 0.0            # seconds
    ticks: int = 0
    firings: int = 0
    enabled: int = 0                # instances enabled_events reported
    fired_enabled: int = 0          # of those, how many fired
    problems: list = field(default_factory=list)
    digest: str = ""
    rss_kib: int = 0                # cli: the child's peak resident memory


def _check_digest(op: Op, expected, i: int):
    if expected is not None and op.digest != expected[i]:
        op.problems.append(f"digest {op.digest} != committed {expected[i]}")


class _AssemblyChecks:
    """Criterion-4 invariants over the assembly line, for any schedule."""

    def __init__(self, api):
        text = ASSEMBLY.read_text(encoding="utf-8")
        api.count("dsl.parse_chars", len(text))
        result = api.parse(text, file=str(ASSEMBLY))
        if result.bundle is None:
            raise RuntimeError("fixture does not parse: "
                               + "; ".join(map(str, result.diagnostics)))
        self.base = result.bundle
        if api.traced:
            api.validate_model(self.base)
        self.graph = api.behavior_graph(self.base)
        self.declared = frozenset(api.enumerate_states(DECLS)[1])
        model = self.base.model
        tmap = model.thimac_map()
        self.ranges = {t.id: (t.lo, t.hi) for t in model.thimacs
                       if t.kind == ThimacKind.COUNTER}
        # machines that flow events drop a token into
        self.targets = {}
        for event in self.base.events:
            if subject_mode(model, event) != SubjectMode.FLOW:
                continue
            last = region_paths(model, event)[0][-1]
            if (last.action == ActionKind.RECEIVE
                    and tmap[last.thimac].kind == ThimacKind.MACHINE):
                self.targets[event.id] = last.thimac

    def tick(self, pre, cfg, entry, problems):
        for tid, (lo, hi) in self.ranges.items():
            if not lo <= cfg.counters[tid] <= hi:
                problems.append(f"tick {cfg.tick}: {tid} = "
                                f"{cfg.counters[tid]} outside {lo}..{hi}")
        for f in entry.fired:
            m = self.targets.get(f.event)
            if m is not None and pre.flags.get(f"{m}.block"):
                problems.append(f"tick {cfg.tick}: {f.event} delivered "
                                f"into blocked {m}")

    def enabled(self, enabled, entry, op):
        fired = {(f.event, f.subject) for f in entry.fired
                 if not f.bookkeeping}
        op.enabled += len(enabled)
        op.fired_enabled += len(fired & enabled)
        if not fired <= enabled:
            stray = sorted(fired - enabled, key=str)
            op.problems.append(f"tick {entry.tick}: fired {stray} while "
                               f"not enabled")

    def state(self, state, tick, problems):
        if state not in self.declared:
            problems.append(f"tick {tick}: state {state} outside the "
                            f"declared product")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class Sweep:
    """Criterion-4/5 loop over seeded arrival schedules: 0-25 tokens in
    ticks 1-50, at most 200 ticks each.  One operation is one schedule
    on a fresh bundle."""

    name = "sweep"
    default_seed = 40
    heldout_seed = 4041
    SCHEDULES = 250
    MAX_TICKS = 200

    def __init__(self, seed: int, api):
        self.checks = _AssemblyChecks(api)
        rng = random.Random(seed)
        self.schedules = []
        for i in range(self.SCHEDULES):
            k = rng.randint(0, 25)
            ticks = sorted(rng.sample(range(1, 51), k))
            self.schedules.append(tuple(Injection(t, "env", f"R{i}x{j}")
                                        for j, t in enumerate(ticks)))

    def run_pass(self, api, expected):
        return [self.op(api, i, expected) for i in range(len(self.schedules))]

    def op(self, api, i, expected) -> Op:
        checks = self.checks
        sched = self.schedules[i]
        with api.span("bench.op", True):
            t0 = perf_counter()
            op = Op(i)
            problems = op.problems
            try:
                b = dataclasses.replace(checks.base, schedule=sched)
                api.fresh()
                cfg = api.init(b)
                checks.state(api.project_config(b, PROJECTION, cfg), 0,
                             problems)
                trace = []
                while (not api.quiescent(b, cfg)
                       and cfg.tick < self.MAX_TICKS):
                    pre = cfg
                    enabled = set(api.enabled_events(b, pre))
                    cfg, entry = api.step(b, pre)
                    state = api.project_config(b, PROJECTION, cfg)
                    checks.tick(pre, cfg, entry, problems)
                    checks.enabled(enabled, entry, op)
                    checks.state(state, cfg.tick, problems)
                    trace.append(entry)
                    op.firings += len(entry.fired)
                op.ticks = len(trace)
                if len(cfg.tokens) != len(sched):
                    problems.append(f"{len(cfg.tokens)} tokens for "
                                    f"{len(sched)} injections")
                for v in api.check_conformance(trace, checks.graph):
                    problems.append(f"chronology: {v}")
                op.digest = digest(api.format_trace_records(trace))
            except Exception as err:    # an operation that raises fails
                problems.append(f"{type(err).__name__}: {err}")
            op.latency = perf_counter() - t0
        _check_digest(op, expected, i)
        return op


# ---------------------------------------------------------------------------
# long_run
# ---------------------------------------------------------------------------


class LongRun:
    """One run of the assembly line with a token injected every 6 ticks,
    3601 ticks in all.  One operation is one `step`.  The seed names the
    tokens."""

    name = "long_run"
    default_seed = 6
    heldout_seed = 6061
    TOKENS = 600
    GAP = 6
    STRIDE = 10     # enabled-set and state-space checks every STRIDE ticks
    BLOCK = 100     # ticks per committed trace digest

    def __init__(self, seed: int, api):
        self.checks = _AssemblyChecks(api)
        rng = random.Random(seed)
        alphabet = string.ascii_letters + string.digits
        labels = set()
        while len(labels) < self.TOKENS:
            labels.add("".join(rng.choices(alphabet, k=8)))
        labels = sorted(labels)
        rng.shuffle(labels)
        self.schedule = tuple(Injection(1 + self.GAP * k, "env", label)
                              for k, label in enumerate(labels))
        self.max_ticks = self.GAP * self.TOKENS + 200

    def run_pass(self, api, expected):
        checks = self.checks
        b = dataclasses.replace(checks.base, schedule=self.schedule)
        api.fresh()
        cfg = api.init(b)
        ops = []
        trace = []
        while not api.quiescent(b, cfg) and cfg.tick < self.max_ticks:
            pre = cfg
            with api.span("bench.op", True):
                problems = []
                op = Op(pre.tick, problems=problems)
                sampled = pre.tick % self.STRIDE == 0
                try:
                    if sampled:
                        enabled = set(api.enabled_events(b, pre))
                    t0 = perf_counter()
                    cfg, entry = api.step(b, pre)
                    op.latency = perf_counter() - t0
                except Exception as err:
                    problems.append(f"{type(err).__name__}: {err}")
                    ops.append(op)
                    break
                op.ticks = 1
                op.firings = len(entry.fired)
                checks.tick(pre, cfg, entry, problems)
                if sampled:
                    checks.enabled(enabled, entry, op)
                    checks.state(api.project_config(b, PROJECTION, cfg),
                                 cfg.tick, problems)
                ops.append(op)
                trace.append(entry)
        if not ops:
            return [Op(0, problems=["no step ran"])]
        last = ops[-1]
        exited = sum(1 for t in cfg.tokens.values() if not t.alive)
        if len(cfg.tokens) != len(self.schedule) or exited != len(cfg.tokens):
            last.problems.append(f"{len(cfg.tokens)} tokens, {exited} exited, "
                                 f"for {len(self.schedule)} injections")
        for v in api.check_conformance(trace, checks.graph):
            ops[v.tick - 1].problems.append(f"chronology: {v}")
        for k in range(0, len(trace), self.BLOCK):
            block = ops[k:k + self.BLOCK]
            block[0].digest = digest(
                api.format_trace_records(trace[k:k + self.BLOCK]))
            if expected is not None:
                j = k // self.BLOCK
                want = expected[j] if j < len(expected) else None
                if block[0].digest != want:
                    for op in block:
                        op.problems.append(f"ticks {k + 1}..{k + len(block)}: "
                                           f"digest {block[0].digest} != "
                                           f"committed {want}")
        blocks = -(-len(trace) // self.BLOCK)
        if expected is not None and len(expected) != blocks:
            last.problems.append(f"{blocks} blocks of trace, committed "
                                 f"{len(expected)}")
        return ops


# ---------------------------------------------------------------------------
# fsm_import
# ---------------------------------------------------------------------------

_LABELS = ("Go", "Stop", "Open", "Close", "Push", "Pull", "Lock", "Toggle",
           "Wait", "receive")
_ACTION_NAMES = frozenset(a.value for a in ActionKind)


@dataclass(frozen=True)
class FsmCase:
    """A generated state machine, its text, and a stimulus walk."""

    name: str
    states: tuple
    initial: str
    transitions: tuple              # (src, dst, label, guard or None)
    text: str
    stimuli: tuple                  # (tick, label), ticks distinct


def _stim_id(label: str) -> str:
    # the importer's documented rule: ids ending in an action get "_"
    return f"stim.{label}" + ("_" if label in _ACTION_NAMES else "")


def walk_oracle(case: FsmCase):
    """Generalised criterion-3 timing oracle.  A stimulus fires the first
    declared transition for (current state, label) when the machine has
    settled, two ticks after its previous swing (tick 2 at the start);
    otherwise it drains away.  Guard flags start true and nothing
    clears them.  Returns (final state, [(tick, transition index)])."""
    table = {}
    for k, (src, _dst, label, _guard) in enumerate(case.transitions):
        table.setdefault((src, label), k)
    current, settled, fired = case.initial, 2, []
    for tick, label in case.stimuli:
        if tick < settled:
            continue
        k = table.get((current, label))
        if k is None:
            continue
        fired.append((tick, k))
        current, settled = case.transitions[k][1], tick + 2
    return current, fired


def make_fsm(rng: random.Random, index: int, size: int) -> FsmCase:
    """A ring of `size` states plus size/2 random extra transitions over
    five labels drawn from _LABELS; each transition is guarded by one of
    two flags with probability 0.2."""
    states = tuple(f"S{j}" for j in range(size))
    labels = rng.sample(_LABELS, 5)
    guards = ["g0", "g1"]

    def transition(src, dst):
        guard = rng.choice(guards) if rng.random() < 0.2 else None
        return (src, dst, rng.choice(labels), guard)

    transitions = [transition(states[j], states[(j + 1) % size])
                   for j in range(size)]
    for _ in range(size // 2):
        transitions.append(transition(rng.choice(states), rng.choice(states)))
    rng.shuffle(transitions)
    initial = rng.choice(states)
    name = f"m{index}"
    lines = [f"# generated machine {index}", f"fsm {name}", ""]
    lines += [f"state {s}" for s in states]
    lines += ["", f"initial {initial}", ""]
    for src, dst, label, guard in transitions:
        tail = f" when {guard}" if guard else ""
        lines.append(f"trans {src} -> {dst} on {label}{tail}")
    used = sorted({t[2] for t in transitions})
    k = rng.randint(0, 20)
    ticks = sorted(rng.sample(range(2, 60), k))
    stimuli = tuple((t, rng.choice(used)) for t in ticks)
    return FsmCase(name, states, initial, tuple(transitions),
                   "\n".join(lines) + "\n", stimuli)


class FsmImport:
    """Seeded state machines through the whole import pipeline.  The
    sizes are a fixed log-uniform ladder from MIN_STATES to MAX_STATES,
    so every seed gets the same sizes; the seed draws everything else."""

    name = "fsm_import"
    default_seed = 30
    heldout_seed = 3031
    COUNT = 100
    MIN_STATES = 3
    MAX_STATES = 100

    def __init__(self, seed: int, api):
        rng = random.Random(seed)
        lo, hi = math.log(self.MIN_STATES), math.log(self.MAX_STATES)
        sizes = [round(math.exp(lo + j / (self.COUNT - 1) * (hi - lo)))
                 for j in range(self.COUNT)]
        rng.shuffle(sizes)
        self.cases = [make_fsm(rng, j, n) for j, n in enumerate(sizes)]

    def run_pass(self, api, expected):
        return [self.op(api, i, expected) for i in range(len(self.cases))]

    def op(self, api, i, expected) -> Op:
        case = self.cases[i]
        with api.span("bench.op", True):
            t0 = perf_counter()
            op = Op(i)
            try:
                self._pipeline(api, case, op)
            except Exception as err:
                op.problems.append(f"{type(err).__name__}: {err}")
            op.latency = perf_counter() - t0
        _check_digest(op, expected, i)
        return op

    def _pipeline(self, api, case: FsmCase, op: Op):
        problems = op.problems
        parsed = api.parse_fsm(case.text, file=f"{case.name}.fsm")
        if parsed.spec is None:
            problems.append("fsm does not parse: "
                            + "; ".join(map(str, parsed.diagnostics[:2])))
            return
        bundle = api.fsm_to_tm(parsed.spec)
        text = api.serialize(bundle)
        api.count("dsl.parse_chars", len(text))
        result = api.parse(text, file=f"{case.name}.tm")
        model = result.bundle
        if model is None:
            problems.append("generated model does not parse: "
                            + "; ".join(map(str, result.diagnostics[:2])))
            return
        if api.traced:
            # dsl.parse validates internally; this call times it alone
            api.validate_model(model)
        if model != api.canonicalize(bundle):
            problems.append("reparse is not the canonical bundle")
        if api.serialize(model) != text:
            problems.append("second serialization differs")
        dot_text = api.export_dot(model, "events")

        extra = tuple(Injection(tick, _stim_id(label), f"s{j}")
                      for j, (tick, label) in enumerate(case.stimuli))
        walk = dataclasses.replace(model, schedule=model.schedule + extra)
        last = case.stimuli[-1][0] if case.stimuli else 2
        api.fresh()
        cfg, trace = api.run(walk, max_ticks=last + 4)
        op.ticks = len(trace)
        op.firings = sum(len(e.fired) for e in trace)

        records = api.format_trace_records(trace)
        back = api.parse_trace_records(records)
        if back != [e for e in trace if e.fired]:
            problems.append("trace records do not read back")
        for v in api.check_conformance(back, api.behavior_graph(model)):
            problems.append(f"chronology: {v}")

        n = len(case.states)
        transition_of = {e.id: k for k, e in enumerate(bundle.events[n:])}
        fired = [(e.tick, transition_of[f.event]) for e in trace
                 for f in e.fired if f.event in transition_of]
        home = cfg.tokens[case.name].thimac
        state = next((s for s in case.states if f"st.{s}" == home), None)
        want = walk_oracle(case)
        if (state, fired) != want:
            problems.append(f"walk gave {state} via {fired}, oracle "
                            f"{want[0]} via {want[1]}")
        op.digest = digest(text, dot_text, records)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

TRACE_INPUT = DATA / "assembly_line.trace.tsv"

COMMANDS = {
    "run": ("run", "fixtures/assembly_line.tm", "--displayed"),
    "validate": ("validate", "fixtures/phone_line.tm"),
    "enumerate": ("enumerate", "B1=0..3", "M1=idle,busy,blocked",
                  "B2=0..3", "M2=idle,busy"),
    "conform": ("conform", "fixtures/assembly_line.tm",
                str(TRACE_INPUT.relative_to(ROOT))),
    "import-fsm": ("import-fsm", "fixtures/door.fsm"),
    "export-dot": ("export-dot", "fixtures/assembly_line.tm",
                   "--layer", "events"),
    "coverage": ("coverage", "fixtures/door.tm"),
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


CHILD_TIMEOUT = 60.0


def run_child(argv, env):
    """Run one child to completion with its output in files under OUT;
    returns (seconds, exit code, stdout, stderr, peak RSS in KiB).  A
    child still running after CHILD_TIMEOUT is killed."""
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return elapsed, proc.returncode, out.read(), err.read(), \
            usage.ru_maxrss


class Cli:
    """The documented `tm` commands on the fixtures, each a fresh
    `python -m thimac.cli` process.  The seed orders the commands within
    each pass; the golden output is the same for every seed."""

    name = "cli"
    default_seed = 7
    heldout_seed = 7071

    def __init__(self, seed: int, api):
        self.rng = random.Random(seed)
        self.env = child_env()
        for name in ("assembly_line.tm", "phone_line.tm", "door.tm"):
            text = (FIXTURES / name).read_text(encoding="utf-8")
            api.count("dsl.parse_chars", len(text))
            result = api.parse(text, file=name)
            if result.bundle is None:
                raise RuntimeError(f"fixture {name} does not parse")
            if api.traced:
                api.validate_model(result.bundle)
        for path in (FIXTURES / "door.fsm", TRACE_INPUT):
            if not path.is_file():
                raise RuntimeError(f"missing input {path}")

    def run_pass(self, api, expected):
        names = list(COMMANDS)
        self.rng.shuffle(names)
        return [self.op(api, name, expected) for name in names]

    def op(self, api, name, expected) -> Op:
        argv = [sys.executable, "-m", "thimac.cli", *COMMANDS[name]]
        op = Op(name)
        with api.span(f"cli.{name}", True):
            try:
                op.latency, code, out, err, op.rss_kib = run_child(
                    argv, self.env)
            except OSError as exc:
                op.problems.append(f"{type(exc).__name__}: {exc}")
                return op
        text = out.decode("utf-8", "replace")
        op.digest = digest(text, err.decode("utf-8", "replace"), str(code))
        if code != 0:
            op.problems.append(f"tm {name} exited {code}")
        if expected is not None and op.digest != expected.get(name):
            op.problems.append(f"tm {name}: output digest {op.digest} != "
                               f"committed {expected.get(name)}")
        if name == "run" and text and not op.problems:
            lines = text.splitlines()
            op.ticks = int(lines[-1].split("\t", 1)[0])
            op.firings = len(lines)
        return op


WORKLOADS = {w.name: w for w in (Sweep, LongRun, FsmImport, Cli)}
