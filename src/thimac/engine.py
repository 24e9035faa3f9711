"""Tick-based execution of thing-machine bundles.

A configuration records completed ticks, store values, token positions,
and the pending event instances for the next tick.  Each step:

1. applies the injections scheduled for the new tick (a token lands at
   the target's receive action when it has one, else at release) and
   pends every event whose region touches the target thimac;
2. takes a start-of-tick snapshot and resolves each pending instance
   against it, walking them in priority order: an instance that fails
   its guards or cannot bind tokens lapses, one whose writes overlap an
   earlier firing this tick defers to the next tick, and the rest fire;
3. firing moves the bound tokens (flow paths shift every path's token
   to its sink; progression advances one token between the stages of a
   single thimac), then applies the induced triggers in canonical order
   with guards re-read mid-tick;
4. each fired event activates its chronology successors: bookkeeping
   successors try to co-fire at once against the mid-tick state (at
   most once per event per tick; a failed co-fire simply does not
   happen), other successors pend for the next tick, carrying the
   subject when they bind tokens;
5. at tick end, tokens injected this tick that still sit in a source
   thimac drain away, counters are checked against their ranges, and
   running timers count down; a timer reaching zero marks itself
   expired and pends the events guarded on its expiry.

Guards gate an event through its induced triggers: every trigger with
an effect contributes its guard, except when several triggers share one
source and target (an if/else group that fires either way); a pure
signal contributes its guard only where it authorizes token movement,
that is when it points at the first action of an induced flow path, or
anywhere in a region that has no flow paths at all.

A run ends at quiescence: nothing pending, no injections left, and no
timer still counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dsl import _escape, _unescape
from .model import (
    STAGE_DEPTH,
    STORE_KINDS,
    ActionKind,
    CounterCmp,
    E_COUNTER_RANGE,
    E_DUP_ID,
    E_SYNTAX,
    Effect,
    EventInfo,
    FlagTest,
    ModelBundle,
    Program,
    SubjectMode,
    ThimacKind,
    TimerExpired,
    TmError,
    compile,
    initial_problem,
)


@dataclass
class TimerState:
    """One timer: counting down, expired, or idle."""

    duration: int
    remaining: Optional[int] = None
    expired: bool = False

    @property
    def active(self) -> bool:
        return self.remaining is not None

    def copy(self) -> "TimerState":
        return TimerState(self.duration, self.remaining, self.expired)


@dataclass
class Token:
    """A labeled token and where it rests; thimac None once exited."""

    label: str
    thimac: Optional[str]
    stage: Optional[ActionKind]
    seq: int
    injected_at: int

    @property
    def alive(self) -> bool:
        return self.thimac is not None

    def copy(self) -> "Token":
        return Token(self.label, self.thimac, self.stage, self.seq,
                     self.injected_at)


@dataclass
class Configuration:
    """Full machine state after `tick` completed ticks."""

    tick: int
    counters: dict
    flags: dict
    timers: dict
    tokens: dict
    pending: set

    def copy(self) -> "Configuration":
        return Configuration(
            tick=self.tick,
            counters=dict(self.counters),
            flags=dict(self.flags),
            timers={k: v.copy() for k, v in self.timers.items()},
            tokens={k: v.copy() for k, v in self.tokens.items()},
            pending=set(self.pending),
        )


@dataclass(frozen=True)
class FiredEvent:
    """One event instance that fired: id, bound subject, bookkeeping flag."""

    event: str
    subject: Optional[str]
    bookkeeping: bool = False


@dataclass(frozen=True)
class TraceEntry:
    """Everything that fired in one tick, in firing order."""

    tick: int
    fired: tuple


# ---------------------------------------------------------------------------
# Guards and views
# ---------------------------------------------------------------------------


class _View:
    """Read access to stores and token positions, either a start-of-tick
    snapshot or the live mid-tick configuration."""

    def __init__(self, cfg: Configuration, frozen: bool):
        self.frozen = frozen
        if frozen:
            self.counters = dict(cfg.counters)
            self.flags = dict(cfg.flags)
            self.expired = {k: v.expired for k, v in cfg.timers.items()}
            self.places = {label: (tok.thimac, tok.stage, tok.seq)
                           for label, tok in cfg.tokens.items()
                           if tok.alive}
        else:
            self.cfg = cfg

    def counter(self, tid):
        return self.counters[tid] if self.frozen else self.cfg.counters[tid]

    def flag(self, tid):
        return self.flags[tid] if self.frozen else self.cfg.flags[tid]

    def timer_expired(self, tid):
        if self.frozen:
            return self.expired[tid]
        return self.cfg.timers[tid].expired

    def placements(self):
        if self.frozen:
            return self.places
        return {label: (tok.thimac, tok.stage, tok.seq)
                for label, tok in self.cfg.tokens.items() if tok.alive}


def _eval_guard(guard, view: _View) -> bool:
    for atom in guard:
        if isinstance(atom, CounterCmp):
            value = view.counter(atom.counter)
            ok = {
                "=": value == atom.value,
                "!=": value != atom.value,
                "<": value < atom.value,
                "<=": value <= atom.value,
                ">": value > atom.value,
                ">=": value >= atom.value,
            }[atom.op]
            if not ok:
                return False
        elif isinstance(atom, FlagTest):
            value = view.flag(atom.flag)
            if value == atom.negated:
                return False
        elif isinstance(atom, TimerExpired):
            if not view.timer_expired(atom.timer):
                return False
    return True


# ---------------------------------------------------------------------------
# Instance resolution
# ---------------------------------------------------------------------------


@dataclass
class _Binding:
    """A resolved event instance ready to fire."""

    info: EventInfo
    subject: Optional[str]          # recorded in the trace
    moves: tuple                    # (label, path) pairs for flow events
    write_set: frozenset


def _pick(candidates, deepest: bool):
    """Token choice among (label, stage, seq): deepest stage first for
    flow sources, shallowest first for progression; ties go to the
    oldest injection."""
    if not candidates:
        return None
    sign = -1 if deepest else 1
    return min(candidates,
               key=lambda c: (sign * STAGE_DEPTH[c[1]], c[2]))[0]


def _resolve(prog: Program, eid: str, subj, view: _View):
    """Resolve one pending instance against a view; None when the event
    cannot fire (failed guards, missing tokens, occupied stage)."""
    info = prog.info[eid]
    for guard in info.gates:
        if not _eval_guard(guard, view):
            return None
    places = view.placements()

    if info.mode == SubjectMode.SUBJECTLESS:
        return _Binding(info, subj, (), info.writes)

    if info.mode == SubjectMode.FLOW:
        by_thimac = {}
        for label, (tid, stage, seq) in places.items():
            by_thimac.setdefault(tid, []).append((label, stage, seq))
        primary_src = info.paths[0][0].thimac
        if subj is not None:
            spot = places.get(subj)
            if spot is None or spot[0] != primary_src:
                return None
            primary = subj
        else:
            primary = _pick(by_thimac.get(primary_src, []), deepest=True)
            if primary is None:
                return None
        moves = [(primary, info.paths[0])]
        bound = {primary}
        for path in info.paths[1:]:
            src = path[0].thimac
            pool = [c for c in by_thimac.get(src, []) if c[0] not in bound]
            stim = _pick(pool, deepest=True)
            if stim is None:
                return None
            bound.add(stim)
            moves.append((stim, path))
        return _Binding(info, primary, tuple(moves), info.writes | bound)

    # progression
    tid = info.progress_thimac
    target = info.progress_target
    here = [(label, stage, seq)
            for label, (t, stage, seq) in places.items() if t == tid]
    if subj is not None:
        spot = places.get(subj)
        if spot is None or spot[0] != tid:
            return None
        chosen = subj
    else:
        chosen = _pick(here, deepest=False)
        if chosen is None:
            return None
    stage = places[chosen][1]
    if STAGE_DEPTH[stage] > STAGE_DEPTH[target]:
        return None
    enters = stage != target and target == ActionKind.PROCESS
    if enters:
        for label, (t, s, _) in places.items():
            if t == tid and s == ActionKind.PROCESS and label != chosen:
                return None
    writes = info.writes | {chosen}
    if enters:
        writes |= {("proc", tid)}
    return _Binding(info, chosen, (), writes)


# ---------------------------------------------------------------------------
# Firing
# ---------------------------------------------------------------------------


def _apply_triggers(prog: Program, info: EventInfo, cfg: Configuration,
                    initial: dict):
    live = _View(cfg, frozen=False)
    for tr in info.apply_order:
        if tr.effect is None:
            continue
        if not _eval_guard(tr.guard, live):
            continue
        target = tr.dst.thimac
        kind = prog.thimacs[target].kind
        if tr.effect == Effect.INC:
            cfg.counters[target] += 1
        elif tr.effect == Effect.DEC:
            cfg.counters[target] -= 1
        elif tr.effect == Effect.SET:
            cfg.flags[target] = True
        elif tr.effect == Effect.CLEAR:
            cfg.flags[target] = False
        elif tr.effect == Effect.RESET and kind == ThimacKind.COUNTER:
            decl = prog.thimacs[target]
            cfg.counters[target] = int(initial.get(target, decl.init))
        else:
            # reset and start both rewind a timer to its full duration
            ts = cfg.timers[target]
            ts.remaining = ts.duration
            ts.expired = False


def _move_tokens(prog: Program, binding: _Binding, cfg: Configuration):
    info = binding.info
    if info.mode == SubjectMode.FLOW:
        for label, path in binding.moves:
            tok = cfg.tokens[label]
            last = path[-1]
            if (last.action == ActionKind.TRANSFER
                    or prog.thimacs[last.thimac].kind == ThimacKind.SINK):
                tok.thimac = None
                tok.stage = None
            else:
                tok.thimac = last.thimac
                tok.stage = ActionKind.RECEIVE
    elif info.mode == SubjectMode.PROGRESSION:
        tok = cfg.tokens[binding.subject]
        tok.stage = info.progress_target


def _fire(prog: Program, initial: dict, eid: str, binding: _Binding,
          cfg: Configuration, fired: list, write_sets: list, cofired: set):
    event = prog.events[eid]
    _move_tokens(prog, binding, cfg)
    _apply_triggers(prog, binding.info, cfg, initial)
    fired.append(FiredEvent(eid, binding.subject, event.bookkeeping))
    write_sets.append(binding.write_set)
    context = binding.subject
    for succ_id in prog.successors.get(eid, ()):
        succ = prog.events[succ_id]
        if succ.bookkeeping:
            if succ_id in cofired:
                continue
            cofired.add(succ_id)
            live = _View(cfg, frozen=False)
            b2 = _resolve(prog, succ_id, context, live)
            if b2 is None and context is not None:
                # a co-fire may rebind mid-tick when the handed-down
                # subject no longer fits
                b2 = _resolve(prog, succ_id, None, live)
            if b2 is not None:
                _fire(prog, initial, succ_id, b2, cfg, fired, write_sets,
                      cofired)
        else:
            bearing = prog.info[succ_id].mode != SubjectMode.SUBJECTLESS
            carry = context if bearing else None
            cfg.pending.add((succ_id, carry))


# ---------------------------------------------------------------------------
# The public engine
# ---------------------------------------------------------------------------


def init(bundle: ModelBundle) -> Configuration:
    """Fresh configuration at tick 0: declared store values with the
    bundle's initial overrides applied, no tokens, nothing pending.
    Raises TmError when a starting value is unusable."""
    values = {t.id: t.start for t in bundle.model.thimacs if t.is_store}
    values.update(bundle.initial)
    tmap = bundle.model.thimac_map()
    stores = {kind: {} for kind in STORE_KINDS}
    for tid, value in values.items():
        problem = initial_problem(tmap.get(tid), tid, value)
        if problem is not None:
            raise TmError(*problem)
        stores[tmap[tid].kind][tid] = value
    timers = {tid: TimerState(d) for tid, d in stores[ThimacKind.TIMER].items()}
    return Configuration(0, stores[ThimacKind.COUNTER], stores[ThimacKind.FLAG],
                         timers, {}, set())


def _inject(prog: Program, schedule, cfg: Configuration, tick: int):
    for inj in schedule:
        if inj.tick != tick:
            continue
        if inj.label in cfg.tokens:
            raise TmError(E_DUP_ID,
                          f"token label {inj.label!r} injected twice")
        acts = prog.thimacs[inj.thimac].effective_actions
        stage = (ActionKind.RECEIVE if ActionKind.RECEIVE in acts
                 else ActionKind.RELEASE)
        cfg.tokens[inj.label] = Token(inj.label, inj.thimac, stage,
                                      len(cfg.tokens), tick)
        for eid in prog.injection_events.get(inj.thimac, ()):
            cfg.pending.add((eid, None))


def _in_priority_order(prog: Program, pending):
    last = len(prog.priority)
    return sorted(pending, key=lambda entry: (prog.priority.get(entry[0], last),
                                              entry[1] or ""))


def step(bundle: ModelBundle, config: Configuration):
    """Execute one tick; returns (new configuration, trace entry)."""
    prog = compile(bundle)
    cfg = config.copy()
    tick = cfg.tick + 1
    cfg.tick = tick

    _inject(prog, bundle.schedule, cfg, tick)
    snapshot = _View(cfg, frozen=True)

    entries = _in_priority_order(prog, cfg.pending)
    cfg.pending = set()
    fired = []
    write_sets = []
    cofired = set()
    for eid, subj in entries:
        binding = _resolve(prog, eid, subj, snapshot)
        if binding is None:
            continue
        if any(binding.write_set & ws for ws in write_sets):
            cfg.pending.add((eid, subj))
            continue
        _fire(prog, bundle.initial, eid, binding, cfg, fired, write_sets,
              cofired)

    # tokens injected this tick that never left their source drain away
    for tok in cfg.tokens.values():
        if (tok.alive and tok.injected_at == tick
                and prog.thimacs[tok.thimac].kind == ThimacKind.SOURCE):
            tok.thimac = None
            tok.stage = None

    for tid, value in cfg.counters.items():
        decl = prog.thimacs[tid]
        if not (decl.lo <= value <= decl.hi):
            raise TmError(E_COUNTER_RANGE,
                          f"counter {tid} left its range {decl.lo}..{decl.hi} "
                          f"at tick {tick} (value {value})")

    for tid, ts in cfg.timers.items():
        if ts.remaining is None:
            continue
        ts.remaining -= 1
        if ts.remaining <= 0:
            ts.remaining = None
            ts.expired = True
            for eid in prog.expiry_events.get(tid, ()):
                cfg.pending.add((eid, None))

    return cfg, TraceEntry(tick, tuple(fired))


def quiescent(bundle: ModelBundle, config: Configuration) -> bool:
    """Nothing pending, no injections ahead, no timer still counting."""
    if config.pending:
        return False
    if any(inj.tick > config.tick for inj in bundle.schedule):
        return False
    if any(ts.active for ts in config.timers.values()):
        return False
    return True


def run(bundle: ModelBundle, max_ticks: Optional[int] = None,
        config: Optional[Configuration] = None):
    """Step until quiescence or max_ticks; returns (config, trace list)."""
    cfg = init(bundle) if config is None else config
    trace = []
    while not quiescent(bundle, cfg):
        if max_ticks is not None and cfg.tick >= max_ticks:
            break
        cfg, entry = step(bundle, cfg)
        trace.append(entry)
    return cfg, trace


def enabled_events(bundle: ModelBundle, config: Configuration):
    """Instances that could fire in the upcoming tick, in priority
    order, with the subjects they would bind.  Includes the injections
    scheduled for that tick; ignores conflicts."""
    prog = compile(bundle)
    cfg = config.copy()
    _inject(prog, bundle.schedule, cfg, cfg.tick + 1)
    snapshot = _View(cfg, frozen=True)
    out = []
    for eid, subj in _in_priority_order(prog, cfg.pending):
        binding = _resolve(prog, eid, subj, snapshot)
        if binding is not None:
            out.append((eid, binding.subject))
    return out


# ---------------------------------------------------------------------------
# Trace formatting
# ---------------------------------------------------------------------------


def filter_displayed(bundle: ModelBundle, trace):
    """Drop bookkeeping instances, keeping events marked displayed."""
    emap = bundle.event_map()
    out = []
    for entry in trace:
        kept = tuple(f for f in entry.fired
                     if not f.bookkeeping or emap[f.event].displayed)
        out.append(TraceEntry(entry.tick, kept))
    return out


def format_trace(trace) -> str:
    """One line per tick: `tick N: E1/S1 E2`."""
    lines = []
    for entry in trace:
        parts = []
        for f in entry.fired:
            parts.append(f"{f.event}/{f.subject}" if f.subject is not None
                         else f.event)
        lines.append(f"tick {entry.tick}: {' '.join(parts)}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def format_trace_records(trace) -> str:
    """Machine form: one tab-separated record per fired instance with
    tick, event, quoted subject (`-` when none), bookkeeping 0/1."""
    lines = []
    for entry in trace:
        for f in entry.fired:
            subject = _escape(f.subject) if f.subject is not None else "-"
            lines.append(f"{entry.tick}\t{f.event}\t{subject}\t"
                         f"{1 if f.bookkeeping else 0}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace_records(text: str):
    """Inverse of format_trace_records; ticks without firings are not
    reconstructed."""
    by_tick = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise TmError(E_SYNTAX,
                          f"trace record line {lineno} needs 4 fields")
        tick_text, event, subject_text, bk = parts
        try:
            tick = int(tick_text)
        except ValueError:
            raise TmError(E_SYNTAX,
                          f"trace record line {lineno}: bad tick {tick_text!r}")
        subject = None if subject_text == "-" else _unescape(subject_text)
        by_tick.setdefault(tick, []).append(
            FiredEvent(event, subject, bk == "1"))
    return [TraceEntry(tick, tuple(fired))
            for tick, fired in sorted(by_tick.items())]
