"""Tick-based execution of thing-machine bundles.

A configuration holds run state only: completed ticks, store values,
where each token rests (keyed by label, oldest first: a token's age is
its position, by tick and then schedule order) and the pending event
instances for the next tick.  A token's arrival tick is the schedule's
and a timer's duration the compiled program's.  Each step:

1. applies the injections scheduled for the new tick (a token lands at
   the target's receive action when it has one, else at release) and
   pends every event whose region touches the target thimac;
2. resolves each pending instance, by priority and then subject (none
   first, then the older token first), against the start of the tick:
   guards read the stores of the previous configuration and binding
   the token placements after injection.  This opening reads the
   previous configuration in place and changes nothing in it; the step
   builds the next configuration only then.  An instance that fails its
   guards or cannot bind tokens lapses, one whose writes overlap an
   earlier firing this tick defers to the next tick, and the rest fire;
   `enabled_events` runs this same opening and stops short of conflicts
   and firing;
3. firing moves the bound tokens (flow paths shift every path's token
   to its sink; progression advances one token between the stages of a
   single thimac), then applies the induced triggers in canonical order
   with guards re-read mid-tick;
4. each fired event activates its chronology successors: bookkeeping
   successors go on top of the one stack the tick fires from, so they
   co-fire depth first, before the next instance, in chains of any
   length; each is resolved against the mid-tick state, at most once
   per event per tick (a failed co-fire simply does not happen).  Other
   successors pend for the next tick, carrying the subject when they
   bind tokens;
5. at tick end, tokens injected this tick that still sit in a source
   thimac drain away (only this tick's injections are visited),
   counters are checked against their ranges, and
   running timers count down, each step replacing the timer's record;
   a timer reaching zero is replaced by an expired one and pends the
   events guarded on its expiry.

Guards gate an event through its induced triggers: every trigger with
an effect contributes its guard, except when several triggers share one
source and target (an if/else group that fires either way); a pure
signal contributes its guard only where it authorizes token movement,
that is when it points at the first action of an induced flow path, or
anywhere in a region that has no flow paths at all.

Resolving and firing read flat tables: each event's firing plan, built
with its region analysis (`EventInfo`), and the successor table of the
compiled `Program`.

Runs revisit few ticks once token names are set aside, so the compiled
`Program` also holds a tick table, which `step` and `enabled_events`
look the coming tick up in once its arrivals are injected.  The key
replaces each token label by the token's rank, the live tokens in
injection order and then the tick's arrivals.  It holds the state key
of the configuration and the arrival thimacs; the state key holds the
live tokens' places, the pending instances in the order they were
pended, with subjects as ranks (a subject with no live token can only
lapse, so all such share one mark), and the store values.  A rank may
stand for a label because a label only tells tokens apart.
An entry, recorded only by `step`, is one whole fired tick by rank:
the opening's bindings, where each ranked token rests after it, store
tables ready to copy, the next pending instances and the firings, one
shared `FiredEvent` for each firing without a subject, and the state
key of the configuration it builds with the ranks of the tokens still
live.  `enabled_events` reads an entry's bindings or opens the tick
without recording it, and a hit in `step` builds the next
configuration as a fired tick does.  Every tick is keyed and
recorded, one with nothing pending too, except one that raises, one
past `TICK_TABLE_PLACES` and one whose outcome names a label without a
rank.

A configuration that `step` builds from a recorded tick (a hit, or a
miss it has just recorded) carries its state key and its live labels
(`Configuration.ranked`), so the look-up after it skips the token scan
and the key build, and its tables must not change once `step` returns
it; any other is ranked in full.  Opening a tick checks a
configuration's stores and pending events against the program; a hit
needs no check, as only opened ticks are keyed and a key spells out the
store ids, table sizes and pending events.

A run ends at quiescence: nothing pending, no injections left, and no
timer still counting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Optional

from .dsl import _escape, is_identifier, read_int, read_string
from .model import (
    STAGE_DEPTH,
    STORE_KINDS,
    ActionKind,
    E_COUNTER_RANGE,
    E_DUP_ID,
    E_SYNTAX,
    E_UNRESOLVED_REF,
    Effect,
    EventInfo,
    ModelBundle,
    Program,
    SubjectMode,
    ThimacKind,
    TmError,
    compile,
)

# A program's tick table stops recording once it holds this many places
# in all: one per recorded tick and one per live or arriving token of
# it.
TICK_TABLE_PLACES = 5000

# enum members read once: reading one off its class costs about three
# times an instance attribute, on every guard check and effect
_COUNTER, _FLAG, _TIMER = ThimacKind.COUNTER, ThimacKind.FLAG, ThimacKind.TIMER
_SOURCE = ThimacKind.SOURCE
_INC, _DEC, _SET, _CLEAR, _RESET = (Effect.INC, Effect.DEC, Effect.SET,
                                    Effect.CLEAR, Effect.RESET)
_SUBJECTLESS, _FLOW = SubjectMode.SUBJECTLESS, SubjectMode.FLOW
_PROCESS = ActionKind.PROCESS


@dataclass(frozen=True, slots=True, kw_only=True)
class TimerState:
    """What is left of one timer: counting down, expired, or idle."""

    remaining: Optional[int] = None
    expired: bool = False

    @property
    def active(self) -> bool:
        return self.remaining is not None


@dataclass(slots=True)
class Token:
    """Where a token rests (thimac None once exited); its label is its
    key in `Configuration.tokens`, its age its position."""

    thimac: Optional[str]
    stage: Optional[ActionKind]

    @property
    def alive(self) -> bool:
        return self.thimac is not None

    def copy(self) -> "Token":
        return Token(self.thimac, self.stage)


@dataclass(frozen=True, slots=True)
class Configuration:
    """Full machine state after `tick` completed ticks.  `pending` maps
    each (event, subject) instance to None in the order it was pended,
    so a copy or a pickle iterates it alike.  `ranked` is the state key
    and the live labels by rank of a configuration `step` built from a
    recorded tick, else None; a copy, a pickle and `dataclasses.replace`
    are built from the other fields, so they are ranked in full."""

    tick: int
    counters: dict
    flags: dict
    timers: dict
    tokens: dict
    pending: dict
    ranked: Optional[tuple] = field(default=None, init=False, compare=False,
                                    repr=False)

    def __reduce__(self):
        return Configuration, (self.tick, self.counters, self.flags,
                               self.timers, self.tokens, self.pending)


@dataclass(frozen=True, slots=True)
class FiredEvent:
    """One event instance that fired: id, bound subject, bookkeeping flag."""

    event: str
    subject: Optional[str]
    bookkeeping: bool = False


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """Everything that fired in one tick, in firing order."""

    tick: int
    fired: tuple


def _maker(cls):
    """A constructor of the frozen record type `cls`, one parameter per
    field, that fills each slot through its member descriptor instead of
    the generated `__init__`'s `object.__setattr__` per field; its source
    is generated from the fields, as dataclasses generates `__init__`."""
    names = [f.name for f in fields(cls)]
    env = {f"set_{name}": cls.__dict__[name].__set__ for name in names}
    env.update(new=object.__new__, cls=cls)
    sets = "".join(f"    set_{name}(record, {name})\n" for name in names)
    exec(f"def make({', '.join(names)}):\n    record = new(cls)\n{sets}"
         f"    return record\n", env)
    return env["make"]


_configuration, _fired, _trace_entry = map(
    _maker, (Configuration, FiredEvent, TraceEntry))


# ---------------------------------------------------------------------------
# Guards and placements
# ---------------------------------------------------------------------------


def _holds(checks, stores: Configuration) -> bool:
    """Whether every typed check of a firing plan holds in `stores`."""
    for kind, store, test, literal in checks:
        if kind is _COUNTER:
            if not test(stores.counters[store], literal):
                return False
        elif kind is _FLAG:
            if stores.flags[store] == test:
                return False
        elif not stores.timers[store].expired:
            return False
    return True


def _placements(tokens) -> dict:
    """Thimac -> label -> stage for live (label, token) pairs, oldest first."""
    places = defaultdict(dict)
    for label, tok in tokens:
        if tok.thimac is not None:
            places[tok.thimac][label] = tok.stage
    return places


# ---------------------------------------------------------------------------
# Instance resolution
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Binding:
    """A resolved event instance ready to fire."""

    info: EventInfo
    subject: Optional[str]          # recorded in the trace
    moves: tuple                    # (label, (thimac, stage)) to rest at
    write_set: frozenset            # ("store"|"token"|"proc", id) keys


def _pick(here: dict, deepest: bool, subject=None, bound=()):
    """The label to bind among the placements `here`: the carried
    `subject` if it rests here (None if it has left), else the one not
    in `bound` deepest in stage for flow sources, shallowest for
    progression, ties going to the oldest token, the first in `here`."""
    if subject is not None:
        return subject if subject in here else None
    best = None
    for label, stage in here.items():
        if label not in bound:
            depth = -STAGE_DEPTH[stage] if deepest else STAGE_DEPTH[stage]
            if best is None or depth < best_depth:
                best, best_depth = label, depth
    return best


def _resolve(prog: Program, eid: str, subj, stores: Configuration,
             places: dict):
    """Resolve one pending instance against the guards' stores and the
    token placements by thimac; None when the event cannot fire (failed
    guards, missing tokens, occupied stage)."""
    info = prog.info[eid]
    if not _holds(info.gates, stores):
        return None

    if info.mode is _SUBJECTLESS:
        return _Binding(info, subj, (), info.writes)

    if info.mode is _FLOW:
        # the carried subject takes the primary path only
        moves = []
        bound = set()
        for head, rest in info.flow:
            label = _pick(places.get(head, {}), True, subj, bound)
            if label is None:
                return None
            subj = None
            bound.add(label)
            moves.append((label, rest))
        return _Binding(info, moves[0][0], tuple(moves),
                        info.writes | {("token", label) for label in bound})

    # progression
    tid = info.progress_thimac
    target = info.progress_target
    here = places.get(tid, {})
    chosen = _pick(here, False, subj)
    if chosen is None:
        return None
    stage = here[chosen]
    if STAGE_DEPTH[stage] > STAGE_DEPTH[target]:
        return None
    enters = stage is not target and target is _PROCESS
    if enters:
        for label, s in here.items():
            if s is _PROCESS and label != chosen:
                return None
    writes = info.writes | {("token", chosen)}
    if enters:
        writes |= {("proc", tid)}
    return _Binding(info, chosen, ((chosen, (tid, target)),), writes)


# ---------------------------------------------------------------------------
# Firing
# ---------------------------------------------------------------------------


def _apply_triggers(info: EventInfo, cfg: Configuration, starts):
    for checks, target, effect, kind in info.steps:
        if not _holds(checks, cfg):
            continue
        if effect is _INC:
            cfg.counters[target] += 1
        elif effect is _DEC:
            cfg.counters[target] -= 1
        elif effect is _SET:
            cfg.flags[target] = True
        elif effect is _CLEAR:
            cfg.flags[target] = False
        else:
            # reset and start rewind a store to its start
            start = starts[target]
            if kind is _COUNTER:
                cfg.counters[target] = start
            else:
                cfg.timers[target] = TimerState(remaining=start)


# ---------------------------------------------------------------------------
# The public engine
# ---------------------------------------------------------------------------


def init(bundle: ModelBundle) -> Configuration:
    """Fresh configuration at tick 0: each store at its start in the
    compiled program, no tokens, nothing pending.  Raises TmError as
    `compile`; the schedule is checked once a run reads it."""
    prog = compile(bundle)
    stores = {kind: {} for kind in STORE_KINDS}
    for tid, value in prog.starts.items():
        stores[prog.thimacs[tid].kind][tid] = value
    return Configuration(0, stores[ThimacKind.COUNTER], stores[ThimacKind.FLAG],
                         dict.fromkeys(stores[ThimacKind.TIMER], TimerState()),
                         {}, {})


def _inject(prog: Program, arrivals, config: Configuration):
    """Label -> token for the injections `arrivals` of the tick after
    `config`, each at the stage its thimac lands tokens at.  Raises
    E_DUP_ID for a label that a token of `config`, say one of another
    bundle, has."""
    new = {}
    for inj in arrivals:
        if inj.label in config.tokens:
            raise TmError(E_DUP_ID, f"token label {inj.label!r} injected twice")
        new[inj.label] = Token(inj.thimac, prog.landing[inj.thimac])
    return new


def _open_tick(prog: Program, config: Configuration, new, rank: dict):
    """Check `config` against the program, then resolve the pending
    instances of the tick after it, with the events the injected tokens
    `new` pend, by priority, then subject (none first, then by `rank`,
    then one with no live token), against the start of that tick,
    without changing `config`: the stores of `config` (injection moves
    no store) and the placements after the injection.  Returns (event,
    pended subject, binding or None) per instance in that order."""
    _check_config(prog, config)
    order = config.pending
    if new:
        order = dict.fromkeys(chain(order, [
            (eid, None) for tok in new.values()
            for eid in prog.injection_events.get(tok.thimac, ())]))
    order = sorted(order, key=lambda entry: (
        prog.priority[entry[0]],
        -1 if entry[1] is None else rank.get(entry[1], len(rank))))
    places = _placements(chain(config.tokens.items(), new.items()))
    return [(eid, subj, _resolve(prog, eid, subj, config, places))
            for eid, subj in order]


def _next(config: Configuration, new, counters, flags, timers, ranked=None):
    """The configuration after `config` as a tick starts it: copies of
    its tokens plus the injected `new`, the given store tables and key
    (`ranked`), and nothing pending yet."""
    tokens = {label: tok.copy() for label, tok in config.tokens.items()}
    tokens.update(new)
    return _configuration(config.tick + 1, counters, flags, timers, tokens, {},
                          ranked)


def _fire(prog: Program, config: Configuration, new, opening):
    """Fire the opened tick after `config` into the next configuration,
    built once from fresh store tables and token copies; returns it with
    the trace entry."""
    cfg = _next(config, new, dict(config.counters), dict(config.flags),
                dict(config.timers))
    fired, written, cofired = [], set(), set()
    # depth first: an instance's co-fires, pushed on top, all fire
    # before the next instance of the opening
    stack = [entry for entry in reversed(opening) if entry[2] is not None]
    while stack:
        eid, subj, binding = stack.pop()
        if binding is None:
            # a bookkeeping co-fire, once per event per tick, resolved
            # against the mid-tick state; it may rebind when the
            # handed-down subject no longer fits
            if eid in cofired:
                continue
            cofired.add(eid)
            places = _placements(cfg.tokens.items())
            binding = _resolve(prog, eid, subj, cfg, places)
            if binding is None and subj is not None:
                binding = _resolve(prog, eid, None, cfg, places)
            if binding is None:
                continue
        elif not written.isdisjoint(binding.write_set):
            cfg.pending[eid, subj] = None
            continue
        for label, (thimac, stage) in binding.moves:
            tok = cfg.tokens[label]
            tok.thimac = thimac
            tok.stage = stage
        _apply_triggers(binding.info, cfg, prog.starts)
        fired.append(_fired(eid, binding.subject,
                            binding.info.event.bookkeeping))
        written |= binding.write_set
        context = binding.subject
        for succ_id, cofires, carries in reversed(
                prog.successors.get(eid, ())):
            if cofires:
                stack.append((succ_id, context, None))
            else:
                cfg.pending[succ_id, context if carries else None] = None

    # tokens injected this tick that never left their source drain away
    for tok in new.values():
        if (tok.thimac is not None
                and prog.thimacs[tok.thimac].kind is _SOURCE):
            tok.thimac = None
            tok.stage = None

    for tid, value in cfg.counters.items():
        decl = prog.thimacs[tid]
        if not (decl.lo <= value <= decl.hi):
            raise TmError(E_COUNTER_RANGE,
                          f"counter {tid} left its range {decl.lo}..{decl.hi} "
                          f"at tick {cfg.tick} (value {value})")

    for tid, ts in cfg.timers.items():
        if ts.remaining is None:
            continue
        if ts.remaining > 1:
            cfg.timers[tid] = TimerState(remaining=ts.remaining - 1,
                                         expired=ts.expired)
            continue
        cfg.timers[tid] = TimerState(expired=True)
        for eid in prog.expiry_events.get(tid, ()):
            cfg.pending[eid, None] = None

    return cfg, _trace_entry(cfg.tick, tuple(fired))


# ---------------------------------------------------------------------------
# The tick table
# ---------------------------------------------------------------------------


def _ranked(pairs, rank: dict) -> tuple:
    """(event, label) pairs flattened to (event, rank, ...) by `rank`:
    None stays None and a label with no rank becomes -1."""
    flat = []
    for eid, label in pairs:
        flat += (eid, label if label is None else rank.get(label, -1))
    return tuple(flat)


def _labelled(ranked: tuple, labels: tuple) -> list:
    """The (event, label) pairs of a `_ranked` tuple."""
    flat = iter(ranked)
    return [(eid, rank if rank is None else labels[rank])
            for eid, rank in zip(flat, flat)]


def _rank(config: Configuration):
    """The state key of `config`, every token label replaced by its
    rank, and its live labels by rank (in injection order): each live
    token's (thimac, stage), the pending instances in the order they
    were pended, and each store table as its size, its ids and its
    values."""
    rank, places = {}, []
    for label, tok in config.tokens.items():
        if tok.thimac is not None:
            rank[label] = len(rank)
            places += (tok.thimac, tok.stage)
    counters, flags, timers = config.counters, config.flags, config.timers
    return (tuple(places), _ranked(config.pending, rank),
            len(counters), *counters, *counters.values(),
            len(flags), *flags, *flags.values(),
            len(timers), *timers, *timers.values()), tuple(rank)


def _check_config(prog: Program, config: Configuration):
    """Raise E_UNRESOLVED_REF unless the counter, flag and timer tables
    of `config` hold exactly the program's stores of each kind, naming
    the first store missing, else the first id too many, and unless the
    program has every event `config` pends."""
    tables = {_COUNTER: config.counters, _FLAG: config.flags,
              _TIMER: config.timers}
    for tid in prog.starts:
        kind = prog.thimacs[tid].kind
        if tid not in tables[kind]:
            raise TmError(E_UNRESOLVED_REF,
                          f"configuration has no {kind.value} {tid}")
    for kind, table in tables.items():
        for tid in table:
            t = prog.thimacs.get(tid)
            if t is None or t.kind is not kind:
                raise TmError(E_UNRESOLVED_REF,
                              f"configuration holds {tid!r}, which is no "
                              f"{kind.value} of the model")
    for eid, _subj in config.pending:
        if eid not in prog.info:
            raise TmError(E_UNRESOLVED_REF, f"configuration pends {eid!r}, "
                          f"which is no event of the model")


def _look_up(bundle: ModelBundle, config: Configuration):
    """Inject the arrivals of the tick after `config`, key the tick and
    look it up in the program's tick table.  Returns the key (the state
    key `config` carries or `_rank` builds, and the arrival thimacs),
    the labels by rank (the live tokens in injection order, then the
    arrivals), the injected tokens and the table's entry, None when
    unrecorded."""
    prog = compile(bundle)
    injections = bundle.arrivals.get(config.tick + 1)
    state, labels = config.ranked or _rank(config)
    if not injections:
        key = (state, ())
        return key, labels, {}, prog.ticks.get(key)
    new = _inject(prog, injections, config)
    key = (state, tuple([tok.thimac for tok in new.values()]))
    return key, (*labels, *new), new, prog.ticks.get(key)


def _record(prog: Program, key, rank: dict, opening, cfg: Configuration,
            fired):
    """Record under `key` the tick that opened as `opening` and fired
    into `cfg`, by rank: the opening's bindings, (thimac, stage) of each
    ranked token after the tick, copies of the store tables, the
    pending instances and the firings, each kept with its subject's
    rank (a firing without a subject is shared as it is), and the state
    key of `cfg` with the ranks of its live tokens, which `cfg` then
    carries.  Nothing is recorded past the table's bound, nor for a
    tick whose bindings or outcome name a label without a rank."""
    if prog.tick_places + 1 + len(rank) > TICK_TABLE_PLACES:
        return
    enabled = _ranked([(eid, b.subject) for eid, _subj, b in opening
                       if b is not None], rank)
    pending = _ranked(cfg.pending, rank)
    ranks = _ranked([(f.event, f.subject) for f in fired], rank)
    if -1 in enabled or -1 in pending or -1 in ranks:
        return
    places = []
    for label in rank:
        tok = cfg.tokens[label]
        places += (tok.thimac, tok.stage)
    state, live = _rank(cfg)
    prog.tick_places += 1 + len(rank)
    prog.ticks[key] = (enabled, tuple(places), dict(cfg.counters),
                       dict(cfg.flags), dict(cfg.timers), pending,
                       tuple(zip(fired, ranks[1::2])), state,
                       tuple([rank[label] for label in live]))
    object.__setattr__(cfg, "ranked", (state, live))


def _replay(config: Configuration, labels: tuple, new, entry):
    """The next configuration and trace entry of the tick after
    `config`, with its injected tokens `new`, recorded as `entry`, with
    ranks read back as `labels`; the configuration carries the entry's
    state key.  Every record is built through its slots (`_configuration`,
    `_fired`, `_trace_entry`), the key set with the other fields."""
    _enabled, places, counters, flags, timers, pending, fired, state, live \
        = entry
    cfg = _next(config, new, counters.copy(), flags.copy(), timers.copy(),
                (state, tuple([labels[rank] for rank in live])))
    tokens = cfg.tokens
    places = iter(places)
    for label, thimac, stage in zip(labels, places, places):
        tok = tokens[label]
        tok.thimac = thimac
        tok.stage = stage
    pend = cfg.pending
    pending = iter(pending)
    for eid, rank in zip(pending, pending):
        pend[eid, rank if rank is None else labels[rank]] = None
    return cfg, _trace_entry(cfg.tick, tuple([
        f if rank is None else _fired(f.event, labels[rank], f.bookkeeping)
        for f, rank in fired]))


def step(bundle: ModelBundle, config: Configuration):
    """Execute one tick; returns (new configuration, trace entry).  A
    tick the program's tick table has recorded is replayed; any other
    is opened, fired and recorded."""
    key, labels, new, entry = _look_up(bundle, config)
    if entry is not None:
        return _replay(config, labels, new, entry)
    prog = compile(bundle)
    rank = {label: i for i, label in enumerate(labels)}
    opening = _open_tick(prog, config, new, rank)
    cfg, trace_entry = _fire(prog, config, new, opening)
    _record(prog, key, rank, opening, cfg, trace_entry.fired)
    return cfg, trace_entry


def quiescent(bundle: ModelBundle, config: Configuration) -> bool:
    """Nothing pending, no injections ahead (the bundle's last scheduled
    tick is done), no timer still counting."""
    if config.pending:
        return False
    if config.tick < bundle.last_arrival:
        return False
    if any(ts.active for ts in config.timers.values()):
        return False
    return True


def run(bundle: ModelBundle, max_ticks: Optional[int] = None):
    """Step until quiescence or max_ticks; returns (config, trace list)."""
    cfg = init(bundle)
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
    scheduled for that tick; ignores conflicts.  A recorded tick is read
    from the tick table; any other is opened, not recorded."""
    _key, labels, new, entry = _look_up(bundle, config)
    if entry is not None:
        return _labelled(entry[0], labels)
    rank = {label: i for i, label in enumerate(labels)}
    opening = _open_tick(compile(bundle), config, new, rank)
    return [(eid, b.subject) for eid, _subj, b in opening if b is not None]


# ---------------------------------------------------------------------------
# Trace formatting
# ---------------------------------------------------------------------------


def filter_displayed(bundle: ModelBundle, trace):
    """Drop bookkeeping instances, keeping events marked displayed.
    Raises TmError (E_UNRESOLVED_REF) for an event the bundle lacks."""
    emap = bundle.event_map()
    out = []
    for entry in trace:
        for f in entry.fired:
            if f.event not in emap:
                raise TmError(E_UNRESOLVED_REF,
                              f"trace names unknown event {f.event!r}")
        kept = tuple(f for f in entry.fired
                     if not f.bookkeeping or emap[f.event].displayed)
        out.append(TraceEntry(entry.tick, kept))
    return out


def format_trace(trace) -> str:
    """One line per tick: `tick N: E1/S1 E2`, a subject that is not an
    identifier quoted as in the model format."""
    lines = []
    for entry in trace:
        parts = []
        for f in entry.fired:
            subject = f.subject
            if subject is not None and not is_identifier(subject):
                subject = _escape(subject)
            parts.append(f.event if subject is None else f"{f.event}/{subject}")
        lines.append(f"tick {entry.tick}: {' '.join(parts)}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def format_trace_records(trace) -> str:
    """Machine form: one tab-separated record per fired instance with
    tick, event, quoted subject (`-` when none), bookkeeping 0/1."""
    lines = []
    quoted = {None: "-"}    # each subject is quoted once
    for entry in trace:
        for f in entry.fired:
            subject = quoted.get(f.subject)
            if subject is None:
                subject = quoted[f.subject] = _escape(f.subject)
            lines.append(f"{entry.tick}\t{f.event}\t{subject}\t"
                         f"{1 if f.bookkeeping else 0}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace_records(text: str, file: str = "<trace>"):
    """Inverse of format_trace_records; ticks without firings are not
    reconstructed.  Records end at newlines only, since a quoted subject
    may hold any other line separator.  Raises TmError (E_SYNTAX) at
    FILE:LINE:COL of the first malformed field."""
    by_tick = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")

        def bad(field, problem):
            col = sum(len(p) + 1 for p in parts[:field]) + 1
            raise TmError(E_SYNTAX, f"{file}:{lineno}:{col}: {problem}")

        if len(parts) != 4:
            bad(0, "record needs 4 tab-separated fields")
        tick_text, event, subject_text, bk = parts
        tick = read_int(tick_text)
        if tick is None or tick < 1:
            bad(0, f"bad tick {tick_text!r}")
        if not event:
            bad(1, "empty event")
        subject = None if subject_text == "-" else read_string(subject_text)
        if subject is None and subject_text != "-":
            bad(2, f"subject {subject_text!r} is neither - nor a quoted "
                   f"string")
        if bk not in ("0", "1"):
            bad(3, f"bookkeeping {bk!r} is not 0 or 1")
        by_tick.setdefault(tick, []).append(
            FiredEvent(event, subject, bk == "1"))
    return [TraceEntry(tick, tuple(fired))
            for tick, fired in sorted(by_tick.items())]
