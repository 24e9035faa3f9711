"""Core types for thing-machine models.

A thing machine couples a static wiring layer (thimacs with their five
kinds of actions, flow edges, guarded trigger edges) with a dynamic
event layer (regions over the action graph, a chronology relation, a
priority order, and an injection schedule).  This module holds the
shared vocabulary for both layers plus the structural checks: reference
resolution, kind compatibility, and region analysis (induced edges,
event classification, flow-path decomposition).
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Union


class cached_value:
    """A method read as an attribute and computed once per instance, as
    `functools.cached_property`, which on Python 3.11 and older takes a
    lock on every first read.  The value goes into the instance's
    `__dict__`, where later reads find it before this non-data
    descriptor; a method that raises stores nothing."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class ActionKind(Enum):
    """The five action kinds a thimac can offer."""

    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"

    # members are singletons compared by identity; Enum's own __hash__
    # is a Python-level call paid on every ActionRef lookup
    __hash__ = object.__hash__


# Canonical emission order for action sets.
ACTION_ORDER = (
    ActionKind.CREATE,
    ActionKind.PROCESS,
    ActionKind.RELEASE,
    ActionKind.TRANSFER,
    ActionKind.RECEIVE,
)


class ThimacKind(Enum):
    """What a thimac is: a token handler or a store."""

    SOURCE = "source"
    MACHINE = "machine"
    BUFFER = "buffer"
    SINK = "sink"
    COUNTER = "counter"
    FLAG = "flag"
    TIMER = "timer"

    __hash__ = object.__hash__      # as ActionKind's


STORE_KINDS = frozenset({ThimacKind.COUNTER, ThimacKind.FLAG, ThimacKind.TIMER})
TOKEN_KINDS = frozenset(
    {ThimacKind.SOURCE, ThimacKind.MACHINE, ThimacKind.BUFFER, ThimacKind.SINK}
)


def block_flag_id(thimac: str) -> str:
    """The id of the flag that blocks thimac `thimac`: `M.block` for M."""
    return f"{thimac}.block"


class Effect(Enum):
    """State change a trigger edge applies to its target store."""

    INC = "inc"
    DEC = "dec"
    SET = "set"
    CLEAR = "clear"
    RESET = "reset"
    START = "start"

    __hash__ = object.__hash__      # as ActionKind's


class ActionRef(NamedTuple):
    """A reference to one action of one thimac."""

    thimac: str
    action: ActionKind

    def __str__(self) -> str:
        # `_value_` is a plain attribute; Enum's `value` is a descriptor
        return f"{self.thimac}.{self.action._value_}"


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

# The comparison each guard operator names.
COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
COMPARE_OPS = tuple(COMPARE)


@dataclass(frozen=True)
class CounterCmp:
    """Compare a counter value against a literal."""

    counter: str
    op: str
    value: int

    def __str__(self) -> str:
        return f"{self.counter} {self.op} {self.value}"


@dataclass(frozen=True)
class FlagTest:
    """Test a flag, optionally negated."""

    flag: str
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.flag}" if self.negated else self.flag


@dataclass(frozen=True)
class TimerExpired:
    """Test whether a timer has run out."""

    timer: str

    def __str__(self) -> str:
        return f"expired {self.timer}"


GuardAtom = Union[CounterCmp, FlagTest, TimerExpired]

# A guard is a conjunction of atoms; the empty tuple is always true.
Guard = tuple


def guard_text(guard: Guard) -> str:
    return " and ".join(str(atom) for atom in guard)


# Canonical edge order, and for triggers firing order too: the edge's
# `sort_key`, computed once per edge.
edge_key = attrgetter("sort_key")


# ---------------------------------------------------------------------------
# Static layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Thimac:
    """One thing machine node.

    Token-bearing kinds (source, machine, buffer, sink) declare an
    explicit action set.  Store kinds (counter, flag, timer) always
    expose a single implicit create action; their extra fields carry the
    value domain (counter range and initial value, flag initial value,
    timer duration).
    """

    id: str
    kind: ThimacKind
    actions: frozenset = frozenset()
    lo: int = 0
    hi: int = 0
    init: Union[int, bool] = 0
    duration: int = 0

    @property
    def is_store(self) -> bool:
        return self.kind in STORE_KINDS

    @property
    def start(self):
        """Declared starting value: a timer's duration, else `init`."""
        return self.duration if self.kind == ThimacKind.TIMER else self.init

    @cached_value
    def effective_actions(self) -> frozenset:
        if self.is_store:
            return frozenset({ActionKind.CREATE})
        return self.actions


@dataclass(frozen=True)
class FlowEdge:
    """Token movement: release/transfer feeding transfer/receive."""

    src: ActionRef
    dst: ActionRef

    @cached_value
    def sort_key(self) -> tuple:
        """The texts of source and target, which order flows in
        canonical form."""
        return (str(self.src), str(self.dst))


@dataclass(frozen=True)
class TriggerEdge:
    """Guarded causal edge; effect is None for a pure signal."""

    src: ActionRef
    dst: ActionRef
    effect: Optional[Effect] = None
    guard: Guard = ()

    @cached_value
    def sort_key(self) -> tuple:
        """The texts of source, target, effect and guard, which order
        triggers in canonical form and in firing order."""
        return (str(self.src), str(self.dst),
                self.effect._value_ if self.effect else "",
                guard_text(self.guard))


class _InfoTable(dict):
    """Event -> EventInfo for one model value; a dict that can be
    weakly referenced."""

    __slots__ = ("__weakref__",)


# (thimacs, flows, triggers, name) -> the table every live model with
# those fields shares; an entry goes when its last model does.  The
# records in a table are frozen and hold no model, so sharing them
# hands no state from one model to another.
_SHARED_INFOS = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class StaticModel:
    """The wiring layer: thimacs plus flow and trigger edges.  Frozen,
    with tuple copies of the sequences it is given, so the tables and
    event analyses cached on it never go stale.  Equal
    models share one table of event analyses, so a model and its
    reparse analyse each event once between them."""

    thimacs: tuple = ()
    flows: tuple = ()
    triggers: tuple = ()
    name: str = ""

    def __post_init__(self):
        for attr in ("thimacs", "flows", "triggers"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))

    def __reduce__(self):
        # a copy or a pickle is built from the fields, without the caches
        return StaticModel, (self.thimacs, self.flows, self.triggers,
                             self.name)

    def thimac_map(self):
        """Read-only view from id to thimac."""
        return MappingProxyType(self._by_id)

    @cached_value
    def _by_id(self) -> dict:
        return {t.id: t for t in self.thimacs}

    @cached_value
    def _projections(self) -> dict:
        # `behavior.project_config`'s plans, by projected ids
        return {}

    @cached_value
    def _edges_from(self) -> tuple:
        # for flows, then triggers: source -> target -> edge indices
        def table(edges):
            out: dict = {}
            for i, e in enumerate(edges):
                out.setdefault(e.src, {}).setdefault(e.dst, []).append(i)
            return out
        return table(self.flows), table(self.triggers)

    @cached_value
    def _event_infos(self) -> dict:
        # the key holds the name, which every region names as its
        # parent, and the edge order, which induced regions keep
        key = (self.thimacs, self.flows, self.triggers, self.name)
        try:
            table = _SHARED_INFOS.get(key)
        except TypeError:       # a field that does not hash, e.g. a list
            return {}
        if table is None:
            table = _SHARED_INFOS[key] = _InfoTable()
        return table

    def event_info(self, event: "Event") -> "EventInfo":
        """The event's analysis and firing plan against this model, built
        once per model value: validation and every compiled program of
        this model, and of every live model equal to it, share it."""
        info = self._event_infos.get(event)
        if info is None:
            info = self._event_infos[event] = _analyse(self, event)
        return info


# ---------------------------------------------------------------------------
# Dynamic layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """A labeled region of actions that can fire at a point in time.

    Bookkeeping events co-fire in the same tick as the event that
    precedes them in the chronology.  Displayed marks an event as
    visible even when bookkeeping entries are filtered out.
    """

    id: str
    region: frozenset
    label: str = ""
    bookkeeping: bool = False
    displayed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "region", frozenset(self.region))


@dataclass(frozen=True)
class Injection:
    """Scheduled arrival of a labeled token at a thimac."""

    tick: int
    thimac: str
    label: str


@dataclass(frozen=True)
class ModelBundle:
    """A complete model: wiring, events, chronology, priority, schedule.

    `initial` holds optional per-store overrides of declared initial
    values (counter value, flag value, or timer duration); `starts`
    applies them.  Bundles are frozen, with tuple copies of the given
    sequences and a read-only copy of `initial`: derive a variant with
    `dataclasses.replace(bundle, schedule=...)`, which shares the
    original's compiled program.  The engine raises `validate_model`'s
    first error for a bundle it rejects.
    """

    model: StaticModel
    events: tuple = ()
    behavior: tuple = ()
    priority: tuple = ()
    initial: Mapping = field(default_factory=dict)
    schedule: tuple = ()

    def __post_init__(self):
        for attr in ("events", "behavior", "priority", "schedule"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        object.__setattr__(self, "initial", MappingProxyType(dict(self.initial)))

    def __reduce__(self):
        # as StaticModel's; a read-only mapping does not pickle
        return ModelBundle, (self.model, self.events, self.behavior,
                             self.priority, dict(self.initial), self.schedule)

    def event_map(self) -> dict:
        return {e.id: e for e in self.events}

    def priority_order(self) -> tuple:
        """Full firing order: listed ids first, the rest in declaration order."""
        listed = [e for e in self.priority]
        seen = set(listed)
        rest = [e.id for e in self.events if e.id not in seen]
        return tuple(listed + rest)

    @cached_value
    def _program(self) -> "Program":
        # bundles made by dataclasses.replace(bundle, schedule=...) share
        # everything else, so they share the model's last program
        cache = self.model.__dict__
        program = cache.get("_program")
        if program is None or program.source != _program_source(self):
            program = cache["_program"] = Program(self)
        return program

    @property
    def starts(self) -> Mapping:
        """Store id -> its start for `init`, resets and timer starts (the
        override, else the declared one); raises TmError as `compile`."""
        return self._program.starts

    @cached_value
    def arrivals(self) -> dict:
        """Tick -> the injections scheduled for it, in schedule order;
        raises TmError for a bundle `validate_model` rejects."""
        landing, labels, table = self._program.landing, set(), {}
        for inj in self.schedule:
            if (inj.label in labels or inj.thimac not in landing
                    or not _is_int(inj.tick) or inj.tick < 1):
                _raise_first_error(self)
            labels.add(inj.label)
            table.setdefault(inj.tick, []).append(inj)
        return table

    @cached_value
    def last_arrival(self) -> int:
        """The last tick with an injection; 0 for an empty schedule."""
        return max(self.arrivals, default=0)


def successor_table(edges) -> dict:
    """Chronology edges as event id -> sorted successor ids."""
    table: dict = {}
    for src, dst in sorted(edges):
        table.setdefault(src, []).append(dst)
    return {src: tuple(dsts) for src, dsts in table.items()}


# ---------------------------------------------------------------------------
# Diagnostics and errors
# ---------------------------------------------------------------------------

E_SYNTAX = "E_SYNTAX"
E_DUP_ID = "E_DUP_ID"
E_FLOW_ENDPOINTS = "E_FLOW_ENDPOINTS"
E_BAD_EFFECT = "E_BAD_EFFECT"
E_UNRESOLVED_REF = "E_UNRESOLVED_REF"
E_COUNTER_RANGE = "E_COUNTER_RANGE"
E_EMPTY_REGION = "E_EMPTY_REGION"
E_REGION_FLOWS = "E_REGION_FLOWS"
E_NO_INITIAL = "E_NO_INITIAL"
E_EMPTY_DOMAIN = "E_EMPTY_DOMAIN"

SEV_ERROR = "error"
SEV_WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One reported problem, formatted file:line:col: code message."""

    file: str
    line: int
    col: int
    code: str
    message: str
    severity: str = SEV_ERROR

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.code} {self.message}"


def has_errors(diagnostics) -> bool:
    return any(d.severity == SEV_ERROR for d in diagnostics)


class TmError(Exception):
    """Runtime failure carrying a diagnostic code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code} {message}")
        self.code = code
        self.message = message


# ---------------------------------------------------------------------------
# Region analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """An action set of one model with the edges it induces."""

    parent: str
    actions: frozenset
    flows: tuple
    triggers: tuple


class EventClass(Enum):
    """Generic events cover a single action; compound events several."""

    GENERIC = "generic"
    COMPOUND = "compound"


class SubjectMode(Enum):
    """How an event binds tokens when it fires.

    Flow events move tokens along their induced flow paths, progression
    events advance a resting token between stages of one thimac, and
    subjectless events touch no token at all.
    """

    FLOW = "flow"
    PROGRESSION = "progression"
    SUBJECTLESS = "subjectless"


def induced_region(model: StaticModel, actions: frozenset, parent: str = "") -> Region:
    """Region over the given actions with the edges both of whose
    endpoints fall inside the set, in model order.  No reference
    checking.  Costs at most the edges leaving the set, and at most the
    set's size per action, never the whole model."""
    actions = frozenset(actions)
    size = len(actions)

    def inside(edges, table):
        hits = []
        for a in actions:
            out = table.get(a)
            if out is None:
                continue
            # walk the smaller side, so a hub costs no more than the set
            if len(out) <= size:
                for b, found in out.items():
                    if b in actions:
                        hits += found
            else:
                for b in actions:
                    found = out.get(b)
                    if found:
                        hits += found
        hits.sort()
        return tuple([edges[i] for i in hits])

    flows_from, triggers_from = model._edges_from
    return Region(parent or model.name, actions,
                  inside(model.flows, flows_from),
                  inside(model.triggers, triggers_from))


def ref_problem(tmap, ref: ActionRef) -> Optional[str]:
    """Why `ref` names no action of the thimacs in `tmap`; None if it does."""
    t = tmap.get(ref.thimac)
    if t is None:
        return f"unknown thimac {ref.thimac}"
    if ref.action not in t.effective_actions:
        return f"thimac {ref.thimac} has no {ref.action.value} action"
    return None


def extract_region(model: StaticModel, action_refs) -> Region:
    """Region over a set of action references, checked against the model.

    Raises TmError with E_EMPTY_REGION for an empty set and
    E_UNRESOLVED_REF for a reference to a missing thimac or action.
    """
    actions = frozenset(action_refs)
    if not actions:
        raise TmError(E_EMPTY_REGION, "region has no actions")
    tmap = model._by_id
    for ref in sorted(actions, key=str):
        problem = ref_problem(tmap, ref)
        if problem is not None:
            raise TmError(E_UNRESOLVED_REF, problem)
    return induced_region(model, actions)


def classify_event(region: Region) -> EventClass:
    """An event over one action is generic; over several, compound."""
    if len(region.actions) == 1:
        return EventClass.GENERIC
    return EventClass.COMPOUND


def subject_mode(model: StaticModel, event: Event) -> SubjectMode:
    """Flow if the region induces flow edges; progression if it holds a
    resting stage (receive or process) of a token thimac; subjectless
    otherwise."""
    return model.event_info(event).mode


def decompose_flows(region: Region):
    """Split the induced flow edges into vertex-disjoint simple paths.

    Returns (paths, None) with each path a tuple of ActionRefs ordered
    source to sink, or (None, reason) when the edges do not form such a
    decomposition (branching, merging, or a cycle).
    """
    if not region.flows:
        return (), None
    succ: dict = {}
    pred: dict = {}
    for f in region.flows:
        src, dst = f.src, f.dst
        if src in succ:
            return None, f"action {src} feeds more than one induced flow"
        if dst in pred:
            return None, f"action {dst} is fed by more than one induced flow"
        succ[src] = dst
        pred[dst] = src
    starts = [n for n in succ if n not in pred]
    if len(starts) > 1:
        starts.sort(key=str)
    paths = []
    walked = 0
    for cur in starts:
        path = [cur]
        while cur in succ:
            cur = succ[cur]
            path.append(cur)
        walked += len(path) - 1
        paths.append(tuple(path))
    # with no branching or merging, the edges the paths miss form cycles
    if walked != len(succ):
        return None, "induced flows contain a cycle"
    return tuple(paths), None


def region_paths(model: StaticModel, event: Event):
    """Paths for a flow event, led by the primary path: the first in
    start order not ending in a sink, else the first.  Raises TmError on
    a malformed region."""
    info = model.event_info(event)
    if info.paths is None:
        raise TmError(E_REGION_FLOWS, f"event {event.id}: {info.reason}")
    return info.paths


# Effects that write a flag, and those that write a timer when they
# target one (a counter reset commutes with other counter effects).
_FLAG_EFFECTS = frozenset({Effect.SET, Effect.CLEAR})
_TIMER_EFFECTS = frozenset({Effect.RESET, Effect.START})

# Resting stages of a token inside a thimac, shallow to deep.
STAGE_DEPTH = {
    ActionKind.RELEASE: 0,
    ActionKind.RECEIVE: 1,
    ActionKind.PROCESS: 2,
}


def _guard_checks(guard: Guard) -> tuple:
    """One typed check per atom, in order: (COUNTER, id, comparison,
    literal), (FLAG, id, the value that fails, None) or (TIMER, id,
    None, None), which holds once the timer has expired."""
    checks = []
    for atom in guard:
        if isinstance(atom, CounterCmp):
            # None for an operator `validate_model` rejects
            op = COMPARE.get(atom.op) if isinstance(atom.op, str) else None
            checks.append((ThimacKind.COUNTER, atom.counter, op, atom.value))
        elif isinstance(atom, FlagTest):
            checks.append((ThimacKind.FLAG, atom.flag, atom.negated, None))
        else:
            checks.append((ThimacKind.TIMER, atom.timer, None, None))
    return tuple(checks)


@dataclass(frozen=True, slots=True)
class EventInfo:
    """One event's analysis against its model, built once per model
    value by `model.event_info(event)`: region, flow paths (primary
    first; None with a `reason` when malformed), subject mode,
    progression target and firing plan.  `gates` checks every gating
    guard; `steps` holds, per effectful trigger in canonical order, its
    checks, target id, effect and target kind; `flow`, per path, its
    head thimac and where its token rests after firing, (None, None)
    when it exits; `writes`, the flags and timers written, as ("store",
    id) keys (counters commute).  It holds no reference to the model,
    so no cycle forms."""

    event: Event
    region: Region
    paths: Optional[tuple]
    reason: Optional[str]
    mode: SubjectMode
    progress_thimac: Optional[str]
    progress_target: Optional[ActionKind]
    gates: tuple
    steps: tuple
    flow: tuple
    writes: frozenset


def _analyse(model: StaticModel, event: Event) -> EventInfo:
    """The region analysis and firing plan of `event` against `model`."""
    tmap = model._by_id
    region = induced_region(model, event.region)
    paths, reason = decompose_flows(region)
    if paths and len(paths) > 1:
        # the primary path leads: the first not ending in a sink
        primary = next((p for p in paths
                        if (t := tmap.get(p[-1].thimac)) is not None
                        and t.kind != ThimacKind.SINK), paths[0])
        paths = (primary,) + tuple(p for p in paths if p is not primary)

    mode = SubjectMode.FLOW if region.flows else SubjectMode.SUBJECTLESS
    progress_thimac = progress_target = None
    if not region.flows:
        stages: dict = {}
        for ref in event.region:
            t = tmap.get(ref.thimac)
            if t is not None and t.kind in TOKEN_KINDS and ref.action in STAGE_DEPTH:
                stages.setdefault(ref.thimac, []).append(ref.action)
        # the subject advances within the thimac whose receive or
        # process stage the region holds; first by name when several
        deep = [tid for tid, acts in stages.items()
                if ActionKind.RECEIVE in acts or ActionKind.PROCESS in acts]
        if deep:
            mode = SubjectMode.PROGRESSION
            progress_thimac = min(deep)
            progress_target = max(stages[progress_thimac], key=STAGE_DEPTH.get)

    # a token exits at a final transfer or a sink, else rests received
    flow = tuple([
        (p[0].thimac, (None, None) if p[-1].action is ActionKind.TRANSFER
         or getattr(tmap.get(p[-1].thimac), "kind", None) is ThimacKind.SINK
         else (p[-1].thimac, ActionKind.RECEIVE))
        for p in paths or ()])
    # gating guards, all of which must hold: effectful triggers gate
    # unless they share their source and target with another induced
    # trigger; signals gate when they point at a path head, or
    # anywhere in a flow-less region
    groups: dict = {}
    for t in region.triggers:
        groups.setdefault((t.src, t.dst), []).append(t)
    heads = {p[0] for p in paths or ()}
    every_signal = not region.flows
    gates = _guard_checks([
        atom for (_, dst), members in groups.items()
        if len(members) == 1 and (members[0].effect is not None
                                  or every_signal or dst in heads)
        for atom in members[0].guard])
    steps, writes = [], []
    for t in sorted(region.triggers, key=edge_key):
        if t.effect is None:
            continue
        kind = getattr(tmap.get(t.dst.thimac), "kind", None)
        steps.append((_guard_checks(t.guard), t.dst.thimac, t.effect, kind))
        if t.effect in _FLAG_EFFECTS or (
                t.effect in _TIMER_EFFECTS and kind is ThimacKind.TIMER):
            writes.append(("store", t.dst.thimac))
    return EventInfo(event, region, paths, reason, mode, progress_thimac,
                     progress_target, gates, tuple(steps), flow,
                     frozenset(writes))


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------


def _program_source(bundle: "ModelBundle") -> tuple:
    """What a program compiles besides the model: events, behavior,
    priority and each override with its type, since `1 == True` and a
    flag may start at one but not the other."""
    return (bundle.events, bundle.behavior, bundle.priority,
            {tid: (type(value), value)
             for tid, value in bundle.initial.items()})


class Program:
    """A bundle compiled, all but its schedule, by `compile`: the event
    analyses, priority ranks, chronology successors as (id, co-fires?,
    carries the subject?) per event, the events to pend when a token
    lands in a thimac or a timer runs out, where a token injected into a
    thimac lands (receive, else release), `places`, each (thimac, stage)
    a token may rest at, and `starts`, each store's start.  `ticks` is
    the engine's tick table, filled as bundles sharing the program run,
    and `tick_places` counts the places it holds; like every table here
    it holds no model, bundle or program, so no cycle forms.  Raises
    TmError as `compile` unless the model records a clean verdict."""

    def __init__(self, bundle: "ModelBundle"):
        model = bundle.model
        self.source = _program_source(bundle)
        if model.__dict__.get("_verdict") != self.source:
            _raise_first_error(replace(bundle, schedule=()))
        self.thimacs = model._by_id
        self.starts = MappingProxyType({
            tid: bundle.initial.get(tid, t.start)
            for tid, t in self.thimacs.items() if t.is_store})
        events = bundle.event_map()
        self.priority = {eid: i for i, eid in enumerate(bundle.priority_order())}
        self.info = {}
        self.injection_events: dict = {}
        self.expiry_events: dict = {}
        receive, release = ActionKind.RECEIVE, ActionKind.RELEASE
        self.landing = {
            t.id: receive if receive in t.effective_actions else release
            for t in model.thimacs if injection_problem(t, t.id) is None}
        self.places = frozenset([
            (t.id, stage) for t in model.thimacs if t.kind in TOKEN_KINDS
            for stage in t.actions if stage in STAGE_DEPTH])
        successor = {}
        for eid, event in events.items():
            info = self.info[eid] = model.event_info(event)
            successor[eid] = (eid, event.bookkeeping,
                              info.mode is not SubjectMode.SUBJECTLESS)
            for tid in {ref.thimac for ref in event.region}:
                self.injection_events.setdefault(tid, []).append(eid)
            for tr in info.region.triggers:
                for atom in tr.guard:
                    if isinstance(atom, TimerExpired):
                        self.expiry_events.setdefault(atom.timer, {})[eid] = None
        self.successors = {
            src: tuple([successor[dst] for dst in dsts])
            for src, dsts in successor_table(bundle.behavior).items()}
        self.ticks: dict = {}
        self.tick_places = 0


def compile(bundle: "ModelBundle") -> Program:
    """The bundle's program, built once in linear time and shared by all
    bundles equal but for their schedules, such as
    `dataclasses.replace(bundle, schedule=...)`.  Raises TmError with
    `validate_model`'s first error in all but the schedule."""
    return bundle._program


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# Which store kind each effect may target.
EFFECT_TARGETS = {
    Effect.INC: (ThimacKind.COUNTER,),
    Effect.DEC: (ThimacKind.COUNTER,),
    Effect.SET: (ThimacKind.FLAG,),
    Effect.CLEAR: (ThimacKind.FLAG,),
    Effect.RESET: (ThimacKind.COUNTER, ThimacKind.TIMER),
    Effect.START: (ThimacKind.TIMER,),
}


def validate_model(bundle, file: str = "<model>", positions=None):
    """Structural checks; returns a list of Diagnostics.

    Accepts either a ModelBundle or a bare StaticModel (wiring checks
    only).  `positions`, when given, is read only through
    `positions.get(key, (0, 0))`: it maps entity keys such as
    ("thimac", id), ("flow", index), ("trigger", index), ("event", id),
    ("behavior", index), ("priority", index), ("initial", id),
    ("schedule", index) to (line, col) pairs so parsed models report
    source locations.  `dsl.parse` passes an object that finds a place
    only when a diagnostic asks for it.  Names must be identifiers as
    the text format reads them (an empty model name stands for
    `unnamed`).  A clean verdict on all but the schedule is kept for
    `compile`.
    """
    # the text format's lexical rules live in dsl, which imports this module
    from .dsl import GUARD_WORDS, ends_in_action, is_identifier

    if isinstance(bundle, StaticModel):
        bundle = ModelBundle(model=bundle)
    diags = []
    positions = positions or {}

    def emit(key, code, message, severity=SEV_ERROR):
        line, col = positions.get(key, (0, 0))
        diags.append(Diagnostic(file, line, col, code, message, severity))

    model = bundle.model
    if model.name and not is_identifier(model.name):
        emit(("model", model.name), E_SYNTAX,
             f"model name {model.name!r} is not an identifier")
    tmap = {}
    for t in model.thimacs:
        key = ("thimac", t.id)
        if not is_identifier(t.id):
            emit(key, E_SYNTAX, f"thimac id {t.id!r} is not an identifier")
        elif ends_in_action(t.id):
            emit(key, E_SYNTAX,
                 f"thimac id {t.id!r} must not end in an action name")
        elif t.is_store and t.id in GUARD_WORDS:
            emit(key, E_SYNTAX, f"store id {t.id!r} is a guard word")
        if t.id in tmap:
            emit(key, E_DUP_ID, f"duplicate thimac id {t.id}")
            continue
        tmap[t.id] = t
        if t.kind == ThimacKind.COUNTER and t.lo > t.hi:
            emit(key, E_COUNTER_RANGE,
                 f"counter {t.id} has empty range {t.lo}..{t.hi}")
        elif t.is_store:
            problem = initial_problem(t, t.id, t.start)
            if problem is not None:
                emit(key, *problem)

    # a token-bearing thimac's block flag must be a flag
    for t in tmap.values():
        blocker = tmap.get(block_flag_id(t.id))
        if (t.kind in TOKEN_KINDS and blocker is not None
                and blocker.kind != ThimacKind.FLAG):
            emit(("thimac", blocker.id), E_UNRESOLVED_REF,
                 f"{blocker.id} must be a flag: it is the block flag of "
                 f"{t.kind.value} {t.id}")

    def resolve(ref: ActionRef, key) -> bool:
        problem = ref_problem(tmap, ref)
        if problem is not None:
            emit(key, E_UNRESOLVED_REF, problem)
        return problem is None

    for i, f in enumerate(model.flows):
        key = ("flow", i)
        ok = resolve(f.src, key) & resolve(f.dst, key)
        if not ok:
            continue
        if f.src.action not in (ActionKind.RELEASE, ActionKind.TRANSFER):
            emit(key, E_FLOW_ENDPOINTS,
                 f"flow source {f.src} must be a release or transfer action")
        if f.dst.action not in (ActionKind.TRANSFER, ActionKind.RECEIVE):
            emit(key, E_FLOW_ENDPOINTS,
                 f"flow target {f.dst} must be a transfer or receive action")

    def check_guard(guard: Guard, key):
        for atom in guard:
            if isinstance(atom, CounterCmp):
                t = tmap.get(atom.counter)
                if t is None or t.kind != ThimacKind.COUNTER:
                    emit(key, E_UNRESOLVED_REF,
                         f"guard compares {atom.counter} which is not a counter")
                elif atom.op not in COMPARE_OPS:
                    emit(key, E_SYNTAX, f"bad comparison operator {atom.op}")
                elif not _is_int(atom.value):
                    emit(key, E_SYNTAX, f"guard compares {atom.counter} "
                                        f"with {atom.value!r}, not an integer")
            elif isinstance(atom, FlagTest):
                t = tmap.get(atom.flag)
                if t is None or t.kind != ThimacKind.FLAG:
                    emit(key, E_UNRESOLVED_REF,
                         f"guard tests {atom.flag} which is not a flag")
            elif isinstance(atom, TimerExpired):
                t = tmap.get(atom.timer)
                if t is None or t.kind != ThimacKind.TIMER:
                    emit(key, E_UNRESOLVED_REF,
                         f"guard expects {atom.timer} to be a timer")

    for i, tr in enumerate(model.triggers):
        key = ("trigger", i)
        ok = resolve(tr.src, key) & resolve(tr.dst, key)
        if ok and tr.effect is not None:
            target = tmap[tr.dst.thimac]
            if target.kind not in EFFECT_TARGETS[tr.effect]:
                wanted = " or ".join(k.value for k in EFFECT_TARGETS[tr.effect])
                emit(key, E_BAD_EFFECT,
                     f"effect {tr.effect.value} needs a {wanted} target, "
                     f"got {target.kind.value} {tr.dst.thimac}")
        check_guard(tr.guard, key)

    emap = {}
    for e in bundle.events:
        key = ("event", e.id)
        if not is_identifier(e.id):
            emit(key, E_SYNTAX, f"event id {e.id!r} is not an identifier")
        if e.id in emap:
            emit(key, E_DUP_ID, f"duplicate event id {e.id}")
            continue
        emap[e.id] = e
        if not e.region:
            emit(key, E_EMPTY_REGION, f"event {e.id} has an empty region")
            continue
        unresolved = [ref for ref in e.region
                      if ref_problem(tmap, ref) is not None]
        for ref in sorted(unresolved, key=str):
            resolve(ref, key)
        if not unresolved:
            info = model.event_info(e)
            if info.paths is None:
                emit(key, E_REGION_FLOWS, f"event {e.id}: {info.reason}")

    for i, (src, dst) in enumerate(bundle.behavior):
        key = ("behavior", i)
        for eid in (src, dst):
            if eid not in emap:
                emit(key, E_UNRESOLVED_REF, f"chronology names unknown event {eid}")

    seen_prio = set()
    for i, eid in enumerate(bundle.priority):
        key = ("priority", i)
        if eid not in emap:
            emit(key, E_UNRESOLVED_REF, f"priority names unknown event {eid}")
        elif eid in seen_prio:
            emit(key, E_DUP_ID, f"event {eid} listed twice in priority")
        seen_prio.add(eid)
    if bundle.priority:
        missing = [e.id for e in bundle.events if e.id not in seen_prio]
        if missing:
            emit(("priority", len(bundle.priority)), E_UNRESOLVED_REF,
                 f"priority omits {', '.join(missing)}", SEV_WARNING)

    for tid, value in sorted(bundle.initial.items()):
        problem = initial_problem(tmap.get(tid), tid, value)
        if problem is not None:
            emit(("initial", tid), *problem)
    if not has_errors(diags):
        model.__dict__["_verdict"] = _program_source(bundle)

    labels = set()
    for i, inj in enumerate(bundle.schedule):
        key = ("schedule", i)
        if inj.label in labels:
            emit(key, E_DUP_ID, f"token label {inj.label!r} injected twice")
        labels.add(inj.label)
        problem = injection_problem(tmap.get(inj.thimac), inj.thimac)
        if problem is not None:
            emit(key, *problem)
        if not _is_int(inj.tick):
            emit(key, E_SYNTAX, f"injection tick must be an integer, got {inj.tick!r}")
        elif inj.tick < 1:
            emit(key, E_SYNTAX, f"injection tick must be at least 1, got {inj.tick}")

    return diags


def _is_int(value) -> bool:
    """Whether `value` is an integer as the text format writes one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _raise_first_error(bundle):
    """Raise `validate_model`'s first error for `bundle` as TmError."""
    for d in validate_model(bundle):
        if d.severity == SEV_ERROR:
            raise TmError(d.code, d.message)


def injection_problem(t: Optional[Thimac], tid: str):
    """(code, message) when no token can be injected into thimac `tid`,
    declared as `t` (None when undeclared); None when one can."""
    if t is None or t.kind not in TOKEN_KINDS:
        return E_UNRESOLVED_REF, f"cannot inject into {tid}: not a token thimac"
    if not (t.effective_actions & {ActionKind.RECEIVE, ActionKind.RELEASE}):
        return (E_UNRESOLVED_REF,
                f"cannot inject into {tid}: no receive or release action")
    return None


def initial_problem(t: Optional[Thimac], tid: str, value):
    """(code, message) when store `tid`, declared as `t` (None when
    undeclared), cannot start at `value`; None when it can."""
    if t is None or t.kind not in STORE_KINDS:
        return E_UNRESOLVED_REF, f"initial override targets {tid} which is not a store"
    if t.kind == ThimacKind.FLAG:
        if not isinstance(value, bool):
            return E_SYNTAX, f"flag {tid} must start true or false"
    elif not _is_int(value):
        return E_SYNTAX, f"{t.kind.value} {tid} must start at an integer"
    elif t.kind == ThimacKind.COUNTER and not (t.lo <= value <= t.hi):
        return E_COUNTER_RANGE, f"counter {tid} initial value {value} outside {t.lo}..{t.hi}"
    elif t.kind == ThimacKind.TIMER and value < 1:
        return E_COUNTER_RANGE, f"timer {tid} duration must be at least 1"
    return None


_id_key = attrgetter("id")


def canonical_model(thimacs, flows, triggers, name: str) -> StaticModel:
    """The static model with thimacs ordered by id and edges by their
    `sort_key`, the order of canonical form."""
    return StaticModel(sorted(thimacs, key=_id_key),
                       sorted(flows, key=edge_key),
                       sorted(triggers, key=edge_key), name)


def canonicalize(bundle: ModelBundle) -> ModelBundle:
    """Normal form: everything sorted, priority spelled out in full, an
    empty model name spelled `unnamed`."""
    m = bundle.model
    return ModelBundle(
        model=canonical_model(m.thimacs, m.flows, m.triggers,
                              m.name or "unnamed"),
        events=sorted(bundle.events, key=_id_key),
        behavior=sorted(bundle.behavior),
        priority=bundle.priority_order(),
        initial=dict(sorted(bundle.initial.items())),
        schedule=sorted(bundle.schedule,
                        key=lambda i: (i.tick, i.thimac, i.label)),
    )
