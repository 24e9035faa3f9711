"""Finite-state machines as thing-machine bundles.

A state machine file declares states, one initial state, and labeled
transitions, optionally gated by a flag:

    fsm door
    state Closed
    state Opened
    initial Closed
    trans Closed -> Opened on Open
    trans Opened -> Closed on Close when doorwayEmpty

The generated bundle represents each state as a full five-action thimac
`st.<State>` holding the machine's single token; each transition label
becomes a stimulus source `stim.<Label>` whose tokens drain into a
shared `used` sink.  A transition event moves the state token from the
old state to the new one and consumes one stimulus, authorized by a
signal trigger from the stimulus onto the old state's release (guarded
when the transition is).  State events progress the token to the
state's process stage, so the machine answers the next stimulus only
after it has settled.  The schedule seeds the initial state with one
token at tick 1.

`project_states` goes the other way: given a claimed mapping from
states to regions of an arbitrary bundle, it reports how well each
region behaves as a state (size, class, connectedness) and where the
mapping is incomplete or overlapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dsl import UnreadableInput, read_text
from .model import (
    ActionKind,
    ActionRef,
    Diagnostic,
    E_NO_INITIAL,
    E_SYNTAX,
    E_UNRESOLVED_REF,
    Event,
    EventClass,
    FlagTest,
    FlowEdge,
    Injection,
    ModelBundle,
    StaticModel,
    Thimac,
    ThimacKind,
    TmError,
    TriggerEdge,
    classify_event,
    extract_region,
    has_errors,
    validate_model,
)

_ACTION_NAMES = frozenset(a.value for a in ActionKind)

_FIVE = frozenset(ActionKind)
_SOURCE_ACTS = frozenset({ActionKind.RELEASE, ActionKind.TRANSFER})
_SINK_ACTS = frozenset({ActionKind.TRANSFER, ActionKind.RECEIVE})


@dataclass(frozen=True)
class FsmTransition:
    src: str
    dst: str
    label: str
    guard: Optional[str] = None


@dataclass(frozen=True)
class FsmSpec:
    name: str
    states: tuple
    initial: str
    transitions: tuple


@dataclass(frozen=True)
class FsmParseResult:
    spec: Optional[FsmSpec]
    diagnostics: tuple

    @property
    def ok(self) -> bool:
        return self.spec is not None


def parse_fsm(text: str, file: str = "<fsm>") -> FsmParseResult:
    """Line-based parse; returns an FsmSpec or positioned diagnostics."""
    diags = []
    name = None
    states = []
    initial = None
    raw_transitions = []

    def bad(lineno, message):
        diags.append(Diagnostic(file, lineno, 1, E_SYNTAX, message))

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        words = stripped.split()
        head = words[0]
        if head == "fsm":
            if len(words) != 2:
                bad(lineno, "expected: fsm NAME")
            elif name is not None:
                bad(lineno, "fsm declared twice")
            else:
                name = words[1]
        elif head == "state":
            if len(words) != 2:
                bad(lineno, "expected: state NAME")
            elif words[1] in states:
                bad(lineno, f"state {words[1]} declared twice")
            else:
                states.append(words[1])
        elif head == "initial":
            if len(words) != 2:
                bad(lineno, "expected: initial NAME")
            elif initial is not None:
                bad(lineno, "initial declared twice")
            else:
                initial = (words[1], lineno)
        elif head == "trans":
            if (len(words) not in (6, 8) or words[2] != "->"
                    or words[4] != "on"
                    or (len(words) == 8 and words[6] != "when")):
                bad(lineno, "expected: trans FROM -> TO on LABEL"
                            " [when FLAG]")
            else:
                guard = words[7] if len(words) == 8 else None
                raw_transitions.append(
                    (words[1], words[3], words[5], guard, lineno))
        else:
            bad(lineno, f"unknown directive {head!r}")

    if name is None and not diags:
        diags.append(Diagnostic(file, 1, 1, E_SYNTAX,
                                "missing fsm header"))
    known = set(states)
    transitions = []
    for src, dst, label, guard, lineno in raw_transitions:
        missing = [s for s in (src, dst) if s not in known]
        for state in missing:
            diags.append(Diagnostic(file, lineno, 1, E_UNRESOLVED_REF,
                                    f"unknown state {state}"))
        if not missing:
            transitions.append(FsmTransition(src, dst, label, guard))
    if initial is not None and initial[0] not in known:
        diags.append(Diagnostic(file, initial[1], 1, E_UNRESOLVED_REF,
                                f"unknown state {initial[0]}"))
        initial = None
    if initial is None and not has_errors(diags):
        diags.append(Diagnostic(file, 1, 1, E_NO_INITIAL,
                                "no initial state declared"))
    if has_errors(diags):
        return FsmParseResult(None, tuple(diags))
    return FsmParseResult(
        FsmSpec(name, tuple(states), initial[0], tuple(transitions)),
        tuple(diags))


def parse_fsm_file(path) -> FsmParseResult:
    """`parse_fsm` on a file's text; bytes that are not UTF-8 give one
    positioned E_SYNTAX diagnostic."""
    try:
        text = read_text(path)
    except UnreadableInput as err:
        return FsmParseResult(None, (err.diagnostic,))
    return parse_fsm(text, file=str(path))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _safe(tid: str) -> str:
    # a trailing segment that reads as an action would wreck dotted refs
    last = tid.rpartition(".")[2]
    return tid + "_" if last in _ACTION_NAMES else tid


def _gerund(label: str) -> str:
    base = label.lower()
    if base.endswith("e"):
        base = base[:-1]
    return base + "ing"


def fsm_to_tm(spec: FsmSpec) -> ModelBundle:
    """Build and validate the thing-machine form of a state machine."""
    state_id = {s: _safe(f"st.{s}") for s in spec.states}
    labels = list(dict.fromkeys(t.label for t in spec.transitions))
    stim_id = {l: _safe(f"stim.{l}") for l in labels}
    guards = list(dict.fromkeys(t.guard for t in spec.transitions
                                if t.guard is not None))

    thimacs = [Thimac(state_id[s], ThimacKind.MACHINE, _FIVE)
               for s in spec.states]
    thimacs += [Thimac(stim_id[l], ThimacKind.SOURCE, _SOURCE_ACTS)
                for l in labels]
    thimacs.append(Thimac("used", ThimacKind.SINK, _SINK_ACTS))
    thimacs += [Thimac(g, ThimacKind.FLAG, init=True) for g in guards]

    def ref(tid, action):
        return ActionRef(tid, action)

    flows = []
    seen_flows = set()

    def flow(src, dst):
        edge = FlowEdge(src, dst)
        if edge not in seen_flows:
            seen_flows.add(edge)
            flows.append(edge)

    for t in spec.transitions:
        src, dst = state_id[t.src], state_id[t.dst]
        flow(ref(src, ActionKind.RELEASE), ref(src, ActionKind.TRANSFER))
        flow(ref(src, ActionKind.TRANSFER), ref(dst, ActionKind.RECEIVE))
    for l in labels:
        sid = stim_id[l]
        flow(ref(sid, ActionKind.RELEASE), ref(sid, ActionKind.TRANSFER))
        flow(ref(sid, ActionKind.TRANSFER), ref("used", ActionKind.TRANSFER))
    if labels:
        flow(ref("used", ActionKind.TRANSFER), ref("used", ActionKind.RECEIVE))

    triggers = []
    for t in spec.transitions:
        guard = (FlagTest(t.guard),) if t.guard else ()
        triggers.append(TriggerEdge(
            ref(stim_id[t.label], ActionKind.TRANSFER),
            ref(state_id[t.src], ActionKind.RELEASE),
            None, guard))

    used_ids = set()
    next_suffix = {}

    def unique(base):
        # suffixes below next_suffix[base] are taken for good, so the
        # search resumes there instead of rescanning from 2
        eid = base
        n = next_suffix.get(base, 2)
        while eid in used_ids:
            eid = f"{base}{n}"
            n += 1
        next_suffix[base] = n
        used_ids.add(eid)
        return eid

    events = []
    state_event = {}
    for s in spec.states:
        eid = unique(s.lower())
        state_event[s] = eid
        sid = state_id[s]
        events.append(Event(eid, frozenset({
            ref(sid, ActionKind.CREATE), ref(sid, ActionKind.PROCESS)}),
            f"resting in {s}"))
    behavior = []
    for t in spec.transitions:
        eid = unique(_gerund(t.label))
        src, dst = state_id[t.src], state_id[t.dst]
        sid = stim_id[t.label]
        events.append(Event(eid, frozenset({
            ref(src, ActionKind.RELEASE), ref(src, ActionKind.TRANSFER),
            ref(dst, ActionKind.RECEIVE),
            ref(sid, ActionKind.RELEASE), ref(sid, ActionKind.TRANSFER),
            ref("used", ActionKind.TRANSFER),
            ref("used", ActionKind.RECEIVE)}),
            f"{t.src} to {t.dst} on {t.label}"))
        behavior.append((state_event[t.src], eid))
        behavior.append((eid, state_event[t.dst]))

    bundle = ModelBundle(
        model=StaticModel(tuple(thimacs), tuple(flows), tuple(triggers),
                          spec.name),
        events=tuple(events),
        behavior=tuple(behavior),
        priority=tuple(e.id for e in events),
        initial={},
        schedule=(Injection(1, state_id[spec.initial], spec.name),),
    )
    problems = [d for d in validate_model(bundle) if d.severity == "error"]
    if problems:
        raise TmError(E_SYNTAX,
                      "generated bundle does not validate: "
                      + "; ".join(str(d) for d in problems))
    return bundle


# ---------------------------------------------------------------------------
# Projection reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateProjection:
    state: str
    refs: frozenset
    event_class: EventClass
    connected: bool
    suspicious: bool


@dataclass(frozen=True)
class ProjectionReport:
    entries: tuple
    unmapped: tuple
    overlaps: tuple


def _weakly_connected(region) -> bool:
    refs = set(region.actions)
    if len(refs) <= 1:
        return True
    neighbors = {r: set() for r in refs}
    for f in region.flows:
        neighbors[f.src].add(f.dst)
        neighbors[f.dst].add(f.src)
    for t in region.triggers:
        neighbors[t.src].add(t.dst)
        neighbors[t.dst].add(t.src)
    seen = set()
    stack = [next(iter(refs))]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(neighbors[node] - seen)
    return seen == refs


def project_states(spec: FsmSpec, bundle: ModelBundle,
                   mapping) -> ProjectionReport:
    """Judge a claimed state-to-region mapping over a bundle."""
    entries = []
    for state in spec.states:
        refs = mapping.get(state)
        if refs is None:
            continue
        region = extract_region(bundle.model, refs)
        cls = classify_event(region)
        entries.append(StateProjection(
            state, frozenset(region.actions), cls,
            _weakly_connected(region), cls == EventClass.GENERIC))
    unmapped = tuple(s for s in spec.states if s not in mapping)
    mapped = [s for s in spec.states if s in mapping]
    overlaps = []
    for i, a in enumerate(mapped):
        for b in mapped[i + 1:]:
            shared = frozenset(mapping[a]) & frozenset(mapping[b])
            if shared:
                overlaps.append((a, b, shared))
    return ProjectionReport(tuple(entries), unmapped, tuple(overlaps))


def parse_state_mapping(text: str, file: str = "<mapping>"):
    """`State = thimac.action, thimac.action` lines into a mapping."""
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise TmError(E_SYNTAX,
                          f"{file}:{lineno}: expected STATE = ref, ref")
        state, _, rest = stripped.partition("=")
        state = state.strip()
        refs = set()
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            thimac, _, action = part.rpartition(".")
            if not thimac or action not in _ACTION_NAMES:
                raise TmError(E_SYNTAX,
                              f"{file}:{lineno}: bad action ref {part!r}")
            refs.add(ActionRef(thimac, ActionKind(action)))
        if not refs:
            raise TmError(E_SYNTAX,
                          f"{file}:{lineno}: state {state} maps to nothing")
        mapping[state] = frozenset(refs)
    return mapping


def format_projection(report: ProjectionReport) -> str:
    lines = []
    for e in report.entries:
        shape = "generic" if e.event_class == EventClass.GENERIC \
            else "compound"
        link = "connected" if e.connected else "disconnected"
        note = " (suspicious: single action)" if e.suspicious else ""
        lines.append(f"{e.state}: {len(e.refs)} actions, {shape}, "
                     f"{link}{note}")
    for state in report.unmapped:
        lines.append(f"unmapped: {state}")
    for a, b, shared in report.overlaps:
        refs = ", ".join(sorted(str(r) for r in shared))
        lines.append(f"overlap: {a} and {b} share {refs}")
    return "\n".join(lines) + ("\n" if lines else "")
