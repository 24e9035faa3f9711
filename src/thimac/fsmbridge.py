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
from typing import NamedTuple, Optional

from .dsl import (GUARD_WORDS, UnreadableInput, ends_in_action, lex_lines,
                  read_ref, read_text)
from .model import (
    ACTION_ORDER,
    ActionKind,
    ActionRef,
    Diagnostic,
    E_DUP_ID,
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
    block_flag_id,
    canonical_model,
    classify_event,
    extract_region,
    has_errors,
    validate_model,
)

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


# The words after each directive: None marks a name, a string the literal
# word; a `trans` line may stop after its label.
_SHAPES = {
    "fsm": ("fsm NAME", (None,)),
    "state": ("state NAME", (None,)),
    "initial": ("initial NAME", (None,)),
    "trans": ("trans FROM -> TO on LABEL [when FLAG]",
              (None, "->", None, "on", None, "when", None)),
}


def _misfit(head, words, shape):
    """The first of a line's `words` that breaks `shape`, or an empty
    token just past the line when it ends early; None when it fits."""
    for tok, want in zip(words, shape):
        fits = tok.kind == "ident" if want is None else tok.text == want
        if not fits:
            return tok
    if len(words) > len(shape):
        return words[len(shape)]
    if len(words) < len(shape):
        last = (words or [head])[-1]
        return last._replace(kind="eol", text="", col=last.col + len(last.text))
    return None


def parse_fsm(text: str, file: str = "<fsm>") -> FsmParseResult:
    """Line-based parse; returns an FsmSpec or positioned diagnostics.
    Names are model identifiers, and comments and whitespace follow the
    model format.  A guard flag may not be a thimac id `fsm_to_tm`
    generates, a guard word, or a name ending in an action; no two
    states or labels may import as one thimac id, nor one as the
    `.block` flag id of another."""
    lines, diags = lex_lines(text, file)
    once = {}       # the fsm and initial lines' name tokens
    states = {}
    raw_transitions = []

    def bad(tok, message, code=E_SYNTAX):
        diags.append(Diagnostic(file, tok.line, tok.col, code, message))

    for head, *words in lines:
        usage, shape = _SHAPES.get(head.text, (None, ()))
        if usage is None:
            bad(head, f"unknown directive {head.text!r}")
            continue
        misfit = _misfit(head, words, shape if len(words) > 5 else shape[:5])
        if misfit is not None:
            bad(misfit, f"expected: {usage}")
        elif head.text == "trans":
            raw_transitions.append(words)
        elif head.text == "state":
            if words[0].text in states:
                bad(words[0], f"state {words[0].text} declared twice")
            states.setdefault(words[0].text, words[0])
        elif head.text in once:
            bad(head, f"{head.text} declared twice")
        else:
            once[head.text] = words[0]

    if "fsm" not in once and not diags:
        diags.append(Diagnostic(file, 1, 1, E_SYNTAX, "missing fsm header"))
    labels = {}     # each label's first token
    for words in raw_transitions:
        labels.setdefault(words[4].text, words[4])
    state_id, stim_id = _thimac_ids(states, labels)
    # the token thimac ids generated must differ, and none may be
    # `M.block`, the id of a thimac M's block flag, which must be a flag
    made = [(kind, name, ids[name], toks[name]) for kind, ids, toks in (
        ("state", state_id, states), ("label", stim_id, labels))
        for name in toks]
    owner = {}      # each generated token thimac id -> its first name
    for kind, name, tid, tok in made:
        if tid in owner:
            bad(tok, f"{kind} {name} imports as {tid}, as does {kind} "
                     f"{owner[tid]}", E_DUP_ID)
        owner.setdefault(tid, name)
    blocked = {block_flag_id(tid): name for tid, name in owner.items()}
    for kind, name, tid, tok in made:
        if tid in blocked:
            bad(tok, f"{kind} {name} imports as {tid}, the block flag id "
                     f"of {kind} {blocked[tid]}", E_DUP_ID)
    generated = {_USED, *owner}     # ids no guard flag may take
    transitions = []
    for src, _arrow, dst, _on, label, *when in raw_transitions:
        missing = [s for s in (src, dst) if s.text not in states]
        for state in missing:
            bad(state, f"unknown state {state.text}", E_UNRESOLVED_REF)
        problem = _guard_problem(when[1].text, generated) if when else None
        if problem is not None:
            bad(when[1], problem[1], problem[0])
        elif not missing:
            guard = when[1].text if when else None
            transitions.append(FsmTransition(src.text, dst.text, label.text,
                                             guard))
    initial = once.get("initial")
    if initial is not None and initial.text not in states:
        bad(initial, f"unknown state {initial.text}", E_UNRESOLVED_REF)
        initial = None
    if initial is None and not has_errors(diags):
        diags.append(Diagnostic(file, 1, 1, E_NO_INITIAL,
                                "no initial state declared"))
    if has_errors(diags):
        return FsmParseResult(None, tuple(diags))
    return FsmParseResult(FsmSpec(once["fsm"].text, tuple(states),
                                  initial.text, tuple(transitions)),
                          tuple(diags))


def _guard_problem(flag: str, generated):
    """(code, message) when a guard flag may not take the id `flag`,
    which must not be one of the `generated` thimac ids and must pass
    the model's store id rules; None when it may."""
    if flag in generated:
        return E_DUP_ID, f"guard flag {flag} is also a generated thimac id"
    if flag in GUARD_WORDS:
        return E_SYNTAX, f"guard flag {flag!r} is a guard word"
    if ends_in_action(flag):
        return E_SYNTAX, f"guard flag {flag!r} must not end in an action name"
    return None


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
    return tid + "_" if ends_in_action(tid) else tid


# The sink every stimulus drains into.
_USED = "used"


def _thimac_ids(states, labels):
    """The ids of each state's machine and each label's stimulus source
    in the generated bundle, as two dicts."""
    return ({s: _safe(f"st.{s}") for s in states},
            {l: _safe(f"stim.{l}") for l in labels})


def _gerund(label: str) -> str:
    base = label.lower()
    if base.endswith("e"):
        base = base[:-1]
    return base + "ing"


class _Refs(NamedTuple):
    """One thimac's five action references, made once."""

    create: ActionRef
    process: ActionRef
    release: ActionRef
    transfer: ActionRef
    receive: ActionRef


def _refs(tid: str) -> _Refs:
    return _Refs(*(ActionRef(tid, action) for action in ACTION_ORDER))


def fsm_to_tm(spec: FsmSpec) -> ModelBundle:
    """Build and validate the thing-machine form of a state machine.
    Thimacs, flows and triggers come in canonical order, so the model
    equals its own reparse and shares its event analyses with it;
    events keep generation order: states first, then one event per
    transition, in declaration order."""
    labels = list(dict.fromkeys(t.label for t in spec.transitions))
    state_id, stim_id = _thimac_ids(spec.states, labels)
    guards = list(dict.fromkeys(t.guard for t in spec.transitions
                                if t.guard is not None))

    thimacs = [Thimac(state_id[s], ThimacKind.MACHINE, _FIVE)
               for s in spec.states]
    thimacs += [Thimac(stim_id[l], ThimacKind.SOURCE, _SOURCE_ACTS)
                for l in labels]
    thimacs.append(Thimac(_USED, ThimacKind.SINK, _SINK_ACTS))
    thimacs += [Thimac(g, ThimacKind.FLAG, init=True) for g in guards]

    st = {s: _refs(state_id[s]) for s in spec.states}
    stim = {l: _refs(stim_id[l]) for l in labels}
    used = _refs(_USED)

    # source -> target, each pair once, in first-seen order
    pairs = {}
    for t in spec.transitions:
        src, dst = st[t.src], st[t.dst]
        pairs[src.release, src.transfer] = None
        pairs[src.transfer, dst.receive] = None
    for l in labels:
        pairs[stim[l].release, stim[l].transfer] = None
        pairs[stim[l].transfer, used.transfer] = None
    if labels:
        pairs[used.transfer, used.receive] = None
    flows = [FlowEdge(src, dst) for src, dst in pairs]

    triggers = []
    for t in spec.transitions:
        guard = (FlagTest(t.guard),) if t.guard else ()
        triggers.append(TriggerEdge(stim[t.label].transfer,
                                    st[t.src].release, None, guard))

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
        events.append(Event(eid, frozenset({st[s].create, st[s].process}),
                            f"resting in {s}"))
    behavior = []
    for t in spec.transitions:
        eid = unique(_gerund(t.label))
        src, dst, sid = st[t.src], st[t.dst], stim[t.label]
        events.append(Event(eid, frozenset({
            src.release, src.transfer, dst.receive,
            sid.release, sid.transfer, used.transfer, used.receive}),
            f"{t.src} to {t.dst} on {t.label}"))
        behavior.append((state_event[t.src], eid))
        behavior.append((eid, state_event[t.dst]))

    bundle = ModelBundle(
        model=canonical_model(thimacs, flows, triggers, spec.name),
        events=events,
        behavior=behavior,
        priority=[e.id for e in events],
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
    """`State = thimac.action, thimac.action` lines into a mapping.
    Raises TmError (E_SYNTAX) at FILE:LINE:COL of the first problem."""
    lines, diags = lex_lines(text, file)

    def bad(tok, message):
        raise TmError(E_SYNTAX, f"{file}:{tok.line}:{tok.col}: {message}")

    if diags:
        bad(diags[0], diags[0].message)

    mapping = {}
    for state, *rest in lines:
        if state.kind != "ident":
            bad(state, "expected STATE = ref, ref")
        eq = rest[0] if rest else state
        if eq.text != "=":
            bad(eq, "expected STATE = ref, ref")
        if state.text in mapping:
            bad(state, f"state {state.text} mapped twice")
        refs = set()
        for tok in rest[1:]:
            if tok.kind == "comma":
                continue
            ref = read_ref(tok.text) if tok.kind == "ident" else None
            if ref is None:
                bad(tok, f"bad action ref {tok.text!r}")
            refs.add(ref)
        if not refs:
            bad(state, f"state {state.text} maps to nothing")
        mapping[state.text] = frozenset(refs)
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
