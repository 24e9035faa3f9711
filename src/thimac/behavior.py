"""Analysis over runs: chronology conformance, state spaces, coverage.

The chronology (behavior graph) names which event may follow which for
one subject.  A trace conforms when every subject-bearing instance is
preceded, for its subject, by an instance its chronology points from;
bookkeeping instances count as predecessors but are not themselves
checked, and instances without a subject are skipped.

State enumeration is declarative: each component brings the domain it
may range over, and the product is walked lazily.  Reachable
configurations come from actually running the model under one or more
arrival schedules and projecting each configuration onto the declared
components, so the observed set can be held against the declared
product.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

from .model import (
    ActionKind,
    ActionRef,
    E_EMPTY_DOMAIN,
    E_UNRESOLVED_REF,
    ModelBundle,
    TOKEN_KINDS,
    ThimacKind,
    TmError,
    block_flag_id,
    cached_value,
    compile,
    successor_table,
)
from .engine import Configuration, _check_config, init, quiescent, step

MACHINE_IDLE = "idle"
MACHINE_BUSY = "busy"
MACHINE_BLOCKED = "blocked"

# enum members read once: reading one off its class in a loop costs
# about as much as the rest of a projection
_COUNTER, _FLAG, _TIMER = ThimacKind.COUNTER, ThimacKind.FLAG, ThimacKind.TIMER
_PROCESS = ActionKind.PROCESS


@dataclass(frozen=True)
class BehaviorGraph:
    """Chronology as a directed graph over event ids."""

    nodes: frozenset
    edges: frozenset

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self.edges

    def successors(self, src: str):
        return list(self._successors.get(src, ()))

    @cached_value
    def _successors(self) -> dict:
        return successor_table(self.edges)


def behavior_graph(bundle: ModelBundle) -> BehaviorGraph:
    return BehaviorGraph(frozenset(e.id for e in bundle.events),
                         frozenset(bundle.behavior))


@dataclass(frozen=True)
class Violation:
    """A subject stepped outside its chronology."""

    tick: int
    event: str
    subject: str
    prev_event: str
    prev_tick: int

    def __str__(self):
        return (f"tick {self.tick}: {self.event}/{self.subject} has no "
                f"chronology edge {self.prev_event} -> {self.event} "
                f"(predecessor fired at tick {self.prev_tick})")


def check_conformance(trace, graph: BehaviorGraph):
    """Violations of the chronology over a trace, in trace order.

    Tracks each subject's most recent instance; the next non-bookkeeping
    instance for that subject must sit at the end of a chronology edge
    from it.  Unknown events raise E_UNRESOLVED_REF.
    """
    last = {}
    violations = []
    for entry in trace:
        for f in entry.fired:
            if f.event not in graph.nodes:
                raise TmError(E_UNRESOLVED_REF,
                              f"trace names unknown event {f.event!r}")
            if f.subject is None:
                continue
            prev = last.get(f.subject)
            if (prev is not None and not f.bookkeeping
                    and not graph.has_edge(prev[0], f.event)):
                violations.append(Violation(entry.tick, f.event, f.subject,
                                            prev[0], prev[1]))
            last[f.subject] = (f.event, entry.tick)
    return violations


# ---------------------------------------------------------------------------
# State spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentStateDecl:
    """One named component and the values it may take: a tuple, or a
    `range` that `enumerate_states` counts without building it."""

    component: str
    domain: tuple | range


def enumerate_states(decls):
    """Declared product state space: (count, lazy tuple iterator).  A
    domain may be a `range`; the count reads only its ends (its len()
    stops at sys.maxsize), and the product is built on the first `next`."""
    decls = list(decls)
    if not decls:
        raise TmError(E_EMPTY_DOMAIN, "no components to enumerate")
    for d in decls:
        if not d.domain:
            raise TmError(E_EMPTY_DOMAIN,
                          f"component {d.component} has an empty domain")
    count = math.prod((d.domain[-1] - d.domain[0]) // d.domain.step + 1
                      if isinstance(d.domain, range) else len(d.domain)
                      for d in decls)
    return count, _product([d.domain for d in decls])


def _product(domains):
    yield from itertools.product(*domains)


def _busy(config: Configuration) -> set:
    """The thimacs where a token sits at the process action (a token
    that rests in a thimac is alive)."""
    return {tok.thimac for tok in config.tokens.values()
            if tok.stage is _PROCESS}


def machine_status(bundle: ModelBundle, config: Configuration,
                   thimac: str) -> str:
    """Blocked when the machine's block flag is raised, busy when a
    token sits at its process action, idle otherwise, as `project_config`
    projects it.  By convention the block flag of thimac `M` is the flag
    `M.block` (`validate_model` rejects an `M.block` of another kind);
    without one, never blocked.  Raises TmError (E_UNRESOLVED_REF) for
    an id that names no token thimac."""
    t = bundle.model.thimac_map().get(thimac)
    if t is None or t.kind not in TOKEN_KINDS:
        raise TmError(E_UNRESOLVED_REF,
                      f"{thimac!r} names no token thimac, so it has no status")
    return project_config(bundle, (thimac,), config)[0]


def project_config(bundle: ModelBundle, projection, config: Configuration):
    """Project a configuration onto named components, in declaration
    order: counters give their value, flags their truth, token-bearing
    thimacs their status (`machine_status`, from one scan of the
    tokens).  Unknown ids and timers raise TmError, as does a
    configuration that lacks a projected store, with `step`'s message.
    Each projection is planned once per model, as (kind, id, block flag
    id) per id."""
    projection = tuple(projection)
    plans = bundle.model._projections
    try:
        plan = plans.get(projection)
    except TypeError:       # an id that does not hash raises below
        plan = None
    if plan is None:
        tmap = bundle.model._by_id
        plan = []
        for tid in projection:
            t = tmap.get(tid)
            if t is None:
                raise TmError(E_UNRESOLVED_REF,
                              f"projection names unknown thimac {tid!r}")
            if t.kind is _TIMER:
                raise TmError(E_UNRESOLVED_REF,
                              f"projection names timer {tid!r}, which has no "
                              f"projected value")
            plan.append((t.kind, tid, block_flag_id(tid)))
        plans[projection] = plan
    counters, flags = config.counters, config.flags
    out = []
    busy = None
    try:
        for kind, tid, block in plan:
            if kind is _COUNTER:
                out.append(counters[tid])
            elif kind is _FLAG:
                out.append(flags[tid])
            elif flags.get(block):
                out.append(MACHINE_BLOCKED)
            else:
                if busy is None:
                    busy = _busy(config)
                out.append(MACHINE_BUSY if tid in busy else MACHINE_IDLE)
    except KeyError:
        # checked only on a failed read, so a projection pays no check
        _check_config(compile(bundle), config)
        raise
    return tuple(out)


def reachable_configs(bundle: ModelBundle, projection, max_ticks=None,
                      schedules=None):
    """Projected configurations observed over runs.

    Each schedule replaces the bundle's own (None runs the bundle's
    schedule once); every run contributes its initial projection and one
    per completed tick.  An empty schedule collection observes nothing.
    """
    if schedules is None:
        schedules = (bundle.schedule,)
    seen = set()
    for sched in schedules:
        b = dataclasses.replace(bundle, schedule=sched)
        cfg = init(b)
        seen.add(project_config(b, projection, cfg))
        while not quiescent(b, cfg):
            if max_ticks is not None and cfg.tick >= max_ticks:
                break
            cfg, _entry = step(b, cfg)
            seen.add(project_config(b, projection, cfg))
    return seen


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------


def event_coverage(bundle: ModelBundle):
    """Static split of the model's actions into those inside some event
    region and those no event touches."""
    covered = set()
    for event in bundle.events:
        covered.update(event.region)
    everything = set()
    for t in bundle.model.thimacs:
        for action in t.effective_actions:
            everything.add(ActionRef(t.id, action))
    uncovered = everything - covered
    return frozenset(covered & everything), frozenset(uncovered)
