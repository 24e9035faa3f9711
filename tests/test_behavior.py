"""Conformance, state spaces, reachability, coverage."""

from pathlib import Path

import pytest

from thimac import (
    ActionKind,
    ActionRef,
    TmError,
    E_EMPTY_DOMAIN,
    E_UNRESOLVED_REF,
)
from thimac.behavior import (
    BehaviorGraph,
    ComponentStateDecl,
    MACHINE_BLOCKED,
    MACHINE_BUSY,
    MACHINE_IDLE,
    Violation,
    behavior_graph,
    check_conformance,
    enumerate_states,
    event_coverage,
    machine_status,
    project_config,
    reachable_configs,
)
from thimac.dsl import parse_file
from thimac.engine import FiredEvent, TraceEntry, init, run, step

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ASSEMBLY_DECLS = [
    ComponentStateDecl("B1", (0, 1, 2, 3)),
    ComponentStateDecl("M1", (MACHINE_IDLE, MACHINE_BUSY, MACHINE_BLOCKED)),
    ComponentStateDecl("B2", (0, 1, 2, 3)),
    ComponentStateDecl("M2", (MACHINE_IDLE, MACHINE_BUSY)),
]

ASSEMBLY_PROJECTION = {"B1.count": "B1", "M1": "M1",
                       "B2.count": "B2", "M2": "M2"}


def assembly():
    result = parse_file(FIXTURES / "assembly_line.tm")
    assert result.bundle is not None
    return result.bundle


def mutate(trace):
    """Drop one pickup and slide the next work step a tick early, so a
    single subject skips a chronology hop."""
    t2, t3 = trace[1], trace[2]
    moved = next(f for f in t3.fired if f.event == "E6")
    new_t2 = TraceEntry(t2.tick, tuple(
        moved if f.event == "E5" else f for f in t2.fired))
    new_t3 = TraceEntry(t3.tick, tuple(
        f for f in t3.fired if f.event != "E6"))
    return [trace[0], new_t2, new_t3] + list(trace[3:])


# --- chronology graph --------------------------------------------------------

def test_behavior_graph_shape():
    g = behavior_graph(assembly())
    assert len(g.nodes) == 13
    assert len(g.edges) == 16
    assert g.successors("E1") == ["E2", "E3", "E5"]
    assert g.has_edge("E12", "E13")
    assert not g.has_edge("E13", "E1")


def test_golden_trace_conforms():
    b = assembly()
    _cfg, trace = run(b, max_ticks=10)
    assert check_conformance(trace, behavior_graph(b)) == []


def test_full_run_conforms():
    b = assembly()
    _cfg, trace = run(b)
    assert check_conformance(trace, behavior_graph(b)) == []


def test_mutated_trace_has_one_violation():
    b = assembly()
    _cfg, trace = run(b, max_ticks=10)
    bad = mutate(trace)
    violations = check_conformance(bad, behavior_graph(b))
    assert len(violations) == 1
    v = violations[0]
    assert (v.tick, v.event, v.subject) == (2, "E6", "S1")
    # the displaced instance now follows the bookkeeping count signal
    assert v.prev_event == "E3"
    assert v.prev_tick == 1
    assert "E3 -> E6" in str(v)


def test_conformance_is_monotone():
    b = assembly()
    _cfg, trace = run(b, max_ticks=10)
    bad = mutate(trace)
    g = behavior_graph(b)
    full = check_conformance(bad, g)
    for k in range(len(bad) + 1):
        prefix = check_conformance(bad[:k], g)
        assert set(prefix) <= set(full)


def test_unknown_event_rejected():
    g = behavior_graph(assembly())
    trace = [TraceEntry(1, (FiredEvent("E99", "S1"),))]
    with pytest.raises(TmError) as err:
        check_conformance(trace, g)
    assert err.value.code == E_UNRESOLVED_REF


def test_subjectless_instances_skipped():
    g = BehaviorGraph(frozenset({"a", "b"}), frozenset())
    trace = [TraceEntry(1, (FiredEvent("a", None),)),
             TraceEntry(2, (FiredEvent("b", None),))]
    assert check_conformance(trace, g) == []


def test_bookkeeping_checked_as_predecessor_only():
    g = BehaviorGraph(frozenset({"a", "k", "b"}),
                      frozenset({("k", "b")}))
    trace = [TraceEntry(1, (FiredEvent("a", "s"),
                            FiredEvent("k", "s", True))),
             TraceEntry(2, (FiredEvent("b", "s"),))]
    # k fires off-chronology but is bookkeeping; b follows k's edge
    assert check_conformance(trace, g) == []


# --- declared state space ----------------------------------------------------

def test_enumerate_product_count():
    count, states = enumerate_states(ASSEMBLY_DECLS)
    listed = list(states)
    # 4 * 3 * 4 * 2 = 96
    assert count == 96
    assert len(listed) == 96
    assert listed[0] == (0, MACHINE_IDLE, 0, MACHINE_IDLE)
    assert len(set(listed)) == 96


def test_enumerate_is_lazy():
    _count, states = enumerate_states(ASSEMBLY_DECLS)
    assert next(states) == (0, MACHINE_IDLE, 0, MACHINE_IDLE)


def test_enumerate_takes_a_range_domain():
    count, states = enumerate_states([ComponentStateDecl("x", range(3)),
                                      ComponentStateDecl("y", ("a", "b"))])
    assert count == 6
    assert list(states) == [(0, "a"), (0, "b"), (1, "a"), (1, "b"),
                            (2, "a"), (2, "b")]


def test_enumerate_rejects_empty_domain():
    with pytest.raises(TmError) as err:
        enumerate_states([ComponentStateDecl("x", ())])
    assert err.value.code == E_EMPTY_DOMAIN
    with pytest.raises(TmError) as err:
        enumerate_states([])
    assert err.value.code == E_EMPTY_DOMAIN


# --- projection and reachability ----------------------------------------------

def test_machine_status_blocked_wins():
    b = assembly()
    cfg = init(b)
    assert machine_status(b, cfg, "M1") == MACHINE_IDLE
    cfg.flags["M1.block"] = True
    assert machine_status(b, cfg, "M1") == MACHINE_BLOCKED


@pytest.mark.parametrize("fixture, tid", [
    ("assembly_line.tm", "nope"), ("assembly_line.tm", "B1.count"),
    ("assembly_line.tm", "M1.block"), ("phone_line.tm", "dial.timer")],
    ids=["unknown", "counter", "flag", "timer"])
def test_machine_status_needs_a_token_thimac(fixture, tid):
    # each once answered idle
    b = parse_file(FIXTURES / fixture).bundle
    with pytest.raises(TmError) as err:
        machine_status(b, init(b), tid)
    assert (err.value.code, err.value.message) == (
        E_UNRESOLVED_REF,
        f"{tid!r} names no token thimac, so it has no status")


def test_project_initial_config():
    b = assembly()
    cfg = init(b)
    assert project_config(b, ASSEMBLY_PROJECTION, cfg) == \
        (0, MACHINE_IDLE, 0, MACHINE_IDLE)


def test_project_unknown_thimac():
    b = assembly()
    with pytest.raises(TmError) as err:
        project_config(b, {"nope": "x"}, init(b))
    assert err.value.code == E_UNRESOLVED_REF


def test_project_timer_is_an_error():
    b = parse_file(FIXTURES / "phone_line.tm").bundle
    cfg, _trace = run(b, max_ticks=5)
    assert cfg.timers["dial.timer"].remaining == 5
    with pytest.raises(TmError) as err:
        project_config(b, ("digits.count", "dial.timer"), cfg)
    assert err.value.code == E_UNRESOLVED_REF
    assert "'dial.timer'" in err.value.message


def test_project_another_models_configuration():
    # a missing store raises the error `step` raises; a configuration
    # that holds every projected id is projected as it is
    b = assembly()
    door = init(parse_file(FIXTURES / "door.tm").bundle)
    with pytest.raises(TmError) as err:
        project_config(b, ("B1.count", "M1"), door)
    assert (err.value.code, err.value.message) == (
        E_UNRESOLVED_REF, "configuration has no counter B1.count")
    assert project_config(b, ("M1",), door) == (MACHINE_IDLE,)


def test_reachable_configs_own_schedule():
    b = assembly()
    seen = reachable_configs(b, ASSEMBLY_PROJECTION)
    declared = set(enumerate_states(ASSEMBLY_DECLS)[1])
    assert seen <= declared
    assert (0, MACHINE_IDLE, 0, MACHINE_IDLE) in seen
    # end of tick 7: first buffer full again, first machine working
    assert (3, MACHINE_BUSY, 0, MACHINE_IDLE) in seen


def test_reachable_configs_zero_ticks():
    b = assembly()
    seen = reachable_configs(b, ASSEMBLY_PROJECTION, max_ticks=0)
    assert seen == {(0, MACHINE_IDLE, 0, MACHINE_IDLE)}


def test_reachable_configs_no_schedules():
    b = assembly()
    assert reachable_configs(b, ASSEMBLY_PROJECTION, schedules=()) == set()


# --- coverage -------------------------------------------------------------------

def test_assembly_fully_covered():
    covered, uncovered = event_coverage(assembly())
    assert uncovered == frozenset()
    assert ActionRef("env", ActionKind.RELEASE) in covered


def test_phone_fully_covered():
    result = parse_file(FIXTURES / "phone_line.tm")
    _covered, uncovered = event_coverage(result.bundle)
    assert uncovered == frozenset()


def test_door_guard_flag_uncovered():
    result = parse_file(FIXTURES / "door.tm")
    _covered, uncovered = event_coverage(result.bundle)
    assert uncovered == frozenset({ActionRef("doorwayEmpty",
                                             ActionKind.CREATE)})
