"""Execution semantics: enablement, conflicts, movement, timers, traces."""

import copy
import dataclasses
import operator
import pickle
from pathlib import Path

import pytest

from thimac import (
    ActionKind,
    ActionRef,
    CounterCmp,
    Effect,
    Event,
    FlagTest,
    FlowEdge,
    Injection,
    ModelBundle,
    StaticModel,
    Thimac,
    ThimacKind,
    TimerExpired,
    TmError,
    TriggerEdge,
    validate_model,
    E_COUNTER_RANGE,
    E_DUP_ID,
    E_SYNTAX,
    E_UNRESOLVED_REF,
)
from thimac import engine, model
from thimac.behavior import reachable_configs
from thimac.dsl import parse, parse_file
from thimac.engine import (
    Configuration,
    FiredEvent,
    Token,
    TraceEntry,
    enabled_events,
    filter_displayed,
    format_trace,
    format_trace_records,
    init,
    parse_trace_records,
    quiescent,
    run,
    step,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def ref(text):
    thimac, _, action = text.rpartition(".")
    return ActionRef(thimac, ActionKind(action))


def machine(tid):
    return Thimac(tid, ThimacKind.MACHINE,
                  frozenset({ActionKind.PROCESS, ActionKind.RELEASE,
                             ActionKind.TRANSFER, ActionKind.RECEIVE}))


def source(tid):
    return Thimac(tid, ThimacKind.SOURCE,
                  frozenset({ActionKind.RELEASE, ActionKind.TRANSFER}))


def sink(tid):
    return Thimac(tid, ThimacKind.SINK,
                  frozenset({ActionKind.TRANSFER, ActionKind.RECEIVE}))


def counter(tid, lo=0, hi=3, init=0):
    return Thimac(tid, ThimacKind.COUNTER, lo=lo, hi=hi, init=init)


def flag(tid, init=False):
    return Thimac(tid, ThimacKind.FLAG, init=init)


def timer(tid, duration=5):
    return Thimac(tid, ThimacKind.TIMER, duration=duration)


def bundle(thimacs=(), flows=(), triggers=(), events=(), behavior=(),
           priority=(), initial=None, schedule=()):
    model = StaticModel(tuple(thimacs), tuple(flows), tuple(triggers), "m")
    return ModelBundle(model, tuple(events), tuple(behavior), tuple(priority),
                       initial or {}, tuple(schedule))


def fired_pairs(entry):
    return {(f.event, f.subject) for f in entry.fired}


def fired_list(entry):
    return [(f.event, f.subject) for f in entry.fired]


def line_bundle(hi=3, guard=True, loop=False, schedule=None):
    """source -> machine -> sink with an arrival counter."""
    inc_guard = (CounterCmp("c", "<", hi),) if guard else ()
    behavior = [("arrive", "work"), ("work", "leave")]
    if loop:
        behavior.append(("leave", "work"))
    return bundle(
        thimacs=[source("env"), machine("M"), sink("out"),
                 counter("c", hi=hi)],
        flows=[FlowEdge(ref("env.release"), ref("env.transfer")),
               FlowEdge(ref("env.transfer"), ref("M.receive")),
               FlowEdge(ref("M.release"), ref("M.transfer")),
               FlowEdge(ref("M.transfer"), ref("out.receive"))],
        triggers=[TriggerEdge(ref("M.receive"), ref("c.create"), Effect.INC,
                              inc_guard)],
        events=[Event("arrive", frozenset({ref("env.release"),
                                           ref("env.transfer"),
                                           ref("M.receive"),
                                           ref("c.create")})),
                Event("work", frozenset({ref("M.process")})),
                Event("leave", frozenset({ref("M.release"), ref("M.transfer"),
                                          ref("out.receive")}))],
        behavior=behavior,
        priority=["arrive", "work", "leave"],
        schedule=schedule or [Injection(1, "env", "t1")],
    )


# --- assembly line golden run ------------------------------------------------

# displayed instances per tick, as (event, subject) sets
GOLDEN_DISPLAYED = [
    {("E1", "S1")},
    {("E1", "S2"), ("E5", "S1")},
    {("E1", "S3"), ("E6", "S1")},
    {("E1", "S4"), ("E8", "S1")},
    {("E2", None), ("E12", "S1")},
    {("E4", None), ("E13", "S1")},
    {("E1", "S5"), ("E5", "S2")},
    {("E2", None), ("E6", "S2")},
    {("E8", "S2")},
    {("E4", None), ("E12", "S2")},
]

# every instance per tick in firing order, bookkeeping included
GOLDEN_FULL = [
    [("E1", "S1"), ("E3", "S1")],
    [("E1", "S2"), ("E3", "S2"), ("E5", "S1")],
    [("E1", "S3"), ("E6", "S1"), ("E7", "S1")],
    [("E1", "S4"), ("E8", "S1"), ("E9", "S1"), ("E10", "S1"), ("E11", "S1")],
    [("E2", None), ("E12", "S1")],
    [("E4", None), ("E13", "S1")],
    [("E1", "S5"), ("E3", "S5"), ("E5", "S2")],
    [("E2", None), ("E6", "S2"), ("E7", "S2")],
    [("E8", "S2"), ("E9", "S2"), ("E10", "S2"), ("E11", "S2")],
    [("E4", None), ("E12", "S2")],
]


def assembly():
    result = parse_file(FIXTURES / "assembly_line.tm")
    assert result.bundle is not None
    return result.bundle


def test_golden_displayed_trace():
    b = assembly()
    cfg, trace = run(b, max_ticks=10)
    shown = filter_displayed(b, trace)
    assert [e.tick for e in shown] == list(range(1, 11))
    assert [fired_pairs(e) for e in shown] == GOLDEN_DISPLAYED


def test_golden_full_trace():
    b = assembly()
    cfg, trace = run(b, max_ticks=10)
    assert [fired_list(e) for e in trace] == GOLDEN_FULL
    bookkeeping = {"E3", "E7", "E9", "E10", "E11"}
    for entry in trace:
        for f in entry.fired:
            assert f.bookkeeping == (f.event in bookkeeping)


def test_golden_counter_trajectory():
    b = assembly()
    cfg = init(b)
    seen = []
    for _ in range(10):
        seen.append(cfg.counters["B1.count"])
        cfg, _entry = step(b, cfg)
    # start-of-tick values: inc on arrival, dec on pickup and unblock
    assert seen == [0, 1, 1, 2, 3, 3, 2, 3, 3, 3]


def test_golden_run_quiesces():
    b = assembly()
    cfg, trace = run(b)
    assert quiescent(b, cfg)
    # three tokens make it through; the last two park at the first
    # machine once nothing re-pends the pickup event
    alive = [t for t in cfg.tokens.values() if t.alive]
    exited = [label for label, t in cfg.tokens.items() if not t.alive]
    assert len(alive) + len(exited) == 5
    assert sorted(exited) == ["S1", "S2", "S3"]
    assert all(t.thimac == "M1" for t in alive)


def test_enabled_events_initial():
    b = assembly()
    assert enabled_events(b, init(b)) == [("E1", "S1")]


def test_enabled_events_mid_run():
    b = assembly()
    cfg, _entry = step(b, init(b))
    # upcoming tick 2: injection S2 binds E1, S1 can start work; the
    # block threshold is not reached so E2 stays out
    assert enabled_events(b, cfg) == [("E1", "S2"), ("E5", "S1")]


# --- movement and binding ----------------------------------------------------

def test_flow_moves_token_to_rest():
    b = line_bundle()
    cfg, entry = step(b, init(b))
    assert fired_list(entry) == [("arrive", "t1")]
    tok = cfg.tokens["t1"]
    assert (tok.thimac, tok.stage) == ("M", ActionKind.RECEIVE)
    assert cfg.counters["c"] == 1


def test_progression_then_exit_through_sink():
    b = line_bundle()
    cfg, trace = run(b)
    # tick 1 arrive, tick 2 work, tick 3 leave
    assert [fired_list(e) for e in trace] == [
        [("arrive", "t1")], [("work", "t1")], [("leave", "t1")]]
    assert not cfg.tokens["t1"].alive


def test_lapsed_instance_is_dropped():
    b = line_bundle(loop=True)
    cfg, trace = run(b)
    # leave re-pends work on a token that already left; the instance
    # lapses and the run settles on an empty tick
    assert [e.tick for e in trace] == [1, 2, 3, 4]
    assert trace[3].fired == ()
    assert quiescent(b, cfg)


def test_process_capacity_blocks_follower():
    b = line_bundle(schedule=[Injection(1, "env", "t1"),
                              Injection(2, "env", "t2")])
    cfg, trace = run(b)
    by_tick = {e.tick: fired_list(e) for e in trace}
    assert by_tick[2] == [("arrive", "t2"), ("work", "t1")]
    # (work, t2) finds the process slot taken at tick 3 and lapses
    assert by_tick[3] == [("leave", "t1")]
    tok = cfg.tokens["t2"]
    assert (tok.thimac, tok.stage) == ("M", ActionKind.RECEIVE)


@pytest.mark.parametrize("event, stage, fires", [
    ("work", ActionKind.RECEIVE, True),
    ("settle", ActionKind.RECEIVE, True),
    ("settle", ActionKind.PROCESS, False),
], ids=["receive to process", "at receive", "process back to receive"])
def test_progression_never_moves_a_token_back(event, stage, fires):
    # settle's region is M.receive alone: a progression to receive,
    # which lapses for a token already deeper, at process
    b = line_bundle()
    b = dataclasses.replace(b, events=(*b.events, Event(
        "settle", frozenset({ref("M.receive")}))))
    cfg = dataclasses.replace(init(b), tick=1,
                              tokens={"t1": Token("M", stage)},
                              pending={(event, "t1"): None})
    want = [(event, "t1")] if fires else []
    assert enabled_events(b, cfg) == want
    assert fired_list(step(b, cfg)[1]) == want


def two_feeds_bundle(labels):
    """Sources s1 and s2 each feed one token of `labels` into M at tick
    1, through events e1 and e2, and each arrival pends work on it."""
    def feed(src):
        return Event(f"e{src[1]}", frozenset({
            ref(f"{src}.release"), ref(f"{src}.transfer"), ref("M.receive")}))
    return bundle(
        thimacs=[source("s1"), source("s2"), machine("M")],
        flows=[FlowEdge(ref("s1.release"), ref("s1.transfer")),
               FlowEdge(ref("s1.transfer"), ref("M.receive")),
               FlowEdge(ref("s2.release"), ref("s2.transfer")),
               FlowEdge(ref("s2.transfer"), ref("M.receive"))],
        events=[feed("s1"), feed("s2"),
                Event("work", frozenset({ref("M.process")}))],
        behavior=[("e1", "work"), ("e2", "work")],
        priority=["e1", "e2", "work"],
        schedule=[Injection(1, "s1", labels[0]), Injection(1, "s2", labels[1])],
    )


@pytest.mark.parametrize("labels", [("a", "b"), ("b", "a")])
def test_tied_subjects_go_older_token_first(labels):
    # work is pended for both tokens; e1's token, injected first, takes
    # M's one process slot whatever the labels are
    _cfg, trace = run(two_feeds_bundle(labels))
    assert [fired_list(e) for e in trace[:2]] == [
        [("e1", labels[0]), ("e2", labels[1])], [("work", labels[0])]]


def test_unpicked_source_token_drains():
    b = line_bundle(schedule=[Injection(1, "env", "t1"),
                              Injection(1, "env", "t2")])
    cfg, entry = step(b, init(b))
    # one arrival per tick; the younger token never leaves the source
    assert fired_list(entry) == [("arrive", "t1")]
    assert not cfg.tokens["t2"].alive
    assert cfg.tokens["t1"].alive


def test_duplicate_injection_label_rejected():
    b = line_bundle(schedule=[Injection(1, "env", "t1"),
                              Injection(2, "env", "t1")])
    with pytest.raises(TmError) as err:
        run(b)
    assert err.value.code == E_DUP_ID


@pytest.mark.parametrize("target, why", [
    ("nope", "not a token thimac"),
    ("c", "not a token thimac"),
    ("P", "no receive or release action"),
], ids=["unknown", "counter", "process_only"])
def test_bad_injection_target_is_a_tm_error(target, why):
    b = line_bundle(schedule=[Injection(1, target, "t1")])
    idle = Thimac("P", ThimacKind.MACHINE, frozenset({ActionKind.PROCESS}))
    b = dataclasses.replace(b, model=dataclasses.replace(
        b.model, thimacs=b.model.thimacs + (idle,)))
    for call in (lambda: run(b), lambda: enabled_events(b, init(b))):
        with pytest.raises(TmError) as err:
            call()
        assert err.value.code == E_UNRESOLVED_REF
        assert err.value.message == f"cannot inject into {target}: {why}"


def test_counter_leaving_range_aborts():
    b = line_bundle(hi=1, guard=False,
                    schedule=[Injection(1, "env", "t1"),
                              Injection(2, "env", "t2")])
    with pytest.raises(TmError) as err:
        run(b)
    assert err.value.code == E_COUNTER_RANGE


# --- conflicts ----------------------------------------------------------------

def conflict_bundle():
    """Two subjectless events racing over one flag."""
    return bundle(
        thimacs=[source("env"), machine("M"), flag("f")],
        flows=[FlowEdge(ref("env.release"), ref("env.transfer")),
               FlowEdge(ref("env.transfer"), ref("M.receive"))],
        triggers=[TriggerEdge(ref("env.release"), ref("f.create"),
                              Effect.SET, ()),
                  TriggerEdge(ref("env.transfer"), ref("f.create"),
                              Effect.CLEAR, ())],
        events=[Event("raise", frozenset({ref("env.release"),
                                          ref("f.create")})),
                Event("lower", frozenset({ref("env.transfer"),
                                          ref("f.create")}))],
        priority=["raise", "lower"],
        schedule=[Injection(1, "env", "t1")],
    )


def test_conflicting_write_defers_to_next_tick():
    b = conflict_bundle()
    cfg, trace = run(b)
    # both instances pend at tick 1; the loser fires one tick later
    assert [fired_list(e) for e in trace] == [
        [("raise", None)], [("lower", None)]]
    assert cfg.flags["f"] is False


def test_deferred_instance_keeps_pended_subject():
    b = conflict_bundle()
    cfg, _entry = step(b, init(b))
    assert list(cfg.pending) == [("lower", None)]


@pytest.mark.parametrize("label", ["g", "f"])
def test_token_named_like_a_flag_does_not_conflict(label):
    # A moves the token, B sets flag f: disjoint writes whatever the
    # token is called
    b = bundle(
        thimacs=[source("env"), sink("out"), flag("f")],
        flows=[FlowEdge(ref("env.release"), ref("env.transfer")),
               FlowEdge(ref("env.transfer"), ref("out.receive"))],
        triggers=[TriggerEdge(ref("env.transfer"), ref("f.create"),
                              Effect.SET, ())],
        events=[Event("A", frozenset({ref("env.release"), ref("env.transfer"),
                                      ref("out.receive")})),
                Event("B", frozenset({ref("env.transfer"), ref("f.create")}))],
        priority=["A", "B"],
        schedule=[Injection(1, "env", label)],
    )
    assert format_trace(run(b)[1]) == f"tick 1: A/{label} B\n"


# --- guards -------------------------------------------------------------------

PY_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@pytest.mark.parametrize("op", sorted(PY_COMPARE))
@pytest.mark.parametrize("value", [1, 2, 3])
def test_counter_guard_follows_comparison(op, value):
    b = bundle(
        thimacs=[source("env"), machine("M"), counter("c", hi=5, init=value)],
        flows=[FlowEdge(ref("env.release"), ref("env.transfer")),
               FlowEdge(ref("env.transfer"), ref("M.receive"))],
        triggers=[TriggerEdge(ref("M.receive"), ref("c.create"), Effect.INC,
                              (CounterCmp("c", op, 2),))],
        events=[Event("arrive", frozenset({ref("env.release"),
                                           ref("env.transfer"),
                                           ref("M.receive"),
                                           ref("c.create")}))],
        schedule=[Injection(1, "env", "t1")],
    )
    _cfg, entry = step(b, init(b))
    expected = [("arrive", "t1")] if PY_COMPARE[op](value, 2) else []
    assert fired_list(entry) == expected


# Each guard-atom kind with a store that makes it false at the start of
# a step: (the store, the atom, a change to the start configuration that
# makes it hold, the trigger effect that flips it mid-tick).
def _raise_k(cfg):
    cfg.counters["k"] = 1


def _raise_f(cfg):
    cfg.flags["f"] = True


def _lower_f(cfg):
    cfg.flags["f"] = False


def _expire_tm(cfg):
    cfg.timers["tm"] = dataclasses.replace(cfg.timers["tm"], expired=True)


GUARD_ATOMS = {
    "counter": (counter("k", hi=5), CounterCmp("k", ">=", 1), _raise_k,
                Effect.INC),
    "flag": (flag("f"), FlagTest("f"), _raise_f, Effect.SET),
    "negated flag": (flag("f", init=True), FlagTest("f", negated=True),
                     _lower_f, Effect.CLEAR),
    "timer expiry": (timer("tm"), TimerExpired("tm"), _expire_tm,
                     Effect.START),
}


def guarded_arrival(store, triggers):
    """An arrival into M whose region holds `store` and counter hits."""
    return bundle(
        thimacs=[source("env"), machine("M"), counter("hits"), store],
        flows=[FlowEdge(ref("env.release"), ref("env.transfer")),
               FlowEdge(ref("env.transfer"), ref("M.receive"))],
        triggers=triggers,
        events=[Event("arrive", frozenset({
            ref("env.release"), ref("env.transfer"), ref("M.receive"),
            ref("hits.create"), ref(f"{store.id}.create")}))],
        schedule=[Injection(1, "env", "t1")],
    )


@pytest.mark.parametrize("holds", [False, True])
@pytest.mark.parametrize("kind", sorted(GUARD_ATOMS))
def test_guard_atom_gates_an_event(kind, holds):
    store, atom, make_hold, _flip = GUARD_ATOMS[kind]
    b = guarded_arrival(store, [TriggerEdge(
        ref("M.receive"), ref("hits.create"), Effect.INC, (atom,))])
    cfg = init(b)
    if holds:
        make_hold(cfg)
    after, entry = step(b, cfg)
    assert fired_list(entry) == ([("arrive", "t1")] if holds else [])
    assert after.counters["hits"] == (1 if holds else 0)
    assert after.tokens["t1"].alive == holds


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("kind", sorted(GUARD_ATOMS))
def test_guard_atom_is_read_mid_tick(kind, flipped):
    # two triggers share source and target, so neither gates; the one
    # guarded by the atom reads the store after the flip, which comes
    # first in canonical order ("M.receive" sorts before the store)
    store, atom, make_hold, flip = GUARD_ATOMS[kind]
    held = store.kind == ThimacKind.TIMER
    source_ref = ref(f"{store.id}.create")
    triggers = [
        TriggerEdge(source_ref, ref("hits.create"), Effect.INC, (atom,)),
        TriggerEdge(source_ref, ref("hits.create"), Effect.DEC,
                    (CounterCmp("hits", "<", 0),))]
    if flipped:
        triggers.append(TriggerEdge(ref("M.receive"), source_ref, flip, ()))
    b = guarded_arrival(store, triggers)
    cfg = init(b)
    if held:
        make_hold(cfg)
    after, entry = step(b, cfg)
    assert fired_list(entry) == [("arrive", "t1")]
    assert after.counters["hits"] == (1 if held != flipped else 0)


def two_path_bundle(labels):
    """One event moving two tokens out of source A: the primary path into
    machine X, the secondary one into sink Y."""
    return bundle(
        thimacs=[source("A"), machine("X"), sink("Y")],
        flows=[FlowEdge(ref("A.release"), ref("X.receive")),
               FlowEdge(ref("A.transfer"), ref("Y.receive"))],
        events=[Event("split", frozenset({ref("A.release"), ref("X.receive"),
                                          ref("A.transfer"),
                                          ref("Y.receive")}))],
        schedule=[Injection(1, "A", label) for label in labels],
    )


def test_secondary_path_skips_the_bound_token():
    b = two_path_bundle(["t1", "t2"])
    cfg, entry = step(b, init(b))
    assert fired_list(entry) == [("split", "t1")]
    assert (cfg.tokens["t1"].thimac, cfg.tokens["t1"].stage) == \
        ("X", ActionKind.RECEIVE)
    assert not cfg.tokens["t2"].alive


def test_secondary_path_without_a_second_token_lapses():
    b = two_path_bundle(["t1"])
    cfg, entry = step(b, init(b))
    assert fired_list(entry) == []
    assert not cfg.tokens["t1"].alive


def two_carrier_bundle():
    """Event F moving a token along each of two paths out of machines A
    and B, into machines C and D."""
    def path(head, tail):
        return [FlowEdge(ref(f"{head}.release"), ref(f"{head}.transfer")),
                FlowEdge(ref(f"{head}.transfer"), ref(f"{tail}.receive"))]
    return bundle(
        thimacs=[machine(tid) for tid in "ABCD"],
        flows=path("A", "C") + path("B", "D"),
        events=[Event("F", frozenset(map(ref, [
            "A.release", "A.transfer", "C.receive",
            "B.release", "B.transfer", "D.receive"])))])


def test_a_carried_subject_takes_the_primary_path_only():
    # s, carried into F, moves along A -> C; the path B -> D binds the
    # token resting at its own head
    b = two_carrier_bundle()
    cfg = Configuration(0, {}, {}, {}, {
        "s": Token("A", ActionKind.RELEASE),
        "t": Token("B", ActionKind.RELEASE)}, {("F", "s"): None})
    after, entry = step(b, cfg)
    assert fired_list(entry) == [("F", "s")]
    assert {label: (tok.thimac, tok.stage)
            for label, tok in after.tokens.items()} == {
        "s": ("C", ActionKind.RECEIVE), "t": ("D", ActionKind.RECEIVE)}


def rebind_bundle():
    """arrive, ship and then bookkeeping work, which co-fires with ship;
    t1 arrives at tick 1 and t2 at tick 2."""
    return bundle(
        thimacs=[source("env"), machine("M"), sink("out")],
        flows=[FlowEdge(ref("env.release"), ref("env.transfer")),
               FlowEdge(ref("env.transfer"), ref("M.receive")),
               FlowEdge(ref("M.release"), ref("M.transfer")),
               FlowEdge(ref("M.transfer"), ref("out.receive"))],
        events=[Event("arrive", frozenset({ref("env.release"),
                                           ref("env.transfer"),
                                           ref("M.receive")})),
                Event("ship", frozenset({ref("M.release"), ref("M.transfer"),
                                         ref("out.receive")})),
                Event("work", frozenset({ref("M.process")}),
                      bookkeeping=True)],
        behavior=[("arrive", "ship"), ("ship", "work")],
        priority=["arrive", "ship", "work"],
        schedule=[Injection(1, "env", "t1"), Injection(2, "env", "t2")],
    )


def test_cofire_rebinds_when_the_subject_has_left():
    # ship/t1 sends t1 out; its bookkeeping successor work cannot take
    # t1 any more and binds t2, which arrived earlier in the same tick
    cfg, trace = run(rebind_bundle())
    assert [fired_list(e) for e in trace] == [
        [("arrive", "t1")],
        [("arrive", "t2"), ("ship", "t1"), ("work", "t2")],
        [("ship", "t2")]]
    assert [f.bookkeeping for f in trace[1].fired] == [False, False, True]
    assert not any(tok.alive for tok in cfg.tokens.values())


def cofire_bundle(behavior, links):
    """Event a pended by an arrival in env, then bookkeeping, subjectless
    events `links` that only co-fire along `behavior`."""
    return bundle(
        thimacs=[source("env"), Thimac("B", ThimacKind.BUFFER,
                                       frozenset({ActionKind.CREATE}))],
        events=[Event("a", frozenset({ref("env.release")}))] + [
            Event(eid, frozenset({ref("B.create")}), bookkeeping=True)
            for eid in links],
        behavior=behavior,
        schedule=[Injection(1, "env", "t1")],
    )


def test_cofires_run_depth_first_and_once_per_tick():
    # c is a successor of a and of d; it fires once, reached through d
    # before a's own edge to it comes up
    b = cofire_bundle([("a", "b"), ("a", "c"), ("b", "d"), ("d", "c")],
                      ["b", "c", "d"])
    cfg, trace = run(b)
    assert [fired_list(e) for e in trace] == [
        [("a", None), ("b", None), ("d", None), ("c", None)]]
    assert [f.bookkeeping for f in trace[0].fired] == [False, True, True, True]
    assert not cfg.pending


def test_a_long_bookkeeping_chain_cofires_in_one_tick():
    links = [f"k{i}" for i in range(1, 3001)]
    b = cofire_bundle(list(zip(["a"] + links, links)), links)
    _cfg, trace = run(b)
    assert [e.tick for e in trace] == [1]
    assert fired_list(trace[0]) == [(eid, None) for eid in ["a"] + links]


def crowd_bundle(n):
    """n subjectless events racing over one flag: one fires per tick and
    the rest stay pending."""
    return bundle(
        thimacs=[source("env"), flag("f")],
        triggers=[TriggerEdge(ref("env.release"), ref("f.create"),
                              Effect.SET, ())],
        events=[Event(f"e{i}", frozenset({ref("env.release"),
                                          ref("f.create")}))
                for i in range(n)],
        schedule=[Injection(1, "env", "t1")],
    )


@pytest.mark.parametrize("fixture, ticks", [("assembly_line.tm", None),
                                            ("phone_line.tm", 5),
                                            ("crowd", 1)])
def test_run_records_survive_deepcopy_and_pickle(fixture, ticks):
    b = (crowd_bundle(41) if fixture == "crowd"
         else parse_file(FIXTURES / fixture).bundle)
    cfg, trace = run(b, max_ticks=ticks)
    if fixture == "crowd":
        assert len(cfg.pending) == 40
    for copied in (copy.deepcopy((cfg, trace)),
                   pickle.loads(pickle.dumps((cfg, trace)))):
        assert copied == (cfg, trace)
        assert repr(copied) == repr((cfg, trace))
        # the copy steps on exactly like the original
        assert step(b, copied[0]) == step(b, cfg)


def _no_firing(*_args):
    raise AssertionError("a recorded tick was fired")


def _fence_records(cfg, entry):
    """`cfg` and `entry`, as `step` built them, against the records the
    public constructors build from their fields."""
    public_cfg = Configuration(cfg.tick, cfg.counters, cfg.flags, cfg.timers,
                               cfg.tokens, cfg.pending)
    public_entry = TraceEntry(entry.tick, tuple(
        FiredEvent(f.event, f.subject, f.bookkeeping) for f in entry.fired))
    for got, public in [(cfg, public_cfg), (entry, public_entry),
                        *zip(entry.fired, public_entry.fired)]:
        assert type(got) is type(public)
        assert (got, repr(got)) == (public, repr(public))
        for copied in (copy.copy(got), copy.deepcopy(got),
                       pickle.loads(pickle.dumps(got)),
                       dataclasses.replace(got)):
            assert (copied, repr(copied)) == (public, repr(public))
        if type(got) is not Configuration:
            assert hash(got) == hash(public)
        for f in dataclasses.fields(got):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, f.name, None)
    # a copy is ranked anew
    for copied in (copy.deepcopy(cfg), dataclasses.replace(cfg)):
        assert copied.ranked is None


@pytest.mark.parametrize("fixture", sorted(p.name
                                           for p in FIXTURES.glob("*.tm")))
def test_fired_and_replayed_records_match_public_ones(monkeypatch, fixture):
    # the engine builds its records through their slots, not through
    # the generated __init__
    b = parse_file(FIXTURES / fixture).bundle
    runs = [run(cold(b), max_ticks=40)]
    for replayed in (False, True):
        if replayed:
            monkeypatch.setattr(engine, "_fire", _no_firing)
        cfg, trace = init(b), []
        while not quiescent(b, cfg) and cfg.tick < 40:
            cfg, entry = step(b, cfg)
            _fence_records(cfg, entry)
            assert cfg.ranked is not None or not replayed
            trace.append(entry)
        runs.append((cfg, trace))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1]


@dataclasses.dataclass(frozen=True, slots=True)
class FrozenToken:
    """`Token` with its fields frozen."""

    thimac: object
    stage: object

    @property
    def alive(self):
        return self.thimac is not None


# Runs whose tokens move, drain, defer and rebind.
TOKEN_RUNS = {
    **{p.name: lambda p=p: parse_file(p).bundle
       for p in sorted(FIXTURES.glob("*.tm"))},
    "drain": lambda: line_bundle(schedule=[Injection(1, "env", "t1"),
                                           Injection(1, "env", "t2")]),
    "deferral": conflict_bundle,
    "co-fire rebind": rebind_bundle,
}


@pytest.mark.parametrize("what", sorted(TOKEN_RUNS))
def test_the_engine_never_changes_a_token(monkeypatch, what):
    # a move, a drain and a replay each put a new token in the table, so
    # frozen tokens run alike, opened cold and replayed warm
    def outcome(cfg, trace):
        return trace, {label: (tok.thimac, tok.stage)
                       for label, tok in cfg.tokens.items()}

    b = cold(TOKEN_RUNS[what]())
    expected = outcome(*run(cold(b), max_ticks=40))
    monkeypatch.setattr(engine, "Token", FrozenToken)
    for _ in ("cold", "warm"):
        cfg, trace = run(b, max_ticks=40)
        assert outcome(cfg, trace) == expected
        assert all(type(tok) is FrozenToken for tok in cfg.tokens.values())
    assert model.compile(b).ticks


# --- timers -------------------------------------------------------------------

def timer_bundle(duration=2, initial=None):
    return bundle(
        thimacs=[source("env"), machine("M"), timer("tm", duration),
                 flag("w")],
        flows=[FlowEdge(ref("env.release"), ref("env.transfer")),
               FlowEdge(ref("env.transfer"), ref("M.receive"))],
        triggers=[TriggerEdge(ref("M.receive"), ref("tm.create"),
                              Effect.START, ()),
                  TriggerEdge(ref("tm.create"), ref("w.create"), Effect.SET,
                              (TimerExpired("tm"),))],
        events=[Event("arrive", frozenset({ref("env.release"),
                                           ref("env.transfer"),
                                           ref("M.receive"),
                                           ref("tm.create")})),
                Event("warn", frozenset({ref("w.create"),
                                         ref("tm.create")}))],
        priority=["arrive", "warn"],
        initial=initial,
        schedule=[Injection(1, "env", "t1")],
    )


def test_timer_starts_inactive():
    cfg = init(timer_bundle())
    assert not cfg.timers["tm"].active
    assert not cfg.timers["tm"].expired


def test_timer_expiry_pends_guarded_event():
    b = timer_bundle(duration=2)
    cfg, trace = run(b)
    # start at tick 1 counts down through tick 2, warn fires at tick 3
    assert [fired_list(e) for e in trace] == [
        [("arrive", "t1")], [], [("warn", None)]]
    assert cfg.flags["w"] is True
    assert cfg.timers["tm"].expired
    assert not cfg.timers["tm"].active


def test_active_timer_blocks_quiescence():
    b = timer_bundle(duration=4)
    cfg, _entry = step(b, init(b))
    assert not quiescent(b, cfg)


def test_timer_duration_override():
    trace = run(timer_bundle(duration=2, initial={"tm": 7}))[1]
    assert trace == run(timer_bundle(duration=7))[1]
    assert fired_list(trace[-1]) == [("warn", None)] and trace[-1].tick == 8


@pytest.mark.parametrize("first", [0, 1])
def test_bundles_sharing_a_program_start_timers_at_their_own_duration(first):
    # a start rewinds the timer to the stepped bundle's duration, as a
    # counter reset does to its initial value; the configuration holds
    # no duration of its own
    base = timer_bundle(duration=2)
    bundles = [base, dataclasses.replace(base, initial={"tm": 7})]
    assert model.compile(bundles[0]) is not model.compile(bundles[1])
    expected = [run(cold(b))[1] for b in bundles]
    assert [trace[-1].tick for trace in expected] == [3, 8]
    start = init(bundles[0])
    for i in (first, 1 - first):
        cfg, trace = start, []
        while not quiescent(bundles[i], cfg):
            cfg, entry = step(bundles[i], cfg)
            trace.append(entry)
        assert trace == expected[i]
    assert init(bundles[1]) == start


def test_run_records_hold_only_run_state():
    assert [f.name for f in dataclasses.fields(Token)] == ["thimac", "stage"]
    assert [f.name for f in dataclasses.fields(engine.TimerState)] == [
        "remaining", "expired"]
    # a positional count would once have been read as a duration
    with pytest.raises(TypeError):
        engine.TimerState(6000)


def test_configurations_and_timers_are_frozen():
    cfg, _trace = run(timer_bundle(), max_ticks=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.tick = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.pending = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.timers["tm"].remaining = 0


# --- initial overrides ---------------------------------------------------------

def test_counter_override_out_of_range():
    b = line_bundle()
    bad = dataclasses.replace(b, initial={"c": 9})
    with pytest.raises(TmError) as err:
        init(bad)
    assert err.value.code == E_COUNTER_RANGE


def test_override_must_target_store():
    b = line_bundle()
    bad = dataclasses.replace(b, initial={"M": 1})
    with pytest.raises(TmError) as err:
        init(bad)
    assert err.value.code == E_UNRESOLVED_REF


@pytest.mark.parametrize("initial, code", [
    ({"tm": "7"}, E_SYNTAX),
    ({"nope": 1}, E_UNRESOLVED_REF),
], ids=["not an integer", "not a store"])
def test_step_checks_the_stepped_bundles_overrides(initial, code):
    # the configuration comes from a bundle that validates; the second
    # pass finds every tick recorded
    b = timer_bundle(duration=2)
    bad = dataclasses.replace(b, initial=initial)
    first = [d for d in validate_model(bad) if d.severity == "error"][0]
    assert first.code == code
    for _pass in range(2):
        cfg = init(b)
        for _ in range(3):
            for call in (step, enabled_events):
                with pytest.raises(TmError) as err:
                    call(bad, cfg)
                assert (err.value.code, err.value.message) == (code,
                                                              first.message)
            cfg = step(b, cfg)[0]


@pytest.mark.parametrize("store, accepted, rejected", [
    ("M1.block", True, 1), ("B1.count", 1, True), ("B1.count", 1, 1.0)])
def test_an_override_equal_to_an_accepted_one_is_checked_anew(
        store, accepted, rejected):
    # 1 == True == 1.0, yet a store starts at only one of them: the
    # program compiled for the accepted value must not serve the other
    b = parse_file(FIXTURES / "assembly_line.tm").bundle
    good = dataclasses.replace(b, initial={store: accepted})
    bad = dataclasses.replace(b, initial={store: rejected})
    expected = run(good)
    first = next(d for d in validate_model(bad) if d.severity == "error")
    for call in (init, run, lambda bad: step(bad, init(good)),
                 lambda bad: enabled_events(bad, init(good))):
        with pytest.raises(TmError) as err:
            call(bad)
        assert (err.value.code, err.value.message) == (first.code,
                                                      first.message)
    assert run(good) == expected


def _fixture(name):
    return parse_file(FIXTURES / f"{name}.tm").bundle


@pytest.mark.parametrize("stepped, given, change, message", [
    ("assembly_line", "door", {}, "configuration has no counter B1.count"),
    ("door", "assembly_line", {}, "configuration has no flag doorwayEmpty"),
    ("door", "door", {"counters": {"zz": 1}},
     "configuration holds 'zz', which is no counter of the model"),
    ("door", "door", {"flags": {"doorwayEmpty": True, "zz": True}},
     "configuration holds 'zz', which is no flag of the model"),
    ("assembly_line", "assembly_line",
     {"timers": {"B1.count": engine.TimerState()}},
     "configuration holds 'B1.count', which is no timer of the model"),
], ids=["assembly from door", "door from assembly", "extra counter",
        "extra flag", "counter as a timer"])
def test_a_configuration_with_other_stores_is_refused(stepped, given, change,
                                                      message):
    # such configurations once raised a raw KeyError, or stepped on with
    # the extra flag carried along
    b = _fixture(stepped)
    cfg = dataclasses.replace(init(_fixture(given)), **change)
    for call in (step, enabled_events):
        with pytest.raises(TmError) as err:
            call(b, cfg)
        assert (err.value.code, err.value.message) == (E_UNRESOLVED_REF,
                                                      message)


def _without_e5(b):
    """`b` without event E5 and the chronology and priority that name it."""
    return dataclasses.replace(
        b, events=[e for e in b.events if e.id != "E5"],
        behavior=[edge for edge in b.behavior if "E5" not in edge],
        priority=[eid for eid in b.priority if eid != "E5"])


def _stepped_assembly():
    b = _fixture("assembly_line")
    cfg = step(b, init(b))[0]
    assert cfg.ranked is not None and ("E5", "S1") in cfg.pending
    return cfg


@pytest.mark.parametrize("stepped, given, message", [
    (lambda: _fixture("door"), _stepped_assembly,
     "configuration has no flag doorwayEmpty"),
    (lambda: _without_e5(_fixture("assembly_line")), _stepped_assembly,
     "configuration pends 'E5', which is no event of the model"),
    (lambda: _fixture("assembly_line"),
     lambda: dataclasses.replace(init(_fixture("assembly_line")),
                                 pending={("nope", None): None}),
     "configuration pends 'nope', which is no event of the model"),
], ids=["keyed, of another model", "keyed, an unknown pending event",
        "unkeyed, an unknown pending event"])
def test_a_configuration_is_checked_when_its_tick_opens(stepped, given,
                                                        message):
    # a configuration `step` built carries its key, and is checked all
    # the same once the tick opens, its pending events included
    b, cfg = stepped(), given()
    for call in (step, enabled_events):
        with pytest.raises(TmError) as err:
            call(b, cfg)
        assert (err.value.code, err.value.message) == (E_UNRESOLVED_REF,
                                                      message)


@pytest.mark.parametrize("given, change, message", [
    ("assembly_line", {"tokens": {"x": Token("nope", ActionKind.PROCESS)}},
     "configuration rests token 'x' at nope.process, where no token of the "
     "model can rest"),
    ("assembly_line", {"tokens": {"x": Token("M1", ActionKind.TRANSFER)},
                       "pending": {("E6", None): None}},
     "configuration rests token 'x' at M1.transfer, where no token of the "
     "model can rest"),
    ("assembly_line", {"tokens": {"x": Token("B1.count", ActionKind.RECEIVE)}},
     "configuration rests token 'x' at B1.count.receive, where no token of "
     "the model can rest"),
    ("door", {"tokens": {"x": Token("nope", ActionKind.PROCESS)}},
     "configuration has no counter B1.count"),
], ids=["an unknown thimac", "a stage its thimac lacks", "a store",
        "stores first"])
def test_a_token_resting_where_no_token_can_is_refused(given, change,
                                                       message):
    # such tokens were once carried along silently, or raised a raw
    # KeyError from STAGE_DEPTH; the stores are checked first
    b = _fixture("assembly_line")
    cfg = dataclasses.replace(init(_fixture(given)), **change)
    for call in (step, enabled_events):
        with pytest.raises(TmError) as err:
            call(b, cfg)
        assert (err.value.code, err.value.message) == (E_UNRESOLVED_REF,
                                                      message)


# --- doorway fixture -----------------------------------------------------------

def test_door_walk():
    result = parse_file(FIXTURES / "door.tm")
    assert result.bundle is not None
    cfg, trace = run(result.bundle, max_ticks=20)
    assert [fired_list(e) for e in trace] == [
        [("closed", "door")],
        [("opening", "door")],
        [("opened", "door")],
        [],                       # close stimulus not there yet
        [("closing", "door")],
        [("closed", "door")],
        [],                       # open stimulus never comes back
    ]
    assert quiescent(result.bundle, cfg)
    tok = cfg.tokens["door"]
    assert (tok.thimac, tok.stage) == ("st.Closed", ActionKind.PROCESS)


def test_door_held_open_by_flag():
    result = parse_file(FIXTURES / "door.tm")
    b = dataclasses.replace(result.bundle,
                            initial={"doorwayEmpty": False})
    cfg, trace = run(b, max_ticks=10)
    fired = [f.event for e in trace for f in e.fired]
    assert "closing" not in fired
    tok = cfg.tokens["door"]
    assert tok.thimac == "st.Opened"


# --- phone fixture ---------------------------------------------------------------

def phone():
    result = parse_file(FIXTURES / "phone_line.tm")
    assert result.bundle is not None
    return result.bundle


def test_phone_valid_number_connects():
    b = phone()
    cfg, trace = run(b, max_ticks=8)
    by_tick = {e.tick: fired_list(e) for e in trace}
    assert by_tick[7] == [("connect", None)]
    assert cfg.flags["conn.req"] is True
    assert cfg.flags["msg"] is False
    assert cfg.counters["digits.count"] == 4


def test_phone_invalid_number_rejects_and_redials():
    b = dataclasses.replace(phone(), initial={"number.valid": False})
    cfg, trace = run(b, max_ticks=9)
    by_tick = {e.tick: fired_list(e) for e in trace}
    assert by_tick[7] == [("reject", None)]
    assert by_tick[8] == [("redial", None)]
    assert cfg.flags["msg"] is True
    assert cfg.flags["conn.req"] is False
    assert cfg.counters["digits.count"] == 0


def test_phone_stalled_dialing_warns():
    b = dataclasses.replace(phone(), schedule=(
        Injection(1, "hook", "call"), Injection(3, "digit.src", "d1")))
    cfg, trace = run(b, max_ticks=10)
    by_tick = {e.tick: fired_list(e) for e in trace}
    # one digit at tick 3 rewinds the timer; it runs out after tick 8
    assert by_tick[9] == [("warn", None)]
    assert cfg.flags["warnmsg"] is True
    for tick in (4, 5, 6, 7, 8):
        assert by_tick[tick] == []


# --- traces ----------------------------------------------------------------------

def test_format_trace_lines():
    trace = [TraceEntry(1, (FiredEvent("a", "x"), FiredEvent("b", None))),
             TraceEntry(2, ())]
    assert format_trace(trace) == "tick 1: a/x b\ntick 2:\n"


def test_format_trace_quotes_a_subject_that_is_not_an_identifier():
    # a label holding a newline would otherwise forge a tick line
    text = """model m
thimac env kind source { actions: release, transfer }
thimac out kind sink { actions: transfer, receive }
flow env.release -> env.transfer
flow env.transfer -> out.receive
event go "go" region { env.release, env.transfer, out.receive }
schedule { at 1 inject env "a b\\ntick 9: go/x"; at 2 inject env "c.d"; }
"""
    b = parse(text).bundle
    assert format_trace(run(b)[1]) == (
        'tick 1: go/"a b\\ntick 9: go/x"\ntick 2: go/c.d\n')


def test_trace_records_roundtrip():
    b = assembly()
    _cfg, trace = run(b)
    text = format_trace_records(trace)
    parsed = parse_trace_records(text)
    assert parsed == [e for e in trace if e.fired]


def test_trace_records_quote_subjects():
    trace = [TraceEntry(3, (FiredEvent("e", 'a "b"', True),))]
    text = format_trace_records(trace)
    assert text == '3\te\t"a \\"b\\""\t1\n'
    assert parse_trace_records(text) == trace


@pytest.mark.parametrize("record, problem", [
    ('1\tE1\tS1\t0', "subject 'S1'"),
    ('1\tE1\t"S1\t0', "subject '\"S1'"),
    ('1\tE1\t"S1"x\t0', "subject '\"S1\"x'"),
    ('1\tE1\t"S1"\tyes', "bookkeeping 'yes'"),
    ('1\tE1\t"S1"\t7', "bookkeeping '7'"),
    ('1\t\t"S1"\t0', "empty event"),
    ('1_0\tE1\t"S1"\t0', "bad tick '1_0'"),
    (' 2\tE1\t"S1"\t0', "bad tick ' 2'"),
    ('+4\tE1\t"S1"\t0', "bad tick '+4'"),
    ('-3\tE1\t"S1"\t0', "bad tick '-3'"),
    ('0\tE1\t"S1"\t0', "bad tick '0'"),
    ('\u0661\tE1\t"S1"\t0', "bad tick '\u0661'"),
])
def test_trace_records_reject_malformed_fields(record, problem):
    text = '1\tE1\t"S1"\t0\n' + record + "\n"
    with pytest.raises(TmError) as err:
        parse_trace_records(text, file="t.tsv")
    assert err.value.code == E_SYNTAX
    where, _, message = err.value.message.partition(": ")
    assert where.startswith("t.tsv:2:")
    assert message.startswith(problem)


@pytest.mark.parametrize("record, col", [
    ('x\tE1\t"S1"\t0', 1),       # the tick
    ('1_0\tE1\t"S1"\t0', 1),     # ticks are ASCII digits from 1 up
    (' 2\tE1\t"S1"\t0', 1),
    ('+4\tE1\t"S1"\t0', 1),
    ('-3\tE1\t"S1"\t0', 1),
    ('\u0661\tE1\t"S1"\t0', 1),
    ('1\tE1\t"S1"', 1),           # the record: a field is missing
    ('12\t\t"S1"\t0', 4),        # the event
    ('12\tE1\tS1\t0', 7),        # the subject
    ('12\tE1\t"S\t1"\t0', 1),    # a tab splits the subject: 5 fields
    ('12\tE1\t"S1"\tyes', 12),   # the bookkeeping flag
])
def test_trace_record_errors_point_at_the_bad_field(record, col):
    with pytest.raises(TmError) as err:
        parse_trace_records("\n\n" + record, file="t.tsv")
    assert err.value.message.startswith(f"t.tsv:3:{col}: ")


@pytest.mark.parametrize("subject", ["a\rb", "a\x0cb", "a\u2028b"])
def test_trace_records_keep_line_separators_in_subjects(subject):
    trace = [TraceEntry(1, (FiredEvent("e", subject, False),)),
             TraceEntry(2, (FiredEvent("f", None, True),))]
    assert parse_trace_records(format_trace_records(trace)) == trace


def test_filter_displayed_keeps_marked_events():
    shown = Event("b", frozenset({ref("M.process")}), bookkeeping=True,
                  displayed=True)
    hidden = Event("h", frozenset({ref("M.receive")}), bookkeeping=True)
    b = bundle(thimacs=[machine("M")], events=[shown, hidden])
    trace = [TraceEntry(1, (FiredEvent("b", "x", True),
                            FiredEvent("h", "x", True)))]
    kept = filter_displayed(b, trace)
    assert [f.event for f in kept[0].fired] == ["b"]


@pytest.mark.parametrize("bookkeeping", [True, False])
def test_filter_displayed_rejects_an_unknown_event(bookkeeping):
    b = bundle(thimacs=[machine("M")])
    trace = [TraceEntry(1, (FiredEvent("nope", None, bookkeeping),))]
    with pytest.raises(TmError) as err:
        filter_displayed(b, trace)
    assert err.value.code == E_UNRESOLVED_REF
    assert err.value.message == "trace names unknown event 'nope'"


def test_run_is_deterministic():
    first = format_trace_records(run(assembly())[1])
    second = format_trace_records(run(assembly())[1])
    assert first == second


def test_empty_model_quiesces_immediately():
    b = bundle()
    cfg, trace = run(b)
    assert trace == []
    assert cfg.tick == 0


def test_max_ticks_zero_returns_initial():
    b = assembly()
    cfg, trace = run(b, max_ticks=0)
    assert cfg.tick == 0
    assert trace == []


# --- compiled programs --------------------------------------------------------------

def test_replaced_schedules_compile_once(monkeypatch):
    built = []

    class CountingProgram(model.Program):
        def __init__(self, b):
            built.append(b)
            super().__init__(b)

    monkeypatch.setattr(model, "Program", CountingProgram)
    base = assembly()
    schedules = [(Injection(1 + k % 7, "env", f"t{k}"),) for k in range(50)]
    for sched in schedules:
        b = dataclasses.replace(base, schedule=sched)
        enabled_events(b, init(b))
        run(b, max_ticks=30)
    reachable_configs(base, ("B1.count", "M1"), max_ticks=30,
                      schedules=schedules)
    assert len(built) == 1


def test_replaced_priority_is_honoured():
    b = conflict_bundle()
    first = [[("raise", None)], [("lower", None)]]
    assert [fired_list(e) for e in run(b)[1]] == first
    flipped = dataclasses.replace(b, priority=tuple(reversed(b.priority)))
    assert [fired_list(e) for e in run(flipped)[1]] == [
        [("lower", None)], [("raise", None)]]
    # the original keeps its own order
    assert [fired_list(e) for e in run(b)[1]] == first


# --- the tick table -----------------------------------------------------------------

def cold(b):
    """`b` on a fresh copy of its model, whose program has an empty tick
    table."""
    return dataclasses.replace(b, model=dataclasses.replace(b.model))


def reset_bundles():
    """Two bundles on one model that differ only in the initial value a
    counter reset restores.  Tick 1 leaves c at 2 in both (the bump
    lapses when c starts at 2), so tick 2 opens on equal stores, and its
    reset brings c back to 1 or 2, which decides whether f is set."""
    base = bundle(
        thimacs=[source("a"), source("b"), counter("c"), flag("f")],
        triggers=[TriggerEdge(ref("a.release"), ref("c.create"), Effect.INC,
                              (CounterCmp("c", "<", 2),)),
                  TriggerEdge(ref("b.release"), ref("c.create"), Effect.RESET,
                              ()),
                  TriggerEdge(ref("c.create"), ref("f.create"), Effect.SET,
                              (CounterCmp("c", "=", 2),))],
        events=[Event("bump", frozenset({ref("a.release"), ref("c.create")})),
                Event("zero", frozenset({ref("b.release"), ref("c.create"),
                                         ref("f.create")}))],
        schedule=[Injection(1, "a", "x"), Injection(2, "b", "y")])
    return [dataclasses.replace(base, initial={"c": value}) for value in (1, 2)]


@pytest.mark.parametrize("first", [0, 1])
def test_bundles_sharing_a_program_reset_to_their_own_initial(first):
    bundles = reset_bundles()
    assert model.compile(bundles[0]) is not model.compile(bundles[1])
    expected = [run(cold(b)) for b in bundles]
    assert [(cfg.counters["c"], cfg.flags["f"]) for cfg, _ in expected] == [
        (1, False), (2, True)]
    for i in (first, 1 - first):
        assert run(bundles[i]) == expected[i]


def test_a_handed_off_look_up_follows_the_initial_overrides():
    # the program is warm for c reset to 1; tick 2 then opens equally
    # under either override
    ones, twos = reset_bundles()
    run(ones)
    b = dataclasses.replace(ones, initial=dict(ones.initial))
    cfg = step(b, init(b))[0]
    expected = step(cold(twos), cfg)
    enabled_events(b, cfg)
    assert step(dataclasses.replace(b, initial={"c": 2}), cfg) == expected


def _in_m(*tokens, pending=("t1",)):
    """Tick 1 of `line_bundle` done, with (label, stage) tokens in M,
    oldest first, and work pended for the `pending` labels."""
    return Configuration(1, {"c": 2}, {}, {}, {
        label: Token("M", stage) for label, stage in tokens},
        dict.fromkeys(("work", label) for label in pending))


def _guard_variants(kind):
    store, atom, make_hold, _flip = GUARD_ATOMS[kind]
    b = guarded_arrival(store, [TriggerEdge(
        ref("M.receive"), ref("hits.create"), Effect.INC, (atom,))])
    held = init(b)
    make_hold(held)
    return b, (init(b), held), ([], [("arrive", "t1")])


# Pairs of configurations whose ticks differ in one input of the tick
# key, with what each tick fires.
RECEIVE, PROCESS = ActionKind.RECEIVE, ActionKind.PROCESS
KEY_INPUTS = {
    # t0 holds M's one process slot, or leaves it free for t1
    "stage": lambda: (line_bundle(), (
        _in_m(("t0", PROCESS), ("t1", RECEIVE)),
        _in_m(("t0", RECEIVE), ("t1", RECEIVE))), ([], [("work", "t1")])),
    # the opening takes tied subjects older token first, so the token
    # of rank 0 takes the slot under either label
    "pending order": lambda: (line_bundle(), (
        _in_m(("a", RECEIVE), ("b", RECEIVE), pending=("a", "b")),
        _in_m(("b", RECEIVE), ("a", RECEIVE), pending=("b", "a"))),
        ([("work", "a")], [("work", "b")])),
    **{f"{kind} store": lambda kind=kind: _guard_variants(kind)
       for kind in ("counter", "flag", "timer expiry")},
}


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("what", sorted(KEY_INPUTS))
def test_a_recorded_tick_is_not_replayed_for_another(what, first):
    b, configs, fires = KEY_INPUTS[what]()
    # a single step on a fresh model cannot replay anything
    expected = [step(cold(b), cfg) for cfg in configs]
    assert [fired_list(entry) for _cfg, entry in expected] == list(fires)
    warm = cold(b)
    for i in (first, 1 - first):
        assert step(warm, configs[i]) == expected[i]


def test_a_token_listed_first_is_older_on_a_warm_program_and_a_cold_one():
    # a token's age is its position in the tokens table: listed first, b
    # is the older token and takes the slot whether the tick is opened
    # or replayed from the tick of the listing that puts a first
    b = line_bundle()
    listed = _in_m(("a", RECEIVE), ("b", RECEIVE), pending=("a", "b"))
    swapped = dataclasses.replace(
        listed, tokens=dict(reversed(listed.tokens.items())),
        pending=dict.fromkeys(reversed(listed.pending)))
    expected = step(cold(b), swapped)
    assert fired_list(expected[1]) == [("work", "b")]
    warm = cold(b)
    assert fired_list(step(warm, listed)[1]) == [("work", "a")]
    assert step(warm, swapped) == expected


def test_enabled_events_reads_the_table_but_never_records(monkeypatch):
    b = line_bundle()
    prog = model.compile(b)
    expected = enabled_events(cold(b), init(b))
    assert expected == [("arrive", "t1")]
    assert enabled_events(b, init(b)) == expected
    assert prog.ticks == {}
    step(b, init(b))
    assert len(prog.ticks) == 1

    def no_opening(*_args):
        raise AssertionError("a recorded tick was opened")

    monkeypatch.setattr(engine, "_open_tick", no_opening)
    assert enabled_events(b, init(b)) == expected
    renamed = dataclasses.replace(b, schedule=(Injection(1, "env", "x"),))
    assert enabled_events(renamed, init(renamed)) == [("arrive", "x")]


def _vandalise(cfg):
    """Change every table of `cfg` and every token in it."""
    for sid in cfg.counters:
        cfg.counters[sid] += 1
    for sid in cfg.flags:
        cfg.flags[sid] = not cfg.flags[sid]
    for sid in cfg.timers:
        cfg.timers[sid] = engine.TimerState(remaining=98)
    cfg.pending.clear()
    cfg.pending["ghost", None] = None
    for tok in cfg.tokens.values():
        tok.thimac, tok.stage = "ghost", ActionKind.PROCESS
    cfg.tokens["ghost"] = Token("ghost", ActionKind.RECEIVE)


@pytest.mark.parametrize("fixture", ["assembly_line.tm", "door.tm",
                                     "phone_line.tm"])
def test_a_replayed_tick_ignores_changes_to_a_stepped_configuration(fixture):
    b = parse_file(FIXTURES / fixture).bundle
    expected = run(cold(b), max_ticks=20)
    cfg = init(b)
    while cfg.tick < 20 and not quiescent(b, cfg):
        after, _entry = step(b, cfg)
        cfg = copy.deepcopy(after)
        _vandalise(after)
    assert model.compile(b).ticks
    assert run(b, max_ticks=20) == expected


@pytest.mark.parametrize("schedule, tick", [
    ([("t1", 1), ("t1", 1)], 1),                    # two arrivals share a label
    ([("t1", 2)], 2),           # a token of the configuration has the label
], ids=["arrivals", "taken"])
def test_a_recorded_tick_still_rejects_a_label_twice(schedule, tick):
    b = line_bundle(schedule=[Injection(1, "env", "t1"),
                              Injection(1, "env", "t2"),
                              Injection(2, "env", "t3")])
    run(b)
    dup = dataclasses.replace(b, schedule=tuple(
        Injection(at, "env", label) for label, at in schedule))
    # the configuration comes from `b`, whose tick 1 injects t1 and t2
    cfg = init(b)
    while cfg.tick < tick - 1:
        cfg = step(b, cfg)[0]
    # the same tick with fresh labels is recorded
    fresh = dataclasses.replace(b, schedule=tuple(
        Injection(inj.tick, "env", f"n{k}")
        for k, inj in enumerate(dup.schedule)))
    assert engine._look_up(fresh, cfg)[-1] is not None
    for call in (step, enabled_events):
        with pytest.raises(TmError) as err:
            call(dup, cfg)
        assert err.value.code == E_DUP_ID
        assert err.value.message == "token label 't1' injected twice"


def test_a_tick_that_raises_is_never_recorded():
    b = line_bundle(hi=1, guard=False,
                    schedule=[Injection(1, "env", "t1"),
                              Injection(2, "env", "t2")])
    for shift in (0, 0, 3):
        later = dataclasses.replace(b, schedule=tuple(
            dataclasses.replace(inj, tick=inj.tick + shift)
            for inj in b.schedule))
        with pytest.raises(TmError) as err:
            run(later)
        assert err.value.code == E_COUNTER_RANGE
        assert f"at tick {2 + shift} " in err.value.message


def pile_bundle(n):
    """One token a tick for n ticks, each resting in M for good, so tick
    k sees k tokens."""
    return bundle(
        thimacs=[source("env"), machine("M")],
        flows=[FlowEdge(ref("env.release"), ref("env.transfer")),
               FlowEdge(ref("env.transfer"), ref("M.receive"))],
        events=[Event("arrive", frozenset({ref("env.release"),
                                           ref("env.transfer"),
                                           ref("M.receive")}))],
        schedule=[Injection(k, "env", f"t{k}") for k in range(1, n + 1)])


def countdown_bundle():
    """An event that pends itself every tick while a timer counts down
    from 6000."""
    return bundle(
        thimacs=[source("env"), timer("tm", 6000), flag("f")],
        triggers=[TriggerEdge(ref("env.release"), ref("tm.create"),
                              Effect.START, ())],
        events=[Event("start", frozenset({ref("env.release"),
                                          ref("tm.create")})),
                Event("again", frozenset({ref("f.create")}))],
        behavior=[("start", "again"), ("again", "again")],
        schedule=[Injection(1, "env", "t1")])


# Runs whose ticks all differ and hold more places than the table
# records: tokens piling up, and a timer counting down for long.
UNBOUNDED = {"pile": lambda: (pile_bundle(130), None),
             "timer": lambda: (countdown_bundle(), 6000)}


@pytest.mark.parametrize("what", sorted(UNBOUNDED))
def test_the_tick_table_stops_recording_at_its_bound(what):
    b, ticks = UNBOUNDED[what]()
    expected = run(cold(b), ticks)
    prog = model.compile(b)
    for _ in range(2):
        assert run(b, ticks) == expected
        # every tick of these runs differs from the others
        assert 0 < len(prog.ticks) < expected[0].tick
        assert prog.tick_places <= engine.TICK_TABLE_PLACES
        assert prog.tick_places > engine.TICK_TABLE_PLACES - 140


def test_a_subject_without_a_token_is_never_recorded():
    # a subjectless instance pended under a label no token has fires
    # under that label, which has no rank to record it by
    b = countdown_bundle()
    for label in ("x", "y"):
        cfg = Configuration(1, {}, {"f": False},
                            {"tm": engine.TimerState()}, {},
                            {("again", label): None})
        assert fired_list(step(b, cfg)[1]) == [("again", label)]
    assert model.compile(b).ticks == {}


def test_a_subject_without_a_token_opens_last():
    # the opening takes an instance whose subject has no live token
    # after those without a subject; a subjectless one fires all the same
    b = countdown_bundle()
    cfg = Configuration(1, {}, {"f": False}, {"tm": engine.TimerState()}, {},
                        {("again", "x"): None, ("again", None): None})
    expected = [("again", None), ("again", "x")]
    assert enabled_events(b, cfg) == expected
    assert fired_list(step(b, cfg)[1]) == expected


def counted_places(prog):
    """The places the program's tick table holds: one per recorded tick
    plus one per ranked token of it."""
    return sum(1 + len(entry[1]) // 2 for entry in prog.ticks.values())


@pytest.mark.parametrize("what", sorted(UNBOUNDED))
def test_every_link_and_entry_counts_once(what):
    b, ticks = UNBOUNDED[what]()
    prog = model.compile(b)
    for peek in (False, True, True):
        cfg = init(b)
        while not quiescent(b, cfg) and cfg.tick < 300:
            if peek:
                # an unrecorded tick is looked up again by step
                enabled_events(b, cfg)
                enabled_events(b, cfg)
            cfg = step(b, cfg)[0]
        assert prog.tick_places == counted_places(prog)


def test_a_look_up_serves_one_step(monkeypatch):
    # nothing is recorded, so each step opens and fires the tick that
    # enabled_events looked up before it
    monkeypatch.setattr(engine, "TICK_TABLE_PLACES", -1)
    b = assembly()
    cfg = init(b)
    while not quiescent(b, cfg):
        enabled_events(b, cfg)
        first = step(b, cfg)[0]
        second = step(b, cfg)[0]
        assert first == second
        # the second step injects tokens of its own
        assert not ({id(tok) for tok in first.tokens.values()}
                    & {id(tok) for tok in second.tokens.values()})
        cfg = first


def idle_gap_assembly():
    """The assembly line with an idle gap: both parts have shipped and
    nothing is pending for ticks before the third arrives."""
    return dataclasses.replace(assembly(), schedule=(
        Injection(1, "env", "a"), Injection(2, "env", "b"),
        Injection(25, "env", "c")))


@pytest.mark.parametrize("peek", [False, True], ids=["run", "peek"])
@pytest.mark.parametrize("make", [
    lambda: parse_file(FIXTURES / "phone_line.tm").bundle, idle_gap_assembly],
    ids=["phone_line", "idle gap"])
def test_a_second_run_replays_every_tick(monkeypatch, make, peek):
    # a tick with nothing pending, such as the phone line's timer
    # counting down, is keyed and recorded like any other
    b = make()
    expected = run(b)

    def no_firing(*_args):
        raise AssertionError("a recorded tick was fired")

    monkeypatch.setattr(engine, "_fire", no_firing)
    cfg, trace, idle = init(b), [], 0
    while not quiescent(b, cfg):
        idle += not cfg.pending and cfg.tick + 1 not in b.arrivals
        if peek:
            enabled_events(b, cfg)
        cfg, entry = step(b, cfg)
        trace.append(entry)
    assert (cfg, trace) == expected
    assert idle >= 4


def test_interleaved_runs_on_one_program_rank_only_their_starts(monkeypatch):
    # two bundles share a program and step in turn; once each has run,
    # every configuration step returns carries its own key, so only the
    # two init configurations are ranked in full
    first = idle_gap_assembly()
    second = dataclasses.replace(first, schedule=(
        Injection(1, "env", "x"), Injection(3, "env", "y"),
        Injection(4, "env", "z")))
    assert model.compile(first) is model.compile(second)
    bundles = (first, second)
    expected = [run(b) for b in bundles]
    full = []
    real_ranked = engine._ranked
    monkeypatch.setattr(engine, "_ranked",
                        lambda *args: full.append(1) or real_ranked(*args))

    def no_firing(*_args):
        raise AssertionError("a recorded tick was fired")

    monkeypatch.setattr(engine, "_fire", no_firing)
    configs = [init(b) for b in bundles]
    traces = [[], []]
    while not all(map(quiescent, bundles, configs)):
        for i, b in enumerate(bundles):
            if not quiescent(b, configs[i]):
                configs[i], entry = step(b, configs[i])
                traces[i].append(entry)
    assert list(zip(configs, traces)) == expected
    assert [len(trace) for trace in traces] == [31, 10]
    assert len(full) == 2
