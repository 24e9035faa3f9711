"""Structural checks: references, kinds, regions, validation."""

import copy
import gc
import pickle
import weakref
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from thimac import (
    ActionKind,
    ActionRef,
    CounterCmp,
    Effect,
    Event,
    EventClass,
    FlagTest,
    FlowEdge,
    Injection,
    ModelBundle,
    StaticModel,
    SubjectMode,
    Thimac,
    ThimacKind,
    TimerExpired,
    TmError,
    TriggerEdge,
    canonicalize,
    classify_event,
    compile,
    decompose_flows,
    extract_region,
    guard_text,
    has_errors,
    induced_region,
    region_paths,
    subject_mode,
    validate_model,
    E_BAD_EFFECT,
    E_COUNTER_RANGE,
    E_DUP_ID,
    E_EMPTY_REGION,
    E_FLOW_ENDPOINTS,
    E_REGION_FLOWS,
    E_SYNTAX,
    E_UNRESOLVED_REF,
    SEV_WARNING,
)
from thimac import model as model_module
from thimac.dsl import parse_file
from thimac.engine import enabled_events, init, run, step

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def ref(text):
    thimac, _, action = text.rpartition(".")
    return ActionRef(thimac, ActionKind(action))


def machine(tid, actions="process,release,transfer,receive"):
    acts = frozenset(ActionKind(a) for a in actions.split(","))
    return Thimac(tid, ThimacKind.MACHINE, acts)


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


def codes(diags):
    return sorted(d.code for d in diags)


def clean_bundle():
    m1 = machine("M1")
    return bundle(
        thimacs=[source("env"), m1, sink("out"), counter("c"), flag("f")],
        flows=[FlowEdge(ref("env.release"), ref("env.transfer")),
               FlowEdge(ref("env.transfer"), ref("M1.receive")),
               FlowEdge(ref("M1.release"), ref("M1.transfer")),
               FlowEdge(ref("M1.transfer"), ref("out.receive"))],
        triggers=[TriggerEdge(ref("M1.receive"), ref("c.create"), Effect.INC,
                              (CounterCmp("c", "<", 3),)),
                  TriggerEdge(ref("M1.release"), ref("f.create"), Effect.CLEAR,
                              (FlagTest("f"),))],
        events=[Event("arrive", frozenset({ref("env.release"), ref("env.transfer"),
                                           ref("M1.receive"), ref("c.create")}),
                      "token arrives"),
                Event("work", frozenset({ref("M1.process")}), "machine works"),
                Event("leave", frozenset({ref("M1.release"), ref("M1.transfer"),
                                          ref("out.receive"), ref("f.create")}))],
        behavior=[("arrive", "work"), ("work", "leave")],
        priority=["arrive", "work", "leave"],
        schedule=[Injection(1, "env", "t1")],
    )


# --- thimacs and stores -----------------------------------------------------

def test_store_exposes_only_create():
    c = counter("c")
    assert c.effective_actions == frozenset({ActionKind.CREATE})
    assert c.is_store
    assert not machine("M").is_store


def test_buffer_is_token_kind():
    b = Thimac("B1", ThimacKind.BUFFER, frozenset({ActionKind.CREATE}))
    assert not b.is_store
    assert b.effective_actions == frozenset({ActionKind.CREATE})


def test_clean_bundle_validates():
    assert validate_model(clean_bundle()) == []


def test_validate_accepts_bare_static_model():
    model = clean_bundle().model
    assert validate_model(model) == []
    bad = StaticModel((machine("M"), machine("M")))
    assert codes(validate_model(bad)) == [E_DUP_ID]


def test_duplicate_thimac_id():
    b = bundle(thimacs=[machine("M"), machine("M")])
    assert codes(validate_model(b)) == [E_DUP_ID]


def test_counter_range_checks():
    # empty range: 5 > 2
    b = bundle(thimacs=[counter("c", lo=5, hi=2)])
    assert codes(validate_model(b)) == [E_COUNTER_RANGE]
    # init 7 outside 0..3
    b = bundle(thimacs=[counter("c", init=7)])
    assert codes(validate_model(b)) == [E_COUNTER_RANGE]
    # timer duration 0 rejected
    b = bundle(thimacs=[timer("t", duration=0)])
    assert codes(validate_model(b)) == [E_COUNTER_RANGE]


def test_flow_endpoint_kinds():
    b = bundle(thimacs=[machine("M")],
               flows=[FlowEdge(ref("M.receive"), ref("M.process"))])
    # receive is no source, process is no target: two endpoint faults
    assert codes(validate_model(b)) == [E_FLOW_ENDPOINTS, E_FLOW_ENDPOINTS]


def test_unresolved_flow_ref():
    b = bundle(thimacs=[machine("M")],
               flows=[FlowEdge(ref("M.release"), ref("ghost.receive"))])
    assert codes(validate_model(b)) == [E_UNRESOLVED_REF]


def test_action_missing_from_thimac():
    b = bundle(thimacs=[machine("M", actions="process,release")],
               flows=[FlowEdge(ref("M.release"), ref("M.transfer"))])
    assert codes(validate_model(b)) == [E_UNRESOLVED_REF]


def test_effect_target_compatibility():
    b = bundle(thimacs=[machine("M"), counter("c"), flag("f"), timer("t")],
               triggers=[TriggerEdge(ref("M.process"), ref("f.create"), Effect.INC)])
    assert codes(validate_model(b)) == [E_BAD_EFFECT]
    ok = bundle(thimacs=[machine("M"), counter("c"), flag("f"), timer("t")],
                triggers=[TriggerEdge(ref("M.process"), ref("c.create"), Effect.RESET),
                          TriggerEdge(ref("M.process"), ref("t.create"), Effect.RESET),
                          TriggerEdge(ref("M.process"), ref("t.create"), Effect.START)])
    assert validate_model(ok) == []


def test_guard_atom_resolution():
    b = bundle(thimacs=[machine("M"), flag("f")],
               triggers=[TriggerEdge(ref("M.process"), ref("f.create"), Effect.SET,
                                     (CounterCmp("f", "<", 1),))])
    # f is a flag, not a counter
    assert codes(validate_model(b)) == [E_UNRESOLVED_REF]
    b = bundle(thimacs=[machine("M"), flag("f")],
               triggers=[TriggerEdge(ref("M.process"), ref("f.create"), Effect.SET,
                                     (TimerExpired("f"),))])
    assert codes(validate_model(b)) == [E_UNRESOLVED_REF]


@pytest.mark.parametrize("kind", [ThimacKind.COUNTER, ThimacKind.TIMER,
                                  ThimacKind.BUFFER])
def test_block_flag_must_be_a_flag(kind):
    blocker = Thimac("M1.block", kind, frozenset({ActionKind.RECEIVE}),
                     hi=3, duration=2)
    b = replace(clean_bundle(), model=replace(
        clean_bundle().model,
        thimacs=clean_bundle().model.thimacs + (blocker,)))
    diags = validate_model(b, "m.tm", {("thimac", "M1.block"): (7, 1)})
    assert [(d.line, d.col, d.code) for d in diags] == \
        [(7, 1, E_UNRESOLVED_REF)]
    assert "M1.block must be a flag" in diags[0].message
    # a flag is the convention; a `.block` of a store has no owner
    flagged = replace(b.model, thimacs=b.model.thimacs[:-1]
                      + (flag("M1.block"), counter("c.block")))
    assert validate_model(replace(b, model=flagged)) == []


def test_compile_rejects_an_unknown_successor():
    b = replace(clean_bundle(), behavior=(("arrive", "work"),
                                          ("leave", "nowhere")))
    with pytest.raises(TmError) as err:
        compile(b)
    assert err.value.code == E_UNRESOLVED_REF
    assert err.value.message == "chronology names unknown event nowhere"


def test_empty_region_rejected():
    b = bundle(thimacs=[machine("M")], events=[Event("e", frozenset())])
    assert codes(validate_model(b)) == [E_EMPTY_REGION]


def test_priority_checks():
    base = replace(clean_bundle(), priority=("arrive", "ghost", "arrive"))
    got = codes(validate_model(base))
    assert E_UNRESOLVED_REF in got and E_DUP_ID in got


def test_partial_priority_warns():
    b = replace(clean_bundle(), priority=("arrive",))
    diags = validate_model(b)
    # omission is a warning, not an error
    assert len(diags) == 1 and diags[0].severity == SEV_WARNING
    assert not has_errors(diags)
    assert b.priority_order() == ("arrive", "work", "leave")


def test_initial_override_checks():
    b = clean_bundle()
    b = replace(b, initial={"c": 9})
    assert codes(validate_model(b)) == [E_COUNTER_RANGE]
    b = replace(b, initial={"f": 1})
    assert codes(validate_model(b)) == [E_SYNTAX]
    b = replace(b, initial={"M1": 2})
    assert codes(validate_model(b)) == [E_UNRESOLVED_REF]
    b = replace(b, initial={"c": 2, "f": True})
    assert validate_model(b) == []


def test_timer_override():
    b = bundle(thimacs=[timer("t")], initial={"t": 9})
    assert validate_model(b) == []
    b = replace(b, initial={"t": 0})
    assert codes(validate_model(b)) == [E_COUNTER_RANGE]
    b = replace(b, initial={"t": True})
    assert codes(validate_model(b)) == [E_SYNTAX]


def test_schedule_targets():
    b = clean_bundle()
    b = replace(b, schedule=(Injection(1, "c", "x"),))
    assert codes(validate_model(b)) == [E_UNRESOLVED_REF]
    b = replace(b, schedule=(Injection(0, "env", "x"),))
    assert codes(validate_model(b)) == [E_SYNTAX]


def test_label_injected_twice_is_positioned():
    b = replace(clean_bundle(), schedule=(
        Injection(1, "env", "a"), Injection(2, "env", "b"),
        Injection(3, "env", "a")))
    diags = validate_model(b, "m.tm", {("schedule", 2): (9, 3)})
    assert [str(d) for d in diags] == [
        "m.tm:9:3: E_DUP_ID token label 'a' injected twice"]
    same_tick = replace(b, schedule=(Injection(1, "env", "a"),) * 2)
    assert codes(validate_model(same_tick)) == [E_DUP_ID]


def test_validate_order_independent():
    b = clean_bundle()
    flipped = bundle(
        thimacs=list(reversed(b.model.thimacs)),
        flows=list(reversed(b.model.flows)),
        triggers=list(reversed(b.model.triggers)),
        events=list(reversed(b.events)),
        behavior=list(reversed(b.behavior)),
        priority=list(reversed(b.priority)),
        schedule=b.schedule,
    )
    assert validate_model(b) == [] and validate_model(flipped) == []


# --- regions ----------------------------------------------------------------

def test_extract_region_induces_inner_edges():
    b = clean_bundle()
    refs = {ref("env.release"), ref("env.transfer"), ref("M1.receive"),
            ref("c.create")}
    region = extract_region(b.model, refs)
    assert region.parent == "m"
    assert region.actions == frozenset(refs)
    # env.release -> env.transfer -> M1.receive stay inside; the other
    # two flows leave the set
    assert len(region.flows) == 2
    # the inc trigger has both ends inside
    assert len(region.triggers) == 1


def test_extract_region_rejects_bad_refs():
    b = clean_bundle()
    with pytest.raises(TmError) as err:
        extract_region(b.model, {ref("ghost.receive")})
    assert err.value.code == E_UNRESOLVED_REF
    with pytest.raises(TmError) as err:
        extract_region(b.model, set())
    assert err.value.code == E_EMPTY_REGION


def test_extract_region_monotone():
    # growing the set never drops induced edges
    b = clean_bundle()
    small = {ref("env.release"), ref("env.transfer")}
    big = small | {ref("M1.receive"), ref("c.create")}
    r_small = extract_region(b.model, small)
    r_big = extract_region(b.model, big)
    assert set(r_small.flows) <= set(r_big.flows)
    assert set(r_small.triggers) <= set(r_big.triggers)


def test_full_region_reproduces_model():
    b = clean_bundle()
    everything = set()
    for t in b.model.thimacs:
        for a in t.effective_actions:
            everything.add(ActionRef(t.id, a))
    region = extract_region(b.model, everything)
    assert set(region.flows) == set(b.model.flows)
    assert set(region.triggers) == set(b.model.triggers)


def test_classification_by_size():
    b = clean_bundle()
    emap = b.event_map()
    compound = extract_region(b.model, emap["arrive"].region)
    single = extract_region(b.model, emap["work"].region)
    assert classify_event(compound) == EventClass.COMPOUND
    assert classify_event(single) == EventClass.GENERIC


def test_subject_modes():
    b = clean_bundle()
    emap = b.event_map()
    assert subject_mode(b.model, emap["arrive"]) == SubjectMode.FLOW
    assert subject_mode(b.model, emap["work"]) == SubjectMode.PROGRESSION
    bk = Event("note", frozenset({ref("c.create")}))
    assert subject_mode(b.model, bk) == SubjectMode.SUBJECTLESS


def test_path_decomposition_primary_first():
    b = clean_bundle()
    e = Event("both", frozenset({
        ref("env.release"), ref("env.transfer"), ref("M1.receive"),
        ref("M1.release"), ref("M1.transfer"), ref("out.receive")}))
    paths = region_paths(b.model, e)
    assert len(paths) == 2
    # M1.release -> ... -> out.receive ends in a sink, so the env path
    # leads despite sorting after it
    assert paths[0][0] == ref("env.release")
    assert paths[1][-1] == ref("out.receive")


def test_branching_flows_rejected():
    m = StaticModel(
        thimacs=(machine("A"), machine("B"), machine("C")),
        flows=(FlowEdge(ref("A.transfer"), ref("B.receive")),
               FlowEdge(ref("A.transfer"), ref("C.receive"))),
    )
    e = Event("e", frozenset({ref("A.transfer"), ref("B.receive"),
                              ref("C.receive")}))
    paths, reason = decompose_flows(induced_region(m, e.region))
    assert paths is None and "more than one" in reason
    with pytest.raises(TmError) as err:
        region_paths(m, e)
    assert err.value.code == E_REGION_FLOWS
    with pytest.raises(TmError) as err:
        compile(ModelBundle(m, (e,)))
    assert err.value.code == E_REGION_FLOWS


def test_cyclic_flows_rejected():
    m = StaticModel(
        thimacs=(machine("A"), machine("B")),
        flows=(FlowEdge(ref("A.transfer"), ref("B.transfer")),
               FlowEdge(ref("B.transfer"), ref("A.transfer"))),
    )
    e = Event("e", frozenset({ref("A.transfer"), ref("B.transfer")}))
    paths, reason = decompose_flows(induced_region(m, e.region))
    assert paths is None and "cycle" in reason


# --- bundle helpers ----------------------------------------------------------

def test_model_and_bundle_are_frozen():
    b = clean_bundle()
    with pytest.raises(FrozenInstanceError):
        b.priority = ("work", "arrive", "leave")
    with pytest.raises(FrozenInstanceError):
        b.model.flows = ()
    with pytest.raises(FrozenInstanceError):
        b.model.event_info(b.events[0]).writes = frozenset()


@pytest.mark.parametrize("fixture", ["assembly_line.tm", "door.tm",
                                     "phone_line.tm"])
def test_validation_alone_plans_every_event(fixture):
    parsed = parse_file(FIXTURES / fixture).bundle
    # renamed, so no live model shares its analyses
    b = replace(parsed, model=replace(parsed.model, name="unshared"))
    assert not b.model._event_infos
    assert not has_errors(validate_model(b))
    infos = b.model._event_infos
    assert set(infos) == set(b.events)
    for info in infos.values():
        assert all(type(plan) is tuple
                   for plan in (info.gates, info.steps, info.flow))
        assert type(info.writes) is frozenset


# --- shared event analyses -------------------------------------------------

def test_equal_models_share_each_event_analysis():
    a, b = clean_bundle(), clean_bundle()
    assert a.model is not b.model and a.model == b.model
    for e in a.events:
        assert a.model.event_info(e) is b.model.event_info(e)


def test_models_differing_in_name_analyse_apart():
    b = clean_bundle()
    other = replace(b.model, name="other")
    for e in b.events:
        assert b.model.event_info(e).region.parent == "m"
        assert other.event_info(e).region.parent == "other"


def test_models_differing_in_edge_order_analyse_apart():
    b = clean_bundle()
    flipped = replace(b.model, flows=b.model.flows[::-1],
                      triggers=b.model.triggers[::-1])
    arrive = b.event_map()["arrive"]
    flows = b.model.event_info(arrive).region.flows
    assert len(flows) == 2
    assert flipped.event_info(arrive).region.flows == flows[::-1]


def test_a_shared_table_goes_with_the_last_equal_model():
    gc.collect()
    gc.disable()
    try:
        a, b = clean_bundle(), clean_bundle()
        assert validate_model(a) == []
        table = weakref.ref(a.model._event_infos)
        assert b.model._event_infos is table()
        del a
        assert table() is not None
        del b
        assert table() is None
        assert not clean_bundle().model._event_infos
    finally:
        gc.enable()


def test_a_model_built_with_lists_still_validates_and_runs():
    b = clean_bundle()
    listed = replace(b, model=StaticModel(
        list(b.model.thimacs), list(b.model.flows), list(b.model.triggers),
        b.model.name))
    assert validate_model(listed) == []
    assert run(listed, max_ticks=8) == run(b, max_ticks=8)


MODEL_SEQUENCES = ["thimacs", "flows", "triggers"]
BUNDLE_SEQUENCES = ["events", "behavior", "priority", "schedule"]


@pytest.mark.parametrize("name", MODEL_SEQUENCES + BUNDLE_SEQUENCES)
def test_a_list_changed_after_building_changes_nothing(name):
    parsed = parse_file(FIXTURES / "assembly_line.tm").bundle
    expected = run(parsed)
    owner = parsed.model if name in MODEL_SEQUENCES else parsed
    items = list(getattr(owner, name))
    built = replace(owner, **{name: items})
    b = replace(parsed, model=built) if owner is parsed.model else built
    assert run(b) == expected
    items.clear()
    assert getattr(built, name) == getattr(owner, name)
    # a fresh bundle reads the fields anew but shares the cached program
    assert run(replace(b)) == expected


def test_a_bundle_keeps_a_read_only_copy_of_its_overrides():
    given = {"B1.count": 1}
    b = replace(parse_file(FIXTURES / "assembly_line.tm").bundle,
                initial=given)
    given["B1.count"] = 9
    with pytest.raises(TypeError):
        b.initial["B1.count"] = 9
    assert b.initial == {"B1.count": 1} and b.starts["B1.count"] == 1


COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda value: pickle.loads(pickle.dumps(value))}


@pytest.mark.parametrize("copier", COPIERS)
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.tm")))
def test_a_copy_of_a_bundle_or_model_is_built_from_its_fields(name, copier):
    # a read-only `initial` once made these raise TypeError, and a
    # model's copy once carried its caches and its program's tick table
    b = parse_file(FIXTURES / name).bundle
    expected = run(b)
    for original in (b, b.model):
        duplicate = COPIERS[copier](original)
        assert duplicate == original
        assert set(vars(duplicate)) == {f.name for f in fields(original)}
        assert run(duplicate if original is b
                   else replace(b, model=duplicate)) == expected


def test_an_event_region_given_as_a_set_validates_and_runs():
    parsed = parse_file(FIXTURES / "door.tm").bundle
    first, *rest = parsed.events
    b = replace(parsed, events=(replace(first, region=set(first.region)),
                                *rest))
    assert validate_model(b) == validate_model(parsed)
    assert run(b) == run(parsed)
    assert type(b.events[0].region) is frozenset


def test_priority_order_appends_unlisted():
    b = replace(clean_bundle(), priority=("work",))
    assert b.priority_order() == ("work", "arrive", "leave")


def test_event_label_and_flags():
    e = Event("e", frozenset({ref("c.create")}), "a note", bookkeeping=True,
              displayed=True)
    assert e.label == "a note" and e.bookkeeping and e.displayed


def test_canonicalize_sorts_and_completes():
    b = replace(clean_bundle(), priority=("work",))
    c = canonicalize(b)
    assert c.priority == ("work", "arrive", "leave")
    assert [e.id for e in c.events] == sorted(e.id for e in b.events)
    assert list(c.model.thimacs) == sorted(b.model.thimacs, key=lambda t: t.id)
    # idempotent
    assert canonicalize(c) == c


def test_guard_text():
    g = (CounterCmp("c", ">", 0), FlagTest("f", negated=True), TimerExpired("t"))
    assert guard_text(g) == "c > 0 and not f and expired t"


def test_names_follow_the_identifier_rule():
    b = bundle(thimacs=[machine("M-1"), machine("M.receive"),
                        machine("create"), flag("not"), timer("expired"),
                        machine("ok")],
               events=[Event("1e", frozenset({ref("ok.process")}))])
    b = replace(b, model=replace(b.model, name="m x"))
    positions = {("thimac", "not"): (3, 8), ("event", "1e"): (6, 7)}
    diags = [d for d in validate_model(b, "f.tm", positions)
             if d.code == E_SYNTAX]
    assert [str(d) for d in diags] == [
        "f.tm:0:0: E_SYNTAX model name 'm x' is not an identifier",
        "f.tm:0:0: E_SYNTAX thimac id 'M-1' is not an identifier",
        "f.tm:0:0: E_SYNTAX thimac id 'M.receive' must not end in an "
        "action name",
        "f.tm:0:0: E_SYNTAX thimac id 'create' must not end in an "
        "action name",
        "f.tm:3:8: E_SYNTAX store id 'not' is a guard word",
        "f.tm:0:0: E_SYNTAX store id 'expired' is a guard word",
        "f.tm:6:7: E_SYNTAX event id '1e' is not an identifier",
    ]
    # a machine may take a guard word, and an unnamed model is allowed
    ok = bundle(thimacs=[machine("not")])
    assert validate_model(replace(ok, model=replace(ok.model, name=""))) == []


@pytest.mark.parametrize("value", ["2", 2.0, True, None])
def test_counter_comparisons_need_integers(value):
    b = bundle(thimacs=[machine("M"), counter("c")],
               triggers=[TriggerEdge(ref("M.process"), ref("c.create"),
                                     Effect.INC,
                                     (CounterCmp("c", "<", value),))])
    diags = validate_model(b, "f.tm", {("trigger", 0): (4, 1)})
    assert [str(d) for d in diags] == [
        f"f.tm:4:1: E_SYNTAX guard compares c with {value!r}, "
        "not an integer"]
    ok = replace(b, model=replace(b.model, triggers=(replace(
        b.model.triggers[0], guard=(CounterCmp("c", "<", 2),)),)))
    assert validate_model(ok) == []


# --- one validity gate -----------------------------------------------------------

def _assembly():
    return parse_file(FIXTURES / "assembly_line.tm").bundle


def _guarded_arrival(b, atom):
    """`b` with `atom` guarding the first station's arrival count."""
    return replace(b, model=replace(b.model, triggers=[
        replace(t, guard=(atom,)) if str(t.src) == "M1.receive" else t
        for t in b.model.triggers]))


def _first_arrival_at(b, tick):
    return replace(b, schedule=(replace(b.schedule[0], tick=tick),)
                   + b.schedule[1:])


# Changes to `assembly_line.tm` that `validate_model` rejects, each of
# which the engine once ran silently, ran wrongly or failed on with a
# raw exception.
INVALID_VARIANTS = {
    "injection at tick 0": lambda b: _first_arrival_at(b, 0),
    "injection at tick -3": lambda b: _first_arrival_at(b, -3),
    "priority lists an event twice": lambda b: replace(
        b, priority=b.priority + ("E1",)),
    "priority names an unknown event": lambda b: replace(
        b, priority=b.priority + ("nope",)),
    "duplicate event id": lambda b: replace(
        b, events=b.events + (replace(b.events[0]),)),
    "empty region": lambda b: replace(
        b, events=b.events + (Event("E14", frozenset()),)),
    "guard on an unknown counter": lambda b: _guarded_arrival(
        b, CounterCmp("nope", "<", 3)),
    "guard against a string": lambda b: _guarded_arrival(
        b, CounterCmp("B1.count", "<", "3")),
    "unknown comparison operator": lambda b: _guarded_arrival(
        b, CounterCmp("B1.count", "~", 3)),
    "comparison operator in a list": lambda b: _guarded_arrival(
        b, CounterCmp("B1.count", ["<"], 3)),
    "injection at tick '3'": lambda b: _first_arrival_at(b, "3"),
    "duplicate thimac id": lambda b: replace(b, model=replace(
        b.model, thimacs=b.model.thimacs
        + (replace(b.model.thimac_map()["B1.count"], hi=1),))),
}


@pytest.mark.parametrize("name", INVALID_VARIANTS)
def test_the_engine_runs_only_what_validation_accepts(name):
    b = INVALID_VARIANTS[name](_assembly())
    first = next(d for d in validate_model(b) if d.severity == "error")
    start = init(_assembly())
    for call in (run, lambda bad: step(bad, start),
                 lambda bad: enabled_events(bad, start)):
        with pytest.raises(TmError) as err:
            call(b)
        assert (err.value.code, err.value.message) == (first.code,
                                                      first.message)


def test_an_unknown_comparison_operator_is_a_diagnostic():
    b = _guarded_arrival(_assembly(), CounterCmp("B1.count", "~", 3))
    assert [(d.code, d.message) for d in validate_model(b)] == [
        (E_SYNTAX, "bad comparison operator ~")]


@pytest.mark.parametrize("name, message", [
    ("comparison operator in a list", "bad comparison operator ['<']"),
    ("injection at tick '3'", "injection tick must be an integer, got '3'"),
], ids=["operator in a list", "tick as a string"])
def test_a_value_of_the_wrong_type_is_a_diagnostic(name, message):
    # such values once raised a raw TypeError from validation and runs
    b = INVALID_VARIANTS[name](_assembly())
    assert [(d.code, d.message) for d in validate_model(b)] == [
        (E_SYNTAX, message)]
    with pytest.raises(TmError) as err:
        b.arrivals
    assert (err.value.code, err.value.message) == (E_SYNTAX, message)


def test_a_clean_verdict_spares_the_program_its_checks(monkeypatch):
    checked = []
    real = model_module.validate_model
    monkeypatch.setattr(model_module, "validate_model",
                        lambda *args: checked.append(1) or real(*args))
    b = _assembly()
    checked.clear()
    compile(replace(b, schedule=()))
    assert checked == []
    # a copy of the model has no verdict on record
    compile(replace(b, model=replace(b.model)))
    assert checked == [1]
