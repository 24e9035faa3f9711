"""State machines: parsing, bundle generation, walks, projections."""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from thimac import (
    ActionKind,
    ActionRef,
    EventClass,
    Injection,
    ThimacKind,
    TmError,
    E_DUP_ID,
    E_NO_INITIAL,
    E_SYNTAX,
    E_UNRESOLVED_REF,
    has_errors,
    validate_model,
)
from thimac import model
from thimac.dsl import parse, parse_file, serialize
from thimac.engine import run
from thimac.fsmbridge import (
    FsmSpec,
    FsmTransition,
    fsm_to_tm,
    format_projection,
    parse_fsm,
    parse_fsm_file,
    parse_state_mapping,
    project_states,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def door_spec():
    result = parse_fsm_file(FIXTURES / "door.fsm")
    assert result.ok, [str(d) for d in result.diagnostics]
    return result.spec


def test_parse_fsm_file_reports_non_utf8_bytes(tmp_path):
    bad = tmp_path / "bad.fsm"
    bad.write_bytes(b"machine m\n\xff\n")
    result = parse_fsm_file(bad)
    assert not result.ok
    assert [str(d) for d in result.diagnostics] == [
        f"{bad}:2:1: E_SYNTAX not UTF-8 text (byte 0xff: invalid start byte)"]


def oracle_walk(spec, stimuli):
    """Reference interpreter: a stimulus lands when the machine has
    settled (two ticks after the last move or the seed) and a matching
    transition leaves the current state."""
    table = {}
    for t in spec.transitions:
        table.setdefault((t.src, t.label), t)
    current = spec.initial
    settled = 2
    fired = []
    for tick, label in stimuli:
        if tick < settled:
            continue
        t = table.get((current, label))
        if t is None:
            continue
        fired.append((tick, t))
        current = t.dst
        settled = tick + 2
    return current, fired


def drive(bundle, spec, stimuli):
    """Run the generated bundle under a stimulus schedule; returns the
    final state name and the fired (tick, transition event) pairs."""
    extra = tuple(Injection(tick, f"stim.{label}", f"s{i}")
                  for i, (tick, label) in enumerate(stimuli))
    b = dataclasses.replace(bundle, schedule=bundle.schedule + extra)
    cfg, trace = run(b, max_ticks=(stimuli[-1][0] + 4) if stimuli else 6)
    state_events = {s.lower() for s in spec.states}
    fired = [(e.tick, f.event) for e in trace for f in e.fired
             if f.event not in state_events]
    tok = cfg.tokens[spec.name]
    assert tok.alive
    state = next(s for s in spec.states if f"st.{s}" == tok.thimac)
    return state, fired


# --- parsing -------------------------------------------------------------------

def test_parse_door_fsm():
    spec = door_spec()
    assert spec.name == "door"
    assert spec.states == ("Closed", "Opened")
    assert spec.initial == "Closed"
    assert spec.transitions == (
        FsmTransition("Closed", "Opened", "Open"),
        FsmTransition("Opened", "Closed", "Close", "doorwayEmpty"),
    )


def test_parse_requires_header():
    result = parse_fsm("state A\ninitial A\n")
    assert not result.ok
    assert any(d.code == E_SYNTAX for d in result.diagnostics)


def test_parse_requires_initial():
    result = parse_fsm("fsm m\nstate A\n")
    assert not result.ok
    assert [d.code for d in result.diagnostics] == [E_NO_INITIAL]


def test_parse_unknown_state_positioned():
    result = parse_fsm("fsm m\nstate A\ninitial A\n"
                       "trans A -> B on go\n")
    assert not result.ok
    d = next(d for d in result.diagnostics if d.code == E_UNRESOLVED_REF)
    assert d.line == 4
    assert "B" in d.message


def test_parse_duplicate_state():
    result = parse_fsm("fsm m\nstate A\nstate A\ninitial A\n")
    assert not result.ok
    assert any("twice" in d.message for d in result.diagnostics)


def test_parse_bad_transition_shape():
    result = parse_fsm("fsm m\nstate A\ninitial A\ntrans A B on go\n")
    assert not result.ok
    assert any(d.code == E_SYNTAX and d.line == 4
               for d in result.diagnostics)


def test_parse_comments_and_blanks():
    result = parse_fsm("# top\nfsm m\n\nstate A  # trailing\ninitial A\n")
    assert result.ok


# --- generation ------------------------------------------------------------------

def test_door_bundle_shape():
    b = fsm_to_tm(door_spec())
    assert [e.id for e in b.events] == ["closed", "opened",
                                        "opening", "closing"]
    # the chronology is the four-step cycle through both states
    assert set(b.behavior) == {("closed", "opening"), ("opening", "opened"),
                               ("opened", "closing"), ("closing", "closed")}
    tmap = b.model.thimac_map()
    assert tmap["st.Closed"].kind == ThimacKind.MACHINE
    assert len(tmap["st.Closed"].actions) == 5
    assert tmap["stim.Open"].kind == ThimacKind.SOURCE
    assert tmap["used"].kind == ThimacKind.SINK
    assert tmap["doorwayEmpty"].kind == ThimacKind.FLAG
    assert tmap["doorwayEmpty"].init is True
    assert b.schedule == (Injection(1, "st.Closed", "door"),)


def test_transition_guard_becomes_signal_guard():
    b = fsm_to_tm(door_spec())
    guarded = [t for t in b.model.triggers if t.guard]
    assert len(guarded) == 1
    assert guarded[0].src == ActionRef("stim.Close", ActionKind.TRANSFER)
    assert guarded[0].effect is None


def test_gerund_names_and_collisions():
    spec = FsmSpec("m", ("Opening", "Idle"), "Idle", (
        FsmTransition("Idle", "Opening", "Open"),
        FsmTransition("Opening", "Idle", "Close"),
    ))
    b = fsm_to_tm(spec)
    # the state event claims "opening" first; the transition yields
    assert [e.id for e in b.events] == ["opening", "idle",
                                        "opening2", "closing"]


def test_action_named_state_sanitized():
    spec = FsmSpec("m", ("receive", "Done"), "receive", (
        FsmTransition("receive", "Done", "go"),
    ))
    b = fsm_to_tm(spec)
    assert "st.receive_" in b.model.thimac_map()


def test_round_trip_walk():
    spec = door_spec()
    b = fsm_to_tm(spec)
    state, fired = drive(b, spec, [(2, "Open"), (4, "Close")])
    assert state == "Closed"
    assert fired == [(2, "opening"), (4, "closing")]


def test_unsettled_stimulus_drops():
    spec = door_spec()
    b = fsm_to_tm(spec)
    # tick 3 lands one tick after the move to Opened and is discarded
    state, fired = drive(b, spec, [(2, "Open"), (3, "Close")])
    assert state == "Opened"
    assert fired == [(2, "opening")]


def test_wrong_state_stimulus_drops():
    spec = door_spec()
    b = fsm_to_tm(spec)
    state, fired = drive(b, spec, [(2, "Close"), (4, "Open")])
    assert state == "Opened"
    assert fired == [(4, "opening")]


def test_random_walks_match_oracle():
    spec = door_spec()
    b = fsm_to_tm(spec)
    trans_event = {id(t): b.events[len(spec.states) + i].id
                   for i, t in enumerate(spec.transitions)}
    rng = random.Random(20)
    for _ in range(25):
        k = rng.randint(0, 12)
        ticks = sorted(rng.sample(range(2, 40), k))
        stimuli = [(tick, rng.choice(["Open", "Close"]))
                   for tick in ticks]
        want_state, want_fired = oracle_walk(spec, stimuli)
        state, fired = drive(b, spec, stimuli)
        assert state == want_state, stimuli
        assert fired == [(tick, trans_event[id(t)])
                         for tick, t in want_fired], stimuli


# --- projections -----------------------------------------------------------------

def door_mapping():
    return {
        "Closed": frozenset({ActionRef("st.Closed", ActionKind.CREATE),
                             ActionRef("st.Closed", ActionKind.PROCESS)}),
        "Opened": frozenset({ActionRef("st.Opened", ActionKind.PROCESS)}),
    }


def test_project_states_report():
    spec = door_spec()
    b = fsm_to_tm(spec)
    report = project_states(spec, b, door_mapping())
    closed, opened = report.entries
    assert closed.state == "Closed"
    assert closed.event_class == EventClass.COMPOUND
    assert not closed.suspicious
    # create and process share no induced edge
    assert not closed.connected
    assert opened.event_class == EventClass.GENERIC
    assert opened.suspicious
    assert opened.connected
    assert report.unmapped == ()
    assert report.overlaps == ()


def test_project_reports_unmapped_and_overlap():
    spec = door_spec()
    b = fsm_to_tm(spec)
    shared = frozenset({ActionRef("st.Closed", ActionKind.PROCESS)})
    report = project_states(spec, b, {"Closed": shared, "Opened": shared})
    assert report.unmapped == ()
    assert report.overlaps == (("Closed", "Opened", shared),)
    partial = project_states(spec, b, {"Closed": shared})
    assert partial.unmapped == ("Opened",)
    assert format_projection(report).endswith(
        "overlap: Closed and Opened share st.Closed.process\n")


@pytest.mark.parametrize("refs, connected", [
    ("M1.transfer, M1.receive, B1.count.create", True),
    ("M1.receive, B1.count.create, M2.transfer, M2.receive", False),
], ids=["a flow and two triggers in a cycle", "two parts"])
def test_a_projected_region_is_joined_by_its_flows_and_triggers(refs,
                                                                connected):
    b = parse_file(FIXTURES / "assembly_line.tm").bundle
    mapping = parse_state_mapping(f"Closed = {refs}\n")
    (entry,) = project_states(door_spec(), b, mapping).entries
    assert entry.connected is connected


def test_parse_state_mapping():
    text = ("# claimed states\n"
            "Closed = st.Closed.create, st.Closed.process\n"
            "Opened = st.Opened.process\n")
    mapping = parse_state_mapping(text)
    assert mapping == door_mapping()


def test_parse_state_mapping_errors():
    with pytest.raises(TmError):
        parse_state_mapping("Closed st.Closed.create\n")
    with pytest.raises(TmError):
        parse_state_mapping("Closed = st.Closed.bogus\n")
    with pytest.raises(TmError):
        parse_state_mapping("Closed = \n")


def test_format_projection_lines():
    spec = door_spec()
    b = fsm_to_tm(spec)
    text = format_projection(project_states(spec, b,
                                            {"Opened": door_mapping()["Opened"]}))
    assert "Opened: 1 actions, generic" in text
    assert "suspicious" in text
    assert "unmapped: Closed" in text


def chain_spec(n):
    """A chain of `n` states, each stepping to the next on `go`."""
    lines = (["fsm chain"] + [f"state S{i}" for i in range(n)]
             + ["initial S0"]
             + [f"trans S{i} -> S{i + 1} on go" for i in range(n - 1)])
    return parse_fsm("\n".join(lines)).spec


def test_chain_import_analyses_each_event_once(monkeypatch):
    # the import's self-check analyses each event; the reparse equals
    # the import, so its validation and the run's compile reuse those
    # analyses: a second analysis of any event shows up here
    calls = []
    real = model.induced_region

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "induced_region", counting)
    n = 60
    spec = chain_spec(n)
    bundle = fsm_to_tm(spec)
    reparsed = parse(serialize(bundle)).bundle
    stimuli = [(2 + 2 * k, "go") for k in range(n - 1)]
    state, _fired = drive(reparsed, spec, stimuli)
    assert state == oracle_walk(spec, stimuli)[0] == f"S{n - 1}"
    assert len(calls) == len(bundle.events)


@pytest.mark.parametrize("make_spec", [door_spec, lambda: chain_spec(60)],
                         ids=["door", "chain"])
def test_import_equals_its_reparse_and_keeps_event_order(make_spec):
    spec = make_spec()
    bundle = fsm_to_tm(spec)
    assert bundle.model == parse(serialize(bundle)).bundle.model
    # events stay in generation order, states first, as callers index
    # the transitions' events by declaration
    n = len(spec.states)
    assert [e.label for e in bundle.events[:n]] == [
        f"resting in {s}" for s in spec.states]
    assert [e.label for e in bundle.events[n:]] == [
        f"{t.src} to {t.dst} on {t.label}" for t in spec.transitions]


def test_parse_fsm_positions_names_that_are_not_identifiers():
    # `Closed-1` reads as the name `Closed` and the number `-1`
    result = parse_fsm("fsm door\nstate Closed-1\ninitial Closed\n"
                       "trans Closed -> Closed on Open when 9lives\n")
    assert not result.ok
    assert [str(d) for d in result.diagnostics] == [
        "<fsm>:2:13: E_SYNTAX expected: state NAME",
        "<fsm>:4:37: E_SYNTAX expected: trans FROM -> TO on LABEL "
        "[when FLAG]",
        "<fsm>:3:9: E_UNRESOLVED_REF unknown state Closed",
    ]


def test_parse_fsm_columns():
    result = parse_fsm("fsm m\nstate A\nstate A  # again\ninitial B\n"
                       "trans A -> C on go\ntrans A -> A on\n"
                       "\tstop A\n")
    assert [(d.line, d.col, d.code) for d in result.diagnostics] == [
        (3, 7, E_SYNTAX),           # the duplicate name
        (6, 16, E_SYNTAX),          # just past the missing label
        (7, 2, E_SYNTAX),           # the unknown directive
        (5, 12, E_UNRESOLVED_REF),  # the unknown target state
        (4, 9, E_UNRESOLVED_REF),   # the unknown initial state
    ]


def test_fsm_to_tm_refuses_names_that_are_not_identifiers():
    spec = FsmSpec("m", ("Closed-1", "Open"), "Open", (
        FsmTransition("Open", "Closed-1", "shut"),))
    with pytest.raises(TmError) as err:
        fsm_to_tm(spec)
    assert err.value.code == E_SYNTAX
    assert "thimac id 'st.Closed-1' is not an identifier" in str(err.value)


def test_state_mapping_errors_name_line_and_column():
    cases = {
        "Closed st.Closed.create\n": "1:8: expected STATE = ref, ref",
        "= st.Closed.create\n": "1:1: expected STATE = ref, ref",
        "# note\nClosed = st.Closed.bogus\n":
            "2:10: bad action ref 'st.Closed.bogus'",
        "Closed = \n": "1:1: state Closed maps to nothing",
        "Closed = st.Closed.create $\n": "1:27: unexpected character '$'",
        "Closed = st.Closed.create\nClosed = st.Closed.process\n":
            "2:1: state Closed mapped twice",
    }
    for text, where in cases.items():
        with pytest.raises(TmError) as err:
            parse_state_mapping(text, file="map.txt")
        assert err.value.code == E_SYNTAX
        assert err.value.message == f"map.txt:{where}"


def test_parse_fsm_positions_guard_flags_the_import_cannot_take():
    result = parse_fsm("fsm m\nstate A\nstate B\ninitial A\n"
                       "trans A -> B on go when used\n"
                       "trans B -> A on go when not\n"
                       "trans A -> A on go when st.B\n"
                       "trans A -> A on receive when stim.receive_\n"
                       "trans A -> A on go when expired\n"
                       "trans A -> C on go when x.create\n"
                       "trans A -> A on go when receive\n",
                       file="g.fsm")
    assert [str(d) for d in result.diagnostics] == [
        "g.fsm:5:25: E_DUP_ID guard flag used is also a generated thimac id",
        "g.fsm:6:25: E_SYNTAX guard flag 'not' is a guard word",
        "g.fsm:7:25: E_DUP_ID guard flag st.B is also a generated thimac id",
        "g.fsm:8:30: E_DUP_ID guard flag stim.receive_ is also a generated "
        "thimac id",
        "g.fsm:9:25: E_SYNTAX guard flag 'expired' is a guard word",
        "g.fsm:10:12: E_UNRESOLVED_REF unknown state C",
        "g.fsm:10:25: E_SYNTAX guard flag 'x.create' must not end in an "
        "action name",
        "g.fsm:11:25: E_SYNTAX guard flag 'receive' must not end in an "
        "action name",
    ]
    assert {d.code for d in result.diagnostics} == {
        E_DUP_ID, E_SYNTAX, E_UNRESOLVED_REF}


def test_parse_fsm_positions_names_that_import_as_one_id():
    result = parse_fsm("fsm m\nstate A\nstate A.receive\nstate A.receive_\n"
                       "state A.block\ninitial A\n"
                       "trans A -> A on go.block\ntrans A -> A on go\n",
                       file="n.fsm")
    assert [str(d) for d in result.diagnostics] == [
        "n.fsm:4:7: E_DUP_ID state A.receive_ imports as st.A.receive_, "
        "as does state A.receive",
        "n.fsm:5:7: E_DUP_ID state A.block imports as st.A.block, the "
        "block flag id of state A",
        "n.fsm:7:17: E_DUP_ID label go.block imports as stim.go.block, the "
        "block flag id of label go",
    ]


def test_guard_flags_outside_the_generated_ids_import():
    # `st.` names no state here, so the flag collides with nothing
    result = parse_fsm("fsm m\nstate A\ninitial A\n"
                       "trans A -> A on go when st.Nope\n"
                       "trans A -> A on stop when usedUp\n")
    assert result.ok, [str(d) for d in result.diagnostics]
    bundle = fsm_to_tm(result.spec)
    flags = [t.id for t in bundle.model.thimacs
             if t.kind == ThimacKind.FLAG]
    assert flags == ["st.Nope", "usedUp"]
    assert parse(serialize(bundle)).ok


def test_fsm_to_tm_still_validates_what_it_builds():
    spec = FsmSpec("m", ("A",), "A", (FsmTransition("A", "A", "go", "used"),))
    with pytest.raises(TmError) as err:
        fsm_to_tm(spec)
    assert err.value.code == E_SYNTAX
    assert "E_DUP_ID duplicate thimac id used" in str(err.value)


# Names that collide once imported: by case, by gerund, with the ids the
# importer generates, with action words, by the underscore the importer
# appends, with block flag ids and with guard words.
COLLIDING = st.sampled_from([
    "A", "a", "B", "Open", "Opening", "open", "go", "going", "used", "st",
    "st.A", "stim", "stim.go", "receive", "A.receive", "A.receive_",
    "x.create", "Process", "A.block", "go.block", "not", "expired"])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(COLLIDING, st.lists(COLLIDING, min_size=1, max_size=4, unique=True),
       st.data())
def test_every_accepted_spec_imports_to_a_valid_bundle(name, states, data):
    initial = data.draw(st.sampled_from(states))
    moves = data.draw(st.lists(st.tuples(
        st.sampled_from(states), st.sampled_from(states), COLLIDING,
        st.one_of(st.none(), COLLIDING)), max_size=5))
    lines = [f"fsm {name}", *(f"state {s}" for s in states),
             f"initial {initial}"]
    lines += [f"trans {src} -> {dst} on {label}"
              + (f" when {guard}" if guard else "")
              for src, dst, label, guard in moves]
    result = parse_fsm("\n".join(lines))
    assume(result.ok)
    bundle = fsm_to_tm(result.spec)
    assert not has_errors(validate_model(bundle))
    assert bundle.model == parse(serialize(bundle)).bundle.model
