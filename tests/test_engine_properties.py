"""Semantic properties of the tick engine, checked on generated runs.

Each run is criterion 6's `random_bundle` with a schedule drawn from the
same seed: up to eight tokens in ticks 1-4, landing in the source or in
a machine, so several tokens often arrive in one tick and pending
instances tie.  Examples are derandomized, so every run checks the same
inputs; `data/engine_trace_digests.json` pins the traces of seeds
0-299 so a change to the engine must keep them bit-identical.
"""

import copy
import dataclasses
import hashlib
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from thimac import (
    ActionKind,
    E_COUNTER_RANGE,
    E_UNRESOLVED_REF,
    Injection,
    TOKEN_KINDS,
    ThimacKind,
    TmError,
    engine,
    model,
)
from thimac.behavior import machine_status, project_config
from thimac.dsl import parse_file
from thimac.engine import enabled_events, format_trace_records, init, quiescent, step

from test_acceptance import random_bundle

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)
SEEDS = st.integers(0, 10**6)
MAX_TICKS = 40
DIGESTS = Path(__file__).resolve().parent / "data" / "engine_trace_digests.json"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def drawn_run(seed):
    """Criterion 6's random bundle for `seed` with a drawn schedule."""
    rng = random.Random(seed)
    bundle = random_bundle(rng, seed)
    return drawn_schedule(rng, bundle)


def drawn_schedule(rng, bundle):
    """`bundle` with a schedule of up to eight tokens in ticks 1-4, each
    landing in the source or a machine."""
    targets = ["env"] + [t.id for t in bundle.model.thimacs
                         if t.kind == ThimacKind.MACHINE]
    schedule = tuple(Injection(rng.randint(1, 4), rng.choice(targets), f"t{j}")
                     for j in range(rng.randint(0, 8)))
    return dataclasses.replace(bundle, schedule=schedule)


def trace_of(bundle, watch=None):
    """Step `bundle` to quiescence or MAX_TICKS.  Returns (trace, last
    configuration, error code or None); `watch(pre, cfg, entry)` sees
    every tick."""
    cfg = init(bundle)
    trace = []
    try:
        while not quiescent(bundle, cfg) and cfg.tick < MAX_TICKS:
            pre = cfg
            cfg, entry = step(bundle, pre)
            trace.append(entry)
            if watch is not None:
                watch(pre, cfg, entry)
    except TmError as err:
        return trace, cfg, err.code
    return trace, cfg, None


def fired(trace, rename=lambda label: label):
    return [(e.tick, [(f.event, None if f.subject is None else rename(f.subject),
                       f.bookkeeping) for f in e.fired]) for e in trace]


def resting(cfg, rename=lambda label: label):
    return {rename(label): (tok.thimac, tok.stage)
            for label, tok in cfg.tokens.items()}


def run_digest(bundle) -> str:
    """Digest of a run's trace records, end state and error code; each
    token's arrival tick is its label's earliest tick in the schedule."""
    trace, cfg, error = trace_of(bundle)
    arrival = {}
    for inj in bundle.schedule:
        arrival[inj.label] = min(inj.tick, arrival.get(inj.label, inj.tick))
    state = [cfg.tick, sorted(cfg.counters.items()), sorted(cfg.flags.items()),
             sorted((tid, ts.remaining, ts.expired)
                    for tid, ts in cfg.timers.items()),
             sorted((label, tok.thimac, tok.stage and tok.stage.value,
                     age, arrival[label])
                    for age, (label, tok) in enumerate(cfg.tokens.items())),
             sorted(cfg.pending, key=lambda p: (p[0], p[1] or "")), error]
    text = format_trace_records(trace) + json.dumps(state)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@PROPERTY
@given(SEEDS)
def test_reversed_labels_give_the_renamed_trace(seed):
    b = drawn_run(seed)
    labels = sorted(inj.label for inj in b.schedule)
    flip = dict(zip(labels, reversed(labels)))
    flipped = dataclasses.replace(b, schedule=tuple(
        dataclasses.replace(inj, label=flip[inj.label]) for inj in b.schedule))
    trace, cfg, error = trace_of(b)
    trace2, cfg2, error2 = trace_of(flipped)
    assert fired(trace2) == fired(trace, flip.get)
    assert resting(cfg2) == resting(cfg, flip.get)
    assert error2 == error


@PROPERTY
@given(SEEDS, st.randoms(use_true_random=False))
def test_declaration_order_decides_nothing(seed, rng):
    # random_bundle leaves at most one event out of its priority list,
    # so the order of events decides no rank either
    b = drawn_run(seed)

    def shuffled(items):
        items = list(items)
        rng.shuffle(items)
        return tuple(items)

    m = b.model
    model = dataclasses.replace(m, thimacs=shuffled(m.thimacs),
                                flows=shuffled(m.flows),
                                triggers=shuffled(m.triggers))
    b2 = dataclasses.replace(b, model=model, events=shuffled(b.events),
                             behavior=shuffled(b.behavior))
    trace, cfg, error = trace_of(b)
    trace2, cfg2, error2 = trace_of(b2)
    assert fired(trace2) == fired(trace)
    assert resting(cfg2) == resting(cfg)
    assert error2 == error


@PROPERTY
@given(SEEDS)
def test_a_replayed_run_gives_the_same_trace(seed):
    b = drawn_run(seed)
    trace, cfg, error = trace_of(b)
    trace2, cfg2, error2 = trace_of(b)
    assert trace2 == trace
    assert cfg2 == cfg
    assert error2 == error


@PROPERTY
@given(SEEDS)
def test_counters_stay_in_range_or_the_run_aborts(seed):
    b = drawn_run(seed)
    ranges = {t.id: (t.lo, t.hi) for t in b.model.thimacs
              if t.kind == ThimacKind.COUNTER}

    def watch(pre, cfg, entry):
        for tid, (lo, hi) in ranges.items():
            assert lo <= cfg.counters[tid] <= hi

    _trace, _cfg, error = trace_of(b, watch)
    assert error in (None, E_COUNTER_RANGE)


@PROPERTY
@given(SEEDS)
def test_tokens_are_conserved(seed):
    b = drawn_run(seed)
    token_kinds = {t.id for t in b.model.thimacs if not t.is_store}

    def watch(pre, cfg, entry):
        arrived = {inj.label for inj in b.schedule if inj.tick <= cfg.tick}
        assert set(cfg.tokens) == arrived
        for tok in cfg.tokens.values():
            assert (tok.thimac is None) == (tok.stage is None)
            assert tok.thimac is None or tok.thimac in token_kinds
        # a token that has left never comes back
        for label, tok in pre.tokens.items():
            if tok.thimac is None:
                assert cfg.tokens[label].thimac is None

    trace_of(b, watch)


@PROPERTY
@given(SEEDS)
def test_every_fired_instance_was_enabled(seed):
    b = drawn_run(seed)

    def watch(pre, cfg, entry):
        enabled = set(enabled_events(b, pre))
        for f in entry.fired:
            if not f.bookkeeping:
                assert (f.event, f.subject) in enabled

    trace_of(b, watch)


@PROPERTY
@given(SEEDS)
def test_stepping_leaves_its_input_configuration_alone(seed):
    b = drawn_run(seed)
    cfg = init(b)
    while not quiescent(b, cfg) and cfg.tick < MAX_TICKS:
        before = copy.deepcopy(cfg)
        enabled_events(b, cfg)
        assert cfg == before
        try:
            nxt, _entry = step(b, cfg)
        except TmError:
            assert cfg == before
            return
        assert cfg == before
        cfg = nxt


def test_drawn_runs_keep_their_recorded_traces():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = {str(seed): run_digest(drawn_run(seed)) for seed in range(300)}
    changed = sorted((int(s) for s in expected if got.get(s) != expected[s]))
    assert len(expected) == 300
    assert not changed, f"traces changed for seeds {changed[:10]}"


def test_drawn_runs_tie_tokens():
    # most drawn schedules put several tokens into one tick
    tied = 0
    for seed in range(300):
        ticks = [inj.tick for inj in drawn_run(seed).schedule]
        tied += len(ticks) > len(set(ticks))
    assert tied > 150


def relabelled(bundle, rename):
    return dataclasses.replace(bundle, schedule=tuple(
        dataclasses.replace(inj, label=rename[inj.label])
        for inj in bundle.schedule))


def test_a_warm_tick_table_gives_the_cold_run(monkeypatch):
    def steps(bundle):
        # every configuration in order, the trace and the error code;
        # the repr holds the order of tokens and pending instances too
        configs = []
        run = trace_of(bundle, lambda _pre, cfg, _entry: configs.append(cfg))
        return repr((configs, run))

    def cold(bundle):
        # a fresh copy of the model, whose table records nothing
        with monkeypatch.context() as patch:
            patch.setattr(engine, "TICK_TABLE_PLACES", -1)
            return steps(dataclasses.replace(
                bundle, model=dataclasses.replace(bundle.model)))

    inputs = [drawn_run(seed) for seed in range(300)] + [
        parse_file(FIXTURES / name).bundle
        for name in ("door.tm", "phone_line.tm")]
    rng = random.Random(0)
    for b in inputs:
        labels = sorted({inj.label for inj in b.schedule})
        renamed = relabelled(b, {label: f"{label}'" for label in labels})
        flipped = relabelled(b, dict(zip(labels, reversed(labels))))
        # the first run records the ticks the others replay; flipping
        # the labels changes the order the opening takes tied subjects
        # in, and other schedules meet other ticks of the same model
        others = [drawn_schedule(rng, b) for _ in range(3)]
        for warm in (b, b, renamed, flipped, *others):
            assert steps(warm) == cold(warm)


# --- the chained key, the handoff and the projection --------------------------------

def fenced_inputs():
    """The drawn runs whose digests are pinned, then the fixtures."""
    return [drawn_run(seed) for seed in range(300)] + [
        parse_file(FIXTURES / name).bundle
        for name in ("assembly_line.tm", "door.tm", "phone_line.tm")]


def test_a_chained_look_up_equals_a_full_one(monkeypatch):
    # a full look-up ranks the pending instances; one on a configuration
    # step built from a recorded tick reads the key it carries instead,
    # and a copy carries none
    ranked = []
    real_ranked = engine._ranked
    monkeypatch.setattr(engine, "_ranked",
                        lambda *args: ranked.append(1) or real_ranked(*args))
    chained = 0
    for b in fenced_inputs():
        # the first run records the ticks the second replays
        for _ in range(2):
            cfg = init(b)
            while not quiescent(b, cfg) and cfg.tick < MAX_TICKS:
                try:
                    cfg = step(b, cfg)[0]
                except TmError:
                    break
                del ranked[:]
                look = engine._look_up(b, cfg)
                chained += look[0] is not None and not ranked
                assert look == engine._look_up(b, copy.copy(cfg))
    assert chained > 500


def test_a_stepped_configuration_lists_its_tokens_in_injection_order():
    # a token's age is its position: tick by tick, then in schedule
    # order, in opened ticks and in replayed ones
    for b in fenced_inputs():
        by_tick = sorted(b.schedule, key=lambda inj: inj.tick)

        def watch(_pre, cfg, _entry):
            assert list(cfg.tokens) == [inj.label for inj in by_tick
                                        if inj.tick <= cfg.tick]

        # the first run records the ticks the second replays
        for _ in range(2):
            trace_of(b, watch)


def stepped(b, peek):
    """(configuration, next configuration, trace entry) per tick of a run
    of `b`, calling `enabled_events` first on the ticks `peek` picks."""
    ticks = []
    cfg = init(b)
    while not quiescent(b, cfg) and cfg.tick < MAX_TICKS:
        if peek(cfg.tick):
            enabled_events(b, cfg)
        try:
            nxt, entry = step(b, cfg)
        except TmError:
            break
        ticks.append((cfg, nxt, entry))
        cfg = nxt
    return ticks


def test_stepping_a_copy_gives_the_same_tick():
    for b in fenced_inputs():
        for peek in (lambda tick: tick % 2, lambda tick: True):
            for pre, nxt, entry in stepped(b, peek):
                assert step(b, copy.deepcopy(pre)) == (nxt, entry)
                again = copy.deepcopy(pre)
                enabled_events(b, again)
                assert step(b, again) == (nxt, entry)


def table_free_step(monkeypatch, b, cfg):
    """`step` on a fresh copy of the model, whose table records nothing,
    and a deep copy of `cfg`: (configuration, trace entry), or the
    error code it raises."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "TICK_TABLE_PLACES", -1)
        return stepped_or_code(dataclasses.replace(
            b, model=dataclasses.replace(b.model)), copy.deepcopy(cfg))


def stepped_or_code(b, cfg):
    try:
        return step(b, cfg)
    except TmError as err:
        return err.code


def _change(cfg):
    """Drop every pending instance and live token of `cfg`, and flip
    every flag."""
    cfg.pending.clear()
    for tok in cfg.tokens.values():
        tok.thimac = tok.stage = None
    for fid in cfg.flags:
        cfg.flags[fid] = not cfg.flags[fid]


COPIERS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda cfg: pickle.loads(pickle.dumps(cfg)),
           "replace": dataclasses.replace}


@pytest.mark.parametrize("copier", sorted(COPIERS))
def test_a_changed_copy_of_a_stepped_configuration_is_keyed_anew(
        monkeypatch, copier):
    # a configuration step built from a recorded tick carries its key;
    # a copy of it must not, since the copy may change
    differs = 0
    for b in fenced_inputs()[::5]:
        for pre, nxt, _entry in stepped(b, lambda tick: False):
            changed = COPIERS[copier](step(b, pre)[0])
            _change(changed)
            got = stepped_or_code(b, changed)
            assert got == table_free_step(monkeypatch, b, changed)
            differs += got != stepped_or_code(b, nxt)
    assert differs > 100


def test_a_look_up_is_handed_only_to_its_own_configuration(monkeypatch):
    rng = random.Random(1)
    for b in fenced_inputs()[::10]:
        # bundles sharing the program: the same schedule as another
        # object, and another schedule
        twins = (dataclasses.replace(b), drawn_schedule(rng, b))
        assert model.compile(twins[1]) is model.compile(b)
        for pre, _nxt, _entry in stepped(b, lambda tick: True):
            for stepper, cfg in ((b, copy.copy(pre)), (twins[0], pre),
                                 (twins[1], pre)):
                enabled_events(b, pre)
                assert stepped_or_code(stepper, cfg) == table_free_step(
                    monkeypatch, stepper, cfg)


def status(cfg, tid):
    """A token thimac's status, as the projection rule states it."""
    if cfg.flags.get(f"{tid}.block"):
        return "blocked"
    if any(tok.thimac == tid and tok.stage is ActionKind.PROCESS
           for tok in cfg.tokens.values()):
        return "busy"
    return "idle"


def test_a_projection_is_every_component_on_its_own():
    for name in ("assembly_line.tm", "door.tm", "phone_line.tm"):
        b = parse_file(FIXTURES / name).bundle
        kinds = {t.id: t.kind for t in b.model.thimacs}
        ids = [tid for tid, kind in kinds.items()
               if kind is not ThimacKind.TIMER]
        configs = [init(b)] + [nxt for _pre, nxt, _entry
                               in stepped(b, lambda tick: False)]
        # the same configurations with every block flag raised
        blocks = {f"{tid}.block": True for tid in ids
                  if f"{tid}.block" in kinds}
        blocked = [dataclasses.replace(cfg, flags={**cfg.flags, **blocks})
                   for cfg in configs]
        statuses = set()
        for cfg in configs + blocked:
            want = tuple(cfg.counters[tid] if kinds[tid] is ThimacKind.COUNTER
                         else cfg.flags[tid] if kinds[tid] is ThimacKind.FLAG
                         else status(cfg, tid) for tid in ids)
            for projection in (tuple(ids), ids, dict.fromkeys(ids)):
                assert project_config(b, projection, cfg) == want
            for tid, got in zip(ids, want):
                if kinds[tid] in TOKEN_KINDS:
                    assert machine_status(b, cfg, tid) == got
            statuses.update(want)
        assert {"idle", "busy"} <= statuses
        if blocks:
            assert "blocked" in statuses
        timers = [tid for tid, kind in kinds.items()
                  if kind is ThimacKind.TIMER]
        # the first bad id in projection order is the one reported
        for bad in (["nope", *timers], [*timers, "nope"]):
            with pytest.raises(TmError) as err:
                project_config(b, ids + bad, configs[-1])
            assert err.value.code == E_UNRESOLVED_REF
            assert repr(bad[0]) in err.value.message
