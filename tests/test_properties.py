"""Properties of the text format, checked on generated inputs.

Examples are derandomized, so every run checks the same inputs."""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from thimac import (
    ActionRef,
    FlowEdge,
    ModelBundle,
    StaticModel,
    Thimac,
    ThimacKind,
    canonicalize,
    has_errors,
    validate_model,
)
from thimac.dsl import lex_lines, parse_file, serialize

from test_acceptance import random_bundle

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

# Characters of the model format, characters no token starts with, and
# line separators other than the newline.
SOURCE_CHARS = st.sampled_from(list(
    'aZ_.09- \t\r\n#"\\{}[]:;,=<>!$\x0c\x85\u2028'))

# Identifier characters and characters that break identifiers or
# strings; names also draw reserved words and action names.
NAME_CHARS = 'aZ_.01- "\\\t\n\r'
NAMES = st.one_of(
    st.sampled_from(["not", "expired", "and", "process", "x.create", "a.b"]),
    st.text(alphabet=NAME_CHARS, min_size=1, max_size=4))
LABELS = st.text(alphabet=NAME_CHARS + "\x0c\u2028", max_size=6)


@PROPERTY
@given(st.one_of(st.text(SOURCE_CHARS, max_size=80),
                 st.text(st.integers(0, 0x10FFFF).map(chr), max_size=40)))
def test_tokens_point_at_their_own_text(text):
    lines, diags = lex_lines(text, "<t>")
    rows = text.split("\n")
    for line in lines:
        for tok in line:
            assert tok.text
            assert rows[tok.line - 1][tok.col - 1:].startswith(tok.text)
    for d in diags:
        bad = rows[d.line - 1][d.col - 1]
        assert d.message == f"unexpected character {bad!r}"


def renamed(b, name, label):
    """`b` with every thimac id, event id and the model name passed
    through `name`, and every label through `label`."""
    def ref(r):
        return ActionRef(name(r.thimac), r.action)

    def atom(a):
        store = dataclasses.fields(a)[0].name
        return dataclasses.replace(a, **{store: name(getattr(a, store))})

    m = b.model
    model = StaticModel(
        tuple(dataclasses.replace(t, id=name(t.id)) for t in m.thimacs),
        tuple(FlowEdge(ref(f.src), ref(f.dst)) for f in m.flows),
        tuple(dataclasses.replace(t, src=ref(t.src), dst=ref(t.dst),
                                  guard=tuple(map(atom, t.guard)))
              for t in m.triggers),
        name(m.name))
    events = tuple(dataclasses.replace(
        e, id=name(e.id), region=frozenset(map(ref, e.region)),
        label=label(e.label)) for e in b.events)
    return ModelBundle(
        model, events,
        tuple((name(src), name(dst)) for src, dst in b.behavior),
        tuple(map(name, b.priority)),
        {name(tid): value for tid, value in b.initial.items()},
        tuple(dataclasses.replace(i, thimac=name(i.thimac),
                                  label=label(i.label))
              for i in b.schedule))


@PROPERTY
@given(st.integers(0, 10**6), st.data())
def test_validated_bundles_round_trip_through_a_file(tmp_path_factory,
                                                     seed, data):
    base = random_bundle(random.Random(seed), seed)
    names = sorted({t.id for t in base.model.thimacs}
                   | {e.id for e in base.events} | {base.model.name})
    chosen = data.draw(st.lists(st.sampled_from(names), max_size=2,
                                unique=True))
    renames = {old: data.draw(NAMES) for old in chosen}
    b = renamed(base, lambda n: renames.get(n, n),
                lambda _label: data.draw(LABELS))
    if data.draw(st.booleans()):
        # an unreferenced token thimac with no actions
        spare = Thimac("spare", ThimacKind.SINK)
        b = dataclasses.replace(b, model=dataclasses.replace(
            b.model, thimacs=(*b.model.thimacs, spare)))
    if has_errors(validate_model(b)):
        return
    path = tmp_path_factory.getbasetemp() / "roundtrip.tm"
    path.write_text(serialize(b), encoding="utf-8")
    result = parse_file(path)
    assert result.ok, [str(d) for d in result.diagnostics]
    assert result.bundle == canonicalize(b)


@PROPERTY
@given(st.integers(0, 10**6), LABELS)
def test_unnamed_bundles_round_trip_through_a_file(tmp_path_factory, seed,
                                                   label):
    base = random_bundle(random.Random(seed), seed)
    # prefix rather than replace, so token labels stay distinct
    b = renamed(base, lambda n: "" if n == base.model.name else n,
                lambda old: label + old)
    assert b.model.name == ""
    assert not has_errors(validate_model(b))
    path = tmp_path_factory.getbasetemp() / "unnamed.tm"
    path.write_text(serialize(b), encoding="utf-8")
    result = parse_file(path)
    assert result.ok, [str(d) for d in result.diagnostics]
    assert result.bundle == canonicalize(b)
    assert result.bundle.model.name == "unnamed"
