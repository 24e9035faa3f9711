"""Text format: lexing, parsing, diagnostics, canonical roundtrip."""

import dataclasses
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from thimac import (
    ActionKind,
    ActionRef,
    CounterCmp,
    Effect,
    FlagTest,
    ThimacKind,
    TimerExpired,
    canonicalize,
    E_BAD_EFFECT,
    E_COUNTER_RANGE,
    E_DUP_ID,
    E_FLOW_ENDPOINTS,
    E_REGION_FLOWS,
    E_SYNTAX,
    E_UNRESOLVED_REF,
    SEV_WARNING,
)
from thimac.dsl import _lex, _scan, parse, parse_file, read_text, serialize

from test_lex_pins import EDGE_PINS, FIXTURE_PINS, FIXTURES


MINI = """
# one machine fed by a source, drained into a sink
model mini

thimac env kind source { actions: release, transfer }
thimac M kind machine { actions: process, release, transfer, receive }
thimac out kind sink { actions: transfer, receive }
thimac load kind counter { range 0 .. 3 init 0 }
thimac stuck kind flag { init false }
thimac watch kind timer { duration 4 }

flow env.release -> env.transfer
flow env.transfer -> M.receive
flow M.release -> M.transfer
flow M.transfer -> out.transfer
flow out.transfer -> out.receive

trigger M.receive -> load.create effect inc when load < 3
trigger M.process -> load.create effect dec when load > 0
trigger M.process -> watch.create effect start
trigger load.create -> stuck.create effect set when load = 3
trigger M.release -> stuck.create effect clear when stuck
trigger watch.create -> stuck.create effect set when expired watch

event arrive "token reaches the machine" region {
  env.release, env.transfer, M.receive, load.create
}
event work "machine processes" region { M.process, load.create, watch.create }
event note "load accounting" bookkeeping region { load.create, stuck.create }
event leave "token departs" region {
  M.release, M.transfer, out.transfer, out.receive, stuck.create
}

behavior { arrive -> work; work -> leave; leave -> note; }

priority [ arrive, work, leave, note ]

initial { load = 1; stuck = false; }

schedule {
  at 1 inject env "t1";
  at 2 inject env "t2";
}
"""


def codes(result):
    return sorted(d.code for d in result.diagnostics)


def test_parse_mini_structure():
    result = parse(MINI)
    assert result.ok, result.diagnostics
    b = result.bundle
    assert b.model.name == "mini"
    assert len(b.model.thimacs) == 6
    assert len(b.model.flows) == 5
    assert len(b.model.triggers) == 6
    assert [e.id for e in b.events] == ["arrive", "work", "note", "leave"]
    emap = b.event_map()
    assert emap["arrive"].label == "token reaches the machine"
    assert emap["note"].bookkeeping and not emap["work"].bookkeeping
    assert b.behavior == (("arrive", "work"), ("work", "leave"), ("leave", "note"))
    assert b.priority == ("arrive", "work", "leave", "note")
    assert b.initial == {"load": 1, "stuck": False}
    assert len(b.schedule) == 2 and b.schedule[0].label == "t1"


def test_parsed_guards():
    b = parse(MINI).bundle
    by_dst = {}
    for t in b.model.triggers:
        by_dst.setdefault((str(t.src), str(t.dst)), t)
    inc = by_dst[("M.receive", "load.create")]
    assert inc.effect == Effect.INC
    assert inc.guard == (CounterCmp("load", "<", 3),)
    expiry = by_dst[("watch.create", "stuck.create")]
    assert expiry.guard == (TimerExpired("watch"),)
    clear = by_dst[("M.release", "stuck.create")]
    assert clear.guard == (FlagTest("stuck"),)


def test_thimac_shapes():
    b = parse(MINI).bundle
    tmap = b.model.thimac_map()
    assert tmap["load"].kind == ThimacKind.COUNTER
    # parse keeps the declared init 0; the override to 1 lives in bundle.initial
    assert (tmap["load"].lo, tmap["load"].hi, tmap["load"].init) == (0, 3, 0)
    assert tmap["watch"].duration == 4
    assert tmap["stuck"].init is False
    assert tmap["env"].actions == frozenset({ActionKind.RELEASE,
                                             ActionKind.TRANSFER})


# A reference lexer that shares no table with `dsl`: one named group
# per token kind, each match's kind read from `lastgroup`, and `end`
# taking the blanks left at end of input.
REFERENCE_PATTERNS = (
    ("ident", r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*"),
    ("newline", r"\n"),
    ("string", r'"(?:[^"\\\n]|\\.)*"'),
    ("comment", r"#[^\n]*"),
    ("arrow", r"->"),
    ("dotdot", r"\.\."),
    ("int", r"-?[0-9]+"),
    ("cmp", r"!=|<=|>=|<|>|="),
    ("lbrace", r"\{"),
    ("rbrace", r"\}"),
    ("lbracket", r"\["),
    ("rbracket", r"\]"),
    ("comma", r","),
    ("semi", r";"),
    ("colon", r":"),
    ("bad", r"[^ \t\r]"),
    ("end", r"\Z"),
)
REFERENCE_RE = re.compile("[ \t\r]*(?:" + "|".join(
    f"(?P<{kind}>{pattern})" for kind, pattern in REFERENCE_PATTERNS) + ")")


def reference_lex(text):
    """The (kind, text, line, col) of each token, eof last, and the
    (line, col, code, message) of each bad character."""
    tokens, bad = [], []
    line, line_start = 1, 0
    for m in REFERENCE_RE.finditer(text):
        kind = m.lastgroup
        col = m.start(kind) - line_start + 1
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "bad":
            bad.append((line, col, E_SYNTAX,
                        f"unexpected character {m[kind]!r}"))
        elif kind not in ("comment", "end"):
            tokens.append((kind, m[kind], line, col))
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens, bad


def assert_scan_agrees(text):
    """`_lex` places the reference lexer's tokens and reports its bad
    characters; `_scan` lists `_lex`'s kinds and texts and says it
    dropped a character exactly where `_lex` reports one."""
    kinds, texts, dropped = _scan(text)
    tokens, diags = _lex(text, "<t>")
    assert ([tuple(t) for t in tokens],
            [(d.line, d.col, d.code, d.message) for d in diags]) \
        == reference_lex(text)
    assert dropped == bool(diags)
    assert (kinds, texts) == ([t.kind for t in tokens],
                              [t.text for t in tokens])


@pytest.mark.parametrize("name", sorted(FIXTURE_PINS))
def test_scan_agrees_with_lex_on_fixtures(name):
    assert_scan_agrees(read_text(FIXTURES / name))


@pytest.mark.parametrize("text", [pin[0] for pin in EDGE_PINS],
                         ids=[repr(pin[0]) for pin in EDGE_PINS])
def test_scan_agrees_with_lex_on_edge_texts(text):
    assert_scan_agrees(text)


# The format's punctuation, keywords and blanks, a negative int, and
# what the lexer reports: a form feed, an Arabic-Indic digit, a lone
# '"', '.', '!' or '-', a backslash, and NEL, LINE SEPARATOR and a byte
# order mark, which `str.splitlines` or a BOM-aware reader would not
# take as characters.
SCAN_PIECES = st.sampled_from([
    "{", "}", "[", "]", ";", ",", ":", "->", "..", "=", "!=", "<", "<=",
    ">", ">=", "#", '"', '"s"', '"a\\"b"', ".", "!", "-", "\\", "-1",
    "0", "42", "model", "thimac", "kind", "when", "not", "expired",
    "M.block", "a.b.create", "_x", " ", "\t", "\r", "\n", "\x0c",
    "\u0663", "\x85", "\u2028", "\ufeff"])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(SCAN_PIECES, max_size=30).map("".join))
def test_scan_agrees_with_lex(text):
    assert_scan_agrees(text)


def test_trailing_blanks_scan_in_linear_time():
    # a search restarted at each blank of a trailing run took time
    # quadratic in its length: some 10 s for these 21,000 blanks
    text = "model m" + " \t\r" * 7000
    start = time.perf_counter()
    assert parse(text).ok
    tokens, diags = _lex(text, "<t>")
    assert time.perf_counter() - start < 1
    assert [tuple(t) for t in tokens] == [
        ("ident", "model", 1, 1), ("ident", "m", 1, 7),
        ("eof", "", 1, len(text) + 1)]
    assert diags == []


def test_missing_model_header():
    result = parse("thimac M kind machine { actions: process }")
    assert not result.ok
    assert codes(result) == [E_SYNTAX]


def test_syntax_error_position():
    result = parse("model m\nthimac M kind widget { }")
    assert not result.ok
    d = result.diagnostics[0]
    # "widget" starts at line 2 column 15
    assert (d.line, d.col) == (2, 15)
    assert d.code == E_SYNTAX


def test_parse_file_reports_non_utf8_bytes(tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_bytes(b"model m\n  \xff\n")
    result = parse_file(bad)
    assert not result.ok
    assert [str(d) for d in result.diagnostics] == [
        f"{bad}:2:3: E_SYNTAX not UTF-8 text (byte 0xff: invalid start byte)"]


@pytest.mark.parametrize("newline", [b"\r", b"\r\n", b"\n"],
                         ids=["cr", "crlf", "lf"])
def test_a_bad_byte_is_placed_on_text_mode_line_ends(tmp_path, newline):
    # a lone CR ends a line as CRLF and LF do, in diagnostics too
    bad = tmp_path / "bad.tm"
    bad.write_bytes(b"model m" + newline + b"thimac \xff x\n")
    assert [str(d) for d in parse_file(bad).diagnostics] == [
        f"{bad}:2:8: E_SYNTAX not UTF-8 text (byte 0xff: invalid start byte)"]


def test_stray_character():
    result = parse("model m\nthimac M kind machine { actions: process } $")
    assert not result.ok
    assert E_SYNTAX in codes(result)


def test_thimac_id_must_not_end_in_action():
    result = parse("model m\nthimac M.receive kind machine { actions: process }")
    assert not result.ok
    assert "action name" in result.diagnostics[0].message


def test_duplicate_ids_positioned():
    text = ("model m\n"
            "thimac M kind machine { actions: process }\n"
            "thimac M kind machine { actions: process }\n")
    result = parse(text)
    assert codes(result) == [E_DUP_ID]
    assert result.diagnostics[0].line == 3


def test_flow_endpoint_diagnostics():
    text = ("model m\n"
            "thimac A kind machine { actions: process, receive }\n"
            "flow A.receive -> A.process\n")
    result = parse(text)
    assert codes(result) == [E_FLOW_ENDPOINTS, E_FLOW_ENDPOINTS]
    assert all(d.line == 3 for d in result.diagnostics)


HEAD = "model m\nthimac A kind machine { actions: process }\n"
FLAG = HEAD + "thimac f kind flag { init false }\n"


@pytest.mark.parametrize("text, diagnostic", [
    ("model m\nthimac f kind flag { init maybe }\n",
     "<input>:2:27: E_SYNTAX expected true or false, got 'maybe'"),
    (HEAD + "thimac c kind counter { range 0 .. 1 init 0 }\n"
     "trigger A.process -> c.create effect inc when 3\n",
     "<input>:4:47: E_SYNTAX expected a guard atom"),
    (FLAG + "initial { f < 1; }\n",
     "<input>:4:13: E_SYNTAX expected '=', got '<'"),
    (FLAG + "initial { f = maybe; }\n",
     "<input>:4:15: E_SYNTAX expected a value, got 'maybe'"),
], ids=["flag init", "guard atom", "initial '='", "initial value"])
def test_a_syntax_error_names_what_was_expected(text, diagnostic):
    assert [str(d) for d in parse(text).diagnostics] == [diagnostic]


def test_bad_effect_name_is_syntax():
    text = ("model m\n"
            "thimac A kind machine { actions: process }\n"
            "thimac c kind counter { range 0 .. 1 init 0 }\n"
            "trigger A.process -> c.create effect bump\n")
    result = parse(text)
    assert codes(result) == [E_SYNTAX]


def test_effect_kind_mismatch():
    text = ("model m\n"
            "thimac A kind machine { actions: process }\n"
            "thimac f kind flag { init false }\n"
            "trigger A.process -> f.create effect inc\n")
    result = parse(text)
    assert codes(result) == [E_BAD_EFFECT]


def test_unresolved_reference():
    text = ("model m\n"
            "thimac A kind machine { actions: process }\n"
            "flow ghost.release -> A.receive\n")
    result = parse(text)
    assert E_UNRESOLVED_REF in codes(result)


def test_counter_range_diagnostic():
    text = "model m\nthimac c kind counter { range 3 .. 0 init 0 }\n"
    result = parse(text)
    assert codes(result) == [E_COUNTER_RANGE]


def test_region_flow_shape_checked():
    text = ("model m\n"
            "thimac A kind machine { actions: transfer }\n"
            "thimac B kind machine { actions: receive }\n"
            "thimac C kind machine { actions: receive }\n"
            "flow A.transfer -> B.receive\n"
            "flow A.transfer -> C.receive\n"
            'event e "fan out" region { A.transfer, B.receive, C.receive }\n')
    result = parse(text)
    assert E_REGION_FLOWS in codes(result)


def test_all_comparison_operators():
    ops = ["=", "!=", "<", "<=", ">", ">="]
    lines = "\n".join(
        f"trigger A.process -> c.create effect inc when c {op} {i}"
        for i, op in enumerate(ops)
    )
    text = ("model m\n"
            "thimac A kind machine { actions: process }\n"
            "thimac c kind counter { range 0 .. 9 init 0 }\n" + lines + "\n")
    result = parse(text)
    assert result.ok
    got = [t.guard[0].op for t in result.bundle.model.triggers]
    assert got == ops


def test_priority_omission_fills_declaration_order():
    text = ("model m\n"
            "thimac A kind machine { actions: process }\n"
            'event e2 "second" region { A.process }\n'
            'event e1 "first" region { A.process }\n')
    result = parse(text)
    assert result.ok
    assert result.bundle.priority == ("e2", "e1")


def test_partial_priority_warns_but_parses():
    text = ("model m\n"
            "thimac A kind machine { actions: process }\n"
            'event e1 "first" region { A.process }\n'
            'event e2 "second" region { A.process }\n'
            "priority [ e2 ]\n")
    result = parse(text)
    assert result.ok
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].severity == SEV_WARNING
    assert result.bundle.priority_order() == ("e2", "e1")


def test_label_escaping_roundtrip():
    text = ("model m\n"
            "thimac A kind machine { actions: process }\n"
            'event e "say \\"hi\\"\\n twice" region { A.process }\n')
    result = parse(text)
    assert result.ok
    label = result.bundle.events[0].label
    assert label == 'say "hi"\n twice'
    again = parse(serialize(result.bundle))
    assert again.ok and again.bundle.events[0].label == label


def test_carriage_return_label_round_trips_through_a_file(tmp_path):
    b = parse(MINI).bundle
    first = dataclasses.replace(b.events[0], label="a\rb\r\n")
    b = dataclasses.replace(b, events=(first,) + b.events[1:])
    path = tmp_path / "m.tm"
    path.write_text(serialize(b), encoding="utf-8")
    again = parse_file(path)
    assert again.ok, [str(d) for d in again.diagnostics]
    assert again.bundle == canonicalize(b)


def test_store_named_like_a_guard_word_is_rejected():
    # `when not` would not parse back, so validation refuses the name
    for store in ("not kind flag { init false }",
                  "expired kind timer { duration 2 }"):
        result = parse(f"model m\nthimac {store}\n")
        assert not result.ok
        assert [(d.line, d.col, d.code) for d in result.diagnostics] == [
            (2, 8, E_SYNTAX)]
        assert "guard word" in result.diagnostics[0].message


def test_timer_initial_override():
    text = ("model m\n"
            "thimac t kind timer { duration 4 }\n"
            "initial { t = 9; }\n")
    result = parse(text)
    assert result.ok and result.bundle.initial == {"t": 9}


def test_canonical_fixpoint():
    first = parse(MINI)
    assert first.ok
    text1 = serialize(first.bundle)
    second = parse(text1)
    assert second.ok, second.diagnostics
    # parse of the canonical form gives the canonical bundle
    assert second.bundle == canonicalize(first.bundle)
    # and serializing again is byte stable
    assert serialize(second.bundle) == text1


def test_a_thimac_with_no_actions_round_trips():
    # no `actions:` member: parse refuses one with an empty list
    first = parse("model m\nthimac X kind sink { }\n")
    assert first.ok, first.diagnostics
    text = serialize(first.bundle)
    assert "thimac X kind sink { }" in text
    second = parse(text)
    assert second.ok, [str(d) for d in second.diagnostics]
    assert second.bundle == canonicalize(first.bundle)
    assert serialize(second.bundle) == text


def test_serialize_orders_members():
    b = parse(MINI).bundle
    text = serialize(b)
    # thimacs come out sorted by id
    order = [line.split()[1] for line in text.splitlines()
             if line.startswith("thimac ")]
    assert order == sorted(order)
    # action lists follow the canonical action order
    assert "actions: process, release, transfer, receive" in text


def test_empty_document_fails():
    assert not parse("").ok
    assert not parse("   # only a comment\n").ok


def test_minimal_document():
    result = parse("model empty\n")
    assert result.ok
    assert result.bundle.model.thimacs == ()
    assert result.bundle.events == ()


def test_an_unnamed_model_round_trips():
    named = parse(MINI).bundle
    b = dataclasses.replace(
        named, model=dataclasses.replace(named.model, name=""))
    text = serialize(b)
    assert text.startswith("model unnamed\n")
    again = parse(text)
    assert again.ok
    assert again.bundle == canonicalize(b)
    assert serialize(again.bundle) == text
