"""Fences for the scanner and for model lifetimes.

The scanner's exact tokens and diagnostics are pinned on every fixture
and on edge strings, so a rewrite of `_lex` must reproduce them byte for
byte.  A parsed, validated, compiled and run model must be freed by
reference counting alone: nothing it caches may point back at it."""

import gc
import hashlib
import weakref
from pathlib import Path

import pytest

from thimac import compile, enabled_events, init, run, step
from thimac.dsl import _lex, parse, read_text

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def rows(text):
    tokens, diags = _lex(text, "<t>")
    return [tuple(t) for t in tokens], [str(d) for d in diags]


# file -> (tokens including eof, diagnostics, sha256 of repr(rows(text)))
FIXTURE_PINS = {
    "assembly_line.tm": (598, 0, "d9b8aaf12111d270a943a772f70a44f3"
                                 "a374eacd96b3db2ceea81305ffa8de81"),
    "door.fsm": (23, 0, "d47ead3da409f706968bd00c428526ed"
                        "13c2f0628238c2ce1627076521b56793"),
    "door.tm": (230, 0, "fc99d690ea55b0c0cc39ea555de0fdcd"
                        "5d8283984d61e1a2c472fdf9412ccf72"),
    "phone_line.tm": (337, 0, "2e7c08ad376b24aee4bf0368f1f39d1f"
                              "3185c81f2f46964f7d60c8de1691e330"),
}


def test_every_fixture_is_pinned():
    assert sorted(p.name for p in FIXTURES.iterdir()) == sorted(FIXTURE_PINS)


@pytest.mark.parametrize("name", sorted(FIXTURE_PINS))
def test_fixture_tokens_are_pinned(name):
    tokens, diags = rows(read_text(FIXTURES / name))
    count, problems, digest = FIXTURE_PINS[name]
    assert (len(tokens), len(diags)) == (count, problems)
    assert hashlib.sha256(repr((tokens, diags)).encode()).hexdigest() \
        == digest


EDGE_PINS = [
    # blanks at end of file
    ("model m  \t ",
     [("ident", "model", 1, 1), ("ident", "m", 1, 7), ("eof", "", 1, 12)],
     []),
    # runs of carriage returns are blanks, not line ends
    ("a\r\r\rb\r\r",
     [("ident", "a", 1, 1), ("ident", "b", 1, 5), ("eof", "", 1, 8)],
     []),
    # a form feed is no blank
    ("a\x0cb",
     [("ident", "a", 1, 1), ("ident", "b", 1, 3), ("eof", "", 1, 4)],
     ["<t>:1:2: E_SYNTAX unexpected character '\\x0c'"]),
    # a string does not run across a newline
    ('"abc\ndef"',
     [("ident", "abc", 1, 2), ("ident", "def", 2, 1), ("eof", "", 2, 5)],
     ["<t>:1:1: E_SYNTAX unexpected character '\"'",
      "<t>:2:4: E_SYNTAX unexpected character '\"'"]),
    # a comment at end of file
    ("a # c",
     [("ident", "a", 1, 1), ("eof", "", 1, 6)],
     []),
    ("--1",
     [("int", "-1", 1, 2), ("eof", "", 1, 4)],
     ["<t>:1:1: E_SYNTAX unexpected character '-'"]),
    ("a..b",
     [("ident", "a", 1, 1), ("dotdot", "..", 1, 2), ("ident", "b", 1, 4),
      ("eof", "", 1, 5)],
     []),
    ("->-",
     [("arrow", "->", 1, 1), ("eof", "", 1, 4)],
     ["<t>:1:3: E_SYNTAX unexpected character '-'"]),
    # blank lines, a carriage return before a newline, blanks at the end
    ("x\n\r\n  \t\n",
     [("ident", "x", 1, 1), ("eof", "", 4, 1)],
     []),
    # escaped quotes, an escaped newline, comments on the last lines
    ('"a\\"b" "c\\\n" #x\n#y',
     [("string", '"a\\"b"', 1, 1), ("ident", "c", 1, 9), ("eof", "", 3, 3)],
     ["<t>:1:8: E_SYNTAX unexpected character '\"'",
      "<t>:1:10: E_SYNTAX unexpected character '\\\\'",
      "<t>:2:1: E_SYNTAX unexpected character '\"'"]),
    ("",
     [("eof", "", 1, 1)],
     []),
    # integers are ASCII digits: an Arabic-Indic three is no int
    ("range 0 .. \u0663",
     [("ident", "range", 1, 1), ("int", "0", 1, 7), ("dotdot", "..", 1, 9),
      ("eof", "", 1, 13)],
     ["<t>:1:12: E_SYNTAX unexpected character '\u0663'"]),
    ("-\u0663",
     [("eof", "", 1, 3)],
     ["<t>:1:1: E_SYNTAX unexpected character '-'",
      "<t>:1:2: E_SYNTAX unexpected character '\u0663'"]),
]


@pytest.mark.parametrize("text,tokens,diags", EDGE_PINS,
                         ids=[repr(t[0]) for t in EDGE_PINS])
def test_edge_tokens_are_pinned(text, tokens, diags):
    assert rows(text) == (tokens, diags)


def test_a_parse_leaves_no_cycle_behind():
    # the fixtures, the FSM one failing at its first word, a stray
    # character, and a duplicate id that `validate_model` positions
    door = read_text(FIXTURES / "door.tm")
    texts = [read_text(FIXTURES / name) for name in sorted(FIXTURE_PINS)]
    texts += [door.replace("kind", "kind $", 1),
              door + "thimac used kind sink { }\n"]
    gc.collect()
    gc.disable()
    try:
        results = [parse(text) for text in texts]
        assert [r.ok for r in results] == [True, False, True, True,
                                           False, False]
        assert gc.collect() == 0
    finally:
        gc.enable()


def _parse_compile_and_run():
    result = parse(read_text(FIXTURES / "assembly_line.tm"))
    assert result.ok
    bundle = result.bundle
    compile(bundle)
    _cfg, trace = run(bundle, max_ticks=40)
    assert trace
    return weakref.ref(bundle.model)


def _stepped(bundle, peek):
    """The configuration after 12 ticks of `bundle`, each stepped after
    an `enabled_events` call when `peek`, on a program whose table a
    first run filled."""
    run(bundle, max_ticks=40)
    cfg = init(bundle)
    while cfg.tick < 12:
        if peek:
            enabled_events(bundle, cfg)
        cfg = step(bundle, cfg)[0]
    return cfg


# the last calls a run of a model ends with, each leaving its own
# per-program state behind
LAST_CALLS = {
    "enabled_events": lambda b: enabled_events(b, _stepped(b, False)),
    "enabled_events and step": lambda b: _stepped(b, True),
}


def test_a_run_model_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        model = _parse_compile_and_run()
        assert model() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("calls", sorted(LAST_CALLS))
def test_per_program_state_never_keeps_a_model_alive(calls):
    def parse_and_call():
        bundle = parse(read_text(FIXTURES / "assembly_line.tm")).bundle
        assert LAST_CALLS[calls](bundle)
        return weakref.ref(bundle.model), weakref.ref(compile(bundle))

    gc.collect()
    gc.disable()
    try:
        model, program = parse_and_call()
        assert model() is None
        assert program() is None
    finally:
        gc.enable()
