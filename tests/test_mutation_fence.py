"""A seeded mutation fence: broken copies of the fixtures go through
every reader and writer.  Only TmError may escape the library, the CLI
exits 0, 1 or 2 without a traceback, and a second run of an accepted
model replays the first one exactly.

The mutants are drawn from fixed seeds, so every run checks the same
inputs."""

import hashlib
import random
import re
from pathlib import Path

import pytest

from thimac import TmError, canonicalize, cli, has_errors
from thimac.dot import LAYERS, export_dot
from thimac.dsl import parse, serialize
from thimac.engine import format_trace_records, parse_trace_records, run
from thimac.fsmbridge import fsm_to_tm, parse_fsm

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
NAMES = ("assembly_line.tm", "door.tm", "phone_line.tm", "door.fsm")
MUTANTS = 80            # per fixture
MAX_TICKS = 60          # runs stop here, whatever the mutant schedules

# Text an edit may insert: the format's punctuation and keywords, odd
# numbers and characters no token starts with.
PIECES = ('"', "\\", "{", "}", "[", "]", ";", ",", ":", "->", "..", ".",
          " ", "\t", "\r", "\n", "#", "0", "-1", "2", "99999999999", "x",
          ".block", "when", "not", "and", "expired", "inject", "at",
          "effect", "reset", "start", "inc", "dec", "set", "clear",
          "bookkeeping", "displayed", "<", "=", "\u0663", "\u2028", "\x00")

# Quoted strings that hold every escape, for a quoted string to become.
STRINGS = ['""', r'"a\\b"', r'"q\"r"', r'"t\tn\nr\r"', '"\u2028"']


def mutate(rng: random.Random, text: str) -> str:
    """One to three edits of `text`: a line dropped, doubled or moved,
    a word replaced by another word of the text, a quoted string by one
    of STRINGS, a piece inserted, or a short span deleted."""
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        edit = rng.randrange(7)
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            lines.insert(rng.randrange(len(lines)), lines.pop(i))
        if edit < 3:
            text = "\n".join(lines)
        elif edit < 5:
            words = re.findall(r'[^\s{}\[\];,]+' if edit == 3
                               else r'"[^"\n]*"', text) or ['""']
            text = text.replace(rng.choice(words), rng.choice(
                words if edit == 3 else STRINGS), 1)
        else:
            at = rng.randrange(len(text) + 1)
            if edit == 5:
                text = text[:at] + rng.choice(PIECES) + text[at:]
            else:
                text = text[:at] + text[at + rng.randint(1, 4):]
    return text


def mutants(name: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    rng = random.Random(f"{name}/{MUTANTS}")
    return [mutate(rng, text) for _ in range(MUTANTS)]


def check_bundle(b):
    """Text round trip, DOT, a cold run then a warm one on the program,
    and the trace-record round trip."""
    text = serialize(b)
    again = parse(text)
    assert again.ok, again.diagnostics
    assert again.bundle == canonicalize(b)
    assert serialize(again.bundle) == text
    for layer in LAYERS:
        export_dot(b, layer)
    try:
        cold = run(b, MAX_TICKS)
    except TmError as err:
        with pytest.raises(TmError) as warm:
            run(b, MAX_TICKS)
        assert warm.value.args == err.args
        return
    assert run(b, MAX_TICKS) == cold
    trace = cold[1]
    assert parse_trace_records(format_trace_records(trace)) == [
        entry for entry in trace if entry.fired]


def commands(name: str, path: str):
    if name.endswith(".fsm"):
        return [["import-fsm", path]]
    return [["validate", path], ["run", path, "--ticks", str(MAX_TICKS)],
            ["coverage", path]] + [
        ["export-dot", path, "--layer", layer] for layer in LAYERS]


@pytest.mark.parametrize("name", NAMES)
def test_mutants_fail_only_with_diagnostics(name, tmp_path, capsys):
    path = tmp_path / name
    accepted = 0
    for text in mutants(name):
        if name.endswith(".fsm"):
            result = parse_fsm(text)
            b = fsm_to_tm(result.spec) if result.ok else None
        else:
            result = parse(text)
            b = result.bundle
        assert result.ok != has_errors(result.diagnostics)
        if b is not None:
            accepted += 1
            check_bundle(b)
        path.write_text(text, encoding="utf-8")
        for argv in commands(name, str(path)):
            assert cli.main(argv) in (0, 1, 2)
            err = capsys.readouterr().err
            assert "Traceback" not in err
    # the edits are mild enough that some mutants still parse
    assert accepted >= MUTANTS // 10


# sha256 of repr([(accepted, [str(d) for d in diagnostics]), ...]) over
# each model fixture's mutants, which pins every diagnostic position
# `parse` gives, from the lexer, the parser and `validate_model` alike
PARSE_PINS = {
    "assembly_line.tm": "1b1e4cf00127f734c8201b9aa3caf247"
                        "48e79a98d5e547d82e81dffbdd23c084",
    "door.tm": "d3c05b42059b221d5a48617759f485e3"
               "a96160f2fb6f6c095e67bc1d0f9f5db2",
    "phone_line.tm": "a8c9d752d00513f9e4425b4546492f66"
                     "733e0df3a16dc8b829a901601c637182",
}


@pytest.mark.parametrize("name", sorted(PARSE_PINS))
def test_mutant_parse_diagnostics_are_pinned(name):
    rows = []
    for text in mutants(name):
        result = parse(text)
        rows.append((result.ok, [str(d) for d in result.diagnostics]))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PARSE_PINS[name]
