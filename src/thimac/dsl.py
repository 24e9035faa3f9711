"""Text format for thing-machine bundles.

A document opens with `model NAME` and continues with declarations in
any order:

    thimac M1 kind machine { actions: process, release, transfer, receive }
    thimac B1.count kind counter { range 0 .. 3 init 0 }
    thimac M1.block kind flag { init false }
    thimac dial.timer kind timer { duration 6 }
    flow env.release -> env.transfer
    trigger M1.receive -> B1.count.create effect inc when B1.count < 3
    event E1 "load first station" bookkeeping region { env.release, M1.receive }
    behavior { E1 -> E2; E2 -> E3; }
    priority [ E1, E2, E3 ]
    initial { B1.count = 2; M1.block = true; }
    schedule { at 1 inject env "S1"; }

Comments run from `#` to end of line.  Spaces, tabs and carriage
returns are blanks: they separate tokens and are otherwise ignored, so
`\r\n` ends a line like `\n`.  Only `\n` starts a new line; columns
count characters from 1, a blank as one.  Any other character that no
token starts with (a form feed, say) is reported where it stands.

Names (the model name, thimac and event ids) are identifiers:
dot-separated segments, each a letter or `_` followed by letters,
digits or `_` (`M1`, `B1.count`).  A reference is a dotted name whose
last segment is an action kind; everything before it is the thimac id,
which may itself contain dots, so no thimac id may end in an action
name.  Guards are conjunctions of counter comparisons (`c < 3`), flag
tests (`f`, `not f`), and timer expiry tests (`expired t`); `not` and
`expired` are guard words, so no store may take either as its id.
When a document omits `priority`, events fire in declaration order.
The FSM and state-mapping formats (`thimac.fsmbridge`) and trace
records (`thimac.engine`) read their names, references and strings
with the readers here.

`parse` returns a ParseResult; the bundle is present exactly when no
error-severity diagnostics were produced.  `serialize` emits the
canonical form, which `parse` maps back to the same bundle.

The tokens are one compiled pattern and one kind table.  `parse` reads
kinds and texts from one `findall` scan of the pattern, without their
places; `_lex` walks it with `finditer` and places tokens.  The
line-based formats read `_lex`; `parse` runs it once, only when a
diagnostic names a token or a character no token starts with is present.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, groupby
from operator import attrgetter
from typing import NamedTuple, Optional

from .model import (
    ACTION_ORDER,
    ActionKind,
    ActionRef,
    CounterCmp,
    Diagnostic,
    E_SYNTAX,
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
    TriggerEdge,
    canonicalize,
    has_errors,
    validate_model,
)

_ACTIONS = {a.value: a for a in ActionKind}
_THIMAC_KINDS = {k.value: k for k in ThimacKind}
_EFFECTS = {e.value: e for e in Effect}

# Words that open a guard atom; a store with one as its id could not be
# named in a guard.
GUARD_WORDS = frozenset({"not", "expired"})

# The token alternatives, in the pattern's one group after the blanks:
# each regex step yields one token, newline, comment or bad character.
# The identifier comes first as the commonest; the last takes any
# character no token starts with.  Scans end before the text's trailing
# blanks, which no token ends with: a search in a trailing run would fail
# and restart at each of its blanks, in time quadratic in its length.
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*"
_STRING = r'"(?:[^"\\\n]|\\.)*"'
_INT = r"-?[0-9]+"
_TOKEN_PATTERNS = (
    _IDENT, r"\n", _STRING, r"#[^\n]*", r"->", r"\.\.", _INT,
    r"!=|<=|>=|<|>|=", r"\{", r"\}", r"\[", r"\]", r",", r";", r":",
    r"[^ \t\r]",
)
_TOKEN_RE = re.compile("[ \t\r]*(" + "|".join(_TOKEN_PATTERNS) + ")")
# The kind table: a text's kind by its first character, None for a
# newline or comment, after the whole texts in `_KIND_EXACT`: a lone
# '"', '.', '!' or '-' is a bad character, and '->' an arrow, not an int.
_KIND_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                    "abcdefghijklmnopqrstuvwxyz_", "ident"),
    **dict.fromkeys("0123456789-", "int"),
    "\n": None, "#": None, '"': "string", ".": "dotdot",
    "!": "cmp", "<": "cmp", ">": "cmp", "=": "cmp",
    "{": "lbrace", "}": "rbrace", "[": "lbracket", "]": "rbracket",
    ",": "comma", ";": "semi", ":": "colon",
}
_KIND_EXACT = {**dict.fromkeys('".!-', "bad"), "->": "arrow"}
_IDENT_RE = re.compile(_IDENT)
_STRING_RE = re.compile(_STRING)
_INT_RE = re.compile(_INT)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


class _ParseFailure(Exception):
    """Internal unwind after a syntax diagnostic."""


@dataclass
class ParseResult:
    bundle: Optional[ModelBundle]
    diagnostics: list

    @property
    def ok(self) -> bool:
        return self.bundle is not None


def _lex(text: str, file: str):
    tokens = []
    diags = []
    line = 1
    line_start = 0
    # tuple.__new__ skips NamedTuple's Python-level constructor
    new = tuple.__new__
    append = tokens.append
    exact, first = _KIND_EXACT.get, _KIND_FIRST.get
    for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip(" \t\r"))):
        found = m[1]
        kind = exact(found) or first(found[0], "bad")
        if kind is None:
            if found == "\n":
                line += 1
                line_start = m.end()
        elif kind == "bad":
            diags.append(Diagnostic(file, line, m.start(1) - line_start + 1,
                                    E_SYNTAX,
                                    f"unexpected character {found!r}"))
        else:
            append(new(Token, (kind, found, line,
                               m.start(1) - line_start + 1)))
    append(new(Token, ("eof", "", line, len(text) - line_start + 1)))
    return tokens, diags


def _scan(text: str):
    """The kinds and texts of `text`'s tokens as `_lex` lists them, eof
    last, without their places, and whether it dropped a character no
    token starts with, which `_lex` then reports."""
    found = _TOKEN_RE.findall(text, 0, len(text.rstrip(" \t\r")))
    exact, first = _KIND_EXACT.get, _KIND_FIRST.get
    kinds = [exact(t) or first(t[0], "bad") for t in found]
    dropped = "bad" in kinds
    if dropped:
        kinds = [None if kind == "bad" else kind for kind in kinds]
    texts = list(compress(found, kinds))
    kinds = list(compress(kinds, kinds))
    kinds.append("eof")
    texts.append("")
    return kinds, texts, dropped


def lex_lines(text: str, file: str):
    """The model format's tokens grouped by source line, without blank
    and comment-only lines, plus the diagnostics for characters no
    token can start with.  The line-based formats read their text so."""
    tokens, diags = _lex(text, file)
    lines = groupby(tokens[:-1], key=attrgetter("line"))
    return [list(line) for _, line in lines], diags


def is_identifier(name: str) -> bool:
    """Whether `name` is one identifier token: the model name, thimac
    ids and event ids must be."""
    return _IDENT_RE.fullmatch(name) is not None


def read_ref(name: str) -> Optional[ActionRef]:
    """The action reference `thimac.action` that `name` spells, or None
    when its last dotted segment is not an action name or nothing
    precedes it."""
    thimac, _, action = name.rpartition(".")
    kind = _ACTIONS.get(action)
    if kind is None or not thimac:
        return None
    return ActionRef(thimac, kind)


def ends_in_action(name: str) -> bool:
    """Whether `name`'s last dotted segment is an action name, which no
    thimac id may have."""
    return name in _ACTIONS or read_ref(name) is not None


def read_string(text: str) -> Optional[str]:
    """The value of `text` when it is one whole quoted string, else None."""
    if _STRING_RE.fullmatch(text) is None:
        return None
    return _unescape(text)


def read_int(text: str) -> Optional[int]:
    """The value of `text` when it is one whole integer token (ASCII
    digits after an optional `-`; no `+`, `_` or blanks), else None."""
    if _INT_RE.fullmatch(text) is None:
        return None
    return int(text)


_ESCAPES = {"n": "\n", "r": "\r", "t": "\t"}
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


def _unescape(text: str) -> str:
    # strip quotes, undo \" \\ \n \r \t; any other escaped character
    # stands for itself
    if "\\" not in text:
        return text[1:-1]
    return _ESCAPED.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)),
                        text[1:-1])


def _escape(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t") + '"'


class _Positions:
    """The (line, col) of each entity a parse recorded, read by
    `validate_model` as `positions.get(key, default)`.  A parse records
    each entity's token index in `at`; the first lookup lexes the text
    once more with `_lex` and reads the place from its tokens."""

    def __init__(self, text: str, file: str):
        self.text = text
        self.file = file
        self.at = {}
        self.tokens = None

    def of_token(self, i: int) -> tuple:
        if self.tokens is None:
            self.tokens = _lex(self.text, self.file)[0]
        tok = self.tokens[i]
        return tok.line, tok.col

    def get(self, key, default=None):
        i = self.at.get(key)
        return default if i is None else self.of_token(i)


class _Parser:
    """A recursive-descent reader over the token kinds and texts of a
    document, the last token of kind `eof`.  Tokens are named by their
    index; `positions` places an index only when a diagnostic names it,
    and keeps the index of the token each entity stands at.  Nothing in
    `positions` points back here, so a parse frees itself by reference
    counting alone."""

    def __init__(self, kinds: list, texts: list, positions: _Positions,
                 diags: list):
        self.kinds = kinds
        self.texts = texts
        self.positions = positions
        self.at = positions.at
        self.diags = diags
        self.i = 0
        self.thimacs = []
        self.flows = []
        self.triggers = []
        self.events = []
        self.behavior = []
        self.priority = []
        self.saw_priority = False
        self.initial = {}
        self.schedule = []
        self.name = ""
        self.refs = {}          # read_ref's answers, reused for repeats

    # --- token plumbing ---
    # `expect` and `eat` only step past a token of the kind they asked
    # for, never eof, so only `next` has to stop at the end.  After an
    # `expect`, the token it took is `self.i - 1`.

    def peek(self) -> str:
        return self.kinds[self.i]

    def next(self) -> int:
        i = self.i
        if self.kinds[i] != "eof":
            self.i = i + 1
        return i

    def fail(self, at: int, message: str):
        line, col = self.positions.of_token(at)
        self.diags.append(Diagnostic(self.positions.file, line, col,
                                     E_SYNTAX, message))
        raise _ParseFailure()

    def expect(self, kind: str, what: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            self.fail(i, f"expected {what}, got "
                         f"{self.texts[i] or 'end of file'!r}")
        self.i = i + 1
        return self.texts[i]

    def expect_word(self, word: str):
        i = self.i
        if self.kinds[i] != "ident" or self.texts[i] != word:
            self.fail(i, f"expected {word!r}, got "
                         f"{self.texts[i] or 'end of file'!r}")
        self.i = i + 1

    def eat(self, kind: str, text: Optional[str] = None) -> bool:
        i = self.i
        if self.kinds[i] == kind and (text is None or self.texts[i] == text):
            self.i = i + 1
            return True
        return False

    def expect_enum(self, members: dict, what: str, noun: str):
        text = self.expect("ident", what)
        member = members.get(text)
        if member is None:
            self.fail(self.i - 1, f"unknown {noun} {text!r}")
        return member

    def expect_int(self, what: str) -> int:
        return int(self.expect("int", what))

    def expect_ref(self, what: str = "an action reference") -> ActionRef:
        text = self.expect("ident", what)
        ref = self.refs.get(text)
        if ref is None:
            ref = read_ref(text)
            if ref is None:
                self.fail(self.i - 1,
                          f"{text!r} is not a dotted action reference")
            self.refs[text] = ref
        return ref

    # --- declarations ---
    # each handler takes the index of its keyword

    def parse_document(self):
        self.expect_word("model")
        self.name = self.expect("ident", "a model name")
        handlers = {
            "thimac": self.parse_thimac,
            "flow": self.parse_flow,
            "trigger": self.parse_trigger,
            "event": self.parse_event,
            "behavior": self.parse_behavior,
            "priority": self.parse_priority,
            "initial": self.parse_initial,
            "schedule": self.parse_schedule,
        }
        while self.peek() != "eof":
            kw = self.next()
            word = self.texts[kw]
            if self.kinds[kw] != "ident":
                self.fail(kw, f"expected a declaration, got {word!r}")
            handler = handlers.get(word)
            if handler is None:
                self.fail(kw, f"unknown declaration {word!r}")
            handler(kw)

    def parse_thimac(self, kw: int):
        at = self.i
        tid = self.expect("ident", "a thimac id")
        self.expect_word("kind")
        kind = self.expect_enum(_THIMAC_KINDS, "a thimac kind", "thimac kind")
        self.expect("lbrace", "'{'")
        actions = set()
        lo = hi = 0
        init = False if kind == ThimacKind.FLAG else 0
        duration = 0
        while not self.eat("rbrace"):
            member = self.expect("ident", "a thimac member")
            if member == "actions":
                self.expect("colon", "':'")
                while True:
                    actions.add(self.expect_enum(_ACTIONS, "an action name",
                                                 "action"))
                    if not self.eat("comma"):
                        break
            elif member == "range":
                lo = self.expect_int("a range lower bound")
                self.expect("dotdot", "'..'")
                hi = self.expect_int("a range upper bound")
                self.expect_word("init")
                init = self.expect_int("an initial value")
            elif member == "init":
                val = self.expect("ident", "true or false")
                if val not in ("true", "false"):
                    self.fail(self.i - 1, f"expected true or false, got {val!r}")
                init = val == "true"
            elif member == "duration":
                duration = self.expect_int("a duration")
            else:
                self.fail(self.i - 1, f"unknown thimac member {member!r}")
        self.at[("thimac", tid)] = at
        self.thimacs.append(Thimac(tid, kind, frozenset(actions),
                                   lo, hi, init, duration))

    def parse_flow(self, kw: int):
        src = self.expect_ref()
        self.expect("arrow", "'->'")
        dst = self.expect_ref()
        self.at[("flow", len(self.flows))] = kw
        self.flows.append(FlowEdge(src, dst))

    def parse_guard(self) -> tuple:
        atoms = []
        while True:
            if self.peek() != "ident":
                self.fail(self.i, "expected a guard atom")
            if self.eat("ident", "not"):
                flag = self.expect("ident", "a flag name")
                atoms.append(FlagTest(flag, negated=True))
            elif self.eat("ident", "expired"):
                atoms.append(TimerExpired(self.expect("ident", "a timer name")))
            else:
                name = self.texts[self.next()]
                if self.peek() == "cmp":
                    op = self.texts[self.next()]
                    value = self.expect_int("a comparison value")
                    atoms.append(CounterCmp(name, op, value))
                else:
                    atoms.append(FlagTest(name))
            if not self.eat("ident", "and"):
                break
        return tuple(atoms)

    def parse_trigger(self, kw: int):
        src = self.expect_ref()
        self.expect("arrow", "'->'")
        dst = self.expect_ref()
        effect = None
        if self.eat("ident", "effect"):
            effect = self.expect_enum(_EFFECTS, "an effect name", "effect")
        guard = ()
        if self.eat("ident", "when"):
            guard = self.parse_guard()
        self.at[("trigger", len(self.triggers))] = kw
        self.triggers.append(TriggerEdge(src, dst, effect, guard))

    def parse_event(self, kw: int):
        at = self.i
        eid = self.expect("ident", "an event id")
        label = self.expect("string", "a label string")
        bookkeeping = self.eat("ident", "bookkeeping")
        displayed = self.eat("ident", "displayed")
        self.expect_word("region")
        self.expect("lbrace", "'{'")
        refs = set()
        while not self.eat("rbrace"):
            refs.add(self.expect_ref())
            self.eat("comma")
        self.at[("event", eid)] = at
        self.events.append(Event(eid, frozenset(refs), _unescape(label),
                                 bookkeeping, displayed))

    def parse_behavior(self, kw: int):
        self.expect("lbrace", "'{'")
        while not self.eat("rbrace"):
            at = self.i
            src = self.expect("ident", "an event id")
            self.expect("arrow", "'->'")
            dst = self.expect("ident", "an event id")
            self.expect("semi", "';'")
            self.at[("behavior", len(self.behavior))] = at
            self.behavior.append((src, dst))

    def parse_priority(self, kw: int):
        self.expect("lbracket", "'['")
        self.saw_priority = True
        while not self.eat("rbracket"):
            self.at[("priority", len(self.priority))] = self.i
            self.priority.append(self.expect("ident", "an event id"))
            self.eat("comma")

    def parse_initial(self, kw: int):
        self.expect("lbrace", "'{'")
        while not self.eat("rbrace"):
            at = self.i
            store = self.expect("ident", "a store id")
            eq = self.expect("cmp", "'='")
            if eq != "=":
                self.fail(self.i - 1, f"expected '=', got {eq!r}")
            i = self.next()
            kind, text = self.kinds[i], self.texts[i]
            if kind == "int":
                value = int(text)
            elif kind == "ident" and text in ("true", "false"):
                value = text == "true"
            else:
                self.fail(i, f"expected a value, got {text!r}")
            self.expect("semi", "';'")
            self.at[("initial", store)] = at
            self.initial[store] = value

    def parse_schedule(self, kw: int):
        self.expect("lbrace", "'{'")
        while not self.eat("rbrace"):
            at = self.i
            self.expect_word("at")
            tick = self.expect_int("a tick number")
            self.expect_word("inject")
            target = self.expect("ident", "a thimac id")
            label = self.expect("string", "a token label")
            self.expect("semi", "';'")
            self.at[("schedule", len(self.schedule))] = at
            self.schedule.append(Injection(tick, target, _unescape(label)))

    def build(self) -> ModelBundle:
        model = StaticModel(self.thimacs, self.flows, self.triggers, self.name)
        priority = self.priority
        if not self.saw_priority:
            priority = [e.id for e in self.events]
        return ModelBundle(model, self.events, self.behavior, priority,
                           self.initial, self.schedule)


def parse(text: str, file: str = "<input>") -> ParseResult:
    """Parse a document and validate the result.

    The bundle is present exactly when no error-severity diagnostics
    were produced; warnings alone do not suppress it.
    """
    positions = _Positions(text, file)
    kinds, texts, dropped = _scan(text)
    diags = []
    if dropped:
        positions.tokens, diags = _lex(text, file)
    parser = _Parser(kinds, texts, positions, diags)
    try:
        parser.parse_document()
    except _ParseFailure:
        return ParseResult(None, diags)
    if diags:
        return ParseResult(None, diags)
    bundle = parser.build()
    diags.extend(validate_model(bundle, file, positions))
    if has_errors(diags):
        return ParseResult(None, diags)
    return ParseResult(bundle, diags)


class UnreadableInput(Exception):
    """An input file that is not UTF-8 text; `diagnostic` places the
    first bad byte."""

    def __init__(self, diagnostic: Diagnostic):
        d = diagnostic
        super().__init__(f"{d.file}:{d.line}:{d.col}: {d.message}")
        self.diagnostic = diagnostic


def read_text(path) -> str:
    """A file's UTF-8 text with line ends as text mode reads them.
    Raises OSError, or UnreadableInput when the bytes are not UTF-8."""
    with open(path, "rb") as handle:
        # no multibyte UTF-8 sequence holds a CR or LF byte, so the bad
        # byte is placed on the text's own line ends
        data = handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        before = data[:err.start].decode("utf-8")
        line, col = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise UnreadableInput(Diagnostic(
            str(path), line, col, E_SYNTAX, f"not UTF-8 text (byte "
            f"0x{data[err.start]:02x}: {err.reason})")) from None


def parse_file(path) -> ParseResult:
    """`parse` on a file's text; bytes that are not UTF-8 give one
    positioned E_SYNTAX diagnostic."""
    try:
        text = read_text(path)
    except UnreadableInput as err:
        return ParseResult(None, [err.diagnostic])
    return parse(text, str(path))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _thimac_block(t: Thimac) -> str:
    # enum texts through `_value_`: Enum's `value` is a Python-level call
    members = []
    if t.actions and not t.is_store:
        acts = ", ".join(a._value_ for a in ACTION_ORDER if a in t.actions)
        members.append(f"  actions: {acts}")
    if t.kind == ThimacKind.COUNTER:
        members.append(f"  range {t.lo} .. {t.hi} init {t.init}")
    elif t.kind == ThimacKind.FLAG:
        members.append(f"  init {'true' if t.init else 'false'}")
    elif t.kind == ThimacKind.TIMER:
        members.append(f"  duration {t.duration}")
    body = "\n".join(members)
    if body:
        return f"thimac {t.id} kind {t.kind._value_} {{\n{body}\n}}"
    return f"thimac {t.id} kind {t.kind._value_} {{ }}"


def _trigger_line(t: TriggerEdge) -> str:
    src, dst, effect, guard = t.sort_key
    line = f"trigger {src} -> {dst}"
    if effect:
        line += f" effect {effect}"
    if guard:
        line += f" when {guard}"
    return line


def _event_line(e: Event) -> str:
    line = f"event {e.id} {_escape(e.label)}"
    if e.bookkeeping:
        line += " bookkeeping"
    if e.displayed:
        line += " displayed"
    refs = ", ".join(sorted(map(str, e.region)))
    return f"{line} region {{ {refs} }}"


def serialize(bundle: ModelBundle) -> str:
    """Emit the canonical text form of a bundle."""
    b = canonicalize(bundle)
    parts = [f"model {b.model.name}"]
    for t in b.model.thimacs:
        parts.append(_thimac_block(t))
    for f in b.model.flows:
        parts.append("flow {} -> {}".format(*f.sort_key))
    for t in b.model.triggers:
        parts.append(_trigger_line(t))
    for e in b.events:
        parts.append(_event_line(e))
    if b.behavior:
        lines = "\n".join(f"  {src} -> {dst};" for src, dst in b.behavior)
        parts.append(f"behavior {{\n{lines}\n}}")
    if b.priority:
        parts.append(f"priority [ {', '.join(b.priority)} ]")
    if b.initial:
        lines = []
        for tid, value in b.initial.items():
            if isinstance(value, bool):
                text = "true" if value else "false"
            else:
                text = str(value)
            lines.append(f"  {tid} = {text};")
        parts.append("initial {\n" + "\n".join(lines) + "\n}")
    if b.schedule:
        lines = "\n".join(
            f"  at {inj.tick} inject {inj.thimac} {_escape(inj.label)};"
            for inj in b.schedule
        )
        parts.append(f"schedule {{\n{lines}\n}}")
    return "\n\n".join(parts) + "\n"
