"""Command-line front end.

    tm validate MODEL.tm
    tm run MODEL.tm [--ticks N] [--displayed]
    tm enumerate NAME=lo..hi NAME=a,b,c ...
    tm coverage MODEL.tm
    tm import-fsm MACHINE.fsm [--out MODEL.tm]
    tm project MACHINE.fsm MODEL.tm --mapping MAP.txt
    tm conform MODEL.tm TRACE.txt
    tm export-dot MODEL.tm [--layer static|events|behavior] [--out FILE]

Exit codes: 0 success, 1 model or trace error, 2 usage or unreadable
input.  Diagnostics go to stderr, one per line; results go to stdout.
"""

from __future__ import annotations

import argparse
import sys

from . import dsl
from .behavior import (
    ComponentStateDecl,
    behavior_graph,
    check_conformance,
    enumerate_states,
    event_coverage,
)
from .dot import LAYERS, export_dot
from .engine import (
    filter_displayed,
    format_trace_records,
    parse_trace_records,
    run,
)
from .fsmbridge import (
    fsm_to_tm,
    format_projection,
    parse_fsm,
    parse_state_mapping,
    project_states,
)
from .model import SEV_ERROR, TmError


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


class _Rejected(Exception):
    """An input with errors, already reported: the command exits 1."""


def _load(parse, path: str):
    """`parse` (a model or FSM reader) on a file, with its diagnostics
    printed to stderr; raises _Rejected when they hold an error."""
    result = parse(dsl.read_text(path), file=path)
    for d in result.diagnostics:
        print(d, file=sys.stderr)
    if not result.ok:
        raise _Rejected()
    return result


def cmd_validate(args) -> int:
    _load(dsl.parse, args.model)
    return 0


def cmd_run(args) -> int:
    if args.ticks is not None and args.ticks < 0:
        args.parser.error(f"--ticks must be at least 0, not {args.ticks}")
    bundle = _load(dsl.parse, args.model).bundle
    _cfg, trace = run(bundle, max_ticks=args.ticks)
    if args.displayed:
        trace = filter_displayed(bundle, trace)
    sys.stdout.write(format_trace_records(trace))
    return 0


def _parse_domain(parser, spec: str) -> ComponentStateDecl:
    name, sep, body = spec.partition("=")
    if not sep or not name or not body:
        parser.error(f"bad component spec {spec!r}; expected NAME=lo..hi "
                     f"or NAME=a,b,c")
    if ".." in body:
        lo_text, _, hi_text = body.partition("..")
        lo, hi = dsl.read_int(lo_text), dsl.read_int(hi_text)
        if lo is None or hi is None:
            parser.error(f"bad integer range in {spec!r}")
        if hi < lo:
            parser.error(f"empty range in {spec!r}")
        return ComponentStateDecl(name, range(lo, hi + 1))
    values = tuple(v.strip() for v in body.split(",") if v.strip())
    if not values:
        parser.error(f"empty domain in {spec!r}")
    return ComponentStateDecl(name, values)


def cmd_enumerate(args) -> int:
    decls = [_parse_domain(args.parser, spec) for spec in args.components]
    count, _states = enumerate_states(decls)
    print(f"{count} states")
    return 0


def cmd_coverage(args) -> int:
    bundle = _load(dsl.parse, args.model).bundle
    covered, uncovered = event_coverage(bundle)
    print(f"covered: {len(covered)}")
    print(f"uncovered: {len(uncovered)}")
    for ref in sorted(uncovered, key=str):
        print(f"  {ref}")
    return 0


def cmd_import_fsm(args) -> int:
    spec = _load(parse_fsm, args.machine).spec
    _emit(dsl.serialize(fsm_to_tm(spec)), args.out)
    return 0


def cmd_project(args) -> int:
    spec = _load(parse_fsm, args.machine).spec
    bundle = _load(dsl.parse, args.model).bundle
    mapping = parse_state_mapping(dsl.read_text(args.mapping),
                                  file=args.mapping)
    sys.stdout.write(format_projection(
        project_states(spec, bundle, mapping)))
    return 0


def cmd_conform(args) -> int:
    bundle = _load(dsl.parse, args.model).bundle
    trace = parse_trace_records(dsl.read_text(args.trace), file=args.trace)
    violations = check_conformance(trace, behavior_graph(bundle))
    for v in violations:
        print(v)
    if violations:
        print(f"{len(violations)} violations")
        return 1
    print("conforms")
    return 0


def cmd_export_dot(args) -> int:
    bundle = _load(dsl.parse, args.model).bundle
    _emit(export_dot(bundle, layer=args.layer), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tm", description="Thing-machine modeling tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, **kwargs):
        # each command keeps its own parser, so a usage error names it
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func, parser=p)
        return p

    p = command("validate", cmd_validate, help="check a model file")
    p.add_argument("model")

    p = command("run", cmd_run, help="execute a model and print its trace")
    p.add_argument("model")
    p.add_argument("--ticks", type=int, default=None, metavar="N",
                   help="stop after N ticks (default: run to quiescence)")
    p.add_argument("--displayed", action="store_true",
                   help="hide bookkeeping instances")

    p = command("enumerate", cmd_enumerate,
                help="count a declared component state space")
    p.add_argument("components", nargs="+", metavar="NAME=DOMAIN",
                   help="e.g. B1=0..3 or M1=idle,busy,blocked")

    p = command("coverage", cmd_coverage,
                help="report actions no event region touches")
    p.add_argument("model")

    p = command("import-fsm", cmd_import_fsm,
                help="translate a state machine file to a model")
    p.add_argument("machine")
    p.add_argument("--out", default=None, metavar="PATH")

    p = command("project", cmd_project,
                help="judge a state-to-region mapping")
    p.add_argument("machine")
    p.add_argument("model")
    p.add_argument("--mapping", required=True, metavar="PATH")

    p = command("conform", cmd_conform,
                help="check a saved trace against the chronology")
    p.add_argument("model")
    p.add_argument("trace")

    p = command("export-dot", cmd_export_dot,
                help="render the model for graphviz")
    p.add_argument("model")
    p.add_argument("--layer", choices=LAYERS, default="static")
    p.add_argument("--out", default=None, metavar="PATH")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Rejected:
        return 1
    except TmError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, dsl.UnreadableInput) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
