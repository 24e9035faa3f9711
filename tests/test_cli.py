"""Command semantics and exit codes."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import thimac
from thimac.cli import main
from thimac.dsl import parse
from thimac.engine import parse_trace_records

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ASSEMBLY = str(FIXTURES / "assembly_line.tm")
DOOR_FSM = str(FIXTURES / "door.fsm")
DOOR_TM = str(FIXTURES / "door.tm")


# --- validate ------------------------------------------------------------------

def test_validate_clean_model(capsys):
    assert main(["validate", ASSEMBLY]) == 0
    assert capsys.readouterr().err == ""


def test_validate_reports_positioned_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("model broken\n"
                   "thimac x kind counter { range 5 .. 2 init 5 }\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:2:")
    line = err.splitlines()[0]
    # file:line:col: code message
    assert ": E_COUNTER_RANGE " in line


def test_validate_rejects_a_block_counter(tmp_path, capsys):
    text = Path(ASSEMBLY).read_text(encoding="utf-8")
    decl = "thimac M1.block kind flag { init false }\n"
    assert decl in text
    bad = tmp_path / "block.tm"
    bad.write_text(text.replace(
        decl, "thimac M1.block kind counter { range 0 .. 1 init 0 }\n"))
    line = text[:text.index(decl)].count("\n") + 1
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (f"{bad}:{line}:8: E_UNRESOLVED_REF M1.block must be "
                      f"a flag: it is the block flag of machine M1")


def test_validate_unreadable_file(capsys):
    assert main(["validate", "no/such/file.tm"]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_non_utf8_file(tmp_path, capsys):
    bad = tmp_path / "latin1.tm"
    bad.write_bytes(b"model m\n# caf\xe9\n")
    assert main(["validate", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:2:6: not UTF-8 text "
        f"(byte 0xe9: invalid continuation byte)"]


def test_validate_positions_a_label_injected_twice(tmp_path, capsys):
    text = Path(DOOR_TM).read_text(encoding="utf-8")
    assert '  at 5 inject stim.Close "c1";\n' in text
    bad = tmp_path / "twice.tm"
    bad.write_text(text.replace('  at 5 inject stim.Close "c1";\n',
                                '  at 5 inject stim.Close "o1";\n'))
    line = text[:text.index('  at 5 inject')].count("\n") + 1
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"{bad}:{line}:3: E_DUP_ID token label 'o1' injected twice"]
    assert main(["run", str(bad)]) == 1
    assert f"{bad}:{line}:3: E_DUP_ID" in capsys.readouterr().err


# --- run -----------------------------------------------------------------------

def test_run_emits_trace_records(capsys):
    assert main(["run", ASSEMBLY, "--ticks", "10", "--displayed"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == '1\tE1\t"S1"\t0'
    trace = parse_trace_records(out)
    assert [e.tick for e in trace] == list(range(1, 11))


def test_run_keeps_bookkeeping_by_default(capsys):
    assert main(["run", ASSEMBLY, "--ticks", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ['1\tE1\t"S1"\t0', '1\tE3\t"S1"\t1']


def test_run_negative_ticks_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", DOOR_TM, "--ticks", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--ticks must be at least 0, not -1" in captured.err
    assert captured.err.startswith(
        "usage: tm run [-h] [--ticks N] [--displayed] model\n")
    assert "tm run: error: " in captured.err


def test_run_invalid_model(tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("model m\nflow a.release -> b.receive\n")
    assert main(["run", str(bad)]) == 1
    assert "E_UNRESOLVED_REF" in capsys.readouterr().err


def test_run_empty_model(tmp_path, capsys):
    empty = tmp_path / "empty.tm"
    empty.write_text("model empty\n")
    assert main(["run", str(empty)]) == 0
    assert capsys.readouterr().out == ""


def test_run_cofires_a_long_bookkeeping_chain(tmp_path, capsys):
    links = range(1, 3001)
    chain = tmp_path / "chain.tm"
    chain.write_text("\n".join(
        ["model chain",
         "thimac env kind source { actions: release, transfer }",
         "thimac B kind buffer { actions: create }",
         'event k0 "start" region { env.release }']
        + [f'event k{i} "link" bookkeeping region {{ B.create }}'
           for i in links]
        + ["behavior {"] + [f"  k{i - 1} -> k{i};" for i in links] + ["}",
           'schedule { at 1 inject env "t"; }']) + "\n")
    assert main(["run", str(chain)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1\tk0\t-\t0"] + [
        f"1\tk{i}\t-\t1" for i in links]


def test_run_orders_no_subject_before_an_empty_label(tmp_path):
    # W pends as (W, None) from the injection into M and as (W, "") from
    # A.  Their set order changes from process to process (string hashes
    # are salted, None's may follow its address), yet no subject sorts
    # first in each: both bind "" and the deferred (W, "") fires again
    model = tmp_path / "tie.tm"
    model.write_text("\n".join([
        "model tie",
        "thimac env kind source { actions: release, transfer }",
        "thimac M kind machine { actions: transfer, receive, process, "
        "release }",
        "flow env.release -> env.transfer",
        "flow env.transfer -> M.transfer",
        "flow M.transfer -> M.receive",
        'event A "arrives" region { env.release, env.transfer, '
        "M.transfer, M.receive }",
        'event W "works" region { M.process }',
        "behavior { A -> W; }",
        'schedule { at 1 inject env ""; at 2 inject M "z"; }']) + "\n")
    src = str(Path(thimac.__file__).resolve().parents[1])
    for seed in "12345678":
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "thimac.cli", "run",
                               str(model)], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.splitlines() == [
            '1\tA\t""\t0', '2\tW\t""\t0', '3\tW\t""\t0'], seed


# --- enumerate -------------------------------------------------------------------

def test_enumerate_counts_product(capsys):
    assert main(["enumerate", "B1=0..3", "M1=idle,busy,blocked",
                 "B2=0..3", "M2=idle,busy"]) == 0
    # 4 * 3 * 4 * 2 = 96
    assert capsys.readouterr().out == "96 states\n"


def test_enumerate_counts_without_building_domains(capsys):
    tracemalloc.start()
    try:
        assert main(["enumerate", "X=0..200000", "Y=a,b"]) == 0
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "400002 states\n"
    assert peak < 1 << 20


def test_enumerate_counts_ranges_past_the_index_limit(capsys):
    # len() of such a range raises OverflowError
    assert main(["enumerate", "X=0..18446744073709551616",
                 "Y=-9223372036854775809..-9223372036854775808"]) == 0
    assert capsys.readouterr().out == "36893488147419103234 states\n"


@pytest.mark.parametrize("spec", ["X=\u0660..\u0663", "X= 1..2", "X=1_0..1_1",
                                  "X=+1..2", "X=0..3 "])
def test_enumerate_bounds_are_ascii_integers(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", spec])
    assert exc.value.code == 2
    assert "bad integer range" in capsys.readouterr().err


def test_enumerate_bad_spec_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "B1"])
    assert exc.value.code == 2


def test_enumerate_empty_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "B1=3..1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: tm enumerate [-h] NAME=DOMAIN")
    assert "tm enumerate: error: empty range in 'B1=3..1'" in err


# --- coverage --------------------------------------------------------------------

def test_coverage_full_model(capsys):
    assert main(["coverage", ASSEMBLY]) == 0
    out = capsys.readouterr().out
    assert "uncovered: 0" in out


def test_coverage_lists_missing_actions(capsys):
    assert main(["coverage", DOOR_TM]) == 0
    out = capsys.readouterr().out
    assert "uncovered: 1" in out
    assert "doorwayEmpty.create" in out


# --- import-fsm ------------------------------------------------------------------

def test_import_fsm_emits_model(capsys):
    assert main(["import-fsm", DOOR_FSM]) == 0
    out = capsys.readouterr().out
    result = parse(out, file="<generated>")
    assert result.bundle is not None
    assert [e.id for e in result.bundle.events] == [
        "closed", "closing", "opened", "opening"]


def test_import_fsm_out_file(tmp_path, capsys):
    target = tmp_path / "door_generated.tm"
    assert main(["import-fsm", DOOR_FSM, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    result = parse(target.read_text(), file=str(target))
    assert result.bundle is not None


def test_import_fsm_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("fsm m\nstate A\ntrans A -> B on go\n")
    assert main(["import-fsm", str(bad)]) == 1
    assert "E_UNRESOLVED_REF" in capsys.readouterr().err


def test_import_fsm_refuses_a_name_that_is_not_an_identifier(tmp_path,
                                                             capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("fsm door\nstate Closed-1\ninitial Closed-1\n")
    target = tmp_path / "door.tm"
    assert main(["import-fsm", str(bad), "--out", str(target)]) == 1
    assert not target.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"{bad}:2:13: E_SYNTAX expected: state NAME",
        f"{bad}:3:15: E_SYNTAX expected: initial NAME",
    ]


def test_import_fsm_positions_a_guard_flag_it_cannot_take(tmp_path, capsys):
    bad = tmp_path / "bad.fsm"
    bad.write_text("fsm m\nstate A\nstate B\ninitial A\n"
                   "trans A -> B on go when used\n"
                   "trans B -> A on go when not\n")
    target = tmp_path / "m.tm"
    assert main(["import-fsm", str(bad), "--out", str(target)]) == 1
    assert not target.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"{bad}:5:25: E_DUP_ID guard flag used is also a generated thimac id",
        f"{bad}:6:25: E_SYNTAX guard flag 'not' is a guard word",
    ]


# --- project --------------------------------------------------------------------

def test_project_prints_report(tmp_path, capsys):
    mapping = tmp_path / "map.txt"
    mapping.write_text("Closed = st.Closed.create, st.Closed.process\n"
                       "Opened = st.Opened.process\n")
    assert main(["project", DOOR_FSM, DOOR_TM,
                 "--mapping", str(mapping)]) == 0
    out = capsys.readouterr().out
    assert "Closed: 2 actions, compound" in out
    assert "Opened: 1 actions, generic" in out


def test_project_bad_mapping(tmp_path, capsys):
    mapping = tmp_path / "map.txt"
    mapping.write_text("Closed = st.Closed.bogus\n")
    assert main(["project", DOOR_FSM, DOOR_TM,
                 "--mapping", str(mapping)]) == 1
    assert "E_SYNTAX" in capsys.readouterr().err


# --- conform --------------------------------------------------------------------

def run_to_file(tmp_path, capsys, *args):
    assert main(["run", ASSEMBLY, *args]) == 0
    out = capsys.readouterr().out
    path = tmp_path / "trace.txt"
    path.write_text(out)
    return path


def test_conform_accepts_own_trace(tmp_path, capsys):
    path = run_to_file(tmp_path, capsys)
    assert main(["conform", ASSEMBLY, str(path)]) == 0
    assert capsys.readouterr().out == "conforms\n"


def test_conform_flags_edited_trace(tmp_path, capsys):
    path = run_to_file(tmp_path, capsys, "--ticks", "10")
    lines = path.read_text().splitlines()
    # drop tick 2's E5/S1 and pull E6/S1 forward into its place
    lines.remove('2\tE5\t"S1"\t0')
    lines[lines.index('3\tE6\t"S1"\t0')] = '2\tE6\t"S1"\t0'
    path.write_text("\n".join(lines) + "\n")
    assert main(["conform", ASSEMBLY, str(path)]) == 1
    out = capsys.readouterr().out
    assert "1 violations" in out
    assert "E6/S1" in out


def test_conform_unknown_event(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    path.write_text('1\tE99\t"S1"\t0\n')
    assert main(["conform", ASSEMBLY, str(path)]) == 1
    # the code is printed once
    assert capsys.readouterr().err == (
        "error: E_UNRESOLVED_REF trace names unknown event 'E99'\n")


def test_conform_malformed_record(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    path.write_text('1\tE1\tS1\t0\n')
    assert main(["conform", ASSEMBLY, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: E_SYNTAX {path}:1:6: subject "
                            "'S1' is neither - nor a quoted string\n")


# --- export-dot -----------------------------------------------------------------

def test_export_dot_layers(capsys):
    for layer in ("static", "events", "behavior"):
        assert main(["export-dot", ASSEMBLY, "--layer", layer]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph assembly_line {")


def test_export_dot_bad_layer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export-dot", ASSEMBLY, "--layer", "bogus"])
    assert exc.value.code == 2


def test_export_dot_out_file(tmp_path, capsys):
    target = tmp_path / "model.dot"
    assert main(["export-dot", ASSEMBLY, "--out", str(target)]) == 0
    assert target.read_text().startswith("digraph")


def test_output_is_byte_deterministic(capsys):
    main(["run", ASSEMBLY, "--ticks", "10"])
    first = capsys.readouterr().out
    main(["run", ASSEMBLY, "--ticks", "10"])
    assert capsys.readouterr().out == first
