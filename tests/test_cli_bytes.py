"""The `tm` commands' output bytes, pinned: the SHA-256 of stdout and of
stderr and the exit code of `thimac.cli.main`, run in-process from the
repo root so that paths inside diagnostics read the same everywhere.

`--help` is left out, since argparse words it differently across Python
versions.  To re-record after a change that is meant to alter output:

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from thimac.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"
MODELS = sorted(p.relative_to(ROOT).as_posix()
                for p in (ROOT / "fixtures").glob("*.tm"))

COMMANDS = [
    argv for model in MODELS for argv in (
        ["run", model], ["run", model, "--displayed"],
        ["run", model, "--ticks", "5"], ["validate", model],
        ["coverage", model],
        *(["export-dot", model, "--layer", layer]
          for layer in ("static", "events", "behavior")))
] + [
    ["import-fsm", "fixtures/door.fsm"],
    ["enumerate", "B1=0..3", "M1=idle,busy,blocked", "B2=0..3",
     "M2=idle,busy"],
    ["conform", "fixtures/assembly_line.tm",
     "bench/data/assembly_line.trace.tsv"],
]


def _digest(argv) -> dict:
    """SHA-256 of what `main(argv)` writes to stdout and stderr, and the
    code it returns, run from the repo root."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def test_every_command_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(
        " ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_bytes_stay_pinned(argv):
    assert _digest(argv) == json.loads(DIGESTS.read_text())[" ".join(argv)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {" ".join(argv): _digest(argv) for argv in COMMANDS},
        indent=1, sort_keys=True) + "\n")
