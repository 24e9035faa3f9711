"""The committed benchmark records: each root `BENCH_*.json` parses,
holds the fields every record shares, and names only the workloads and
end-to-end metrics that `BENCHMARK.json` declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
METRICS = {m["name"] for m in SPEC["end_to_end"]}
FIELDS = ("what", "command", "python", "host", "parent_commit", "claim",
          "quartiles", "workloads")
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_records_are_found():
    assert len(RECORDS) >= 7


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_a_record_names_what_the_benchmark_declares(path):
    record = json.loads(path.read_text())
    assert [name for name in FIELDS if name not in record] == []
    claim = record["claim"]
    if claim is not None:
        assert claim["workload"] in WORKLOADS
        assert claim["metric"] in METRICS
    assert record["workloads"]
    assert set(record["workloads"]) <= WORKLOADS
