"""Committed benchmark records (BENCH_<n>.json at the repository root)."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))
SOURCE_SHA256 = re.compile(r"[0-9a-f]{64}")


def test_bench_records_are_committed():
    assert RECORDS and all(re.fullmatch(r"BENCH_\d+\.json", path.name) for path in RECORDS)


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_keys_correct_runs_by_source_hash(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_names = {metric["name"] for metric in benchmark["end_to_end"]}
    workload_names = {workload["name"] for workload in benchmark["workloads"]}
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["trees"]
    for source_sha256, tree in record["trees"].items():
        assert SOURCE_SHA256.fullmatch(source_sha256), source_sha256
        assert tree["workloads"] and set(tree["workloads"]) <= workload_names
        for workload, result in tree["workloads"].items():
            assert result["runs"], workload
            for run in result["runs"]:
                assert run["correct"] is True, (workload, run["seed"])
                assert metric_names <= set(run["metrics"]), (workload, run["seed"])
