"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bindings() -> dict:
    """Objects behind every name spans.traced rebinds."""
    current = {}
    for module_name, attr, _ in spans.WRAPPED:
        module = importlib.import_module(f"ddamsim.{module_name}")
        current[f"{module_name}.{attr}"] = getattr(module, attr)
    registry = importlib.import_module("ddamsim.experiments").EXPERIMENTS
    for name, spec in registry.items():
        current[f"EXPERIMENTS[{name}].evaluator"] = spec.evaluator
    return current


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END_UNITS
    per_layer = set(_units("per_layer"))
    for fn in spans.LAYER_FUNCTIONS:
        assert {f"{fn}.calls_per_trial", f"{fn}.self_ms_per_trial"} <= per_layer
    for fn in spans.P50_FUNCTIONS:
        assert f"{fn}.ms_p50" in per_layer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_prints_every_metric_with_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for name, unit in expected.items():
        assert table[name] == unit


def test_traced_run_restores_bindings():
    experiments = run.import_package()
    experiment = run.WORKLOADS["csi-mismatch"].experiment
    trial_key = f"EXPERIMENTS[{experiment}].evaluator"
    before = bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.traced(tracer, experiment):
            during = bindings()
            experiments.run_experiment(experiment, seed=0, num_trials=1)
            raise RuntimeError("restore even when the traced run fails")
    assert bindings() == before
    for module, attr, _ in spans.WRAPPED:
        assert during[f"{module}.{attr}"] is not before[f"{module}.{attr}"]
    assert during[trial_key] is not before[trial_key]
    recorded = {span[0] for span in tracer.spans}
    assert {spans.TRIAL_SPAN, spans.RUN_SPAN, "zf.zf_design",
            "experiments.mismatched_alignment_rate"} <= recorded


def test_perturbed_reference_row_fails_the_check():
    experiments = run.import_package()
    workload = run.WORKLOADS["csi-mismatch"]
    reference = run.reference_path("csi-mismatch").read_text(encoding="utf-8")
    assert run.check_reference(experiments, workload, reference) == []

    header, first, *rest = reference.splitlines()
    cells = first.split(",")
    mean_col = header.split(",").index("mean")

    def with_mean(scale: float) -> str:
        changed = cells.copy()
        changed[mean_col] = repr(float(cells[mean_col]) * scale)
        return "\n".join([header, ",".join(changed), *rest]) + "\n"

    assert run.check_reference(experiments, workload, with_mean(1 + 1e-9)) == []
    mismatches = run.check_reference(experiments, workload, with_mean(1 + 1e-4))
    assert len(mismatches) == 1 and "mean" in mismatches[0]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _bench("--workload", "csi-mismatch", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
