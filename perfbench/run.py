"""ddamsim benchmark: seeded Monte Carlo campaigns through the public API.

Run from the root of a checkout, which must hold the package in ./src:

    python3 perfbench/run.py --workload se-sweep --seed 1 --seconds 20 --trace 0

Chunk ``k`` of a run calls ``run_experiment`` with seed ``seed * 1000 + k``,
so the seed fixes the inputs. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
README.md defines the workloads, the correctness check and every metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
RESULTS_DIR = BENCH_DIR / "results"

REFERENCE_SEED = 0
# Relative tolerance on mean/median/p10/p90 against the reference rows. It
# admits reorderings of floating-point work and solver changes that keep
# rates within 1e-8 (BCD) or 1e-10 (OFDM) of the current code, and nothing
# that changes a result at the precision the paper's figures use.
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
VALUE_COLUMNS = ("mean", "median", "p10", "p90")
KEY_COLUMNS = ("scheme", "param_name", "param_value", "metric", "seed", "trials")

SETUP_REPEATS = 5
WARMUP_CHUNK = 999
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# import ddamsim and resolve the experiment the way run_experiment does
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
from dataclasses import replace
import ddamsim
spec = ddamsim.EXPERIMENTS[sys.argv[1]]
config = replace(ddamsim.SystemConfig(), **spec.config_overrides)
print(time.perf_counter() - start)
"""


@dataclass(frozen=True)
class Workload:
    experiment: str
    chunk_trials: int       # trials per run_experiment call
    reference_trials: int   # trials of the REFERENCE_SEED check
    pool_workers: int = 1   # workers of the reference check and traced pool segment


# End-to-end runs are serial. With two workers on two cores, each worker's
# OpenBLAS threads oversubscribe the cores, and consecutive pools of 8 fig8
# trials ran anywhere from 1.7 to 8.1 trials/s; 30 s windows of them still
# differed by 12 % (quartile spread). So the pool is measured only in the
# traced run, whose metrics carry no bound.
WORKLOADS = {
    # fig4: OFDM ~78 % and BCD ~20 % of a trial, M_t in {16, 32, 64}
    "se-sweep": Workload("fig4-se-vs-mt", 2, 2),
    # fig3: 20 fixed BCD iterations at M_t = 64, no OFDM
    "bcd-convergence": Workload("fig3-convergence", 2, 2),
    # fig9: short trials of zf_design and lag grouping, no OFDM or BCD
    "csi-mismatch": Workload("fig9-imperfect-csi", 25, 10),
    # fig8: QAM, DDAM frames, PAPR and OFDM at M_t = 128; the pooled workload
    "papr": Workload("fig8-papr", 8, 4, pool_workers=2),
}

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "cpu_s_per_trial": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trial_success_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The program's output is wrong, or the checkout cannot be benchmarked."""


@dataclass
class Segment:
    """Totals of one measured sequence of run_experiment calls."""

    trials: int = 0
    failures: int = 0
    wall_s: float = 0.0
    cpu_self_s: float = 0.0
    cpu_children_s: float = 0.0
    nivcsw_children: int = 0

    @property
    def completed(self) -> int:
        return self.trials - self.failures


def import_package():
    """Import ddamsim from the checkout's src/, never from anywhere else."""
    if not (SRC / "ddamsim" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {SRC / 'ddamsim'}")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import ddamsim.experiments

    if Path(ddamsim.__file__).resolve().parent != (SRC / "ddamsim").resolve():
        raise BenchmarkError(f"ddamsim was imported from {ddamsim.__file__}")
    return ddamsim.experiments


def chunk_seed(seed: int, chunk: int) -> int:
    return seed * 1000 + chunk


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_segment(experiments, workload: Workload, seed: int, seconds: float,
                workers: int, reference_keys: list[tuple]) -> Segment:
    """Call run_experiment in chunks until `seconds` pass; check each chunk."""
    segment = Segment()
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    deadline = time.perf_counter() + seconds
    chunk = 0
    while True:
        start = time.perf_counter()
        run = experiments.run_experiment(
            workload.experiment,
            seed=chunk_seed(seed, chunk),
            num_trials=workload.chunk_trials,
            workers=workers,
        )
        segment.wall_s += time.perf_counter() - start
        check_chunk(run, workload.chunk_trials, reference_keys)
        segment.trials += run.num_trials
        segment.failures += run.num_failures
        chunk += 1
        if time.perf_counter() >= deadline:
            break
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    segment.cpu_self_s = _cpu_s(self_after) - _cpu_s(self_before)
    segment.cpu_children_s = _cpu_s(children_after) - _cpu_s(children_before)
    segment.nivcsw_children = children_after.ru_nivcsw - children_before.ru_nivcsw
    return segment


def check_chunk(run, num_trials: int, reference_keys: list[tuple]) -> None:
    """Rows of any seed have the reference's keys, finite values, full counts."""
    keys = [(r.scheme, r.param_name, float(r.param_value), r.metric) for r in run.rows]
    if keys != reference_keys:
        raise BenchmarkError(f"{run.experiment}: row keys differ from the reference")
    completed = num_trials - run.num_failures
    for row in run.rows:
        values = (row.mean, row.median, row.p10, row.p90)
        if row.trials != completed or not all(math.isfinite(v) for v in values):
            raise BenchmarkError(f"{run.experiment}: bad row {row}")


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def compare_rows(actual_csv: str, reference_csv: str) -> list[str]:
    """Mismatches between two result CSVs; empty when they agree."""
    actual, reference = parse_csv(actual_csv), parse_csv(reference_csv)
    if len(actual) != len(reference):
        return [f"{len(actual)} rows, reference has {len(reference)}"]
    problems = []
    for index, (got, want) in enumerate(zip(actual, reference)):
        for column in KEY_COLUMNS:
            if got[column] != want[column]:
                problems.append(f"row {index} {column}: {got[column]} != {want[column]}")
        for column in VALUE_COLUMNS:
            a, b = float(got[column]), float(want[column])
            if not abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b)) + REFERENCE_ATOL:
                problems.append(f"row {index} {column}: {a!r} != {b!r}")
    return problems


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.csv"


def reference_keys(reference_csv: str) -> list[tuple]:
    return [
        (r["scheme"], r["param_name"], float(r["param_value"]), r["metric"])
        for r in parse_csv(reference_csv)
    ]


def check_reference(experiments, workload: Workload, reference_csv: str) -> list[str]:
    run = experiments.run_experiment(
        workload.experiment,
        seed=REFERENCE_SEED,
        num_trials=workload.reference_trials,
        workers=workload.pool_workers,
    )
    return compare_rows(run.to_csv(), reference_csv)


def measure_setup(experiment: str) -> float:
    """Median time to import ddamsim and resolve `experiment`, fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, experiment],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ddamsim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, cwd=ROOT)
    except OSError:
        return None
    return out.stdout.strip() or None


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def manifest(name: str, seed: int, trace: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    a = np.ones((256, 256))
    (a @ a).sum()  # one BLAS call, so a lazily started thread pool shows
    return {
        "workload": name,
        "experiment": WORKLOADS[name].experiment,
        "seed": seed,
        "workers": 1,
        "pool_workers": WORKLOADS[name].pool_workers,
        "trace": trace,
        "workloads": {k: asdict(w) for k, w in WORKLOADS.items()},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "threads_after_blas_call": os_threads(),
    }


def end_to_end(segment: Segment, setup_s: float, peak_rss_kb: int) -> dict:
    values = {
        "trials_per_s": segment.completed / segment.wall_s,
        "cpu_s_per_trial": (segment.cpu_self_s + segment.cpu_children_s)
        / max(segment.completed, 1),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "trial_success_ratio": segment.completed / segment.trials,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(experiments, workload: Workload, seed: int, seconds: float,
              keys: list[tuple]) -> tuple[dict, list[Segment], list]:
    import spans

    workers = workload.pool_workers
    share = seconds / (3 if workers > 1 else 2)
    untraced = run_segment(experiments, workload, seed, share, workers, keys)
    serial = untraced
    if workers > 1:
        serial = run_segment(experiments, workload, seed, share, 1, keys)
    tracer = spans.Tracer()
    with spans.traced(tracer, workload.experiment):
        traced_segment = run_segment(experiments, workload, seed, share, 1, keys)

    completed = max(untraced.completed, 1)
    metrics = spans.layer_metrics(tracer, max(traced_segment.completed, 1))
    traced_tps = traced_segment.completed / traced_segment.wall_s
    metrics["experiments.pool.cpu_s_per_trial"] = (untraced.cpu_children_s / completed, "s")
    metrics["experiments.pool.nivcsw_per_trial"] = (
        untraced.nivcsw_children / completed, "count")
    metrics["experiments.pool.scaling_eff"] = (
        untraced.completed / untraced.wall_s / (workers * traced_tps), "ratio")
    metrics["trace.overhead_ratio"] = (
        (traced_segment.wall_s / max(traced_segment.completed, 1))
        / (serial.wall_s / max(serial.completed, 1)),
        "ratio",
    )
    segments = [untraced] + ([serial] if serial is not untraced else []) + [traced_segment]
    return metrics, segments, tracer.spans


def run(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, int]:
    """One benchmark run; returns (result, exit code)."""
    workload = WORKLOADS[name]
    experiments = import_package()
    reference_csv = reference_path(name).read_text(encoding="utf-8")
    keys = reference_keys(reference_csv)
    info = manifest(name, seed, trace)

    experiments.run_experiment(workload.experiment, seed=chunk_seed(seed, WARMUP_CHUNK),
                               num_trials=1, workers=1)
    if trace:
        metrics, segments, span_list = per_layer(experiments, workload, seed, seconds, keys)
        mismatches = check_reference(experiments, workload, reference_csv)
    else:
        segment = run_segment(experiments, workload, seed, seconds, 1, keys)
        # read before the set-up interpreters, which are children too
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        mismatches = check_reference(experiments, workload, reference_csv)
        metrics = end_to_end(segment, measure_setup(workload.experiment), peak_kb)
        segments, span_list = [segment], []
    attempted = sum(s.trials for s in segments)
    failed = sum(s.failures for s in segments)
    result = {
        "correct": not mismatches and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, manifest=info, mismatches=mismatches,
                  trial_failure_ratio=failed / attempted,
                  segments=[asdict(s) for s in segments], spans=span_list)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(record), encoding="utf-8")

    print("manifest " + json.dumps(info, sort_keys=True))
    for problem in mismatches:
        print(f"reference mismatch: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<52} {value:>14.6g} {unit}")
    print(f"{'trial_failure_ratio':<52} {failed / attempted:>14.6g} ratio")
    print(json.dumps(result))
    return result, 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        _, code = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
