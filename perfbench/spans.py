"""Span tracing of ddamsim from outside the package.

`traced` rebinds public module attributes of ddamsim to timing wrappers and
restores every original binding on exit. Spans are kept in memory as
[name, start, end, parent] lists (parent is an index into the same list, or
-1) and turned into per-layer metrics by `layer_metrics`. Spans only see the
process they are recorded in, so traced runs must be serial.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

# (ddamsim module, attribute rebound there, span name). A function is wrapped
# where its callers look it up, so linalg routines are rebound in the modules
# that import them and stage calls in ddamsim.experiments.
WRAPPED = (
    ("experiments", "run_experiment", "experiments.run_experiment"),
    ("experiments", "generate_paths", "channel.generate_paths"),
    ("experiments", "realize_channel", "channel.realize_channel"),
    ("experiments", "zf_design", "zf.zf_design"),
    ("experiments", "build_ddam_tx", "zf.build_ddam_tx"),
    ("experiments", "group_delay_differences", "bcd.group_delay_differences"),
    ("experiments", "bcd_solve", "bcd.bcd_solve"),
    ("experiments", "ofdm_design_and_rate", "benchmarks.ofdm_design_and_rate"),
    ("experiments", "strongest_path_design", "benchmarks.strongest_path_design"),
    ("experiments", "qam_symbols", "metrics.qam_symbols"),
    ("experiments", "papr_db", "metrics.papr_db"),
    ("experiments", "perturb_csi", "metrics.perturb_csi"),
    ("experiments", "mismatched_alignment_rate", "experiments.mismatched_alignment_rate"),
    ("bcd", "precoder_update", "bcd.precoder_update"),
    ("bcd", "mmse_receiver", "bcd.mmse_receiver"),
    ("bcd", "eig_hermitian", "linalg.eig_hermitian"),
    ("zf", "svd_reduced", "linalg.svd_reduced"),
    ("zf", "null_space_basis", "linalg.null_space_basis"),
    ("benchmarks", "svd_reduced", "linalg.svd_reduced"),
    ("benchmarks", "eig_hermitian", "linalg.eig_hermitian"),
    ("linalg", "as_complex_matrix", "linalg.as_complex_matrix"),
)
TRIAL_SPAN = "experiments.trial"
RUN_SPAN = "experiments.run_experiment"

# functions reported with calls_per_trial and self_ms_per_trial
LAYER_FUNCTIONS = (
    "channel.generate_paths",
    "channel.realize_channel",
    "zf.zf_design",
    "zf.build_ddam_tx",
    "bcd.group_delay_differences",
    "bcd.bcd_solve",
    "bcd.precoder_update",
    "bcd.mmse_receiver",
    "benchmarks.ofdm_design_and_rate",
    "benchmarks.strongest_path_design",
    "linalg.svd_reduced",
    "linalg.eig_hermitian",
    "linalg.null_space_basis",
    "linalg.as_complex_matrix",
    "metrics.qam_symbols",
    "metrics.papr_db",
    "metrics.perturb_csi",
    "experiments.mismatched_alignment_rate",
)
# functions whose median per-call time is also reported
P50_FUNCTIONS = (
    "zf.zf_design",
    "zf.build_ddam_tx",
    "bcd.bcd_solve",
    "bcd.precoder_update",
    "benchmarks.ofdm_design_and_rate",
    "experiments.mismatched_alignment_rate",
)


class Tracer:
    """In-memory span recorder plus the counters read from bcd_solve results."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.bcd_outcomes: list[tuple[int, bool]] = []  # (n_iterations, converged)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def record_bcd(self, state) -> None:
        self.bcd_outcomes.append((int(state.n_iterations), bool(state.converged)))


@contextmanager
def traced(tracer: Tracer, experiment: str):
    """Install the wrappers of WRAPPED and the trial wrapper; restore on exit."""
    registry = importlib.import_module("ddamsim.experiments").EXPERIMENTS
    spec = registry[experiment]
    saved = []
    try:
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(f"ddamsim.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            on_result = tracer.record_bcd if span == "bcd.bcd_solve" else None
            setattr(module, attr, tracer.wrap(span, original, on_result))
        registry[experiment] = replace(
            spec, evaluator=tracer.wrap(TRIAL_SPAN, spec.evaluator)
        )
        yield
    finally:
        registry[experiment] = spec
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, trials: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run over `trials` completed trials."""
    spans = tracer.spans
    duration = np.array([end - start for _, start, end, _ in spans])
    child_time = np.zeros(len(spans))
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[index]
    self_time = duration - child_time
    names = np.array([span[0] for span in spans], dtype=object)

    metrics: dict[str, tuple[float, str]] = {}
    for fn in LAYER_FUNCTIONS:
        mask = names == fn
        metrics[f"{fn}.calls_per_trial"] = (int(mask.sum()) / trials, "calls/trial")
        metrics[f"{fn}.self_ms_per_trial"] = (
            1e3 * float(self_time[mask].sum()) / trials,
            "ms/trial",
        )
    for fn in P50_FUNCTIONS:
        metrics[f"{fn}.ms_p50"] = (_quantile_ms(duration[names == fn], 0.5), "ms")

    outcomes = tracer.bcd_outcomes
    iterations = float(np.mean([n for n, _ in outcomes])) if outcomes else 0.0
    unconverged = (
        sum(1 for _, ok in outcomes if not ok) / len(outcomes) if outcomes else 0.0
    )
    metrics["bcd.bcd_solve.iterations_per_call"] = (iterations, "iter/call")
    metrics["bcd.bcd_solve.unconverged_ratio"] = (unconverged, "ratio")

    trial_ms = duration[names == TRIAL_SPAN]
    metrics["experiments.trial.ms_p50"] = (_quantile_ms(trial_ms, 0.5), "ms")
    metrics["experiments.trial.ms_p90"] = (_quantile_ms(trial_ms, 0.9), "ms")
    runs = names == RUN_SPAN
    metrics["experiments.aggregate_ms"] = (
        1e3 * float(self_time[runs].sum()) / max(int(runs.sum()), 1),
        "ms",
    )
    return metrics


def _quantile_ms(durations: np.ndarray, q: float) -> float:
    return 1e3 * float(np.quantile(durations, q)) if durations.size else 0.0
