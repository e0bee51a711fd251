"""Experiment registry, trial aggregation, serialization, reproducibility."""

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddamsim import bcd, experiments, zf
from ddamsim.bcd import _lag_models, colored_noise_rate, group_delay_differences
from ddamsim.channel import coherence_partition, generate_paths, realize_channel
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError, FeasibilityError, NumericalError
from ddamsim.experiments import (
    CSV_HEADER,
    EXPERIMENTS,
    OFDM_SUBCARRIERS,
    TRANSMIT_ANTENNA_SWEEP,
    _block_samples,
    _papr_chunk,
    _papr_frames,
    _resolve_config,
    _run_chunk,
    list_experiments,
    mismatched_alignment_rate,
    run_experiment,
)
from ddamsim.metrics import CsiError, perturb_csi
from ddamsim.zf import DdamDesign, zf_design, zf_spatial_design
from oracles import (
    convergence_trial_loop,
    ddam_papr_frame_loop,
    imperfect_csi_trial_loop,
    lag_pairs_loop,
    mismatched_alignment_rate_loop,
    ofdm_papr_frame_loop,
    papr_trial_loop,
    se_vs_mt_trial_loop,
)


EXPECTED_NAMES = {
    "fig3-convergence",
    "fig4-se-vs-mt",
    "fig5-se-ddam-ofdm-otfs",
    "fig6-ber",
    "fig8-papr",
    "fig9-imperfect-csi",
    "feasibility-map",
}


def test_registry_contents():
    assert set(EXPERIMENTS) == EXPECTED_NAMES
    for name, spec in EXPERIMENTS.items():
        assert spec.name == name
        assert spec.description
        assert spec.default_trials >= 1
    listed = dict(list_experiments())
    assert set(listed) == EXPECTED_NAMES


SCIPY_FREE_SNIPPET = """\
import sys
from ddamsim import run_experiment
for name in ("fig3-convergence", "fig4-se-vs-mt", "fig8-papr", "fig9-imperfect-csi"):
    run = run_experiment(name, seed=0, num_trials=1)
    assert run.num_failures == 0, (name, run.failures)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _last_line_of_fresh_interpreter(snippet):
    # a fresh interpreter, since the test process has loaded every module already
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_experiments_without_otfs_or_ber_never_load_scipy():
    assert _last_line_of_fresh_interpreter(SCIPY_FREE_SNIPPET) == "[]"


POOL_FREE_SNIPPET = """\
import sys
import ddamsim
loaded = [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]
run = ddamsim.run_experiment("fig8-papr", seed=0, num_trials=2, workers=1)
assert run.num_failures == 0, run.failures
print(loaded + [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules])
"""


def test_import_and_serial_runs_never_load_the_worker_pool():
    assert _last_line_of_fresh_interpreter(POOL_FREE_SNIPPET) == "[]"


def test_unknown_experiment_raises():
    with pytest.raises(ContractViolationError):
        run_experiment("fig7-does-not-exist", seed=0, num_trials=1)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ContractViolationError):
        run_experiment("feasibility-map", seed=0, workers=workers)


@pytest.mark.parametrize(
    "bad",
    [
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"seed": "3"},
        {"num_trials": 2.7},
        {"num_trials": True},
        {"num_trials": 0},
        {"workers": 1.5},
        {"workers": True},
    ],
)
def test_run_arguments_validated_before_any_trial(bad):
    with pytest.raises(ContractViolationError):
        run_experiment("fig3-convergence", **{"seed": 0, "num_trials": 1, **bad})


def test_numpy_integer_arguments_are_recorded_as_ints():
    run = run_experiment("feasibility-map", seed=np.int64(4), num_trials=np.int64(1))
    assert type(run.seed) is int and type(run.num_trials) is int
    assert json.loads(run.to_json())["config"]["seed"] == 4


def test_run_records_its_coerced_config():
    # the run keeps the validated config its trials ran on, numpy counts as ints
    run = run_experiment("feasibility-map", config=SystemConfig(num_rx_antennas=np.int64(2)))
    assert type(run.config.num_rx_antennas) is int
    assert json.loads(run.to_json())["config"]["system"]["num_rx_antennas"] == 2


def test_csv_shape_and_header():
    run = run_experiment("fig3-convergence", seed=3, num_trials=2)
    text = run.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    reader = csv.DictReader(io.StringIO(text))
    rows = list(reader)
    assert len(rows) == len(run.rows) >= 1
    for row in rows:
        assert row["seed"] == "3"
        assert int(row["trials"]) >= 1
        float(row["mean"]), float(row["median"]), float(row["p10"]), float(row["p90"])


def test_rows_are_sorted_and_stats_ordered():
    run = run_experiment("fig3-convergence", seed=1, num_trials=3)
    keys = [(r.scheme, r.param_name, r.param_value, r.metric) for r in run.rows]
    assert keys == sorted(keys)
    for r in run.rows:
        assert r.p10 <= r.median <= r.p90, f"quantiles out of order in {r}"


def test_same_seed_reproduces_byte_identical_output():
    one = run_experiment("fig3-convergence", seed=11, num_trials=2)
    two = run_experiment("fig3-convergence", seed=11, num_trials=2)
    assert one.to_csv() == two.to_csv()
    other = run_experiment("fig3-convergence", seed=12, num_trials=2)
    assert one.to_csv() != other.to_csv()


def test_parallel_workers_match_serial():
    serial = run_experiment("fig9-imperfect-csi", seed=5, num_trials=4, workers=1)
    parallel = run_experiment("fig9-imperfect-csi", seed=5, num_trials=4, workers=2)
    assert serial.to_csv() == parallel.to_csv()


def test_json_payload_schema():
    run = run_experiment("feasibility-map", seed=0)
    blob = json.loads(run.to_json())
    assert blob["config"]["experiment"] == "feasibility-map"
    assert blob["config"]["seed"] == 0
    assert blob["config"]["failures"] == []
    assert blob["config"]["system"]["num_tx_antennas"] == 64
    assert len(blob["rows"]) == len(run.rows)
    sample = blob["rows"][0]
    for key in (
        "scheme",
        "param_name",
        "param_value",
        "metric",
        "seed",
        "trials",
        "mean",
        "median",
        "p10",
        "p90",
    ):
        assert key in sample


def test_save_picks_format_from_suffix(tmp_path):
    run = run_experiment("feasibility-map", seed=0)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    run.save(csv_path)
    run.save(json_path)
    assert csv_path.read_text() == run.to_csv()
    assert json.loads(json_path.read_text())["config"]["experiment"] == "feasibility-map"


def test_config_overrides_reach_the_rows():
    run = run_experiment("fig6-ber", seed=0, num_trials=1)
    assert run.config.num_tx_antennas == 256
    assert run.config.num_streams == 1
    schemes = {r.scheme for r in run.rows}
    assert schemes == {"ddam-zf", "ofdm", "ofdm-cfo"}
    assert {r.param_name for r in run.rows} == {"power_dbm"}
    assert {r.metric for r in run.rows} == {"ber"}
    assert {r.param_value for r in run.rows} == {10.0, 20.0, 30.0, 40.0}


def test_feasibility_map_rows():
    run = run_experiment("feasibility-map", seed=0)
    rows = {(r.scheme, r.metric, r.param_value): r.mean for r in run.rows}
    # square systems flip from infeasible to feasible exactly at mt = L * ns
    assert rows[("mr2-ns2", "verdict_l3", 6.0)] == 1.0
    assert rows[("mr2-ns2", "verdict_l3", 5.0)] == 0.0
    assert rows[("mr4-ns4", "verdict_l2", 8.0)] == 1.0
    assert rows[("mr4-ns4", "verdict_l2", 7.0)] == 0.0
    # the rectangular pair keeps an undetermined band
    codes = {r.mean for r in run.rows if r.scheme == "mr4-ns2"}
    assert 2.0 in codes


def test_failures_collected_not_raised():
    # fig5 with an infeasible geometry fails inside the trial; the runner
    # must roll that into the failure list instead of crashing
    cfg = SystemConfig(num_tx_antennas=2, num_rx_antennas=2, num_streams=2)
    run = run_experiment("fig4-se-vs-mt", seed=0, num_trials=1, config=cfg)
    assert isinstance(run.failures, list)


def _trial_raising(error):
    def chunk(config, rngs):
        raise error("injected by the test")

    return chunk


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize(
    "error", [ContractViolationError, NumericalError, FeasibilityError]
)
def test_domain_errors_fail_their_trial(monkeypatch, error, workers):
    spec = EXPERIMENTS["feasibility-map"]
    monkeypatch.setitem(
        EXPERIMENTS, spec.name, replace(spec, evaluator=_trial_raising(error))
    )
    run = run_experiment(spec.name, seed=0, num_trials=2, workers=workers)
    assert [trial for trial, _ in run.failures] == [0, 1]
    assert run.failures[0][1] == f"{error.__name__}: injected by the test"
    assert run.rows == []


@pytest.mark.parametrize("workers", [None, 2])
def test_programming_error_propagates(monkeypatch, workers):
    # a bug in an evaluator must stop the run, not become a failed trial
    spec = EXPERIMENTS["feasibility-map"]
    monkeypatch.setitem(
        EXPERIMENTS, spec.name, replace(spec, evaluator=_trial_raising(TypeError))
    )
    with pytest.raises(TypeError, match="injected by the test"):
        run_experiment(spec.name, seed=0, num_trials=2, workers=workers)


def _trial_nan_on(seed, bad_trial):
    # trials are told apart by their first draw, which also works in a pool
    marker = np.random.default_rng([seed, bad_trial]).random()

    def trial(rng):
        draw = rng.random()
        value = float("nan") if draw == marker else draw
        return [("s", "p", 1.0, "m", value), ("s", "p", 2.0, "m", 2.0 * draw)]

    return lambda config, rngs: [trial(rng) for rng in rngs]


@pytest.mark.parametrize("workers", [None, 2])
def test_non_finite_metric_fails_only_its_trial(monkeypatch, workers):
    spec = EXPERIMENTS["feasibility-map"]
    monkeypatch.setitem(
        EXPERIMENTS, spec.name, replace(spec, evaluator=_trial_nan_on(0, 1))
    )
    run = run_experiment(spec.name, seed=0, num_trials=4, workers=workers)
    assert run.failures == [
        (1, "NumericalError: non-finite metric value nan for ('s', 'p', 1.0, 'm')")
    ]
    draws = [np.random.default_rng([0, trial]).random() for trial in (0, 2, 3)]
    assert [(r.param_value, r.trials) for r in run.rows] == [(1.0, 3), (2.0, 3)]
    assert run.rows[0].mean == pytest.approx(np.mean(draws), rel=1e-15)
    assert run.rows[1].median == pytest.approx(2.0 * np.median(draws), rel=1e-15)


def _trial_ragged(config, rng):
    # bucket sizes differ: "b" only reports in some trials
    records = [("a", "p", float(k), "m", float(rng.standard_normal())) for k in range(3)]
    if rng.random() < 0.5:
        records.append(("b", "p", 0.0, "m", float(rng.exponential())))
    return records


def test_aggregation_matches_per_bucket_statistics(monkeypatch):
    spec = EXPERIMENTS["feasibility-map"]
    monkeypatch.setitem(
        EXPERIMENTS,
        spec.name,
        replace(spec, evaluator=lambda config, rngs: [_trial_ragged(config, r) for r in rngs]),
    )
    run = run_experiment(spec.name, seed=3, num_trials=13)
    buckets = {}
    for trial in range(13):
        for scheme, name, param, metric, value in _trial_ragged(
            None, np.random.default_rng([3, trial])
        ):
            buckets.setdefault((scheme, name, param, metric), []).append(value)
    assert [(r.scheme, r.param_name, r.param_value, r.metric) for r in run.rows] == sorted(
        buckets
    )
    assert len({r.trials for r in run.rows}) == 2
    for row in run.rows:
        values = np.asarray(buckets[(row.scheme, row.param_name, row.param_value, row.metric)])
        assert row.trials == values.size
        assert (row.mean, row.median, row.p10, row.p90) == (
            float(values.mean()),
            float(np.median(values)),
            float(np.quantile(values, 0.10)),
            float(np.quantile(values, 0.90)),
        )


def _fig9_records(trials, chunk_size, seed=0):
    """Per-trial records of fig9's evaluator, called on consecutive chunks."""
    config = SystemConfig()
    evaluate = EXPERIMENTS["fig9-imperfect-csi"].evaluator
    records = []
    for start in range(0, trials, chunk_size):
        chunk = range(start, min(start + chunk_size, trials))
        records += evaluate(config, [np.random.default_rng([seed, t]) for t in chunk])
    return records


def test_fig9_trial_records_do_not_depend_on_the_chunk():
    trials = 2 * experiments.TRIAL_CHUNK
    alone = _fig9_records(trials, 1)
    assert len(alone) == trials >= 100
    assert _fig9_records(trials, 7) == alone
    assert _fig9_records(trials, experiments.TRIAL_CHUNK) == alone


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("trials", [1, 5, 64, 65, 200])
def test_trial_chunks_cover_the_run_in_order(trials, workers):
    chunks = experiments._trial_chunks(trials, workers)
    assert [t for chunk in chunks for t in chunk] == list(range(trials))
    assert all(1 <= len(chunk) <= experiments.TRIAL_CHUNK for chunk in chunks)
    assert len(chunks) >= min(workers, trials)


def _spotting(evaluate, bad_trial, seed, action):
    """evaluate, with one trial's generator spotted before any draw.

    action "raise" fails a chunk holding that trial with a domain error;
    "drop" returns no records for it, as if it had not run.
    """
    marker = np.random.default_rng([seed, bad_trial]).bit_generator.state

    def chunk(config, rngs):
        bad = [rng.bit_generator.state == marker for rng in rngs]
        if action == "raise" and any(bad):
            raise FeasibilityError("injected by the test")
        records = evaluate(config, rngs)
        return [[] if flag else trial for flag, trial in zip(bad, records)]

    return chunk


@pytest.mark.parametrize(
    "name,workers",
    [
        ("fig9-imperfect-csi", None),
        ("fig9-imperfect-csi", 2),
        ("fig3-convergence", None),
        ("fig3-convergence", 2),
    ],
    ids=["None", "2", "fig3-None", "fig3-2"],
)
def test_a_domain_error_in_a_chunk_fails_only_its_trial(monkeypatch, name, workers):
    spec = EXPERIMENTS[name]
    runs = {}
    for action in ("raise", "drop"):
        evaluator = _spotting(spec.evaluator, 3, 9, action)
        monkeypatch.setitem(EXPERIMENTS, spec.name, replace(spec, evaluator=evaluator))
        runs[action] = run_experiment(spec.name, seed=9, num_trials=10, workers=workers)
    assert runs["raise"].failures == [(3, "FeasibilityError: injected by the test")]
    assert runs["drop"].failures == []
    assert runs["raise"].rows == runs["drop"].rows
    assert {row.trials for row in runs["raise"].rows} == {9}


def _pair_outputs(realization, spatial):
    """One design's (1, L', L, M_r, N_s) pair outputs H_l F_l'."""
    return (realization.matrices[None] @ spatial[:, None])[None]


def _trial_rate(paths, pair_outputs, estimates, noise_var, timebase):
    """(T, E) mismatched rates of one trial's estimated path sets, rated as a chunk of one."""
    branches = (
        np.array([[est.delay_taps for est in estimates]]),
        np.array([[est.doppler_hz for est in estimates]]),
    )
    return mismatched_alignment_rate(
        [paths], pair_outputs[None], branches, noise_var, timebase
    )[0]


def test_mismatched_alignment_with_true_csi_matches_zf_rate():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        paths = generate_paths(cfg, rng)
        realization = realize_channel(paths, cfg)
        design, result = zf_design(realization, cfg.tx_power_watts, cfg.noise_power_watts, 2)
        spatial = design.precoders
        rate = _trial_rate(
            paths,
            _pair_outputs(realization, spatial),
            [paths],
            noise_var=cfg.noise_power_watts,
            timebase=timebase,
        )[0, 0]
        assert rate == pytest.approx(result.rate_bps_hz, rel=1e-9), f"seed {seed}"


def test_mismatched_alignment_loses_rate_with_wrong_delays():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    losses = []
    for seed in range(20):
        rng = np.random.default_rng([7, seed])
        paths = generate_paths(cfg, rng)
        realization = realize_channel(paths, cfg)
        wrong, _ = perturb_csi(paths, CsiError(2.0 / 3.0, 0.0), rng)
        estimated = realize_channel(wrong, cfg)
        design, result = zf_design(estimated, cfg.tx_power_watts, cfg.noise_power_watts, 2)
        spatial = design.precoders
        rate = _trial_rate(
            paths,
            _pair_outputs(realization, spatial),
            [wrong],
            noise_var=cfg.noise_power_watts,
            timebase=timebase,
        )[0, 0]
        losses.append(1.0 - rate / result.rate_bps_hz)
    med = float(np.median(losses))
    assert 0.05 <= med <= 0.9, f"median loss {med:.3f} outside the plausible band"


def test_mismatched_alignment_doppler_error_is_mild():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, num_streams=2)
    timebase = coherence_partition(cfg)
    losses = []
    for seed in range(10):
        rng = np.random.default_rng([8, seed])
        paths = generate_paths(cfg, rng)
        realization = realize_channel(paths, cfg)
        wrong, _ = perturb_csi(paths, CsiError(1.0, 0.05), rng)
        estimated = realize_channel(wrong, cfg)
        design, result = zf_design(estimated, cfg.tx_power_watts, cfg.noise_power_watts, 2)
        spatial = design.precoders
        rate = _trial_rate(
            paths,
            _pair_outputs(realization, spatial),
            [wrong],
            noise_var=cfg.noise_power_watts,
            timebase=timebase,
        )[0, 0]
        losses.append(1.0 - rate / result.rate_bps_hz)
    med = float(np.median(losses))
    assert med <= 0.1, f"small Doppler error should cost little, lost {med:.3f}"


def _random_design(realization, num_streams, total_power, rng):
    """Aligned design around random (not zero-forcing) spatial precoders."""
    paths = realization.path_set
    shape = (paths.num_paths, realization.num_tx, num_streams)
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    precoders = raw * np.sqrt(total_power) / np.linalg.norm(raw)
    combiner = np.zeros((realization.num_rx, num_streams), dtype=np.complex128)
    return DdamDesign(precoders, combiner, paths.delay_taps, paths.doppler_hz)


def _colliding(paths, cfg):
    """The paths at evenly spaced delays: several pairs share each delay difference."""
    step = cfg.max_delay_tap // max(paths.num_paths - 1, 1)
    return replace(paths, delay_taps=step * np.arange(paths.num_paths))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_paths=st.integers(1, 5),
    num_rx=st.integers(1, 3),
    num_tx=st.integers(2, 12),
    num_streams=st.integers(1, 3),
    late_block=st.booleans(),
    velocity=st.sampled_from([50.0, 500.0 / 3.6]),
    accuracy=st.sampled_from([1.0, 2.0 / 3.0, 1.0 / 3.0]),
    doppler_error=st.sampled_from([0.0, 0.05]),
    colliding=st.booleans(),
)
@example(
    seed=1,
    num_paths=3,
    num_rx=2,
    num_tx=8,
    num_streams=2,
    late_block=True,
    velocity=500.0 / 3.6,
    accuracy=1.0,
    doppler_error=0.0,
    colliding=True,
)
def test_lag_grouping_matches_pair_loop(
    seed,
    num_paths,
    num_rx,
    num_tx,
    num_streams,
    late_block,
    velocity,
    accuracy,
    doppler_error,
    colliding,
):
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_streams=min(num_streams, num_rx, num_tx),
        num_paths=num_paths,
        velocity_mps=velocity,
    )
    rng = np.random.default_rng(seed)
    paths = generate_paths(cfg, rng)
    if colliding:
        paths = _colliding(paths, cfg)
    realization = realize_channel(paths, cfg)
    timebase = coherence_partition(cfg)
    block = _block_samples(timebase)[-1 if late_block else 0]
    noise = cfg.noise_power_watts

    # imperfect CSI: branches aligned to perturbed delays and Dopplers
    wrong, _ = perturb_csi(paths, CsiError(accuracy, doppler_error), rng)
    design = _random_design(realize_channel(wrong, cfg), cfg.num_streams, 1.0, rng)
    # every evaluated block rated in one stacked call
    want = mismatched_alignment_rate_loop(
        realization, design, wrong.max_delay_tap, noise, timebase, _block_samples(timebase)
    )
    got = _trial_rate(
        paths, _pair_outputs(realization, design.precoders), [wrong], noise, timebase
    )[0, 0]
    assert got == pytest.approx(want, rel=1e-12, abs=0)

    # perfect CSI: BCD's default grouping, in path coordinates, rates the
    # stacked spatial precoder's coordinates blockdiag(Q)^H Fbar
    design = _random_design(realization, cfg.num_streams, 1.0, rng)
    grouped = group_delay_differences(realization, timebase, block)
    f_bar = (grouped.path_basis.conj().T @ design.precoders).reshape(-1, cfg.num_streams)
    outputs = grouped.blocks @ f_bar
    [got], _, _ = colored_noise_rate(outputs[None, 0], outputs[None, 1:], noise)
    want = mismatched_alignment_rate_loop(
        realization, design, paths.max_delay_tap, noise, timebase, [block]
    )
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_paths=st.integers(1, 5),
    num_rx=st.integers(1, 3),
    num_streams=st.integers(1, 3),
    sizes=st.lists(st.integers(2, 12), min_size=1, max_size=3),
    velocity=st.sampled_from([50.0, 500.0 / 3.6]),
    accuracy=st.sampled_from([1.0, 2.0 / 3.0, 1.0 / 3.0]),
    doppler_error=st.sampled_from([0.0, 0.05]),
    colliding=st.booleans(),
)
def test_stacked_mismatched_rate_matches_pair_loop_per_design_and_estimate(
    seed, num_paths, num_rx, num_streams, sizes, velocity, accuracy, doppler_error, colliding
):
    cfg = SystemConfig(
        num_rx_antennas=num_rx, num_streams=1, num_paths=num_paths, velocity_mps=velocity
    )
    rng = np.random.default_rng(seed)
    paths = generate_paths(cfg, rng)
    if colliding:
        paths = _colliding(paths, cfg)
    timebase = coherence_partition(cfg)
    noise = cfg.noise_power_watts
    wrong, _ = perturb_csi(paths, CsiError(accuracy, doppler_error), rng)
    # the true delays shifted past every true path: offset 0 is missing and
    # every other offset is shifted, so this estimate has one group more than
    # the true paths and the true paths' groups are padded
    bound = paths.delay_tap_bound
    late = replace(wrong, delay_taps=paths.delay_taps + bound + 1, delay_tap_bound=2 * bound + 1)
    estimates = [paths, wrong, late]
    counts = [
        lag_pairs_loop(
            paths.delay_taps, paths.doppler_hz, e.delay_taps, e.doppler_hz, timebase, [0]
        )[0]
        for e in estimates
    ]
    assert len(counts[2]) == len(counts[0]) + 1

    designs = []
    for mt in sizes:
        realization = realize_channel(paths, replace(cfg, num_tx_antennas=mt))
        designs.append((realization, _random_design(realization, num_streams, 1.0, rng).precoders))
    pair_outputs = np.concatenate([_pair_outputs(*design) for design in designs])
    got = _trial_rate(paths, pair_outputs, estimates, noise, timebase)
    assert got.shape == (len(sizes), len(estimates))

    for t, (realization, spatial) in enumerate(designs):
        for e, est in enumerate(estimates):
            combiner = np.zeros((num_rx, num_streams), dtype=np.complex128)
            design = DdamDesign(spatial, combiner, est.delay_taps, est.doppler_hz)
            want = mismatched_alignment_rate_loop(
                realization, design, est.max_delay_tap, noise, timebase, _block_samples(timebase)
            )
            assert got[t, e] == pytest.approx(want, rel=1e-12, abs=0), (t, e)
    # padding invariance: an estimate rated alone gets the rate it gets in the
    # stack, up to the order in which BLAS sums the zero-padded products
    for e, est in enumerate(estimates):
        alone = _trial_rate(paths, pair_outputs, [est], noise, timebase)
        assert alone[:, 0] == pytest.approx(got[:, e], rel=1e-13, abs=0), e


@pytest.mark.parametrize("seed", range(6))
def test_chunk_lag_models_match_per_estimate_dicts_and_pair_loop(seed):
    # a chunk of trials at spread and at evenly spaced (colliding) delays,
    # each with a true, two perturbed and one late estimate, so its trials'
    # lag models fill different slot counts
    cfg = SystemConfig(num_tx_antennas=8, num_streams=1, velocity_mps=500.0 / 3.6)
    rng = np.random.default_rng([11, seed])
    timebase = coherence_partition(cfg)
    blocks = _block_samples(timebase)
    noise = cfg.noise_power_watts
    paths, estimates = [], []
    for colliding in (True, False, True, False):
        trial = generate_paths(cfg, rng)
        if colliding:
            trial = _colliding(trial, cfg)
        wrong = [perturb_csi(trial, CsiError(a, c), rng)[0] for a, c in ((2 / 3, 0.05), (1 / 3, 0))]
        bound = trial.delay_tap_bound
        late = replace(trial, delay_taps=trial.delay_taps + bound + 1, delay_tap_bound=2 * bound + 1)
        paths.append(trial)
        estimates.append([trial, *wrong, late])
    branches = (
        np.array([[est.delay_taps for est in trial] for trial in estimates]),
        np.array([[est.doppler_hz for est in trial] for trial in estimates]),
    )
    pair_slot, phases = _lag_models(
        np.array([p.delay_taps for p in paths])[:, None],
        np.array([p.doppler_hz for p in paths])[:, None],
        *branches,
        timebase,
        blocks,
    )
    counts = []
    for s, (trial, trial_estimates) in enumerate(zip(paths, estimates)):
        for e, est in enumerate(trial_estimates):
            want = lag_pairs_loop(
                trial.delay_taps, trial.doppler_hz, est.delay_taps, est.doppler_hz, timebase, blocks
            )
            assert np.array_equal(pair_slot[s, e], want[1])
            assert np.array_equal(phases[s, e], want[2])
            # the row alone, with no leading axes, gets its result in the chunk
            slots, row_phases = _lag_models(
                trial.delay_taps, trial.doppler_hz, est.delay_taps, est.doppler_hz, timebase, blocks
            )
            assert np.array_equal(slots, pair_slot[s, e])
            assert np.array_equal(row_phases, phases[s, e])
        counts.append(int(pair_slot[s].max()) + 1)
    assert len(set(counts)) > 1, counts

    # every (trial, estimate) rate of the chunk against the pair loop
    realizations = [realize_channel(trial, cfg) for trial in paths]
    designs = [_random_design(r, 1, 1.0, rng) for r in realizations]
    pair_outputs = np.array([_pair_outputs(r, d.precoders) for r, d in zip(realizations, designs)])
    rates = mismatched_alignment_rate(paths, pair_outputs, branches, noise, timebase)
    for s, (realization, design) in enumerate(zip(realizations, designs)):
        for e, est in enumerate(estimates[s]):
            aligned = DdamDesign(design.precoders, design.combiner, est.delay_taps, est.doppler_hz)
            want = mismatched_alignment_rate_loop(
                realization, aligned, est.max_delay_tap, noise, timebase, blocks
            )
            assert rates[s, 0, e] == pytest.approx(want, rel=1e-12, abs=0), (s, e)


@pytest.mark.parametrize("defect", ["mismatched branches", "no estimate", "unstacked outputs"])
def test_mismatched_rate_rejects_bad_inputs(defect):
    cfg = SystemConfig(num_tx_antennas=8, num_paths=3)
    rng = np.random.default_rng(5)
    paths = generate_paths(cfg, rng)
    realization = realize_channel(paths, cfg)
    timebase = coherence_partition(cfg)
    design = _random_design(realization, cfg.num_streams, 1.0, rng)
    pair_outputs = _pair_outputs(realization, design.precoders)
    estimates = [paths]
    if defect == "mismatched branches":
        # one branch short of the pair outputs' L'
        estimates = [generate_paths(replace(cfg, num_paths=2), rng)]
    elif defect == "no estimate":
        estimates = []
    else:
        pair_outputs = pair_outputs[0]
    with pytest.raises(ContractViolationError):
        _trial_rate(
            paths, pair_outputs, estimates, cfg.noise_power_watts, timebase
        )


def test_fig9_reuses_the_true_realization_for_an_unmoved_estimate(monkeypatch):
    # per M_t: the true channels of the chunk only, in one call; every
    # estimate has its path matrices and is rated against the true design's
    # pair outputs instead of realizing its own channel
    calls = []

    def counted(paths, config):
        calls.append(paths)
        return realize_channel(paths, config)

    monkeypatch.setattr(experiments, "realize_channel", counted)
    run = run_experiment("fig9-imperfect-csi", seed=4, num_trials=2)
    assert run.failures == []
    assert [len(paths) for paths in calls] == [2] * 3


def test_fig8_trial_with_a_corrupt_frame_fails(monkeypatch):
    # a corrupt frame fails its trial instead of scoring a CCDF of 0
    def corrupt(design, symbols, timebase):
        return np.full((symbols.shape[0], design.precoders.shape[1]), np.nan)

    monkeypatch.setattr(experiments, "build_ddam_tx", corrupt)
    run = run_experiment("fig8-papr", seed=0, num_trials=2)
    assert [trial for trial, _ in run.failures] == [0, 1]
    assert all("NumericalError" in message for _, message in run.failures)
    monkeypatch.undo()

    # One corrupt frame in a chunk fails its own trial alone: the chunk's
    # domain error re-runs it trial by trial. The frame stays corrupt on the
    # re-run because it is keyed by its design's Dopplers, not by call count.
    # Calls go trial by trial, 3-path frame first: call 2 is trial 0's 5-path
    # frame, call 4 trial 1's 3-path frame.
    config = _resolve_config("fig8-papr", None)
    clean, failures = _run_chunk("fig8-papr", config, 0, range(3))
    assert failures == [] and sorted(clean) == [0, 1, 2]
    build = experiments.build_ddam_tx
    for corrupt_call, failed_trial in ((2, 0), (4, 1)):
        calls, bad = [], set()

        def corrupt_one(design, symbols, timebase):
            key = design.doppler_hz.tobytes()
            calls.append(key)
            if len(calls) == corrupt_call:
                bad.add(key)
            frame = build(design, symbols, timebase)
            if key in bad:
                frame[:] = np.nan
            return frame

        monkeypatch.setattr(experiments, "build_ddam_tx", corrupt_one)
        results, failures = _run_chunk("fig8-papr", config, 0, range(3))
        assert [trial for trial, _ in failures] == [failed_trial]
        assert "NumericalError" in failures[0][1]
        assert results == {t: clean[t] for t in range(3) if t != failed_trial}


def test_fig9_rates_a_chunk_in_one_call(monkeypatch):
    # every (trial, M_t, CSI model, block) of a chunk in one stacked rate,
    # looked up through the module global
    shapes = []

    def counted(paths, pair_outputs, estimates, noise_var, timebase):
        rates = mismatched_alignment_rate(paths, pair_outputs, estimates, noise_var, timebase)
        shapes.append(rates.shape)
        return rates

    monkeypatch.setattr(experiments, "mismatched_alignment_rate", counted)
    run = run_experiment("fig9-imperfect-csi", seed=4, num_trials=2)
    assert run.failures == []
    assert shapes == [(2, 3, 4)]


def test_mismatched_rate_rates_trials_of_different_slot_counts_in_one_call(monkeypatch):
    # trial 0 aligns to its true paths; trial 1's estimate is its true delays
    # shifted past every true path, which adds one group, so the two trials'
    # lag models fill different slot counts
    cfg = SystemConfig(num_tx_antennas=8, num_streams=1)
    rng = np.random.default_rng(3)
    timebase = coherence_partition(cfg)
    noise = cfg.noise_power_watts
    paths = [generate_paths(cfg, rng) for _ in range(2)]
    bound = paths[1].delay_tap_bound
    late = replace(
        paths[1], delay_taps=paths[1].delay_taps + bound + 1, delay_tap_bound=2 * bound + 1
    )
    estimates = [paths[0], late]
    counts = [
        lag_pairs_loop(p.delay_taps, p.doppler_hz, e.delay_taps, e.doppler_hz, timebase, [0])[0]
        for p, e in zip(paths, estimates)
    ]
    assert len(counts[1]) != len(counts[0]), counts
    realizations = [realize_channel(p, cfg) for p in paths]
    designs = [_random_design(r, 1, 1.0, rng) for r in realizations]
    pair_outputs = np.array([_pair_outputs(r, d.precoders) for r, d in zip(realizations, designs)])
    branches = (
        np.array([[e.delay_taps] for e in estimates]),
        np.array([[e.doppler_hz] for e in estimates]),
    )
    calls = []

    def counted(desired, interferers, noise_var):
        calls.append(interferers.shape)
        return colored_noise_rate(desired, interferers, noise_var)

    monkeypatch.setattr(experiments, "colored_noise_rate", counted)
    rates = mismatched_alignment_rate(paths, pair_outputs, branches, noise, timebase)
    assert len(calls) == 1, calls
    # each trial rated alone, padded as in the stack, gets its stacked rates exactly
    for s, (trial, est) in enumerate(zip(paths, estimates)):
        alone = mismatched_alignment_rate(
            [trial], pair_outputs[s : s + 1], (branches[0][s : s + 1], branches[1][s : s + 1]),
            noise, timebase,
        )
        assert np.array_equal(alone[0], rates[s]), s
        aligned = replace(designs[s], delay_taps=est.delay_taps, doppler_hz=est.doppler_hz)
        want = mismatched_alignment_rate_loop(
            realizations[s], aligned, est.max_delay_tap, noise, timebase, _block_samples(timebase)
        )
        assert rates[s, 0, 0] == pytest.approx(want, rel=1e-12, abs=0), s


def test_fig9_builds_one_spatial_design_per_array_size(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return zf_spatial_design(*args)

    monkeypatch.setattr(zf, "zf_spatial_design", counted)
    run = run_experiment("fig9-imperfect-csi", seed=4, num_trials=2)
    assert run.failures == []
    # one stacked design of both trials per array size
    assert len(calls) == 3


@pytest.mark.parametrize("name,designs_per_chunk", [("fig4-se-vs-mt", 3), ("fig6-ber", 1)])
def test_one_zf_design_per_realization(monkeypatch, name, designs_per_chunk):
    # a chunk designs each array size's realizations in one stacked call,
    # whatever its trial count: fig4 rates ZF and starts BCD from them and
    # fig6's single-stream design serves every power. Counted wherever a
    # module of the package binds the design.
    calls = []

    def counted(*args):
        calls.append(args)
        return zf_spatial_design(*args)

    for module in (zf, bcd, experiments):
        bound = [name for name, value in vars(module).items() if value is zf_spatial_design]
        for attribute in bound:
            monkeypatch.setattr(module, attribute, counted)
    for num_trials in (1, 3):
        calls.clear()
        run = run_experiment(name, seed=4, num_trials=num_trials)
        assert run.failures == []
        assert len(calls) == designs_per_chunk, num_trials
        assert all(len(args[0]) == num_trials for args in calls), num_trials


@pytest.mark.parametrize(
    "name,per_chunk",
    [
        (
            "fig3-convergence",
            dict(realize_channel=1, zf_design=1, ofdm_rate=0, bcd_solve_stack=1),
        ),
        ("fig4-se-vs-mt", dict(realize_channel=3, zf_design=3, ofdm_rate=3, bcd_solve_stack=1)),
        (
            "fig5-se-ddam-ofdm-otfs",
            dict(realize_channel=3, zf_design=3, ofdm_rate=3, bcd_solve_stack=0),
        ),
        ("fig6-ber", dict(realize_channel=1, zf_design=1, ofdm_rate=2, bcd_solve_stack=0)),
    ],
    ids=["fig3", "fig4", "fig5", "fig6"],
)
def test_chunk_evaluators_call_each_stacked_stage_once_per_array_size(
    monkeypatch, name, per_chunk
):
    # the stage counts of one chunk do not grow with its trial count: fig3
    # and fig4 solve all their BCD problems in one stack and no experiment
    # calls bcd_solve; fig6 rates its plain and its CFO-compensated
    # channels in one OFDM stack each, and only fig8's frames design OFDM
    stages = (*per_chunk, "bcd_solve", "ofdm_design")
    calls = dict.fromkeys(stages, 0)

    def counting(stage, fn):
        def counted(*args, **kwargs):
            calls[stage] += 1
            return fn(*args, **kwargs)

        return counted

    for stage in stages:
        monkeypatch.setattr(experiments, stage, counting(stage, getattr(experiments, stage)))
    for num_trials in (1, 3):
        calls.update(dict.fromkeys(stages, 0))
        run = run_experiment(name, seed=4, num_trials=num_trials)
        assert run.failures == []
        assert calls == dict(per_chunk, bcd_solve=0, ofdm_design=0), num_trials


def _assert_only_svd_is_the_rank_one_split(monkeypatch, name, stage):
    """Run two trials of `name`; stage's only np.linalg.svd calls split the path matrices."""
    stage_svds = []
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        frame, callers = sys._getframe(1), []
        while frame is not None:
            callers.append(frame.f_code.co_name)
            frame = frame.f_back
        if stage in callers:
            stage_svds.append((callers[:3], np.shape(a)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    run = run_experiment(name, seed=4, num_trials=2)
    assert run.failures == []
    assert stage_svds
    num_paths, num_rx = run.config.num_paths, run.config.num_rx_antennas
    for callers, shape in stage_svds:
        assert callers == ["svd_reduced", "_rank_one_components", "_ofdm_components"], callers
        assert shape[:2] == (2 * num_paths, num_rx), shape


@pytest.mark.parametrize("name", ["fig4-se-vs-mt", "fig5-se-ddam-ofdm-otfs", "fig6-ber"])
def test_ofdm_rates_take_no_svd_beyond_the_rank_one_split(monkeypatch, name):
    # the OFDM rate eigendecomposes M_r x M_r Grams; its one SVD is the
    # stacked split of the path matrices into rank-one components
    _assert_only_svd_is_the_rank_one_split(monkeypatch, name, "ofdm_rate")


def test_fig8_design_takes_no_svd_beyond_the_rank_one_split(monkeypatch):
    # fig8's subcarrier matrices are 2 x W (M_r = 2, W = 5): svd_two_rows
    # factors them, so no np.linalg.svd runs on the (S, K, 2, W) stack
    _assert_only_svd_is_the_rank_one_split(monkeypatch, "fig8-papr", "ofdm_design")


@pytest.mark.parametrize("name", ["fig4-se-vs-mt", "fig5-se-ddam-ofdm-otfs"])
def test_one_antenna_width_factorization_per_array_size(monkeypatch, name):
    # realize_channel's thin QR of the path matrices is a trial's only
    # factorization with an M_t axis per array size: ZF, BCD's QRs of
    # (L n) x (K M_r) path-coordinate adjoints and the OTFS beam step's
    # eigendecompositions work in the n = min(M_t, L M_r) path coordinates,
    # and the OFDM rate in C x C and M_r x M_r Grams.
    qrs, eighs = [], []
    qr, eigh = np.linalg.qr, np.linalg.eigh

    def counted_qr(a, *args, **kwargs):
        qrs.append((sys._getframe(1).f_code.co_name, np.shape(a)))
        return qr(a, *args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        eighs.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    run = run_experiment(name, seed=4, num_trials=1)
    assert run.failures == []
    num_paths, num_rx = run.config.num_paths, run.config.num_rx_antennas
    assert eighs and qrs
    for num_tx in TRANSMIT_ANTENNA_SWEEP:
        wide = [(caller, shape) for caller, shape in qrs if num_tx in shape[-2:]]
        assert wide == [("path_coordinates", (1, num_tx, num_paths * num_rx))], num_tx
        assert not [shape for shape in eighs if shape[-2:] == (num_tx, num_tx)], num_tx
    # every BCD QR factors the small adjoint, one per array size and block
    bcd_qrs = [shape for caller, shape in qrs if caller == "coordinates"]
    num_slots = num_paths * (num_paths - 1) + 1
    width = num_paths * num_paths * num_rx  # L n, as n = L M_r <= every swept M_t
    assert all(
        shape[0] == width and shape[1] % num_rx == 0 and shape[1] <= num_slots * num_rx
        for shape in bcd_qrs
    )
    assert len(bcd_qrs) == (9 if name == "fig4-se-vs-mt" else 0)
    assert {caller for caller, _ in qrs} <= {"path_coordinates", "coordinates"}


@pytest.mark.parametrize(
    "config, num_trials",
    [
        (SystemConfig(), 40),
        (SystemConfig(num_rx_antennas=4, num_paths=6), 40),
        (SystemConfig(num_rx_antennas=12, num_streams=6), 10),
    ],
    ids=["default", "rx4-paths6", "rx12-streams6"],
)
def test_fig4_bcd_never_rates_below_its_trials_zf(config, num_trials):
    # BCD ascends from the trial's ZF design, so it ends at or above the ZF
    # rate, also where the feasibility verdict is not FEASIBLE (M_r = 12 and
    # N_s = 6 at M_t = 16 is UNDETERMINED, as 16 < L N_s = 18) and where
    # BCD's basis U gets zero columns, L M_t < K' M_r with K' = L (L - 1) + 1
    # (both non-default configs at M_t = 16)
    chunk = experiments._se_vs_mt_chunk(
        config, [np.random.default_rng([0, trial]) for trial in range(num_trials)]
    )
    assert len(chunk) == num_trials
    for trial, records in enumerate(chunk):
        rates = {(scheme, mt): rate for scheme, _, mt, _, rate in records}
        for mt in experiments.TRANSMIT_ANTENNA_SWEEP:
            zf_rate = rates["ddam-zf", float(mt)]
            assert rates["ddam-bcd", float(mt)] >= zf_rate * (1 - 1e-9), (trial, mt)


def test_fig4_trial_matches_per_solve_loop():
    # the chunk's stacked realizations, ZF and OFDM designs and its one
    # stacked BCD solve rate every trial, array size and block as one call
    # per realization and one bcd_solve per block would
    cfg = SystemConfig()
    chunk = experiments._se_vs_mt_chunk(cfg, [np.random.default_rng(seed) for seed in range(50)])
    for seed, got in enumerate(chunk):
        want = se_vs_mt_trial_loop(cfg, np.random.default_rng(seed))
        assert [r[:4] for r in got] == [r[:4] for r in want]
        for record, expected in zip(got, want):
            assert record[4] == pytest.approx(expected[4], rel=1e-12, abs=0), (seed, record[:3])


@pytest.mark.parametrize("seed", [0, 3, 17, 2024])
def test_imperfect_csi_trial_matches_per_estimate_design_loop(seed):
    cfg = SystemConfig()
    [got] = experiments._imperfect_csi_chunk(cfg, [np.random.default_rng(seed)])
    want = imperfect_csi_trial_loop(cfg, np.random.default_rng(seed))
    assert [r[:4] for r in got] == [r[:4] for r in want]
    # the oracle sums pair by pair, so even perfect CSI matches only to rounding
    for record, expected in zip(got, want):
        rel = 1e-12 if record[0] == "perfect" else 1e-9
        assert record[4] == pytest.approx(expected[4], rel=rel, abs=0), record[:3]


def test_fig9_perfect_csi_rows_equal_fig4_zero_forcing_rows():
    # both experiments draw the same paths from each trial's generator
    fig4 = run_experiment("fig4-se-vs-mt", seed=2, num_trials=3)
    fig9 = run_experiment("fig9-imperfect-csi", seed=2, num_trials=3)
    zf_rows = {r.param_value: r for r in fig4.rows if r.scheme == "ddam-zf"}
    perfect = {r.param_value: r for r in fig9.rows if r.scheme == "perfect"}
    assert set(perfect) == set(zf_rows) and perfect
    for mt, row in perfect.items():
        want = zf_rows[mt]
        assert row.trials == want.trials == 3
        for stat in ("mean", "median", "p10", "p90"):
            assert getattr(row, stat) == pytest.approx(getattr(want, stat), rel=1e-9)


@pytest.mark.parametrize("num_streams", [1, 2])
def test_ofdm_papr_frame_matches_per_subcarrier_loop(num_streams):
    # the OFDM frames of a 2-trial chunk, each against the loop run on its
    # trial's generator after the aligned frames' draws. fig8 loads one
    # stream per subcarrier; two streams exercise the padding. M_t = 5 <= W
    # keeps the identity antenna basis, the others compress
    seeds = (11, 12)
    for num_tx in (5, 16, 128, 1024):
        cfg = SystemConfig(num_tx_antennas=num_tx, num_streams=num_streams)
        frames = _papr_frames(cfg, [np.random.default_rng(seed) for seed in seeds])
        got = [frame for _, scheme, frame in frames if scheme == "ofdm"]
        assert len(got) == len(seeds)
        for frame, seed in zip(got, seeds):
            rng = np.random.default_rng(seed)
            for num_paths in (3, 5):
                ddam_papr_frame_loop(replace(cfg, num_paths=num_paths), rng, OFDM_SUBCARRIERS)
            want = ofdm_papr_frame_loop(cfg, rng)
            assert np.max(np.abs(frame - want)) <= 1e-12 * np.max(np.abs(want)), num_tx


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    num_trials=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
    num_streams=st.sampled_from([1, 2]),
    num_tx=st.sampled_from([5, 16, 128]),
)
def test_fig8_chunk_members_equal_one_trial_chunks_and_the_loop(
    num_trials, seed, num_streams, num_tx
):
    # stacked realizations and designs leave every trial's records as its
    # one-trial chunk and the per-trial loop give them; M_t = 5 <= W keeps
    # the OFDM identity antenna basis
    cfg = replace(
        _resolve_config("fig8-papr", None), num_tx_antennas=num_tx, num_streams=num_streams
    )
    chunk = _papr_chunk(cfg, [np.random.default_rng([seed, t]) for t in range(num_trials)])
    assert len(chunk) == num_trials
    for trial, records in enumerate(chunk):
        [alone] = _papr_chunk(cfg, [np.random.default_rng([seed, trial])])
        assert records == alone, trial
        assert records == papr_trial_loop(cfg, np.random.default_rng([seed, trial])), trial


@pytest.mark.parametrize(
    "name", ["fig3-convergence", "fig4-se-vs-mt", "fig5-se-ddam-ofdm-otfs", "fig6-ber"]
)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(num_trials=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_chunk_members_equal_one_trial_chunks(name, num_trials, seed):
    # stacked realizations, designs and solves leave every trial's records
    # as its one-trial chunk gives them; fig3's also equal its per-trial
    # bcd_solve loop exactly, and fig4's match the per-realization,
    # per-solve loop
    cfg = _resolve_config(name, None)
    evaluator = EXPERIMENTS[name].evaluator
    chunk = evaluator(cfg, [np.random.default_rng([seed, t]) for t in range(num_trials)])
    assert len(chunk) == num_trials
    for trial, records in enumerate(chunk):
        [alone] = evaluator(cfg, [np.random.default_rng([seed, trial])])
        assert records == alone, trial
        if name == "fig3-convergence":
            assert records == convergence_trial_loop(cfg, np.random.default_rng([seed, trial]))
        if name != "fig4-se-vs-mt":
            continue
        want = se_vs_mt_trial_loop(cfg, np.random.default_rng([seed, trial]))
        assert [r[:4] for r in records] == [r[:4] for r in want]
        for record, expected in zip(records, want):
            assert record[4] == pytest.approx(expected[4], rel=1e-12, abs=0), record[:3]
