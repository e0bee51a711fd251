"""Seeded Monte-Carlo experiments and their tabular output.

Every experiment is a named recipe: a set of SystemConfig overrides, a
parameter sweep, and a per-trial evaluator mapping one random channel draw
to metric records. Trials are seeded independently from (seed, trial), so
runs are reproducible and identical no matter how many workers execute
them.

Spectral-efficiency conventions used throughout:

* aligned (single-carrier) schemes are charged the guard overhead of two
  delay-bound blocks per path-invariant window;
* OFDM and OTFS rates already carry their cyclic-prefix factors;
* rates that vary across Doppler coherence blocks (the residual-ISI
  optimizer, mismatched-CSI alignment) are averaged over three
  representative blocks of the path-invariant window: the first, the
  middle, and the last.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bcd import bcd_solve, colored_noise_rate, group_delay_differences
from .benchmarks import (
    cfo_compensate,
    make_otfs_config,
    ofdm_design_and_rate,
    otfs_beam_opt,
    otfs_effective_gains,
    otfs_rate_from_taps,
    strongest_path_design,
)
from .channel import (
    ChannelRealization,
    Timebase,
    coherence_partition,
    generate_paths,
    realize_channel,
)
from .config import SystemConfig, config_from_dict
from .errors import ContractViolationError, FeasibilityError, NumericalError
from .metrics import (
    CsiError,
    exceedance_fractions,
    guard_overhead,
    ofdm_ber,
    papr_db,
    perturb_csi,
    qam_awgn_ber,
    qam_symbols,
)
from .zf import (
    DdamDesign,
    FeasibilityVerdict,
    build_ddam_tx,
    zf_design,
    zf_feasibility,
)

CSV_HEADER = "scheme,param_name,param_value,metric,seed,trials,mean,median,p10,p90"

# benchmark numerology shared by the canned experiments
OFDM_SUBCARRIERS = 512
OTFS_DELAY_BINS = 512
OTFS_DOPPLER_BINS = 8

TRANSMIT_ANTENNA_SWEEP = (16, 32, 64)
BER_POWER_SWEEP_DBM = (10.0, 20.0, 30.0, 40.0)
PAPR_THRESHOLDS_DB = tuple(np.arange(0.0, 13.0 + 1e-9, 0.25))
PAPR_MODULATION_ORDER = 128
BER_MODULATION_ORDER = 128
CONVERGENCE_ITERATIONS = 20

VERDICT_CODES = {
    FeasibilityVerdict.INFEASIBLE: 0.0,
    FeasibilityVerdict.FEASIBLE: 1.0,
    FeasibilityVerdict.UNDETERMINED: 2.0,
}
FEASIBILITY_ANTENNA_RANGE = range(1, 33)
FEASIBILITY_PATH_RANGE = range(1, 9)
FEASIBILITY_RX_STREAM_PAIRS = ((1, 1), (2, 2), (4, 4), (4, 2))

# domain errors that fail one trial; any other exception is a bug and propagates
TRIAL_FAILURES = (ContractViolationError, NumericalError, FeasibilityError)


@dataclass(frozen=True)
class ResultRow:
    """One aggregated cell of an experiment table."""

    scheme: str
    param_name: str
    param_value: float
    metric: str
    seed: int
    trials: int
    mean: float
    median: float
    p10: float
    p90: float


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: overrides plus the per-trial evaluator."""

    name: str
    description: str
    config_overrides: dict
    evaluator: object            # callable (SystemConfig, Generator) -> records
    default_trials: int


@dataclass
class ExperimentRun:
    """Aggregated result of one experiment invocation."""

    experiment: str
    seed: int
    num_trials: int
    config: SystemConfig
    rows: list
    failures: list               # (trial index, error message) pairs

    @property
    def num_failures(self) -> int:
        return len(self.failures)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    (
                        r.scheme,
                        r.param_name,
                        _format_param(r.param_value),
                        r.metric,
                        str(r.seed),
                        str(r.trials),
                        repr(r.mean),
                        repr(r.median),
                        repr(r.p10),
                        repr(r.p90),
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "config": {
                "experiment": self.experiment,
                "seed": self.seed,
                "trials": self.num_trials,
                "failures": [list(f) for f in self.failures],
                "system": self.config.to_dict(),
            },
            "rows": [asdict(r) for r in self.rows],
        }
        return json.dumps(payload, indent=2)

    def save(self, path: str) -> None:
        text = self.to_json() if str(path).endswith(".json") else self.to_csv()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _format_param(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


# --- shared per-scheme evaluations -------------------------------------------


def _alignment_overhead(config: SystemConfig, timebase: Timebase) -> float:
    return guard_overhead(
        "ddam",
        max_delay_tap=config.max_delay_tap,
        frame_samples=timebase.samples_per_invariant,
    )


def _block_samples(timebase: Timebase) -> list[int]:
    n_blocks = max(timebase.samples_per_invariant // timebase.samples_per_coherence, 1)
    return sorted({0, n_blocks // 2, n_blocks - 1})


def _zf_se(
    realization: ChannelRealization, config: SystemConfig, overhead: float
) -> float:
    _, result = zf_design(
        realization,
        config.tx_power_watts,
        config.noise_power_watts,
        config.num_streams,
    )
    return result.rate_bps_hz * (1.0 - overhead)


def _bcd_se(
    realization: ChannelRealization,
    config: SystemConfig,
    timebase: Timebase,
    overhead: float,
    rng: np.random.Generator,
) -> float:
    rates = []
    for block in _block_samples(timebase):
        grouped = group_delay_differences(realization, timebase, block)
        state = bcd_solve(
            grouped,
            config.tx_power_watts,
            config.noise_power_watts,
            config.num_streams,
            tol=1e-4,
            max_iters=60,
            rng=rng,
        )
        rates.append(state.rate_trace[-1])
    return float(np.mean(rates)) * (1.0 - overhead)


def _ofdm_se(realization: ChannelRealization, config: SystemConfig) -> float:
    result = ofdm_design_and_rate(
        realization,
        OFDM_SUBCARRIERS,
        config.max_delay_tap,
        config.tx_power_watts,
        config.noise_power_watts,
        num_streams=config.num_streams,
    )
    return result.rate_bps_hz


def _otfs_se(realization: ChannelRealization, config: SystemConfig) -> float:
    otfs = make_otfs_config(
        realization, OTFS_DELAY_BINS, OTFS_DOPPLER_BINS, config.max_delay_tap
    )
    beam_tx, beam_rx, _ = otfs_beam_opt(realization, otfs)
    otfs = replace(otfs, tx_beam=beam_tx, rx_beam=beam_rx)
    gains = otfs_effective_gains(realization, otfs)
    return otfs_rate_from_taps(
        gains,
        otfs.delay_taps,
        otfs.doppler_taps,
        OTFS_DELAY_BINS,
        OTFS_DOPPLER_BINS,
        config.tx_power_watts / config.noise_power_watts,
        config.max_delay_tap,
    )


def _strongest_se(
    realization: ChannelRealization, config: SystemConfig, overhead: float
) -> float:
    design = strongest_path_design(
        realization, config.tx_power_watts, config.noise_power_watts
    )
    return math.log2(1.0 + design.sinr_multipath) * (1.0 - overhead)


def mismatched_alignment_rate(
    realization: ChannelRealization,
    design: DdamDesign,
    aligned_lag: int,
    noise_var: float,
    timebase: Timebase,
    block_indices: list[int] | None = None,
) -> float:
    """Rate actually achieved when the alignment design used wrong CSI.

    Propagates every (true path, transmit branch) pair, groups the
    composite coefficients by arrival lag with their exact phases frozen
    at each evaluated block start, and treats all groups away from the
    intended lag as colored noise under an MMSE combiner. With a design
    built from the true parameters this reduces to the interference-free
    zero-forcing rate.
    """
    paths = realization.path_set
    ts = timebase.symbol_duration_s
    if block_indices is None:
        block_indices = _block_samples(timebase)
    num_streams = design.num_streams
    rates = []
    for block in block_indices:
        n0 = block * timebase.samples_per_coherence
        groups: dict[int, np.ndarray] = {}
        for l in range(paths.num_paths):
            m_l = int(paths.delay_taps[l])
            for lp in range(design.num_paths):
                lag = m_l + int(design.delay_comp[lp])
                drift = (paths.doppler_hz[l] - design.doppler_comp[lp]) * n0
                phase = np.exp(
                    2j * np.pi * (drift + design.doppler_comp[lp] * m_l) * ts
                )
                term = (realization.matrices[l] @ design.precoders[lp]) * phase
                if lag in groups:
                    groups[lag] += term
                else:
                    groups[lag] = term
        desired = groups.pop(
            aligned_lag,
            np.zeros((realization.num_rx, num_streams), dtype=np.complex128),
        )
        rates.append(colored_noise_rate(desired, list(groups.values()), noise_var)[0])
    return float(np.mean(rates))


# --- per-experiment trial evaluators -----------------------------------------


def _convergence_trial(config: SystemConfig, rng: np.random.Generator) -> list:
    realization = realize_channel(generate_paths(config, rng), config)
    timebase = coherence_partition(config)
    grouped = group_delay_differences(realization, timebase, 0)
    dim = grouped.stacked_channel.shape[1]
    raw = rng.standard_normal((dim, config.num_streams)) + 1j * rng.standard_normal(
        (dim, config.num_streams)
    )
    init = raw * math.sqrt(config.tx_power_watts) / np.linalg.norm(raw)
    state = bcd_solve(
        grouped,
        config.tx_power_watts,
        config.noise_power_watts,
        config.num_streams,
        tol=0.0,
        max_iters=CONVERGENCE_ITERATIONS,
        init_precoder=init,
    )
    trace = list(state.rate_trace)
    while len(trace) < CONVERGENCE_ITERATIONS:
        trace.append(trace[-1])
    _, zf_result = zf_design(
        realization, config.tx_power_watts, config.noise_power_watts, config.num_streams
    )
    records = []
    for i, rate in enumerate(trace[:CONVERGENCE_ITERATIONS]):
        records.append(("ddam-bcd", "iteration", float(i + 1), "rate_bps_hz", rate))
        records.append(
            ("ddam-zf", "iteration", float(i + 1), "rate_bps_hz", zf_result.rate_bps_hz)
        )
    return records


def _se_vs_mt_trial(config: SystemConfig, rng: np.random.Generator) -> list:
    paths = generate_paths(config, rng)
    timebase = coherence_partition(config)
    overhead = _alignment_overhead(config, timebase)
    records = []
    for mt in TRANSMIT_ANTENNA_SWEEP:
        cfg = replace(config, num_tx_antennas=mt)
        realization = realize_channel(paths, cfg)
        records.append(
            ("ddam-zf", "mt", float(mt), "se_bps_hz", _zf_se(realization, cfg, overhead))
        )
        records.append(
            (
                "ddam-bcd",
                "mt",
                float(mt),
                "se_bps_hz",
                _bcd_se(realization, cfg, timebase, overhead, rng),
            )
        )
        records.append(("ofdm", "mt", float(mt), "se_bps_hz", _ofdm_se(realization, cfg)))
        records.append(
            (
                "strongest-path",
                "mt",
                float(mt),
                "se_bps_hz",
                _strongest_se(realization, cfg, overhead),
            )
        )
    return records


def _se_high_mobility_trial(config: SystemConfig, rng: np.random.Generator) -> list:
    paths = generate_paths(config, rng)
    timebase = coherence_partition(config)
    overhead = _alignment_overhead(config, timebase)
    records = []
    for mt in TRANSMIT_ANTENNA_SWEEP:
        cfg = replace(config, num_tx_antennas=mt)
        realization = realize_channel(paths, cfg)
        records.append(
            ("ddam-zf", "mt", float(mt), "se_bps_hz", _zf_se(realization, cfg, overhead))
        )
        records.append(("otfs", "mt", float(mt), "se_bps_hz", _otfs_se(realization, cfg)))
        records.append(("ofdm", "mt", float(mt), "se_bps_hz", _ofdm_se(realization, cfg)))
    return records


def _ber_trial(config: SystemConfig, rng: np.random.Generator) -> list:
    paths = generate_paths(config, rng)
    realization = realize_channel(paths, config)
    compensated = realize_channel(cfo_compensate(paths), config)
    noise = config.noise_power_watts
    records = []
    for power_dbm in BER_POWER_SWEEP_DBM:
        power = 10.0 ** ((power_dbm - 30.0) / 10.0)
        _, zf_result = zf_design(realization, power, noise, config.num_streams)
        if zf_result.n_active_streams:
            snr = float(zf_result.mode_powers[0] * zf_result.mode_gains[0] / noise)
        else:
            snr = 0.0
        records.append(
            (
                "ddam-zf",
                "power_dbm",
                power_dbm,
                "ber",
                float(qam_awgn_ber(snr, BER_MODULATION_ORDER)),
            )
        )
        for scheme, chan in (("ofdm", realization), ("ofdm-cfo", compensated)):
            result = ofdm_design_and_rate(
                chan, OFDM_SUBCARRIERS, config.max_delay_tap, power, noise, num_streams=1
            )
            records.append(
                (
                    scheme,
                    "power_dbm",
                    power_dbm,
                    "ber",
                    ofdm_ber(
                        result.sinr[:, 0],
                        OFDM_SUBCARRIERS,
                        config.max_delay_tap,
                        BER_MODULATION_ORDER,
                    ),
                )
            )
    return records


def _ddam_papr_frame(
    config: SystemConfig, rng: np.random.Generator, num_samples: int
) -> np.ndarray:
    paths = generate_paths(config, rng)
    realization = realize_channel(paths, config)
    timebase = coherence_partition(config)
    design, _ = zf_design(
        realization, config.tx_power_watts, config.noise_power_watts, config.num_streams
    )
    # lead-in long enough to pass the delay pre-compensation transient
    lead = 2 * config.max_delay_tap
    symbols = qam_symbols(
        PAPR_MODULATION_ORDER, (num_samples + lead, config.num_streams), rng
    )
    frame = build_ddam_tx(design, symbols, timebase)
    return frame[lead:]


def _ofdm_papr_frame(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    paths = generate_paths(config, rng)
    realization = realize_channel(paths, config)
    result = ofdm_design_and_rate(
        realization,
        OFDM_SUBCARRIERS,
        config.max_delay_tap,
        config.tx_power_watts,
        config.noise_power_watts,
        num_streams=config.num_streams,
    )
    ranks = result.ranks
    # one draw for every loaded stream, scattered in subcarrier order
    symbols = np.zeros(result.sinr.shape, dtype=np.complex128)
    symbols[np.arange(symbols.shape[1]) < ranks[:, None]] = qam_symbols(
        PAPR_MODULATION_ORDER, int(ranks.sum()), rng
    )
    loaded = np.einsum("ktr,kr->kt", result.precoders, symbols)
    # unitary-style synthesis: (1/sqrt(K)) sum_k X[k] e^{j 2 pi k n / K}
    return np.fft.ifft(loaded, axis=0) * math.sqrt(OFDM_SUBCARRIERS)


def _papr_trial(config: SystemConfig, rng: np.random.Generator) -> list:
    frames = {
        "ddam-l3": _ddam_papr_frame(replace(config, num_paths=3), rng, OFDM_SUBCARRIERS),
        "ddam-l5": _ddam_papr_frame(replace(config, num_paths=5), rng, OFDM_SUBCARRIERS),
        "ofdm": _ofdm_papr_frame(config, rng),
    }
    records = []
    for scheme, frame in frames.items():
        values, _ = papr_db(frame)
        fracs = exceedance_fractions(values, PAPR_THRESHOLDS_DB)
        for threshold, frac in zip(PAPR_THRESHOLDS_DB, fracs):
            records.append((scheme, "threshold_db", float(threshold), "ccdf", float(frac)))
    return records


IMPERFECT_CSI_MODELS = (
    ("perfect", 1.0, 0.0),
    ("eta1.00-xi0.05", 1.0, 0.05),
    ("eta0.67-xi0.00", 2.0 / 3.0, 0.0),
    ("eta0.67-xi0.05", 2.0 / 3.0, 0.05),
)


def _imperfect_csi_trial(config: SystemConfig, rng: np.random.Generator) -> list:
    paths = generate_paths(config, rng)
    timebase = coherence_partition(config)
    overhead = _alignment_overhead(config, timebase)
    noise = config.noise_power_watts
    estimated = {}
    for scheme, accuracy, coeff in IMPERFECT_CSI_MODELS:
        err = CsiError(delay_accuracy=accuracy, doppler_error_coeff=coeff)
        estimated[scheme], _ = perturb_csi(paths, err, rng)
    records = []
    for mt in TRANSMIT_ANTENNA_SWEEP:
        cfg = replace(config, num_tx_antennas=mt)
        true_realization = realize_channel(paths, cfg)
        for scheme, _, _ in IMPERFECT_CSI_MODELS:
            est_paths = estimated[scheme]
            est_realization = realize_channel(est_paths, cfg)
            design, _ = zf_design(
                est_realization, cfg.tx_power_watts, noise, cfg.num_streams
            )
            rate = mismatched_alignment_rate(
                true_realization,
                design,
                est_paths.max_delay_tap,
                noise,
                timebase,
            )
            records.append(
                (scheme, "mt", float(mt), "se_bps_hz", rate * (1.0 - overhead))
            )
    return records


def _feasibility_trial(config: SystemConfig, rng: np.random.Generator) -> list:
    del config, rng  # the map is a pure function of the swept dimensions
    records = []
    for num_rx, num_streams in FEASIBILITY_RX_STREAM_PAIRS:
        scheme = f"mr{num_rx}-ns{num_streams}"
        for num_paths in FEASIBILITY_PATH_RANGE:
            metric = f"verdict_l{num_paths}"
            for num_tx in FEASIBILITY_ANTENNA_RANGE:
                if num_streams > min(num_tx, num_rx):
                    code = VERDICT_CODES[FeasibilityVerdict.INFEASIBLE]
                else:
                    verdict = zf_feasibility(num_tx, num_rx, num_streams, num_paths)
                    code = VERDICT_CODES[verdict.verdict]
                records.append((scheme, "mt", float(num_tx), metric, code))
    return records


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            name="fig3-convergence",
            description="Rate of the residual-ISI optimizer per iteration from a "
            "random start, with the zero-forcing rate as reference.",
            config_overrides={"num_tx_antennas": 64},
            evaluator=_convergence_trial,
            default_trials=20,
        ),
        ExperimentSpec(
            name="fig4-se-vs-mt",
            description="Spectral efficiency vs transmit antennas for both "
            "alignment designs, OFDM, and strongest-path beamforming.",
            config_overrides={},
            evaluator=_se_vs_mt_trial,
            default_trials=100,
        ),
        ExperimentSpec(
            name="fig5-se-ddam-ofdm-otfs",
            description="Spectral efficiency vs transmit antennas at 500 km/h "
            "for the zero-forcing alignment design, OTFS, and OFDM.",
            config_overrides={"velocity_mps": 500.0 / 3.6},
            evaluator=_se_high_mobility_trial,
            default_trials=100,
        ),
        ExperimentSpec(
            name="fig6-ber",
            description="128-QAM BER vs transmit power for the zero-forcing "
            "alignment design, plain OFDM, and OFDM with CFO compensation.",
            config_overrides={
                "num_tx_antennas": 256,
                "num_streams": 1,
                # Weaker link than the rate experiments so the error rates
                # stay resolvable across the swept power range.
                "path_gain_db": -120.0,
            },
            evaluator=_ber_trial,
            default_trials=100,
        ),
        ExperimentSpec(
            name="fig8-papr",
            description="PAPR CCDF of aligned single-carrier frames (3 and 5 "
            "paths) against OFDM, 128-QAM payloads.",
            config_overrides={
                "num_tx_antennas": 128,
                "num_streams": 1,
                "path_gain_db": -120.0,
            },
            evaluator=_papr_trial,
            default_trials=500,
        ),
        ExperimentSpec(
            name="fig9-imperfect-csi",
            description="Spectral efficiency vs transmit antennas when the "
            "alignment design uses wrong delays/Dopplers.",
            config_overrides={},
            evaluator=_imperfect_csi_trial,
            default_trials=100,
        ),
        ExperimentSpec(
            name="feasibility-map",
            description="Zero-forcing feasibility verdict (0 infeasible, "
            "1 feasible, 2 undetermined) over antennas and path counts.",
            config_overrides={},
            evaluator=_feasibility_trial,
            default_trials=1,
        ),
    )
}


def list_experiments() -> list[tuple[str, str]]:
    """(name, description) pairs in registry order."""
    return [(spec.name, spec.description) for spec in EXPERIMENTS.values()]


# --- runner -------------------------------------------------------------------


def _resolve_config(name: str, base: SystemConfig | None) -> SystemConfig:
    spec = EXPERIMENTS.get(name)
    if spec is None:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ContractViolationError(f"unknown experiment {name!r}; known: {known}")
    config = base if base is not None else SystemConfig()
    if spec.config_overrides:
        config = replace(config, **spec.config_overrides)
    return config


def _run_single_trial(name: str, config_dict: dict, seed: int, trial: int):
    """Worker entry point; must stay importable at module top level."""
    spec = EXPERIMENTS[name]
    config = config_from_dict(config_dict)
    rng = np.random.default_rng([seed, trial])
    records = spec.evaluator(config, rng)
    for scheme, param_name, param_value, metric, value in records:
        if not math.isfinite(value):
            key = (scheme, param_name, float(param_value), metric)
            raise NumericalError(f"non-finite metric value {value!r} for {key}")
    return records


def run_experiment(
    name: str,
    seed: int = 0,
    num_trials: int | None = None,
    config: SystemConfig | None = None,
    workers: int | None = None,
) -> ExperimentRun:
    """Run a registered experiment and aggregate its metric records.

    Each trial draws an independent channel from default_rng([seed, trial])
    and may fail with a domain error (ContractViolationError,
    NumericalError or FeasibilityError) without aborting the run; those
    failures are recorded on the result, and any other exception
    propagates. A non-finite metric value fails its trial with a
    NumericalError that names the (scheme, param, metric) key. Aggregation
    (mean/median/10th/90th percentiles) is keyed by (scheme, param, metric)
    and independent of completion order, so worker count never changes the
    output.
    """
    resolved = _resolve_config(name, config)
    spec = EXPERIMENTS[name]
    trials = spec.default_trials if num_trials is None else int(num_trials)
    if trials < 1:
        raise ContractViolationError("num_trials must be >= 1")
    if workers is not None and workers < 1:
        raise ContractViolationError("workers must be >= 1")
    config_dict = resolved.to_dict()

    results: dict[int, list] = {}
    failures: list[tuple[int, str]] = []
    if workers is not None and workers > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                trial: pool.submit(_run_single_trial, name, config_dict, seed, trial)
                for trial in range(trials)
            }
            for trial, future in futures.items():
                try:
                    results[trial] = future.result()
                except TRIAL_FAILURES as exc:
                    failures.append((trial, f"{type(exc).__name__}: {exc}"))
    else:
        for trial in range(trials):
            try:
                results[trial] = _run_single_trial(name, config_dict, seed, trial)
            except TRIAL_FAILURES as exc:
                failures.append((trial, f"{type(exc).__name__}: {exc}"))

    buckets: dict[tuple, list[float]] = {}
    for trial in sorted(results):
        for scheme, param_name, param_value, metric, value in results[trial]:
            key = (scheme, param_name, float(param_value), metric)
            buckets.setdefault(key, []).append(float(value))

    # one vectorized pass per distinct trial count
    by_count: dict[int, list[tuple]] = {}
    for key, bucket in buckets.items():
        by_count.setdefault(len(bucket), []).append(key)
    rows = []
    for count, keys in by_count.items():
        values = np.asarray([buckets[key] for key in keys], dtype=np.float64)
        means = values.mean(axis=1)
        medians = np.median(values, axis=1)
        p10s, p90s = np.quantile(values, [0.10, 0.90], axis=1)
        for key, mean, median, p10, p90 in zip(keys, means, medians, p10s, p90s):
            scheme, param_name, param_value, metric = key
            rows.append(
                ResultRow(
                    scheme=scheme,
                    param_name=param_name,
                    param_value=param_value,
                    metric=metric,
                    seed=seed,
                    trials=count,
                    mean=float(mean),
                    median=float(median),
                    p10=float(p10),
                    p90=float(p90),
                )
            )
    rows.sort(key=lambda r: (r.scheme, r.param_name, r.param_value, r.metric))
    return ExperimentRun(
        experiment=name,
        seed=seed,
        num_trials=trials,
        config=resolved,
        rows=rows,
        failures=sorted(failures),
    )
