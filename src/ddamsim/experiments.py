"""Seeded Monte-Carlo experiments and their tabular output.

Every experiment is a named recipe: a set of SystemConfig overrides, a
parameter sweep, and an evaluator mapping a chunk of consecutive trials,
one random channel draw each, to their metric records. Trials are seeded
independently from (seed, trial), so runs are reproducible and identical
no matter how the trials are chunked or how many workers execute them.

Spectral-efficiency conventions used throughout:

* aligned (single-carrier) schemes are charged the guard overhead of two
  delay-bound blocks per path-invariant window;
* OFDM and OTFS rates already carry their cyclic-prefix factors;
* rates that vary across Doppler coherence blocks (the residual-ISI
  optimizer, mismatched-CSI alignment) are averaged over three
  representative blocks of the path-invariant window: the first, the
  middle, and the last.

Every experiment evaluates its chunk on stacked stages: per array size
or path count, one call each realizes, zero-forcing designs and, where
OFDM is compared, OFDM designs the whole chunk; fig6 designs its plain
and its CFO-compensated channels in one OFDM call each. fig4 then solves
every (trial, array size, block) BCD problem in one stack and fig3 every
trial's in another; OTFS and the strongest-path beam stay per
realization. fig9 draws its CSI estimates as delay and Doppler arrays and
rates the chunk in one mismatched-CSI call; fig8 builds its frames and
reduces each to its PAPR values before building the next. The
feasibility map is made once per chunk.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .bcd import (
    _lag_models,
    bcd_solve,  # not called here; perfbench's spans rebind experiments.bcd_solve
    bcd_solve_stack,
    colored_noise_rate,
    group_delay_differences,
)
from .benchmarks import (
    OfdmDesign,
    cfo_compensate,
    make_otfs_config,
    ofdm_design,
    ofdm_design_and_rate,  # not called here; perfbench's spans rebind experiments.ofdm_design_and_rate
    ofdm_rate,
    otfs_beam_opt,
    otfs_effective_gains,
    otfs_rate_from_taps,
    strongest_path_design,
)
from .channel import (
    ChannelRealization,
    PathSet,
    Timebase,
    _checked_int,
    coherence_partition,
    generate_paths,
    realize_channel,
)
from .config import SystemConfig, config_from_dict
from .errors import ContractViolationError, FeasibilityError, NumericalError
from .metrics import (
    CsiError,
    draw_csi,
    exceedance_fractions,
    guard_overhead,
    ofdm_ber,
    papr_db,
    perturb_csi,  # not called here; perfbench's spans rebind experiments.perturb_csi
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
PAPR_ALIGNED_PATHS = (("ddam-l3", 3), ("ddam-l5", 5))
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
# Trials per evaluator call. It bounds what a chunk holds at once: its
# stacked channels and designs and, while OFDM is designed, the stacked
# desired matrices and their SVD. tracemalloc peaks of a 64-trial chunk at
# the default config: fig3 6.7 MiB (its stacked BCD solve), fig4 34.4,
# fig5 27.0, fig6 35.3 (the plain or the compensated channels at M_t = 256),
# fig8 21.5 (its QAM payloads, one frame at a time), fig9 6.3 (its
# estimates, lag models and weights).
TRIAL_CHUNK = 64


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
    """Registry entry: overrides plus the chunk evaluator.

    The evaluator takes the config and one generator per trial of a chunk
    of consecutive trials, and returns one record list per trial, in
    order. It consumes each trial's generator alone, as a run of that
    trial by itself would, so a trial's records do not depend on the chunk
    it runs in.
    """

    name: str
    description: str
    config_overrides: dict
    evaluator: object            # callable (SystemConfig, [Generator]) -> [records]
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


def _zf_start(design: DdamDesign, num_streams: int) -> np.ndarray:
    """The ZF design's F_l stacked to (L * M_t, n_active), zero columns up to num_streams."""
    num_paths, num_tx, active = design.precoders.shape
    start = np.zeros((num_paths * num_tx, num_streams), dtype=np.complex128)
    start[:, :active] = design.precoders.reshape(num_paths * num_tx, active)
    return start


def _bcd_se(
    realizations: list[ChannelRealization],
    starts: list[np.ndarray],
    config: SystemConfig,
    timebase: Timebase,
    overhead: float,
) -> list[float]:
    """BCD's SE of each realization from its start, its blocks' mean, from one stacked solve."""
    blocks = _block_samples(timebase)
    # Hbar, and with it the ZF start, is the same in every block
    states = bcd_solve_stack(
        [group_delay_differences(r, timebase, block) for r in realizations for block in blocks],
        config.tx_power_watts,
        config.noise_power_watts,
        [start for start in starts for _ in blocks],
        tol=1e-4,
        max_iters=60,
    )
    rates = [state.rate_trace[-1] for state in states]
    return [
        float(np.mean(rates[i : i + len(blocks)])) * (1.0 - overhead)
        for i in range(0, len(rates), len(blocks))
    ]


def _ofdm_se(realizations: list[ChannelRealization], config: SystemConfig) -> list[float]:
    """OFDM SE of each realization: one stacked design, each rated at its own power."""
    power, noise = config.tx_power_watts, config.noise_power_watts
    designs = ofdm_design(realizations, OFDM_SUBCARRIERS, power, config.num_streams)
    return [float(ofdm_rate(d, [power], noise, config.max_delay_tap)[1][0]) for d in designs]


def _otfs_se(realization: ChannelRealization, config: SystemConfig) -> float:
    otfs = make_otfs_config(realization, OTFS_DELAY_BINS, OTFS_DOPPLER_BINS)
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
    paths: list[PathSet],
    pair_outputs,
    estimates: tuple[np.ndarray, np.ndarray],
    noise_var: float,
    timebase: Timebase,
) -> np.ndarray:
    """(S, T, E) rates achieved when the alignment used estimated CSI.

    paths holds S trials' true path sets, each of L paths, and estimates
    is the (delays, dopplers) pair of (S, E, L') arrays of each trial's E
    estimated branch delays and Dopplers. pair_outputs are the
    (S, T, L', L, M_r, N_s) products H_l F_l' of each trial's true path
    matrices with T designs' spatial precoders. Each estimate aligns branch
    l' to its delay and Doppler, and the lag model (bcd._lag_models) groups
    the true paths against those branches by offset. In each block that
    _block_samples picks, the offset-0 group is rated with the others as
    colored noise under an MMSE combiner (the rate BCD maximizes); the
    blocks' rates are averaged. True paths give the ZF rate.

    The lag models of all (trial, estimate) rows come from one call; they
    do not depend on the design, nor the pair outputs on the estimate or
    block. Every row's groups are padded with zero weights to the L' L + 1
    slots that offset 0 and L' L pairs can fill at most, so one product
    and one colored_noise_rate call rate the whole (S, T, E, B) stack. The
    padding depends on L' and L alone, so a trial's rates do not depend on
    the trials rated with it.
    """
    outputs = np.asarray(pair_outputs, dtype=np.complex128)
    if outputs.ndim != 6 or outputs.shape[0] != len(paths):
        raise ContractViolationError(
            "pair outputs must have shape (S, T, L', L, M_r, N_s) for S trials with estimates"
        )
    num_trials, num_designs, num_branches, num_paths, num_rx, num_streams = outputs.shape
    if any(p.num_paths != num_paths for p in paths):
        raise ContractViolationError(f"true path sets must have {num_paths} paths")
    est_delays, est_dopplers = (np.asarray(part) for part in estimates)
    if (
        est_delays.ndim != 3
        or est_delays.shape[::2] != (num_trials, num_branches)
        or not est_delays.shape[1]
    ):
        raise ContractViolationError(
            f"every trial needs the same number of estimates of {num_branches} branches"
        )
    num_estimates = est_delays.shape[1]
    blocks = _block_samples(timebase)
    num_pairs = num_branches * num_paths
    pair_slot, phases = _lag_models(
        np.array([p.delay_taps for p in paths])[:, None],
        np.array([p.doppler_hz for p in paths])[:, None],
        est_delays,
        est_dopplers,
        timebase,
        blocks,
    )
    pair_slot = pair_slot.reshape(num_trials, num_estimates, 1, num_pairs)
    phases = phases.reshape(num_trials, num_estimates, len(blocks), num_pairs)
    # weights[s, e, b, k, (l', l)]: the pair's phase in block b if it lands on offset k
    weights = np.zeros((*phases.shape[:3], num_pairs + 1, num_pairs), dtype=np.complex128)
    trial, estimate, block, pair = np.ogrid[:num_trials, :num_estimates, : len(blocks), :num_pairs]
    weights[trial, estimate, block, pair_slot, pair] = phases
    grouped = weights.reshape(num_trials, 1, -1, num_pairs) @ outputs.reshape(
        num_trials, num_designs, num_pairs, -1
    )
    grouped = grouped.reshape(num_trials, num_designs, *weights.shape[1:4], num_rx, num_streams)
    rates = colored_noise_rate(grouped[..., 0, :, :], grouped[..., 1:, :, :], noise_var)[0]
    return rates.mean(axis=-1)


# --- per-experiment chunk evaluators -----------------------------------------


def _convergence_chunk(config: SystemConfig, rngs: list[np.random.Generator]) -> list:
    timebase = coherence_partition(config)
    power, noise, streams = config.tx_power_watts, config.noise_power_watts, config.num_streams
    dim = config.num_paths * config.num_tx_antennas
    paths, inits = [], []
    for rng in rngs:
        paths.append(generate_paths(config, rng))
        raw = rng.standard_normal((dim, streams)) + 1j * rng.standard_normal((dim, streams))
        inits.append(raw * math.sqrt(power) / np.linalg.norm(raw))
    realizations = realize_channel(paths, config)
    designs = zf_design(realizations, power, noise, streams)
    states = bcd_solve_stack(
        [group_delay_differences(r, timebase, 0) for r in realizations],
        power,
        noise,
        inits,
        tol=0.0,
        max_iters=CONVERGENCE_ITERATIONS,
    )
    records = []
    for state, (_, zf_result) in zip(states, designs):
        trace = list(state.rate_trace)
        trace += trace[-1:] * (CONVERGENCE_ITERATIONS - len(trace))
        records.append([])
        for i, rate in enumerate(trace[:CONVERGENCE_ITERATIONS]):
            records[-1].append(("ddam-bcd", "iteration", float(i + 1), "rate_bps_hz", rate))
            records[-1].append(
                ("ddam-zf", "iteration", float(i + 1), "rate_bps_hz", zf_result.rate_bps_hz)
            )
    return records


def _se_vs_mt_chunk(config: SystemConfig, rngs: list[np.random.Generator]) -> list:
    paths = [generate_paths(config, rng) for rng in rngs]
    timebase = coherence_partition(config)
    overhead = _alignment_overhead(config, timebase)
    power, noise, streams = config.tx_power_watts, config.noise_power_watts, config.num_streams
    stacks = [
        realize_channel(paths, replace(config, num_tx_antennas=mt)) for mt in TRANSMIT_ANTENNA_SWEEP
    ]
    designs = [zf_design(stack, power, noise, streams) for stack in stacks]
    ofdm_rates = [_ofdm_se(stack, config) for stack in stacks]
    # every (trial, array size, block) of the chunk in one BCD solve
    pairs = [(t, a) for t in range(len(paths)) for a in range(len(stacks))]
    bcd_rates = _bcd_se(
        [stacks[a][t] for t, a in pairs],
        [_zf_start(designs[a][t][0], streams) for t, a in pairs],
        config,
        timebase,
        overhead,
    )
    records = [[] for _ in paths]
    for (t, a), bcd_rate in zip(pairs, bcd_rates):
        values = (
            ("ddam-zf", designs[a][t][1].rate_bps_hz * (1.0 - overhead)),
            ("ddam-bcd", bcd_rate),
            ("ofdm", ofdm_rates[a][t]),
            ("strongest-path", _strongest_se(stacks[a][t], config, overhead)),
        )
        mt = float(TRANSMIT_ANTENNA_SWEEP[a])
        records[t] += [(scheme, "mt", mt, "se_bps_hz", value) for scheme, value in values]
    return records


def _se_high_mobility_chunk(config: SystemConfig, rngs: list[np.random.Generator]) -> list:
    paths = [generate_paths(config, rng) for rng in rngs]
    overhead = _alignment_overhead(config, coherence_partition(config))
    records = [[] for _ in paths]
    for mt in TRANSMIT_ANTENNA_SWEEP:
        stack = realize_channel(paths, replace(config, num_tx_antennas=mt))
        designs = zf_design(
            stack, config.tx_power_watts, config.noise_power_watts, config.num_streams
        )
        # OTFS is designed and rated per realization
        for trial, realization, (_, zf_result), ofdm_se in zip(
            records, stack, designs, _ofdm_se(stack, config)
        ):
            trial += [
                ("ddam-zf", "mt", float(mt), "se_bps_hz", zf_result.rate_bps_hz * (1.0 - overhead)),
                ("otfs", "mt", float(mt), "se_bps_hz", _otfs_se(realization, config)),
                ("ofdm", "mt", float(mt), "se_bps_hz", ofdm_se),
            ]
    return records


def _ber_chunk(config: SystemConfig, rngs: list[np.random.Generator]) -> list:
    paths = [generate_paths(config, rng) for rng in rngs]
    # the plain channels, then the CFO-compensated ones
    realizations = realize_channel(paths + [cfo_compensate(p) for p in paths], config)
    noise, cp = config.noise_power_watts, config.max_delay_tap
    powers = [10.0 ** ((power_dbm - 30.0) / 10.0) for power_dbm in BER_POWER_SWEEP_DBM]
    # One stream, designed once: its mode gain does not depend on the power,
    # and water_filling gives a lone active mode exactly the whole budget, so
    # power * gain / noise is, bit for bit, the SNR of a design at each power.
    designs = zf_design(realizations[: len(paths)], config.tx_power_watts, noise, 1)
    # one unit-power OFDM design per channel, rated at every power; the plain
    # and the compensated half are designed apart to halve the stack held at once
    ofdm_sinrs = [
        ofdm_rate(design, powers, noise, cp)[0]
        for half in (realizations[: len(paths)], realizations[len(paths) :])
        for design in ofdm_design(half, OFDM_SUBCARRIERS, 1.0, 1)
    ]
    records = []
    for (_, zf_result), plain, compensated in zip(designs, ofdm_sinrs, ofdm_sinrs[len(paths) :]):
        gain = zf_result.mode_gains[0] if zf_result.n_active_streams else 0.0
        records.append([])
        for i, (power_dbm, power) in enumerate(zip(BER_POWER_SWEEP_DBM, powers)):
            ber = float(qam_awgn_ber(float(power * gain / noise), BER_MODULATION_ORDER))
            records[-1].append(("ddam-zf", "power_dbm", power_dbm, "ber", ber))
            for scheme, sinr in (("ofdm", plain), ("ofdm-cfo", compensated)):
                ber = ofdm_ber(sinr[i, :, 0], OFDM_SUBCARRIERS, cp, BER_MODULATION_ORDER)
                records[-1].append((scheme, "power_dbm", power_dbm, "ber", ber))
    return records


def _ofdm_frame(design: OfdmDesign, symbols: np.ndarray) -> np.ndarray:
    """The (K, M_t) OFDM frame of a design, symbols loaded stream by stream in subcarrier order."""
    grid = np.zeros(design.singular_values.shape, dtype=np.complex128)
    grid[np.arange(grid.shape[1]) < design.ranks[:, None]] = symbols
    loaded = np.einsum("kwr,kr->kw", design.precoder_coords, grid)
    # unitary-style synthesis: (1/sqrt(K)) sum_k X[k] e^{j 2 pi k n / K}, taken
    # in W dimensions; the antenna map is linear, so it comes after the IFFT
    frame = np.fft.ifft(loaded, axis=0) * math.sqrt(OFDM_SUBCARRIERS)
    return frame @ design.antenna_basis.T


def _papr_frames(config: SystemConfig, rngs: list[np.random.Generator]):
    """Yield (trial, scheme, frame) for every frame of a chunk, trial by trial.

    Each trial draws from its own generator in the order of a trial run
    alone: the 3-path profile and its QAM payload, the 5-path ones, the
    OFDM profile, and last, once the chunk's OFDM design has fixed the
    ranks, the OFDM payload of one symbol per loaded stream. Each path
    count is realized and zero-forcing designed in one stacked call, and
    the OFDM channels get one stacked design. A frame is built only when
    the previous one has been taken.
    """
    timebase = coherence_partition(config)
    ddam = [(scheme, replace(config, num_paths=n)) for scheme, n in PAPR_ALIGNED_PATHS]
    # lead-in long enough to pass the delay pre-compensation transient
    lead = 2 * config.max_delay_tap
    paths = {scheme: [] for scheme, _ in ddam}
    payloads = {scheme: [] for scheme, _ in ddam}
    ofdm_paths = []
    for rng in rngs:
        for scheme, cfg in ddam:
            paths[scheme].append(generate_paths(cfg, rng))
            payloads[scheme].append(
                qam_symbols(PAPR_MODULATION_ORDER, (OFDM_SUBCARRIERS + lead, cfg.num_streams), rng)
            )
        ofdm_paths.append(generate_paths(config, rng))
    power, noise = config.tx_power_watts, config.noise_power_watts
    designs = {
        scheme: [
            design
            for design, _ in zf_design(
                realize_channel(paths[scheme], cfg), power, noise, cfg.num_streams
            )
        ]
        for scheme, cfg in ddam
    }
    ofdm = ofdm_design(
        realize_channel(ofdm_paths, config), OFDM_SUBCARRIERS, power, config.num_streams
    )
    for trial, rng in enumerate(rngs):
        for scheme, _ in ddam:
            yield trial, scheme, build_ddam_tx(
                designs[scheme][trial], payloads[scheme][trial], timebase
            )[lead:]
        symbols = qam_symbols(PAPR_MODULATION_ORDER, int(ofdm[trial].ranks.sum()), rng)
        yield trial, "ofdm", _ofdm_frame(ofdm[trial], symbols)


def _papr_chunk(config: SystemConfig, rngs: list[np.random.Generator]) -> list:
    """Each trial's PAPR CCDF records; every frame is reduced before the next is built."""
    records = [[] for _ in rngs]
    for trial, scheme, frame in _papr_frames(config, rngs):
        values, _ = papr_db(frame)
        del frame  # the chunk holds one frame at a time
        fracs = exceedance_fractions(values, PAPR_THRESHOLDS_DB)
        for threshold, frac in zip(PAPR_THRESHOLDS_DB, fracs):
            records[trial].append((scheme, "threshold_db", float(threshold), "ccdf", float(frac)))
    return records


IMPERFECT_CSI_MODELS = (
    ("perfect", 1.0, 0.0),
    ("eta1.00-xi0.05", 1.0, 0.05),
    ("eta0.67-xi0.00", 2.0 / 3.0, 0.0),
    ("eta0.67-xi0.05", 2.0 / 3.0, 0.05),
)


def _imperfect_csi_chunk(config: SystemConfig, rngs: list[np.random.Generator]) -> list:
    timebase = coherence_partition(config)
    overhead = _alignment_overhead(config, timebase)
    noise = config.noise_power_watts
    errors = [CsiError(accuracy, coeff) for _, accuracy, coeff in IMPERFECT_CSI_MODELS]
    paths, est_delays, est_dopplers = [], [], []
    for rng in rngs:
        trial_paths = generate_paths(config, rng)
        delays, dopplers, _ = draw_csi(trial_paths, errors, rng)
        paths.append(trial_paths)
        est_delays.append(delays)
        est_dopplers.append(dopplers)
    # the path matrices depend on gains and angles only, which the
    # estimates keep, so every estimate aligns the true spatial design and
    # all of them share its pair outputs H_l F_l'
    pair_outputs = []
    for mt in TRANSMIT_ANTENNA_SWEEP:
        cfg = replace(config, num_tx_antennas=mt)
        realizations = realize_channel(paths, cfg)
        designs = zf_design(realizations, cfg.tx_power_watts, noise, cfg.num_streams)
        # streams a design leaves unloaded are zero columns, which rate nothing
        precoders = np.zeros(
            (len(paths), config.num_paths, mt, cfg.num_streams), dtype=np.complex128
        )
        for padded, (design, _) in zip(precoders, designs):
            padded[..., : design.num_streams] = design.precoders
        matrices = np.array([realization.matrices for realization in realizations])
        pair_outputs.append(matrices[:, None] @ precoders[:, :, None])
    # the last array size's realizations, path bases included, are not held while rating
    del realizations, designs, precoders, matrices
    rates = mismatched_alignment_rate(
        paths,
        np.stack(pair_outputs, axis=1),
        (np.array(est_delays), np.array(est_dopplers)),
        noise,
        timebase,
    )
    return [
        [
            (scheme, "mt", float(mt), "se_bps_hz", float(rate) * (1.0 - overhead))
            for mt, row in zip(TRANSMIT_ANTENNA_SWEEP, trial_rates)
            for (scheme, _, _), rate in zip(IMPERFECT_CSI_MODELS, row)
        ]
        for trial_rates in rates
    ]


def _feasibility_chunk(config: SystemConfig, rngs: list[np.random.Generator]) -> list:
    del config  # the map is a pure function of the swept dimensions; one per chunk
    records = []
    for num_rx, num_streams in FEASIBILITY_RX_STREAM_PAIRS:
        scheme = f"mr{num_rx}-ns{num_streams}"
        for num_paths in FEASIBILITY_PATH_RANGE:
            metric = f"verdict_l{num_paths}"
            for num_tx in FEASIBILITY_ANTENNA_RANGE:
                verdict = zf_feasibility(num_tx, num_rx, num_streams, num_paths).verdict
                records.append((scheme, "mt", float(num_tx), metric, VERDICT_CODES[verdict]))
    return [records] * len(rngs)


EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            name="fig3-convergence",
            description="Rate of the residual-ISI optimizer per iteration from a "
            "random start, with the zero-forcing rate as reference.",
            config_overrides={"num_tx_antennas": 64},
            evaluator=_convergence_chunk,
            default_trials=20,
        ),
        ExperimentSpec(
            name="fig4-se-vs-mt",
            description="Spectral efficiency vs transmit antennas for both "
            "alignment designs, OFDM, and strongest-path beamforming.",
            config_overrides={},
            evaluator=_se_vs_mt_chunk,
            default_trials=100,
        ),
        ExperimentSpec(
            name="fig5-se-ddam-ofdm-otfs",
            description="Spectral efficiency vs transmit antennas at 500 km/h "
            "for the zero-forcing alignment design, OTFS, and OFDM.",
            config_overrides={"velocity_mps": 500.0 / 3.6},
            evaluator=_se_high_mobility_chunk,
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
            evaluator=_ber_chunk,
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
            evaluator=_papr_chunk,
            default_trials=500,
        ),
        ExperimentSpec(
            name="fig9-imperfect-csi",
            description="Spectral efficiency vs transmit antennas when the "
            "alignment design uses wrong delays/Dopplers.",
            config_overrides={},
            evaluator=_imperfect_csi_chunk,
            default_trials=100,
        ),
        ExperimentSpec(
            name="feasibility-map",
            description="Zero-forcing feasibility verdict (0 infeasible, "
            "1 feasible, 2 undetermined) over antennas and path counts.",
            config_overrides={},
            evaluator=_feasibility_chunk,
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


def _trial_chunks(trials: int, workers: int) -> list[range]:
    """Consecutive trial ranges of at most TRIAL_CHUNK trials, at least one per worker."""
    count = max(-(-trials // TRIAL_CHUNK), min(workers, trials))
    bounds = [trials * k // count for k in range(count + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_chunk(name: str, config: SystemConfig, seed: int, trials: range):
    """Worker entry point; must stay importable at module top level.

    Returns the records of every trial that completed, keyed by trial, and
    the (trial, message) pairs of the trials that failed. A domain error
    from the evaluator re-runs the chunk one trial at a time on fresh
    generators, so it fails only the trial that raised it.
    """
    spec = EXPERIMENTS[name]
    try:
        outputs = spec.evaluator(config, [np.random.default_rng([seed, t]) for t in trials])
    except TRIAL_FAILURES as exc:
        if len(trials) == 1:
            return {}, [(trials[0], f"{type(exc).__name__}: {exc}")]
        results, failures = {}, []
        for trial in trials:
            done, failed = _run_chunk(name, config, seed, range(trial, trial + 1))
            results.update(done)
            failures.extend(failed)
        return results, failures
    results, failures = {}, []
    for trial, records in zip(trials, outputs, strict=True):
        bad = [record for record in records if not math.isfinite(record[4])]
        if not bad:
            results[trial] = records
            continue
        scheme, param_name, param_value, metric, value = bad[0]
        key = (scheme, param_name, float(param_value), metric)
        failures.append((trial, f"NumericalError: non-finite metric value {value!r} for {key}"))
    return results, failures


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
    output. Trials run in consecutive chunks of at most TRIAL_CHUNK, one
    evaluator call each; a pool gets one future per chunk and at least one
    chunk per worker. seed (>= 0), num_trials and workers (>= 1) must be
    integers, and the config must pass config_from_dict, else
    ContractViolationError is raised before any trial runs.
    """
    resolved = _resolve_config(name, config)
    spec = EXPERIMENTS[name]
    seed = _checked_int(seed, "seed", 0)
    trials = spec.default_trials if num_trials is None else num_trials
    trials = _checked_int(trials, "num_trials", 1)
    workers = None if workers is None else _checked_int(workers, "workers", 1)
    # validated and coerced once per run (numpy counts to ints); the trials
    # and the returned run share the frozen result
    trial_config = config_from_dict(resolved.to_dict())

    results: dict[int, list] = {}
    failures: list[tuple[int, str]] = []
    pooled = workers is not None and workers > 1 and trials > 1
    chunks = _trial_chunks(trials, workers if pooled else 1)
    if pooled:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_chunk, name, trial_config, seed, chunk) for chunk in chunks
            ]
            outcomes = [future.result() for future in futures]
    else:
        outcomes = (_run_chunk(name, trial_config, seed, chunk) for chunk in chunks)
    for done, failed in outcomes:
        results.update(done)
        failures.extend(failed)

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
        config=trial_config,
        rows=rows,
        failures=sorted(failures),
    )
