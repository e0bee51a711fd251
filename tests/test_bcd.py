"""Block-coordinate-descent rate maximization over grouped channels."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddamsim import bcd
from ddamsim.bcd import (
    GroupedChannels,
    _lag_models,
    bcd_solve,
    colored_noise_rate,
    group_delay_differences,
    mmse_receiver,
    precoder_update,
)
from ddamsim.channel import coherence_partition, generate_paths, realize_channel
from ddamsim.config import SystemConfig
from ddamsim.errors import ContractViolationError, FeasibilityError, NumericalError
from ddamsim.experiments import _bcd_se, _zf_start
from ddamsim.zf import zf_design, zf_spatial_design
from oracles import (
    ddam_rate,
    grouped_blocks_loop,
    isi_covariance,
    mmse_receiver_direct,
    precoder_update_dense,
)


def _setup(seed, num_tx=8, num_paths=3):
    cfg = SystemConfig(num_tx_antennas=num_tx, num_rx_antennas=2, num_paths=num_paths)
    rng = np.random.default_rng(seed)
    paths = generate_paths(cfg, rng)
    realization = realize_channel(paths, cfg)
    timebase = coherence_partition(cfg)
    return cfg, realization, timebase, rng


def _stack_zf_precoder(realization, cfg):
    [(per_path, result)] = zf_spatial_design(
        realization.matrices[None],
        cfg.tx_power_watts,
        cfg.noise_power_watts,
        cfg.num_streams,
    )
    return np.concatenate(per_path, axis=0), result


def _zf_bcd_start(realization, cfg):
    """The ZF start fig4 gives BCD: the stacked F_l, zero columns up to N_s."""
    design, _ = zf_design(
        realization, cfg.tx_power_watts, cfg.noise_power_watts, cfg.num_streams
    )
    return _zf_start(design, cfg.num_streams)


def test_grouping_places_paths_by_delay_difference():
    cfg, realization, timebase, _ = _setup(0)
    paths = realization.path_set
    grouped = group_delay_differences(realization, timebase, block_index=0)
    mt = cfg.num_tx_antennas
    for lp in range(3):
        block = grouped.stacked_channel[:, lp * mt : (lp + 1) * mt]
        assert np.array_equal(block, realization.matrices[lp])
    expected_offsets = {
        int(paths.delay_taps[lp] - paths.delay_taps[l])
        for lp in range(3)
        for l in range(3)
        if l != lp
    }
    assert grouped.offsets[0] == 0 and set(grouped.offsets[1:]) == expected_offsets
    assert len(grouped.blocks) == len(grouped.offsets)
    # at block 0 no Doppler difference has accumulated, so each ISI slot
    # holds the channel of the path at the matching delay difference with
    # only the branch Doppler's phase over that difference
    ts = timebase.symbol_duration_s
    for offset, mat in zip(grouped.offsets[1:], grouped.blocks[1:]):
        for lp in range(3):
            block = mat[:, lp * mt : (lp + 1) * mt]
            matches = [
                l
                for l in range(3)
                if l != lp and paths.delay_taps[lp] - paths.delay_taps[l] == offset
            ]
            if matches:
                l = matches[0]
                lag = paths.delay_taps[l] - paths.delay_taps[lp]
                phase = np.exp(2j * np.pi * paths.doppler_hz[lp] * lag * ts)
                assert np.allclose(block, realization.matrices[l] * phase, atol=0)
            else:
                assert not np.any(block)


def test_grouping_accumulates_block_phase():
    cfg, realization, timebase, _ = _setup(1)
    paths = realization.path_set
    block_index = 5
    grouped = group_delay_differences(realization, timebase, block_index)
    ts = timebase.symbol_duration_s
    n0 = block_index * timebase.samples_per_coherence
    mt = cfg.num_tx_antennas
    for lp in range(3):
        for l in range(3):
            if l == lp:
                continue
            offset = int(paths.delay_taps[lp] - paths.delay_taps[l])
            dnu = paths.doppler_hz[l] - paths.doppler_hz[lp]
            lag = paths.delay_taps[l] - paths.delay_taps[lp]
            cycles = (dnu * n0 + paths.doppler_hz[lp] * lag) * ts
            expected = realization.matrices[l] * np.exp(2j * np.pi * cycles)
            mat = grouped.blocks[grouped.offsets.index(offset)]
            block = mat[:, lp * mt : (lp + 1) * mt]
            assert np.allclose(block, expected, atol=1e-18)


def _true_branches(paths, branch_delays=None, branch_dopplers=None):
    """_lag_models' path and branch arguments, the branches defaulting to the paths."""
    return (
        paths.delay_taps,
        paths.doppler_hz,
        paths.delay_taps if branch_delays is None else branch_delays,
        paths.doppler_hz if branch_dopplers is None else branch_dopplers,
    )


def test_grouping_branch_inputs_default_to_the_true_paths():
    # group_delay_differences aligns the branches to the true paths; its
    # offsets and blocks equal the dict oracle's exactly, also when evenly
    # spaced delays make several pairs share an offset
    cfg, spread, timebase, _ = _setup(4, num_paths=4)
    even = replace(spread.path_set, delay_taps=cfg.max_delay_tap // 3 * np.arange(4))
    colliding = replace(spread, path_set=even)
    for realization in (spread, colliding):
        for block_index in (0, 3):
            grouped = group_delay_differences(realization, timebase, block_index)
            offsets, blocks = grouped_blocks_loop(realization, timebase, block_index)
            assert list(grouped.offsets) == offsets
            assert np.array_equal(grouped.blocks, blocks)
    assert len(offsets) == 7  # the 12 interfering pairs share 6 offsets
    paths = spread.path_set
    with pytest.raises(ContractViolationError):
        _lag_models(*_true_branches(paths, paths.delay_taps[:2]), timebase, [3])


def test_grouping_rejects_a_negative_block():
    # the lag model's block check, which the mismatched-CSI rate shares
    _, realization, timebase, _ = _setup(5)
    with pytest.raises(ContractViolationError):
        group_delay_differences(realization, timebase, -1)
    with pytest.raises(ContractViolationError):
        _lag_models(*_true_branches(realization.path_set), timebase, [0, -1])


def test_lag_pairs_rejects_fractional_branch_delays():
    # a cast to int64 would rate delay 2.7 as delay 2
    _, realization, timebase, _ = _setup(5)
    paths = realization.path_set
    with pytest.raises(ContractViolationError):
        _lag_models(*_true_branches(paths, paths.delay_taps + 0.7), timebase, [0])


def test_lag_pairs_rejects_a_fractional_block_index():
    _, realization, timebase, _ = _setup(5)
    with pytest.raises(ContractViolationError):
        _lag_models(*_true_branches(realization.path_set), timebase, [0.5])
    with pytest.raises(ContractViolationError):
        group_delay_differences(realization, timebase, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lag_pairs_rejects_non_finite_branch_dopplers(bad):
    # caught here rather than as a NumericalError from the rate downstream
    _, realization, timebase, _ = _setup(5)
    paths = realization.path_set
    dopplers = paths.doppler_hz.copy()
    dopplers[1] = bad
    with pytest.raises(ContractViolationError):
        _lag_models(*_true_branches(paths, None, dopplers), timebase, [0])


def test_grouping_single_path_has_no_isi():
    cfg, realization, timebase, _ = _setup(2, num_paths=1)
    grouped = group_delay_differences(realization, timebase, 0)
    assert grouped.offsets == (0,) and grouped.blocks.shape == (1, 2, cfg.num_tx_antennas)
    offsets, blocks = grouped_blocks_loop(realization, timebase, 0)
    assert list(grouped.offsets) == offsets
    assert np.array_equal(grouped.blocks, blocks)
    assert np.array_equal(grouped.stacked_channel, realization.matrices[0])


def test_grouped_channels_rejects_zero_offset():
    # offset 0 is the desired channel's: first, once, and one offset per block
    for offsets in [(0, 0), (1, 0), (0,), (0, 1, 2)]:
        with pytest.raises(ContractViolationError):
            GroupedChannels(
                blocks=np.zeros((2, 2, 8), dtype=np.complex128),
                offsets=offsets,
                num_paths=1,
                num_tx=8,
            )


def test_zf_precoder_silences_interference_covariance():
    cfg, realization, timebase, _ = _setup(3)
    grouped = group_delay_differences(realization, timebase, 0)
    f_stack, _ = _stack_zf_precoder(realization, cfg)
    noise = cfg.noise_power_watts
    c = isi_covariance(grouped, f_stack, noise)
    assert np.allclose(c, noise * np.eye(2), atol=1e-12 * noise)
    vals = np.linalg.eigvalsh(c)
    assert np.all(vals >= 0)


def test_rate_of_zf_precoder_matches_capacity_result():
    for seed in range(5):
        cfg, realization, timebase, _ = _setup(10 + seed)
        grouped = group_delay_differences(realization, timebase, 0)
        f_stack, result = _stack_zf_precoder(realization, cfg)
        noise = cfg.noise_power_watts
        rate = ddam_rate(grouped, f_stack, result.combiner, noise)
        assert rate == pytest.approx(result.rate_bps_hz, rel=1e-9), f"seed {10 + seed}"
        # the MMSE receiver attains the same mutual information
        rate_mmse, _, w = mmse_receiver(grouped, f_stack, noise)
        assert rate_mmse == pytest.approx(result.rate_bps_hz, rel=1e-9)
        assert ddam_rate(grouped, f_stack, w, noise) == pytest.approx(rate_mmse, rel=1e-9)


def test_bcd_trace_is_monotone_and_converges():
    for seed in range(20):
        cfg, realization, timebase, _ = _setup(100 + seed)
        grouped = group_delay_differences(realization, timebase, 0)
        state = bcd_solve(
            grouped,
            total_power=cfg.tx_power_watts,
            noise_var=cfg.noise_power_watts,
            init_precoder=_zf_bcd_start(realization, cfg),
            tol=1e-4,
            max_iters=100,
        )
        trace = np.asarray(state.rate_trace)
        assert trace.size >= 2
        drops = np.diff(trace)
        floor = -1e-9 * max(1.0, float(np.max(np.abs(trace))))
        assert np.all(drops >= floor), f"seed {100 + seed}: trace decreased {drops.min()}"
        assert state.converged, f"seed {100 + seed}: no convergence in 100 iterations"
        power = float(np.sum(np.abs(state.precoder) ** 2))
        assert power == pytest.approx(cfg.tx_power_watts, rel=1e-6)


def test_bcd_does_not_lose_to_zf_warm_start():
    for seed in range(5):
        cfg, realization, timebase, _ = _setup(200 + seed)
        grouped = group_delay_differences(realization, timebase, 0)
        _, zf_result = _stack_zf_precoder(realization, cfg)
        state = bcd_solve(
            grouped,
            cfg.tx_power_watts,
            cfg.noise_power_watts,
            _zf_bcd_start(realization, cfg),
        )
        assert state.rate_trace[-1] >= zf_result.rate_bps_hz - 1e-9


def test_bcd_single_path_equals_mimo_capacity():
    # one path means no inter-path interference, so the BCD solution must
    # land on the waterfilled capacity of that path's channel
    for seed in range(5):
        cfg, realization, timebase, _ = _setup(300 + seed, num_paths=1)
        grouped = group_delay_differences(realization, timebase, 0)
        _, zf_result = _stack_zf_precoder(realization, cfg)
        state = bcd_solve(
            grouped,
            cfg.tx_power_watts,
            cfg.noise_power_watts,
            _zf_bcd_start(realization, cfg),
            tol=1e-10,
        )
        assert state.rate_trace[-1] == pytest.approx(
            zf_result.rate_bps_hz, rel=1e-6
        ), f"seed {300 + seed}"


def test_bcd_random_init_reaches_zf_ballpark():
    cfg, realization, timebase, _ = _setup(400)
    grouped = group_delay_differences(realization, timebase, 0)
    _, zf_result = _stack_zf_precoder(realization, cfg)
    rng = np.random.default_rng(0)
    k = grouped.stacked_channel.shape[1]
    init = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
    init *= np.sqrt(cfg.tx_power_watts) / np.linalg.norm(init)
    state = bcd_solve(grouped, cfg.tx_power_watts, cfg.noise_power_watts, init, max_iters=200)
    assert state.rate_trace[-1] >= 0.5 * zf_result.rate_bps_hz


def _grouped_draw(seed, num_tx, num_paths, num_rx, num_streams, block_index):
    cfg = SystemConfig(
        num_tx_antennas=num_tx,
        num_rx_antennas=num_rx,
        num_paths=num_paths,
        num_streams=num_streams,
    )
    rng = np.random.default_rng(seed)
    realization = realize_channel(generate_paths(cfg, rng), cfg)
    grouped = group_delay_differences(realization, coherence_partition(cfg), block_index)
    return cfg, realization, grouped, rng


def _rate_and_weights(grouped, precoder, noise_var):
    return colored_noise_rate(
        grouped.stacked_channel @ precoder,
        [block @ precoder for block in grouped.blocks[1:]],
        noise_var,
    )


def _relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# every (M_t, L) pair once, with M_r and the block index rotating so each
# M_r meets each M_t and L, and block 0 and a later block both occur
ORACLE_CASES = [
    (num_tx, num_paths, (1, 2, 4)[(i + j) % 3], 5 * ((i + j) % 2))
    for i, num_tx in enumerate((1, 2, 16, 64, 256))
    for j, num_paths in enumerate((1, 3, 5))
]


@pytest.mark.parametrize("num_tx,num_paths,num_rx,block_index", ORACLE_CASES)
def test_precoder_update_matches_dense_oracle(num_tx, num_paths, num_rx, block_index):
    # the low-rank update must return the precoder of the dense (L*M_t)^2
    # eigendecomposition, in both the beta = 0 and the bisection branch
    num_streams = min(2, num_rx, num_tx)
    cfg, _, grouped, rng = _grouped_draw(
        [num_tx, num_paths, num_rx], num_tx, num_paths, num_rx, num_streams, block_index
    )
    dim = grouped.stacked_channel.shape[1]
    raw = rng.standard_normal((dim, num_streams)) + 1j * rng.standard_normal(
        (dim, num_streams)
    )
    start = raw * np.sqrt(cfg.tx_power_watts) / np.linalg.norm(raw)
    noise = cfg.noise_power_watts
    _, q, w = mmse_receiver(grouped, start, noise)

    unconstrained = precoder_update_dense(grouped, w, q, 1e30)
    assert _relative_error(precoder_update(grouped, w, q, 1e30), unconstrained) <= 1e-9

    budget = 0.25 * float(np.sum(np.abs(unconstrained) ** 2))
    fast = precoder_update(grouped, w, q, budget)
    assert _relative_error(fast, precoder_update_dense(grouped, w, q, budget)) <= 1e-9
    # the bisection meets the budget from below
    power = float(np.sum(np.abs(fast) ** 2))
    assert budget * (1 - 2e-12) <= power <= budget * (1 + 1e-12)

    silent = np.zeros_like(w)
    zero = precoder_update(grouped, silent, q, budget)
    assert zero.shape == (dim, num_streams)
    assert np.array_equal(zero, precoder_update_dense(grouped, silent, q, budget))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    num_rx=st.sampled_from([1, 2, 4]),
    num_paths=st.integers(1, 5),
    num_tx=st.integers(1, 48),
    block_index=st.integers(0, 20),
)
def test_mmse_receiver_matches_direct_oracle(
    data, seed, num_rx, num_paths, num_tx, block_index
):
    # the filter taken from the rate's solve, C^{-1} A Q^{-1}, is the direct
    # (A A^H + C)^{-1} A, and the rate and Q are those of the per-offset sum
    num_streams = data.draw(st.integers(1, min(num_rx, num_tx)), label="num_streams")
    cfg, _, grouped, rng = _grouped_draw(
        seed, num_tx, num_paths, num_rx, num_streams, block_index
    )
    dim = grouped.stacked_channel.shape[1]
    raw = rng.standard_normal((dim, num_streams)) + 1j * rng.standard_normal(
        (dim, num_streams)
    )
    precoder = raw * np.sqrt(cfg.tx_power_watts) / np.linalg.norm(raw)
    noise = cfg.noise_power_watts
    rate, q, w = mmse_receiver(grouped, precoder, noise)
    assert w.shape == (num_rx, num_streams)
    assert _relative_error(w, mmse_receiver_direct(grouped, precoder, noise)) <= 1e-10
    want_rate, want_q, _ = _rate_and_weights(grouped, precoder, noise)
    assert rate == pytest.approx(want_rate, rel=1e-12, abs=0.0)
    assert _relative_error(q, want_q) <= 1e-12


def _criterion_04_traces():
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, num_streams=2)
    cfg1 = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, num_paths=1)
    runs = [(cfg, [4001, seed], 1e-3, 50) for seed in range(100)]
    runs += [(cfg1, [4002, seed], 1e-10, 200) for seed in range(10)]
    traces = []
    for config, seed, tol, max_iters in runs:
        realization = realize_channel(generate_paths(config, np.random.default_rng(seed)), config)
        grouped = group_delay_differences(realization, coherence_partition(config), 0)
        state = bcd_solve(
            grouped,
            config.tx_power_watts,
            config.noise_power_watts,
            _zf_bcd_start(realization, config),
            tol=tol,
            max_iters=max_iters,
        )
        traces.append(np.asarray(state.rate_trace))
    return traces


def test_bcd_rate_traces_match_dense_precoder_update(monkeypatch):
    fast = _criterion_04_traces()
    monkeypatch.setattr(bcd, "precoder_update", precoder_update_dense)
    dense = _criterion_04_traces()
    for index, (got, want) in enumerate(zip(fast, dense)):
        assert got.shape == want.shape, f"run {index}: trace lengths differ"
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), f"run {index}"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tx=st.integers(1, 32),
    num_paths=st.integers(1, 5),
    rx_streams=st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 2)]),
    block_index=st.integers(0, 20),
)
def test_bcd_trace_is_monotone_within_budget(
    seed, num_tx, num_paths, rx_streams, block_index
):
    num_rx, num_streams = rx_streams
    # a configuration cannot carry more streams than transmit antennas
    num_streams = min(num_streams, num_tx)
    cfg, realization, grouped, rng = _grouped_draw(
        seed, num_tx, num_paths, num_rx, num_streams, block_index
    )
    budget, noise = cfg.tx_power_watts, cfg.noise_power_watts
    try:
        start = _zf_bcd_start(realization, cfg)
    except FeasibilityError:
        dim = grouped.stacked_channel.shape[1]
        raw = rng.standard_normal((dim, num_streams)) + 1j * rng.standard_normal(
            (dim, num_streams)
        )
        start = raw * np.sqrt(budget) / np.linalg.norm(raw)
    state = bcd_solve(grouped, budget, noise, start)
    trace = np.asarray(state.rate_trace)
    slack = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
    assert np.all(np.diff(trace) >= -slack), f"trace decreased: {np.diff(trace).min()}"
    # past the solver's stopping rule, at (or near) a fixed point where a
    # step that loses power against the budget would show as a rate drop,
    # every receiver/weights/precoder step must still be an ascent step
    f_bar = state.precoder
    rate, q, _ = _rate_and_weights(grouped, f_bar, noise)
    for step in range(5):
        combiner = mmse_receiver(grouped, f_bar, noise)[2]
        f_bar = precoder_update(grouped, combiner, q, budget)
        assert float(np.sum(np.abs(f_bar) ** 2)) <= budget * (1 + 1e-6)
        new_rate, q, _ = _rate_and_weights(grouped, f_bar, noise)
        assert new_rate >= rate - 1e-9 * max(1.0, abs(rate)), (
            f"step {step}: rate {rate!r} -> {new_rate!r}"
        )
        rate = new_rate


def test_bcd_state_at_max_iters_belongs_to_last_rate():
    # stopped by max_iters, not by tol: the returned precoder, combiner and
    # weights must be the iterate that rate_trace[-1] was measured on
    cfg, realization, timebase, rng = _setup(5, num_tx=16)
    grouped = group_delay_differences(realization, timebase, 0)
    dim = grouped.stacked_channel.shape[1]
    raw = rng.standard_normal((dim, cfg.num_streams)) + 1j * rng.standard_normal(
        (dim, cfg.num_streams)
    )
    init = raw * np.sqrt(cfg.tx_power_watts) / np.linalg.norm(raw)
    noise = cfg.noise_power_watts
    state = bcd_solve(grouped, cfg.tx_power_watts, noise, init, tol=0.0, max_iters=3)
    assert not state.converged and len(state.rate_trace) == 3
    rate, q, _ = _rate_and_weights(grouped, state.precoder, noise)
    assert rate == pytest.approx(state.rate_trace[-1], rel=1e-12, abs=0.0)
    assert np.allclose(state.auxiliary, q, rtol=1e-12, atol=0.0)
    assert np.allclose(
        state.combiner, mmse_receiver(grouped, state.precoder, noise)[2], rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("num_interferers", [0, 1, 3])
def test_colored_noise_rate_rates_a_block_stack(num_interferers):
    rng = np.random.default_rng(31)
    num_blocks, num_rx, num_streams = 4, 3, 2

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    desired = draw(num_blocks, num_rx, num_streams)
    interferers = 0.5 * draw(num_blocks, num_interferers, num_rx, num_streams)
    rates, q, cinv_a = colored_noise_rate(desired, interferers, 0.1)
    assert rates.shape == (num_blocks,) and q.shape == (num_blocks, num_streams, num_streams)
    assert cinv_a.shape == desired.shape
    for b in range(num_blocks):
        want_rate, want_q, want_cinv_a = colored_noise_rate(desired[b], list(interferers[b]), 0.1)
        assert rates[b] == pytest.approx(want_rate, rel=1e-12, abs=0)
        assert np.allclose(q[b], want_q, rtol=1e-12, atol=0)
        assert np.allclose(cinv_a[b], want_cinv_a, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "where", ["desired-nan", "desired-inf", "interferer-nan", "interferer-inf", "noise-nan"]
)
def test_colored_noise_rate_rejects_a_non_finite_channel(where):
    desired = np.array([[1.0 + 0j], [0.5j]])
    interferers = np.array([[[0.3 + 0j], [0.2 + 0j]]])
    bad = np.nan if where.endswith("nan") else np.inf
    if where.startswith("noise"):
        noise_var = bad
    else:
        noise_var = 1.0
        (desired if where.startswith("desired") else interferers)[..., 1, 0] = bad
    with pytest.raises(NumericalError):
        colored_noise_rate(desired, interferers, noise_var)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_tx=st.integers(1, 48),
    num_paths=st.integers(1, 5),
    num_rx=st.integers(1, 4),
    block_index=st.integers(0, 20),
)
@example(seed=1, num_tx=1, num_paths=5, num_rx=4, block_index=3)  # tall B
@example(seed=2, num_tx=48, num_paths=3, num_rx=2, block_index=0)  # wide B
@example(seed=3, num_tx=16, num_paths=1, num_rx=2, block_index=7)  # no ISI blocks
def test_cached_factor_reproduces_the_stacked_blocks(
    seed, num_tx, num_paths, num_rx, block_index
):
    _, _, grouped, _ = _grouped_draw(seed, num_tx, num_paths, num_rx, 1, block_index)
    blocks = np.vstack(list(grouped.blocks))
    assert np.array_equal(grouped.stacked_blocks, blocks)
    assert np.shares_memory(grouped.stacked_blocks, grouped.blocks)  # a view, no copy
    basis, tri = grouped.adjoint_qr
    assert grouped.adjoint_qr is grouped.adjoint_qr  # factored once
    width = basis.shape[1]
    assert width == min(blocks.shape) == tri.shape[0]
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(width)) <= 1e-12
    assert np.linalg.norm(basis @ tri - blocks.conj().T) <= 1e-12 * np.linalg.norm(blocks)


def test_grouped_channels_is_immutable():
    _, realization, timebase, _ = _setup(6)
    grouped = group_delay_differences(realization, timebase, 0)
    with pytest.raises(AttributeError):
        grouped.blocks = np.zeros_like(grouped.blocks)
    with pytest.raises(AttributeError):
        grouped.offsets = (0,)


def test_bcd_solve_routes_each_step_through_module_globals(monkeypatch):
    # perfbench rebinds these globals and the dense-oracle trace test
    # replaces precoder_update, so every step must look them up there;
    # the thin QR of the stacked blocks is taken once per grouped channel
    calls = {"precoder_update": 0, "mmse_receiver": 0, "qr": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(bcd, "precoder_update", counted("precoder_update", precoder_update))
    monkeypatch.setattr(bcd, "mmse_receiver", counted("mmse_receiver", mmse_receiver))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    cfg, realization, timebase, rng = _setup(8, num_tx=64)
    grouped = group_delay_differences(realization, timebase, 0)
    dim = grouped.stacked_channel.shape[1]
    raw = rng.standard_normal((dim, cfg.num_streams)) + 1j * rng.standard_normal(
        (dim, cfg.num_streams)
    )
    state = bcd_solve(
        grouped,
        cfg.tx_power_watts,
        cfg.noise_power_watts,
        raw * np.sqrt(cfg.tx_power_watts) / np.linalg.norm(raw),
        tol=0.0,
        max_iters=20,
    )
    assert state.n_iterations == 20 and not state.converged
    assert calls == {"precoder_update": 19, "mmse_receiver": 20, "qr": 1}


@pytest.mark.parametrize(
    "bad",
    [
        {"init_precoder": "nan"},
        {"init_precoder": "inf"},
        {"init_precoder": "one row short"},
        {"init_precoder": "no column"},
        {"init_precoder": "zero"},
        {"max_iters": 2.5},
        {"max_iters": True},
        {"max_iters": 0},
        {"total_power": float("inf")},
        {"total_power": float("nan")},
        {"total_power": 0.0},
        {"total_power": -1.0},
        {"noise_var": 0.0},
        {"noise_var": float("nan")},
        {"noise_var": float("inf")},
        {"noise_var": -1e-12},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": -1e-4},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_bcd_solve_rejects_bad_arguments_before_the_loop(bad, monkeypatch):
    cfg, realization, timebase, _ = _setup(9)
    grouped = group_delay_differences(realization, timebase, 0)
    # a valid start unless the case is about the start
    init = np.full((grouped.stacked_channel.shape[1], 2), 0.1 + 0j)
    if bad.get("init_precoder") == "one row short":
        init = init[1:]
    elif bad.get("init_precoder") == "no column":
        init = init[:, :0]
    elif bad.get("init_precoder") == "zero":
        init[:] = 0.0
    elif "init_precoder" in bad:
        init[3, 1] = float(bad["init_precoder"])
    kwargs = {
        "total_power": cfg.tx_power_watts,
        "noise_var": cfg.noise_power_watts,
        "max_iters": 5,
        **bad,
        "init_precoder": init,
    }

    def never(*args, **kwargs):
        raise AssertionError("the solver started on invalid arguments")

    monkeypatch.setattr(bcd, "mmse_receiver", never)
    with pytest.raises(ContractViolationError):
        bcd_solve(grouped, **kwargs)
    if "total_power" in bad:
        # the precoder step checks its budget too: a NaN one would bisect
        # into a NumericalError, an inf one return the unconstrained precoder
        with pytest.raises(ContractViolationError):
            precoder_update(grouped, np.ones((2, 2)), np.eye(2), bad["total_power"])


def test_bcd_from_a_zf_design_without_streams_is_rejected():
    # two paths with one AoD and one AoA null each other completely, so ZF
    # loads no stream and fig4 would hand BCD an all-zero start
    cfg, _, timebase, rng = _setup(0, num_tx=64, num_paths=2)
    paths = replace(
        generate_paths(cfg, rng), aod_rad=np.full(2, 0.3), aoa_rad=np.full(2, 0.3)
    )
    realization = realize_channel(paths, cfg)
    design, result = zf_design(
        realization, cfg.tx_power_watts, cfg.noise_power_watts, cfg.num_streams
    )
    assert result.n_active_streams == 0
    with pytest.raises(ContractViolationError, match="all zero"):
        _bcd_se(realization, cfg, timebase, 0.0, _zf_start(design, cfg.num_streams))


def test_bcd_solve_accepts_numpy_integer_counts():
    cfg, realization, timebase, _ = _setup(9)
    grouped = group_delay_differences(realization, timebase, 0)
    state = bcd_solve(
        grouped,
        cfg.tx_power_watts,
        cfg.noise_power_watts,
        _zf_bcd_start(realization, cfg),
        max_iters=np.int32(4),
    )
    assert 1 <= state.n_iterations <= 4
