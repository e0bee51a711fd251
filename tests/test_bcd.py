"""Block-coordinate-descent rate maximization over grouped channels."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddamsim import bcd
from ddamsim.bcd import (
    POWER_BISECT_REL_TOL,
    GroupedChannels,
    _budgeted_coefficients,
    _lag_models,
    bcd_solve,
    bcd_solve_stack,
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
    budgeted_precoder_bisect,
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
        realization.path_basis[None],
        realization.path_coords[None],
        cfg.tx_power_watts,
        cfg.noise_power_watts,
        cfg.num_streams,
    )
    return np.concatenate(per_path, axis=0), result


def _antenna_blocks(realization, timebase, block_index):
    """The antenna-width (K, M_r, L M_t) blocks of grouped_blocks_loop, for the dense oracles."""
    return grouped_blocks_loop(realization, timebase, block_index)[1]


def _receive(blocks, precoder, noise_var):
    """mmse_receiver on antenna-width blocks, a stack of one: (rate, Q, W)."""
    [rate], [q], [w] = mmse_receiver(blocks[None], precoder[None], noise_var)
    return rate, q, w


def _update(grouped, combiner, auxiliary, total_power):
    """precoder_update in the grouped channel's coordinates, mapped to the antennas."""
    basis, coords = grouped.coordinates
    [x] = precoder_update(coords[None], combiner[None], auxiliary[None], total_power)
    return basis @ x


def _zf_bcd_start(realization, cfg):
    """The ZF start fig4 gives BCD: the stacked F_l, zero columns up to N_s."""
    design, _ = zf_design(
        realization, cfg.tx_power_watts, cfg.noise_power_watts, cfg.num_streams
    )
    return _zf_start(design, cfg.num_streams)


def test_grouping_places_paths_by_delay_difference():
    _, realization, timebase, _ = _setup(0)
    paths = realization.path_set
    grouped = group_delay_differences(realization, timebase, block_index=0)
    coords = realization.path_coords  # C_l = H_l Q
    width = coords.shape[2]
    for lp in range(3):
        block = grouped.blocks[0][:, lp * width : (lp + 1) * width]
        assert np.array_equal(block, coords[lp])
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
            block = mat[:, lp * width : (lp + 1) * width]
            matches = [
                l
                for l in range(3)
                if l != lp and paths.delay_taps[lp] - paths.delay_taps[l] == offset
            ]
            if matches:
                l = matches[0]
                lag = paths.delay_taps[l] - paths.delay_taps[lp]
                phase = np.exp(2j * np.pi * paths.doppler_hz[lp] * lag * ts)
                assert np.allclose(block, coords[l] * phase, atol=0)
            else:
                assert not np.any(block)


def test_grouping_accumulates_block_phase():
    _, realization, timebase, _ = _setup(1)
    paths = realization.path_set
    block_index = 5
    grouped = group_delay_differences(realization, timebase, block_index)
    ts = timebase.symbol_duration_s
    n0 = block_index * timebase.samples_per_coherence
    coords = realization.path_coords
    width = coords.shape[2]
    for lp in range(3):
        for l in range(3):
            if l == lp:
                continue
            offset = int(paths.delay_taps[lp] - paths.delay_taps[l])
            dnu = paths.doppler_hz[l] - paths.doppler_hz[lp]
            lag = paths.delay_taps[l] - paths.delay_taps[lp]
            cycles = (dnu * n0 + paths.doppler_hz[lp] * lag) * ts
            expected = coords[l] * np.exp(2j * np.pi * cycles)
            mat = grouped.blocks[grouped.offsets.index(offset)]
            block = mat[:, lp * width : (lp + 1) * width]
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
    # offsets and path-coordinate blocks equal the dict oracle's exactly,
    # also when evenly spaced delays make several pairs share an offset,
    # and on the path basis they are the oracle's antenna-width blocks
    cfg, spread, timebase, _ = _setup(4, num_paths=4)
    even = replace(spread.path_set, delay_taps=cfg.max_delay_tap // 3 * np.arange(4))
    colliding = replace(spread, path_set=even)
    for realization in (spread, colliding):
        for block_index in (0, 3):
            grouped = group_delay_differences(realization, timebase, block_index)
            offsets, blocks = grouped_blocks_loop(
                realization, timebase, block_index, path_coords=True
            )
            assert list(grouped.offsets) == offsets
            assert np.array_equal(grouped.blocks, blocks)
            antenna = _antenna_blocks(realization, timebase, block_index)
            rebuilt = grouped.blocks.reshape(len(offsets), 2, 4, -1) @ grouped.path_basis.conj().T
            error = np.linalg.norm(rebuilt.reshape(antenna.shape) - antenna)
            assert error <= 1e-12 * np.linalg.norm(antenna)
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
    _, realization, timebase, _ = _setup(2, num_paths=1)
    grouped = group_delay_differences(realization, timebase, 0)
    # one path of M_r = 2 rows spans n = 2 coordinates
    assert grouped.offsets == (0,) and grouped.blocks.shape == (1, 2, 2)
    offsets, blocks = grouped_blocks_loop(realization, timebase, 0, path_coords=True)
    assert list(grouped.offsets) == offsets
    assert np.array_equal(grouped.blocks, blocks)
    assert np.array_equal(grouped.blocks[0], realization.path_coords[0])


def test_grouped_channels_rejects_zero_offset():
    # offset 0 is the desired channel's: first, once, and one offset per
    # block; one branch makes no offset but 0
    for offsets in [(0, 0), (1, 0), (0,), (0, 1, 2), (0, 1)]:
        with pytest.raises(ContractViolationError):
            GroupedChannels(
                blocks=np.zeros((2, 2, 8), dtype=np.complex128),
                offsets=offsets,
                num_paths=1,
                path_basis=np.eye(8, dtype=np.complex128),
            )


def test_zf_precoder_silences_interference_covariance():
    cfg, realization, timebase, _ = _setup(3)
    f_stack, _ = _stack_zf_precoder(realization, cfg)
    noise = cfg.noise_power_watts
    c = isi_covariance(_antenna_blocks(realization, timebase, 0), f_stack, noise)
    assert np.allclose(c, noise * np.eye(2), atol=1e-12 * noise)
    vals = np.linalg.eigvalsh(c)
    assert np.all(vals >= 0)


def test_rate_of_zf_precoder_matches_capacity_result():
    for seed in range(5):
        cfg, realization, timebase, _ = _setup(10 + seed)
        blocks = _antenna_blocks(realization, timebase, 0)
        f_stack, result = _stack_zf_precoder(realization, cfg)
        noise = cfg.noise_power_watts
        rate = ddam_rate(blocks, f_stack, result.combiner, noise)
        assert rate == pytest.approx(result.rate_bps_hz, rel=1e-9), f"seed {10 + seed}"
        # the MMSE receiver attains the same mutual information
        rate_mmse, _, w = _receive(blocks, f_stack, noise)
        assert rate_mmse == pytest.approx(result.rate_bps_hz, rel=1e-9)
        assert ddam_rate(blocks, f_stack, w, noise) == pytest.approx(rate_mmse, rel=1e-9)


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
    k = cfg.num_paths * cfg.num_tx_antennas
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
    timebase = coherence_partition(cfg)
    grouped = group_delay_differences(realization, timebase, block_index)
    blocks = _antenna_blocks(realization, timebase, block_index)
    return cfg, realization, grouped, blocks, rng


def _rate_and_weights(blocks, precoder, noise_var):
    """colored_noise_rate of antenna-width blocks' outputs, a stack of one: (rate, Q, C^-1 A)."""
    outputs = np.stack([block @ precoder for block in blocks])
    [rate], [q], [cinv_a] = colored_noise_rate(outputs[None, 0], outputs[None, 1:], noise_var)
    return rate, q, cinv_a


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
    # the update in the coordinates of range(B^H) must return the precoder
    # of the dense (L*M_t)^2 eigendecomposition with the bisected budget, in
    # both the beta = 0 and the constrained branch
    num_streams = min(2, num_rx, num_tx)
    cfg, _, grouped, blocks, rng = _grouped_draw(
        [num_tx, num_paths, num_rx], num_tx, num_paths, num_rx, num_streams, block_index
    )
    dim = num_paths * num_tx
    raw = rng.standard_normal((dim, num_streams)) + 1j * rng.standard_normal(
        (dim, num_streams)
    )
    start = raw * np.sqrt(cfg.tx_power_watts) / np.linalg.norm(raw)
    noise = cfg.noise_power_watts
    _, q, w = _receive(blocks, start, noise)

    unconstrained = precoder_update_dense(blocks, w, q, 1e30)
    assert _relative_error(_update(grouped, w, q, 1e30), unconstrained) <= 1e-9

    budget = 0.25 * float(np.sum(np.abs(unconstrained) ** 2))
    fast = _update(grouped, w, q, budget)
    assert _relative_error(fast, precoder_update_dense(blocks, w, q, budget)) <= 1e-9
    # the Newton steps meet the budget from below
    power = float(np.sum(np.abs(fast) ** 2))
    assert budget * (1 - 2e-12) <= power <= budget * (1 + 1e-12)

    silent = np.zeros_like(w)
    zero = _update(grouped, silent, q, budget)
    assert zero.shape == (dim, num_streams)
    assert np.array_equal(zero, precoder_update_dense(blocks, silent, q, budget))


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
    cfg, _, grouped, blocks, rng = _grouped_draw(
        seed, num_tx, num_paths, num_rx, num_streams, block_index
    )
    dim = num_paths * num_tx
    raw = rng.standard_normal((dim, num_streams)) + 1j * rng.standard_normal(
        (dim, num_streams)
    )
    precoder = raw * np.sqrt(cfg.tx_power_watts) / np.linalg.norm(raw)
    noise = cfg.noise_power_watts
    rate, q, w = _receive(blocks, precoder, noise)
    assert w.shape == (num_rx, num_streams)
    assert _relative_error(w, mmse_receiver_direct(blocks, precoder, noise)) <= 1e-10
    want_rate, want_q, _ = _rate_and_weights(blocks, precoder, noise)
    assert rate == pytest.approx(want_rate, rel=1e-12, abs=0.0)
    assert _relative_error(q, want_q) <= 1e-12
    # in the coordinates of range(B^H), where BCD evaluates it, B F = R^H U^H F
    basis, coords = grouped.coordinates
    [coord_rate], _, [coord_w] = mmse_receiver(
        coords[None], (basis.conj().T @ precoder)[None], noise
    )
    assert coord_rate == pytest.approx(want_rate, rel=1e-12, abs=0.0)
    assert _relative_error(coord_w, w) <= 1e-10


def _criterion_04_traces(monkeypatch=None):
    # with monkeypatch, every precoder step is the dense oracle's, mapped
    # into the coordinates the solver iterates on
    cfg = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, num_streams=2)
    cfg1 = SystemConfig(num_tx_antennas=16, num_rx_antennas=2, num_paths=1)
    runs = [(cfg, [4001, seed], 1e-3, 50) for seed in range(100)]
    runs += [(cfg1, [4002, seed], 1e-10, 200) for seed in range(10)]
    traces = []
    for config, seed, tol, max_iters in runs:
        realization = realize_channel(generate_paths(config, np.random.default_rng(seed)), config)
        timebase = coherence_partition(config)
        grouped = group_delay_differences(realization, timebase, 0)
        if monkeypatch is not None:
            basis = grouped.coordinates[0]
            antenna = _antenna_blocks(realization, timebase, 0)

            def dense(blocks, combiners, auxiliaries, total_power, antenna=antenna, basis=basis):
                [w], [q] = combiners, auxiliaries
                return (basis.conj().T @ precoder_update_dense(antenna, w, q, total_power))[None]

            monkeypatch.setattr(bcd, "precoder_update", dense)
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
    dense = _criterion_04_traces(monkeypatch)
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
    cfg, realization, grouped, blocks, rng = _grouped_draw(
        seed, num_tx, num_paths, num_rx, num_streams, block_index
    )
    budget, noise = cfg.tx_power_watts, cfg.noise_power_watts
    try:
        start = _zf_bcd_start(realization, cfg)
    except FeasibilityError:
        dim = num_paths * num_tx
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
    rate, q, _ = _rate_and_weights(blocks, f_bar, noise)
    for step in range(5):
        combiner = _receive(blocks, f_bar, noise)[2]
        f_bar = _update(grouped, combiner, q, budget)
        assert float(np.sum(np.abs(f_bar) ** 2)) <= budget * (1 + 1e-6)
        new_rate, q, _ = _rate_and_weights(blocks, f_bar, noise)
        assert new_rate >= rate - 1e-9 * max(1.0, abs(rate)), (
            f"step {step}: rate {rate!r} -> {new_rate!r}"
        )
        rate = new_rate


def test_bcd_state_at_max_iters_belongs_to_last_rate():
    # stopped by max_iters, not by tol: the returned precoder, combiner and
    # weights must be the iterate that rate_trace[-1] was measured on
    cfg, realization, timebase, rng = _setup(5, num_tx=16)
    grouped = group_delay_differences(realization, timebase, 0)
    blocks = _antenna_blocks(realization, timebase, 0)
    dim = cfg.num_paths * cfg.num_tx_antennas
    raw = rng.standard_normal((dim, cfg.num_streams)) + 1j * rng.standard_normal(
        (dim, cfg.num_streams)
    )
    init = raw * np.sqrt(cfg.tx_power_watts) / np.linalg.norm(raw)
    noise = cfg.noise_power_watts
    state = bcd_solve(grouped, cfg.tx_power_watts, noise, init, tol=0.0, max_iters=3)
    assert not state.converged and len(state.rate_trace) == 3
    rate, q, _ = _rate_and_weights(blocks, state.precoder, noise)
    assert rate == pytest.approx(state.rate_trace[-1], rel=1e-12, abs=0.0)
    assert np.allclose(state.auxiliary, q, rtol=1e-12, atol=0.0)
    assert np.allclose(
        state.combiner, _receive(blocks, state.precoder, noise)[2], rtol=1e-12, atol=0.0
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
        [want_rate], [want_q], [want_cinv_a] = colored_noise_rate(
            desired[b : b + 1], interferers[b : b + 1], 0.1
        )
        assert rates[b] == pytest.approx(want_rate, rel=1e-12, abs=0)
        assert np.allclose(q[b], want_q, rtol=1e-12, atol=0)
        assert np.allclose(cinv_a[b], want_cinv_a, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "where", ["desired-nan", "desired-inf", "interferer-nan", "interferer-inf", "noise-nan"]
)
def test_colored_noise_rate_rejects_a_non_finite_channel(where):
    desired = np.array([[[1.0 + 0j], [0.5j]]])
    interferers = np.array([[[[0.3 + 0j], [0.2 + 0j]]]])
    bad = np.nan if where.endswith("nan") else np.inf
    if where.startswith("noise"):
        noise_var = bad
    else:
        noise_var = 1.0
        (desired if where.startswith("desired") else interferers)[..., 1, 0] = bad
    with pytest.raises(NumericalError):
        colored_noise_rate(desired, interferers, noise_var)


def test_colored_noise_rate_takes_stacks_only():
    # one 2-D channel, or interferers whose stack or block shape differs
    desired = np.ones((1, 2, 1), dtype=np.complex128)
    interferers = np.ones((1, 3, 2, 1), dtype=np.complex128)
    for args in [
        (desired[0], interferers[0]),
        (desired, interferers[0]),
        (desired, interferers[:, :, :1]),
    ]:
        with pytest.raises(ContractViolationError):
            colored_noise_rate(*args, 1.0)


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
    _, _, grouped, antenna, _ = _grouped_draw(seed, num_tx, num_paths, num_rx, 1, block_index)
    # the antenna-width B = [Hbar; Gbar[i]...] of the dense oracle
    blocks = np.vstack(list(antenna))
    basis, coords = grouped.coordinates
    assert grouped.coordinates is grouped.coordinates  # factored once
    # zero-padded to K' = L (L - 1) + 1 offsets and K' M_r coordinates; the
    # QR is of the (L n) x (K M_r) path-coordinate adjoint, n = min(M_t, L M_r)
    num_slots = num_paths * (num_paths - 1) + 1
    count = len(grouped.blocks)
    width = min(count * num_rx, num_paths * min(num_tx, num_paths * num_rx))
    assert grouped.blocks.shape[2] == num_paths * min(num_tx, num_paths * num_rx)
    assert basis.shape == (num_paths * num_tx, num_slots * num_rx)
    assert coords.shape == (num_slots, num_rx, num_slots * num_rx)
    assert not np.any(basis[:, width:])
    assert not np.any(coords[count:]) and not np.any(coords[..., width:])
    basis, coords = basis[:, :width], coords[:count, :, :width]
    assert np.linalg.norm(basis.conj().T @ basis - np.eye(width)) <= 1e-12
    # B_k = (B_k U) U^H, as the rows of B lie in range(U)
    rebuilt = coords.reshape(-1, width) @ basis.conj().T
    assert np.linalg.norm(rebuilt - blocks) <= 1e-12 * np.linalg.norm(blocks)


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

    # the realization's own QR, of its path matrices, comes before
    cfg, realization, timebase, rng = _setup(8, num_tx=64)
    monkeypatch.setattr(bcd, "precoder_update", counted("precoder_update", precoder_update))
    monkeypatch.setattr(bcd, "mmse_receiver", counted("mmse_receiver", mmse_receiver))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    grouped = group_delay_differences(realization, timebase, 0)
    dim = cfg.num_paths * cfg.num_tx_antennas
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
    init = np.full((cfg.num_paths * cfg.num_tx_antennas, 2), 0.1 + 0j)
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
        # the precoder step checks its budget too: a NaN one would search
        # into a NumericalError, an inf one return the unconstrained precoder
        coords = grouped.coordinates[1][None]
        with pytest.raises(ContractViolationError):
            precoder_update(coords, np.ones((1, 2, 2)), np.eye(2)[None], bad["total_power"])


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
        _bcd_se([realization], [_zf_start(design, cfg.num_streams)], cfg, timebase, 0.0)


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


def _random_unitary(rng, size):
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return np.linalg.qr(raw)[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 10),
    num_streams=st.integers(1, 3),
    scale=st.sampled_from([1e-20, 1.0, 1e15]),
    spread_decades=st.floats(0.0, 12.0),
    zero_count=st.integers(0, 3),
    near_zero_count=st.integers(0, 2),
    tiny_rows=st.lists(st.sampled_from([1e-12, 1e-30]), max_size=3),
    budget_decades=st.floats(-12.0, 1.0),
)
@example(  # a budget just below the unconstrained power
    seed=0, size=6, num_streams=2, scale=1.0, spread_decades=3.0, zero_count=0,
    near_zero_count=0, tiny_rows=[], budget_decades=-1e-13,
)
@example(  # every eigenvalue zero: the pseudo-inverse loads nothing
    seed=1, size=3, num_streams=1, scale=1.0, spread_decades=0.0, zero_count=3,
    near_zero_count=0, tiny_rows=[], budget_decades=-3.0,
)
def test_budget_newton_steps_match_the_bisection_oracle(
    seed, size, num_streams, scale, spread_decades, zero_count, near_zero_count,
    tiny_rows, budget_decades,
):
    # eigenvalues over up to 12 decades, with exact zeros and ones below the
    # 1e-13 activity threshold, right-hand-side rows scaled down to 1e-30 of
    # the others (not all of them: the oracle's bisection starts from an
    # interval far too wide for a power 1e-60 of its eigenvalues), and budgets from 1e-12 to 10 times the unconstrained power;
    # the right-hand side scales with sqrt(eigenvalue), as in the BCD step
    rng = np.random.default_rng(seed)
    vals = scale * 10.0 ** (-spread_decades * rng.random(size))
    vals[0] = scale
    picks = rng.permutation(size)
    vals[picks[:zero_count]] = 0.0
    vals[picks[zero_count : zero_count + near_zero_count]] = scale * 1e-14
    vals = np.sort(vals)[::-1].copy()
    vecs = _random_unitary(rng, size)
    proj = np.sqrt(scale) * (
        rng.standard_normal((size, num_streams)) + 1j * rng.standard_normal((size, num_streams))
    )
    for row, factor in zip(rng.permutation(size)[1:], tiny_rows):  # one row stays whole
        proj[row] *= factor
    active = vals > vals.max() * 1e-13
    unconstrained = float(np.sum(np.sum(np.abs(proj[active]) ** 2, axis=1) / vals[active] ** 2))
    budget = unconstrained * 10.0**budget_decades if unconstrained else 1.0

    got = vecs @ _budgeted_coefficients(vals[None], proj[None], budget)[0]
    want = budgeted_precoder_bisect(vals, vecs, proj, budget)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    power = float(np.sum(np.abs(got) ** 2))
    if unconstrained > budget:
        assert (1.0 - POWER_BISECT_REL_TOL) * budget <= power <= budget
    else:  # the pseudo-inverse, whose power is the unconstrained one up to rounding
        assert power <= budget * (1.0 + 1e-12)


def test_budget_root_bisects_where_the_slope_underflows():
    # at beta ~ 1e110 the slope sum_i r_i / (vals_i + beta)^3 underflows to
    # 0, so that step bisects the bracket instead of dividing by it
    budget = 1e-220
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coeffs = _budgeted_coefficients(
            np.array([[1.0, 0.0]]), np.ones((1, 2, 1), dtype=np.complex128), budget
        )
    power = float(np.sum(np.abs(coeffs) ** 2))
    assert (1.0 - POWER_BISECT_REL_TOL) * budget <= power <= budget


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rx_streams=st.sampled_from([(1, 1), (2, 1), (2, 2), (4, 2)]),
    num_paths=st.integers(1, 4),
    members=st.lists(
        st.tuples(st.sampled_from([2, 8, 16, 48]), st.integers(0, 20), st.booleans()),
        min_size=2,
        max_size=6,
    ),
    tol=st.sampled_from([0.0, 1e-4]),
    max_iters=st.sampled_from([1, 20, 40]),
)
@example(  # fig4's mix: three array sizes, three blocks each, ZF and random starts
    seed=7,
    rx_streams=(2, 2),
    num_paths=3,
    members=[(mt, block, mt != 32) for mt in (16, 48, 8) for block in (0, 9, 19)],
    tol=1e-4,
    max_iters=40,
)
@example(  # fig3's regime: a fixed iteration count, M_t = 64, block 0, random starts
    seed=3,
    rx_streams=(2, 2),
    num_paths=3,
    members=[(64, 0, False)] * 6,
    tol=0.0,
    max_iters=20,
)
def test_stacked_bcd_equals_stack_of_one_calls(
    seed, rx_streams, num_paths, members, tol, max_iters
):
    # each member of a mixed stack is solved exactly as alone: precoder,
    # combiner, weights, trace and stopping state agree bit for bit, also
    # where members converge at different iterations, where tol = 0 runs
    # them to max_iters unless a rate stalls, and where their unpadded
    # coordinate counts differ (L M_t < K M_r pads more columns)
    num_rx, num_streams = rx_streams
    base = SystemConfig(num_rx_antennas=num_rx, num_paths=num_paths, num_streams=num_streams)
    rng = np.random.default_rng(seed)
    paths = generate_paths(base, rng)
    timebase = coherence_partition(base)
    groups, starts = [], []
    for num_tx, block_index, zf_start in members:
        cfg = replace(base, num_tx_antennas=num_tx)
        realization = realize_channel(paths, cfg)
        groups.append(group_delay_differences(realization, timebase, block_index))
        if zf_start and num_tx >= num_paths * num_streams:
            starts.append(_zf_bcd_start(realization, cfg))
        else:
            dim = num_paths * num_tx
            raw = rng.standard_normal((dim, num_streams)) + 1j * rng.standard_normal(
                (dim, num_streams)
            )
            starts.append(raw * np.sqrt(cfg.tx_power_watts) / np.linalg.norm(raw))
    budget, noise = base.tx_power_watts, base.noise_power_watts
    stacked = bcd_solve_stack(groups, budget, noise, starts, tol=tol, max_iters=max_iters)
    assert len(stacked) == len(members)
    for grouped, start, state in zip(groups, starts, stacked):
        alone = bcd_solve(grouped, budget, noise, start, tol=tol, max_iters=max_iters)
        assert state.rate_trace == alone.rate_trace
        assert state.n_iterations == alone.n_iterations
        assert state.converged == alone.converged
        assert np.array_equal(state.precoder, alone.precoder)
        assert np.array_equal(state.combiner, alone.combiner)
        assert np.array_equal(state.auxiliary, alone.auxiliary)
        # each member stops at its first iteration that meets the rule
        trace = state.rate_trace
        gained = [b - a > tol * max(abs(a), 1e-12) for a, b in zip(trace, trace[1:])]
        assert all(gained[:-1])
        assert state.converged == (bool(gained) and not gained[-1])
        assert state.converged or state.n_iterations == max_iters


def test_bcd_solve_stack_needs_one_start_per_member():
    cfg, realization, timebase, _ = _setup(9)
    grouped = group_delay_differences(realization, timebase, 0)
    start = _zf_bcd_start(realization, cfg)
    for groups, starts in [([], []), ([grouped], []), ([grouped, grouped], [start])]:
        with pytest.raises(ContractViolationError):
            bcd_solve_stack(groups, cfg.tx_power_watts, cfg.noise_power_watts, starts)


def test_bcd_solve_stack_rejects_members_of_other_shapes():
    # padded coordinates share one shape where L, M_r and N_s agree; M_t may differ
    base = SystemConfig(num_tx_antennas=8, num_rx_antennas=2, num_paths=3)

    def member(cfg, num_streams):
        realization = realize_channel(generate_paths(cfg, np.random.default_rng(0)), cfg)
        grouped = group_delay_differences(realization, coherence_partition(cfg), 0)
        return grouped, np.full((cfg.num_paths * cfg.num_tx_antennas, num_streams), 0.1 + 0j)

    first = member(base, 2)
    budget, noise = base.tx_power_watts, base.noise_power_watts
    for other in [
        member(replace(base, num_paths=2), 2),
        member(replace(base, num_rx_antennas=4), 2),
        member(base, 1),
    ]:
        groups, starts = zip(first, other)
        with pytest.raises(ContractViolationError, match="share L, M_r and N_s"):
            bcd_solve_stack(groups, budget, noise, starts)
    groups, starts = zip(first, member(replace(base, num_tx_antennas=16), 2))
    assert len(bcd_solve_stack(groups, budget, noise, starts, max_iters=2)) == 2
