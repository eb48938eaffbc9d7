"""Forcing synthesis: mode decay checks, reproducibility, continuity proxies."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import logdiff.noise
from logdiff.grid import GridSpec, eigensystem, norm_l2
from logdiff.noise import (
    ExplicitGammas,
    NoiseOverflowError,
    NoisePath,
    NoiseSpec,
    OscillationError,
    PowerLawGammas,
    modulus_of_continuity,
    restrict,
    sup_norm_estimate,
    synthesize,
    synthesized_sup,
    validate_decay,
)

GRID = GridSpec(length=1.0, n_interior=127)
EIGEN = eigensystem(GRID, 8)


def power_spec(seed=42, decay=8.0, gamma0=1.0, k_max=8, t_final=1.0, n_steps=1000):
    return NoiseSpec(
        k_max=k_max,
        gammas=PowerLawGammas(gamma0=gamma0, decay=decay),
        seed=seed,
        t_final=t_final,
        n_steps=n_steps,
    )


def path_of(values):
    """A NoisePath holding the given (n_steps + 1, n) values; row 0 must be zero."""
    n_steps = len(values) - 1
    spec = NoiseSpec(k_max=1, gammas=ExplicitGammas(gammas=(1.0,)), seed=0, t_final=1.0,
                     n_steps=n_steps)
    return NoisePath(spec, GridSpec(length=1.0, n_interior=values.shape[1]),
                     np.linspace(0.0, 1.0, n_steps + 1), values)


def brownian_of(spec):
    """beta[n, k] = beta_{k+1}(t_n) by the per-mode rule: child stream k of SeedSequence(seed)
    draws n_steps increments sqrt(dt) * N(0, 1), and one cumsum per mode adds them."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.k_max)
    beta = np.zeros((spec.n_steps + 1, spec.k_max))
    for k, child in enumerate(children):
        normals = np.random.default_rng(child).standard_normal(spec.n_steps)
        beta[1:, k] = np.cumsum(np.sqrt(spec.dt) * normals)
    return beta


def outer_loop_values(spec, eigen):
    """Field values by the whole-array rule: one np.outer per mode, added in k order."""
    gam, brownian = spec.gammas.values(spec.k_max), brownian_of(spec)
    values = np.zeros((spec.n_steps + 1, eigen.grid.n_interior))
    for k in range(spec.k_max):
        if gam[k] != 0.0:
            values += np.outer(gam[k] * brownian[:, k], eigen.eigenvectors[k])
    return values


def greedy_cuts(path, alpha):
    """The partition by a row-by-row scan: each cell grows one time step at a time."""
    values = path.values
    n_steps = path.spec.n_steps
    cuts = [0]
    start = 0
    while start < n_steps:
        run_min = values[start].copy()
        run_max = values[start].copy()
        end = start
        while end < n_steps:
            cand_min = np.minimum(run_min, values[end + 1])
            cand_max = np.maximum(run_max, values[end + 1])
            osc = float(np.max(cand_max - cand_min))
            if osc < alpha:
                run_min, run_max = cand_min, cand_max
                end += 1
            else:
                break
        if end == start:
            one_step = float(np.max(np.abs(values[start + 1] - values[start])))
            raise OscillationError(start, one_step, alpha)
        cuts.append(end)
        start = end
    return cuts


def partition_or_error(scan, path, alpha):
    try:
        return list(scan(path, alpha))
    except OscillationError as exc:
        return exc.step, str(exc)


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            power_spec(k_max=0)
        with pytest.raises(ValueError):
            power_spec(n_steps=0)
        with pytest.raises(ValueError):
            power_spec(t_final=0.0)
        with pytest.raises(ValueError):
            power_spec(seed=-1)
        with pytest.raises(ValueError):
            PowerLawGammas(gamma0=-1.0, decay=8.0)
        with pytest.raises(ValueError):
            ExplicitGammas(gammas=(1.0, -0.5))

    def test_power_law_values(self):
        gam = PowerLawGammas(gamma0=2.0, decay=3.0).values(4)
        assert np.allclose(gam, [2.0, 2.0 / 8, 2.0 / 27, 2.0 / 64])

    def test_explicit_values_truncate_but_never_extend(self):
        rule = ExplicitGammas(gammas=(0.5, 0.25, 0.125))
        assert np.allclose(rule.values(2), [0.5, 0.25])
        with pytest.raises(ValueError):
            rule.values(4)

    def test_time_grid(self):
        spec = power_spec(t_final=0.5, n_steps=5)
        assert spec.dt == 0.1
        assert np.allclose(synthesize(spec, EIGEN).times, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])


class TestDecayValidation:
    def test_steep_rule_passes_with_known_margins(self):
        rep = validate_decay(power_spec(decay=8.0), EIGEN)
        assert rep.ok
        # exponent arithmetic: 2r-5 and r-7 at r = 8
        assert rep.margin_square_sum == 11.0
        assert rep.margin_linear_sum == 1.0
        assert np.isfinite(rep.sum_gamma_sq_lambda_sq)
        assert np.isfinite(rep.sum_gamma_lambda_cubed)

    def test_shallow_rule_fails_linear_sum(self):
        rep = validate_decay(power_spec(decay=4.0), EIGEN)
        assert not rep.ok
        assert rep.margin_square_sum == 3.0
        assert rep.margin_linear_sum == -3.0

    def test_zero_amplitude_is_valid(self):
        rep = validate_decay(power_spec(gamma0=0.0), EIGEN)
        assert rep.ok

    def test_explicit_gammas_skip_margins(self):
        spec = NoiseSpec(
            k_max=3,
            gammas=ExplicitGammas(gammas=(1.0, 0.5, 0.25)),
            seed=1,
            t_final=1.0,
            n_steps=10,
        )
        rep = validate_decay(spec, EIGEN)
        assert rep.ok
        assert rep.margin_square_sum is None


class TestSynthesis:
    def test_zero_gammas_give_zero_path(self):
        path = synthesize(power_spec(gamma0=0.0, n_steps=20), EIGEN)
        assert np.all(path.values == 0.0)

    def test_initial_value_zero(self):
        path = synthesize(power_spec(n_steps=50), EIGEN)
        assert np.all(path.values[0] == 0.0)
        columns, _ = logdiff.noise._draw(power_spec(n_steps=50))
        assert np.all(columns[:, 0] == 0.0)

    def test_single_mode_identity(self):
        spec = NoiseSpec(
            k_max=1,
            gammas=ExplicitGammas(gammas=(0.7,)),
            seed=3,
            t_final=1.0,
            n_steps=100,
        )
        path = synthesize(spec, EIGEN)
        e1 = EIGEN.vector(1).values
        for n in (10, 50, 100):
            beta = brownian_of(spec)[n, 0]
            assert np.allclose(path.values[n], 0.7 * beta * e1, atol=1e-14)
            assert abs(norm_l2(path.field_at(n)) - 0.7 * abs(beta)) < 1e-12

    def test_a_zero_mode_draws_nothing(self, monkeypatch):
        # each nonzero mode makes one standard_normal call of n_steps values; a zero mode none
        draws, default_rng = [], np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, *args, out):
                draws.append(out.size)
                return self.rng.standard_normal(*args, out=out)

        monkeypatch.setattr(np.random, "default_rng", Spy)
        gammas = ExplicitGammas(gammas=(1.0, 0.0, 0.5, 0.25, 0.0, 0.125, 3.0, 0.0))
        spec = NoiseSpec(k_max=8, gammas=gammas, seed=4, t_final=1.0, n_steps=200)
        path = synthesize(spec, EIGEN, override_decay_check=True)
        assert draws == [200] * 5
        monkeypatch.undo()
        assert np.array_equal(path.values.view(np.int64),
                              outer_loop_values(spec, EIGEN).view(np.int64))

    def test_bit_identical_reproduction(self):
        a = synthesize(power_spec(), EIGEN)
        b = synthesize(power_spec(), EIGEN)
        assert np.array_equal(a.values, b.values)
        (a_columns, a_modes), (b_columns, b_modes) = (logdiff.noise._draw(power_spec())
                                                      for _ in range(2))
        assert np.array_equal(a_columns, b_columns) and np.array_equal(a_modes, b_modes)

    def test_different_seeds_differ(self):
        a = synthesize(power_spec(seed=1, n_steps=10), EIGEN)
        b = synthesize(power_spec(seed=2, n_steps=10), EIGEN)
        assert not np.array_equal(a.values, b.values)

    def test_mode_count_extension_keeps_early_modes(self):
        # per-mode substreams: going from K = 4 to K = 8 must not
        # reshuffle the first four Brownian motions
        small, _ = logdiff.noise._draw(power_spec(k_max=4, n_steps=50))
        large, _ = logdiff.noise._draw(power_spec(k_max=8, n_steps=50))
        assert np.array_equal(small.view(np.int64), large[:4].view(np.int64))
        gam = power_spec().gammas.values(4)
        expected = gam[:, None] * brownian_of(power_spec(k_max=4, n_steps=50)).T
        assert np.array_equal(small.view(np.int64), expected.view(np.int64))

    def test_amplitude_linearity(self):
        one = synthesize(power_spec(gamma0=1.0, n_steps=30), EIGEN)
        two = synthesize(power_spec(gamma0=2.0, n_steps=30), EIGEN)
        assert np.allclose(two.values, 2.0 * one.values, rtol=0, atol=1e-15)

    def test_increment_lag1_correlation_small(self):
        spec = NoiseSpec(
            k_max=1,
            gammas=ExplicitGammas(gammas=(1.0,)),
            seed=8,
            t_final=1.0,
            n_steps=10_000,
        )
        columns, _ = logdiff.noise._draw(spec)  # gamma_1 = 1: the row is beta_1 itself
        inc = np.diff(columns[0])
        rho = np.corrcoef(inc[:-1], inc[1:])[0, 1]
        assert abs(rho) < 0.05

    def test_variance_scales_with_time(self):
        # light single-mode isometry sanity; the strict 5% sweep lives in
        # the acceptance suite
        g = GridSpec(length=1.0, n_interior=15)
        es = eigensystem(g, 1)
        samples = []
        for i in range(3000):
            spec = NoiseSpec(
                k_max=1,
                gammas=ExplicitGammas(gammas=(1.0,)),
                seed=20_000 + i,
                t_final=1.0,
                n_steps=4,
            )
            samples.append(logdiff.noise._draw(spec)[0][0, -1])  # gamma_1 = 1: beta_1(1)
        assert abs(np.var(samples, ddof=1) - 1.0) < 0.1

    def test_too_many_modes_rejected(self):
        g = GridSpec(length=1.0, n_interior=4)
        es = eigensystem(g, 4)
        with pytest.raises(ValueError):
            synthesize(power_spec(k_max=8), es)

    def test_failing_decay_blocks_synthesis_unless_overridden(self):
        spec = power_spec(decay=4.0, n_steps=10)
        with pytest.raises(ValueError):
            synthesize(spec, EIGEN)
        path = synthesize(spec, EIGEN, override_decay_check=True)
        assert path.values.shape == (11, 127)

    def test_values_are_locked(self):
        path = synthesize(power_spec(n_steps=10), EIGEN)
        with pytest.raises(ValueError):
            path.values[0, 0] = 1.0

    def test_path_copies_what_a_caller_still_owns(self):
        # synthesize hands over read-only arrays nothing else holds; a caller's writeable
        # arrays, and views of arrays, are copied, so a later write leaves the path as it was
        path = synthesize(power_spec(n_steps=10), EIGEN)
        times, values = path.times.copy(), path.values.copy()
        built = NoisePath(path.spec, GRID, times, values)
        assert not any(np.shares_memory(a, b) for a, b in
                       ((built.times, times), (built.values, values)))
        values[1:] = 7.0
        assert np.array_equal(built.values, path.values)
        assert not built.values.flags.writeable
        frozen_view = path.values[:, ::1]  # read-only, but a view of another array
        assert NoisePath(path.spec, GRID, times, frozen_view).values is not frozen_view
        again = NoisePath(path.spec, GRID, path.times, path.values)
        assert again.values is path.values

    @pytest.mark.parametrize("gammas", [
        PowerLawGammas(gamma0=1.0, decay=8.0),
        ExplicitGammas(gammas=(1.0, 0.0, 0.5, 0.25, 0.0, 0.125, 3.0, 0.0)),
    ], ids=["power", "explicit-with-zeros"])
    @pytest.mark.parametrize("k_max", [1, 8, 31])
    def test_brownian_is_each_modes_cumsum(self, gammas, k_max):
        # _draw's row for mode k is gamma_k times its own stream's sqrt(dt) * N(0, 1)
        # increments summed by cumsum, whatever the layout the modes are drawn in; a zero
        # mode has no row
        if isinstance(gammas, ExplicitGammas):
            gammas = ExplicitGammas(gammas=(gammas.gammas * 4)[:k_max])
        spec = NoiseSpec(k_max=k_max, gammas=gammas, seed=9, t_final=0.3, n_steps=250)
        columns, modes = logdiff.noise._draw(spec)
        gam = gammas.values(k_max)
        assert np.array_equal(modes, np.flatnonzero(gam)) and columns.shape == (len(modes), 251)
        expected = gam[modes, None] * brownian_of(spec).T[modes]
        assert np.array_equal(columns.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", [31, 127, 1023])
    # _BLOCK_VALUES of 1 or 10 rows, or the default: at 31, 127 and 1023 nodes the streamed
    # sup sums blocks of 1 or 10 rows, or of 1057, 258 and 32; synthesize sums all 201 at once
    @pytest.mark.parametrize("rows", [1, 10, None])
    @pytest.mark.parametrize("gammas", [
        PowerLawGammas(gamma0=1.0, decay=8.0),
        ExplicitGammas(gammas=(1.0, 0.0, 0.5, 0.25, 0.0, 0.125, 3.0, 0.0)),
        # mode 2 alone: its products at t = 0 are -0.0 where e_2 < 0, and 0.0 + -0.0 = 0.0
        ExplicitGammas(gammas=(0.0, 0.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)),
        PowerLawGammas(gamma0=0.0, decay=8.0),
        # every value subnormal: the row bounds' absolute slack must cover the products
        PowerLawGammas(gamma0=1e-318, decay=8.0),
        # flat amplitudes: the row bounds prune few rows
        ExplicitGammas(gammas=(1.0,) * 8),
        ExplicitGammas(gammas=(1.3,)),
    ], ids=["power", "explicit-with-zeros", "mode-2-only", "zero", "subnormal", "flat",
            "one-mode"])
    def test_blocks_keep_the_outer_loop_bits(self, monkeypatch, n, rows, gammas):
        if rows is not None:
            monkeypatch.setattr("logdiff.noise._BLOCK_VALUES", rows * n)
        eigen = eigensystem(GridSpec(length=1.0, n_interior=n), 8)
        k_max = len(gammas.gammas) if isinstance(gammas, ExplicitGammas) else 8
        spec = NoiseSpec(k_max=k_max, gammas=gammas, seed=n, t_final=1.0, n_steps=200)
        path = synthesize(spec, eigen)
        expected = outer_loop_values(spec, eigen)
        assert np.array_equal(path.values.view(np.int64), expected.view(np.int64))
        # the streamed sup sums fewer rows through the same kernel, in blocks, and reduces
        # them to the same sup; hex() tells the sign of zero apart
        assert synthesized_sup(spec, eigen).hex() == sup_norm_estimate(path).hex()


def spy_rows_summed(monkeypatch):
    """Record the number of time rows each _rows_sup call sums: its columns' count, since
    _rows_sup takes one column of mode amplitudes per time row."""
    counts = []
    rows_sup = logdiff.noise._rows_sup
    monkeypatch.setattr("logdiff.noise._rows_sup", lambda columns, *args:
                        counts.append(columns.shape[1]) or rows_sup(columns, *args))
    return counts


def mode_operands(spec, eigen):
    """_draw's columns of spec and their eigenvectors, over the modes with gamma_k != 0:
    column row i is gamma_k times mode k's Brownian path, vector row i is e_k."""
    gam = spec.gammas.values(spec.k_max)
    modes = np.flatnonzero(gam)
    return gam[modes, None] * brownian_of(spec).T[modes], eigen.eigenvectors[modes]


class TestRowBounds:
    def test_pruning_leaves_few_rows_to_sum(self, monkeypatch):
        # the noise workload's shape: at decay 8 the sup sits in the few rows whose bound
        # reaches the sum of the row with the largest bound
        eigen = eigensystem(GRID, 8)
        counts = spy_rows_summed(monkeypatch)
        for seed in range(5):
            counts.clear()
            spec = power_spec(seed=seed, n_steps=10**4)
            sup = synthesized_sup(spec, eigen)
            assert counts[0] == 1  # the row with the largest bound, alone
            assert sum(counts) <= (spec.n_steps + 1) // 100
            assert sup.hex() == sup_norm_estimate(synthesize(spec, eigen)).hex()

    def test_bound_covers_every_value(self):
        spec = NoiseSpec(k_max=8, gammas=ExplicitGammas(gammas=(1.0, 0.0) * 4), seed=3,
                         t_final=1.0, n_steps=500)
        path = synthesize(spec, EIGEN, override_decay_check=True)
        bound = logdiff.noise._row_bounds(*mode_operands(spec, EIGEN))
        assert np.all(np.abs(path.values).max(axis=1) < bound)

    def test_row_whose_bound_overflows_is_summed(self, monkeypatch):
        # values up to about max_float / 1.001: several rows' bounds overflow to inf, the
        # row holding the sup among them but not first, so dropping them would change it
        eigen = eigensystem(GridSpec(length=1.0, n_interior=31), 2)
        unit = NoiseSpec(k_max=2, gammas=ExplicitGammas(gammas=(1.0, 1.0)), seed=0,
                         t_final=1.0, n_steps=200)
        g = np.finfo(float).max / sup_norm_estimate(synthesize(unit, eigen)) / 1.001
        spec = replace(unit, gammas=ExplicitGammas(gammas=(g, g)))
        path = synthesize(spec, eigen, override_decay_check=True)
        bound = logdiff.noise._row_bounds(*mode_operands(spec, eigen))
        sup_row = int(np.argmax(np.abs(path.values).max(axis=1)))
        assert np.isinf(bound[sup_row]) and sup_row != np.argmax(bound)
        counts = spy_rows_summed(monkeypatch)
        assert synthesized_sup(spec, eigen).hex() == sup_norm_estimate(path).hex()
        assert counts[-1] >= np.count_nonzero(np.isinf(bound))


class TestKernel:
    """_sums against the outer-loop rule, bit for bit.  A numpy whose einsum fuses the
    multiply-adds, or adds a value's products out of k order, fails here."""

    SPEC = power_spec(seed=11, n_steps=10**4)  # the noise workload's shape: 127 nodes, decay 8

    def test_workload_shape_keeps_the_outer_loop_bits(self):
        path = synthesize(self.SPEC, EIGEN)
        expected = outer_loop_values(self.SPEC, EIGEN)
        assert np.array_equal(path.values.view(np.int64), expected.view(np.int64))

    def test_one_row_keeps_its_bits(self):
        expected = outer_loop_values(self.SPEC, EIGEN)
        columns, vectors = mode_operands(self.SPEC, EIGEN)
        for r in (1, 4321, 10**4):
            row = logdiff.noise._sums(columns[:, r : r + 1], vectors)
            assert np.array_equal(row.view(np.int64), expected[r : r + 1].view(np.int64))

    def test_unpruned_flat_64_mode_sup(self, monkeypatch):
        eigen = eigensystem(GRID, 64)
        spec = NoiseSpec(k_max=64, gammas=ExplicitGammas(gammas=(1.0,) * 64), seed=5,
                         t_final=1.0, n_steps=2000)
        counts = spy_rows_summed(monkeypatch)
        sup = synthesized_sup(spec, eigen)
        assert sum(counts) > spec.n_steps // 4  # flat amplitudes: the bounds prune few rows
        expected = outer_loop_values(spec, eigen)
        assert sup.hex() == (float(np.max(np.abs(expected))) + 0.0).hex()


class TestKernelMemory:
    """Memory traced by tracemalloc: the stored path and its operands, and no node copy."""

    def traced_peak(self, call):
        call()  # the first call pays for one-time imports and caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_synthesize_holds_the_path_its_operands_and_at_most_one_block(self):
        spec, rows = power_spec(seed=3, n_steps=10**4), 10**4 + 1
        peak = self.traced_peak(lambda: synthesize(spec, EIGEN))
        values, columns = 8 * rows * 127, 8 * rows * 8
        mask = values // 8  # NoisePath's finiteness check: one bool per value
        assert peak <= values + mask + columns + 8 * logdiff.noise._BLOCK_VALUES

    def test_synthesized_sup_holds_its_operand_twice_and_one_block(self):
        # the drawn columns and their absolute values in _row_bounds, then one block of sums
        spec, rows = power_spec(seed=3, n_steps=10**4), 10**4 + 1
        peak = self.traced_peak(lambda: synthesized_sup(spec, EIGEN))
        columns = 8 * rows * 8
        assert peak <= 2 * columns + 8 * logdiff.noise._BLOCK_VALUES + 4096

    def test_rows_sup_holds_one_block(self):
        columns, vectors = mode_operands(power_spec(seed=3, n_steps=10**4), EIGEN)
        peak = self.traced_peak(lambda: logdiff.noise._rows_sup(columns, vectors))
        assert peak <= 8 * logdiff.noise._BLOCK_VALUES + 4096  # 4 KiB: the blocks' headers


class TestSupNorm:
    def test_zero_noise(self):
        path = synthesize(power_spec(gamma0=0.0, n_steps=10), EIGEN)
        assert sup_norm_estimate(path) == 0.0

    def test_single_mode_formula(self):
        spec = NoiseSpec(
            k_max=1, gammas=ExplicitGammas(gammas=(1.0,)),
            seed=5, t_final=1.0, n_steps=200,
        )
        path = synthesize(spec, EIGEN)
        e1_inf = np.max(np.abs(EIGEN.vector(1).values))
        expected = np.max(np.abs(brownian_of(spec)[:, 0])) * e1_inf
        assert abs(sup_norm_estimate(path) - expected) < 1e-13

    def test_regression_value(self):
        # reproducibility regression captured at first run of this config
        path = synthesize(power_spec(), EIGEN)
        assert abs(sup_norm_estimate(path) - 0.9670211867827212) < 1e-13

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_max_of_abs(self, seed):
        path = synthesize(power_spec(seed=seed, n_steps=300), EIGEN)
        assert sup_norm_estimate(path) == float(np.max(np.abs(path.values)))

    def test_signed_zeros_give_positive_zero(self):
        values = np.zeros((4, 3))
        values[1:] = -0.0
        sup = sup_norm_estimate(path_of(values))
        assert sup == 0.0 and math.copysign(1.0, sup) == 1.0

    def test_overflowing_values_raise_in_both(self):
        # |beta_1| passes 1.8 before t = 4, so gamma_1 * beta_1 overflows
        spec = NoiseSpec(k_max=1, gammas=ExplicitGammas(gammas=(1e308,)), seed=42,
                         t_final=4.0, n_steps=400)
        eigen = eigensystem(GridSpec(length=1.0, n_interior=31), 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoiseOverflowError, match="noise values must be finite"):
                synthesize(spec, eigen)
            with pytest.raises(NoiseOverflowError, match="noise values must be finite"):
                synthesized_sup(spec, eigen)
        values = np.zeros((3, 2))
        values[2, 1] = np.inf
        with pytest.raises(NoiseOverflowError, match="noise values must be finite"):
            path_of(values)


class TestModulusOfContinuity:
    def test_zero_noise_single_cell(self):
        path = synthesize(power_spec(gamma0=0.0, n_steps=25), EIGEN)
        cuts = modulus_of_continuity(path, 0.3)
        assert list(cuts) == [0, 25]

    def test_infinite_alpha_single_cell(self):
        path = synthesize(power_spec(n_steps=50), EIGEN)
        cuts = modulus_of_continuity(path, np.inf)
        assert list(cuts) == [0, 50]

    def test_partition_verified_by_direct_scan(self):
        # 4000 steps keeps the single-step oscillation below alpha = 0.1
        path = synthesize(power_spec(n_steps=4000), EIGEN)
        alpha = 0.1
        cuts = modulus_of_continuity(path, alpha)
        assert cuts[0] == 0 and cuts[-1] == path.spec.n_steps
        assert np.all(np.diff(cuts) >= 1)
        for a, b in zip(cuts[:-1], cuts[1:]):
            block = path.values[a : b + 1]
            osc = np.max(np.max(block, axis=0) - np.min(block, axis=0))
            assert osc < alpha

    def test_single_step_oscillation_error(self):
        path = synthesize(power_spec(n_steps=20), EIGEN)
        with pytest.raises(OscillationError) as err:
            modulus_of_continuity(path, 1e-12)
        assert err.value.step >= 0
        assert err.value.oscillation >= 1e-12

    def test_alpha_must_be_positive(self):
        path = synthesize(power_spec(n_steps=10), EIGEN)
        with pytest.raises(ValueError):
            modulus_of_continuity(path, 0.0)

    @pytest.mark.parametrize("rows", [1, 3, None])  # widest window of 1 or 3 rows, or the default
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_windows_keep_the_greedy_cuts(self, monkeypatch, rows, seed):
        if rows is not None:
            monkeypatch.setattr("logdiff.noise._BLOCK_VALUES", rows * 31)
        path = synthesize(power_spec(seed=seed, n_steps=2000), eigensystem(GridSpec(1.0, 31), 8))
        outcomes = []
        # alpha = 0.03 and 0.05 fail at some step of these paths; 0.3 makes long cells
        for alpha in (0.03, 0.05, 0.08, 0.1, 0.3, 1.0, np.inf):
            expected = partition_or_error(greedy_cuts, path, alpha)
            assert partition_or_error(modulus_of_continuity, path, alpha) == expected
            outcomes.append(type(expected))
        assert tuple in outcomes and list in outcomes

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("n_steps", [45, 49, 64])
    @pytest.mark.parametrize("alpha", [7.0, 7.5, 8.0, 15.5, 16.0, np.inf])
    def test_ramp_cells_end_on_window_boundaries(self, monkeypatch, rows, n_steps, alpha):
        # on a ramp the cell [s, e] oscillates by exactly e - s, so alpha = L + 1/2 gives
        # cells of L steps and alpha = L gives L - 1: the first cell's windows end at
        # steps 1, 3, 7, 15, ..., each later cell's first window at its predecessor's length
        if rows is not None:
            monkeypatch.setattr("logdiff.noise._BLOCK_VALUES", rows * 2)
        steps = np.arange(n_steps + 1, dtype=float)
        path = path_of(np.column_stack([steps, -0.5 * steps]))
        cuts = modulus_of_continuity(path, alpha)
        assert list(cuts) == greedy_cuts(path, alpha)
        assert cuts[-1] == n_steps

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_error_step_and_message_match_the_greedy_scan(self, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr("logdiff.noise._BLOCK_VALUES", rows * 2)
        steps = np.arange(41, dtype=float)
        values = np.column_stack([steps, -0.5 * steps])
        values[21:, 0] += 10.0  # step 20 -> 21 oscillates by 11
        path = path_of(values)
        expected = partition_or_error(greedy_cuts, path, 5.5)
        assert expected[0] == 20
        assert partition_or_error(modulus_of_continuity, path, 5.5) == expected

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("where", ["first", "last", "past"])
    def test_ramp_cut_on_a_block_edge_keeps_the_greedy_cuts(self, monkeypatch, rows, where):
        # alpha = L + 1/2 gives ramp cells of L steps.  The first cell grows by blocks of
        # 1, 2, 4, ... rows up to the widest; L puts its cut on a block's first row, on its
        # last row, or one row past it, the first row of the next block
        widest = rows if rows is not None else logdiff.noise._BLOCK_VALUES // 2
        if rows is not None:
            monkeypatch.setattr("logdiff.noise._BLOCK_VALUES", rows * 2)
        n_steps, ends, width = 100, [0], 1
        while ends[-1] < n_steps:
            ends.append(min(ends[-1] + width, n_steps))
            width = min(2 * width, widest)
        steps = np.arange(n_steps + 1, dtype=float)
        path = path_of(np.column_stack([steps, -0.5 * steps]))
        for before, last in zip(ends[:-2], ends[1:-1]):
            length = {"first": before + 1, "last": last, "past": last + 1}[where]
            cuts = modulus_of_continuity(path, length + 0.5)
            assert cuts[1] == length
            assert list(cuts) == greedy_cuts(path, length + 0.5)

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_hundreds_of_cells_keep_the_greedy_cuts(self, monkeypatch, rows):
        if rows is not None:
            monkeypatch.setattr("logdiff.noise._BLOCK_VALUES", rows * 31)
        path = synthesize(power_spec(seed=7, t_final=0.1, n_steps=4000),
                          eigensystem(GridSpec(1.0, 31), 8))
        cuts = modulus_of_continuity(path, 0.03)
        assert len(cuts) > 300
        assert list(cuts) == greedy_cuts(path, 0.03)


class TestRestrict:
    def test_exact_slicing(self):
        path = synthesize(power_spec(n_steps=100), EIGEN)
        coarse = restrict(path, 10)
        assert coarse.spec.n_steps == 10
        assert coarse.spec.t_final == path.spec.t_final
        assert np.array_equal(coarse.values, path.values[::10])
        assert np.array_equal(coarse.times, path.times[::10])

    def test_identity_stride(self):
        path = synthesize(power_spec(n_steps=30), EIGEN)
        same = restrict(path, 1)
        assert np.array_equal(same.values, path.values)

    def test_nondivisor_rejected(self):
        path = synthesize(power_spec(n_steps=100), EIGEN)
        with pytest.raises(ValueError):
            restrict(path, 7)
        with pytest.raises(ValueError):
            restrict(path, 0)
