"""Forcing synthesis: mode decay checks, reproducibility, continuity proxies."""

import numpy as np
import pytest

from logdiff.grid import GridSpec, eigensystem, norm_l2
from logdiff.noise import (
    ExplicitGammas,
    NoiseSpec,
    OscillationError,
    PowerLawGammas,
    modulus_of_continuity,
    restrict,
    sup_norm_estimate,
    synthesize,
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
        assert np.all(path.brownian[0] == 0.0)

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
            beta = path.brownian[n, 0]
            assert np.allclose(path.values[n], 0.7 * beta * e1, atol=1e-14)
            assert abs(norm_l2(path.field_at(n)) - 0.7 * abs(beta)) < 1e-12

    def test_bit_identical_reproduction(self):
        a = synthesize(power_spec(), EIGEN)
        b = synthesize(power_spec(), EIGEN)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.brownian, b.brownian)

    def test_different_seeds_differ(self):
        a = synthesize(power_spec(seed=1, n_steps=10), EIGEN)
        b = synthesize(power_spec(seed=2, n_steps=10), EIGEN)
        assert not np.array_equal(a.values, b.values)

    def test_mode_count_extension_keeps_early_modes(self):
        # per-mode substreams: going from K = 4 to K = 8 must not
        # reshuffle the first four Brownian motions
        small = synthesize(power_spec(k_max=4, n_steps=50), eigensystem(GRID, 4))
        large = synthesize(power_spec(k_max=8, n_steps=50), EIGEN)
        assert np.array_equal(small.brownian, large.brownian[:, :4])

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
        path = synthesize(spec, eigensystem(GridSpec(length=1.0, n_interior=7), 1))
        inc = np.diff(path.brownian[:, 0])
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
            samples.append(synthesize(spec, es).brownian[-1, 0])
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
        expected = np.max(np.abs(path.brownian[:, 0])) * e1_inf
        assert abs(sup_norm_estimate(path) - expected) < 1e-13

    def test_regression_value(self):
        # reproducibility regression captured at first run of this config
        path = synthesize(power_spec(), EIGEN)
        assert abs(sup_norm_estimate(path) - 0.9670211867827212) < 1e-13


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


class TestRestrict:
    def test_exact_slicing(self):
        path = synthesize(power_spec(n_steps=100), EIGEN)
        coarse = restrict(path, 10)
        assert coarse.spec.n_steps == 10
        assert coarse.spec.t_final == path.spec.t_final
        assert np.array_equal(coarse.values, path.values[::10])
        assert np.array_equal(coarse.brownian, path.brownian[::10])

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
