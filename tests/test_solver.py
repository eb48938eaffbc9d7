"""Implicit/explicit steppers, the path drivers, and the epsilon sweep."""

import concurrent.futures
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dptsv as DPTSV
from scipy.linalg.lapack import dtbtrs as DTBTRS

import logdiff.nonlinearity
import logdiff.solver
from logdiff.grid import (
    Field,
    GridSpec,
    _factor,
    _hminus1_norms,
    _laplacian,
    _norm_l2,
    eigensystem,
    norm_hminus1,
    norm_l2,
)
from logdiff.noise import ExplicitGammas, NoiseSpec, PowerLawGammas, synthesize
from logdiff.nonlinearity import yosida_shifted
from logdiff.solver import (
    SolverConfig,
    StepFailureError,
    _rounding_floor,
    _step_explicit_core,
    _step_implicit_core,
    epsilon_sweep,
    run_ensemble,
    solve_explicit,
    solve_path,
    solve_rows,
)

G15 = GridSpec(length=1.0, n_interior=15)
G127 = GridSpec(length=1.0, n_interior=127)
E15 = eigensystem(G15, 8)
E127 = eigensystem(G127, 8)


def zero_noise(grid, t_final=0.1, n_steps=20, seed=0):
    spec = NoiseSpec(
        k_max=1,
        gammas=ExplicitGammas(gammas=(0.0,)),
        seed=seed,
        t_final=t_final,
        n_steps=n_steps,
    )
    return synthesize(spec, eigensystem(grid, 1))


def default_noise(grid, eigen, seed=42, t_final=0.5, n_steps=200):
    spec = NoiseSpec(
        k_max=8,
        gammas=PowerLawGammas(gamma0=1.0, decay=8.0),
        seed=seed,
        t_final=t_final,
        n_steps=n_steps,
    )
    return synthesize(spec, eigen)


def spy_dptsv(monkeypatch):
    """Record copies of (d, e, b) for each dptsv call the solver makes."""
    calls = []

    def spy(d, e, b):
        calls.append(tuple(np.array(v) for v in (d, e, b)))
        return DPTSV(d, e, b)

    monkeypatch.setattr("logdiff.solver.dptsv", spy)
    return calls


def implicit(grid, y_prev, w_next, dt, cfg):
    """The implicit core's new state for arrays y_prev and w_next, as a batch of one row."""
    y, _, _, failures = _step_implicit_core(
        y_prev[None], w_next[None], grid, np.array([[cfg.epsilon]]), dt, cfg.newton_tol,
        cfg.newton_max_iter,
    )
    if failures:
        raise failures[0]
    return y[0]


def explicit(grid, y_prev, w_prev, dt, cfg):
    return _step_explicit_core(y_prev, w_prev, grid, cfg.epsilon, dt)


def sine_run(grid, eps, t_final=0.05, n_steps=20):
    """Solve from sin(pi x) on a default noise path; returns (noise, trajectory)."""
    noise = default_noise(grid, eigensystem(grid, 8), t_final=t_final, n_steps=n_steps)
    x0 = Field(grid, np.sin(np.pi * grid.nodes))
    return noise, solve_path(x0, noise, SolverConfig(epsilon=eps))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1e-2, newton_tol=0.0)

    @pytest.mark.parametrize("budget", [2.5, np.nan, np.inf, 0, -1, 3.0, "3"])
    def test_newton_max_iter_must_be_an_integer_of_at_least_one(self, budget):
        # 2.5 would fail a step "in 2.5 iterations", and iters >= nan or inf never holds
        with pytest.raises(ValueError, match=re.escape(
                f"newton_max_iter must be an integer >= 1, got {budget}")):
            SolverConfig(epsilon=1e-2, newton_max_iter=budget)
        for budget in (1, np.int64(3)):
            assert SolverConfig(epsilon=1e-2, newton_max_iter=budget).newton_max_iter == budget


def spy_steps(monkeypatch):
    """Record each call of _step_implicit_core, which marches one step of a batch."""
    calls = []
    step = logdiff.solver._step_implicit_core
    monkeypatch.setattr("logdiff.solver._step_implicit_core",
                        lambda *args: calls.append(1) or step(*args))
    return calls


class TestEpsRule:
    """Every solve judges its eps by _check_step_range before its first step."""

    @pytest.mark.parametrize("rows", [
        [(42, 0.0)], [(42, -1e-2)], [(42, np.nan)], [(42, 1e-2), (43, -1e-2)]])
    def test_solve_rows_refuses_a_bad_eps_before_any_step(self, monkeypatch, rows):
        grid = GridSpec(length=1.0, n_interior=31)
        eigen = eigensystem(grid, 8)
        spec = NoiseSpec(k_max=8, gammas=PowerLawGammas(gamma0=1.0, decay=8.0), seed=42,
                         t_final=0.1, n_steps=50)
        steps = spy_steps(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(
                f"eps must be positive and finite, got {rows[-1][1]}")):
            list(solve_rows(Field(grid, np.sin(np.pi * grid.nodes)), eigen, spec,
                            SolverConfig(epsilon=1e-2), rows))
        assert steps == []

    @pytest.mark.parametrize("bad", [np.nan, -1e-2])
    def test_epsilon_sweep_refuses_a_bad_eps_before_any_step(self, monkeypatch, bad):
        steps = spy_steps(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(
                f"eps must be positive and finite, got {bad}")):
            epsilon_sweep(Field(G15, np.zeros(15)), zero_noise(G15), SolverConfig(epsilon=1e-2),
                          [1e-1, bad])
        assert steps == []

    def test_rows_at_one_eps_share_its_config(self):
        grid = GridSpec(length=1.0, n_interior=31)
        eigen = eigensystem(grid, 8)
        paths = [default_noise(grid, eigen, seed=s, t_final=6e-3, n_steps=6) for s in (1, 2)]
        cfg = SolverConfig(epsilon=1e-2, newton_tol=1e-11)
        trajs, error = logdiff.solver._solve_batch(
            Field(grid, np.zeros(31)), cfg, [(paths[0], 1e-3), (paths[1], 1e-3), (paths[0], 1e-2)])
        assert error is None
        assert trajs[0].config is trajs[1].config == replace(cfg, epsilon=1e-3)
        assert trajs[2].config == cfg


class TestImplicitStep:
    def test_zero_fixed_point(self):
        cfg = SolverConfig(epsilon=1e-2)
        z = np.zeros(15)
        assert np.all(implicit(G15, z, z, 1e-3, cfg) == 0.0)

    def test_symmetric_pair_bisection_oracle(self):
        # two interior nodes with equal data stay equal, so the step
        # collapses to the scalar equation y + (dt/h^2)*F(y + w) = y_prev
        g = GridSpec(length=1.0, n_interior=2)
        eps, dt, w, y_prev = 0.05, 1e-3, 0.7, 1.3
        cfg = SolverConfig(epsilon=eps)
        out = implicit(g, np.full(2, y_prev), np.full(2, w), dt, cfg)
        assert abs(out[0] - out[1]) < 1e-12
        scale = dt / g.h**2

        def res(y):
            return y + scale * yosida_shifted(eps, y + w) - y_prev

        lo, hi = -10.0, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if res(mid) <= 0:
                lo = mid
            else:
                hi = mid
        assert abs(out[0] - 0.5 * (lo + hi)) < 1e-10

    def test_increment_linear_in_dt(self):
        rng = np.random.default_rng(31)
        y_prev = rng.normal(0, 0.3, 15)
        w = rng.normal(0, 0.2, 15)
        norms = {}
        for dt in (1e-3, 1e-4, 1e-5, 1e-6):
            out = implicit(G15, y_prev, w, dt, SolverConfig(epsilon=1e-2))
            norms[dt] = _norm_l2(G15, out - y_prev)
            assert norms[dt] <= 200.0 * dt
        # asymptotically linear: tenfold dt drop shrinks the move ~tenfold
        assert 8.0 <= norms[1e-5] / norms[1e-6] <= 12.0

    def test_newton_residual_contract(self):
        rng = np.random.default_rng(13)
        cfg = SolverConfig(epsilon=1e-3, newton_tol=1e-11)
        y_prev = rng.normal(0, 0.5, 127)
        w = rng.normal(0, 0.3, 127)
        out = implicit(G127, y_prev, w, 1e-3, cfg)
        flux = yosida_shifted(cfg.epsilon, out + w)
        res = out - 1e-3 * _laplacian(flux, G127.h) - y_prev
        assert _norm_l2(G127, res) <= 1e-11

    def test_hminus1_contraction_of_state_pairs(self):
        # monotone flux: one implicit step brings two states closer in H^-1
        rng = np.random.default_rng(7)
        cfg = SolverConfig(epsilon=1e-2)
        for _ in range(10):
            a = rng.normal(0, 1.0, 15)
            b = rng.normal(0, 1.0, 15)
            w = rng.normal(0, 0.5, 15)
            before = norm_hminus1(Field(G15, a - b))
            oa, ob = implicit(G15, a, w, 5e-3, cfg), implicit(G15, b, w, 5e-3, cfg)
            after = norm_hminus1(Field(G15, oa - ob))
            assert after <= before * (1 + 1e-10)


class TestExplicitStep:
    def test_matches_implicit_to_second_order(self):
        rng = np.random.default_rng(31)
        y_prev = rng.normal(0, 0.3, 15)
        w = rng.normal(0, 0.2, 15)
        diffs = []
        for dt in (5e-4, 2.5e-4, 1.25e-4):
            cfg = SolverConfig(epsilon=1e-2)
            yi = implicit(G15, y_prev, w, dt, cfg)
            ye = explicit(G15, y_prev, w, dt, cfg)
            diffs.append(_norm_l2(G15, yi - ye))
        assert 3.0 <= diffs[0] / diffs[1] <= 4.5
        assert 3.0 <= diffs[1] / diffs[2] <= 4.5

    def test_stability_guard_trips(self):
        # flux slope peaks near state 0 where F' ~ 1, so
        # dt*(4/h^2)*max F' ~ 1e-3 * 1024 > 1 at h = 1/16
        z = np.zeros(15)
        cfg = SolverConfig(epsilon=1e-2)
        with pytest.raises(StepFailureError, match="explicit step unstable"):
            explicit(G15, z, z, 1e-3, cfg)

    def test_zero_fixed_point(self):
        cfg = SolverConfig(epsilon=1e-2)
        z = np.zeros(15)
        assert np.all(explicit(G15, z, z, 1e-4, cfg) == 0.0)

    def test_solve_explicit_fails_at_the_unstable_step(self):
        # dt * 4/h^2 = 0.995: stable for eps 1e-2 (max F' about 1.0001), not for eps 1e-1
        grid = GridSpec(length=1.0, n_interior=31)
        path = default_noise(grid, eigensystem(grid, 8), t_final=5 * 0.995 / 4096, n_steps=5)
        x0 = Field(grid, np.zeros(31))
        cfg = SolverConfig(epsilon=1e-2)
        traj = solve_explicit(x0, path, cfg)
        y = x0.values
        for n in range(5):  # noise at the left endpoint
            y = explicit(grid, y, path.values[n], path.dt, cfg)
            assert same_bits(traj.y_fields[n + 1], y)
        assert traj.config == cfg and traj.noise is path
        assert np.all(traj.newton_iters == 0) and np.all(traj.newton_residuals == 0.0)
        with pytest.raises(StepFailureError, match="explicit step unstable") as raised:
            solve_explicit(x0, path, SolverConfig(epsilon=1e-1))
        err = raised.value
        assert str(err).startswith("step 0 failed: explicit step unstable")
        assert (err.step, err.residual, type(err.__cause__)) == (0, None, StepFailureError)


class TestSolvePath:
    def test_zero_noise_zero_datum(self):
        noise = zero_noise(G15)
        cfg = SolverConfig(epsilon=1e-2)
        traj = solve_path(Field(G15, np.zeros(15)), noise, cfg)
        assert np.all(traj.x_fields == 0.0)
        assert np.all(traj.y_fields == 0.0)

    def test_zero_noise_l2_nonincreasing(self):
        noise = zero_noise(G15, t_final=0.5, n_steps=100)
        x0 = Field(G15, G15.nodes * (1 - G15.nodes) * 4.0)
        cfg = SolverConfig(epsilon=1e-2)
        traj = solve_path(x0, noise, cfg)
        norms = [norm_l2(traj.x_field(n)) for n in range(traj.n_steps + 1)]
        assert np.all(np.diff(norms) <= 1e-12)
        assert norms[-1] < norms[0]

    def test_zero_noise_preserves_symmetry(self):
        noise = zero_noise(G15, t_final=0.2, n_steps=40)
        x0 = Field(G15, np.sin(np.pi * G15.nodes))
        cfg = SolverConfig(epsilon=1e-2)
        traj = solve_path(x0, noise, cfg)
        for n in range(0, 41, 10):
            v = traj.y_fields[n]
            assert np.max(np.abs(v - v[::-1])) < 1e-9

    def test_initial_datum_stored_exactly(self):
        noise = default_noise(G127, E127)
        x0 = Field(G127, np.sin(np.pi * G127.nodes))
        cfg = SolverConfig(epsilon=1e-2)
        traj = solve_path(x0, noise, cfg)
        assert np.array_equal(traj.y_fields[0], x0.values)

    def test_x_equals_y_plus_noise_bitwise(self):
        noise = default_noise(G127, E127)
        cfg = SolverConfig(epsilon=1e-2)
        traj = solve_path(Field(G127, np.zeros(127)), noise, cfg)
        assert np.array_equal(traj.x_fields, traj.y_fields + noise.values)

    def test_mass_flux_identity(self):
        # summing the stencil telescopes: h*sum(Y_next - Y_prev) equals
        # -dt*(v_1 + v_n)/h with v the flux at the wall-adjacent nodes
        noise = default_noise(G15, E15, t_final=0.1, n_steps=50)
        cfg = SolverConfig(epsilon=1e-2)
        traj = solve_path(Field(G15, np.zeros(15)), noise, cfg)
        for n in (0, 10, 49):
            v = yosida_shifted(cfg.epsilon, traj.y_fields[n + 1] + noise.values[n + 1])
            lhs = G15.h * np.sum(traj.y_fields[n + 1] - traj.y_fields[n])
            rhs = -noise.dt * (v[0] + v[-1]) / G15.h
            assert abs(lhs - rhs) < 1e-12

    def test_deterministic_and_frozen_regression(self):
        noise = default_noise(G127, E127)
        cfg = SolverConfig(epsilon=1e-2)
        a = solve_path(Field(G127, np.zeros(127)), noise, cfg)
        b = solve_path(Field(G127, np.zeros(127)), noise, cfg)
        assert np.array_equal(a.y_fields, b.y_fields)
        # regression value captured at first run of this config
        assert abs(norm_l2(a.x_field(200)) - 0.16758300651217237) < 1e-13

    def test_newton_diagnostics_recorded(self):
        noise = default_noise(G127, E127)
        cfg = SolverConfig(epsilon=1e-2)
        traj = solve_path(Field(G127, np.zeros(127)), noise, cfg)
        assert traj.newton_iters.shape == (200,)
        assert np.all(traj.newton_iters >= 1)
        assert np.all(traj.newton_residuals <= cfg.newton_tol)
        assert np.all(traj.substeps == 1)

    def test_newton_matrix_is_the_tridiagonal_jacobian(self, monkeypatch):
        # dptsv gets the symmetrised matrix S with S diag(b) = J, and the step is z / b
        calls = spy_dptsv(monkeypatch)
        eps, n = 1e-2, G127.n_interior
        noise, traj = sine_run(G127, eps)
        for d, e, _ in calls:
            assert (d.shape, e.shape) == ((n,), (n - 1,))
            assert np.all(np.isfinite(d)) and np.all(d > 0) and np.all(np.isfinite(e))
        # each step's first Newton iteration linearizes at u = Y_n + W_{n+1}
        lap = (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / G127.h**2
        first = np.concatenate([[0], np.cumsum(traj.newton_iters)[:-1]])
        for step, call in enumerate(first):
            slope = 1.0 / (1.0 + np.abs(traj.y_fields[step] + noise.values[step + 1]))
            a = 1.0 + eps * slope
            b = slope + eps * a
            jac = np.diag(a) - noise.dt * lap @ np.diag(b)
            d, e, _ = calls[call]
            sym = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
            assert np.array_equal(sym, sym.T)
            for k in (-1, 0, 1):
                np.testing.assert_allclose(np.diag(sym @ np.diag(b), k), np.diag(jac, k),
                                           rtol=1e-14, atol=0)

    @pytest.mark.parametrize("eps", [1e-1, 1e-4])
    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_dptsv_is_bitwise_solveh_banded(self, monkeypatch, n, eps):
        calls = spy_dptsv(monkeypatch)
        sine_run(GridSpec(length=1.0, n_interior=n), eps, t_final=5e-3, n_steps=5)
        assert calls
        for d, e, rhs in calls:
            ab = np.zeros((2, n))
            ab[0, 1:], ab[1] = e, d
            *_, x, info = DPTSV(d, e, rhs)
            assert info == 0
            assert np.array_equal(x, solveh_banded(ab, rhs))

    def test_one_lapack_call_per_newton_iteration(self, monkeypatch):
        calls = spy_dptsv(monkeypatch)
        _, traj = sine_run(G127, 1e-2)
        assert len(calls) == traj.newton_iters.sum() > traj.n_steps

    def test_no_input_validation_inside_newton(self, monkeypatch):
        prepared = []
        prepare = logdiff.nonlinearity._prepare
        monkeypatch.setattr(
            "logdiff.nonlinearity._prepare", lambda x: prepared.append(1) or prepare(x)
        )
        _, traj = sine_run(G127, 1e-2)
        assert traj.newton_iters.sum() > 0
        assert prepared == []

    def test_failed_tridiagonal_solve_fails_its_step(self, monkeypatch):
        monkeypatch.setattr("logdiff.solver.dptsv", lambda d, e, b: (d, e, b, 1))
        with pytest.raises(StepFailureError, match="dptsv info 1") as err:
            sine_run(G127, 1e-2)
        assert err.value.step == 0

    def test_nan_residual_never_counts_as_converged(self):
        # the step does not validate its inputs; a NaN state must still fail it
        y_prev, w_next = np.full(15, np.nan), np.zeros(15)
        with pytest.raises(StepFailureError):
            implicit(G15, y_prev, w_next, 1e-3, SolverConfig(epsilon=1e-2))

    def test_overflowed_residual_is_not_at_the_rounding_floor(self):
        # the highest mode at amplitude 1e308: the residual itself, and so its norm and its
        # rounding floor, overflow to inf
        grid = GridSpec(length=1.0, n_interior=31)
        noise = default_noise(grid, eigensystem(grid, 8), t_final=5e-3, n_steps=5)
        x0 = Field(grid, 1e308 * eigensystem(grid, 31).eigenvectors[30])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(StepFailureError) as err:
                solve_path(x0, noise, SolverConfig(epsilon=1e-2))
        assert err.value.step == 0
        assert err.value.residual == np.inf

    def test_eps_whose_step_overflows_is_refused(self):
        # 4 (dt/h^2)(1 + eps + eps^2) on 31 nodes at dt = 1e-3: finite at 1e150, not at 1e200
        grid = GridSpec(length=1.0, n_interior=31)
        noise = default_noise(grid, eigensystem(grid, 8), t_final=5e-3, n_steps=5)
        x0 = Field(grid, np.sin(np.pi * grid.nodes))
        with np.errstate(over="ignore"):  # sums of squares overflow and are redone scaled
            traj = solve_path(x0, noise, SolverConfig(epsilon=1e150))
        assert np.all(traj.newton_residuals <= traj.config.newton_tol)
        for eps in (1e200, 1.4e154):
            with pytest.raises(ValueError, match="outside the float range"):
                solve_path(x0, noise, SolverConfig(epsilon=eps))

    def test_grid_mismatch_rejected(self):
        noise = default_noise(G127, E127)
        cfg = SolverConfig(epsilon=1e-2)
        for solve in (solve_path, solve_explicit):
            with pytest.raises(ValueError, match="different grid"):
                solve(Field(G15, np.zeros(15)), noise, cfg)


class TestTightTolerance:
    @pytest.mark.parametrize(
        "n, amplitude, epsilons, n_steps",
        [(255, 5.0, (1e-3,), 1), (1023, 1.0, (1e-3, 1e-4), 50)],
    )
    def test_reaches_1e12_without_retries(self, n, amplitude, epsilons, n_steps):
        grid = GridSpec(length=1.0, n_interior=n)
        noise = default_noise(grid, eigensystem(grid, 8), t_final=n_steps * 1e-3, n_steps=n_steps)
        x0 = Field(grid, amplitude * np.sin(np.pi * grid.nodes))
        for eps in epsilons:
            cfg = SolverConfig(epsilon=eps, newton_tol=1e-12)
            traj = solve_path(x0, noise, cfg)
            assert np.all(traj.substeps == 1)
            assert np.all(traj.newton_residuals <= cfg.newton_tol)
            assert np.array_equal(traj.x_fields, traj.y_fields + noise.values)


STRESS_DATA = {
    "zero": lambda x: np.zeros_like(x),
    "bump": lambda x: x * (1.0 - x),
    "amplitude5": lambda x: 5.0 * np.sin(np.pi * x),
}


def stress_setup(n, dt, datum, n_steps=20):
    """One datum and one noise path (seed 3) over n_steps steps of size dt."""
    grid = GridSpec(length=1.0, n_interior=n)
    noise = default_noise(grid, eigensystem(grid, 8), seed=3, t_final=n_steps * dt, n_steps=n_steps)
    return noise, Field(grid, STRESS_DATA[datum](grid.nodes))


def stress_cell(n, dt, datum, epsilons, tol):
    """20 steps from one datum on one noise path (seed 3) for each eps."""
    n_steps = 20
    noise, x0 = stress_setup(n, dt, datum, n_steps)
    for eps in epsilons:
        cfg = SolverConfig(epsilon=eps, newton_tol=tol)
        traj = solve_path(x0, noise, cfg)
        retries = int(traj.substeps.sum()) - n_steps
        assert retries == 0, f"eps {eps}: {retries} retry substeps"
        assert np.all(traj.newton_residuals <= tol)
        assert np.array_equal(traj.x_fields, traj.y_fields + noise.values)


class TestStressMatrix:
    @pytest.mark.parametrize("datum", sorted(STRESS_DATA))
    @pytest.mark.parametrize("dt", [1e-3, 1e-2])
    @pytest.mark.parametrize("n", [31, 127, 511, 1023])
    def test_default_tolerance_needs_no_retries(self, n, dt, datum):
        stress_cell(n, dt, datum, (1e-1, 1e-2, 1e-3, 1e-4), SolverConfig.newton_tol)

    # newton_tol is an absolute bound on the residual in Y; at 1023 nodes and
    # dt 1e-2 Newton stalls above tol 1e-12, at the residual's rounding floor
    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3, 1e-4])
    def test_tight_tolerance_stops_at_the_rounding_floor(self, eps):
        dt, tol = 1e-2, 1e-12
        noise, x0 = stress_setup(1023, dt, "amplitude5")
        cfg = SolverConfig(epsilon=eps, newton_tol=tol)
        traj = solve_path(x0, noise, cfg)
        y, x = traj.y_fields, traj.x_fields
        floors = _rounding_floor(x0.grid, y[1:], y[:-1], yosida_shifted(eps, x[1:]), dt)
        assert np.all(traj.newton_residuals <= np.maximum(tol, floors))
        assert np.all(traj.newton_residuals <= 1e-11)
        assert np.all(traj.newton_iters <= 5)
        assert np.array_equal(x, y + noise.values)


class TestRetryMachinery:
    """Violent single-mode noise (gamma 30) against Newton's iteration budget."""

    def violent_noise(self):
        spec = NoiseSpec(
            k_max=1,
            gammas=ExplicitGammas(gammas=(30.0,)),
            seed=9,
            t_final=0.1,
            n_steps=4,
        )
        return synthesize(spec, eigensystem(G15, 1), override_decay_check=True)

    def test_tight_newton_budget_fails_at_its_step(self):
        noise = self.violent_noise()
        cfg = SolverConfig(epsilon=1e-3, newton_max_iter=3)
        with pytest.raises(StepFailureError) as err:
            solve_path(Field(G15, np.zeros(15)), noise, cfg)
        assert err.value.step == 1

    def test_default_budget_converges_on_the_time_grid(self):
        noise = self.violent_noise()
        cfg = SolverConfig(epsilon=1e-3)
        traj = solve_path(Field(G15, np.zeros(15)), noise, cfg)
        assert traj.y_fields.shape == (5, 15)
        assert np.all(traj.newton_residuals <= cfg.newton_tol)

    def test_budget_exhaustion_fails_loudly(self):
        noise = self.violent_noise()
        cfg = SolverConfig(epsilon=1e-3, newton_max_iter=2)
        with pytest.raises(StepFailureError) as err:
            solve_path(Field(G15, np.zeros(15)), noise, cfg)
        assert err.value.step is not None


class TestEpsilonSweep:
    def test_requires_two_entries(self):
        noise = zero_noise(G15)
        cfg = SolverConfig(epsilon=1e-2)
        with pytest.raises(ValueError):
            epsilon_sweep(Field(G15, np.zeros(15)), noise, cfg, [1e-2])

    def test_rejects_increasing_list(self):
        noise = zero_noise(G15)
        cfg = SolverConfig(epsilon=1e-2)
        with pytest.raises(ValueError):
            epsilon_sweep(Field(G15, np.zeros(15)), noise, cfg, [1e-3, 1e-2])

    def test_identical_epsilons_give_zero_distance(self):
        noise = default_noise(G15, E15, t_final=0.1, n_steps=50)
        cfg = SolverConfig(epsilon=1e-2)
        rep = epsilon_sweep(Field(G15, np.zeros(15)), noise, cfg, [1e-2, 1e-2])
        assert rep.consecutive[0] == 0.0

    def test_zero_noise_zero_datum_all_zero(self):
        noise = zero_noise(G15)
        cfg = SolverConfig(epsilon=1e-2)
        rep = epsilon_sweep(
            Field(G15, np.zeros(15)), noise, cfg, [1e-1, 1e-2, 1e-3]
        )
        assert np.all(rep.pairwise == 0.0)
        # the flag means STRICT decrease, so all-zero ties do not qualify
        assert not rep.monotone_decreasing

    def test_distances_decrease_on_noisy_path(self):
        noise = default_noise(G15, E15, t_final=0.1, n_steps=100)
        cfg = SolverConfig(epsilon=1e-2)
        rep = epsilon_sweep(
            Field(G15, np.zeros(15)), noise, cfg,
            [1e-1, 3e-2, 1e-2, 3e-3, 1e-3],
        )
        assert np.all(np.diff(rep.consecutive) < 0)
        assert rep.monotone_decreasing
        # pairwise matrix is symmetric with zero diagonal
        assert np.allclose(rep.pairwise, rep.pairwise.T)
        assert np.all(np.diag(rep.pairwise) == 0.0)

    def test_one_batch_of_rows_each_solved_as_alone(self, monkeypatch):
        # the pairwise table keeps every row's Y, so the batching rule does not cut the sweep
        calls = []
        solve_batch = logdiff.solver._solve_batch

        def spy(x0, cfg, rows):  # epsilon_sweep turns each Y into Z; the spy keeps copies
            trajs, error = solve_batch(x0, cfg, rows)
            calls.append((rows, ([replace(t, y_fields=t.y_fields.copy()) for t in trajs], error)))
            return trajs, error

        monkeypatch.setattr("logdiff.solver._solve_batch", spy)
        monkeypatch.setattr("logdiff.solver._BATCH_VALUES", 1)
        noise = default_noise(G15, E15, t_final=0.02, n_steps=10)
        x0 = Field(G15, np.sin(np.pi * G15.nodes))
        cfg = SolverConfig(epsilon=1e-2)
        eps = [1e-1, 5e-2, 2.5e-2, 1.25e-2, 6e-3, 3e-3]
        rep = epsilon_sweep(x0, noise, cfg, eps)
        (rows, (trajs, error)), = calls
        assert rows == [(noise, e) for e in eps] and error is None
        assert_rows_alone(x0, cfg, rows, trajs)
        # each Y takes one sweep Z = U^-T Y, and a distance is max_n |Z_i - Z_j|_2.  It
        # agrees with max_n |Y_i - Y_j|_-1, one sweep per difference, to rounding of the
        # runs' own size: the difference cancels, so its relative error grows (1.5e-13 at
        # eps 6e-3 against 1.25e-2, 0.5 macheps of the runs' size)
        z = [DTBTRS(_factor(G15), t.y_fields.T, uplo="U", trans="T")[0].T for t in trajs]
        for i, j in [(0, 1), (2, 5), (4, 3)]:
            dist = max(_norm_l2(G15, a - b) for a, b in zip(z[i], z[j]))
            assert rep.pairwise[i, j] == dist
            by_difference = max(norm_hminus1(Field(G15, a - b))
                                for a, b in zip(trajs[i].y_fields, trajs[j].y_fields))
            size = max(np.max(_hminus1_norms(G15, trajs[k].y_fields)) for k in (i, j))
            assert abs(dist - by_difference) <= 4.0 * np.finfo(float).eps * size
            assert abs(dist - by_difference) <= 1e-12 * by_difference

    def test_each_z_is_made_in_its_y_store(self, monkeypatch):
        # the batch's Y arrays are swept in place, so the sweep copies no trajectory
        stores, results = [], []
        solve_batch, half_solve = logdiff.solver._solve_batch, logdiff.solver._half_solve

        def spy_batch(x0, cfg, rows):
            trajs, error = solve_batch(x0, cfg, rows)
            stores.extend(t.y_fields for t in trajs)
            return trajs, error

        monkeypatch.setattr("logdiff.solver._solve_batch", spy_batch)
        monkeypatch.setattr("logdiff.solver._half_solve",
                            lambda *args, **kw: results.append(half_solve(*args, **kw))
                            or results[-1])
        noise = default_noise(G15, E15, t_final=0.02, n_steps=10)
        x0 = Field(G15, np.sin(np.pi * G15.nodes))
        epsilon_sweep(x0, noise, SolverConfig(epsilon=1e-2), [1e-1, 1e-2, 1e-3])
        assert len(stores) == len(results) == 3
        for y, z in zip(stores, results):
            assert z.shape == (15, 11) and np.shares_memory(z, y)

    def test_raises_the_first_rows_error(self):
        grid = GridSpec(length=1.0, n_interior=31)
        noise = overflowing_path(grid)
        x0 = Field(grid, grid.nodes * (1.0 - grid.nodes))
        cfg = SolverConfig(epsilon=1e-2)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(StepFailureError) as alone:
                solve_path(x0, noise, replace(cfg, epsilon=1e-1))
            with pytest.raises(StepFailureError) as raised:
                epsilon_sweep(x0, noise, cfg, [1e-1, 1e-2, 1e-3])
        err = raised.value
        assert (str(err), err.step, err.residual) == (
            str(alone.value), alone.value.step, alone.value.residual)
        assert err.step == 2 and err.residual == np.inf  # step 2 reaches the noise at t_3


class TestEnsemble:
    def test_seeds_advance_per_path(self):
        spec = NoiseSpec(
            k_max=8,
            gammas=PowerLawGammas(gamma0=1.0, decay=8.0),
            seed=100,
            t_final=0.1,
            n_steps=20,
        )
        cfg = SolverConfig(epsilon=1e-2)
        trajs = list(run_ensemble(Field(G15, np.zeros(15)), E15, spec, cfg, 3))
        assert len(trajs) == 3
        seeds = [t.noise.spec.seed for t in trajs]
        assert seeds == [100, 101, 102]
        assert not np.array_equal(trajs[0].x_fields, trajs[1].x_fields)

    def ensemble_inputs(self):
        spec = NoiseSpec(
            k_max=8, gammas=PowerLawGammas(gamma0=1.0, decay=8.0),
            seed=100, t_final=0.1, n_steps=20,
        )
        cfg = SolverConfig(epsilon=1e-2)
        return Field(G15, np.zeros(15)), spec, cfg

    def test_lazy_contract(self, monkeypatch):
        x0, spec, cfg = self.ensemble_inputs()
        batches = []
        solve_batch = logdiff.solver._solve_batch

        def counting_solve(x0, cfg, rows):
            batches.append(len(rows))
            return solve_batch(x0, cfg, rows)

        monkeypatch.setattr("logdiff.solver._solve_batch", counting_solve)
        monkeypatch.setattr("logdiff.solver._BATCH_VALUES", 2 * 21 * 15)  # two paths a batch
        paths = run_ensemble(x0, E15, spec, cfg, 5)
        assert batches == []
        assert next(paths).noise.spec.seed == 100
        assert batches == [2]  # the first trajectory costs one batch
        assert next(paths).noise.spec.seed == 101 and batches == [2]
        assert [t.noise.spec.seed for t in paths] == [102, 103, 104]
        assert batches == [2, 2, 1]

        assert list(run_ensemble(x0, E15, spec, cfg, 0)) == []
        assert batches == [2, 2, 1]
        with pytest.raises(ValueError):
            run_ensemble(x0, E15, spec, cfg, -1)  # raised at call time, before iterating

        steep = replace(spec, gammas=PowerLawGammas(gamma0=1.0, decay=4.0))
        with pytest.raises(ValueError, match="decay check"):
            run_ensemble(x0, E15, steep, cfg, 1)  # judged at call time, before any solve
        assert batches == [2, 2, 1]
        traj = next(run_ensemble(x0, E15, steep, cfg, 1, override_decay_check=True))
        assert traj.noise.spec.gammas.decay == 4.0

    def test_workers_give_the_same_read_only_trajectories(self):
        x0, spec, cfg = self.ensemble_inputs()
        serial = list(run_ensemble(x0, E15, spec, cfg, 5))
        pooled = list(run_ensemble(x0, E15, spec, cfg, 5, workers=2))
        assert [t.noise.spec.seed for t in pooled] == [100, 101, 102, 103, 104]
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.x_fields, b.x_fields)
            assert np.array_equal(a.noise.values, b.noise.values)
            assert b.config == cfg and b.grid == G15
            for arr in (b.y_fields, b.x_fields, b.newton_iters, b.noise.values, b.noise.times):
                assert not arr.flags.writeable

    def test_pool_never_exceeds_the_path_count(self, monkeypatch):
        # nor the batch count; a fake executor records the pool size and solves in this process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        x0, spec, cfg = self.ensemble_inputs()
        serial = list(run_ensemble(x0, E15, spec, cfg, 5))
        # the 5 paths form one batch, which needs no pool
        assert all(np.array_equal(a.y_fields, b.y_fields)
                   for a, b in zip(serial, run_ensemble(x0, E15, spec, cfg, 5, workers=64)))
        assert sizes == []
        monkeypatch.setattr("logdiff.solver._BATCH_VALUES", 21 * 15)  # one path a batch
        pooled = list(run_ensemble(x0, E15, spec, cfg, 2, workers=64))
        pooled += run_ensemble(x0, E15, replace(spec, seed=102), cfg, 3, workers=2)
        assert sizes == [2, 2]
        assert all(np.array_equal(a.y_fields, b.y_fields) for a, b in zip(serial, pooled))


def same_bits(a, b):
    """Bitwise equality of two float arrays, which tells -0.0 from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_rows_alone(x0, cfg, rows, trajs):
    """Each batch trajectory has the bits of solve_path on its row alone."""
    assert len(trajs) == len(rows)
    for (path, eps), traj in zip(rows, trajs):
        alone = solve_path(x0, path, replace(cfg, epsilon=eps))
        assert traj.config == alone.config and traj.noise is path
        assert same_bits(traj.y_fields, alone.y_fields)
        assert np.array_equal(traj.newton_iters, alone.newton_iters)
        assert same_bits(traj.newton_residuals, alone.newton_residuals)


def overflowing_path(grid, n_steps=6, at=3):
    """A noise path of values +-1e308, alternating in space, from step `at` on.

    The Laplacian of the flux, and so the residual itself, overflows there.
    """
    values = np.zeros((n_steps + 1, grid.n_interior))
    values[at:] = 1e308 * (-1.0) ** np.arange(grid.n_interior)
    spec = NoiseSpec(k_max=1, gammas=ExplicitGammas(gammas=(0.0,)), seed=99,
                     t_final=n_steps * 1e-3, n_steps=n_steps)
    return logdiff.solver.NoisePath(spec, grid, np.linspace(0.0, spec.t_final, n_steps + 1),
                                    values)


class TestLockstep:
    """A batch of rows (noise path, eps) solved in lockstep against each row alone."""

    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_batch_is_bitwise_one_row_at_a_time(self, n):
        grid = GridSpec(length=1.0, n_interior=n)
        eigen = eigensystem(grid, 8)
        paths = [default_noise(grid, eigen, seed=s, t_final=8e-3, n_steps=8) for s in (1, 2, 3)]
        still = zero_noise(grid, t_final=8e-3, n_steps=8)  # from x0 = 0: 0 iterations a step
        rows = [(paths[0], 1e-1), (still, 1e-2), (paths[1], 1e-4), (paths[0], 1e-3),
                (paths[2], 1e-2), (paths[1], 1e-1)]
        x0 = Field(grid, np.zeros(n))
        cfg = SolverConfig(epsilon=1e-2)
        trajs, error = logdiff.solver._solve_batch(x0, cfg, rows)
        assert error is None
        assert np.all(trajs[1].newton_iters == 0) and np.all(trajs[0].newton_iters > 0)
        assert_rows_alone(x0, cfg, rows, trajs)

    def test_stress_cells_with_damping_and_floor_stops(self, monkeypatch):
        # amplitude 5 on 1023 nodes at dt 1e-2 and tol 1e-12: eps 1e-1 needs damping,
        # and every eps stops at the residual's rounding floor
        noise, x0 = stress_setup(1023, 1e-2, "amplitude5")
        other = default_noise(x0.grid, eigensystem(x0.grid, 8), seed=4, t_final=0.2, n_steps=20)
        rows = [(noise, 1e-1), (other, 1e-2), (noise, 1e-2), (noise, 1e-3), (noise, 1e-4),
                (other, 1e-1)]
        cfg = SolverConfig(epsilon=1e-2, newton_tol=1e-12)
        floors = []
        rounding_floor = logdiff.solver._rounding_floor
        monkeypatch.setattr("logdiff.solver._rounding_floor",
                            lambda *args: floors.append(1) or rounding_floor(*args))
        trajs, error = logdiff.solver._solve_batch(x0, cfg, rows)
        assert error is None and floors
        assert np.any(trajs[0].newton_residuals > cfg.newton_tol)
        assert_rows_alone(x0, cfg, rows, trajs)

    def test_failed_solve_leaves_the_next_rows_own_state_at_the_floor(self, monkeypatch):
        # row 0's dptsv fails and row 1 gets a zero step, so row 1 stalls and stops at the
        # (patched) rounding floor in the same iteration, with its own state
        rng = np.random.default_rng(3)
        y_prev, w = rng.normal(0, 0.5, (2, 15)), rng.normal(0, 0.2, (2, 15))
        eps, dt = np.array([[1e-2], [1e-3]]), 1e-3
        monkeypatch.setattr("logdiff.solver._rounding_floor", lambda *args: np.inf)

        def directions(u, r, rnorm, e, scale, work=None):
            return np.zeros_like(u), ({0: 1} if len(u) == 2 else {})

        monkeypatch.setattr("logdiff.solver._newton_directions", directions)
        y, iters, res, failures = _step_implicit_core(y_prev, w, G15, eps, dt, 1e-10, 50)
        alone = _step_implicit_core(y_prev[1:], w[1:], G15, eps[1:], dt, 1e-10, 50)
        assert list(failures) == [0] and "dptsv info 1" in str(failures[0])
        assert alone[3] == {} and res[1] > 1e-10
        assert same_bits(y[1], alone[0][0])
        assert iters[1] == alone[1][0] == 0 and res[1] == alone[2][0]

    def test_stacked_solve_is_each_rows_own_dgtsv(self):
        # exact zeros of both signs at and across the block boundaries keep their bits,
        # including rows whose right-hand side is all +0 or all -0 after either sign
        rng = np.random.default_rng(5)
        k, n, scale = 8, 31, 7.0
        u = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-3, 4, (k, 1))
        r = rng.standard_normal((k, n))
        r[:, [0, -1]] = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -5.0], [0.0, 0.0], [1e-300, 5.0],
                         [-0.0, 0.0], [0.0, 0.0], [0.0, -0.0]]
        r[3] = 0.0
        r[5] = 0.0
        r[6] = -0.0
        eps = 10.0 ** -rng.integers(1, 5, (k, 1))
        rnorm = np.sqrt(np.einsum("ij,ij->i", r, r))
        delta, failed = logdiff.solver._newton_directions(u, r, rnorm, eps, scale)
        assert failed == {}
        for i in range(k):
            alone, _ = logdiff.solver._newton_directions(u[i:i + 1], r[i:i + 1], rnorm[i:i + 1],
                                                         eps[i:i + 1], scale)
            assert same_bits(delta[i], alone[0])

    def test_stacked_rows_keep_their_bits_when_a_block_starts_with_minus_zero(self):
        # each block's right-hand side -r starts with -0.0 after a block that ends in a value
        # of either sign; the pad row's +0 is subtracted from it in the forward sweep and
        # from its solution in the back sweep, and rows whose right-hand side is all -0.0
        # solve to -0.0 throughout, as they do alone
        rng = np.random.default_rng(11)
        k, n, scale = 6, 15, 3.0
        u = rng.standard_normal((k, n))
        r = rng.standard_normal((k, n))
        r[:, 0] = 0.0
        r[:, -1] = [5.0, -5.0, 0.0, -5.0, 5.0, -0.0]
        r[2] = 0.0
        r[5] = 0.0
        eps = 10.0 ** -rng.integers(1, 5, (k, 1))
        rnorm = np.sqrt(np.einsum("ij,ij->i", r, r))
        delta, failed = logdiff.solver._newton_directions(u, r, rnorm, eps, scale)
        assert failed == {}
        assert np.all(np.signbit(delta[[2, 5]])) and np.all(delta[[2, 5]] == 0.0)
        for i in range(k):
            alone, _ = logdiff.solver._newton_directions(u[i:i + 1], r[i:i + 1], rnorm[i:i + 1],
                                                         eps[i:i + 1], scale)
            assert same_bits(delta[i], alone[0])

    def test_stacked_step_is_solved_in_place_in_work(self):
        # dptsv overwrites the operands in work, so the step is a view of work with the bits
        # of a step solved in a fresh array; work's stale NaNs and spare rows are never read
        rng = np.random.default_rng(7)
        k, n, scale = 4, 31, 7.0
        u, r = rng.standard_normal((2, k, n))
        eps = 10.0 ** -rng.integers(1, 5, (k, 1))
        rnorm = np.sqrt(np.einsum("ij,ij->i", r, r))
        work = np.full((3, k + 2, n + 1), np.nan)
        delta, failed = logdiff.solver._newton_directions(u, r, rnorm, eps, scale, work[:, :k])
        fresh, _ = logdiff.solver._newton_directions(u, r, rnorm, eps, scale)
        assert failed == {} and np.shares_memory(delta, work)
        assert same_bits(delta, fresh)

    def test_failing_row_yields_the_rows_before_it_then_its_error(self):
        grid = GridSpec(length=1.0, n_interior=31)
        eigen = eigensystem(grid, 8)
        good = [default_noise(grid, eigen, seed=s, t_final=6e-3, n_steps=6) for s in (1, 2, 3)]
        late, early = overflowing_path(grid, at=4), overflowing_path(grid, at=2)
        x0 = Field(grid, grid.nodes * (1.0 - grid.nodes))
        cfg = SolverConfig(epsilon=1e-2)
        # the later-failing row comes first, so its error is the batch's
        rows = [(good[0], 1e-2), (good[1], 1e-3), (late, 1e-2), (good[2], 1e-2), (early, 1e-2)]
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(StepFailureError) as alone:
                solve_path(x0, late, cfg)
            trajs, error = logdiff.solver._solve_batch(x0, cfg, rows)
            solved = []
            with pytest.raises(StepFailureError) as raised:
                batch = logdiff.solver._solve_batch(x0, cfg, rows)
                for traj in logdiff.solver._yield_rows([batch]):
                    solved.append(traj)
        assert alone.value.step == 3 and alone.value.residual == np.inf
        for err in (error, raised.value):
            assert type(err) is StepFailureError
            assert (str(err), err.step, err.residual) == (
                str(alone.value), alone.value.step, alone.value.residual)
        assert_rows_alone(x0, cfg, rows[:2], trajs)
        assert [t.noise for t in solved] == [good[0], good[1]]

    @pytest.mark.parametrize("fault", ["info", "nan"])
    def test_faulty_stacked_solve_falls_back_to_one_row_at_a_time(self, monkeypatch, fault):
        grid = GridSpec(length=1.0, n_interior=31)
        eigen = eigensystem(grid, 8)
        paths = [default_noise(grid, eigen, seed=s, t_final=5e-3, n_steps=5) for s in (1, 2, 3)]
        rows = [(paths[0], 1e-2), (paths[1], 1e-3), (paths[2], 1e-1)]
        x0 = Field(grid, np.sin(np.pi * grid.nodes))
        cfg = SolverConfig(epsilon=1e-2)
        stacked, alone = [], []

        def faulty(d, e, b, **overwrite):
            *ldl, x, info = DPTSV(d, e, b, **overwrite)
            if d.size == grid.n_interior:
                alone.append(1)
                return (*ldl, x, info)
            stacked.append(1)
            if fault == "info":
                return (*ldl, x, 2)
            x = x.copy()
            x[grid.n_interior + 1 + 5] = np.nan  # one entry of the second row's block
            return (*ldl, x, info)

        monkeypatch.setattr("logdiff.solver.dptsv", faulty)
        trajs, error = logdiff.solver._solve_batch(x0, cfg, rows)
        assert error is None and stacked and alone
        monkeypatch.setattr("logdiff.solver.dptsv", DPTSV)
        assert_rows_alone(x0, cfg, rows, trajs)

    def test_batching_rule(self, monkeypatch):
        # a batch holds at most 2^19 state values: 8 paths of 127 nodes and 500 steps
        rows = list(range(20))
        assert [len(b) for b in logdiff.solver._batches(rows, 501 * 127)] == [8, 8, 4]
        assert [len(b) for b in logdiff.solver._batches(rows[:5], 501 * 127)] == [5]
        assert [len(b) for b in logdiff.solver._batches(rows[:3], 2**20)] == [1, 1, 1]
        assert logdiff.solver._batches([], 10) == []
