"""Implicit/explicit steppers, the path driver, and the epsilon sweep."""

import concurrent.futures
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv as DGTSV

import logdiff.nonlinearity
import logdiff.solver
from logdiff.grid import (
    Field,
    GridSpec,
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
    StabilityError,
    StepFailureError,
    _rounding_floor,
    _step_explicit_core,
    _step_implicit_core,
    epsilon_sweep,
    run_ensemble,
    solve_path,
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


def spy_dgtsv(monkeypatch):
    """Record copies of (dl, d, du, b) for each dgtsv call the solver makes."""
    calls = []

    def spy(dl, d, du, b):
        calls.append(tuple(np.array(v) for v in (dl, d, du, b)))
        return DGTSV(dl, d, du, b)

    monkeypatch.setattr("logdiff.solver.dgtsv", spy)
    return calls


def implicit(grid, y_prev, w_next, dt, cfg):
    """The implicit core's new state for arrays y_prev and w_next."""
    return _step_implicit_core(
        y_prev, w_next, grid, cfg.epsilon, dt, cfg.newton_tol, cfg.newton_max_iter
    )[0]


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
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1e-2, newton_max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1e-2, scheme="midpoint")


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
        with pytest.raises(StabilityError):
            explicit(G15, z, z, 1e-3, cfg)

    def test_zero_fixed_point(self):
        cfg = SolverConfig(epsilon=1e-2)
        z = np.zeros(15)
        assert np.all(explicit(G15, z, z, 1e-4, cfg) == 0.0)


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
        calls = spy_dgtsv(monkeypatch)
        eps, n = 1e-2, G127.n_interior
        noise, traj = sine_run(G127, eps)
        for dl, d, du, _ in calls:
            assert (dl.shape, d.shape, du.shape) == ((n - 1,), (n,), (n - 1,))
            assert np.all(np.isfinite(dl)) and np.all(np.isfinite(d)) and np.all(np.isfinite(du))
        # each step's first Newton iteration linearizes at u = Y_n + W_{n+1}
        lap = (np.eye(n, k=-1) - 2.0 * np.eye(n) + np.eye(n, k=1)) / G127.h**2
        first = np.concatenate([[0], np.cumsum(traj.newton_iters)[:-1]])
        for step, call in enumerate(first):
            slope = 1.0 / (1.0 + np.abs(traj.y_fields[step] + noise.values[step + 1]))
            a = 1.0 + eps * slope
            jac = np.diag(a) - noise.dt * lap @ np.diag(slope + eps * a)
            dl, d, du, _ = calls[call]
            for k, diagonal in ((-1, dl), (0, d), (1, du)):
                np.testing.assert_allclose(diagonal, np.diag(jac, k), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("eps", [1e-1, 1e-4])
    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_dgtsv_is_bitwise_solve_banded(self, monkeypatch, n, eps):
        calls = spy_dgtsv(monkeypatch)
        sine_run(GridSpec(length=1.0, n_interior=n), eps, t_final=5e-3, n_steps=5)
        assert calls
        for dl, d, du, rhs in calls:
            ab = np.zeros((3, n))
            ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
            *_, x, info = DGTSV(dl, d, du, rhs)
            assert info == 0
            assert np.array_equal(x, solve_banded((1, 1), ab, rhs))

    def test_one_lapack_call_per_newton_iteration(self, monkeypatch):
        calls = spy_dgtsv(monkeypatch)
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
        monkeypatch.setattr("logdiff.solver.dgtsv", lambda dl, d, du, b: (dl, d, du, b, 1))
        with pytest.raises(StepFailureError, match="dgtsv info 1") as err:
            sine_run(G127, 1e-2)
        assert err.value.step == 0

    def test_nan_residual_never_counts_as_converged(self):
        # the step does not validate its inputs; a NaN state must still fail it
        y_prev, w_next = np.full(15, np.nan), np.zeros(15)
        with pytest.raises(StepFailureError):
            _step_implicit_core(y_prev, w_next, G15, 1e-2, 1e-3, 1e-10, 50)

    def test_overflowed_residual_is_not_at_the_rounding_floor(self):
        # near 1e300 the residual norm and its rounding floor both overflow to inf
        grid = GridSpec(length=1.0, n_interior=31)
        noise = default_noise(grid, eigensystem(grid, 8), t_final=5e-3, n_steps=5)
        x0 = Field(grid, 1e300 * grid.nodes * (1.0 - grid.nodes))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(StepFailureError) as err:
                solve_path(x0, noise, SolverConfig(epsilon=1e-2))
        assert err.value.step == 0
        assert err.value.residual == np.inf

    def test_grid_mismatch_rejected(self):
        noise = default_noise(G127, E127)
        cfg = SolverConfig(epsilon=1e-2)
        with pytest.raises(ValueError):
            solve_path(Field(G15, np.zeros(15)), noise, cfg)


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
        floors = [
            _rounding_floor(x0.grid, y[n + 1], y[n], yosida_shifted(eps, x[n + 1]), dt)
            for n in range(traj.n_steps)
        ]
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
        solved = []
        solve = logdiff.solver.solve_path

        def counting_solve(*args):
            solved.append(1)
            return solve(*args)

        monkeypatch.setattr("logdiff.solver.solve_path", counting_solve)
        paths = run_ensemble(x0, E15, spec, cfg, 5)
        assert next(paths).noise.spec.seed == 100
        assert len(solved) == 1

        assert list(run_ensemble(x0, E15, spec, cfg, 0)) == []
        with pytest.raises(ValueError):
            run_ensemble(x0, E15, spec, cfg, -1)  # raised at call time, before iterating

        steep = replace(spec, gammas=PowerLawGammas(gamma0=1.0, decay=4.0))
        with pytest.raises(ValueError, match="decay check"):
            next(run_ensemble(x0, E15, steep, cfg, 1))
        traj = next(run_ensemble(x0, E15, steep, cfg, 1, override_decay_check=True))
        assert traj.noise.spec.gammas.decay == 4.0

    def test_workers_give_the_same_read_only_trajectories(self):
        x0, spec, cfg = self.ensemble_inputs()
        serial = list(run_ensemble(x0, E15, spec, cfg, 5))
        pooled = list(run_ensemble(x0, E15, spec, cfg, 5, workers=2))
        assert [t.noise.spec.seed for t in pooled] == [100, 101, 102, 103, 104]
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.x_fields, b.x_fields)
            assert np.array_equal(a.noise.brownian, b.noise.brownian)
            assert b.config == cfg and b.grid == G15
            for arr in (b.y_fields, b.x_fields, b.newton_iters, b.noise.values, b.noise.brownian):
                assert not arr.flags.writeable

    def test_pool_never_exceeds_the_path_count(self, monkeypatch):
        # a fake executor records the pool size and solves in this process
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
        pooled = list(run_ensemble(x0, E15, spec, cfg, 2, workers=64))
        pooled += run_ensemble(x0, E15, replace(spec, seed=102), cfg, 3, workers=2)
        assert sizes == [2, 2]
        assert all(np.array_equal(a.y_fields, b.y_fields) for a, b in zip(serial, pooled))
