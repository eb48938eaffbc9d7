"""Implicit/explicit steppers, the path driver, and the epsilon sweep."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

import logdiff.solver
from logdiff.grid import Field, GridSpec, eigensystem, norm_hminus1, norm_l2
from logdiff.noise import ExplicitGammas, NoiseSpec, PowerLawGammas, synthesize
from logdiff.nonlinearity import yosida_shifted
from logdiff.solver import (
    SolverConfig,
    StabilityError,
    StepFailureError,
    _rounding_floor,
    epsilon_sweep,
    run_ensemble,
    solve_path,
    step_explicit,
    step_implicit,
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
    return synthesize(spec, grid, eigensystem(grid, 1))


def default_noise(grid, eigen, seed=42, t_final=0.5, n_steps=200):
    spec = NoiseSpec(
        k_max=8,
        gammas=PowerLawGammas(gamma0=1.0, decay=8.0),
        seed=seed,
        t_final=t_final,
        n_steps=n_steps,
    )
    return synthesize(spec, grid, eigen)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0, dt=1e-3, t_final=0.1)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1e-2, dt=0.0, t_final=0.1)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1e-2, dt=1e-3, t_final=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1e-2, dt=3e-4, t_final=0.1)  # dt must divide T
        with pytest.raises(ValueError):
            SolverConfig(epsilon=1e-2, dt=1e-3, t_final=0.1, scheme="midpoint")

    def test_n_steps(self):
        cfg = SolverConfig(epsilon=1e-2, dt=1e-3, t_final=0.1)
        assert cfg.n_steps == 100


class TestImplicitStep:
    def test_zero_fixed_point(self):
        cfg = SolverConfig(epsilon=1e-2, dt=1e-3, t_final=1e-3)
        z = Field(G15, np.zeros(15))
        out = step_implicit(z, z, cfg)
        assert np.all(out.values == 0.0)

    def test_symmetric_pair_bisection_oracle(self):
        # two interior nodes with equal data stay equal, so the step
        # collapses to the scalar equation y + (dt/h^2)*F(y + w) = y_prev
        g = GridSpec(length=1.0, n_interior=2)
        eps, dt, w, y_prev = 0.05, 1e-3, 0.7, 1.3
        cfg = SolverConfig(epsilon=eps, dt=dt, t_final=dt)
        out = step_implicit(Field(g, np.full(2, y_prev)), Field(g, np.full(2, w)), cfg)
        assert abs(out.values[0] - out.values[1]) < 1e-12
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
        assert abs(out.values[0] - 0.5 * (lo + hi)) < 1e-10

    def test_increment_linear_in_dt(self):
        rng = np.random.default_rng(31)
        y_prev = Field(G15, rng.normal(0, 0.3, 15))
        w = Field(G15, rng.normal(0, 0.2, 15))
        norms = {}
        for dt in (1e-3, 1e-4, 1e-5, 1e-6):
            cfg = SolverConfig(epsilon=1e-2, dt=dt, t_final=dt)
            out = step_implicit(y_prev, w, cfg)
            norms[dt] = norm_l2(Field(G15, out.values - y_prev.values))
            assert norms[dt] <= 200.0 * dt
        # asymptotically linear: tenfold dt drop shrinks the move ~tenfold
        assert 8.0 <= norms[1e-5] / norms[1e-6] <= 12.0

    def test_newton_residual_contract(self):
        rng = np.random.default_rng(13)
        cfg = SolverConfig(epsilon=1e-3, dt=1e-3, t_final=1e-3, newton_tol=1e-11)
        y_prev = Field(G127, rng.normal(0, 0.5, 127))
        w = Field(G127, rng.normal(0, 0.3, 127))
        out = step_implicit(y_prev, w, cfg)
        from logdiff.grid import laplacian_apply

        flux = Field(G127, yosida_shifted(cfg.epsilon, out.values + w.values))
        res = out.values - cfg.dt * laplacian_apply(flux).values - y_prev.values
        assert norm_l2(Field(G127, res)) <= 1e-11

    def test_hminus1_contraction_of_state_pairs(self):
        # monotone flux: one implicit step brings two states closer in H^-1
        rng = np.random.default_rng(7)
        cfg = SolverConfig(epsilon=1e-2, dt=5e-3, t_final=5e-3)
        for _ in range(10):
            a = Field(G15, rng.normal(0, 1.0, 15))
            b = Field(G15, rng.normal(0, 1.0, 15))
            w = Field(G15, rng.normal(0, 0.5, 15))
            before = norm_hminus1(Field(G15, a.values - b.values))
            oa, ob = step_implicit(a, w, cfg), step_implicit(b, w, cfg)
            after = norm_hminus1(Field(G15, oa.values - ob.values))
            assert after <= before * (1 + 1e-10)


class TestExplicitStep:
    def test_matches_implicit_to_second_order(self):
        rng = np.random.default_rng(31)
        y_prev = Field(G15, rng.normal(0, 0.3, 15))
        w = Field(G15, rng.normal(0, 0.2, 15))
        diffs = []
        for dt in (5e-4, 2.5e-4, 1.25e-4):
            cfg = SolverConfig(epsilon=1e-2, dt=dt, t_final=dt)
            yi = step_implicit(y_prev, w, cfg)
            ye = step_explicit(y_prev, w, cfg)
            diffs.append(norm_l2(Field(G15, yi.values - ye.values)))
        assert 3.0 <= diffs[0] / diffs[1] <= 4.5
        assert 3.0 <= diffs[1] / diffs[2] <= 4.5

    def test_stability_guard_trips(self):
        # flux slope peaks near state 0 where F' ~ 1, so
        # dt*(4/h^2)*max F' ~ 1e-3 * 1024 > 1 at h = 1/16
        y = Field(G15, np.zeros(15))
        w = Field(G15, np.zeros(15))
        cfg = SolverConfig(epsilon=1e-2, dt=1e-3, t_final=1e-3)
        with pytest.raises(StabilityError):
            step_explicit(y, w, cfg)

    def test_zero_fixed_point(self):
        cfg = SolverConfig(epsilon=1e-2, dt=1e-4, t_final=1e-4)
        z = Field(G15, np.zeros(15))
        assert np.all(step_explicit(z, z, cfg).values == 0.0)


class TestSolvePath:
    def test_zero_noise_zero_datum(self):
        noise = zero_noise(G15)
        cfg = SolverConfig(epsilon=1e-2, dt=0.1 / 20, t_final=0.1)
        traj = solve_path(Field(G15, np.zeros(15)), noise, cfg)
        assert np.all(traj.x_fields == 0.0)
        assert np.all(traj.y_fields == 0.0)

    def test_zero_noise_l2_nonincreasing(self):
        noise = zero_noise(G15, t_final=0.5, n_steps=100)
        x0 = Field(G15, G15.nodes * (1 - G15.nodes) * 4.0)
        cfg = SolverConfig(epsilon=1e-2, dt=0.5 / 100, t_final=0.5)
        traj = solve_path(x0, noise, cfg)
        norms = [norm_l2(traj.x_field(n)) for n in range(traj.n_steps + 1)]
        assert np.all(np.diff(norms) <= 1e-12)
        assert norms[-1] < norms[0]

    def test_zero_noise_preserves_symmetry(self):
        noise = zero_noise(G15, t_final=0.2, n_steps=40)
        x0 = Field(G15, np.sin(np.pi * G15.nodes))
        cfg = SolverConfig(epsilon=1e-2, dt=0.2 / 40, t_final=0.2)
        traj = solve_path(x0, noise, cfg)
        for n in range(0, 41, 10):
            v = traj.y_fields[n]
            assert np.max(np.abs(v - v[::-1])) < 1e-9

    def test_initial_datum_stored_exactly(self):
        noise = default_noise(G127, E127)
        x0 = Field(G127, np.sin(np.pi * G127.nodes))
        cfg = SolverConfig(epsilon=1e-2, dt=0.5 / 200, t_final=0.5)
        traj = solve_path(x0, noise, cfg)
        assert np.array_equal(traj.y_fields[0], x0.values)

    def test_x_equals_y_plus_noise_bitwise(self):
        noise = default_noise(G127, E127)
        cfg = SolverConfig(epsilon=1e-2, dt=0.5 / 200, t_final=0.5)
        traj = solve_path(Field(G127, np.zeros(127)), noise, cfg)
        assert np.array_equal(traj.x_fields, traj.y_fields + noise.values)

    def test_mass_flux_identity(self):
        # summing the stencil telescopes: h*sum(Y_next - Y_prev) equals
        # -dt*(v_1 + v_n)/h with v the flux at the wall-adjacent nodes
        noise = default_noise(G15, E15, t_final=0.1, n_steps=50)
        cfg = SolverConfig(epsilon=1e-2, dt=0.1 / 50, t_final=0.1)
        traj = solve_path(Field(G15, np.zeros(15)), noise, cfg)
        for n in (0, 10, 49):
            v = yosida_shifted(cfg.epsilon, traj.y_fields[n + 1] + noise.values[n + 1])
            lhs = G15.h * np.sum(traj.y_fields[n + 1] - traj.y_fields[n])
            rhs = -cfg.dt * (v[0] + v[-1]) / G15.h
            assert abs(lhs - rhs) < 1e-12

    def test_deterministic_and_frozen_regression(self):
        noise = default_noise(G127, E127)
        cfg = SolverConfig(epsilon=1e-2, dt=0.5 / 200, t_final=0.5)
        a = solve_path(Field(G127, np.zeros(127)), noise, cfg)
        b = solve_path(Field(G127, np.zeros(127)), noise, cfg)
        assert np.array_equal(a.y_fields, b.y_fields)
        # regression value captured at first run of this config
        assert abs(norm_l2(a.x_field(200)) - 0.16758300651217237) < 1e-13

    def test_newton_diagnostics_recorded(self):
        noise = default_noise(G127, E127)
        cfg = SolverConfig(epsilon=1e-2, dt=0.5 / 200, t_final=0.5)
        traj = solve_path(Field(G127, np.zeros(127)), noise, cfg)
        assert traj.newton_iters.shape == (200,)
        assert np.all(traj.newton_iters >= 1)
        assert np.all(traj.newton_residuals <= cfg.newton_tol)
        assert np.all(traj.substeps == 1)

    def test_band_matrix_is_finite_with_zero_corners(self, monkeypatch):
        # solve_banded rejects a band array with a non-finite entry anywhere,
        # including the two corners outside the tridiagonal matrix
        seen = []

        def checked(l_and_u, ab, b):
            assert np.all(np.isfinite(ab))
            assert ab[0, 0] == ab[2, -1] == 0.0
            seen.append(ab.shape)
            return solve_banded(l_and_u, ab, b)

        monkeypatch.setattr("logdiff.solver.solve_banded", checked)
        noise = default_noise(G127, E127, t_final=0.05, n_steps=20)
        cfg = SolverConfig(epsilon=1e-2, dt=0.05 / 20, t_final=0.05)
        solve_path(Field(G127, np.sin(np.pi * G127.nodes)), noise, cfg)
        assert seen and all(shape == (3, 127) for shape in seen)

    def test_grid_mismatch_rejected(self):
        noise = default_noise(G127, E127)
        cfg = SolverConfig(epsilon=1e-2, dt=0.5 / 200, t_final=0.5)
        with pytest.raises(ValueError):
            solve_path(Field(G15, np.zeros(15)), noise, cfg)

    def test_time_grid_mismatch_rejected(self):
        noise = default_noise(G127, E127, n_steps=200, t_final=0.5)
        cfg = SolverConfig(epsilon=1e-2, dt=1e-3, t_final=0.5)  # 500 steps
        with pytest.raises(ValueError):
            solve_path(Field(G127, np.zeros(127)), noise, cfg)


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
            cfg = SolverConfig(epsilon=eps, dt=1e-3, t_final=n_steps * 1e-3, newton_tol=1e-12)
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
    t_final = n_steps * dt
    noise, x0 = stress_setup(n, dt, datum, n_steps)
    for eps in epsilons:
        cfg = SolverConfig(epsilon=eps, dt=dt, t_final=t_final, newton_tol=tol)
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
        cfg = SolverConfig(epsilon=eps, dt=dt, t_final=noise.spec.t_final, newton_tol=tol)
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
        return synthesize(spec, G15, eigensystem(G15, 1), override_decay_check=True)

    def test_tight_newton_budget_fails_at_its_step(self):
        noise = self.violent_noise()
        cfg = SolverConfig(epsilon=1e-3, dt=0.025, t_final=0.1, newton_max_iter=3)
        with pytest.raises(StepFailureError) as err:
            solve_path(Field(G15, np.zeros(15)), noise, cfg)
        assert err.value.step == 1

    def test_default_budget_converges_on_the_time_grid(self):
        noise = self.violent_noise()
        cfg = SolverConfig(epsilon=1e-3, dt=0.025, t_final=0.1)
        traj = solve_path(Field(G15, np.zeros(15)), noise, cfg)
        assert traj.y_fields.shape == (5, 15)
        assert np.all(traj.newton_residuals <= cfg.newton_tol)

    def test_budget_exhaustion_fails_loudly(self):
        noise = self.violent_noise()
        cfg = SolverConfig(epsilon=1e-3, dt=0.025, t_final=0.1, newton_max_iter=2)
        with pytest.raises(StepFailureError) as err:
            solve_path(Field(G15, np.zeros(15)), noise, cfg)
        assert err.value.step is not None


class TestEpsilonSweep:
    def test_requires_two_entries(self):
        noise = zero_noise(G15)
        cfg = SolverConfig(epsilon=1e-2, dt=0.1 / 20, t_final=0.1)
        with pytest.raises(ValueError):
            epsilon_sweep(Field(G15, np.zeros(15)), noise, cfg, [1e-2])

    def test_rejects_increasing_list(self):
        noise = zero_noise(G15)
        cfg = SolverConfig(epsilon=1e-2, dt=0.1 / 20, t_final=0.1)
        with pytest.raises(ValueError):
            epsilon_sweep(Field(G15, np.zeros(15)), noise, cfg, [1e-3, 1e-2])

    def test_identical_epsilons_give_zero_distance(self):
        noise = default_noise(G15, E15, t_final=0.1, n_steps=50)
        cfg = SolverConfig(epsilon=1e-2, dt=0.1 / 50, t_final=0.1)
        rep = epsilon_sweep(Field(G15, np.zeros(15)), noise, cfg, [1e-2, 1e-2])
        assert rep.consecutive[0] == 0.0

    def test_zero_noise_zero_datum_all_zero(self):
        noise = zero_noise(G15)
        cfg = SolverConfig(epsilon=1e-2, dt=0.1 / 20, t_final=0.1)
        rep = epsilon_sweep(
            Field(G15, np.zeros(15)), noise, cfg, [1e-1, 1e-2, 1e-3]
        )
        assert np.all(rep.pairwise == 0.0)
        # the flag means STRICT decrease, so all-zero ties do not qualify
        assert not rep.monotone_decreasing

    def test_distances_decrease_on_noisy_path(self):
        noise = default_noise(G15, E15, t_final=0.1, n_steps=100)
        cfg = SolverConfig(epsilon=1e-2, dt=1e-3, t_final=0.1)
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
        cfg = SolverConfig(epsilon=1e-2, dt=0.1 / 20, t_final=0.1)
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
        cfg = SolverConfig(epsilon=1e-2, dt=0.1 / 20, t_final=0.1)
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
