"""Checks over finished trajectories: bounds, the solution inequality, diagnostics."""

import weakref

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from logdiff.grid import (
    Field,
    GridSpec,
    eigensystem,
    laplacian_resolvent,
    neg_laplacian_inverse,
    norm_hminus1,
    norm_l2,
)
from logdiff.noise import ExplicitGammas, NoiseSpec, PowerLawGammas, restrict, synthesize
from logdiff.solver import SolverConfig, run_ensemble, solve_path
from logdiff.verifier import (
    Flag,
    Report,
    _cumulative_trapezoid,
    build_test_process,
    flux_l1_integral,
    hminus1_sup,
    mean_square_bound,
    self_test_process,
    total_variation,
    uniqueness_distance,
    variational_residual,
)

G = GridSpec(length=1.0, n_interior=63)
E = eigensystem(G, 8)


def make_noise(seed=42, t_final=0.25, n_steps=250, gamma0=1.0):
    spec = NoiseSpec(
        k_max=8,
        gammas=PowerLawGammas(gamma0=gamma0, decay=8.0),
        seed=seed,
        t_final=t_final,
        n_steps=n_steps,
    )
    return synthesize(spec, G, E)


def make_traj(seed=42, eps=1e-2, t_final=0.25, n_steps=250, x0=None):
    noise = make_noise(seed=seed, t_final=t_final, n_steps=n_steps)
    if x0 is None:
        x0 = Field(G, np.zeros(63))
    cfg = SolverConfig(epsilon=eps, dt=t_final / n_steps, t_final=t_final)
    return solve_path(x0, noise, cfg), x0


def zero_traj(n_steps=50, t_final=0.1):
    spec = NoiseSpec(
        k_max=1,
        gammas=ExplicitGammas(gammas=(0.0,)),
        seed=0,
        t_final=t_final,
        n_steps=n_steps,
    )
    noise = synthesize(spec, G, eigensystem(G, 1))
    x0 = Field(G, np.zeros(63))
    cfg = SolverConfig(epsilon=1e-2, dt=t_final / n_steps, t_final=t_final)
    return solve_path(x0, noise, cfg), x0


class TestReportShape:
    def test_rows_and_summary(self):
        traj, x0 = make_traj(n_steps=50)
        z = build_test_process(traj, 1e-2)
        rep = variational_residual(traj, z, x0)
        rows = rep.rows()
        # one row per grid time plus one per flag
        assert len(rows) == traj.n_steps + 1 + len(rep.flags)
        for row in rows:
            assert len(row) == 6
        text = rep.summary()
        assert "variational_inequality" in text
        assert ("PASS" in text) or ("FAIL" in text)

    def test_flag_margin(self):
        f = Flag(name="x", lhs=1.0, rhs=3.0, tolerance=0.1, passed=True)
        assert f.margin == 2.0


class TestTestProcess:
    def test_zero_trajectory_gives_zero_process(self):
        traj, _ = zero_traj()
        z = build_test_process(traj, 1e-2)
        assert np.all(z.z_fields == 0.0)
        assert np.all(z.z_prime == 0.0)

    def test_large_mu_damps(self):
        traj, _ = make_traj(n_steps=50)
        small = build_test_process(traj, 1e-3)
        large = build_test_process(traj, 1e3)
        sup_small = np.max(np.abs(small.z_fields))
        sup_large = np.max(np.abs(large.z_fields))
        assert sup_large < 1e-2 * sup_small

    def test_spectral_damping_exact_on_single_mode(self):
        # resolvent of a pure eigenvector scales it by 1/(1 + mu*lambda)
        mu = 0.05
        e3 = E.vector(3)
        out = laplacian_resolvent(mu, e3)
        assert np.max(np.abs(out.values - e3.values / (1 + mu * E.value(3)))) < 1e-12

    def test_commutation_of_resolvent_and_differencing(self):
        traj, _ = make_traj(n_steps=50)
        z = build_test_process(traj, 1e-2)
        dt = traj.config.dt
        dy = np.empty_like(traj.y_fields)
        dy[1:-1] = (traj.y_fields[2:] - traj.y_fields[:-2]) / (2 * dt)
        dy[0] = (traj.y_fields[1] - traj.y_fields[0]) / dt
        dy[-1] = (traj.y_fields[-1] - traj.y_fields[-2]) / dt
        resolved = np.stack(
            [laplacian_resolvent(1e-2, Field(G, row)).values for row in dy]
        )
        assert np.max(np.abs(z.z_prime - resolved)) < 1e-10

    def test_admissibility_recorded(self):
        traj, _ = make_traj(n_steps=50)
        z = build_test_process(traj, 1e-2)
        for key in (
            "sup_l2",
            "deriv_hminus1_sq_integral",
            "potential_integral",
            "square_integral_dominating",
        ):
            assert np.isfinite(z.admissibility[key])
        # the potential is dominated by the square
        assert z.admissibility["potential_integral"] <= (
            z.admissibility["square_integral_dominating"] + 1e-12
        )

    def test_mu_validation(self):
        traj, _ = make_traj(n_steps=50)
        with pytest.raises(ValueError):
            build_test_process(traj, 0.0)
        with pytest.raises(ValueError):
            build_test_process(traj, -1.0)


class TestVariationalResidual:
    def test_cumulative_trapezoid_is_scipys_bitwise(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 10, 251, 4001):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6)
            dt = float(rng.uniform(1e-5, 1e-1))
            want = cumulative_trapezoid(values, dx=dt, initial=0.0)
            assert np.array_equal(_cumulative_trapezoid(values, dt), want)

    def test_self_test_below_1e9(self):
        for eps in (1e-1, 1e-2, 1e-3):
            traj, x0 = make_traj(eps=eps, n_steps=100)
            rep = variational_residual(traj, self_test_process(traj), x0, tol_vi=1e-9)
            assert rep.passed
            assert rep.scalars["max_residual"] <= 1e-9

    def test_zero_case_exact(self):
        traj, x0 = zero_traj()
        z = self_test_process(traj)  # Z = 0 here since Y = 0
        rep = variational_residual(traj, z, x0)
        assert rep.scalars["max_residual"] == 0.0
        assert np.all(rep.curves["lhs"] == 0.0)

    def test_resolvent_process_passes_default_tolerance(self):
        traj, x0 = make_traj(n_steps=250)
        z = build_test_process(traj, 1e-2)
        rep = variational_residual(traj, z, x0)
        assert rep.passed
        assert rep.scalars["tol_vi"] == 0.05 * (traj.config.dt + traj.config.epsilon)

    def test_residual_shrinks_under_joint_refinement(self):
        # same driving path, (dt, eps) halved together: the residual
        # magnitude over positive times must fall at every level
        T, n_fine = 0.25, 2000
        spec = NoiseSpec(
            k_max=8, gammas=PowerLawGammas(gamma0=1.0, decay=8.0),
            seed=7, t_final=T, n_steps=n_fine,
        )
        fine = synthesize(spec, G, E)
        x0 = Field(G, np.zeros(63))
        mags = []
        for lvl in range(3):
            n_steps = 250 * 2**lvl
            path = restrict(fine, n_fine // n_steps)
            cfg = SolverConfig(epsilon=1e-2 / 2**lvl, dt=T / n_steps, t_final=T)
            traj = solve_path(x0, path, cfg)
            rep = variational_residual(traj, build_test_process(traj, 1e-2), x0)
            mags.append(abs(rep.scalars["max_residual_positive_times"]))
        assert mags[0] > mags[1] > mags[2]

    def test_x0_mismatch_rejected(self):
        traj, _ = make_traj(n_steps=50)
        z = build_test_process(traj, 1e-2)
        wrong = Field(G, np.ones(63))
        with pytest.raises(ValueError):
            variational_residual(traj, z, wrong)

    def test_time_grid_mismatch_rejected(self):
        traj, x0 = make_traj(n_steps=50)
        other, _ = make_traj(n_steps=100)
        z = build_test_process(other, 1e-2)
        with pytest.raises(ValueError):
            variational_residual(traj, z, x0)


class TestMeanSquareBound:
    def ensemble(self, n_paths, gamma0=1.0, seed=500):
        spec = NoiseSpec(
            k_max=8, gammas=PowerLawGammas(gamma0=gamma0, decay=8.0),
            seed=seed, t_final=0.1, n_steps=50,
        )
        cfg = SolverConfig(epsilon=1e-2, dt=0.1 / 50, t_final=0.1)
        x0 = Field(G, np.zeros(63))
        return run_ensemble(x0, E, spec, cfg, n_paths), spec

    def build(self, n_paths, gamma0=1.0, seed=500):
        ensemble, spec = self.ensemble(n_paths, gamma0, seed)
        return list(ensemble), spec

    def test_too_few_paths_rejected(self):
        trajs, spec = self.build(5)
        with pytest.raises(ValueError):
            mean_square_bound(trajs, spec, E)

    def test_duplicate_seeds_rejected(self):
        trajs, spec = self.build(30)
        with pytest.raises(ValueError):
            mean_square_bound(list(trajs) + [trajs[0]], spec, E)

    def test_bound_holds_at_desk_scale(self):
        trajs, spec = self.build(40)
        rep = mean_square_bound(trajs, spec, E)
        assert rep.passed
        assert rep.scalars["min_relative_margin"] > 0.9

    def test_margin_widens_when_noise_shrinks(self):
        # sublinear flux: smaller amplitude is damped relatively harder,
        # so halving every gamma widens the relative margin (same seeds)
        full, spec_full = self.build(40, gamma0=1.0)
        half, spec_half = self.build(40, gamma0=0.5)
        m_full = mean_square_bound(full, spec_full, E).scalars["min_relative_margin"]
        m_half = mean_square_bound(half, spec_half, E).scalars["min_relative_margin"]
        assert m_half > m_full

    def test_flag_reports_a_time_after_the_start(self):
        # zero datum: at t = 0 both sides are zero up to the rounding slack
        trajs, spec = self.build(30)
        rep = mean_square_bound(trajs, spec, E)
        flag = rep.flags[0]
        assert flag.lhs > 0.0
        assert flag.margin == rep.scalars["min_margin"]

    def test_l4_statistics_recorded(self):
        trajs, spec = self.build(30)
        rep = mean_square_bound(trajs, spec, E)
        assert 0.0 < rep.scalars["l4_sup_mean"] <= rep.scalars["l4_sup_max"]

    def test_streams_one_trajectory_at_a_time(self):
        ensemble, spec = self.ensemble(30)
        refs, alive = [], []

        def stream():
            for traj in ensemble:
                refs.append(weakref.ref(traj))
                yield traj
                del traj
                # the consumer asks for the next path: the ones before it must be freed
                alive.append(sum(r() is not None for r in refs))

        rep = mean_square_bound(stream(), spec, E)
        assert alive == [0] * 30
        trajs, _ = self.build(30)
        held = mean_square_bound(trajs, spec, E)
        assert rep.rows() == held.rows()
        assert rep.scalars == held.scalars


class TestFluxIntegral:
    def test_zero_trajectory(self):
        traj, _ = zero_traj()
        assert flux_l1_integral(traj) == 0.0

    def test_bounded_ratio_across_eps(self):
        noise = make_noise(n_steps=125)
        x0 = Field(G, np.zeros(63))
        vals = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            cfg = SolverConfig(epsilon=eps, dt=0.25 / 125, t_final=0.25)
            vals.append(flux_l1_integral(solve_path(x0, noise, cfg)))
        assert max(vals) / min(vals) <= 10.0

    def test_rerun_invariant(self):
        traj, _ = make_traj(n_steps=50)
        again, _ = make_traj(n_steps=50)
        assert flux_l1_integral(traj) == flux_l1_integral(again)


class TestUniquenessDistance:
    def test_identical_configs_zero(self):
        a, _ = make_traj(n_steps=50)
        b, _ = make_traj(n_steps=50)
        assert uniqueness_distance(a, b) == 0.0

    def test_symmetry(self):
        a, _ = make_traj(eps=1e-2, n_steps=50)
        b, _ = make_traj(eps=5e-3, n_steps=50)
        assert uniqueness_distance(a, b) == uniqueness_distance(b, a)

    def test_seed_mismatch_rejected(self):
        a, _ = make_traj(seed=1, n_steps=50)
        b, _ = make_traj(seed=2, n_steps=50)
        with pytest.raises(ValueError):
            uniqueness_distance(a, b)

    def test_restricted_noise_aligns_grids(self):
        fine_noise = make_noise(n_steps=200)
        coarse_noise = restrict(fine_noise, 4)
        x0 = Field(G, np.zeros(63))
        fine = solve_path(
            x0, fine_noise, SolverConfig(epsilon=1e-2, dt=0.25 / 200, t_final=0.25)
        )
        coarse = solve_path(
            x0, coarse_noise, SolverConfig(epsilon=1e-2, dt=0.25 / 50, t_final=0.25)
        )
        d = uniqueness_distance(fine, coarse)
        assert 0.0 < d < 0.1

    def test_regenerated_noise_rejected(self):
        # same seed but different step count regenerates different
        # increments; the checker must refuse the comparison
        a, _ = make_traj(n_steps=200)
        b, _ = make_traj(n_steps=50)
        with pytest.raises(ValueError):
            uniqueness_distance(a, b)

    def test_eps_pair_below_sweep_envelope(self):
        noise = make_noise(n_steps=125)
        x0 = Field(G, np.zeros(63))
        t1 = solve_path(x0, noise, SolverConfig(epsilon=1e-3, dt=0.002, t_final=0.25))
        t2 = solve_path(x0, noise, SolverConfig(epsilon=5e-4, dt=0.002, t_final=0.25))
        t3 = solve_path(x0, noise, SolverConfig(epsilon=1e-2, dt=0.002, t_final=0.25))
        near = uniqueness_distance(t1, t2)
        far = uniqueness_distance(t3, t1)
        assert near < far


class TestTrajectoryDiagnostics:
    def test_total_variation_zero_for_constant(self):
        traj, _ = zero_traj()
        assert total_variation(traj) == 0.0

    def test_total_variation_dominates_subpartition(self):
        traj, _ = make_traj(n_steps=100)
        full = total_variation(traj)
        # stride-4 sub-partition computed directly from the same data
        sub = 0.0
        for a, b in zip(range(0, 100, 4), range(4, 101, 4)):
            diff = Field(G, traj.y_fields[b] - traj.y_fields[a])
            sub += norm_hminus1(neg_laplacian_inverse(diff))
        assert full >= sub - 1e-12

    def test_total_variation_single_cell_lower_bound(self):
        traj, _ = make_traj(n_steps=100)
        diff = Field(G, traj.y_fields[-1] - traj.y_fields[0])
        single = norm_hminus1(neg_laplacian_inverse(diff))
        assert total_variation(traj) >= single - 1e-12

    def test_hminus1_sup_zero_and_poincare(self):
        ztraj, _ = zero_traj()
        assert hminus1_sup(ztraj) == 0.0
        traj, _ = make_traj(n_steps=100)
        sup_sq = hminus1_sup(traj)
        lam1 = E.value(1)
        sup_l2_sq = max(
            norm_l2(traj.y_field(n)) ** 2 for n in range(traj.n_steps + 1)
        )
        assert sup_sq <= sup_l2_sq / lam1 + 1e-12

    def test_bounded_across_eps(self):
        noise = make_noise(n_steps=125)
        x0 = Field(G, np.zeros(63))
        tvs, sups = [], []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            cfg = SolverConfig(epsilon=eps, dt=0.25 / 125, t_final=0.25)
            traj = solve_path(x0, noise, cfg)
            tvs.append(total_variation(traj))
            sups.append(hminus1_sup(traj))
        assert max(tvs) / min(tvs) <= 10.0
        assert max(sups) / min(sups) <= 10.0
