"""Checks over finished trajectories: bounds, the solution inequality, diagnostics."""

import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from logdiff.grid import (
    Field,
    GridSpec,
    _solve_resolvent,
    eigensystem,
    neg_laplacian_inverse,
    norm_hminus1,
    norm_l2,
)
from logdiff.noise import ExplicitGammas, NoiseSpec, PowerLawGammas, restrict, synthesize
import logdiff.verifier
from logdiff.solver import SolverConfig, epsilon_sweep, run_ensemble, solve_path
from logdiff.verifier import (
    Flag,
    Report,
    _cumulative_trapezoid,
    build_test_process,
    flux_l1_integral,
    hminus1_sup,
    mean_square_bound,
    self_test_process,
    spread_report,
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
    return synthesize(spec, E)


def make_traj(seed=42, eps=1e-2, t_final=0.25, n_steps=250, x0=None):
    noise = make_noise(seed=seed, t_final=t_final, n_steps=n_steps)
    if x0 is None:
        x0 = Field(G, np.zeros(63))
    cfg = SolverConfig(epsilon=eps)
    return solve_path(x0, noise, cfg), x0


def zero_traj(n_steps=50, t_final=0.1):
    spec = NoiseSpec(
        k_max=1,
        gammas=ExplicitGammas(gammas=(0.0,)),
        seed=0,
        t_final=t_final,
        n_steps=n_steps,
    )
    noise = synthesize(spec, eigensystem(G, 1))
    x0 = Field(G, np.zeros(63))
    cfg = SolverConfig(epsilon=1e-2)
    return solve_path(x0, noise, cfg), x0


class TestReportShape:
    def test_rows_and_summary(self):
        traj, _ = make_traj(n_steps=50)
        z = build_test_process(traj, 1e-2)
        rep = variational_residual(z)
        rows = rep.rows()
        # one row per grid time plus one per flag
        assert len(rows) == traj.n_steps + 1 + len(rep.flags)
        for row in rows:
            assert len(row) == 6
        text = rep.summary()
        assert "variational_inequality" in text
        assert ("PASS" in text) or ("FAIL" in text)

    def test_flag_margin(self):
        f = Flag(name="x", lhs=1.0, rhs=3.0, tolerance=0.1)
        assert f.margin == 2.0
        # a comparison passes when its margin is a number >= 0: inf <= inf cannot be judged
        assert Flag(name="x", lhs=2.0, rhs=2.0, tolerance=0.0).passed
        assert not Flag(name="x", lhs=np.inf, rhs=np.inf, tolerance=0.0).passed

    def test_spread_of_finite_values(self):
        rep = spread_report("d", [1e-1, 1e-2, 1e-3], [2.0, 4.0, 3.0], 10.0)
        assert rep.passed and [f.name for f in rep.flags] == ["spread_bounded"]
        assert rep.flags[0].lhs == 2.0
        assert all(row[5] for row in rep.rows())
        assert not spread_report("d", [1e-1, 1e-2], [0.0, 1.0], 10.0).passed
        assert spread_report("d", [1e-1, 1e-2], [0.0, 0.0], 10.0).passed

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_spread_outside_the_float_range_fails(self, bad):
        # no row reads true against a NaN margin, and the failing flag names the float range
        for values in ([bad, bad, bad], [1.0, bad, 2.0]):
            rep = spread_report("d", [1e-1, 1e-2, 1e-3], values, 10.0)
            assert not rep.passed
            range_flag, spread_flag = rep.flags
            assert (range_flag.name, range_flag.passed) == ("values_in_float_range", False)
            assert range_flag.lhs == values.count(bad) and range_flag.rhs == 0.0
            assert spread_flag.lhs == np.inf and not spread_flag.passed
            for *_, margin, passed in rep.rows():
                assert not (passed and np.isnan(margin))
            assert "[FAIL] values_in_float_range" in rep.summary()


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
        e3 = E.vector(3).values
        out = _solve_resolvent(G, mu, e3)
        assert np.max(np.abs(out - e3 / (1 + mu * E.value(3)))) < 1e-12

    def test_commutation_of_resolvent_and_differencing(self):
        traj, _ = make_traj(n_steps=50)
        z = build_test_process(traj, 1e-2)
        dt = traj.noise.dt
        dy = np.empty_like(traj.y_fields)
        dy[1:-1] = (traj.y_fields[2:] - traj.y_fields[:-2]) / (2 * dt)
        dy[0] = (traj.y_fields[1] - traj.y_fields[0]) / dt
        dy[-1] = (traj.y_fields[-1] - traj.y_fields[-2]) / dt
        resolved = np.stack([_solve_resolvent(G, 1e-2, row) for row in dy])
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


class TestRecordOwnership:
    def records(self):
        traj, x0 = make_traj(n_steps=10)
        return {
            "Trajectory": traj,
            "EpsilonSweepReport": epsilon_sweep(x0, traj.noise, traj.config, [1e-1, 1e-2]),
            # a Test* name imported into this module would be collected as a test class
            "TestProcess": logdiff.verifier.build_test_process(traj, 1e-2),
        }

    @pytest.mark.parametrize("kind", ["Trajectory", "EpsilonSweepReport", "TestProcess"])
    def test_record_copies_what_a_caller_still_owns(self, kind):
        # the caller's arrays stay writable, and a later write to one, or to the base of
        # a view passed in, leaves the record as it was built
        record = self.records()[kind]
        names = [f.name for f in fields(record) if isinstance(getattr(record, f.name), np.ndarray)]
        given = {name: getattr(record, name).copy() for name in names}
        base = np.stack([given[names[0]]] * 2)
        given[names[0]] = base[1]  # writable, but a view of base
        built = replace(record, **given)
        for name in names:
            assert given[name].flags.writeable
            assert not getattr(built, name).flags.writeable
            given[name][...] = 7
        base[...] = 7
        for name in names:
            assert np.array_equal(getattr(built, name), getattr(record, name))

    def test_producers_hand_over_what_they_build(self):
        # a solve's Y is taken without a copy, and the self test's Z = Y shares it
        traj, _ = make_traj(n_steps=10)
        assert traj.y_fields.base is None and not traj.y_fields.flags.writeable
        assert self_test_process(traj).z_fields is traj.y_fields


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
            traj, _ = make_traj(eps=eps, n_steps=100)
            rep = variational_residual(self_test_process(traj), tol_vi=1e-9)
            assert rep.passed
            assert rep.scalars["max_residual"] <= 1e-9

    def test_zero_case_exact(self):
        traj, _ = zero_traj()
        z = self_test_process(traj)  # Z = 0 here since Y = 0
        rep = variational_residual(z)
        assert rep.scalars["max_residual"] == 0.0
        assert np.all(rep.lhs == 0.0)

    def test_resolvent_process_passes_default_tolerance(self):
        traj, _ = make_traj(n_steps=250)
        z = build_test_process(traj, 1e-2)
        rep = variational_residual(z)
        assert rep.passed
        assert rep.scalars["tol_vi"] == 0.05 * (traj.noise.dt + traj.config.epsilon)

    def test_residual_shrinks_under_joint_refinement(self):
        # same driving path, (dt, eps) halved together: the residual
        # magnitude over positive times must fall at every level
        T, n_fine = 0.25, 2000
        spec = NoiseSpec(
            k_max=8, gammas=PowerLawGammas(gamma0=1.0, decay=8.0),
            seed=7, t_final=T, n_steps=n_fine,
        )
        fine = synthesize(spec, E)
        x0 = Field(G, np.zeros(63))
        mags = []
        for lvl in range(3):
            n_steps = 250 * 2**lvl
            path = restrict(fine, n_fine // n_steps)
            cfg = SolverConfig(epsilon=1e-2 / 2**lvl)
            traj = solve_path(x0, path, cfg)
            rep = variational_residual(build_test_process(traj, 1e-2))
            mags.append(abs(rep.scalars["max_residual_positive_times"]))
        assert mags[0] > mags[1] > mags[2]


class TestMeanSquareBound:
    def ensemble(self, n_paths, gamma0=1.0, seed=500, grid=G):
        spec = NoiseSpec(
            k_max=8, gammas=PowerLawGammas(gamma0=gamma0, decay=8.0),
            seed=seed, t_final=0.1, n_steps=50,
        )
        cfg = SolverConfig(epsilon=1e-2)
        x0 = Field(grid, np.zeros(63))
        return run_ensemble(x0, eigensystem(grid, 8), spec, cfg, n_paths)

    def build(self, n_paths, gamma0=1.0, seed=500, grid=G):
        return list(self.ensemble(n_paths, gamma0, seed, grid))

    def test_too_few_paths_rejected(self):
        trajs = self.build(5)
        with pytest.raises(ValueError):
            mean_square_bound(trajs)

    def test_duplicate_seeds_rejected(self):
        trajs = self.build(30)
        with pytest.raises(ValueError):
            mean_square_bound(list(trajs) + [trajs[0]])

    def test_mixed_noise_laws_or_grids_rejected(self):
        # 15 + 15 paths with distinct seeds, one config and one (zero) datum
        first = self.build(15)
        with pytest.raises(ValueError, match="noise laws"):
            mean_square_bound(first + self.build(15, gamma0=0.5, seed=600))
        with pytest.raises(ValueError, match="grids"):
            mean_square_bound(first + self.build(15, seed=600, grid=GridSpec(2.0, 63)))

    def test_bound_holds_at_desk_scale(self):
        trajs = self.build(40)
        rep = mean_square_bound(trajs)
        assert rep.passed
        assert rep.scalars["min_relative_margin"] > 0.9

    def test_margin_widens_when_noise_shrinks(self):
        # sublinear flux: smaller amplitude is damped relatively harder,
        # so halving every gamma widens the relative margin (same seeds)
        full = mean_square_bound(self.build(40, gamma0=1.0)).scalars
        half = mean_square_bound(self.build(40, gamma0=0.5)).scalars
        assert half["min_relative_margin"] > full["min_relative_margin"]
        # the bound uses the amplitudes that drove the paths
        assert half["growth_rate"] == full["growth_rate"] / 4

    def test_flag_reports_a_time_after_the_start(self):
        # zero datum: at t = 0 both sides are zero up to the rounding slack
        rep = mean_square_bound(self.build(30))
        flag = rep.flags[0]
        assert flag.lhs > 0.0
        assert flag.margin == rep.scalars["min_margin"]

    def test_l4_statistics_recorded(self):
        rep = mean_square_bound(self.build(30))
        assert 0.0 < rep.scalars["l4_sup_mean"] <= rep.scalars["l4_sup_max"]

    def test_streams_one_trajectory_at_a_time(self):
        ensemble = self.ensemble(30)
        refs, alive = [], []

        def stream():
            for traj in ensemble:
                refs.append(weakref.ref(traj))
                yield traj
                del traj
                # the consumer asks for the next path: the ones before it must be freed
                alive.append(sum(r() is not None for r in refs))

        rep = mean_square_bound(stream())
        assert alive == [0] * 30
        held = mean_square_bound(self.build(30))
        assert rep.rows() == held.rows()
        assert rep.scalars == held.scalars

    def test_readme_library_snippet_runs(self, capsys):
        # the README's Library example runs as written, so it follows the API
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        snippet = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(snippet, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("True ")


class TestFluxIntegral:
    def test_zero_trajectory(self):
        traj, _ = zero_traj()
        assert flux_l1_integral(traj) == 0.0

    def test_bounded_ratio_across_eps(self):
        noise = make_noise(n_steps=125)
        x0 = Field(G, np.zeros(63))
        vals = []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            cfg = SolverConfig(epsilon=eps)
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
            x0, fine_noise, SolverConfig(epsilon=1e-2)
        )
        coarse = solve_path(
            x0, coarse_noise, SolverConfig(epsilon=1e-2)
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
        t1 = solve_path(x0, noise, SolverConfig(epsilon=1e-3))
        t2 = solve_path(x0, noise, SolverConfig(epsilon=5e-4))
        t3 = solve_path(x0, noise, SolverConfig(epsilon=1e-2))
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
        sup_l2_sq = max(norm_l2(Field(G, y)) ** 2 for y in traj.y_fields)
        assert sup_sq <= sup_l2_sq / lam1 + 1e-12

    def test_bounded_across_eps(self):
        noise = make_noise(n_steps=125)
        x0 = Field(G, np.zeros(63))
        tvs, sups = [], []
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            cfg = SolverConfig(epsilon=eps)
            traj = solve_path(x0, noise, cfg)
            tvs.append(total_variation(traj))
            sups.append(hminus1_sup(traj))
        assert max(tvs) / min(tvs) <= 10.0
        assert max(sups) / min(sups) <= 10.0
