"""Acceptance suite: nine end-to-end criteria at desk scale.

Each test prints one [criterion N] PASS/FAIL line (visible under
pytest -s) and then asserts, so a red run still shows which criterion
broke and by how much.
"""

import time

import numpy as np
import pytest

from logdiff.grid import (
    Field,
    GridSpec,
    eigensystem,
    neg_laplacian_inverse,
    norm_hminus1,
    norm_l2,
)
from logdiff.noise import (
    ExplicitGammas,
    NoiseSpec,
    PowerLawGammas,
    _draw,
    restrict,
    synthesize,
    validate_decay,
)
from logdiff.nonlinearity import (
    moreau_envelope,
    potential,
    potential_shifted,
    resolvent,
    signed_log,
    yosida,
    yosida_shifted,
)
from logdiff.solver import (
    SolverConfig,
    epsilon_sweep,
    run_ensemble,
    solve_explicit,
    solve_path,
)
from logdiff.verifier import (
    build_test_process,
    flux_l1_integral,
    hminus1_sup,
    mean_square_bound,
    self_test_process,
    total_variation,
    uniqueness_distance,
    variational_residual,
)

pytestmark = pytest.mark.acceptance

GAMMAS = PowerLawGammas(gamma0=1.0, decay=8.0)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def test_criterion_1_monotone_operator_suite():
    # 1e5 randomized scalar checks, zero failures allowed
    rng = np.random.default_rng(2024)
    n = 100_000
    eps = 10.0 ** rng.uniform(-3, 0, n)
    x = rng.uniform(-100.0, 100.0, n)
    x2 = rng.uniform(-100.0, 100.0, n)

    j = resolvent(eps, x)
    j2 = resolvent(eps, x2)
    nonexpansive = int(np.sum(np.abs(j - j2) > np.abs(x - x2) + 1e-12))

    monotone = int(np.sum((yosida(eps, x) - yosida(eps, x2)) * (x - x2) < -1e-12))

    identity = int(np.sum(np.abs(yosida(eps, x) - signed_log(j)) > 1e-10))

    env = potential(j)
    genv = moreau_envelope(eps, x)
    sandwich = int(
        np.sum((env > genv + 1e-12) | (genv > potential(x) + 1e-12))
    )

    # central difference of the shifted potential vs the shifted map,
    # away from the kink at 0 where the quotient loses accuracy
    step = 1e-5
    mask = np.abs(x) >= 0.1
    approx = (
        potential_shifted(eps[mask], x[mask] + step)
        - potential_shifted(eps[mask], x[mask] - step)
    ) / (2 * step)
    exact = yosida_shifted(eps[mask], x[mask])
    deriv = int(np.sum(np.abs(approx - exact) > 1e-6 * np.maximum(1.0, np.abs(exact))))

    failures = nonexpansive + monotone + identity + sandwich + deriv
    ok = failures == 0
    report(
        1,
        ok,
        f"{n} samples; failures: nonexpansive={nonexpansive} monotone={monotone} "
        f"identity={identity} sandwich={sandwich} derivative={deriv}",
    )
    assert ok


def test_criterion_2_grid_oracle_suite():
    # dense eigensolve oracle at n = 15
    g15 = GridSpec(length=1.0, n_interior=15)
    es = eigensystem(g15, 15)
    h = g15.h
    dense = np.zeros((15, 15))
    for i in range(15):
        dense[i, i] = 2.0 / h**2
        if i > 0:
            dense[i, i - 1] = -1.0 / h**2
        if i + 1 < 15:
            dense[i, i + 1] = -1.0 / h**2
    w, v = np.linalg.eigh(dense)
    eig_err = float(np.max(np.abs(np.sort(es.eigenvalues) - w)))
    vec_err = 0.0
    for k in range(1, 16):
        ours = es.vector(k).values
        ref = v[:, k - 1] / np.sqrt(h)
        if np.dot(ref, ours) < 0:
            ref = -ref
        vec_err = max(vec_err, float(np.max(np.abs(ours - ref))))

    # solve oracle: ones -> xi(1-xi)/2 to rounding
    ones = Field(g15, np.ones(15))
    u = neg_laplacian_inverse(ones)
    green_err = float(np.max(np.abs(u.values - g15.nodes * (1 - g15.nodes) / 2)))

    # second-order convergence for the sine load
    errs, hs = [], []
    for n in (15, 31, 63, 127):
        g = GridSpec(length=1.0, n_interior=n)
        f = Field(g, np.sin(np.pi * g.nodes))
        sol = neg_laplacian_inverse(f)
        errs.append(np.max(np.abs(sol.values - np.sin(np.pi * g.nodes) / np.pi**2)))
        hs.append(g.h)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    # dual norms of the modes
    g127 = GridSpec(length=1.0, n_interior=127)
    es127 = eigensystem(g127, 127)
    dual_err = max(
        abs(norm_hminus1(es127.vector(k)) - es127.value(k) ** -0.5)
        for k in (1, 2, 8, 64, 127)
    )

    ok = (
        eig_err < 1e-10
        and vec_err < 1e-10
        and green_err < 1e-12
        and 1.9 <= order <= 2.1
        and dual_err < 1e-10
    )
    report(
        2,
        ok,
        f"eig_err={eig_err:.2e} vec_err={vec_err:.2e} green_err={green_err:.2e} "
        f"order={order:.3f} dual_err={dual_err:.2e}",
    )
    assert ok


def test_criterion_3_mean_square_energy_bound():
    grid = GridSpec(length=1.0, n_interior=127)
    eigen = eigensystem(grid, 8)
    cfg = SolverConfig(epsilon=1e-2)
    t0 = time.time()
    outcomes = {}
    for name, datum, seed in (
        ("zero", Field(grid, np.zeros(127)), 100),
        ("bump", Field(grid, grid.nodes * (1 - grid.nodes)), 300),
    ):
        spec = NoiseSpec(k_max=8, gammas=GAMMAS, seed=seed, t_final=0.5, n_steps=500)
        trajs = run_ensemble(datum, eigen, spec, cfg, 200)
        rep = mean_square_bound(trajs)
        outcomes[name] = rep
    elapsed = time.time() - t0
    ok = outcomes["zero"].passed and outcomes["bump"].passed and elapsed <= 300.0
    report(
        3,
        ok,
        f"200 paths each; zero datum rel margin "
        f"{outcomes['zero'].scalars['min_relative_margin']:.3f}, bump "
        f"{outcomes['bump'].scalars['min_relative_margin']:.3f}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_4_flux_mass_bounded_in_eps():
    grid = GridSpec(length=1.0, n_interior=127)
    eigen = eigensystem(grid, 8)
    x0 = Field(grid, np.zeros(127))
    ratios = []
    for seed in (11, 12, 13, 14, 15):
        spec = NoiseSpec(k_max=8, gammas=GAMMAS, seed=seed, t_final=0.5, n_steps=500)
        path = synthesize(spec, eigen)
        vals = [
            flux_l1_integral(
                solve_path(x0, path, SolverConfig(epsilon=e))
            )
            for e in (1e-1, 1e-2, 1e-3, 1e-4)
        ]
        ratios.append(max(vals) / min(vals))
    ok = all(r <= 10.0 for r in ratios)
    report(4, ok, "per-seed max/min ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    assert ok


def test_criterion_5_epsilon_cauchy_in_dual_norm():
    grid = GridSpec(length=1.0, n_interior=127)
    eigen = eigensystem(grid, 8)
    x0 = Field(grid, np.zeros(127))
    cfg = SolverConfig(epsilon=1e-2)
    strict = []
    for seed in (21, 22, 23, 24, 25):
        spec = NoiseSpec(k_max=8, gammas=GAMMAS, seed=seed, t_final=0.5, n_steps=500)
        path = synthesize(spec, eigen)
        rep = epsilon_sweep(x0, path, cfg, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
        strict.append(bool(np.all(np.diff(rep.consecutive) < 0)))
    ok = all(strict)
    report(5, ok, f"strictly decreasing distances at seeds 21..25: {strict}")
    assert ok


def test_criterion_6_solution_inequality_refinement():
    grid = GridSpec(length=1.0, n_interior=63)
    eigen = eigensystem(grid, 8)
    T, n_fine = 0.25, 2000
    spec = NoiseSpec(k_max=8, gammas=GAMMAS, seed=7, t_final=T, n_steps=n_fine)
    fine = synthesize(spec, eigen)
    x0 = Field(grid, np.zeros(63))

    mags, self_ok = [], True
    for lvl in range(4):
        n_steps = 250 * 2**lvl
        path = restrict(fine, n_fine // n_steps)
        cfg = SolverConfig(epsilon=1e-2 / 2**lvl)
        traj = solve_path(x0, path, cfg)
        rep = variational_residual(build_test_process(traj, 1e-2))
        # at t = 0 both sides agree identically, so track the max over
        # positive times, whose magnitude must fall under refinement
        mags.append(abs(rep.scalars["max_residual_positive_times"]))
        if not rep.passed:
            self_ok = False
        srep = variational_residual(self_test_process(traj), tol_vi=1e-9)
        if srep.scalars["max_residual"] > 1e-9:
            self_ok = False
    shrinking = bool(np.all(np.diff(mags) < 0))
    ok = shrinking and self_ok
    report(
        6,
        ok,
        "residual magnitudes " + " > ".join(f"{m:.2e}" for m in mags)
        + f"; self-test within 1e-9: {self_ok}",
    )
    assert ok


def test_criterion_7_scheme_agreement_uniqueness_proxy():
    # the explicit stability bound dt*(4/h^2) <= 1 forbids n = 127 at
    # these dt values, so the cross-check runs on the coarser grid
    grid = GridSpec(length=1.0, n_interior=15)
    eigen = eigensystem(grid, 8)
    T, n_fine = 0.1, 1000
    spec = NoiseSpec(k_max=8, gammas=GAMMAS, seed=42, t_final=T, n_steps=n_fine)
    fine = synthesize(spec, eigen)
    x0 = Field(grid, np.zeros(15))
    dists = []
    for dt in (4e-4, 2e-4, 1e-4):
        n_steps = round(T / dt)
        path = restrict(fine, n_fine // n_steps)
        imp = solve_path(x0, path, SolverConfig(epsilon=1e-2))
        exp = solve_explicit(x0, path, SolverConfig(epsilon=1e-2))
        dists.append(uniqueness_distance(imp, exp))
    r1, r2 = dists[0] / dists[1], dists[1] / dists[2]
    ok = r1 >= 1.8 and r2 >= 1.8
    report(
        7,
        ok,
        f"sup-t dual distances {dists[0]:.3e}, {dists[1]:.3e}, {dists[2]:.3e}; "
        f"halving ratios {r1:.2f}, {r2:.2f}",
    )
    assert ok


def test_criterion_8_noise_correctness():
    grid = GridSpec(length=1.0, n_interior=31)
    eigen = eigensystem(grid, 8)
    gam = GAMMAS.values(8)

    # per-mode variance vs gamma_k^2 t at 1e4 paths, 3 modes, 2 times
    n_paths = 10_000
    evecs = np.stack([eigen.vector(k).values for k in (1, 2, 3)])
    proj = np.zeros((n_paths, 2, 3))
    for i in range(n_paths):
        spec = NoiseSpec(
            k_max=8, gammas=GAMMAS, seed=5000 + i, t_final=0.5, n_steps=10
        )
        p = synthesize(spec, eigen)
        proj[i] = p.values[(5, 10), :] @ evecs.T * grid.h
    worst = 0.0
    for a, t in enumerate((0.25, 0.5)):
        for b, k in enumerate((1, 2, 3)):
            var = float(np.var(proj[:, a, b], ddof=1))
            worst = max(worst, abs(var / (gam[k - 1] ** 2 * t) - 1.0))
    isometry_ok = worst < 0.05

    steep = validate_decay(
        NoiseSpec(k_max=8, gammas=GAMMAS, seed=1, t_final=1.0, n_steps=10), eigen
    )
    shallow = validate_decay(
        NoiseSpec(
            k_max=8,
            gammas=PowerLawGammas(gamma0=1.0, decay=4.0),
            seed=1,
            t_final=1.0,
            n_steps=10,
        ),
        eigen,
    )
    verdicts_ok = steep.ok and not shallow.ok

    spec = NoiseSpec(k_max=8, gammas=GAMMAS, seed=42, t_final=1.0, n_steps=200)
    a = synthesize(spec, eigen)
    b = synthesize(spec, eigen)
    repro_ok = np.array_equal(a.values, b.values) and np.array_equal(
        _draw(spec)[0], _draw(spec)[0]
    )

    ok = isometry_ok and verdicts_ok and repro_ok
    report(
        8,
        ok,
        f"worst variance deviation {worst:.3%} (< 5%); decay verdicts "
        f"steep={steep.ok}/shallow={shallow.ok}; bit-identical={repro_ok}",
    )
    assert ok


def test_criterion_9_degenerate_cases():
    grid = GridSpec(length=1.0, n_interior=63)
    e1 = eigensystem(grid, 1)

    # zero noise + zero datum: everything identically zero
    zspec = NoiseSpec(
        k_max=1, gammas=ExplicitGammas(gammas=(0.0,)), seed=0, t_final=0.1, n_steps=50
    )
    znoise = synthesize(zspec, e1)
    x0 = Field(grid, np.zeros(63))
    cfg = SolverConfig(epsilon=1e-2)
    traj = solve_path(x0, znoise, cfg)
    traj_zero = bool(np.all(traj.x_fields == 0.0) and np.all(traj.y_fields == 0.0))

    z = self_test_process(traj)  # Z = 0 for the zero trajectory
    process_zero = bool(np.all(z.z_fields == 0.0))
    rep = variational_residual(z)
    vi_zero = bool(np.all(rep.lhs == 0.0))
    tv_zero = total_variation(traj) == 0.0
    sup_zero = hminus1_sup(traj) == 0.0

    # single-mode sanity: W = gamma_1 beta_1 e_1 node for node
    sspec = NoiseSpec(
        k_max=1, gammas=ExplicitGammas(gammas=(0.7,)), seed=3, t_final=1.0, n_steps=100
    )
    spath = synthesize(sspec, e1)
    e1v = e1.vector(1).values
    # beta_1 by the per-mode rule: child stream 0's sqrt(dt) * N(0, 1) increments, summed
    normals = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0]).standard_normal(100)
    beta = np.concatenate([[0.0], np.cumsum(np.sqrt(sspec.dt) * normals)])
    mode_err = max(
        float(
            np.max(np.abs(spath.values[n] - 0.7 * beta[n] * e1v))
        )
        for n in (10, 50, 100)
    )
    norm_err = max(
        abs(norm_l2(spath.field_at(n)) - 0.7 * abs(beta[n]))
        for n in (10, 50, 100)
    )
    mode_ok = mode_err < 1e-14 and norm_err < 1e-12

    ok = traj_zero and process_zero and vi_zero and tv_zero and sup_zero and mode_ok
    report(
        9,
        ok,
        f"zero case exact={traj_zero and vi_zero and tv_zero and sup_zero}; "
        f"single-mode errors {mode_err:.1e}/{norm_err:.1e}",
    )
    assert ok
