"""Numerical checks of the solution concept and a-priori estimates.

Every check returns either a scalar diagnostic or a :class:`Report`
whose flags record both sides of the tested inequality together with
the tolerance used.  The checks:

* mean_square_bound: ensemble check of the energy estimate
  E|X(t)|_2^2 <= |x|_2^2 + t * sum_k lambda_k^2 gamma_k^2.
* flux_l1_integral: the space-time L^1 mass of the (unshifted) Yosida
  flux, int_0^T int_O |yosida(eps, Y + W_Q)|, which should stay of one
  magnitude across eps.
* build_test_process / variational_residual: the pathwise variational
  inequality defining solutions, checked against a test process; the
  canonical choice Z = (I - mu*Lap_h)^-1 Y comes from
  build_test_process, and Z = Y itself (self test) must give residual
  zero up to rounding.
* uniqueness_distance: sup-t H^-1 distance of two runs driven by one
  noise path.
* total_variation / hminus1_sup: pathwise compactness diagnostics.
* spread_report: one diagnostic across eps, whose max/min ratio must
  stay bounded (the eps-uniform estimates).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .grid import (
    GridSpec, _hminus1_norms, _hold, _norms_l2, _solve_neg_laplacian, _solve_resolvent,
    eigensystem,
)
from .nonlinearity import potential, yosida
from .solver import Trajectory

# tol_vi = C_VI * (dt + eps) unless the caller overrides.  Calibrated by a
# refinement sweep over seeds, dt in [5e-3, 1.25e-4], eps in [1e-1, 1e-3],
# mu in [1e-3, 1e-1] and bump data: the worst observed max-t residual was
# 1.1e-4 * (dt + eps), so 0.05 leaves a safety factor of roughly 450.
C_VI = 0.05

_ROUNDING_SLACK = 1e-12
MEAN_SQUARE_MIN_PATHS = 30


@dataclass(frozen=True)
class Flag:
    """One tested inequality lhs <= rhs, with the tolerance baked into rhs."""

    name: str
    lhs: float
    rhs: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.margin >= 0  # lhs <= rhs, except that a NaN margin (inf <= inf) fails

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass
class Report:
    """Pass/fail flags, named scalars and the one curve lhs(t) <= rhs(t) of one check."""

    name: str
    flags: list[Flag]
    scalars: dict[str, float]
    t: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.flags)

    def rows(self) -> list[tuple]:
        """CSV rows (check_name, t, lhs, rhs, margin, pass): the curve's, then the flags'.

        A row passes as a Flag does: when its margin is a number >= 0.
        """
        out: list[tuple] = [(self.name, t, lhs, rhs, rhs - lhs, rhs - lhs >= 0)
                            for t, lhs, rhs in zip(self.t.tolist(), self.lhs.tolist(),
                                                   self.rhs.tolist())]
        for f in self.flags:
            out.append((f"{self.name}:{f.name}", "", f.lhs, f.rhs, f.margin, f.passed))
        return out

    def summary(self) -> str:
        lines = [f"check {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for f in self.flags:
            lines.append(
                f"  [{'PASS' if f.passed else 'FAIL'}] {f.name}: "
                f"lhs = {f.lhs:.6g}, rhs = {f.rhs:.6g}, margin = {f.margin:.6g}, "
                f"tol = {f.tolerance:.3g}"
            )
        for k in sorted(self.scalars):
            lines.append(f"  {k} = {self.scalars[k]:.6g}")
        return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class TestProcess:
    """Admissible test process for the variational inequality along a trajectory.

    z_fields[n] approximates Z(t_n); z_prime is its discrete time
    derivative (centered inside, one-sided at the ends).  The
    admissibility record holds the finite quantities behind clauses
    (i) sup-t L^2 bound, (ii) square-integrable derivative in H^-1,
    (iii) integrable potential of Z + W_Q (finite since the potential
    is dominated by the square).
    """

    trajectory: Trajectory
    z_fields: np.ndarray
    z_prime: np.ndarray
    admissibility: dict[str, float]

    def __post_init__(self) -> None:
        _hold(self, "z_fields", "z_prime")


def _cumulative_trapezoid(values: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid integrals of equally spaced samples, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(dx * (values[1:] + values[:-1]) / 2.0)))


class InadmissibleError(ValueError):
    """A test process fails an admissibility clause: a check failure of its trajectory."""


def _admissibility(
    grid: GridSpec, dt: float, z: np.ndarray, zp: np.ndarray, w: np.ndarray
) -> dict[str, float]:
    h = grid.h
    sup_l2 = float(np.max(_norms_l2(grid, z)))  # rescales a row whose sum of squares overflows
    zp_hm1_sq = _hminus1_norms(grid, zp) ** 2
    deriv_integral = float(_cumulative_trapezoid(zp_hm1_sq, dt)[-1])
    g_rows = h * np.sum(potential(z + w), axis=1)
    g_integral = float(_cumulative_trapezoid(g_rows, dt)[-1])
    sq_rows = h * np.sum((z + w) ** 2, axis=1)
    sq_integral = float(_cumulative_trapezoid(sq_rows, dt)[-1])
    record = {
        "sup_l2": sup_l2,
        "deriv_hminus1_sq_integral": deriv_integral,
        "potential_integral": g_integral,
        "square_integral_dominating": sq_integral,
    }
    for clause, value in record.items():
        if not np.isfinite(value):
            raise InadmissibleError(f"test process rejected: clause {clause} is not finite")
    return record


def build_test_process(traj: Trajectory, mu: float) -> TestProcess:
    """Z = (I - mu*Lap_h)^-1 Y along the trajectory.

    The resolvent commutes with the discrete time derivative (both are
    linear), so z_prime equals the resolvent of Y's difference quotient
    to rounding.
    """
    if not (np.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    z = _solve_resolvent(traj.grid, mu, traj.y_fields.T).T
    return _test_process(traj, z)


def self_test_process(traj: Trajectory) -> TestProcess:
    """Z = Y itself; the variational residual must vanish to rounding."""
    return _test_process(traj, traj.y_fields)  # read-only, so Z can share Y's array


def _test_process(traj: Trajectory, z: np.ndarray) -> TestProcess:
    dt = traj.noise.dt
    zp = np.gradient(z, dt, axis=0)
    zp.flags.writeable = False  # nothing else holds it, so TestProcess need not copy it
    return TestProcess(
        trajectory=traj,
        z_fields=z,
        z_prime=zp,
        admissibility=_admissibility(traj.grid, dt, z, zp, traj.noise.values),
    )


def variational_residual(z: TestProcess, tol_vi: Optional[float] = None) -> Report:
    """Pathwise residual of the defining variational inequality along z's trajectory.

    For every grid time t the inequality

        1/2 |X - W_Q - Z|_-1^2 (t) + int_0^t int_O potential(X)
          + int_0^t <Z', X - W_Q - Z>_-1
        <= 1/2 |x - Z(0)|_-1^2 + int_0^t int_O potential(Z + W_Q)

    is evaluated with rectangle-in-space / trapezoid-in-time quadrature
    for the potential terms and a left-rectangle sum for the mixed
    term; x is the trajectory's datum Y(0).  The report's per-time curve
    is residual(t) = LHS - RHS; the check passes when max_t residual <=
    tol_vi (default C_VI*(dt+eps)).
    """
    traj = z.trajectory
    grid = traj.grid
    dt = traj.noise.dt
    if tol_vi is None:
        tol_vi = C_VI * (dt + traj.config.epsilon)

    h = grid.h
    y = traj.y_fields
    x = traj.x_fields
    w = traj.noise.values
    zf = z.z_fields

    diff = y - zf
    half_dual_sq = 0.5 * _hminus1_norms(grid, diff) ** 2

    g_x_rows = h * np.sum(potential(x), axis=1)
    g_x_cum = _cumulative_trapezoid(g_x_rows, dt)

    g_z_rows = h * np.sum(potential(zf + w), axis=1)
    g_z_cum = _cumulative_trapezoid(g_z_rows, dt)

    sol = _solve_neg_laplacian(grid, z.z_prime.T)
    pair = h * np.sum(sol * diff.T, axis=0)
    mixed_cum = np.zeros_like(pair)
    mixed_cum[1:] = dt * np.cumsum(pair[:-1])

    start = half_dual_sq[0]
    residual = half_dual_sq + g_x_cum + mixed_cum - start - g_z_cum

    max_residual = float(np.max(residual))
    flag = Flag(
        name="residual_nonpositive",
        lhs=max_residual,
        rhs=float(tol_vi),
        tolerance=float(tol_vi),
    )
    return Report(
        name="variational_inequality",
        flags=[flag],
        scalars={
            "tol_vi": float(tol_vi),
            "max_residual": max_residual,
            # at t = 0 both sides coincide identically for every test
            # process, so the max over positive times is the quantity
            # that actually moves under refinement
            "max_residual_positive_times": float(np.max(residual[1:])),
            "final_half_dual_sq": float(half_dual_sq[-1]),
            "final_potential_x": float(g_x_cum[-1]),
            "final_mixed_term": float(mixed_cum[-1]),
            "start_half_dual_sq": float(start),
            "final_potential_z": float(g_z_cum[-1]),
        },
        t=traj.times,
        lhs=residual,
        rhs=np.full_like(residual, float(tol_vi)),
    )


def mean_square_bound(trajectories: Iterable[Trajectory]) -> Report:
    """Ensemble check of E|X(t)|_2^2 <= |x|_2^2 + t * sum lambda_k^2 gamma_k^2.

    The noise law is the first trajectory's noise spec up to its seed,
    and lambda_k are the eigenvalues of its grid.  Requires at least 30
    trajectories with that grid and law, one config, one initial datum,
    and pairwise distinct seeds.  The empirical mean must stay below the
    bound plus three standard errors (plus a relative rounding slack) at
    every grid time; the flag reports the worst t > 0.  The trajectories
    are consumed one at a time: only each path's |X(t)|^2 curve and L^4
    sup are kept.
    """
    seeds: set[int] = set()
    sq_rows: list[np.ndarray] = []
    l4_sup: list[float] = []
    for traj in trajectories:
        spec = traj.noise.spec
        if not sq_rows:
            cfg, grid, law, times, h = traj.config, traj.grid, spec, traj.times, traj.grid.h
            x0 = traj.y_fields[0].copy()  # a copy, so no view keeps the first path alive
        elif traj.config != cfg:
            raise ValueError("trajectories use different solver configs")
        elif traj.grid != grid:
            raise ValueError("trajectories live on different grids")
        elif replace(spec, seed=law.seed) != law:
            raise ValueError("trajectories are driven by different noise laws")
        elif not np.array_equal(traj.y_fields[0], x0):
            raise ValueError("trajectories start from different initial data")
        if spec.seed in seeds:
            raise ValueError("trajectory seeds are not pairwise distinct")
        seeds.add(spec.seed)
        x = traj.x_fields
        sq_rows.append(h * np.sum(x**2, axis=1))
        l4_sup.append(np.max((h * np.sum(x**4, axis=1)) ** 0.25))
        del traj, x  # hold no path already read while the source makes the next one
    if len(sq_rows) < MEAN_SQUARE_MIN_PATHS:
        raise ValueError(f"need at least {MEAN_SQUARE_MIN_PATHS} trajectories, got {len(sq_rows)}")

    sq = np.stack(sq_rows)
    mean = np.mean(sq, axis=0)
    se = np.std(sq, axis=0, ddof=1) / np.sqrt(len(sq_rows))

    gam = law.gammas.values(law.k_max)
    lam = eigensystem(grid, law.k_max).eigenvalues
    growth = float(np.sum(lam**2 * gam**2))
    x0_sq = float(h * np.sum(x0**2))
    bound = x0_sq + times * growth
    rhs = bound + 3.0 * se + _ROUNDING_SLACK * np.maximum(1.0, bound)

    # all paths start at x: at t = 0 the margin is only the rounding slack
    gap = (rhs - mean)[1:]
    worst = 1 + int(np.argmin(gap))
    flag = Flag(
        name="mean_below_bound",
        lhs=float(mean[worst]),
        rhs=float(rhs[worst]),
        tolerance=_ROUNDING_SLACK,
    )

    rel_margin = float(np.min(gap / np.maximum(rhs[1:], 1e-300)))
    return Report(
        name="mean_square_bound",
        flags=[flag],
        scalars={
            "n_paths": float(len(sq_rows)),
            "growth_rate": growth,
            "x0_l2_sq": x0_sq,
            "min_margin": float(np.min(gap)),
            "min_relative_margin": rel_margin,
            "l4_sup_mean": float(np.mean(l4_sup)),
            "l4_sup_max": float(np.max(l4_sup)),
        },
        t=times,
        lhs=mean,
        rhs=rhs,
    )


def flux_l1_integral(traj: Trajectory) -> float:
    """Left-rectangle space-time L^1 mass of the unshifted Yosida flux."""
    eps = traj.config.epsilon
    z = traj.y_fields[:-1] + traj.noise.values[:-1]
    vals = np.abs(yosida(eps, z))
    return float(traj.noise.dt * traj.grid.h * np.sum(vals))


def uniqueness_distance(a: Trajectory, b: Trajectory) -> float:
    """sup-t H^-1 distance of two runs driven by the same noise path.

    The trajectories must share the seed, the initial datum and the
    noise values on the common (coarser) time grid; configs may differ
    in eps, and the noise paths in step count (one a
    restriction of the other).  Comparison happens on the common grid.
    """
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if a.noise.spec.seed != b.noise.spec.seed:
        raise ValueError("trajectories use different noise seeds")
    if not np.array_equal(a.y_fields[0], b.y_fields[0]):
        raise ValueError("trajectories start from different initial data")
    if not np.isclose(a.times[-1], b.times[-1], rtol=1e-12, atol=0.0):
        raise ValueError("trajectories cover different time horizons")

    na, nb = a.n_steps, b.n_steps
    if na % nb == 0:
        stride_a, stride_b = na // nb, 1
    elif nb % na == 0:
        stride_a, stride_b = 1, nb // na
    else:
        raise ValueError(f"incompatible step counts {na} and {nb}")
    xa = a.x_fields[::stride_a]
    xb = b.x_fields[::stride_b]
    if not np.array_equal(a.noise.values[::stride_a], b.noise.values[::stride_b]):
        raise ValueError(
            "trajectories do not share a noise path on the common time grid; "
            "build the coarser path with noise.restrict"
        )
    return float(np.max(_hminus1_norms(a.grid, xa - xb)))


def total_variation(traj: Trajectory) -> float:
    """Total variation of (-Lap_h)^-1 Y over the full time grid, in H^-1.

    The full grid is the finest partition, so this dominates the value
    on any coarser sub-partition.
    """
    diffs = np.diff(traj.y_fields, axis=0)
    inv = _solve_neg_laplacian(traj.grid, diffs.T).T
    return float(np.sum(_hminus1_norms(traj.grid, inv)))


def hminus1_sup(traj: Trajectory) -> float:
    """max over the time grid of |Y(t_n)|_-1^2."""
    return float(np.max(_hminus1_norms(traj.grid, traj.y_fields) ** 2))


def spread_report(name: str, eps_list: Sequence[float], values: Sequence[float],
                  ratio_max: float) -> Report:
    """A diagnostic per eps passes when its max/min ratio is at most ratio_max.

    A value outside the float range (inf or NaN) cannot be judged: the flag
    values_in_float_range, lhs the number of such values and rhs 0, fails, and
    spread_bounded fails with an infinite ratio.
    """
    arr = np.asarray(values, dtype=float)
    top, bottom = float(np.max(arr)), float(np.min(arr))
    outside = int(np.count_nonzero(~np.isfinite(arr)))
    ratio = np.inf if outside else 1.0 if top == 0.0 else np.inf if bottom == 0.0 else top / bottom
    flags = [Flag(name="values_in_float_range", lhs=float(outside), rhs=0.0, tolerance=0.0)
             ] if outside else []
    flags.append(Flag(
        name="spread_bounded",
        lhs=ratio,
        rhs=float(ratio_max),
        tolerance=float(ratio_max),
    ))
    return Report(
        name=name,
        flags=flags,
        scalars={f"value_at_eps_{e:g}": float(v) for e, v in zip(eps_list, arr)},
        t=np.asarray(eps_list, dtype=float),
        lhs=arr,
        rhs=np.full_like(arr, top),
    )
