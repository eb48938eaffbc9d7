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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .grid import (
    EigenSystem,
    Field,
    GridSpec,
    _hminus1_norms,
    _solve_neg_laplacian,
    _solve_resolvent,
)
from .nonlinearity import potential, yosida
from .noise import NoiseSpec
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
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass
class Report:
    """Named scalars, per-time curves, and pass/fail flags of one check."""

    name: str
    flags: list[Flag] = field(default_factory=list)
    scalars: dict[str, float] = field(default_factory=dict)
    curves: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.flags)

    def rows(self) -> list[tuple]:
        """CSV rows (check_name, t, lhs, rhs, margin, pass)."""
        out: list[tuple] = []
        if "t" in self.curves and "lhs" in self.curves and "rhs" in self.curves:
            t = self.curves["t"]
            lhs = self.curves["lhs"]
            rhs = self.curves["rhs"]
            for i in range(len(t)):
                out.append(
                    (
                        self.name,
                        float(t[i]),
                        float(lhs[i]),
                        float(rhs[i]),
                        float(rhs[i] - lhs[i]),
                        bool(lhs[i] <= rhs[i]),
                    )
                )
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
    """Admissible test process for the variational inequality.

    z_fields[n] approximates Z(t_n); z_prime is its discrete time
    derivative (centered inside, one-sided at the ends).  The
    admissibility record holds the finite quantities behind clauses
    (i) sup-t L^2 bound, (ii) square-integrable derivative in H^-1,
    (iii) integrable potential of Z + W_Q (finite since the potential
    is dominated by the square).
    """

    grid: GridSpec
    times: np.ndarray
    z_fields: np.ndarray
    z_prime: np.ndarray
    admissibility: dict[str, float]

    def __post_init__(self) -> None:
        for name in ("times", "z_fields", "z_prime"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _cumulative_trapezoid(values: np.ndarray, dx: float) -> np.ndarray:
    """Running trapezoid integrals of equally spaced samples, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(dx * (values[1:] + values[:-1]) / 2.0)))


def _time_derivative(z: np.ndarray, dt: float) -> np.ndarray:
    zp = np.empty_like(z)
    zp[1:-1] = (z[2:] - z[:-2]) / (2.0 * dt)
    zp[0] = (z[1] - z[0]) / dt
    zp[-1] = (z[-1] - z[-2]) / dt
    return zp


def _admissibility(
    grid: GridSpec, times: np.ndarray, z: np.ndarray, zp: np.ndarray, w: np.ndarray
) -> dict[str, float]:
    dt = float(times[1] - times[0])
    h = grid.h
    sup_l2 = float(np.max(np.sqrt(h * np.sum(z**2, axis=1))))
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
            raise ValueError(f"test process rejected: clause {clause} is not finite")
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
    return _test_process(traj, traj.y_fields.copy())


def _test_process(traj: Trajectory, z: np.ndarray) -> TestProcess:
    zp = _time_derivative(z, traj.config.dt)
    return TestProcess(
        grid=traj.grid,
        times=traj.times.copy(),
        z_fields=z,
        z_prime=zp,
        admissibility=_admissibility(traj.grid, traj.times, z, zp, traj.noise.values),
    )


def variational_residual(
    traj: Trajectory,
    z: TestProcess,
    x0: Field,
    tol_vi: Optional[float] = None,
) -> Report:
    """Pathwise residual of the defining variational inequality.

    For every grid time t the inequality

        1/2 |X - W_Q - Z|_-1^2 (t) + int_0^t int_O potential(X)
          + int_0^t <Z', X - W_Q - Z>_-1
        <= 1/2 |x - Z(0)|_-1^2 + int_0^t int_O potential(Z + W_Q)

    is evaluated with rectangle-in-space / trapezoid-in-time quadrature
    for the potential terms and a left-rectangle sum for the mixed
    term.  The report's per-time curve is residual(t) = LHS - RHS; the
    check passes when max_t residual <= tol_vi (default C_VI*(dt+eps)).
    """
    grid = traj.grid
    if z.grid != grid or x0.grid != grid:
        raise ValueError("trajectory, test process and datum must share one grid")
    if z.z_fields.shape != traj.y_fields.shape:
        raise ValueError("test process and trajectory have different space-time shapes")
    if not np.array_equal(x0.values, traj.y_fields[0]):
        raise ValueError("x0 does not match the trajectory's initial datum")
    if tol_vi is None:
        tol_vi = C_VI * (traj.config.dt + traj.config.epsilon)

    dt = traj.config.dt
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

    start = 0.5 * _hminus1_norms(grid, (x0.values - zf[0])[None, :])[0] ** 2
    residual = half_dual_sq + g_x_cum + mixed_cum - start - g_z_cum

    max_residual = float(np.max(residual))
    flag = Flag(
        name="residual_nonpositive",
        lhs=max_residual,
        rhs=float(tol_vi),
        tolerance=float(tol_vi),
        passed=max_residual <= tol_vi,
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
        curves={
            "t": traj.times.copy(),
            "lhs": residual,
            "rhs": np.full_like(residual, float(tol_vi)),
        },
    )


def mean_square_bound(
    trajectories: Iterable[Trajectory],
    spec: NoiseSpec,
    eigen: EigenSystem,
) -> Report:
    """Ensemble check of E|X(t)|_2^2 <= |x|_2^2 + t * sum lambda_k^2 gamma_k^2.

    Requires at least 30 trajectories with one config, one initial
    datum, and pairwise distinct seeds.  The empirical mean must stay
    below the bound plus three standard errors (plus a relative
    rounding slack) at every grid time; the flag reports the worst t > 0.
    The trajectories are consumed one at a time: only each path's
    |X(t)|^2 curve and L^4 sup are kept.
    """
    if eigen.k_max < spec.k_max:
        raise ValueError("eigensystem does not cover the noise modes")
    seeds: set[int] = set()
    sq_rows: list[np.ndarray] = []
    l4_sup: list[float] = []
    for traj in trajectories:
        if not sq_rows:
            cfg, times, h = traj.config, traj.times, traj.grid.h
            x0 = traj.y_fields[0].copy()  # a copy, so no view keeps the first path alive
        elif traj.config != cfg:
            raise ValueError("trajectories use different solver configs")
        elif not np.array_equal(traj.y_fields[0], x0):
            raise ValueError("trajectories start from different initial data")
        if traj.noise.spec.seed in seeds:
            raise ValueError("trajectory seeds are not pairwise distinct")
        seeds.add(traj.noise.spec.seed)
        sq_rows.append(h * np.sum(traj.x_fields**2, axis=1))
        l4_sup.append(np.max((h * np.sum(traj.x_fields**4, axis=1)) ** 0.25))
        del traj  # drop it before the next path is solved: one trajectory alive at a time
    if len(sq_rows) < MEAN_SQUARE_MIN_PATHS:
        raise ValueError(f"need at least {MEAN_SQUARE_MIN_PATHS} trajectories, got {len(sq_rows)}")

    sq = np.stack(sq_rows)
    mean = np.mean(sq, axis=0)
    se = np.std(sq, axis=0, ddof=1) / np.sqrt(len(sq_rows))

    gam = spec.gammas.values(spec.k_max)
    lam = eigen.eigenvalues[: spec.k_max]
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
        passed=bool(np.all(mean <= rhs)),
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
        curves={"t": times.copy(), "lhs": mean, "rhs": rhs, "stderr": se, "bound": bound},
    )


def flux_l1_integral(traj: Trajectory) -> float:
    """Left-rectangle space-time L^1 mass of the unshifted Yosida flux."""
    eps = traj.config.epsilon
    z = traj.y_fields[:-1] + traj.noise.values[:-1]
    vals = np.abs(yosida(eps, z))
    return float(traj.config.dt * traj.grid.h * np.sum(vals))


def uniqueness_distance(a: Trajectory, b: Trajectory) -> float:
    """sup-t H^-1 distance of two runs driven by the same noise path.

    The trajectories must share the seed, the initial datum and the
    noise values on the common (coarser) time grid; configs may differ
    in scheme, dt and eps.  Comparison happens on the common grid.
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
