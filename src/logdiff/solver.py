"""Pathwise time stepping for the regularized log-diffusion equation.

With W_Q a realized noise path and Y = X - W_Q, the substituted form of
the regularized equation is a random PDE without stochastic integrals:

    dY/dt = Lap_h F_eps(Y + W_Q),   Y(0) = x,
    F_eps = yosida_shifted(eps, .)  (monotone, slope in [eps, 1/(1+eps)+eps]).

The primary scheme is implicit Euler,

    Y_{n+1} - dt * Lap_h F_eps(Y_{n+1} + W_{n+1}) = Y_n,

solved by damped Newton for the resolvent variable u = J_eps(Y_{n+1} +
W_{n+1}).  Since F_eps = signed_log(J_eps) + eps*id, with s = signed_log(u)

    Y_{n+1} = u + eps*s - W_{n+1},   F_eps(Y_{n+1} + W_{n+1}) = s + eps*(u + eps*s),

so no scalar root solve runs inside a step.  Newton starts at
u = Y_n + W_{n+1} and stops once the residual in Y is at most newton_tol
(a NaN residual never is); its Jacobian diag(a) - dt * Lap_h diag(b),
with a = 1 + eps/(1+|u|) and b = 1/(1+|u|) + eps*a, is tridiagonal and
strictly diagonally dominant; each iteration solves it by one direct
LAPACK dgtsv call, which checks nothing for finiteness.  The residual
cannot fall below its rounding floor

    16 * macheps * | |Y_{n+1}| + |Y_n| + 4*(dt/h^2)*|F_eps| |_2,

so when a Newton step fails to halve the residual, or damping finds no
decrease, Newton also stops if the residual is finite and below that
floor.  An explicit Euler step (noise at the left endpoint) is an
independent cross-check; it refuses to run outside its stability bound

    dt * (4/h^2) * max_j F_eps'(Y_n + W_n) <= 1.

The noise path owns the space-time grid: solve_path takes its steps of
size dt = noise.dt on the noise's own time grid.  A Newton failure
(a failed dgtsv, a non-finite residual) raises StepFailureError with
the step index.  Trajectory.x_fields computes X_n = Y_n + W_n anew.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv

from .grid import EigenSystem, Field, GridSpec, _hminus1_norms, _laplacian, _norm_l2
from .noise import NoisePath, NoiseSpec, synthesize
from .nonlinearity import _check_eps, yosida_derivative, yosida_shifted

_MAX_DAMPING_HALVINGS = 30

_SCHEMES = ("implicit", "explicit")


class StepFailureError(RuntimeError):
    """A time step could not be completed; carries step index and residual."""

    def __init__(self, message: str, step: int | None = None, residual: float | None = None):
        super().__init__(message)
        self.step = step
        self.residual = residual


class StabilityError(RuntimeError):
    """Explicit step refused: carries the computed stability bound."""

    def __init__(self, bound: float, dt: float):
        super().__init__(
            f"explicit step unstable: dt * (4/h^2) * max F_eps' = {bound:.6g} > 1 at dt = {dt:.6g}"
        )
        self.bound = bound


@dataclass(frozen=True)
class SolverConfig:
    """Scheme and Newton settings; the time grid belongs to the noise path."""

    epsilon: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    scheme: str = "implicit"

    def __post_init__(self) -> None:
        _check_eps(self.epsilon)
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Solver output on the noise path's grid and time grid (grid, times).

    y_fields stacks the per-step fields as rows; row n is Y at times[n].
    X = Y + W_Q is not stored: x_fields and x_field(n) add the noise
    values on each access.  Diagnostics are per step: Newton iterations
    and the final Newton residual, which is at most newton_tol unless
    Newton stalled at the residual's rounding floor (see the module
    docstring).
    """

    config: SolverConfig
    noise: NoisePath
    y_fields: np.ndarray
    newton_iters: np.ndarray
    newton_residuals: np.ndarray

    def __post_init__(self) -> None:
        for name in ("y_fields", "newton_iters", "newton_residuals"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):  # unpickle through __init__, so the arrays are read-only again
        return Trajectory, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def grid(self) -> GridSpec:
        return self.noise.grid

    @property
    def times(self) -> np.ndarray:
        return self.noise.times

    @property
    def n_steps(self) -> int:
        return self.noise.spec.n_steps

    @property
    def x_fields(self) -> np.ndarray:
        """y_fields + noise.values, read-only and computed anew on each access."""
        x = self.y_fields + self.noise.values
        x.flags.writeable = False
        return x

    @property
    def substeps(self) -> np.ndarray:
        """Ones: every step is one step of the noise's time grid."""
        ones = np.ones(self.n_steps, dtype=int)
        ones.flags.writeable = False
        return ones

    def x_field(self, n: int) -> Field:
        return Field(self.grid, self.y_fields[n] + self.noise.values[n])


def _step_implicit_core(
    y_prev: np.ndarray,
    w_next: np.ndarray,
    grid: GridSpec,
    eps: float,
    dt: float,
    newton_tol: float,
    newton_max_iter: int,
) -> tuple[np.ndarray, int, float]:
    """One damped-Newton implicit Euler step in u = J_eps(Y + W); returns (y, iters, residual)."""
    scale = dt / grid.h**2

    def state_and_flux(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.sign(u) * np.log1p(np.abs(u))  # signed_log(u), without its finiteness check
        return u + eps * s - w_next, s + eps * (u + eps * s)

    def state_and_residual(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y, flux = state_and_flux(u)
        return y, y - dt * _laplacian(flux, grid.h) - y_prev

    def at_floor(u: np.ndarray, rnorm: float) -> bool:
        y, flux = state_and_flux(u)
        return rnorm < np.inf and rnorm <= _rounding_floor(grid, y, y_prev, flux, dt)

    u = y_prev + w_next
    y, r = state_and_residual(u)
    rnorm = _norm_l2(grid, r)
    iters = 0
    while not rnorm <= newton_tol:  # a NaN residual never counts as converged
        if iters >= newton_max_iter:
            raise StepFailureError(
                f"Newton did not reach tol {newton_tol:.3g} in {newton_max_iter} iterations "
                f"(residual {rnorm:.3g})",
                residual=rnorm,
            )
        slope = 1.0 / (1.0 + np.abs(u))
        a = 1.0 + eps * slope
        b = slope + eps * a
        *_, delta, info = dgtsv(-scale * b[:-1], a + 2.0 * scale * b, -scale * b[1:], -r)
        if info != 0:
            raise StepFailureError(f"tridiagonal solve failed (dgtsv info {info})", residual=rnorm)

        alpha = 1.0
        for _ in range(_MAX_DAMPING_HALVINGS):
            u_try = u + alpha * delta
            y_try, r_try = state_and_residual(u_try)
            r_try_norm = _norm_l2(grid, r_try)
            if r_try_norm < rnorm:
                break
            alpha *= 0.5
        else:  # no decrease: stop (leave the while loop) if at the floor
            if at_floor(u, rnorm):
                break
            raise StepFailureError(
                f"Newton damping stalled at residual {rnorm:.3g}", residual=rnorm
            )
        stalled = r_try_norm > 0.5 * rnorm
        u, y, r, rnorm = u_try, y_try, r_try, r_try_norm
        iters += 1
        if stalled and rnorm > newton_tol and at_floor(u, rnorm):
            break
    return y, iters, rnorm


def _rounding_floor(
    grid: GridSpec, y: np.ndarray, y_prev: np.ndarray, flux: np.ndarray, dt: float
) -> float:
    """16 macheps | |y| + |y_prev| + 4 (dt/h^2) |flux| |_2, below which rounding hides the residual."""
    bound = np.abs(y) + np.abs(y_prev) + (4.0 * dt / grid.h**2) * np.abs(flux)
    return 16.0 * np.finfo(float).eps * _norm_l2(grid, bound)


def _step_explicit_core(
    y_prev: np.ndarray, w_prev: np.ndarray, grid: GridSpec, eps: float, dt: float
) -> np.ndarray:
    z = y_prev + w_prev
    bound = dt * (4.0 / grid.h**2) * float(np.max(yosida_derivative(eps, z) + eps))
    if bound > 1.0:
        raise StabilityError(bound, dt)
    return y_prev + dt * _laplacian(yosida_shifted(eps, z), grid.h)


def solve_path(x0: Field, noise: NoisePath, cfg: SolverConfig) -> Trajectory:
    """March the configured scheme across the noise path's time grid, in steps of noise.dt.

    Deterministic: identical inputs give identical output.
    """
    grid = x0.grid
    if noise.grid != grid:
        raise ValueError("noise path lives on a different grid")

    n_steps, dt, w = noise.spec.n_steps, noise.dt, noise.values
    y_all = np.empty((n_steps + 1, grid.n_interior))
    y_all[0] = x0.values
    iters = np.zeros(n_steps, dtype=int)
    resids = np.zeros(n_steps)

    for n in range(n_steps):
        try:
            if cfg.scheme == "implicit":
                y_all[n + 1], iters[n], resids[n] = _step_implicit_core(
                    y_all[n], w[n + 1], grid, cfg.epsilon, dt, cfg.newton_tol, cfg.newton_max_iter
                )
            else:
                y_all[n + 1] = _step_explicit_core(y_all[n], w[n], grid, cfg.epsilon, dt)
        except (StepFailureError, StabilityError) as exc:
            residual = getattr(exc, "residual", None)
            raise StepFailureError(f"step {n} failed: {exc}", step=n, residual=residual) from exc

    return Trajectory(config=cfg, noise=noise, y_fields=y_all, newton_iters=iters,
                      newton_residuals=resids)


def run_ensemble(
    x0: Field,
    eigen: EigenSystem,
    base_spec: NoiseSpec,
    cfg: SolverConfig,
    n_paths: int,
    *,
    override_decay_check: bool = False,
    workers: int = 1,
) -> Iterator[Trajectory]:
    """Lazily solve n_paths paths with seeds base_spec.seed + i, yielded in seed order.

    workers > 1 solves them in min(workers, n_paths) processes, at most
    twice that many paths ahead of the consumer, with the same results.
    """
    if n_paths < 0:
        raise ValueError("n_paths must be >= 0")
    solve = partial(_solve_seed, x0, eigen, base_spec, cfg, override_decay_check)
    seeds = range(base_spec.seed, base_spec.seed + n_paths)
    if workers > 1 and n_paths > 1:
        return _solve_in_pool(solve, seeds, min(workers, n_paths))
    return map(solve, seeds)


def _solve_seed(x0, eigen, base_spec, cfg, override_decay_check, seed) -> Trajectory:
    spec = replace(base_spec, seed=seed)
    path = synthesize(spec, eigen, override_decay_check=override_decay_check)
    return solve_path(x0, path, cfg)


def _solve_in_pool(solve, seeds: range, workers: int) -> Iterator[Trajectory]:
    from concurrent.futures import ProcessPoolExecutor  # serial runs never load multiprocessing
    with ProcessPoolExecutor(max_workers=workers) as pool:
        ahead = deque(pool.submit(solve, seed) for seed in seeds[: 2 * workers])
        for seed in seeds[2 * workers:]:
            yield ahead.popleft().result()
            ahead.append(pool.submit(solve, seed))
        while ahead:
            yield ahead.popleft().result()


@dataclass(frozen=True)
class EpsilonSweepReport:
    """Sup-t H^-1 distances between runs that share one noise path."""

    epsilons: np.ndarray
    pairwise: np.ndarray

    def __post_init__(self) -> None:
        for name in ("epsilons", "pairwise"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def consecutive(self) -> np.ndarray:
        """Distances between neighbouring eps, pairwise[i, i + 1]."""
        return np.diag(self.pairwise, 1)

    @property
    def monotone_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.consecutive) < 0))


def epsilon_sweep(
    x0: Field, noise: NoisePath, cfg: SolverConfig, eps_list: Sequence[float]
) -> EpsilonSweepReport:
    """Re-solve the same path for each eps and measure mutual distances.

    eps_list must be positive and non-increasing.  The distance between
    runs i and j is sup_n |Y_i(t_n) - Y_j(t_n)|_-1; the consecutive
    distances should decay as the eps gaps shrink (Cauchy behaviour of
    the regularization), which the report flags.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if eps.size < 2:
        raise ValueError("need at least two epsilons to sweep")
    if not np.all(eps > 0) or not np.all(np.isfinite(eps)):
        raise ValueError("epsilons must be positive and finite")
    if np.any(np.diff(eps) > 0):
        raise ValueError("eps_list must be non-increasing")

    y_stacks = []
    for e in eps:
        traj = solve_path(x0, noise, replace(cfg, epsilon=float(e)))
        y_stacks.append(traj.y_fields)

    m = eps.size
    pairwise = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            norms = _hminus1_norms(x0.grid, y_stacks[i] - y_stacks[j])
            pairwise[i, j] = pairwise[j, i] = float(np.max(norms))
    return EpsilonSweepReport(eps, pairwise)
