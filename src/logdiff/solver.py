"""Pathwise time stepping for the regularized log-diffusion equation.

With W_Q a realized noise path and Y = X - W_Q, the substituted form of
the regularized equation is a random PDE without stochastic integrals:

    dY/dt = Lap_h F_eps(Y + W_Q),   Y(0) = x,
    F_eps = yosida_shifted(eps, .)  (monotone, slope in [eps, 1/(1+eps)+eps]).

The scheme is implicit Euler,

    Y_{n+1} - dt * Lap_h F_eps(Y_{n+1} + W_{n+1}) = Y_n,

solved by damped Newton for the resolvent variable u = J_eps(Y_{n+1} +
W_{n+1}).  Since F_eps = signed_log(J_eps) + eps*id, with s = signed_log(u)

    Y_{n+1} = u + eps*s - W_{n+1},   F_eps(Y_{n+1} + W_{n+1}) = s + eps*(u + eps*s),

so no scalar root solve runs inside a step.  Newton starts at
u = Y_n + W_{n+1} and stops once the residual in Y is at most newton_tol
(a NaN residual never is).  Its Jacobian is

    J = diag(a) + (dt/h^2) * T * diag(b),   T = tridiag(-1, 2, -1),

with a = 1 + eps/(1+|u|) and b = 1/(1+|u|) + eps*a, both positive; with
z = b*delta the system J delta = -r is (diag(a/b) + (dt/h^2)*T) z = -r,
symmetric positive definite and tridiagonal, so LAPACK dptsv solves it
without pivoting, and delta = z/b.  The residual cannot fall below its
rounding floor

    16 * macheps * | |Y_{n+1}| + |Y_n| + 4*(dt/h^2)*|F_eps| |_2,

so when a Newton step fails to halve the residual, or damping finds no
decrease, Newton also stops if the residual is finite and below that
floor.  _solve_batch refuses, before any step, an eps that is not positive
and finite or whose largest Jacobian entry, 4*(dt/h^2)*(1 + eps + eps^2)
at u = 0, overflows (_check_step_range).  Explicit Euler (noise at the
left endpoint), marched by solve_explicit, is an independent cross-check;
a step refuses to run outside its stability bound

    dt * (4/h^2) * max_j F_eps'(Y_n + W_n) <= 1.

Lockstep rows.  One core, _solve_batch, marches a batch of rows, each a
(noise path, eps) pair on one space-time grid from one datum, through
the time steps together: a step works on the rows' (P, n) block.  The
residual, the Jacobian diagonals and the damping are vectorised over
rows, and per-row L2 norms use np.vecdot, which runs the same BLAS dot
per row as np.dot does on one row.  Only rows still above tolerance
iterate; damping, the rounding-floor stop and the iteration budget act
per row.  Each Newton iteration makes one dptsv call: the rows'
symmetrised systems are stacked, each followed by one pad row (diagonal
1, coupling +0 on both sides, right-hand side +0).  For finite input
this gives every row the bits of its own dptsv call.  dptsv factors
L D L^T and sweeps forward and back; at a block boundary the multiplier
is 0/d = +0, so the next diagonal loses +0*0 = +0 and keeps its value,
the pad row solves to +0 in both sweeps, and each row next to a pad
subtracts +0*(+0) = +0, which changes no value, not even the sign of a
zero, a right-hand side of -0.0 included.  A non-finite value breaks
this, since 0*inf carries a NaN across every block boundary, and dptsv's
info counts across the whole stack.  So an iteration in which a row's
residual is not finite, or whose stacked call returns info != 0 or a
non-finite step, solves its rows with one dptsv call each.  A batch of
one row (solve_path) makes that plain call.

When a row's step fails (a failed dptsv, a non-finite residual, Newton's
iteration budget) the row stops, and so do the rows after it: the batch
returns the trajectories of the rows before it and the StepFailureError,
with the step index, that solving that row alone raises.  solve_rows
(and so run_ensemble) cuts its rows into batches of at most
_BATCH_VALUES state values each; epsilon_sweep needs all its rows' Y
anyway, so it solves them as one batch, and it measures its H^-1
distances on Z = U^-T Y (see grid), one sweep per eps.  The noise path
owns the space-time grid: every step has size dt = noise.dt on the
noise's own time grid.  Trajectory.x_fields computes X_n = Y_n + W_n
anew.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._lapack import dptsv
from .grid import EigenSystem, Field, GridSpec, _half_solve, _hold, _laplacian, _norms_l2
from .noise import NoisePath, NoiseSpec, _require_decay, synthesize
from .nonlinearity import _check_eps, _signed_log, yosida_derivative, yosida_shifted

_MAX_DAMPING_HALVINGS = 30

# a batch of rows holds at most this many state values of Y (4 MiB): the 5 desk
# paths (127 nodes, 500 steps) form one batch, and 8 such paths fill one
_BATCH_VALUES = 2**19


class StepFailureError(RuntimeError):
    """A time step could not be completed; carries step index and residual."""

    def __init__(self, message: str, step: int | None = None, residual: float | None = None):
        super().__init__(message)
        self.step = step
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    """Regularization and Newton settings; the time grid belongs to the noise path."""

    epsilon: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 50

    def __post_init__(self) -> None:
        _check_eps(self.epsilon)
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if not (isinstance(self.newton_max_iter, (int, np.integer)) and self.newton_max_iter >= 1):
            raise ValueError(f"newton_max_iter must be an integer >= 1, got {self.newton_max_iter}")


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
        _hold(self, "y_fields", "newton_residuals")
        _hold(self, "newton_iters", dtype=int)

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


def _check_step_range(grid: GridSpec, dt: float, eps: float) -> None:
    """The one rule for a solve's eps on this grid and time step: refuse it unless it is
    positive and finite (_check_eps) and the Newton matrix's largest entry, 4*(dt/h^2)*b
    with b = 1 + eps + eps^2 at u = 0 (module docstring), is finite; on 31 nodes at
    dt = 1e-3 that admits eps = 1e150 and refuses 1e200, where Newton would meet inf - inf.
    _solve_batch applies it to each row before the first step, the config to each eps.
    """
    _check_eps(eps)
    if not 4.0 * (dt / (grid.h * grid.h)) * (1.0 + eps * (1.0 + eps)) < math.inf:
        raise ValueError(f"eps = {eps:g} puts the implicit step outside the float range at "
                         f"dt = {dt:g} and h = {grid.h:g}: 4*(dt/h^2)*(1 + eps + eps^2) overflows")


def _state_and_flux(u: np.ndarray, eps, w_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y = u + eps*s - W and F_eps(Y + W) = s + eps*(u + eps*s), with s = signed_log(u).

    In place on fresh arrays; each value has the bits of those formulas.
    """
    s = _signed_log(u)
    x = eps * s
    x += u  # Y + W
    flux = eps * x
    flux += s
    x -= w_next
    return x, flux


def _step_implicit_core(
    y_prev: np.ndarray,
    w_next: np.ndarray,
    grid: GridSpec,
    eps: np.ndarray,
    dt: float,
    newton_tol: float,
    newton_max_iter: int,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, StepFailureError]]:
    """One damped-Newton implicit Euler step in u = J_eps(Y + W) for each row of (P, n) arrays.

    eps is (P, n), or a (P, 1) column; work, if given, is _newton_directions' (3, P, n + 1)
    workspace.
    Returns (y, iters, residuals, failures): failures maps the position of each row whose
    Newton failed to its error, and that row's y, iters and residual mean nothing.
    """
    h, scale = grid.h, dt / grid.h**2
    y_out = np.empty_like(y_prev)
    iters_out = np.zeros(len(y_prev), dtype=int)
    res_out = np.zeros(len(y_prev))
    failures: dict[int, StepFailureError] = {}

    def residual(u, e, w, yp):  # r = y - dt*Lap_h(flux) - yp, in place
        y, flux = _state_and_flux(u, e, w)
        r = _laplacian(flux, h)
        r *= dt
        np.subtract(y, r, out=r)
        r -= yp
        return y, r, _norms_l2(grid, r)

    def at_floor(u, rnorm, e, w, yp):
        y, flux = _state_and_flux(u, e, w)
        return (rnorm < np.inf) & (rnorm <= _rounding_floor(grid, y, yp, flux, dt))

    def fail(rows, rnorm, message):
        for p, rn in zip(rows, rnorm):
            failures[p] = StepFailureError(message.format(rn), residual=float(rn))

    # the rows still iterating: their positions and their own states; all of them have
    # taken `iters` Newton iterations
    rows, e, w, yp = np.arange(len(y_prev)), eps, w_next, y_prev
    u = y_prev + w_next
    y, r, rnorm = residual(u, e, w, yp)
    iters = 0
    stop = rnorm <= newton_tol  # a NaN residual never counts as converged
    while True:
        n_stop = np.count_nonzero(stop)
        if n_stop == rows.size:
            y_out[rows], iters_out[rows], res_out[rows] = y, iters, rnorm
            break
        if n_stop:
            done = rows[stop]
            y_out[done], iters_out[done], res_out[done] = y[stop], iters, rnorm[stop]
            keep = ~stop
            rows, u, y, r, rnorm, e, w, yp = (a[keep] for a in (rows, u, y, r, rnorm, e, w, yp))
        if iters >= newton_max_iter:
            fail(rows, rnorm, f"Newton did not reach tol {newton_tol:.3g} in {newton_max_iter} "
                 "iterations (residual {:.3g})")
            break
        # delta may be a view of work: it is used up before the next call overwrites it
        delta, failed = _newton_directions(
            u, r, rnorm, e, scale, None if work is None else work[:, :rows.size])
        if failed:  # a failed solve fails its row
            for i, info in failed.items():
                failures[rows[i]] = StepFailureError(
                    f"tridiagonal solve failed (dptsv info {info})", residual=float(rnorm[i]))
            keep = np.ones(rows.size, dtype=bool)
            keep[list(failed)] = False
            rows, u, y, r, rnorm, e, w, yp, delta = (
                a[keep] for a in (rows, u, y, r, rnorm, e, w, yp, delta))
            if not rows.size:
                break

        u_try = u + delta
        y_try, r_try, rn_try = residual(u_try, e, w, yp)
        pending = (~(rn_try < rnorm)).nonzero()[0]
        alpha = 1.0
        for _ in range(_MAX_DAMPING_HALVINGS - 1):
            if not pending.size:
                break
            alpha *= 0.5
            trial = u[pending] + alpha * delta[pending]
            y_t, r_t, rn_t = residual(trial, e[pending], w[pending], yp[pending])
            u_try[pending], y_try[pending], r_try[pending], rn_try[pending] = trial, y_t, r_t, rn_t
            pending = pending[~(rn_t < rnorm[pending])]

        if pending.size:  # no decrease: the row stops at the rounding floor, or fails
            floor = at_floor(u[pending], rnorm[pending], e[pending], w[pending], yp[pending])
            done = pending[floor]
            at = rows[done]
            y_out[at], iters_out[at], res_out[at] = y[done], iters, rnorm[done]
            fail(rows[pending[~floor]], rnorm[pending[~floor]],
                 "Newton damping stalled at residual {:.3g}")
            keep = np.ones(rows.size, dtype=bool)
            keep[pending] = False
            rows, rnorm, e, w, yp, u_try, y_try, r_try, rn_try = (
                a[keep] for a in (rows, rnorm, e, w, yp, u_try, y_try, r_try, rn_try))

        stalled = rn_try > 0.5 * rnorm
        u, y, r, rnorm = u_try, y_try, r_try, rn_try
        iters += 1
        stop = rnorm <= newton_tol
        if np.count_nonzero(stalled):
            check = (stalled & ~stop).nonzero()[0]
            stop[check] = at_floor(u[check], rnorm[check], e[check], w[check], yp[check])
    return y_out, iters_out, res_out, failures


def _newton_directions(
    u: np.ndarray, r: np.ndarray, rnorm: np.ndarray, eps: np.ndarray, scale: float,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, dict[int, int]]:
    """Solve each row's Jacobian system for its Newton step; returns (delta, failed).

    J = diag(a) + scale*T*diag(b) with T = tridiag(-1, 2, -1), so J delta = -r is
    (diag(a/b) + scale*T) z = -r with z = b*delta: symmetric positive definite, for dptsv.
    failed maps the position of each row whose dptsv call failed to its info.  One dptsv
    call takes the rows' systems stacked, each followed by one pad row, written into work
    (shape (3, rows, n + 1)) if given, else into a fresh array, and solved there in place,
    so delta is a view of that array.  If a row's residual is not finite, or the stacked
    call reports info != 0 or a non-finite entry, each row gets a dptsv call of its own
    instead (module docstring).
    """
    slope = 1.0 / (1.0 + np.abs(u))
    a = 1.0 + eps * slope
    b = slope + eps * a
    k, n = u.shape
    if k > 1 and np.isfinite(rnorm).all():
        d, e, rhs = np.empty((3, k, n + 1)) if work is None else work
        np.divide(a, b, out=d[:, :n])
        d[:, :n] += 2.0 * scale
        e[:, :n - 1] = -scale
        e[:, n - 1:] = 0.0  # +0 coupling into and out of each pad row
        d[:, n] = 1.0
        np.negative(r, out=rhs[:, :n])
        rhs[:, n] = 0.0
        # in place: f2py would otherwise copy all three operands on every call; every
        # element of work is written above, and the last coupling is not an operand
        *_, z, info = dptsv(d.ravel(), e.ravel()[:-1], rhs.ravel(),
                            overwrite_d=1, overwrite_e=1, overwrite_b=1)
        if info == 0:
            delta = z.reshape(k, n + 1)[:, :n]
            delta /= b
            if np.isfinite(z @ z) or np.isfinite(z).all():  # z @ z may overflow
                return delta, {}
    diag, off = a / b + 2.0 * scale, np.full(n - 1, -scale)
    solved = [dptsv(diag[i], off, -r[i])[2:] for i in range(k)]
    failed = {i: info for i, (_, info) in enumerate(solved) if info != 0}
    return np.array([z for z, _ in solved]) / b, failed


def _rounding_floor(
    grid: GridSpec, y: np.ndarray, y_prev: np.ndarray, flux: np.ndarray, dt: float
) -> np.ndarray:
    """16 macheps | |y| + |y_prev| + 4 (dt/h^2) |flux| |_2 per row, the residual's floor."""
    bound = np.abs(y) + np.abs(y_prev) + (4.0 * dt / grid.h**2) * np.abs(flux)
    return 16.0 * np.finfo(float).eps * _norms_l2(grid, bound)


def _step_explicit_core(
    y_prev: np.ndarray, w_prev: np.ndarray, grid: GridSpec, eps: float, dt: float
) -> np.ndarray:
    """One explicit Euler step of a state; raises StepFailureError outside the stability bound."""
    z = y_prev + w_prev
    bound = dt * (4.0 / grid.h**2) * np.max(yosida_derivative(eps, z) + eps)
    if bound > 1.0:
        raise StepFailureError(
            f"explicit step unstable: dt * (4/h^2) * max F_eps' = {bound:.6g} > 1 at dt = {dt:.6g}")
    return y_prev + dt * _laplacian(yosida_shifted(eps, z), grid.h)


def _solve_batch(
    x0: Field, cfg: SolverConfig, rows: Sequence[tuple[NoisePath, float]]
) -> tuple[list[Trajectory], StepFailureError | None]:
    """March rows (noise path, eps) from x0 in lockstep across their shared time grid.

    Returns the trajectories of the rows before the first row whose step fails, and that
    row's error (None if no row fails): what solving the rows one at a time yields and raises.
    """
    grid = x0.grid
    if any(path.grid != grid for path, _ in rows):
        raise ValueError("noise path lives on a different grid")
    n_steps, dt = rows[0][0].spec.n_steps, rows[0][0].dt
    configs = {e: replace(cfg, epsilon=e) for e in dict.fromkeys(e for _, e in rows)}
    for e in configs:  # each distinct eps, before the first step
        _check_step_range(grid, dt, e)
    ys = [np.empty((n_steps + 1, grid.n_interior)) for _ in rows]
    iters = np.zeros((len(rows), n_steps), dtype=int)
    resids = np.zeros((len(rows), n_steps))
    y = np.empty((len(rows), grid.n_interior))
    y[:] = x0.values
    for y_row in ys:
        y_row[0] = x0.values
    # a full array: numpy multiplies by it about three times as fast as by a (P, 1) column
    eps = np.empty_like(y)
    eps[:] = [[e] for _, e in rows]
    w = np.empty_like(y)
    # one workspace for every Newton iteration's stacked dptsv operands: a fresh one per
    # iteration (147 KB at 6 rows of 1023 nodes) passes glibc's mmap threshold, so each
    # would be mapped and page-faulted anew
    work = np.empty((3, len(rows), grid.n_interior + 1))
    values = [path.values for path, _ in rows]
    live, error = len(rows), None  # rows after a failed row are dropped: the live rows are a prefix
    for n in range(n_steps):
        for i in range(live):
            w[i] = values[i][n + 1]
        y, iters[:live, n], resids[:live, n], failures = _step_implicit_core(
            y, w[:live], grid, eps[:live], dt, cfg.newton_tol, cfg.newton_max_iter, work)
        if failures:
            live = min(failures)
            exc = failures[live]
            error = StepFailureError(f"step {n} failed: {exc}", step=n, residual=exc.residual)
            error.__cause__ = exc
            y = y[:live]
        for i in range(live):
            ys[i][n + 1] = y[i]
        if not live:
            break
    for y_row in ys:  # nothing else holds them, so Trajectory need not copy them
        y_row.flags.writeable = False
    trajs = [Trajectory(config=configs[e], noise=path, y_fields=ys[i],
                        newton_iters=iters[i], newton_residuals=resids[i])
             for i, (path, e) in enumerate(rows[:live])]
    return trajs, error


def _batches(rows: Sequence, values_per_row: int) -> list[Sequence]:
    """Cut rows into batches of at most _BATCH_VALUES state values each: the batching rule."""
    size = max(1, _BATCH_VALUES // values_per_row)
    return [rows[i:i + size] for i in range(0, len(rows), size)]


def _yield_rows(
    results: Iterable[tuple[list[Trajectory], Exception | None]]
) -> Iterator[Trajectory]:
    """Each batch's trajectories in order, then its error if it has one."""
    for trajs, error in results:
        trajs.reverse()
        while trajs:  # pop, so the batch does not outlive its consumer's references
            yield trajs.pop()
        if error is not None:
            raise error


def solve_path(x0: Field, noise: NoisePath, cfg: SolverConfig) -> Trajectory:
    """March implicit Euler across the noise path's time grid: a batch of one row.

    Deterministic: identical inputs give identical output.
    """
    return next(_yield_rows([_solve_batch(x0, cfg, [(noise, cfg.epsilon)])]))


def solve_explicit(x0: Field, noise: NoisePath, cfg: SolverConfig) -> Trajectory:
    """March explicit Euler across the noise path's time grid, one path on its own.

    The cross-check of the implicit scheme: it reads only cfg.epsilon, takes the noise at
    each step's left endpoint and reports zero Newton iterations and residuals.  A step
    outside the stability bound raises StepFailureError with its step index.
    """
    if noise.grid != x0.grid:
        raise ValueError("noise path lives on a different grid")
    n_steps = noise.spec.n_steps
    y = np.empty((n_steps + 1, x0.grid.n_interior))
    y[0] = x0.values
    for n in range(n_steps):
        try:
            y[n + 1] = _step_explicit_core(y[n], noise.values[n], x0.grid, cfg.epsilon, noise.dt)
        except StepFailureError as exc:
            raise StepFailureError(f"step {n} failed: {exc}", step=n) from exc
    return Trajectory(config=cfg, noise=noise, y_fields=y,
                      newton_iters=np.zeros(n_steps, dtype=int), newton_residuals=np.zeros(n_steps))


def solve_rows(
    x0: Field,
    eigen: EigenSystem,
    base_spec: NoiseSpec,
    cfg: SolverConfig,
    rows: Sequence[tuple[int, float]],
    *,
    override_decay_check: bool = False,
    workers: int = 1,
) -> Iterator[Trajectory]:
    """Lazily solve rows (seed, eps) from x0, yielded in row order.

    Row (seed, eps) is base_spec's noise path with that seed, solved at that eps.  The
    decay check judges base_spec once, here, unless override_decay_check.  The rows go in
    batches of the batching rule; a batch draws each of its seeds' paths once and is
    solved in lockstep.  workers > 1 solves the batches in min(workers, batches)
    processes, at most twice that many batches ahead of the consumer, with the same results.
    """
    if not override_decay_check:
        _require_decay(base_spec, eigen)
    batches = _batches(list(rows), (base_spec.n_steps + 1) * eigen.grid.n_interior)
    solve = partial(_solve_seed_rows, x0, eigen, base_spec, cfg)
    if workers > 1 and len(batches) > 1:
        return _yield_rows(_solve_in_pool(solve, batches, min(workers, len(batches))))
    return _yield_rows(map(solve, batches))


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
    """Lazily solve n_paths paths with seeds base_spec.seed + i at cfg.epsilon, in seed order.

    The rows (seed, cfg.epsilon) go through solve_rows, so a consumer that drops each
    trajectory holds one batch at a time, not one path.
    """
    if n_paths < 0:
        raise ValueError("n_paths must be >= 0")
    rows = [(seed, cfg.epsilon) for seed in range(base_spec.seed, base_spec.seed + n_paths)]
    return solve_rows(x0, eigen, base_spec, cfg, rows,
                      override_decay_check=override_decay_check, workers=workers)


def _solve_seed_rows(x0, eigen, base_spec, cfg, rows):
    paths: dict[int, NoisePath] = {}
    for seed, _ in rows:  # solve_rows has judged the decay check
        if seed not in paths:
            spec = replace(base_spec, seed=seed)
            paths[seed] = synthesize(spec, eigen, override_decay_check=True)
    return _solve_batch(x0, cfg, [(paths[seed], eps) for seed, eps in rows])


def _solve_in_pool(solve, batches: list, workers: int) -> Iterator:
    from concurrent.futures import ProcessPoolExecutor  # serial runs never load multiprocessing
    with ProcessPoolExecutor(max_workers=workers) as pool:
        ahead = deque(pool.submit(solve, batch) for batch in batches[: 2 * workers])
        for batch in batches[2 * workers:]:
            yield ahead.popleft().result()
            ahead.append(pool.submit(solve, batch))
        while ahead:
            yield ahead.popleft().result()


@dataclass(frozen=True)
class EpsilonSweepReport:
    """Sup-t H^-1 distances between runs that share one noise path."""

    epsilons: np.ndarray
    pairwise: np.ndarray

    def __post_init__(self) -> None:
        _hold(self, "epsilons", "pairwise")

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

    eps_list must be non-increasing (_solve_batch judges each eps).  The
    distance between runs i and j is sup_n |Y_i(t_n) - Y_j(t_n)|_-1; the
    consecutive distances should decay as the eps gaps shrink (Cauchy
    behaviour of the regularization), which the report flags.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if eps.size < 2:
        raise ValueError("need at least two epsilons to sweep")
    if np.any(np.diff(eps) > 0):
        raise ValueError("eps_list must be non-increasing")

    # one batch: the pairwise table needs every row's Y
    trajs, error = _solve_batch(x0, cfg, [(noise, float(e)) for e in eps])
    if error is not None:
        raise error

    # |Y_i - Y_j|_-1 = |Z_i - Z_j|_2 with Z = U^-T Y, so each Y takes one sweep, made in
    # Y's own store: the batch owns it, and nothing reads these trajectories after the
    # sweep.  Z_i is (n, steps + 1), one column per time
    for traj in trajs:
        traj.y_fields.flags.writeable = True
    z = [_half_solve(x0.grid, traj.y_fields.T, overwrite=True) for traj in trajs]
    m, diff = eps.size, np.empty_like(z[0])
    pairwise = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            np.subtract(z[i], z[j], out=diff)
            pairwise[i, j] = pairwise[j, i] = float(np.max(_norms_l2(x0.grid, diff.T)))
    return EpsilonSweepReport(eps, pairwise)
