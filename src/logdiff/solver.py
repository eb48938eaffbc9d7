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
(a NaN residual never is); its Jacobian diag(a) - dt * Lap_h diag(b),
with a = 1 + eps/(1+|u|) and b = 1/(1+|u|) + eps*a, is tridiagonal and,
as a > 0, strictly diagonally dominant in its columns.  The residual
cannot fall below its rounding floor

    16 * macheps * | |Y_{n+1}| + |Y_n| + 4*(dt/h^2)*|F_eps| |_2,

so when a Newton step fails to halve the residual, or damping finds no
decrease, Newton also stops if the residual is finite and below that
floor.  Explicit Euler (noise at the left endpoint), marched by
solve_explicit, is an independent cross-check; a step refuses to run
outside its stability bound

    dt * (4/h^2) * max_j F_eps'(Y_n + W_n) <= 1.

Lockstep rows.  One core, _solve_batch, marches a batch of rows, each a
(noise path, eps) pair on one space-time grid from one datum, through
the time steps together: a step works on the rows' (P, n) block.  The
residual, the Jacobian diagonals and the damping are vectorised over
rows, and per-row L2 norms use np.vecdot, which runs the same BLAS dot
per row as np.dot does on one row.  Only rows still above tolerance
iterate; damping, the rounding-floor stop and the iteration budget act
per row.  Each Newton iteration makes one LAPACK dgtsv call: the rows'
tridiagonal systems are stacked, each followed by two identity rows with
zero coupling.  For finite input this gives every row the bits of its
own dgtsv call: column dominance means dgtsv never swaps rows, so each
block is eliminated as if alone; the multipliers into and out of the
identity rows are +0, the identity rows solve to +0, and subtracting +0
changes no value, not even the sign of a zero.  A non-finite value
breaks this, since 0*inf carries a NaN across every block boundary, and
dgtsv's info counts across the whole stack.  So an iteration in which
a row's residual is not finite, or whose stacked call returns info != 0
or a non-finite entry, solves its rows with one dgtsv call each.  A
batch of one row (solve_path) makes that plain call.

When a row's step fails (a failed dgtsv, a non-finite residual, Newton's
iteration budget) the row stops, and so do the rows after it: the batch
returns the trajectories of the rows before it and the StepFailureError,
with the step index, that solving that row alone raises.  solve_rows
(and so run_ensemble) cuts its rows into batches of at most
_BATCH_VALUES state values each; epsilon_sweep keeps all its rows' Y
anyway, so it solves them as one batch.  The noise path owns the
space-time grid: every step has size dt = noise.dt on the noise's own
time grid.  Trajectory.x_fields computes X_n = Y_n + W_n anew.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._lapack import dgtsv
from .grid import EigenSystem, Field, GridSpec, _hminus1_norms, _laplacian, _norms_l2
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
        if self.newton_max_iter < 1:
            raise ValueError("newton_max_iter must be >= 1")


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


def _state_and_flux(u: np.ndarray, eps, w_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Y = u + eps*s - W and F_eps(Y + W) = s + eps*(u + eps*s), with s = signed_log(u)."""
    s = _signed_log(u)
    x = u + eps * s  # Y + W
    return x - w_next, s + eps * x


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

    eps is a (P, 1) column; work, if given, is _newton_directions' (4, P, n + 2) workspace.
    Returns (y, iters, residuals, failures): failures maps the position of each row whose
    Newton failed to its error, and that row's y, iters and residual mean nothing.
    """
    h, scale = grid.h, dt / grid.h**2
    y_out = np.empty_like(y_prev)
    iters_out = np.zeros(len(y_prev), dtype=int)
    res_out = np.zeros(len(y_prev))
    failures: dict[int, StepFailureError] = {}

    def residual(u, e, w, yp):
        y, flux = _state_and_flux(u, e, w)
        r = y - dt * _laplacian(flux, h) - yp
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
        delta, failed = _newton_directions(
            u, r, rnorm, e, scale, None if work is None else work[:, :rows.size])
        if failed:  # a failed solve fails its row
            for i, info in failed.items():
                failures[rows[i]] = StepFailureError(
                    f"tridiagonal solve failed (dgtsv info {info})", residual=float(rnorm[i]))
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

    failed maps the position of each row whose dgtsv call failed to its info.  One
    dgtsv call takes the rows' tridiagonal systems stacked, each followed by two
    identity rows, written into work (shape (4, rows, n + 2)) if given, else into a
    fresh array.  If a row's residual is not finite, or the stacked call reports
    info != 0 or a non-finite entry, each row gets a dgtsv call of its own instead
    (module docstring).
    """
    slope = 1.0 / (1.0 + np.abs(u))
    a = 1.0 + eps * slope
    b = slope + eps * a
    k, n = u.shape
    if k > 1 and np.isfinite(rnorm).all():
        dl, du, d, rhs = np.empty((4, k, n + 2)) if work is None else work
        np.multiply(-scale, b[:, :-1], out=dl[:, :n - 1])
        np.multiply(-scale, b[:, 1:], out=du[:, :n - 1])
        np.multiply(2.0 * scale, b, out=d[:, :n])
        d[:, :n] += a
        np.negative(r, out=rhs[:, :n])
        dl[:, n - 1:] = du[:, n - 1:] = rhs[:, n:] = 0.0  # +0 coupling, identity rows
        d[:, n:] = 1.0
        *_, x, info = dgtsv(dl.ravel()[:-1], d.ravel(), du.ravel()[:-1], rhs.ravel())
        if info == 0 and (np.isfinite(x @ x) or np.isfinite(x).all()):  # x @ x may overflow
            return x.reshape(k, n + 2)[:, :n], {}
    off, diag = -scale * b, a + 2.0 * scale * b
    solved = [dgtsv(off[i, :-1], diag[i], off[i, 1:], -r[i])[3:] for i in range(k)]
    failed = {i: info for i, (_, info) in enumerate(solved) if info != 0}
    return np.array([x for x, _ in solved]), failed


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
    ys = [np.empty((n_steps + 1, grid.n_interior)) for _ in rows]
    iters = np.zeros((len(rows), n_steps), dtype=int)
    resids = np.zeros((len(rows), n_steps))
    y = np.empty((len(rows), grid.n_interior))
    y[:] = x0.values
    for y_row in ys:
        y_row[0] = x0.values
    eps = np.array([[e] for _, e in rows])
    w = np.empty_like(y)
    # one workspace for every Newton iteration's stacked dgtsv operands: a fresh one per
    # iteration (197 KB at 6 rows of 1023 nodes) passes glibc's mmap threshold, so each
    # would be mapped and page-faulted anew
    work = np.empty((4, len(rows), grid.n_interior + 2))
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
    trajs = [Trajectory(config=replace(cfg, epsilon=e), noise=path, y_fields=ys[i],
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

    # one batch: the pairwise table keeps every row's Y, so cutting the rows saves no memory
    trajs, error = _solve_batch(x0, cfg, [(noise, float(e)) for e in eps])
    if error is not None:
        raise error

    m, diff = eps.size, np.empty_like(trajs[0].y_fields)
    pairwise = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            np.subtract(trajs[i].y_fields, trajs[j].y_fields, out=diff)
            pairwise[i, j] = pairwise[j, i] = float(np.max(_hminus1_norms(x0.grid, diff)))
    return EpsilonSweepReport(eps, pairwise)
