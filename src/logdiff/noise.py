"""Spectral Q-Wiener noise on the Dirichlet grid.

A path is the truncated expansion

    W_Q(t_n) = sum_{k=1..k_max} gamma_k * beta_k(t_n) * e_k,

where e_k are the discrete stencil eigenvectors, beta_k are independent
standard Brownian motions sampled on the uniform time grid, and gamma_k
are nonnegative amplitudes.  The built-in amplitude rule is the power
law gamma_k = gamma0 * k^(-decay).

Summability of the amplitudes against the eigenvalue growth is checked
by :func:`validate_decay`.  Both partial sums

    S_sq  = sum gamma_k^2 * lambda_k^2      (needs decay > 5/2),
    S_lin = sum gamma_k   * lambda_k^3      (needs decay > 7),

are reported; note the second sum carries a single power of gamma_k.
For the power rule on a 1-d interval lambda_k ~ k^2, so the exponent
margins are 2*decay - 5 and decay - 7; both must be positive.

Determinism: each mode draws from its own child stream spawned from the
master seed, so enlarging k_max leaves the earlier modes' Brownian
paths bit-identical, and the mode accumulation runs in fixed k order so
a resynthesis reproduces the field values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Union

import numpy as np

from .grid import EigenSystem, Field, GridSpec


@dataclass(frozen=True)
class PowerLawGammas:
    """gamma_k = gamma0 * k^(-decay), k = 1, 2, ..."""

    gamma0: float = 1.0
    decay: float = 8.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.gamma0) and self.gamma0 >= 0):
            raise ValueError(f"gamma0 must be nonnegative and finite, got {self.gamma0}")
        if not np.isfinite(self.decay):
            raise ValueError(f"decay must be finite, got {self.decay}")

    def values(self, k_max: int) -> np.ndarray:
        k = np.arange(1, k_max + 1, dtype=float)
        return self.gamma0 * k ** (-self.decay)


@dataclass(frozen=True)
class ExplicitGammas:
    """Explicit nonnegative amplitude table, index k = 1..len(gammas)."""

    gammas: tuple[float, ...]

    def __post_init__(self) -> None:
        g = np.asarray(self.gammas, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("gammas must be a nonempty sequence")
        if not (np.all(np.isfinite(g)) and np.all(g >= 0)):
            raise ValueError("gammas must be nonnegative and finite")
        object.__setattr__(self, "gammas", tuple(float(v) for v in g))

    def values(self, k_max: int) -> np.ndarray:
        if k_max > len(self.gammas):
            raise ValueError(f"amplitude table has {len(self.gammas)} entries, need {k_max}")
        return np.asarray(self.gammas[:k_max], dtype=float)


GammaRule = Union[PowerLawGammas, ExplicitGammas]


@dataclass(frozen=True)
class NoiseSpec:
    """Everything needed to synthesize one noise path deterministically."""

    k_max: int
    gammas: GammaRule
    seed: int
    t_final: float
    n_steps: int

    def __post_init__(self) -> None:
        if int(self.k_max) != self.k_max or self.k_max < 1:
            raise ValueError(f"k_max must be a positive integer, got {self.k_max}")
        if int(self.seed) != self.seed or not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed}")
        if not (np.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")
        # materialize the rule once so bad parameter combinations fail here
        self.gammas.values(self.k_max)

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    def times(self) -> np.ndarray:
        return time_grid(self.t_final, self.n_steps)


def time_grid(t_final: float, n_steps: int) -> np.ndarray:
    """Uniform grid 0 = t_0 < ... < t_N = t_final, N = n_steps."""
    return np.linspace(0.0, t_final, n_steps + 1)


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One realized path of the spectral noise on a space-time grid.

    values[n, j] is the field at time index n and node j+1; row 0 is
    identically zero.  brownian[n, k] holds beta_{k+1}(t_n).
    """

    spec: NoiseSpec
    grid: GridSpec
    times: np.ndarray
    values: np.ndarray
    brownian: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.times, dtype=float, copy=True)
        v = np.array(self.values, dtype=float, copy=True)
        n_rows = self.spec.n_steps + 1
        if t.shape != (n_rows,):
            raise ValueError(f"times must have shape ({n_rows},), got {t.shape}")
        if v.shape != (n_rows, self.grid.n_interior):
            raise ValueError(
                f"values must have shape ({n_rows}, {self.grid.n_interior}), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("noise values must be finite")
        if np.any(v[0] != 0.0):
            raise ValueError("noise must vanish at t = 0")
        b = np.array(self.brownian, dtype=float, copy=True)
        if b.shape != (n_rows, self.spec.k_max):
            raise ValueError("brownian matrix shape mismatch")
        for name, arr in (("times", t), ("values", v), ("brownian", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):  # unpickle through __init__, so the arrays are read-only again
        return NoisePath, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def dt(self) -> float:
        return self.spec.dt

    def field_at(self, n: int) -> Field:
        return Field(self.grid, self.values[n])


@dataclass(frozen=True)
class DecayReport:
    """Partial sums and (for the power rule) analytic exponent margins."""

    k_max: int
    sum_gamma_sq_lambda_sq: float
    sum_gamma_lambda_cubed: float
    margin_square_sum: Optional[float]
    margin_linear_sum: Optional[float]
    ok: bool


def validate_decay(spec: NoiseSpec, eigen: EigenSystem) -> DecayReport:
    """Check the noise amplitudes against the eigenvalue growth.

    Partial sums are always reported.  For a power rule with gamma0 > 0
    the analytic margins (2*decay - 5, decay - 7) decide ``ok``; both
    must be strictly positive.  A zero-amplitude rule is always valid
    (the equation is then deterministic), and explicit finite tables
    are valid by construction.
    """
    if eigen.k_max < spec.k_max:
        raise ValueError(f"eigensystem holds {eigen.k_max} modes, need {spec.k_max}")
    gam = spec.gammas.values(spec.k_max)
    lam = eigen.eigenvalues[: spec.k_max]
    s_sq = float(np.sum(gam**2 * lam**2))
    s_lin = float(np.sum(gam * lam**3))

    margin_sq: Optional[float] = None
    margin_lin: Optional[float] = None
    ok = True
    if isinstance(spec.gammas, PowerLawGammas) and spec.gammas.gamma0 > 0:
        margin_sq = 2.0 * spec.gammas.decay - 5.0
        margin_lin = spec.gammas.decay - 7.0
        ok = margin_sq > 0 and margin_lin > 0
    return DecayReport(spec.k_max, s_sq, s_lin, margin_sq, margin_lin, ok)


def synthesize(
    spec: NoiseSpec,
    grid: GridSpec,
    eigen: EigenSystem,
    *,
    override_decay_check: bool = False,
) -> NoisePath:
    """Draw one noise path; bit-identical for identical (spec, grid).

    Each mode k spawns child stream k of SeedSequence(seed) and takes
    n_steps increments sqrt(dt)*N(0,1), so the Brownian matrix for the
    first K modes does not depend on k_max >= K.  Requires a passing
    decay report unless ``override_decay_check`` is set.
    """
    if spec.k_max > grid.n_interior:
        raise ValueError(
            f"k_max = {spec.k_max} exceeds the {grid.n_interior} representable modes"
        )
    if eigen.grid != grid:
        raise ValueError("eigensystem was built for a different grid")
    report = validate_decay(spec, eigen)
    if not report.ok and not override_decay_check:
        raise ValueError(
            "noise amplitudes fail the decay check "
            f"(margins {report.margin_square_sum}, {report.margin_linear_sum}); "
            "pass override_decay_check=True to synthesize anyway"
        )

    n_rows = spec.n_steps + 1
    dt = spec.dt
    sqrt_dt = np.sqrt(dt)
    children = np.random.SeedSequence(spec.seed).spawn(spec.k_max)
    brownian = np.zeros((n_rows, spec.k_max))
    for k in range(spec.k_max):
        rng = np.random.default_rng(children[k])
        increments = sqrt_dt * rng.standard_normal(spec.n_steps)
        brownian[1:, k] = np.cumsum(increments)

    gam = spec.gammas.values(spec.k_max)
    values = np.zeros((n_rows, grid.n_interior))
    # fixed accumulation order keeps resynthesis bit-identical
    for k in range(spec.k_max):
        if gam[k] != 0.0:
            values += np.outer(gam[k] * brownian[:, k], eigen.eigenvectors[k])
    return NoisePath(spec, grid, time_grid(spec.t_final, spec.n_steps), values, brownian)


def sup_norm_estimate(path: NoisePath) -> float:
    """max over the time grid of the sup norm |W_Q(t_n)|_inf."""
    return float(np.max(np.abs(path.values)))


class OscillationError(ValueError):
    """A single time step already oscillates by at least alpha."""

    def __init__(self, step: int, oscillation: float, alpha: float):
        super().__init__(
            f"step {step} -> {step + 1} oscillates by {oscillation:.6g} >= alpha = {alpha:.6g}; "
            "refine the time grid"
        )
        self.step = step
        self.oscillation = oscillation


def modulus_of_continuity(path: NoisePath, alpha: float) -> np.ndarray:
    """Greedy partition of [0, T] into cells with sup-norm oscillation < alpha.

    Returns the time indices 0 = i_0 < i_1 < ... < i_M = n_steps; within
    each closed cell [t_{i_m}, t_{i_m+1}] the oscillation

        max_{s,t in cell} |W_Q(t) - W_Q(s)|_inf

    is < alpha.  Raises OscillationError if some single step already
    oscillates by >= alpha (the grid is then too coarse for this alpha).
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    values = path.values
    n_steps = path.spec.n_steps
    cuts = [0]
    start = 0
    while start < n_steps:
        run_min = values[start].copy()
        run_max = values[start].copy()
        end = start
        while end < n_steps:
            cand_min = np.minimum(run_min, values[end + 1])
            cand_max = np.maximum(run_max, values[end + 1])
            osc = float(np.max(cand_max - cand_min))
            if osc < alpha:
                run_min, run_max = cand_min, cand_max
                end += 1
            else:
                break
        if end == start:
            one_step = float(np.max(np.abs(values[start + 1] - values[start])))
            raise OscillationError(start, one_step, alpha)
        cuts.append(end)
        start = end
    return np.asarray(cuts, dtype=int)


def restrict(path: NoisePath, stride: int) -> NoisePath:
    """Restrict a path to every ``stride``-th time point.

    Brownian restriction is exact in law, so the result is the same
    noise observed on the coarser uniform grid (same seed, same field
    values at the shared times).
    """
    if int(stride) != stride or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    if path.spec.n_steps % stride != 0:
        raise ValueError(f"stride {stride} does not divide n_steps = {path.spec.n_steps}")
    new_spec = replace(path.spec, n_steps=path.spec.n_steps // stride)
    return NoisePath(
        new_spec, path.grid, path.times[::stride], path.values[::stride], path.brownian[::stride]
    )
