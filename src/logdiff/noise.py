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

A path holds its times and values only.  Each nonzero mode's Brownian
motion is drawn straight into its row of the one mode-major array the
sums read, then scaled by gamma_k; a mode with gamma_k = 0 draws
nothing.  Determinism: mode k always draws from child stream k of the
master seed, so enlarging k_max leaves the earlier modes' Brownian
paths bit-identical, and the mode accumulation runs in fixed k order so
a resynthesis reproduces the field values exactly.  Every value is
formed by one kernel, _sums, a single einsum over the nonzero modes
whose compiled loop adds each product to an output that starts at 0.0,
in k order.  A stored path is one call, and a path whose sup norm
alone is wanted (:func:`synthesized_sup`) is summed in blocks of time
rows, each reduced to its max and min and never stored.  Each of its time rows n
has the bound

    |W_Q(t_n)|_inf <= B_n = sum_k |gamma_k beta_k(t_n)| max_j |e_k[j]|,

widened for rounding.  The row with the largest B_n is summed first,
and of the rest only the rows whose B_n reaches that row's sup are
summed; no other row can hold the sup.  Blocks change which rows are
summed together, never the order in which a value's modes are added,
so every value is the same sum of the same products.  The continuity
partition grows and bisects blocks of time rows by their exact max and
min, so it cuts where a row-by-row scan does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Union

import numpy as np
import numpy.random  # noqa: F401  # numpy loads it lazily; import it here, not in synthesize's first call

from .grid import EigenSystem, Field, GridSpec, _hold

# values per row block of _rows_sup and per widest window in modulus_of_continuity:
# 2^15 float64 values (256 KiB) stay in cache, and bound the memory of a streamed sup
_BLOCK_VALUES = 2**15


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


class NoiseOverflowError(ValueError):
    """A noise path whose values are not all finite, such as one whose amplitudes overflow."""


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One realized path of the spectral noise on a space-time grid.

    A path holds its times and values, not the Brownian motions they were summed from.
    values[n, j] is the field at time index n and node j+1; row 0 is identically zero.
    The arrays are held as grid._frozen says: synthesize hands its values over uncopied.
    """

    spec: NoiseSpec
    grid: GridSpec
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        _hold(self, "times", "values")
        t, v = self.times, self.values
        n_rows = self.spec.n_steps + 1
        if t.shape != (n_rows,):
            raise ValueError(f"times must have shape ({n_rows},), got {t.shape}")
        if v.shape != (n_rows, self.grid.n_interior):
            raise ValueError(
                f"values must have shape ({n_rows}, {self.grid.n_interior}), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise NoiseOverflowError("noise values must be finite")
        if np.any(v[0] != 0.0):
            raise ValueError("noise must vanish at t = 0")

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
    _require_modes(spec, eigen)
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


def _require_modes(spec: NoiseSpec, eigen: EigenSystem) -> None:
    if eigen.k_max < spec.k_max:
        raise ValueError(f"eigensystem holds {eigen.k_max} modes, need {spec.k_max}")


def _require_decay(spec: NoiseSpec, eigen: EigenSystem) -> None:
    """Raise ValueError unless the amplitudes pass validate_decay."""
    report = validate_decay(spec, eigen)
    if not report.ok:
        raise ValueError(
            "noise amplitudes fail the decay check "
            f"(margins {report.margin_square_sum}, {report.margin_linear_sum}); "
            "pass override_decay_check=True to synthesize anyway"
        )


def synthesize(
    spec: NoiseSpec,
    eigen: EigenSystem,
    *,
    override_decay_check: bool = False,
) -> NoisePath:
    """Draw one noise path on eigen.grid; bit-identical for identical (spec, eigen).

    Each nonzero mode k draws n_steps increments sqrt(dt)*N(0,1) from
    child stream k of SeedSequence(seed), so the Brownian motions of the
    first K modes do not depend on k_max >= K.  Each value is the sum
    of gamma_k * beta_k(t_n) * e_k[j] over the nonzero amplitudes, added
    to 0.0 in k order by _sums in one call.  Requires a passing decay
    report unless ``override_decay_check`` is set.
    """
    if override_decay_check:
        _require_modes(spec, eigen)
    else:
        _require_decay(spec, eigen)

    columns, modes = _draw(spec)
    values = _sums(columns, eigen.eigenvectors[modes])
    values.flags.writeable = False  # nothing else holds it, so NoisePath need not copy it
    times = np.linspace(0.0, spec.t_final, spec.n_steps + 1)
    return NoisePath(spec, eigen.grid, times, values)


def _draw(spec: NoiseSpec) -> tuple[np.ndarray, np.ndarray]:
    """(columns, modes): modes the k with gam[k] != 0, in order, and columns[i, n] =
    gam[k] * beta_{k+1}(t_n) for k = modes[i], drawn as synthesize says, in one array.
    Mode k's generator, child stream k, fills columns[i, 1:], and one cumsum along the rows
    adds each mode's increments in time order, as a cumsum per mode does.  A zero mode has
    no row and draws nothing, but its child is still spawned, so no other stream moves."""
    gam = spec.gammas.values(spec.k_max)
    modes = np.flatnonzero(gam)
    children = np.random.SeedSequence(spec.seed).spawn(spec.k_max)
    columns = np.zeros((len(modes), spec.n_steps + 1))
    steps = columns[:, 1:]  # row i holds mode modes[i]'s increments
    for row, k in zip(steps, modes):
        np.random.default_rng(children[k]).standard_normal(out=row)
    np.multiply(np.sqrt(spec.dt), steps, out=steps)
    np.cumsum(steps, axis=1, out=steps)
    columns *= gam[modes, None]
    return columns, modes


def _sums(columns: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """values[r, j] = 0.0 + sum_i fl(columns[i, r] vectors[i, j]), added in i order.

    One einsum without optimize: numpy's compiled two-operand loop runs over i outermost
    and j innermost, adding each product to an output that starts at 0.0, so every value
    is the sum of the same products in the same order, whichever rows are summed together.
    BLAS (@, np.dot, optimize=True) would fuse multiply-adds and move the bits.
    """
    return np.einsum("it,ij->tj", columns, vectors, optimize=False)


def synthesized_sup(spec: NoiseSpec, eigen: EigenSystem) -> float:
    """sup_norm_estimate(synthesize(spec, eigen, override_decay_check=True)), bit for bit,
    without storing the path, and summing only the time rows that can hold the sup.

    Time row n holds the values v_j = 0.0 + sum_k fl(c_k e_k[j]), c_k = gam[k] beta_k(t_n)
    as synthesize scales it, added in k order over the K nonzero modes.  Each value is
    therefore at most B_n = sum_k |c_k| max_j |e_k[j]| in absolute value, up to rounding
    (_row_bounds widens the computed B_n to cover it).  The row with the largest bound is
    summed first; a row whose bound lies below that row's sup holds no value as large,
    so it cannot change the sup and is never summed.  Every other row is summed by
    _rows_sup through synthesize's own kernel, _sums.  max and min are exact, so the
    result keeps its bits.  A value that is not finite has an infinite bound, so its row
    is always summed, and this raises NoiseOverflowError as NoisePath does.  The caller
    judges the decay check.
    """
    _require_modes(spec, eigen)
    columns, modes = _draw(spec)
    vectors = eigen.eigenvectors[modes]
    bound = _row_bounds(columns, vectors)
    top = int(np.argmax(bound))
    best = _rows_sup(columns[:, top : top + 1], vectors)
    # ~(bound < best), not bound >= best: a row whose bound is inf or NaN is summed
    sup = _rows_sup(columns.compress(~(bound < best), axis=1), vectors)
    return sup + 0.0  # adding 0.0 turns the -0.0 of an all-zero path into 0.0


def _row_bounds(columns: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Per time row, a bound on |value| over the row's nodes, widened for rounding.

    columns and vectors are _sums' operands, over K modes.  With u = 2^-53, a product
    fl(c e) is within u|c e| of c e, or within 2^-1075 when it is subnormal; the K - 1
    additions to 0.0 + fl(c_1 e_1) each add at most u relative error (a subnormal sum is
    exact).  So |v_j| <= (1+u)^K B_n + 2K 2^-1075 to first order.  The computed B_n
    (peak @ |columns|: nonnegative terms summed in any order, with or without fused
    multiply-adds) is at least (1-u)^(2K) B_n - K 2^-1075.  Multiplying by
    1 + 4(K+2) eps = 1 + 8(K+2)u and adding (K+2) 2^-1074 covers both, with room for the
    widening's own two roundings.  A bound may overflow to inf where every value is
    finite; that row is then summed.
    """
    n_modes, peak = len(vectors), np.abs(vectors).max(axis=1)
    with np.errstate(over="ignore"):  # an infinite bound is not an overflowing value
        bound = peak @ np.abs(columns)
        bound *= 1.0 + 4 * (n_modes + 2) * np.finfo(float).eps
    bound += (n_modes + 2) * 2.0**-1074
    return bound


def _rows_sup(columns: np.ndarray, vectors: np.ndarray) -> float:
    """max |value| over the time rows whose scaled amplitudes are the columns of columns.

    The values are _sums' sums, as synthesize stores them, formed max(1, _BLOCK_VALUES // n)
    rows at a time; each block is reduced to its max and min and dropped.  Raises
    NoiseOverflowError if a value is not finite.
    """
    hi, lo = -math.inf, math.inf
    rows = max(1, _BLOCK_VALUES // vectors.shape[1])
    for r0 in range(0, columns.shape[1], rows):
        block = _sums(columns[:, r0 : r0 + rows], vectors)
        b_hi, b_lo = float(block.max()), float(block.min())
        del block  # before the next block is summed, so one block is held at a time
        if not (math.isfinite(b_hi) and math.isfinite(b_lo)):
            raise NoiseOverflowError("noise values must be finite")
        hi, lo = max(hi, b_hi), min(lo, b_lo)
    return max(hi, -lo)


def sup_norm_estimate(path: NoisePath) -> float:
    """max over the time grid of the sup norm |W_Q(t_n)|_inf."""
    values = path.values
    # no |values| temp; adding 0.0 turns the -0.0 of an all-zero path into 0.0
    return float(max(values.max(), -values.min())) + 0.0


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

    Each cell grows by blocks of rows, the first as long as the previous
    cell, then doubling up to _BLOCK_VALUES values.  A block's max and min
    over time, with the cell's running ones, give the oscillation of the
    cell grown by the whole block; below alpha, the block joins.  The
    first block that reaches alpha holds the cut, and bisection on its
    prefixes, by the same reductions, finds it.  max and min are exact and
    the oscillation never falls as a cell grows, so the cuts, and the step
    an OscillationError names, are those of a row-by-row scan.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    values, n_steps = path.values, path.spec.n_steps
    widest = max(1, _BLOCK_VALUES // values.shape[1])
    cuts, start, width = [0], 0, 1
    while start < n_steps:
        hi = lo = values[start]
        end, limit = start, n_steps + 1  # rows start..end join; rows up to limit reach alpha
        while limit - end > 1:
            stop = min(end + width, n_steps) if limit > n_steps else (end + limit) // 2
            block = values[end + 1 : stop + 1]
            grown_hi = np.maximum(hi, block.max(axis=0))
            grown_lo = np.minimum(lo, block.min(axis=0))
            if np.max(grown_hi - grown_lo) < alpha:  # width is read only until limit is set
                hi, lo, end, width = grown_hi, grown_lo, stop, min(2 * width, widest)
            else:
                limit = stop
        if end == start:
            one_step = float(np.max(np.abs(values[start + 1] - values[start])))
            raise OscillationError(start, one_step, alpha)
        cuts.append(end)
        width = min(end - start, widest)  # the next cell likely has a similar length
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
    return NoisePath(new_spec, path.grid, path.times[::stride], path.values[::stride])
