"""Dirichlet interval grid: 3-point Laplacian, solves, eigenpairs, norms.

The interval (0, L) carries ``n_interior`` equally spaced interior nodes
xi_j = j*h with h = L/(n_interior + 1); boundary values are implicitly
zero everywhere.  Integrals use the interior rectangle rule with weight
h, which makes the discrete sine vectors exactly orthonormal and keeps
the spectral identities of the 3-point stencil exact to rounding.

The negative Laplacian -Lap_h is the symmetric positive definite
tridiagonal matrix with stencil (-1, 2, -1)/h^2.  Its inverse and the
resolvent (I - mu*Lap_h)^-1 are direct banded Cholesky solves, O(n) per
right-hand side.  Each matrix is factored once, -Lap_h in closed form
and the resolvent by LAPACK dpbtrf, and dpbtrs solves, called directly
with the checks that scipy's cho_solve_banded makes (matching shapes, a
finite right-hand side, info = 0).  A norm whose sum of squares overflows,
or underflows below the normal range, although the values are finite
and not all zero, is computed again on the values scaled by their
largest magnitude.  The H^-1 inner product is

    <u, v>_-1 = ((-Lap_h)^-1 u, v)_2,

so |v|_-1 = |U^-T v|_2 with -Lap_h = U^T U, a half solve (LAPACK dtbtrs),
and |e_k|_-1 = lambda_k^(-1/2) holds exactly for the stencil eigenpairs

    e_k(j)    = sqrt(2/L) * sin(k*pi*j/(n+1)),
    lambda_k  = (4/h^2) * sin(k*pi*h/(2L))^2.

``Field`` is the immutable value type for data and eigenvectors.  The
operations are the underscore-prefixed array cores on plain arrays;
norm_l2, norm_hminus1 and neg_laplacian_inverse wrap them for Fields.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._lapack import dpbtrf, dpbtrs, dtbtrs


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on (0, length) with homogeneous Dirichlet boundary."""

    length: float
    n_interior: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.length) and self.length > 0):
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if int(self.n_interior) != self.n_interior or self.n_interior < 2:
            raise ValueError(f"n_interior must be an integer >= 2, got {self.n_interior}")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates xi_j = j*h, j = 1..n_interior."""
        return self.h * np.arange(1, self.n_interior + 1)


@dataclass(frozen=True, eq=False)
class Field:
    """Nodal values at the interior nodes of a grid; boundary is zero.

    Values are copied on construction and frozen, so a Field can be
    shared freely across threads and processes.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1 or v.shape[0] != self.grid.n_interior:
            raise ValueError(
                f"values must be a 1-d array of length {self.grid.n_interior}, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "Field":
        return cls(grid, np.zeros(grid.n_interior))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Leading eigenpairs of -Lap_h, indices k = 1..k_max.

    eigenvalues[k-1] = lambda_k, eigenvectors[k-1] = e_k as a value row.
    Vectors are orthonormal in the h-weighted inner product.
    """

    grid: GridSpec
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        lam = np.array(self.eigenvalues, dtype=float, copy=True)
        vec = np.array(self.eigenvectors, dtype=float, copy=True)
        if lam.ndim != 1 or vec.shape != (lam.shape[0], self.grid.n_interior):
            raise ValueError("inconsistent eigensystem shapes")
        if not np.all(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be strictly increasing")
        lam.flags.writeable = False
        vec.flags.writeable = False
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    @property
    def k_max(self) -> int:
        return self.eigenvalues.shape[0]

    def vector(self, k: int) -> Field:
        """Eigenvector e_k, 1-based index."""
        return Field(self.grid, self.eigenvectors[k - 1])

    def value(self, k: int) -> float:
        """Eigenvalue lambda_k, 1-based index."""
        return float(self.eigenvalues[k - 1])


def eigensystem(grid: GridSpec, k_max: int) -> EigenSystem:
    """Closed-form eigenpairs of the 3-point Dirichlet stencil."""
    if int(k_max) != k_max or not (1 <= k_max <= grid.n_interior):
        raise ValueError(f"k_max must be an integer in [1, {grid.n_interior}], got {k_max}")
    n = grid.n_interior
    h = grid.h
    j = np.arange(1, n + 1)
    k = np.arange(1, k_max + 1)
    vectors = np.sqrt(2.0 / grid.length) * np.sin(np.pi * np.outer(k, j) / (n + 1))
    values = (4.0 / h**2) * np.sin(k * np.pi * h / (2.0 * grid.length)) ** 2
    return EigenSystem(grid, values, vectors)


# ---------------------------------------------------------------------------
# array cores (package-internal hot paths; inputs are plain 1-d/2-d arrays)

def _laplacian(v: np.ndarray, h: float) -> np.ndarray:
    """Lap_h along the last axis, so each row of a (m, n) array separately."""
    out = -2.0 * v
    out[..., :-1] += v[..., 1:]
    out[..., 1:] += v[..., :-1]
    out /= h * h
    return out


@lru_cache(maxsize=64)
def _factor(length: float, n_interior: int, shift: float, mu: float) -> np.ndarray:
    """Banded Cholesky factor U of shift*I - mu*Lap_h, in LAPACK's upper band storage.

    At shift 0 U is the closed form sqrt(mu)/h * (U[i,i] = sqrt((i+1)/i), U[i-1,i] =
    -sqrt((i-1)/i)), 1-based i: dpbtrf's pivots drift together, to 5e-13 relative error
    in a solve on 1023 nodes.
    """
    h = length / (n_interior + 1)
    if shift == 0.0:
        i = np.arange(1.0, n_interior + 1)
        return np.asfortranarray([-np.sqrt((i - 1) / i), np.sqrt((i + 1) / i)]) * (mu**0.5 / h)
    ab = np.zeros((2, n_interior))
    ab[0, 1:] = -mu / h**2
    ab[1] = shift + 2.0 * mu / h**2
    cb, info = dpbtrf(ab, lower=0)
    _check_info("dpbtrf", info)
    return cb


def _check_info(routine: str, info: int) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal {routine}")


def _solve_banded(cb: np.ndarray, rhs: np.ndarray, half: bool = False) -> np.ndarray:
    """Solve with the factor cb = U from _factor, or with U^T only if half; rhs (n,) or (n, m)."""
    if rhs.shape[0] != cb.shape[1]:  # LAPACK would read the first n rows of a longer rhs
        raise ValueError("shapes of cb and b are not compatible.")
    if not np.isfinite(rhs).all():  # nor does LAPACK check this
        raise ValueError("array must not contain infs or NaNs")
    x, info = dtbtrs(cb, rhs, uplo="U", trans="T") if half else dpbtrs(cb, rhs, lower=0)
    _check_info("dtbtrs" if half else "dpbtrs", info)
    return x


def _solve_neg_laplacian(grid: GridSpec, rhs: np.ndarray) -> np.ndarray:
    """Solve (-Lap_h) u = rhs; rhs may be (n,) or (n, m) for m systems."""
    return _solve_banded(_factor(grid.length, grid.n_interior, 0.0, 1.0), rhs)


def _solve_resolvent(grid: GridSpec, mu: float, rhs: np.ndarray) -> np.ndarray:
    return _solve_banded(_factor(grid.length, grid.n_interior, 1.0, mu), rhs)


def _norm_l2(grid: GridSpec, v: np.ndarray) -> float:
    return float(_norms_l2(grid, v[None, :])[0])


def _norms_l2(grid: GridSpec, rows: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a (m, n) array; np.vecdot gives each row the bits it has alone."""
    return _unless_out_of_range(grid, np.sqrt(grid.h * np.vecdot(rows, rows)), rows,
                                lambda scaled: np.sqrt(grid.h * np.vecdot(scaled, scaled)))


def _hminus1_norms(grid: GridSpec, rows: np.ndarray) -> np.ndarray:
    """H^-1 norm |U^-T v|_2 of each row v of a (m, n) array, each with the bits it has alone."""

    def norms(r):
        cb = _factor(grid.length, grid.n_interior, 0.0, 1.0)
        return _norms_l2(grid, _solve_banded(cb, r.T, half=True).T)

    return _unless_out_of_range(grid, norms(rows), rows, norms)


def _unless_out_of_range(grid: GridSpec, out: np.ndarray, rows: np.ndarray, norms) -> np.ndarray:
    """out, with each row whose sum of squares left the normal range redone scaled.

    out holds norms sqrt(h s) of sums of squares s.  A row whose s overflowed, or fell
    below the smallest normal double (then out < sqrt(h tiny)), although its values
    are finite and not all zero, gets m * norms(row / m) with m = max |row|; every
    other row, an all-zero one too, keeps the bits of out.  norms takes a (k, n)
    array; rows may also be one row of shape (n,).
    """
    floor = math.sqrt(grid.h * sys.float_info.min)
    if all(floor <= v < math.inf for v in out.ravel().tolist()):  # cheaper than numpy for few rows
        return out
    flat_out, flat_rows = np.array(out, ndmin=1), rows.reshape(-1, rows.shape[-1])
    check = np.flatnonzero(~((floor <= flat_out) & (flat_out < math.inf)))
    m = np.max(np.abs(flat_rows[check]), axis=-1)
    ok = (m > 0) & (m < math.inf)
    if ok.any():
        flat_out[check[ok]] = m[ok] * norms(flat_rows[check[ok]] / m[ok, None])
    return flat_out.reshape(np.shape(out))


# ---------------------------------------------------------------------------
# Field-level entry points

def neg_laplacian_inverse(f: Field) -> Field:
    """Direct tridiagonal solve of (-Lap_h) u = f."""
    return Field(f.grid, _solve_neg_laplacian(f.grid, f.values))


def norm_l2(f: Field) -> float:
    return _norm_l2(f.grid, f.values)


def norm_hminus1(f: Field) -> float:
    """|f|_-1 = sqrt(((-Lap_h)^-1 f, f)_2) = |U^-T f|_2 with -Lap_h = U^T U."""
    return float(_hminus1_norms(f.grid, f.values[None, :])[0])
