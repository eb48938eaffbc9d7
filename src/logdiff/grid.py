"""Dirichlet interval grid: 3-point Laplacian, solves, eigenpairs, norms.

The interval (0, L) carries ``n_interior`` equally spaced interior nodes
xi_j = j*h with h = L/(n_interior + 1); boundary values are implicitly
zero everywhere.  Integrals use the interior rectangle rule with weight
h, which makes the discrete sine vectors exactly orthonormal and keeps
the spectral identities of the 3-point stencil exact to rounding.

The negative Laplacian -Lap_h is the symmetric positive definite
tridiagonal matrix with stencil (-1, 2, -1)/h^2, with the closed-form
Cholesky factor -Lap_h = U^T U, U[i,i] = sqrt((i+1)/i)/h and
U[i-1,i] = -sqrt((i-1)/i)/h.  Its solves are two triangular sweeps on U
(LAPACK dtbtrs), U^-T and then U^-1, and the resolvent
(I - mu*Lap_h)^-1, whose matrix is symmetric positive definite too, is
one LAPACK dptsv call; each is O(n) per right-hand side, and each checks
what LAPACK does not (matching rows, a finite right-hand side).  A norm
whose sum of squares overflows, or underflows below the normal range,
although the values are finite and not all zero, is computed again on
the values scaled by their largest magnitude.  The H^-1 inner product is

    <u, v>_-1 = ((-Lap_h)^-1 u, v)_2,

so |v|_-1 = |U^-T v|_2, one sweep, and |e_k|_-1 = lambda_k^(-1/2) holds
exactly for the stencil eigenpairs

    e_k(j)    = sqrt(2/L) * sin(k*pi*j/(n+1)),
    lambda_k  = (4/h^2) * sin(k*pi*h/(2L))^2.

``Field`` is the immutable value type for data and eigenvectors, and
every record holds its arrays as _frozen says.  The operations are the
underscore-prefixed array cores on plain arrays; norm_l2, norm_hminus1
and neg_laplacian_inverse wrap them for Fields.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._lapack import dptsv, dtbtrs


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
        hh = self.h * self.h  # not h**2, which raises OverflowError for h above about 1.3e154
        if not (0.0 < hh < math.inf and 4.0 / hh < math.inf):
            raise ValueError(f"length {self.length} puts h^2 or 4/h^2 outside the float range")

    @property
    def h(self) -> float:
        return self.length / (self.n_interior + 1)

    @property
    def nodes(self) -> np.ndarray:
        """Interior node coordinates xi_j = j*h, j = 1..n_interior."""
        return self.h * np.arange(1, self.n_interior + 1)


def _frozen(arr, dtype=float) -> np.ndarray:
    """arr as a read-only array of dtype; copied unless it is one already and owns its memory.

    The one way a record holds an array, so it never freezes its caller's array and no
    later write reaches it.  A producer hands a fresh array over read-only to skip the copy.
    """
    if type(arr) is np.ndarray and arr.dtype == dtype and arr.base is None \
            and not arr.flags.writeable:
        return arr
    out = np.array(arr, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _hold(record, *names: str, dtype=float) -> None:
    """Replace each named array field of a frozen dataclass record by _frozen of it."""
    for name in names:
        object.__setattr__(record, name, _frozen(getattr(record, name), dtype))


@dataclass(frozen=True, eq=False)
class Field:
    """Nodal values at the interior nodes of a grid; boundary is zero.

    Values are held as _frozen says, so a Field can be shared freely
    across threads and processes.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        _hold(self, "values")
        v = self.values
        if v.ndim != 1 or v.shape[0] != self.grid.n_interior:
            raise ValueError(
                f"values must be a 1-d array of length {self.grid.n_interior}, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")

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
        _hold(self, "eigenvalues", "eigenvectors")
        lam, vec = self.eigenvalues, self.eigenvectors
        if lam.ndim != 1 or vec.shape != (lam.shape[0], self.grid.n_interior):
            raise ValueError("inconsistent eigensystem shapes")
        if not np.all(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be strictly increasing")

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
    """Lap_h along the last axis, so each row of a (m, n) array separately.

    Each value is ((-2 v_j + v_{j+1}) + v_{j-1}) / h^2, without the terms past a row's
    ends.  A C-contiguous (m, n) v of at least 4096 values takes the shifted adds over all
    its values at once, which adds the neighbouring rows' end values into each row's two
    end columns; those two columns are then computed anew, in the same order of
    operations.  Row by row, the adds took 1.4-1.8 times as long from 4092 values up
    (4 x 1023 to 201 x 1023, 2-core x86-64, numpy 2.4) and were the faster ones up to
    3069 values.
    """
    out = -2.0 * v
    if v.ndim == 2 and v.size >= 4096 and v.flags.c_contiguous:  # then so is out
        flat, values = out.reshape(-1), v.reshape(-1)
        flat[:-1] += values[1:]
        flat[1:] += values[:-1]
        np.multiply(-2.0, v[:, 0], out=out[:, 0])
        out[:, 0] += v[:, 1]
        np.multiply(-2.0, v[:, -1], out=out[:, -1])
        out[:, -1] += v[:, -2]
    else:
        out[..., :-1] += v[..., 1:]
        out[..., 1:] += v[..., :-1]
    out /= h * h
    return out


def _factor(grid: GridSpec) -> np.ndarray:
    """U of -Lap_h = U^T U in closed form (module docstring), in LAPACK's upper band storage.

    Its diagonal is positive, so dtbtrs never finds it singular (info stays 0).  The
    pivots a banded Cholesky elimination computes drift together, to 5e-13 relative error
    in a solve on 1023 nodes.
    """
    i = np.arange(1.0, grid.n_interior + 1)
    return np.asfortranarray([-np.sqrt((i - 1) / i), np.sqrt((i + 1) / i)]) * (1.0 / grid.h)


def _checked(grid: GridSpec, rhs: np.ndarray) -> np.ndarray:
    """rhs, after the checks LAPACK does not make: n rows (it would read the first n of
    a longer rhs) and finite values."""
    if rhs.shape[0] != grid.n_interior:
        raise ValueError(f"rhs must have {grid.n_interior} rows, got shape {rhs.shape}")
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    return rhs


def _solve_neg_laplacian(grid: GridSpec, rhs: np.ndarray) -> np.ndarray:
    """Solve (-Lap_h) u = rhs as U^-1 U^-T rhs, two dtbtrs sweeps; rhs (n,) or (n, m)."""
    cb = _factor(grid)
    half = dtbtrs(cb, _checked(grid, rhs), uplo="U", trans="T")[0]
    return dtbtrs(cb, half, uplo="U", trans="N", overwrite_b=1)[0]  # half is ours to overwrite


def _solve_resolvent(grid: GridSpec, mu: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - mu*Lap_h) u = rhs by one dptsv call; rhs (n,) or (n, m), may be a view.

    The matrix is symmetric and diagonally dominant with a positive diagonal, so it is
    positive definite and dptsv meets no pivot <= 0.
    """
    n, off = grid.n_interior, -mu / grid.h**2
    *_, u, info = dptsv(np.full(n, 1.0 - 2.0 * off), np.full(n - 1, off), _checked(grid, rhs),
                        overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"resolvent solve failed (dptsv info {info})")
    return u


def _norm_l2(grid: GridSpec, v: np.ndarray) -> float:
    return float(_norms_l2(grid, v[None, :])[0])


def _norms_l2(grid: GridSpec, rows: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a (m, n) array; np.vecdot gives each row the bits it has alone."""
    return _unless_out_of_range(grid, np.sqrt(grid.h * np.vecdot(rows, rows)), rows,
                                lambda scaled: np.sqrt(grid.h * np.vecdot(scaled, scaled)))


def _half_solve(grid: GridSpec, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """U^-T rhs, one dtbtrs sweep; rhs (n,) or (n, m).

    The result is a fresh array, or with overwrite rhs itself when it is a writable
    Fortran-ordered float64 array.  |v|_-1 = |U^-T v|_2, so the H^-1 distances of many
    pairs of rows need one sweep per row.
    """
    return dtbtrs(_factor(grid), _checked(grid, rhs), uplo="U", trans="T", overwrite_b=overwrite)[0]


def _hminus1_norms(grid: GridSpec, rows: np.ndarray) -> np.ndarray:
    """H^-1 norm |U^-T v|_2 of each row v of a (m, n) array, each with the bits it has alone."""

    def norms(r):
        return _norms_l2(grid, _half_solve(grid, r.T).T)

    return _unless_out_of_range(grid, norms(rows), rows, norms)


def _unless_out_of_range(grid: GridSpec, out: np.ndarray, rows: np.ndarray, norms) -> np.ndarray:
    """out, with each row whose sum of squares left the normal range redone scaled in place.

    out holds norms sqrt(h s) of sums of squares s.  A row whose s overflowed, or fell
    below the smallest normal double (then out < sqrt(h tiny)), although its values
    are finite and not all zero, gets m * norms(row / m) with m = max |row|; every
    other row, an all-zero one too, keeps the bits of out.  rows is (k, n), and norms
    takes such an array too.
    """
    floor = math.sqrt(grid.h * sys.float_info.min)
    if all(floor <= v < math.inf for v in out.tolist()):  # cheaper than numpy for few rows
        return out
    check = np.flatnonzero(~((floor <= out) & (out < math.inf)))
    m = np.max(np.abs(rows[check]), axis=1)
    ok = (m > 0) & (m < math.inf)
    if ok.any():
        out[check[ok]] = m[ok] * norms(rows[check[ok]] / m[ok, None])
    return out


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
