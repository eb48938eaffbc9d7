"""Dirichlet interval grid: 3-point Laplacian, solves, eigenpairs, norms.

The interval (0, L) carries ``n_interior`` equally spaced interior nodes
xi_j = j*h with h = L/(n_interior + 1); boundary values are implicitly
zero everywhere.  Integrals use the interior rectangle rule with weight
h, which makes the discrete sine vectors exactly orthonormal and keeps
the spectral identities of the 3-point stencil exact to rounding.

The negative Laplacian -Lap_h is the symmetric positive definite
tridiagonal matrix with stencil (-1, 2, -1)/h^2.  Its inverse and the
resolvent (I - mu*Lap_h)^-1 are direct banded Cholesky solves, O(n) per
right-hand side.  The H^-1 inner product is

    <u, v>_-1 = ((-Lap_h)^-1 u, v)_2,

so |e_k|_-1 = lambda_k^(-1/2) holds exactly for the stencil eigenpairs

    e_k(j)    = sqrt(2/L) * sin(k*pi*j/(n+1)),
    lambda_k  = (4/h^2) * sin(k*pi*h/(2L))^2.

All public operations take and return immutable ``Field`` values; the
underscore-prefixed array helpers are the in-package hot paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded


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

    @property
    def modes(self) -> list[tuple[int, float, Field]]:
        return [
            (k + 1, float(self.eigenvalues[k]), Field(self.grid, self.eigenvectors[k]))
            for k in range(self.k_max)
        ]

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
    out = -2.0 * v
    out[:-1] += v[1:]
    out[1:] += v[:-1]
    out /= h * h
    return out


@lru_cache(maxsize=64)
def _factor(length: float, n_interior: int, shift: float, mu: float) -> np.ndarray:
    """Banded Cholesky factor of shift*I - mu*Lap_h."""
    h = length / (n_interior + 1)
    ab = np.zeros((2, n_interior))
    ab[0, 1:] = -mu / h**2
    ab[1] = shift + 2.0 * mu / h**2
    return cholesky_banded(ab, lower=False)


def _solve_neg_laplacian(grid: GridSpec, rhs: np.ndarray) -> np.ndarray:
    """Solve (-Lap_h) u = rhs; rhs may be (n,) or (n, m) for m systems."""
    cb = _factor(grid.length, grid.n_interior, 0.0, 1.0)
    return cho_solve_banded((cb, False), rhs)


def _solve_resolvent(grid: GridSpec, mu: float, rhs: np.ndarray) -> np.ndarray:
    cb = _factor(grid.length, grid.n_interior, 1.0, mu)
    return cho_solve_banded((cb, False), rhs)


def _norm_l2(grid: GridSpec, v: np.ndarray) -> float:
    return float(np.sqrt(grid.h * np.dot(v, v)))


def _inner_hminus1(grid: GridSpec, u: np.ndarray, v: np.ndarray) -> float:
    return float(grid.h * np.dot(_solve_neg_laplacian(grid, u), v))


def _hminus1_norms(grid: GridSpec, rows: np.ndarray) -> np.ndarray:
    """H^-1 norm of each row of a (m, n) array in one banded solve."""
    sol = _solve_neg_laplacian(grid, rows.T)
    sq = grid.h * np.sum(sol * rows.T, axis=0)
    return np.sqrt(np.maximum(sq, 0.0))


# ---------------------------------------------------------------------------
# public Field operations

def _check_same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")


def laplacian_apply(f: Field) -> Field:
    """Apply the Dirichlet Laplacian Lap_h (negative semidefinite sign)."""
    return Field(f.grid, _laplacian(f.values.copy(), f.grid.h))


def neg_laplacian_inverse(f: Field) -> Field:
    """Direct tridiagonal solve of (-Lap_h) u = f."""
    return Field(f.grid, _solve_neg_laplacian(f.grid, f.values))


def laplacian_resolvent(mu: float, f: Field) -> Field:
    """Direct solve of (I - mu*Lap_h) u = f, mu > 0."""
    if not (np.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be positive and finite, got {mu}")
    return Field(f.grid, _solve_resolvent(f.grid, mu, f.values))


def inner_l2(f: Field, g: Field) -> float:
    """(f, g)_2 = h * sum_j f_j g_j."""
    _check_same_grid(f, g)
    return float(f.grid.h * np.dot(f.values, g.values))


def norm_l2(f: Field) -> float:
    return _norm_l2(f.grid, f.values)


def norm_lp(f: Field, p: float) -> float:
    """(h * sum_j |f_j|^p)^(1/p) for finite p >= 1."""
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    return float((f.grid.h * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def norm_linf(f: Field) -> float:
    return float(np.max(np.abs(f.values)))


def inner_hminus1(f: Field, g: Field) -> float:
    """<f, g>_-1 = ((-Lap_h)^-1 f, g)_2."""
    _check_same_grid(f, g)
    return _inner_hminus1(f.grid, f.values, g.values)


def norm_hminus1(f: Field) -> float:
    sq = _inner_hminus1(f.grid, f.values, f.values)
    return float(np.sqrt(max(sq, 0.0)))
