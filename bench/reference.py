"""Reference numerics for the benchmark's output checks, written apart from logdiff.

Nothing here imports the package under test.  The noise follows the
documented seeding scheme, the resolvent uses its closed form through the
Wright omega function, and the implicit Euler step is solved by Newton in
the resolvent variable u = J_eps(Y + W), which needs no inner root solve
and no division by eps.  H^-1 norms come from the closed-form sine
eigenpairs of the 3-point Dirichlet stencil.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dst
from scipy.linalg import solve_banded
from scipy.special import wrightomega

_NEWTON_MAX_ITER = 60


def nodes(length: float, n: int) -> np.ndarray:
    return length / (n + 1) * np.arange(1, n + 1)


def eigenvalues(length: float, n: int, k_max: int) -> np.ndarray:
    """lambda_k = (4/h^2) sin(k pi h / 2L)^2 of -Lap_h, k = 1..k_max."""
    h = length / (n + 1)
    return (4.0 / h**2) * np.sin(np.arange(1, k_max + 1) * np.pi * h / (2.0 * length)) ** 2


def sine_basis(length: float, n: int, k_max: int) -> np.ndarray:
    """h-orthonormal eigenvectors e_k(xi_j) = sqrt(2/L) sin(k pi j/(n+1)) as rows, k = 1..k_max."""
    k = np.arange(1, k_max + 1)
    return np.sqrt(2.0 / length) * np.sin(np.pi * np.outer(k, np.arange(1, n + 1)) / (n + 1))


def gammas(gamma0: float, decay: float, k_max: int) -> np.ndarray:
    return gamma0 * np.arange(1, k_max + 1, dtype=float) ** (-decay)


def brownian(seed: int, k_max: int, t_final: float, n_steps: int) -> np.ndarray:
    """(n_steps + 1, k_max) Brownian values; mode k draws from child k of SeedSequence(seed)."""
    sqrt_dt = np.sqrt(t_final / n_steps)
    out = np.zeros((n_steps + 1, k_max))
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(k_max)):
        out[1:, k] = np.cumsum(sqrt_dt * np.random.default_rng(child).standard_normal(n_steps))
    return out


def noise(seed: int, length: float, n: int, k_max: int, gamma0: float, decay: float,
          t_final: float, n_steps: int) -> np.ndarray:
    """W(t_m, xi_j) = sum_k gamma_k beta_k(t_m) e_k(xi_j), shape (n_steps + 1, n)."""
    return (brownian(seed, k_max, t_final, n_steps) * gammas(gamma0, decay, k_max)) @ sine_basis(
        length, n, k_max)


def signed_log(x):
    return np.sign(x) * np.log1p(np.abs(x))


def resolvent(eps: float, x):
    """J_eps(x) = sign(x) * (eps * omega((|x| + 1)/eps - ln eps) - 1), the root of y + eps*sl(y) = x."""
    a = np.abs(np.asarray(x, dtype=float))
    return np.sign(x) * (eps * np.real(wrightomega((a + 1.0) / eps - np.log(eps))) - 1.0)


def _laplacian(v: np.ndarray, h: float) -> np.ndarray:
    out = -2.0 * v
    out[..., :-1] += v[..., 1:]
    out[..., 1:] += v[..., :-1]
    return out / (h * h)


def implicit_step(y_prev: np.ndarray, w_next: np.ndarray, eps: float, dt: float,
                  h: float) -> np.ndarray:
    """Solve Y - dt*Lap_h F_eps(Y + W) = Y_prev, F_eps(z) = (z - J_eps(z))/eps + eps*z.

    With u = J_eps(Y + W): Y = u + eps*sl(u) - W and F_eps = sl(u) + eps*(u + eps*sl(u)).
    Newton runs on u until the update stops shrinking at the rounding floor.
    """
    n = y_prev.size
    u = resolvent(eps, y_prev + w_next)
    scale = dt / h**2
    ab = np.empty((3, n))
    prev = np.inf
    for _ in range(_NEWTON_MAX_ITER):
        sl = signed_log(u)
        flux = sl + eps * (u + eps * sl)
        res = u + eps * sl - w_next - dt * _laplacian(flux, h) - y_prev
        slope = 1.0 / (1.0 + np.abs(u))
        a = 1.0 + eps * slope
        b = slope + eps * a
        ab[0, 1:] = -scale * b[1:]
        ab[1] = a + 2.0 * scale * b
        ab[2, :-1] = -scale * b[:-1]
        delta = solve_banded((1, 1), ab, -res)
        u = u + delta
        size = float(np.max(np.abs(delta) / (1.0 + np.abs(u))))
        if size < 1e-15 or (size < 1e-13 and size >= 0.5 * prev):
            break
        prev = size
    else:
        raise RuntimeError("reference Newton did not converge")
    return u + eps * signed_log(u) - w_next


def solve_path(x0: np.ndarray, w: np.ndarray, eps: float, dt: float, h: float) -> np.ndarray:
    """Implicit Euler Y rows on the noise's time grid; X = Y + W."""
    y = np.empty_like(w)
    y[0] = x0
    for m in range(w.shape[0] - 1):
        y[m + 1] = implicit_step(y[m], w[m + 1], eps, dt, h)
    return y


def sine_coefficients(rows: np.ndarray, length: float) -> np.ndarray:
    """(v, e_k)_2 for k = 1..n of each row, by a type-I discrete sine transform."""
    n = np.shape(rows)[-1]
    h = length / (n + 1)
    return 0.5 * h * np.sqrt(2.0 / length) * dst(np.atleast_2d(rows), type=1, axis=-1)


def hminus1_norms(rows: np.ndarray, length: float) -> np.ndarray:
    """|v|_-1 of each row: sum_k (v, e_k)^2 / lambda_k over the full sine basis."""
    n = np.shape(rows)[-1]
    lam = eigenvalues(length, n, n)
    return np.sqrt(np.sum(sine_coefficients(rows, length) ** 2 / lam, axis=-1))


def neg_laplacian_inverse(rows: np.ndarray, length: float) -> np.ndarray:
    """(-Lap_h)^-1 applied to each row: sum_k (v, e_k) / lambda_k e_k."""
    n = np.shape(rows)[-1]
    lam = eigenvalues(length, n, n)
    return 0.5 * np.sqrt(2.0 / length) * dst(sine_coefficients(rows, length) / lam, type=1, axis=-1)


def l2_norms(rows: np.ndarray, h: float) -> np.ndarray:
    return np.sqrt(h * np.sum(np.atleast_2d(rows) ** 2, axis=-1))
