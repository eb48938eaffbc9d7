"""Grid module: eigenpairs, norms, and the banded Laplacian solves."""

import numpy as np
import pytest

from logdiff.grid import (
    Field,
    GridSpec,
    _hminus1_norms,
    _laplacian,
    _norm_l2,
    _norms_l2,
    _solve_neg_laplacian,
    _solve_resolvent,
    eigensystem,
    neg_laplacian_inverse,
    norm_hminus1,
    norm_l2,
)
from logdiff.noise import NoiseSpec, PowerLawGammas, synthesize
from logdiff.solver import SolverConfig, _solve_batch


def dense_laplacian(grid: GridSpec) -> np.ndarray:
    n, h = grid.n_interior, grid.h
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = -2.0
        if i > 0:
            m[i, i - 1] = 1.0
        if i + 1 < n:
            m[i, i + 1] = 1.0
    return m / h**2


class TestGridSpec:
    def test_spacing(self):
        g = GridSpec(length=1.0, n_interior=15)
        assert g.h == 1.0 / 16
        assert g.nodes.shape == (15,)
        assert np.allclose(g.nodes, np.arange(1, 16) / 16)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GridSpec(length=0.0, n_interior=15)
        with pytest.raises(ValueError):
            GridSpec(length=-1.0, n_interior=15)
        with pytest.raises(ValueError):
            GridSpec(length=1.0, n_interior=0)
        # h * h underflows to 0 or overflows, or 4 / (h * h) overflows, at 31 nodes
        for length in (1e-200, 1e-160, 1e160, 1e200):
            with pytest.raises(ValueError, match="float range"):
                GridSpec(length=length, n_interior=31)

    def test_nodes_mutation_does_not_stick(self):
        g = GridSpec(length=1.0, n_interior=7)
        view = g.nodes
        view[0] = 99.0
        assert g.nodes[0] == g.h


class TestField:
    def test_copies_and_locks(self):
        g = GridSpec(length=1.0, n_interior=7)
        raw = np.ones(7)
        f = Field(g, raw)
        raw[0] = 5.0
        assert f.values[0] == 1.0
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_rejects_wrong_shape_and_nonfinite(self):
        g = GridSpec(length=1.0, n_interior=7)
        with pytest.raises(ValueError):
            Field(g, np.ones(8))
        with pytest.raises(ValueError):
            Field(g, np.ones((7, 1)))
        bad = np.ones(7)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(g, bad)


class TestEigensystem:
    def test_matches_dense_eigensolve_n15(self):
        # oracle: numpy.linalg.eigh on the dense matrix
        g = GridSpec(length=1.0, n_interior=15)
        es = eigensystem(g, 15)
        w, v = np.linalg.eigh(-dense_laplacian(g))
        assert np.max(np.abs(np.sort(es.eigenvalues) - w)) < 1e-10
        for k in range(1, 16):
            vec = es.vector(k).values
            dense = v[:, k - 1]
            # eigh normalizes to unit euclidean norm; ours to unit h-weighted norm
            dense = dense / np.sqrt(g.h)
            if np.dot(dense, vec) < 0:
                dense = -dense
            assert np.max(np.abs(vec - dense)) < 1e-10

    def test_eigenvalue_closed_form(self):
        g = GridSpec(length=2.0, n_interior=31)
        es = eigensystem(g, 10)
        k = np.arange(1, 11)
        lam = (4.0 / g.h**2) * np.sin(k * np.pi * g.h / (2.0 * g.length)) ** 2
        assert np.allclose(es.eigenvalues, lam, rtol=0, atol=1e-12)

    def test_eigenpairs_satisfy_operator_equation(self):
        g = GridSpec(length=1.0, n_interior=63)
        es = eigensystem(g, 8)
        for lam, vec in zip(es.eigenvalues, es.eigenvectors):
            lap = _laplacian(vec, g.h)
            assert np.max(np.abs(lap + lam * vec)) < 1e-9 * lam

    def test_orthonormal_under_weighted_inner_product(self):
        g = GridSpec(length=1.0, n_interior=31)
        es = eigensystem(g, 31)
        gram = es.eigenvectors @ es.eigenvectors.T * g.h
        assert np.max(np.abs(gram - np.eye(31))) < 1e-12

    def test_k_max_cannot_exceed_interior_count(self):
        g = GridSpec(length=1.0, n_interior=7)
        with pytest.raises(ValueError):
            eigensystem(g, 8)
        es = eigensystem(g, 7)
        assert len(es.eigenvalues) == 7

    def test_eigenvalues_increasing_above_pi_sq(self):
        g = GridSpec(length=1.0, n_interior=127)
        es = eigensystem(g, 127)
        assert np.all(np.diff(es.eigenvalues) > 0)
        # lambda_1 = (4/h^2) sin^2(pi h/2) <= pi^2, increasing to pi^2 as h -> 0
        assert es.value(1) < np.pi**2
        assert es.value(1) > 0.99 * np.pi**2


class TestLaplacianSolves:
    def test_greens_function_of_ones(self):
        # -u'' = 1, u(0)=u(L)=0 has u = xi(L-xi)/2; the 3-point stencil is
        # exact on quadratics, so the discrete solve reproduces it to rounding
        for n in (15, 127):
            g = GridSpec(length=1.0, n_interior=n)
            f = Field(g, np.ones(n))
            u = neg_laplacian_inverse(f)
            exact = g.nodes * (1.0 - g.nodes) / 2.0
            assert np.max(np.abs(u.values - exact)) < 1e-12

    @pytest.mark.parametrize("n, mu, bound", [
        pytest.param(127, None, 1e-13, id="127"),
        pytest.param(1023, None, 1e-13, id="1023"),
        *(pytest.param(n, mu, 3e-13, id=f"resolvent-{n}-{mu}")
          for n in (511, 1023) for mu in (0.1, 1.0)),
    ])
    def test_solve_matches_the_spectral_solution(self, n, mu, bound):
        # u = sum_k (h e_k . f) / d_k e_k over every eigenpair, with d_k = lambda_k for
        # -Lap_h and d_k = 1 + mu lambda_k for the resolvent.  At 1023 nodes a banded
        # Cholesky factor, whose pivots drift together, misses the first by about 5e-13,
        # and the resolvent by 5.5e-13 at (511, 0.1), 9.4e-13 at (1023, 0.1) and 8.6e-13 at
        # (1023, 1)
        g = GridSpec(length=1.0, n_interior=n)
        es = eigensystem(g, n)
        rhs = np.random.default_rng(n).standard_normal((n, 4))
        d = es.eigenvalues if mu is None else 1.0 + mu * es.eigenvalues
        spectral = es.eigenvectors.T @ ((g.h * es.eigenvectors @ rhs) / d[:, None])
        u = _solve_neg_laplacian(g, rhs) if mu is None else _solve_resolvent(g, mu, rhs)
        assert np.max(np.abs(u - spectral)) <= bound * np.max(np.abs(spectral))

    def test_solve_residual_contract(self):
        rng = np.random.default_rng(3)
        g = GridSpec(length=1.0, n_interior=127)
        f = Field(g, rng.standard_normal(127))
        u = neg_laplacian_inverse(f)
        res = _laplacian(u.values, g.h)
        assert norm_l2(Field(g, res + f.values)) <= 1e-10 * norm_l2(f)

    def test_second_order_convergence_for_sine(self):
        # continuum solution of -u'' = sin(pi xi) is sin(pi xi)/pi^2
        errs, hs = [], []
        for n in (15, 31, 63, 127):
            g = GridSpec(length=1.0, n_interior=n)
            f = Field(g, np.sin(np.pi * g.nodes))
            u = neg_laplacian_inverse(f)
            exact = np.sin(np.pi * g.nodes) / np.pi**2
            errs.append(np.max(np.abs(u.values - exact)))
            hs.append(g.h)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.9 <= order <= 2.1

    def test_laplacian_self_adjoint(self):
        rng = np.random.default_rng(11)
        g = GridSpec(length=1.0, n_interior=31)
        a = rng.standard_normal(31)
        b = rng.standard_normal(31)
        lhs = g.h * np.dot(_laplacian(a, g.h), b)
        rhs = g.h * np.dot(a, _laplacian(b, g.h))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))

    def test_resolvent_damps_modes(self):
        g = GridSpec(length=1.0, n_interior=31)
        es = eigensystem(g, 5)
        mu = 0.3
        for lam, vec in zip(es.eigenvalues, es.eigenvectors):
            out = _solve_resolvent(g, mu, vec)
            assert np.max(np.abs(out - vec / (1.0 + mu * lam))) < 1e-12

    def test_resolvent_is_l2_contraction(self):
        rng = np.random.default_rng(5)
        g = GridSpec(length=1.0, n_interior=63)
        for mu in (1e-3, 1e-2, 1.0):
            f = Field(g, rng.standard_normal(63))
            assert norm_l2(Field(g, _solve_resolvent(g, mu, f.values))) <= norm_l2(f) + 1e-14


class TestNorms:
    def test_l2_of_unit_eigenvector_is_one(self):
        g = GridSpec(length=1.0, n_interior=31)
        es = eigensystem(g, 31)
        for k in (1, 7, 31):
            assert abs(norm_l2(es.vector(k)) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_row_norms_have_the_bits_of_one_row(self, n):
        # the lockstep solver's per-row norms must match the norm of each row alone
        g = GridSpec(length=1.0, n_interior=n)
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((7, n)) * 10.0 ** rng.integers(-12, 4, (7, 1))
        for sub in (rows, rows[[1, 4]], rows[3:4]):
            assert [float(v) for v in _norms_l2(g, sub)] == [_norm_l2(g, v) for v in sub]

    def test_norms_of_huge_finite_rows_do_not_overflow(self):
        # a row near 1e300 squares past the largest double: its norms are taken on the row
        # scaled by max |v|, and every other row keeps its bits
        g = GridSpec(length=1.0, n_interior=31)
        rows = np.random.default_rng(4).standard_normal((3, 31))
        big = rows.copy()
        big[1] *= 1e300
        with pytest.warns(RuntimeWarning, match="overflow"):
            for norms in (lambda r: _norms_l2(g, r), lambda r: _hminus1_norms(g, r)):
                plain, scaled = norms(rows), norms(big)
                assert np.array_equal(scaled[[0, 2]], plain[[0, 2]])
                assert abs(scaled[1] / (1e300 * plain[1]) - 1.0) < 1e-14
            assert norm_l2(Field(g, big[1])) == _norms_l2(g, big)[1]
            ratio = norm_hminus1(Field(g, big[1])) / norm_hminus1(Field(g, rows[1]))
        assert abs(ratio / 1e300 - 1.0) < 1e-14

    def test_norms_of_tiny_rows_do_not_underflow(self):
        # at s = 1e-170 every square of s sin(pi x) underflows to 0: the norms are taken on
        # the row scaled by max |v|, every other row keeps its bits and a zero row stays 0.0
        g = GridSpec(length=1.0, n_interior=31)
        sine = np.sin(np.pi * g.nodes)
        for norm in (norm_l2, norm_hminus1):
            assert abs(norm(Field(g, 1e-170 * sine)) / 1e-170 / norm(Field(g, sine)) - 1) < 1e-14
        rows = np.random.default_rng(5).standard_normal((4, 31))
        tiny = rows.copy()
        tiny[1] *= 1e-170
        tiny[2] = 0.0
        for norms in (lambda r: _norms_l2(g, r), lambda r: _hminus1_norms(g, r)):
            plain, scaled = norms(rows), norms(tiny)
            assert np.array_equal(scaled[[0, 3]], plain[[0, 3]])
            assert abs(scaled[1] / (1e-170 * plain[1]) - 1.0) < 1e-14
            assert scaled[2].hex() == "0x0.0p+0"

    @pytest.mark.parametrize("n", [31, 127, 1023])
    def test_hminus1_row_norms_have_the_bits_of_one_row(self, n):
        # norm_hminus1 is _hminus1_norms on one row, and a batch changes no row's bits
        g = GridSpec(length=1.0, n_interior=n)
        rng = np.random.default_rng(n + 1)
        rows = rng.standard_normal((7, n)) * 10.0 ** rng.integers(-12, 4, (7, 1))
        for sub in (rows, rows[[1, 4]], rows[3:4]):
            assert ([float(v) for v in _hminus1_norms(g, sub)]
                    == [norm_hminus1(Field(g, v)) for v in sub])

    def test_hminus1_norms_reject_inf_and_nan_rows(self):
        # the triangular solve does not check its input, so the norm does
        g = GridSpec(length=1.0, n_interior=15)
        for bad in (np.inf, -np.inf, np.nan):
            rows = np.ones((3, 15))
            rows[1, 4] = bad
            for sub in (rows, rows[1:2]):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    _hminus1_norms(g, sub)
            with pytest.raises(ValueError):
                norm_hminus1(Field(g, rows[1]))

    @pytest.mark.parametrize("n", [127, 1023])
    def test_hminus1_norms_match_the_spectral_sum(self, n):
        # |v|_-1 = sqrt(sum_k (h e_k . v)^2 / lambda_k) over every eigenpair, on random rows
        # and on the difference of two nearby sweep states, whose low modes dominate
        g = GridSpec(length=1.0, n_interior=n)
        es = eigensystem(g, n)
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((8, n)) * 10.0 ** rng.integers(-8, 4, (8, 1))
        noise = synthesize(NoiseSpec(16, PowerLawGammas(), 3, 0.02, 20), eigensystem(g, 16))
        x0 = Field(g, np.sin(np.pi * g.nodes) + 0.5 * np.sin(3.0 * np.pi * g.nodes))
        rows_eps = [(noise, 1e-2), (noise, 9e-3)]
        (a, b), error = _solve_batch(x0, SolverConfig(epsilon=1e-2), rows_eps)
        assert error is None
        for sub in (rows, a.y_fields[1:] - b.y_fields[1:]):
            coefficients = g.h * es.eigenvectors @ sub.T
            spectral = np.sqrt(np.sum(coefficients**2 / es.eigenvalues[:, None], axis=0))
            norms = _hminus1_norms(g, sub)
            assert np.all(norms > 0.0)
            assert np.max(np.abs(norms / spectral - 1.0)) <= 1e-13

    def test_norms_keep_inf_and_nan_rows(self):
        # a non-finite value is no overflow to undo: its row's norm stays inf or NaN
        g = GridSpec(length=1.0, n_interior=15)
        rows = np.ones((3, 15))
        rows[1, 4], rows[2, 7] = np.inf, np.nan
        norms = _norms_l2(g, rows)
        assert norms[0] == _norm_l2(g, rows[0]) and norms[1] == np.inf and np.isnan(norms[2])

    def test_laplacian_acts_on_each_row(self):
        g = GridSpec(length=1.0, n_interior=31)
        rows = np.random.default_rng(2).standard_normal((4, 31))
        lap = _laplacian(rows, g.h)
        for row, out in zip(rows, lap):
            assert np.array_equal(out, _laplacian(row, g.h))

    def test_hminus1_of_eigenvector(self):
        # |e_k|_{-1} = lambda_k^{-1/2}
        g = GridSpec(length=1.0, n_interior=63)
        es = eigensystem(g, 63)
        for k in (1, 5, 20, 63):
            expected = es.value(k) ** -0.5
            assert abs(norm_hminus1(es.vector(k)) - expected) < 1e-10

    def test_hminus1_inner_product_diagonalizes(self):
        g = GridSpec(length=1.0, n_interior=31)
        es = eigensystem(g, 6)
        e2, e5 = es.vector(2).values, es.vector(5).values
        solved = _solve_neg_laplacian(g, e2)
        assert abs(g.h * np.dot(solved, e5)) < 1e-12
        assert abs(g.h * np.dot(solved, e2) - 1.0 / es.value(2)) < 1e-12

    def test_poincare_inequality(self):
        # |f|_{-1} <= lambda_1^{-1/2} |f|_2 with equality on e_1
        rng = np.random.default_rng(9)
        g = GridSpec(length=1.0, n_interior=63)
        es = eigensystem(g, 1)
        c = es.value(1) ** -0.5
        for _ in range(20):
            f = Field(g, rng.standard_normal(63))
            assert norm_hminus1(f) <= c * norm_l2(f) * (1 + 1e-12)
