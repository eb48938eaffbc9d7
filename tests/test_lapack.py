"""The LAPACK loader: its fallback, scipy.linalg.lapack, gives the bits of the fast path.

That the fast path is in use is shown by test_config_cli: `import logdiff.cli`
leaves scipy.linalg out of sys.modules, and the fallback imports it.
"""

import numpy as np
from scipy.linalg import lapack as public

import logdiff._lapack
from logdiff.grid import (Field, GridSpec, _factor, _hminus1_norms, _solve_neg_laplacian,
                          _solve_resolvent, eigensystem)
from logdiff.noise import NoiseSpec, PowerLawGammas, synthesize
from logdiff.solver import SolverConfig, _solve_batch


def results():
    """A three-row lockstep batch, its H^-1 norms and -Lap_h and resolvent solves of its states."""
    grid = GridSpec(length=1.0, n_interior=63)
    eigen = eigensystem(grid, 8)
    rows = [(synthesize(NoiseSpec(8, PowerLawGammas(), seed, 0.02, 20), eigen), eps)
            for seed, eps in ((1, 1e-2), (2, 1e-3), (3, 1e-1))]
    x0 = Field(grid, 4.0 * grid.nodes * (1.0 - grid.nodes))
    trajs, error = _solve_batch(x0, SolverConfig(epsilon=1e-2), rows)
    assert error is None and len(trajs) == 3
    y = np.stack([t.y_fields for t in trajs])
    return [y, np.stack([t.newton_iters for t in trajs]),
            np.stack([t.newton_residuals for t in trajs]), _hminus1_norms(grid, y[0]),
            _solve_neg_laplacian(grid, y[0].T), _solve_resolvent(grid, 0.3, y[1].T),
            _solve_resolvent(grid, 0.3, y[2][7])]


def test_fallback_gives_the_fast_paths_bits(tmp_path, monkeypatch):
    fast = results()
    routines = logdiff._lapack.load(tmp_path / "_flapack.so")  # no extension there
    assert routines == (public.dgtsv, public.dtbtrs)
    monkeypatch.setattr("logdiff.solver.dgtsv", routines[0])
    monkeypatch.setattr("logdiff.grid.dgtsv", routines[0])
    monkeypatch.setattr("logdiff.grid.dtbtrs", routines[1])
    fallback = results()
    for a, b in zip(fast, fallback):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # two dtbtrs sweeps on the closed-form factor are what dpbtrs does with that factor
    for n in (31, 127, 1023):
        g = GridSpec(length=1.0, n_interior=n)
        rhs = np.random.default_rng(n).standard_normal((n, 5)) * 10.0 ** np.arange(-8, 9, 4)
        for b in (rhs[:, 2].copy(), np.ascontiguousarray(rhs), np.asfortranarray(rhs)):
            assert _solve_neg_laplacian(g, b).tobytes() == public.dpbtrs(_factor(g), b)[0].tobytes()

