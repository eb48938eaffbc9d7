#!/usr/bin/env python3
"""Solve an ensemble and print per-path summaries plus the
mean-square energy check.

Usage: python3 scripts/run_default.py [config]

Defaults to scripts/configs/default.cfg.  This is the library-API
twin of `logdiff simulate` + `logdiff verify --config ...` for people
who want the objects rather than CSV files.
"""

import sys
import time
from pathlib import Path

from logdiff import (
    GridSpec,
    eigensystem,
    mean_square_bound,
    norm_hminus1,
    norm_l2,
    parse_config,
    run_ensemble,
)


def main() -> int:
    default = Path(__file__).parent / "configs" / "default.cfg"
    cfg = parse_config(sys.argv[1] if len(sys.argv) > 1 else str(default))

    grid = GridSpec(length=cfg.grid.length, n_interior=cfg.grid.n_interior)
    eigen = eigensystem(grid, cfg.noise.k_max)
    x0 = cfg.initial_datum(grid, eigen)
    spec = cfg.noise_spec()

    t0 = time.time()
    trajs = run_ensemble(x0, eigen, spec, cfg.solver_config(), cfg.noise.n_paths)
    print(f"solved {len(trajs)} paths in {time.time() - t0:.1f}s  "
          f"(n={grid.n_interior}, dt={cfg.solver.dt}, T={cfg.solver.t_final})")
    print(f"{'path':>4}  {'seed':>6}  {'|X(T)|_2':>12}  {'|X(T)|_-1':>12}  {'newton':>6}")
    for i, traj in enumerate(trajs):
        xT = traj.x_field(traj.n_steps)
        iters = int(traj.newton_iters.sum())
        print(f"{i:>4}  {spec.seed + i:>6}  {norm_l2(xT):>12.6e}  "
              f"{norm_hminus1(xT):>12.6e}  {iters:>6}")

    if len(trajs) >= 30:
        rep = mean_square_bound(trajs, spec, eigen)
        print(f"mean-square bound: {'PASS' if rep.passed else 'FAIL'}  "
              f"min relative margin {rep.scalars['min_relative_margin']:.4f}")
    else:
        print(f"mean-square bound: skipped ({len(trajs)} paths < 30)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
