"""Command line driver: simulate | sweep-eps | verify | noise-check.

All artifacts are CSV files (plus plain-text summaries) written into
the output directory.  Runs are deterministic: one config file, one set
of bytes, regardless of the worker count.  Exit codes: 0 success, 1 a
check failed, 2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import SCHEMA_VERSION, ConfigError, ExperimentConfig, parse_config
from .grid import norm_hminus1, norm_l2
from .noise import (
    OscillationError,
    modulus_of_continuity,
    sup_norm_estimate,
    synthesize,
    validate_decay,
)
from .solver import StepFailureError, epsilon_sweep, run_ensemble, solve_path
from .verifier import (
    MEAN_SQUARE_MIN_PATHS,
    Flag,
    Report,
    build_test_process,
    flux_l1_integral,
    hminus1_sup,
    mean_square_bound,
    self_test_process,
    total_variation,
    variational_residual,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_SOLVER_FAILURE = 3

_SUMMARY_HEADER = [
    "path",
    "seed",
    "x_l2_final",
    "x_hminus1_final",
    "newton_iters_total",
    "newton_iters_max",
    "newton_residual_max",
    "substeps_total",
]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_report_csv(path: str, report: Report) -> None:
    _write_csv(path, ["check_name", "t", "lhs", "rhs", "margin", "pass"], report.rows())


def _dump_trajectory(traj, out_dir: str, index: int) -> None:
    rows = ((n, traj.times[n], j + 1, traj.y_fields[n, j], traj.x_fields[n, j])
            for n in range(traj.n_steps + 1) for j in range(traj.grid.n_interior))
    _write_csv(os.path.join(out_dir, f"trajectory_{index:04d}.csv"),
               ["step", "time", "node", "y", "x"], rows)
    diag = zip(range(traj.n_steps), traj.newton_iters, traj.newton_residuals, traj.substeps)
    _write_csv(os.path.join(out_dir, f"diagnostics_{index:04d}.csv"),
               ["step", "newton_iters", "newton_residual", "substeps"], diag)


def _summary_row(index: int, traj) -> list:
    x_final = traj.x_field(traj.n_steps)
    return [index, traj.noise.spec.seed, norm_l2(x_final), norm_hminus1(x_final),
            int(np.sum(traj.newton_iters)), int(np.max(traj.newton_iters)),
            float(np.max(traj.newton_residuals)), int(np.sum(traj.substeps))]


def cmd_simulate(cfg: ExperimentConfig, out_dir: str, n_paths: int, dump: bool) -> int:
    grid = cfg.grid_spec()
    eigen = cfg.eigen(grid)
    rows: list = []
    for traj in run_ensemble(cfg.initial_datum(grid, eigen), eigen, cfg.noise_spec(),
                             cfg.solver_config(), n_paths, workers=cfg.output.workers,
                             override_decay_check=cfg.noise.override_decay_check):
        if dump:
            _dump_trajectory(traj, out_dir, len(rows))
        rows.append(_summary_row(len(rows), traj))
        del traj  # drop it before the next path is solved: one trajectory alive at a time
    _write_csv(os.path.join(out_dir, "summary.csv"), _SUMMARY_HEADER, rows)
    print(f"simulate: {n_paths} path(s) -> {os.path.join(out_dir, 'summary.csv')}")
    return EXIT_OK


def cmd_sweep_eps(cfg: ExperimentConfig, out_dir: str) -> int:
    eps_list = cfg.solver.epsilon_list
    if len(eps_list) < 2:
        raise ConfigError("sweep-eps needs at least two entries in solver.epsilon_list")
    grid = cfg.grid_spec()
    eigen = cfg.eigen(grid)
    path = synthesize(cfg.noise_spec(), grid, eigen,
                      override_decay_check=cfg.noise.override_decay_check)
    x0 = cfg.initial_datum(grid, eigen)
    report = epsilon_sweep(x0, path, cfg.solver_config(), eps_list)

    consec = [
        (i, report.epsilons[i], report.epsilons[i + 1], report.consecutive[i])
        for i in range(len(report.consecutive))
    ]
    _write_csv(os.path.join(out_dir, "sweep_consecutive.csv"),
               ["pair", "eps_high", "eps_low", "distance"], consec)
    pair_rows = [
        (i, j, report.epsilons[i], report.epsilons[j], report.pairwise[i, j])
        for i in range(len(report.epsilons))
        for j in range(len(report.epsilons))
    ]
    _write_csv(os.path.join(out_dir, "sweep_pairwise.csv"),
               ["i", "j", "eps_i", "eps_j", "distance"], pair_rows)
    text = f"monotone_decreasing = {str(report.monotone_decreasing).lower()}\n"
    with open(os.path.join(out_dir, "sweep_summary.txt"), "w") as fh:
        fh.write(text)
    print("sweep-eps: " + text.strip())
    return EXIT_OK


def _ratio_report(name: str, eps_list, values, ratio_max: float) -> Report:
    arr = np.asarray(values, dtype=float)
    top = float(np.max(arr))
    bottom = float(np.min(arr))
    if top == 0.0:
        ratio = 1.0
    elif bottom == 0.0:
        ratio = np.inf
    else:
        ratio = top / bottom
    flag = Flag(
        name="spread_bounded",
        lhs=ratio,
        rhs=float(ratio_max),
        tolerance=float(ratio_max),
        passed=bool(ratio <= ratio_max),
    )
    return Report(
        name=name,
        flags=[flag],
        scalars={f"value_at_eps_{e:g}": float(v) for e, v in zip(eps_list, arr)},
        curves={
            "t": np.asarray(eps_list, dtype=float),
            "lhs": arr,
            "rhs": np.full_like(arr, float(np.max(arr))),
        },
    )


def cmd_verify(cfg: ExperimentConfig, out_dir: str, n_paths: int) -> int:
    if "mean_square" in cfg.verify.checks and n_paths < MEAN_SQUARE_MIN_PATHS:
        raise ConfigError(f"mean_square needs >= {MEAN_SQUARE_MIN_PATHS} paths, got {n_paths}")
    grid = cfg.grid_spec()
    eigen = cfg.eigen(grid)
    x0 = cfg.initial_datum(grid, eigen)
    base_path = synthesize(cfg.noise_spec(), grid, eigen,
                           override_decay_check=cfg.noise.override_decay_check)
    reports: list[Report] = []

    if "mean_square" in cfg.verify.checks:
        ensemble = run_ensemble(x0, eigen, cfg.noise_spec(), cfg.solver_config(), n_paths,
                                workers=cfg.output.workers,
                                override_decay_check=cfg.noise.override_decay_check)
        reports.append(mean_square_bound(ensemble, cfg.noise_spec(), eigen))

    diag_checks = [c for c in ("flux_l1", "total_variation", "hminus1_sup")
                   if c in cfg.verify.checks]
    if diag_checks:
        flux_vals, tv_vals, sup_vals = [], [], []
        for e in cfg.verify.diag_epsilons:
            traj = solve_path(x0, base_path, cfg.solver_config(epsilon=e))
            flux_vals.append(flux_l1_integral(traj))
            tv_vals.append(total_variation(traj))
            sup_vals.append(hminus1_sup(traj))
        by_name = {
            "flux_l1": flux_vals,
            "total_variation": tv_vals,
            "hminus1_sup": sup_vals,
        }
        for name in diag_checks:
            reports.append(
                _ratio_report(name, cfg.verify.diag_epsilons, by_name[name],
                              cfg.verify.ratio_max)
            )

    if "variational" in cfg.verify.checks:
        traj = solve_path(x0, base_path, cfg.solver_config())
        z = build_test_process(traj, cfg.verify.mu)
        report = variational_residual(traj, z, x0, tol_vi=cfg.verify.tol_vi)
        self_rep = variational_residual(traj, self_test_process(traj), x0, tol_vi=1e-9)
        report.flags.append(replace(self_rep.flags[0], name="self_test_residual"))
        reports.append(report)

    for report in reports:
        _write_report_csv(os.path.join(out_dir, f"report_{report.name}.csv"), report)
    summary = "\n\n".join(r.summary() for r in reports)
    overall = all(r.passed for r in reports)
    summary += f"\n\noverall: {'PASS' if overall else 'FAIL'}\n"
    with open(os.path.join(out_dir, "verify_summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary.strip())
    return EXIT_OK if overall else EXIT_CHECK_FAILED


def cmd_noise_check(cfg: ExperimentConfig, out_dir: str, n_paths: int) -> int:
    grid = cfg.grid_spec()
    eigen = cfg.eigen(grid)
    spec = cfg.noise_spec()
    report = validate_decay(spec, eigen)
    _write_csv(
        os.path.join(out_dir, "decay_report.csv"),
        ["k_max", "sum_gamma_sq_lambda_sq", "sum_gamma_lambda_cubed",
         "margin_square_sum", "margin_linear_sum", "ok"],
        [(
            report.k_max,
            report.sum_gamma_sq_lambda_sq,
            report.sum_gamma_lambda_cubed,
            "" if report.margin_square_sum is None else report.margin_square_sum,
            "" if report.margin_linear_sum is None else report.margin_linear_sum,
            report.ok,
        )],
    )
    if not report.ok:
        print(
            "noise-check: decay check FAILED "
            f"(margins {report.margin_square_sum:.6g}, {report.margin_linear_sum:.6g})",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED

    sup_rows = []
    first_path = None
    for i in range(max(n_paths, 1)):
        spec_i = cfg.noise_spec(seed=cfg.noise.seed + i)
        path = synthesize(spec_i, grid, eigen)
        if first_path is None:
            first_path = path
        sup_rows.append((i, spec_i.seed, sup_norm_estimate(path)))
    _write_csv(os.path.join(out_dir, "noise_sup.csv"),
               ["path", "seed", "sup_norm"], sup_rows)

    try:
        cuts = modulus_of_continuity(first_path, cfg.noise.continuity_alpha)
    except OscillationError as exc:
        print(f"noise-check: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    cells = [
        (m, int(cuts[m]), int(cuts[m + 1]),
         float(first_path.times[cuts[m]]), float(first_path.times[cuts[m + 1]]))
        for m in range(len(cuts) - 1)
    ]
    _write_csv(os.path.join(out_dir, "noise_partition.csv"),
               ["cell", "start_step", "end_step", "t_start", "t_end"], cells)
    print(
        f"noise-check: decay ok, sup norm over {len(sup_rows)} path(s) = "
        f"{max(r[2] for r in sup_rows):.6g}, partition cells = {len(cells)}"
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdiff",
        description="Pathwise simulation and checks for stochastic logarithmic diffusion.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"logdiff {__version__} (config schema {SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run trajectories and write a per-path summary"),
        ("sweep-eps", "re-solve one noise path across the configured epsilon list"),
        ("verify", "run the configured checks and write reports"),
        ("noise-check", "amplitude decay report, sup norms, continuity partition"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the experiment config file")
        p.add_argument("--out", default=None, help="output directory (default: from config)")
        p.add_argument("--paths", type=int, default=None,
                       help="override the configured number of paths")
        p.add_argument("--dump-trajectories", action="store_true",
                       help="write per-path trajectory and diagnostics CSVs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        n_paths = cfg.noise.n_paths if args.paths is None else args.paths
        if n_paths < 0:
            raise ConfigError("--paths must be >= 0")
        # path i uses seed + i; parse_config range-checked the seed itself
        if args.command != "sweep-eps" and cfg.noise.seed + n_paths > 2**64:
            raise ConfigError(f"seeds {cfg.noise.seed} + i for {n_paths} paths pass 2^64 - 1")
        out_dir = args.out if args.out is not None else cfg.output.directory
        os.makedirs(out_dir, exist_ok=True)
        dump = args.dump_trajectories or cfg.output.dump_trajectories

        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, n_paths, dump)
        if args.command == "sweep-eps":
            return cmd_sweep_eps(cfg, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, n_paths)
        return cmd_noise_check(cfg, out_dir, n_paths)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except StepFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except ValueError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
