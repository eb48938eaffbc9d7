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
from collections import Counter
from dataclasses import astuple, fields, replace

import numpy as np

from . import __version__
from .config import SCHEMA_VERSION, ConfigError, ExperimentConfig, parse_config
from .grid import EigenSystem, norm_hminus1, norm_l2
from .noise import (
    DecayReport,
    NoiseOverflowError,
    OscillationError,
    modulus_of_continuity,
    sup_norm_estimate,
    synthesize,
    synthesized_sup,
    validate_decay,
)
# solve_path is not called here, but the benchmark's tracer wraps it under this module
from .solver import (  # noqa: F401
    StepFailureError,
    epsilon_sweep,
    run_ensemble,
    solve_path,
    solve_rows,
)
from .verifier import (
    MEAN_SQUARE_MIN_PATHS,
    InadmissibleError,
    build_test_process,
    flux_l1_integral,
    hminus1_sup,
    mean_square_bound,
    self_test_process,
    spread_report,
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


def _write_csv(path: str, header: list[str], rows, *, lines: bool = False) -> None:
    """Write the header, then each row through _fmt; with ``lines``, each row is already
    a line of text as csv.writer would write it, ending in "\r\n"."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if lines:
            fh.writelines(rows)
        else:
            for row in rows:
                writer.writerow([_fmt(v) for v in row])


def _dump_trajectory(traj, out_dir: str, index: int) -> None:
    # tolist() gives Python ints and floats, whose str and repr are _fmt's text; one
    # time row at a time, so a large dump holds no Python float per value at once
    x_fields = traj.x_fields  # bound once: the property recomputes the whole array on each access
    rows = (f"{n},{t!r},{j},{y!r},{x!r}\r\n"
            for n, (t, y_row, x_row) in enumerate(zip(traj.times.tolist(), traj.y_fields, x_fields))
            for j, (y, x) in enumerate(zip(y_row.tolist(), x_row.tolist()), 1))
    _write_csv(os.path.join(out_dir, f"trajectory_{index:04d}.csv"),
               ["step", "time", "node", "y", "x"], rows, lines=True)
    diag = (f"{n},{i},{r!r},{s}\r\n" for n, (i, r, s) in enumerate(
        zip(traj.newton_iters.tolist(), traj.newton_residuals.tolist(), traj.substeps.tolist())))
    _write_csv(os.path.join(out_dir, f"diagnostics_{index:04d}.csv"),
               ["step", "newton_iters", "newton_residual", "substeps"], diag, lines=True)


def _summary_row(index: int, traj) -> list:
    x_final = traj.x_field(traj.n_steps)
    return [index, traj.noise.spec.seed, norm_l2(x_final), norm_hminus1(x_final),
            int(np.sum(traj.newton_iters)), int(np.max(traj.newton_iters)),
            float(np.max(traj.newton_residuals)), int(np.sum(traj.substeps))]


def cmd_simulate(cfg: ExperimentConfig, eigen: EigenSystem, out_dir: str, n_paths: int,
                 dump: bool) -> int:
    rows: list = []
    for traj in run_ensemble(cfg.initial_datum(eigen), eigen, cfg.noise_spec(),
                             cfg.solver_config(), n_paths, workers=cfg.output.workers,
                             override_decay_check=True):
        if dump:
            _dump_trajectory(traj, out_dir, len(rows))
        rows.append(_summary_row(len(rows), traj))
        del traj  # hold no path already written while the next batch is solved
    _write_csv(os.path.join(out_dir, "summary.csv"), _SUMMARY_HEADER, rows)
    print(f"simulate: {n_paths} path(s) -> {os.path.join(out_dir, 'summary.csv')}")
    return EXIT_OK


def cmd_sweep_eps(cfg: ExperimentConfig, eigen: EigenSystem, out_dir: str) -> int:
    path = synthesize(cfg.noise_spec(), eigen, override_decay_check=True)
    x0 = cfg.initial_datum(eigen)
    report = epsilon_sweep(x0, path, cfg.solver_config(), cfg.solver.epsilon_list)

    eps = report.epsilons
    consec = [(i, eps[i], eps[i + 1], d) for i, d in enumerate(report.consecutive)]
    _write_csv(os.path.join(out_dir, "sweep_consecutive.csv"),
               ["pair", "eps_high", "eps_low", "distance"], consec)
    pair_rows = [(i, j, eps[i], eps[j], report.pairwise[i, j])
                 for i in range(len(eps)) for j in range(len(eps))]
    _write_csv(os.path.join(out_dir, "sweep_pairwise.csv"),
               ["i", "j", "eps_i", "eps_j", "distance"], pair_rows)
    text = f"monotone_decreasing = {str(report.monotone_decreasing).lower()}\n"
    with open(os.path.join(out_dir, "sweep_summary.txt"), "w") as fh:
        fh.write(text)
    print("sweep-eps: " + text.strip())
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, eigen: EigenSystem, out_dir: str, n_paths: int) -> int:
    x0 = cfg.initial_datum(eigen)
    spec, solver_cfg = cfg.noise_spec(), cfg.solver_config()
    eps = solver_cfg.epsilon
    checks, diag_eps = cfg.verify.checks, cfg.verify.diag_epsilons
    diagnostics = {name: value for name, value in (
        ("flux_l1", flux_l1_integral), ("total_variation", total_variation),
        ("hminus1_sup", hminus1_sup)) if name in checks}
    # each check's rows (seed, eps), in the order it reads them
    ensemble = [(spec.seed + i, eps) for i in range(n_paths)] if "mean_square" in checks else []
    diag = [(spec.seed, e) for e in dict.fromkeys(diag_eps)] if diagnostics else []
    base = [(spec.seed, eps)] if "variational" in checks else []
    # each row is solved once, in the order it is first read; the checks read in that order
    readers = Counter(ensemble + diag + base)
    solved = solve_rows(x0, eigen, spec, solver_cfg, list(readers), workers=cfg.output.workers,
                        override_decay_check=True)
    held = {}

    def read(row):  # a row's trajectory is held only while it has reads left
        traj = held.pop(row) if row in held else next(solved)
        readers[row] -= 1
        if readers[row]:
            held[row] = traj
        return traj

    reports = [mean_square_bound(map(read, ensemble))] if ensemble else []
    if diagnostics:  # computed once per row; each diag_epsilons entry reads its row's values
        per_eps = {e: [value(traj) for value in diagnostics.values()]
                   for (_, e), traj in zip(diag, map(read, diag))}
        reports += [spread_report(name, diag_eps, column, cfg.verify.ratio_max)
                    for name, column in zip(diagnostics, zip(*map(per_eps.get, diag_eps)))]
    for traj in map(read, base):
        z, self_z = build_test_process(traj, cfg.verify.mu), self_test_process(traj)
        reports.append(variational_residual(z, tol_vi=cfg.verify.tol_vi))
        self_rep = variational_residual(self_z, tol_vi=1e-9)
        reports[-1].flags.append(replace(self_rep.flags[0], name="self_test_residual"))

    for report in reports:
        _write_csv(os.path.join(out_dir, f"report_{report.name}.csv"),
                   ["check_name", "t", "lhs", "rhs", "margin", "pass"], report.rows())
    summary = "\n\n".join(r.summary() for r in reports)
    overall = all(r.passed for r in reports)
    summary += f"\n\noverall: {'PASS' if overall else 'FAIL'}\n"
    with open(os.path.join(out_dir, "verify_summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary.strip())
    return EXIT_OK if overall else EXIT_CHECK_FAILED


def cmd_noise_check(cfg: ExperimentConfig, eigen: EigenSystem, report: DecayReport,
                    out_dir: str, n_paths: int) -> int:
    spec = cfg.noise_spec()
    _write_csv(os.path.join(out_dir, "decay_report.csv"), [f.name for f in fields(report)],
               [["" if v is None else v for v in astuple(report)]])
    if not report.ok:
        print(
            "noise-check: decay check FAILED "
            f"(margins {report.margin_square_sum:.6g}, {report.margin_linear_sum:.6g})",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED

    # only the first path is stored, for its partition; report.ok was judged above
    first_path = synthesize(spec, eigen, override_decay_check=True)
    sup_rows = [(0, spec.seed, sup_norm_estimate(first_path))]
    for i in range(1, n_paths):
        spec_i = replace(spec, seed=spec.seed + i)
        sup_rows.append((i, spec_i.seed, synthesized_sup(spec_i, eigen)))
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
    commands = {name: sub.add_parser(name, help=help_text) for name, help_text in (
        ("simulate", "run trajectories and write a per-path summary"),
        ("sweep-eps", "re-solve one noise path across the configured epsilon list"),
        ("verify", "run the configured checks and write reports"),
        ("noise-check", "amplitude decay report, sup norms, continuity partition"),
    )}
    for p in commands.values():
        p.add_argument("--config", required=True, help="path to the experiment config file")
        p.add_argument("--out", default=None, help="output directory (default: from config)")
    for name in ("simulate", "verify", "noise-check"):
        commands[name].add_argument("--paths", type=int, default=None,
                                    help="override the configured number of paths")
    commands["simulate"].add_argument("--dump-trajectories", action="store_true",
                                      help="write per-path trajectory and diagnostics CSVs")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        paths = getattr(args, "paths", None)
        n_paths = cfg.noise.n_paths if paths is None else paths
        if n_paths < 0:
            raise ConfigError("--paths must be >= 0")
        mean_square = args.command == "verify" and "mean_square" in cfg.verify.checks
        # path i uses seed + i; parse_config range-checked the seed itself
        if ((mean_square or args.command in ("simulate", "noise-check"))
                and cfg.noise.seed + n_paths > 2**64):
            raise ConfigError(f"seeds {cfg.noise.seed} + i for {n_paths} paths pass 2^64 - 1")
        if args.command == "sweep-eps" and len(cfg.solver.epsilon_list) < 2:
            raise ConfigError("sweep-eps needs at least two entries in solver.epsilon_list")
        if mean_square and n_paths < MEAN_SQUARE_MIN_PATHS:
            raise ConfigError(f"mean_square needs >= {MEAN_SQUARE_MIN_PATHS} paths, got {n_paths}")
        eigen = cfg.eigen()  # carries the grid; every command shares it
        # a sum of squares that overflows is redone scaled or judged; numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            # a run's only decay check; noise-check reports a failure in its own files
            decay = validate_decay(cfg.noise_spec(), eigen)
            if args.command != "noise-check" and not (decay.ok or cfg.noise.override_decay_check):
                print(f"check failure: noise amplitudes fail the decay check (margins "
                      f"{decay.margin_square_sum}, {decay.margin_linear_sum}); set "
                      "[noise] override_decay_check = true to run anyway", file=sys.stderr)
                return EXIT_CHECK_FAILED
            out_dir = args.out if args.out is not None else cfg.output.directory
            os.makedirs(out_dir, exist_ok=True)
            if args.command == "simulate":
                dump = args.dump_trajectories or cfg.output.dump_trajectories
                return cmd_simulate(cfg, eigen, out_dir, n_paths, dump)
            if args.command == "sweep-eps":
                return cmd_sweep_eps(cfg, eigen, out_dir)
            if args.command == "verify":
                return cmd_verify(cfg, eigen, out_dir, n_paths)
            return cmd_noise_check(cfg, eigen, decay, out_dir, n_paths)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (NoiseOverflowError, InadmissibleError) as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except StepFailureError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
