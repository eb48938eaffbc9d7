"""The four benchmark workloads: their inputs, drawn from a seed, and their output checks.

Each workload is one `logdiff` subcommand on one generated config file.
The seed picks the noise seed only; grid, time step, eps, datum and path
counts are fixed, so every seed asks for the same amount of work.  A check
reads the command's output files and returns a list of failures (empty
when the output is right).  It compares against `reference`, computed apart
from the program, and against properties the method must have.  Every
tolerance is a multiple of n_steps * newton_tol: Newton leaves a residual
below newton_tol in each step and the implicit step is non-expansive in
H^-1, so the program's state is within n_steps * newton_tol / pi of the
exact scheme in H^-1.
"""

from __future__ import annotations

import csv
import os
import random

import numpy as np

import reference as ref

CHECK_NAMES = "mean_square, flux_l1, total_variation, hminus1_sup, variational"
# geometric, ratio 2, down to 3e-3: at 1023 nodes and newton_tol 1e-10 the
# solver needs retry substeps at eps 1e-3 but none at 2e-3 on any seed tried
SWEEP_EPSILONS = "1e-1, 5e-2, 2.5e-2, 1.25e-2, 6e-3, 3e-3"

BASE = {
    "ensemble": {
        "grid": {"n_interior": "127"},
        "noise": {"n_paths": "5"},
        "solver": {"epsilon": "1e-2", "dt": "1e-3", "t_final": "0.5", "newton_tol": "1e-10"},
        "initial": {"profile": "bump", "amplitude": "1.0"},
    },
    "sweep": {
        "grid": {"n_interior": "1023"},
        "noise": {"n_paths": "1"},
        "solver": {"dt": "1e-3", "t_final": "0.2", "newton_tol": "1e-10",
                   "epsilon_list": SWEEP_EPSILONS},
        "initial": {"profile": "mode", "mode_k": "1", "amplitude": "1.0"},
    },
    "verify": {
        "grid": {"n_interior": "31"},
        "noise": {"n_paths": "32"},
        "solver": {"epsilon": "1e-2", "dt": "2e-3", "t_final": "0.1", "newton_tol": "1e-10"},
        "initial": {"profile": "bump", "amplitude": "1.0"},
        "verify": {"checks": CHECK_NAMES, "diag_epsilons": "1e-1, 1e-2, 1e-3, 1e-4"},
    },
    "noise": {
        "grid": {"n_interior": "127"},
        "noise": {"n_paths": "30", "continuity_alpha": "0.5"},
        "solver": {"dt": "1e-4", "t_final": "1.0"},
    },
}

WORKLOADS = tuple(BASE)
SUBCOMMAND = {"ensemble": "simulate", "sweep": "sweep-eps", "verify": "verify",
              "noise": "noise-check"}


def make_config(name: str, seed: int) -> dict:
    """The workload's config sections; the seed draws the noise seed."""
    cfg = {section: dict(keys) for section, keys in BASE[name].items()}
    cfg["noise"]["seed"] = str(random.Random(f"{name}:{seed}").randrange(2**31))
    cfg["output"] = {"workers": "1"}
    return cfg


def write_config(cfg: dict, path: str) -> None:
    with open(path, "w") as fh:
        for section, keys in cfg.items():
            fh.write(f"[{section}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


class Inputs:
    """The config values a check needs, with the program's defaults filled in."""

    def __init__(self, cfg: dict) -> None:
        def get(section, key, default):
            return cfg.get(section, {}).get(key, default)

        self.length = float(get("grid", "length", 1.0))
        self.n = int(get("grid", "n_interior", 127))
        self.h = self.length / (self.n + 1)
        self.k_max = int(get("noise", "k_max", 8))
        self.gamma0 = float(get("noise", "gamma0", 1.0))
        self.decay = float(get("noise", "gamma_decay", 8.0))
        self.seed = int(get("noise", "seed", 42))
        self.n_paths = int(get("noise", "n_paths", 200))
        self.alpha = float(get("noise", "continuity_alpha", 0.5))
        self.eps = float(get("solver", "epsilon", 1e-2))
        self.dt = float(get("solver", "dt", 1e-3))
        self.t_final = float(get("solver", "t_final", 0.5))
        self.tol = float(get("solver", "newton_tol", 1e-10))
        self.n_steps = round(self.t_final / self.dt)
        self.eps_list = [float(e) for e in get("solver", "epsilon_list", "").split(",") if e.strip()]
        self.diag_eps = [float(e) for e in get("verify", "diag_epsilons", "").split(",") if e.strip()]
        profile = get("initial", "profile", "zero")
        amp = float(get("initial", "amplitude", 1.0))
        xi = ref.nodes(self.length, self.n)
        if profile == "zero":
            self.x0 = np.zeros(self.n)
        elif profile == "bump":
            self.x0 = amp * xi * (self.length - xi)
        elif profile == "mode":
            k = int(get("initial", "mode_k", 1))
            self.x0 = amp * ref.sine_basis(self.length, self.n, k)[k - 1]
        else:
            raise ValueError(f"no reference datum for profile {profile!r}")
        # the scheme's distance to the exact implicit Euler answer
        self.state_tol = self.n_steps * self.tol

    def noise(self, seed: int) -> np.ndarray:
        return ref.noise(seed, self.length, self.n, self.k_max, self.gamma0, self.decay,
                         self.t_final, self.n_steps)

    def solve(self, seed: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
        w = self.noise(seed)
        return ref.solve_path(self.x0, w, eps, self.dt, self.h), w

    def growth(self) -> float:
        lam = ref.eigenvalues(self.length, self.n, self.k_max)
        return float(np.sum(lam**2 * ref.gammas(self.gamma0, self.decay, self.k_max) ** 2))


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _column(rows, index, kind=float) -> np.ndarray:
    return np.array([kind(r[index]) for r in rows])


def _close(name: str, got, want, atol: float, failures: list[str]) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        failures.append(f"{name}: shape {got.shape} != reference {want.shape}")
        return
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= atol:
        failures.append(f"{name}: differs from the reference by {err:.3g} > {atol:.3g}")


def check_ensemble(cfg: dict, out: str) -> list[str]:
    inp, failures = Inputs(cfg), []
    header, rows = read_csv(os.path.join(out, "summary.csv"))
    if header != ["path", "seed", "x_l2_final", "x_hminus1_final", "newton_iters_total",
                  "newton_iters_max", "newton_residual_max", "substeps_total"]:
        return [f"summary.csv: unexpected header {header}"]
    if len(rows) != inp.n_paths:
        return [f"summary.csv: {len(rows)} rows for {inp.n_paths} paths"]
    seeds = [inp.seed + i for i in range(inp.n_paths)]
    if list(_column(rows, 0, int)) != list(range(inp.n_paths)) or list(_column(rows, 1, int)) != seeds:
        failures.append("summary.csv: path indices or seeds are not 0.. and seed + i")
    l2_ref, hm1_ref = [], []
    for s in seeds:
        y, w = inp.solve(s, inp.eps)
        x_final = y[-1] + w[-1]
        l2_ref.append(ref.l2_norms(x_final, inp.h)[0])
        hm1_ref.append(ref.hminus1_norms(x_final, inp.length)[0])
    l2 = _column(rows, 2)
    _close("x_l2_final", l2, l2_ref, inp.state_tol, failures)
    _close("x_hminus1_final", _column(rows, 3), hm1_ref, inp.state_tol, failures)
    if not np.all(_column(rows, 6) <= inp.tol):
        failures.append(f"newton_residual_max exceeds newton_tol {inp.tol:g}")
    if not np.all(_column(rows, 7, int) == inp.n_steps):
        failures.append(f"substeps_total != {inp.n_steps}: the retry path ran")
    sq = l2**2
    se = float(np.std(sq, ddof=1) / np.sqrt(sq.size)) if sq.size > 1 else 0.0
    bound = float(inp.h * np.sum(inp.x0**2)) + inp.t_final * inp.growth() + 3.0 * se
    if not float(np.mean(sq)) <= bound:
        failures.append(f"E|X(T)|^2 = {np.mean(sq):.6g} above the energy bound {bound:.6g}")
    return failures


def check_sweep(cfg: dict, out: str) -> list[str]:
    inp, failures = Inputs(cfg), []
    eps, m = inp.eps_list, len(inp.eps_list)
    _, rows = read_csv(os.path.join(out, "sweep_pairwise.csv"))
    if len(rows) != m * m:
        return [f"sweep_pairwise.csv: {len(rows)} rows for {m} epsilons"]
    table = np.full((m, m), np.nan)
    for r in rows:
        i, j = int(r[0]), int(r[1])
        table[i, j] = float(r[4])
    if any((float(r[2]), float(r[3])) != (eps[int(r[0])], eps[int(r[1])]) for r in rows):
        failures.append("sweep_pairwise.csv: rows name other epsilons than the config")
    if np.any(np.isnan(table)):
        return failures + ["sweep_pairwise.csv: the table has holes"]
    if not np.array_equal(table, table.T) or np.any(np.diag(table) != 0.0):
        failures.append("pairwise table is not symmetric with a zero diagonal")
    coeffs = [ref.sine_coefficients(inp.solve(inp.seed, e)[0], inp.length) for e in eps]
    lam = ref.eigenvalues(inp.length, inp.n, inp.n)
    want = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            want[i, j] = np.max(np.sqrt(np.sum((coeffs[i] - coeffs[j]) ** 2 / lam, axis=1)))
    _close("pairwise distances", table, want, 2 * inp.state_tol, failures)
    _, rows = read_csv(os.path.join(out, "sweep_consecutive.csv"))
    consecutive = _column(rows, 3)
    if not np.array_equal(consecutive, np.diag(table, 1)):
        failures.append("sweep_consecutive.csv does not repeat the pairwise table")
    if not np.all(np.diff(consecutive) < 0):
        failures.append("consecutive distances do not strictly decrease")
    with open(os.path.join(out, "sweep_summary.txt")) as fh:
        if fh.read().strip() != "monotone_decreasing = true":
            failures.append("sweep_summary.txt does not report monotone_decreasing = true")
    return failures


def _report(out: str, name: str) -> tuple[list[list[str]], dict[str, list[str]]]:
    """Curve rows and flag rows (keyed by flag name) of report_<name>.csv."""
    _, rows = read_csv(os.path.join(out, f"report_{name}.csv"))
    curve = [r for r in rows if r[1] != ""]
    flags = {r[0].split(":", 1)[1]: r for r in rows if r[1] == ""}
    return curve, flags


def check_verify(cfg: dict, out: str) -> list[str]:
    inp, failures = Inputs(cfg), []
    with open(os.path.join(out, "verify_summary.txt")) as fh:
        if fh.read().strip().splitlines()[-1] != "overall: PASS":
            failures.append("verify_summary.txt does not end in overall: PASS")
    names = ("mean_square_bound", "flux_l1", "total_variation", "hminus1_sup",
             "variational_inequality")
    reports = {name: _report(out, name) for name in names}
    for name, (curve, flags) in reports.items():
        for r in curve + list(flags.values()):
            if (r[5] == "true") != (float(r[2]) <= float(r[3])):
                failures.append(f"report_{name}.csv: pass column disagrees with lhs <= rhs in {r}")

    # mean square: lhs is the ensemble mean of |X(t)|^2, rhs the closed-form bound + 3 se
    sq = []
    for i in range(inp.n_paths):
        y, w = inp.solve(inp.seed + i, inp.eps)
        sq.append(inp.h * np.sum((y + w) ** 2, axis=1))
    sq = np.array(sq)
    times = np.linspace(0.0, inp.t_final, inp.n_steps + 1)
    bound = float(inp.h * np.sum(inp.x0**2)) + times * inp.growth()
    rhs = bound + 3.0 * np.std(sq, axis=0, ddof=1) / np.sqrt(len(sq)) + 1e-12 * np.maximum(1.0, bound)
    curve, _ = reports["mean_square_bound"]
    atol = inp.state_tol * (1.0 + float(np.max(rhs)))
    _close("mean_square t", _column(curve, 1), times, 1e-12, failures)
    _close("mean_square lhs (ensemble mean)", _column(curve, 2), np.mean(sq, axis=0), atol, failures)
    _close("mean_square rhs (energy bound)", _column(curve, 3), rhs, atol, failures)

    # the eps-diagnostics, re-solved on the base path
    flux, tv, sup = [], [], []
    for e in inp.diag_eps:
        y, w = inp.solve(inp.seed, e)
        flux.append(inp.dt * inp.h * np.sum(np.abs(ref.signed_log(ref.resolvent(e, y[:-1] + w[:-1])))))
        inv = ref.neg_laplacian_inverse(np.diff(y, axis=0), inp.length)
        tv.append(np.sum(ref.hminus1_norms(inv, inp.length)))
        sup.append(np.max(ref.hminus1_norms(y, inp.length) ** 2))
    for name, want in (("flux_l1", flux), ("total_variation", tv), ("hminus1_sup", sup)):
        curve, _ = reports[name]
        _close(f"{name} eps", _column(curve, 1), inp.diag_eps, 0.0, failures)
        _close(f"{name} values", _column(curve, 2), want, inp.state_tol, failures)

    _, flags = reports["variational_inequality"]
    if "self_test_residual" not in flags or not float(flags["self_test_residual"][2]) <= 1e-9:
        failures.append("variational self-test residual missing or above 1e-9")
    return failures


def check_noise(cfg: dict, out: str) -> list[str]:
    inp, failures = Inputs(cfg), []
    _, rows = read_csv(os.path.join(out, "decay_report.csv"))
    lam = ref.eigenvalues(inp.length, inp.n, inp.k_max)
    gam = ref.gammas(inp.gamma0, inp.decay, inp.k_max)
    want = [np.sum(gam**2 * lam**2), np.sum(gam * lam**3)]
    _close("decay partial sums", [float(rows[0][1]), float(rows[0][2])], want,
           1e-12 * max(want), failures)
    if rows[0][5] != "true":
        failures.append("decay_report.csv: decay check not ok")

    _, rows = read_csv(os.path.join(out, "noise_sup.csv"))
    seeds = [inp.seed + i for i in range(inp.n_paths)]
    if list(_column(rows, 1, int)) != seeds:
        failures.append("noise_sup.csv: seeds are not seed + i")
    sup = [float(np.max(np.abs(inp.noise(s)))) for s in seeds]
    _close("noise sup norms", _column(rows, 2), sup, 1e-12 * (1.0 + max(sup)), failures)

    _, rows = read_csv(os.path.join(out, "noise_partition.csv"))
    cuts = [int(rows[0][1])] + [int(r[2]) for r in rows]
    if cuts[0] != 0 or cuts[-1] != inp.n_steps or any(int(r[1]) != c for r, c in zip(rows, cuts)):
        return failures + ["noise_partition.csv: cells do not tile 0..n_steps"]
    w = inp.noise(inp.seed)
    times = np.linspace(0.0, inp.t_final, inp.n_steps + 1)
    _close("partition times", [float(v) for r in rows for v in r[3:5]],
           [times[c] for a, b in zip(cuts, cuts[1:]) for c in (a, b)], 1e-12, failures)
    slack = 1e-12 * (1.0 + float(np.max(np.abs(w))))
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            failures.append(f"noise_partition.csv: empty cell {a}..{b}")
            continue
        cell = w[a:b + 1]
        if not np.max(cell.max(axis=0) - cell.min(axis=0)) < inp.alpha + slack:
            failures.append(f"cell {a}..{b} oscillates by alpha or more")
        if b < inp.n_steps:
            wider = w[a:b + 2]
            if not np.max(wider.max(axis=0) - wider.min(axis=0)) >= inp.alpha - slack:
                failures.append(f"cell {a}..{b} could be extended: the partition is not greedy")
    return failures


CHECKS = {"ensemble": check_ensemble, "sweep": check_sweep, "verify": check_verify,
          "noise": check_noise}
