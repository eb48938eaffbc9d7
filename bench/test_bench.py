"""Tests of the benchmark itself: the reference, the output checks and the trace.

    python3 -m pytest bench/test_bench.py -q

Each workload runs on a shrunken config in-process; its check must accept
the program's output and reject output solved at eps raised by 10%, output
drawn with a shifted seed, and (for the sweep) a perturbed distance table.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import child  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from logdiff import cli  # noqa: E402

SMALL = {
    "ensemble": {"grid": {"n_interior": "31"}, "noise": {"n_paths": "4"},
                 "solver": {"t_final": "0.05"}},
    "sweep": {"grid": {"n_interior": "63"}, "solver": {"t_final": "0.05"}},
    "verify": {"grid": {"n_interior": "15"}, "noise": {"n_paths": "30"},
               "solver": {"t_final": "0.05"}},
    "noise": {"grid": {"n_interior": "31"}, "noise": {"n_paths": "4"},
              "solver": {"t_final": "0.2"}},
}


def small_config(name: str) -> dict:
    cfg = workloads.make_config(name, seed=3)
    for section, keys in SMALL[name].items():
        cfg[section].update(keys)
    return cfg


def run_cli(name: str, cfg: dict, tmp_path: Path, tag: str) -> str:
    path = tmp_path / f"{tag}.cfg"
    workloads.write_config(cfg, str(path))
    out = tmp_path / tag
    code = cli.main([workloads.SUBCOMMAND[name], "--config", str(path), "--out", str(out)])
    assert code == 0
    return str(out)


def raised_eps(cfg: dict) -> dict:
    solver = cfg["solver"]
    if "epsilon_list" in solver:
        solver["epsilon_list"] = ", ".join(
            repr(1.1 * float(e)) for e in solver["epsilon_list"].split(","))
    else:
        solver["epsilon"] = repr(1.1 * float(solver["epsilon"]))
    return cfg


def shifted_seed(cfg: dict) -> dict:
    cfg["noise"]["seed"] = str(int(cfg["noise"]["seed"]) + 1)
    return cfg


def test_closed_form_resolvent_meets_its_equation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20000) * np.exp(rng.uniform(-12.0, 8.0, 20000))
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        j = ref.resolvent(eps, x)
        assert np.all(np.abs(j + eps * ref.signed_log(j) - x) <= 1e-14 * np.maximum(1.0, np.abs(x)))
        assert np.all(np.sign(j) == np.sign(x)) and np.all(np.abs(j) <= np.abs(x))


def test_reference_solver_keeps_zero_exactly():
    w = np.zeros((21, 31))
    y = ref.solve_path(np.zeros(31), w, 1e-3, 1e-3, 1.0 / 32)
    assert np.all(y == 0.0)


def test_reference_hminus1_norm_of_an_eigenvector():
    e3 = ref.sine_basis(1.0, 63, 3)[2]
    lam3 = ref.eigenvalues(1.0, 63, 3)[2]
    assert ref.hminus1_norms(e3, 1.0)[0] == pytest.approx(lam3**-0.5, rel=1e-13)
    assert np.allclose(ref.neg_laplacian_inverse(e3[None, :], 1.0)[0], e3 / lam3, atol=1e-15)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_check_accepts_the_program_output(name, tmp_path):
    cfg = small_config(name)
    assert workloads.CHECKS[name](cfg, run_cli(name, cfg, tmp_path, "good")) == []


def differs_from_reference(failures: list[str]) -> bool:
    return any("differs from the reference" in f for f in failures)


@pytest.mark.parametrize("name", ["ensemble", "sweep", "verify"])
def test_check_rejects_output_solved_at_raised_eps(name, tmp_path):
    cfg = small_config(name)
    out = run_cli(name, raised_eps(small_config(name)), tmp_path, "eps")
    assert differs_from_reference(workloads.CHECKS[name](cfg, out))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_check_rejects_output_of_a_shifted_seed(name, tmp_path):
    cfg = small_config(name)
    out = run_cli(name, shifted_seed(small_config(name)), tmp_path, "seed")
    assert differs_from_reference(workloads.CHECKS[name](cfg, out))


@pytest.mark.parametrize("symmetric", [False, True])
def test_sweep_check_rejects_a_perturbed_table_row(symmetric, tmp_path):
    cfg = small_config("sweep")
    out = run_cli("sweep", cfg, tmp_path, "good")
    path = os.path.join(out, "sweep_pairwise.csv")
    header, rows = workloads.read_csv(path)
    for r in rows:
        if (r[0], r[1]) == ("1", "3") or (symmetric and (r[0], r[1]) == ("3", "1")):
            r[4] = repr(float(r[4]) * (1.0 + 1e-4))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    failures = workloads.check_sweep(cfg, out)
    assert differs_from_reference(failures) if symmetric else failures


def test_noise_check_rejects_a_partition_that_is_not_greedy(tmp_path):
    cfg = small_config("noise")
    out = run_cli("noise", cfg, tmp_path, "good")
    path = os.path.join(out, "noise_partition.csv")
    header, rows = workloads.read_csv(path)
    assert len(rows) >= 2
    cut = int(rows[0][2]) - 1
    rows[0][2], rows[1][1] = str(cut), str(cut)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    assert workloads.check_noise(cfg, out)


def test_zeroing_unused_band_corners_changes_no_result():
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(1)
    ab = rng.uniform(1.0, 2.0, (3, 9))
    ab[1] += 4.0
    rhs = rng.standard_normal(9)
    want = solve_banded((1, 1), ab.copy(), rhs)
    ab[0, 0], ab[2, -1] = np.nan, np.inf
    with pytest.raises(ValueError):
        solve_banded((1, 1), ab.copy(), rhs)
    assert np.array_equal(child.zero_unused_corners(solve_banded)((1, 1), ab, rhs), want)


def test_layer_self_time_subtracts_child_spans():
    spans = [
        ["cli.command", 0.0, 10.0, -1, None],
        ["solver.solve", 1.0, 5.0, 0, {"steps": 4, "newton_iters": 8, "substeps": 4, "bytes": 2**20}],
        ["nonlinearity.resolvent", 2.0, 3.0, 1, {"values": 100, "solver_calls": 1}],
        ["solver.banded_solve", 3.0, 3.5, 1, None],
        ["cli.write", 6.0, 7.0, 0, None],
    ]
    m = run.layer_metrics(spans, bytes_written=10, overhead_s=0.25)
    assert m["cli.other_s"] == 10.0 - 4.0 - 1.0
    assert m["solver.solve_s"] == 4.0 - 1.0 - 0.5
    assert m["solver.step_us"] == 1e6
    assert m["solver.newton_iters_per_step"] == 2.0
    assert m["nonlinearity.resolvent_calls_per_step"] == 0.25
    assert m["nonlinearity.resolvent_ns_per_value"] == 1e7
    assert m["solver.trajectory_mb"] == 1.0
    assert m["verifier.mean_square_s"] == 0.0
    assert set(m) == set(run.LAYER_UNITS)


def test_traced_round_wraps_every_name_and_keeps_the_bytes(tmp_path):
    cfg = small_config("verify")
    path = tmp_path / "verify.cfg"
    workloads.write_config(cfg, str(path))
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    records = []
    for trace in ("0", "1"):
        record = tmp_path / f"record{trace}.json"
        subprocess.run([sys.executable, str(BENCH / "child.py"), str(record), trace, "--",
                        "verify", "--config", str(path), "--out", str(tmp_path / trace)],
                       env=env, check=True, capture_output=True, timeout=120)
        records.append(json.loads(record.read_text()))
    assert records[1]["absent"] == []
    assert run.same_bytes(tmp_path / "0", tmp_path / "1")
    names = {span[0] for span in records[1]["spans"]}
    assert names == set(child.WRAPS) - {"solver.epsilon_sweep", "noise.continuity"}
