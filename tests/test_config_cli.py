"""Config parsing and the command line driver."""

import csv
import os
import runpy
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import logdiff.cli
import logdiff.noise
import logdiff.solver
from logdiff.cli import main
from logdiff.config import CHECK_NAMES, ConfigError, ExperimentConfig, parse_config
from logdiff.grid import Field, GridSpec, eigensystem
from logdiff.noise import NoiseSpec, PowerLawGammas, synthesize
from logdiff.solver import SolverConfig, solve_path


CONFIGS = Path(__file__).parents[1] / "scripts" / "configs"
SMOKE = CONFIGS / "smoke.cfg"


def write(path, text):
    path.write_text(text)
    return str(path)


BASE = """
[grid]
n_interior = 31

[noise]
seed = 42
n_paths = 2

[solver]
epsilon = 1e-2
dt = 2e-3
t_final = 0.1
"""

# one non-default valid value per config key: (section, key, text, parsed value)
KEY_VALUES = [
    ("grid", "length", "2.0", 2.0),
    ("grid", "n_interior", "63", 63),
    ("noise", "k_max", "4", 4),
    ("noise", "gamma0", "0.5", 0.5),
    ("noise", "gamma_decay", "9.5", 9.5),
    ("noise", "seed", "7", 7),
    ("noise", "n_paths", "30", 30),
    ("noise", "continuity_alpha", "0.25", 0.25),
    ("noise", "override_decay_check", "true", True),
    ("solver", "epsilon", "1e-3", 1e-3),
    ("solver", "dt", "2e-3", 2e-3),
    ("solver", "t_final", "0.25", 0.25),
    ("solver", "newton_tol", "1e-12", 1e-12),
    ("solver", "newton_max_iter", "20", 20),
    ("solver", "epsilon_list", "1e-1, 1e-2", (1e-1, 1e-2)),
    ("initial", "profile", "bump", "bump"),
    ("initial", "amplitude", "2.5", 2.5),
    ("initial", "mode_k", "3", 3),
    ("initial", "path", "datum.csv", "datum.csv"),
    ("verify", "checks", "mean_square, variational", ("mean_square", "variational")),
    ("verify", "mu", "0.05", 0.05),
    ("verify", "tol_vi", "1e-3", 1e-3),
    ("verify", "diag_epsilons", "1e-1, 1e-3", (1e-1, 1e-3)),
    ("verify", "ratio_max", "5.0", 5.0),
    ("output", "directory", "results", "results"),
    ("output", "dump_trajectories", "yes", True),
    ("output", "workers", "2", 2),
]


class TestParseConfig:
    def test_key_table_covers_every_block_field(self):
        blocks = {f.name: f.default for f in fields(ExperimentConfig)}
        keys = {(section, f.name) for section, block in blocks.items() for f in fields(block)}
        table = [(section, key) for section, key, _, _ in KEY_VALUES]
        assert len(table) == len(set(table))
        assert set(table) == keys

    @pytest.mark.parametrize("section,key,text,value", KEY_VALUES)
    def test_each_key_parses_into_its_block(self, tmp_path, section, key, text, value):
        cfg = parse_config(write(tmp_path / "c.cfg", f"[{section}]\n{key} = {text}\n"))
        default_block = getattr(ExperimentConfig(), section)
        assert getattr(default_block, key) != value
        expected = replace(ExperimentConfig(), **{section: replace(default_block, **{key: value})})
        assert cfg == expected

    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path / "c.cfg", ""))
        assert cfg.grid.n_interior == 127
        assert cfg.noise.k_max == 8
        assert cfg.noise.gamma_decay == 8.0
        assert cfg.solver.epsilon == 1e-2
        assert cfg.initial.profile == "zero"
        assert cfg.output.workers == 1

    def test_default_cfg_spells_out_the_defaults(self, tmp_path):
        empty = parse_config(write(tmp_path / "c.cfg", ""))
        assert parse_config(str(CONFIGS / "default.cfg")) == empty

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_every_shipped_config_parses(self, path):
        # a key dropped from the schema must not linger in a shipped config
        assert isinstance(parse_config(str(path)), ExperimentConfig)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write(tmp_path / "c.cfg", "[blah]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write(tmp_path / "c.cfg", "[grid]\nspacing = 0.1\n"))

    def test_scheme_is_an_unknown_key(self, tmp_path, capsys):
        # implicit Euler is the only scheme, so no key chooses one
        cfg = write(tmp_path / "c.cfg", "[solver]\nscheme = implicit\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "unknown key 'scheme' in section [solver]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_value(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path / "c.cfg", "[grid]\nn_interior = tiny\n"))
        # the [grid] block is GridSpec, whose own checks give the message; a bad grid is
        # reported before a bad dt
        for grid, message in (("length = 0", "length must be positive and finite, got 0.0"),
                              ("length = -1", "length must be positive and finite, got -1.0"),
                              ("n_interior = 1", "n_interior must be an integer >= 2, got 1")):
            for solver in ("", "[solver]\ndt = 0\n"):
                cfg = write(tmp_path / "c.cfg", f"[grid]\n{grid}\n{solver}")
                out = tmp_path / "out"
                assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
                assert capsys.readouterr().err == f"config error: {message}\n"
                assert not out.exists()

    def test_constraint_violation(self, tmp_path):
        # more modes than interior nodes
        text = "[grid]\nn_interior = 4\n\n[noise]\nk_max = 8\n"
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path / "c.cfg", text))

    def test_dt_must_divide_horizon(self, tmp_path):
        text = "[solver]\ndt = 3e-4\nt_final = 0.1\n"
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path / "c.cfg", text))

    def test_epsilon_list_must_decrease(self, tmp_path):
        text = "[solver]\nepsilon_list = 1e-3, 1e-2\n"
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path / "c.cfg", text))

    def test_builders(self, tmp_path):
        cfg = parse_config(write(tmp_path / "c.cfg", BASE))
        assert cfg.grid == GridSpec(length=1.0, n_interior=31)
        spec = cfg.noise_spec()
        assert spec.n_steps == 50
        assert spec.t_final == 0.1
        solver = cfg.solver_config()
        assert solver.epsilon == 1e-2
        # per-eps configs and per-path specs are derived with replace, which re-validates
        per_eps = replace(solver, epsilon=1e-3)
        assert per_eps.epsilon == 1e-3
        assert replace(spec, seed=43).seed == 43
        with pytest.raises(ValueError):
            replace(solver, epsilon=-1e-3)
        with pytest.raises(ValueError):
            replace(spec, seed=2**64)


class TestInitialProfiles:
    def test_zero(self, tmp_path):
        cfg = parse_config(write(tmp_path / "c.cfg",
                                 "[grid]\nn_interior = 15\n[initial]\nprofile = zero\n"))
        assert np.all(cfg.initial_datum().values == 0.0)

    def test_bump(self, tmp_path):
        text = "[grid]\nn_interior = 15\n[initial]\nprofile = bump\namplitude = 2.0\n"
        cfg = parse_config(write(tmp_path / "c.cfg", text))
        datum = cfg.initial_datum()
        xi = cfg.grid.nodes
        assert np.allclose(datum.values, 2.0 * xi * (1.0 - xi))

    def test_mode(self, tmp_path):
        text = "[grid]\nn_interior = 15\n[initial]\nprofile = mode\nmode_k = 3\namplitude = 0.5\n"
        cfg = parse_config(write(tmp_path / "c.cfg", text))
        es = cfg.eigen()
        datum = cfg.initial_datum(es)
        assert np.allclose(datum.values, 0.5 * es.vector(3).values)

    def test_file(self, tmp_path):
        datum_file = tmp_path / "datum.csv"
        with open(datum_file, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["node", "value"])
            for j in range(1, 6):
                w.writerow([j, 0.1 * j])
        text = (
            "[grid]\nn_interior = 5\n\n[noise]\nk_max = 2\n\n"
            f"[initial]\nprofile = file\npath = {datum_file}\n"
        )
        cfg = parse_config(write(tmp_path / "c.cfg", text))
        assert np.allclose(cfg.initial_datum().values, [0.1, 0.2, 0.3, 0.4, 0.5])

    def test_file_incomplete_rejected_at_parse_time(self, tmp_path):
        datum_file = tmp_path / "datum.csv"
        with open(datum_file, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["node", "value"])
            w.writerow([1, 0.5])
        text = (
            "[grid]\nn_interior = 5\n\n[noise]\nk_max = 2\n\n"
            f"[initial]\nprofile = file\npath = {datum_file}\n"
        )
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path / "c.cfg", text))

    def test_file_repeating_a_node_is_a_config_error(self, tmp_path, capsys):
        # the later row would otherwise win, giving the datum [0.1, 9.0, 0.3]
        datum = write(tmp_path / "datum.csv", "node,value\n1,0.1\n2,0.2\n2,9.0\n3,0.3\n")
        cfg = write(tmp_path / "c.cfg", "[grid]\nn_interior = 3\n[noise]\nk_max = 2\n"
                    f"[initial]\nprofile = file\npath = {datum}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: initial datum node 2 is listed twice\n"
        assert not out.exists()


class TestCliSimulate:
    def test_exit_zero_and_summary(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "path", "seed", "x_l2_final", "x_hminus1_final",
            "newton_iters_total", "newton_iters_max",
            "newton_residual_max", "substeps_total",
        ]
        assert len(rows) == 3
        assert rows[1][1] == "42" and rows[2][1] == "43"

    def test_paths_override_and_zero_paths(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "0"]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1  # header only

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        first = (out / "summary.csv").read_bytes()
        main(["simulate", "--config", cfg, "--out", str(out)])
        assert (out / "summary.csv").read_bytes() == first

    def test_workers_do_not_change_bytes(self, tmp_path, monkeypatch):
        first = {}  # each command's output at the first batch size and worker count
        # batches of 1 or 7 paths of 51 steps on 31 nodes, or the rule's own (all paths)
        for batch_values in (51 * 31, 7 * 51 * 31, logdiff.solver._BATCH_VALUES):
            monkeypatch.setattr("logdiff.solver._BATCH_VALUES", batch_values)
            for args in (["simulate", "--paths", "4", "--dump-trajectories"],
                         ["verify", "--paths", "30"]):
                for workers in (1, 2):
                    cfg = write(tmp_path / f"c{workers}.cfg",
                                BASE + f"\n[output]\nworkers = {workers}\n")
                    out = tmp_path / f"{args[0]}{workers}-{batch_values}"
                    assert main([args[0], "--config", cfg, "--out", str(out)] + args[1:]) == 0
                    outputs = {p.name: p.read_bytes() for p in out.iterdir()}
                    assert len(outputs) > 1
                    assert first.setdefault(args[0], outputs) == outputs

    def test_dump_trajectories(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        main([
            "simulate", "--config", cfg, "--out", str(out),
            "--paths", "1", "--dump-trajectories",
        ])
        assert (out / "trajectory_0000.csv").exists()
        assert (out / "diagnostics_0000.csv").exists()
        with open(out / "trajectory_0000.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "time", "node", "y", "x"]
        assert len(rows) == 1 + 51 * 31

    def test_dump_keeps_the_csv_writer_bytes(self, tmp_path):
        eigen = eigensystem(GridSpec(length=1.0, n_interior=15), 8)
        noise = synthesize(NoiseSpec(k_max=8, gammas=PowerLawGammas(), seed=3, t_final=0.02,
                                     n_steps=10), eigen)
        traj = solve_path(Field.zeros(eigen.grid), noise, SolverConfig(epsilon=1e-2))
        y = np.array(traj.y_fields)
        y[0, 0] = -0.0
        traj = replace(traj, y_fields=y)
        logdiff.cli._dump_trajectory(traj, str(tmp_path), 0)
        # the rows as csv.writer wrote them through _fmt, value by value
        x = traj.x_fields
        tables = {
            "trajectory_0000.csv": (["step", "time", "node", "y", "x"], [
                (n, traj.times[n], j + 1, traj.y_fields[n, j], x[n, j])
                for n in range(traj.n_steps + 1) for j in range(traj.grid.n_interior)]),
            "diagnostics_0000.csv": (["step", "newton_iters", "newton_residual", "substeps"],
                                     list(zip(range(traj.n_steps), traj.newton_iters,
                                              traj.newton_residuals, traj.substeps))),
        }
        for name, (header, rows) in tables.items():
            with open(tmp_path / f"old_{name}", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([logdiff.cli._fmt(v) for v in row])
            assert (tmp_path / name).read_bytes() == (tmp_path / f"old_{name}").read_bytes()
        assert b"\r\n0,0.0,1,-0.0,0.0\r\n" in (tmp_path / "trajectory_0000.csv").read_bytes()

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.cfg", "[grid]\nwhat = 1\n")
        assert main(["simulate", "--config", bad]) == 2
        # [DEFAULT] keys would otherwise be ignored or copied into every section
        for text in ("[DEFAULT]\nseed = 3\n", "[DEFAULT]\nlength = 2\n[grid]\nn_interior = 31\n"):
            capsys.readouterr()
            assert main(["simulate", "--config", write(tmp_path / "d.cfg", text)]) == 2
            assert "unknown section [DEFAULT]" in capsys.readouterr().err
        assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 2
        # unreadable inputs: a directory, a file that is not UTF-8, bad datum rows
        assert main(["simulate", "--config", str(tmp_path)]) == 2
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"# caf\xe9\n[grid]\nn_interior = 31\n")
        assert main(["simulate", "--config", str(latin1)]) == 2
        short = write(tmp_path / "short.csv", "node,value\n1\n")
        infinite = write(tmp_path / "inf.csv", "node,value\n1,inf\n")
        for datum in (short, infinite, str(tmp_path)):
            cfg = write(tmp_path / "c.cfg", f"[initial]\nprofile = file\npath = {datum}\n")
            assert main(["simulate", "--config", cfg]) == 2
        # path seeds seed + i past 2^64 - 1 are rejected before any path is solved
        top = f"[grid]\nn_interior = 15\n[noise]\nseed = {2**64 - 1}\nn_paths = 2\n"
        top_cfg = write(tmp_path / "top.cfg", top)
        one_cfg = write(tmp_path / "one.cfg", top.replace("n_paths = 2", "n_paths = 1"))
        out = tmp_path / "top_out"
        for argv in (["simulate", "--config", top_cfg], ["verify", "--config", top_cfg],
                     ["noise-check", "--config", top_cfg],
                     ["simulate", "--config", one_cfg, "--paths", "2"]):
            capsys.readouterr()
            assert main(argv + ["--out", str(out)]) == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()
        # verify reads paths seed + i only for mean_square; variational solves the seed alone
        variational = write(tmp_path / "var.cfg", top + "[verify]\nchecks = variational\n")
        assert main(["verify", "--config", variational, "--out", str(tmp_path / "var")]) == 0
        # a time grid of t_final / dt steps needs a positive dt that divides t_final finitely
        for solver in ("dt = 0", "dt = -1e-3", "dt = 1e-300\nt_final = 1e300",
                       "dt = 3e-4\nt_final = 0.1", "t_final = 0"):
            capsys.readouterr()
            cfg = write(tmp_path / "dt.cfg", f"[solver]\n{solver}\n")
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("config error: [solver] dt")
            assert not out.exists()
        # a grid length outside the float range, or a datum that overflows, is a config error
        for text in ("[grid]\nlength = 1e-200\nn_interior = 31\n",
                     "[grid]\nlength = 1e200\nn_interior = 31\n",
                     "[initial]\nprofile = mode\namplitude = 1.5e308\n"):
            capsys.readouterr()
            cfg = write(tmp_path / "range.cfg", text)
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("config error: ")
            assert not out.exists()
        # the last seed itself is fine: noise-check's one path at --paths 0 runs
        assert main(["noise-check", "--config", top_cfg, "--out", str(out), "--paths", "0"]) == 0

    def test_solver_failure_exit_3(self, tmp_path, capsys):
        # one Newton iteration cannot reach a tolerance far below the rounding floor
        text = "[solver]\nnewton_max_iter = 1\nnewton_tol = 1e-300\ndt = 1e-3\nt_final = 0.01\n"
        cfg = write(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "1"]) == 3
        assert "solver failure: step 0 failed: Newton did not reach tol" in capsys.readouterr().err

    def test_eps_whose_step_overflows_is_a_config_error(self, tmp_path, capsys):
        # on 31 nodes at dt = 1e-3 the Newton matrix's largest entry, 4 (dt/h^2)(1 + eps +
        # eps^2), overflows at eps = 1e200 and not at 1e150, which solves
        out = tmp_path / "out"
        for key, text, command in (
                ("[solver] epsilon", "[solver]\nepsilon = 1e200\n", "simulate"),
                ("[solver] epsilon_list", "[solver]\nepsilon_list = 1e200, 1e-2\n", "sweep-eps"),
                ("[verify] diag_epsilons", "[verify]\ndiag_epsilons = 1e200, 1e-2\n", "verify")):
            cfg = write(tmp_path / "eps.cfg", "[grid]\nn_interior = 31\n" + text)
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(
                f"config error: {key}: eps = 1e+200 puts the implicit step outside the float range")
            assert not out.exists()
        cfg = write(tmp_path / "ok.cfg",
                    "[grid]\nn_interior = 31\n[solver]\nepsilon = 1e150\nt_final = 0.01\n")
        assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_eps_that_is_not_positive_is_a_config_error(self, tmp_path, capsys):
        # the solver's one rule for a solve's eps, applied to each key that holds an eps
        out = tmp_path / "out"
        for key, text, command, value in (
                ("[solver] epsilon", "[solver]\nepsilon = 0\n", "simulate", "0.0"),
                ("[solver] epsilon_list", "[solver]\nepsilon_list = 1e-2, -1e-2\n", "sweep-eps",
                 "-0.01"),
                ("[verify] diag_epsilons", "[verify]\ndiag_epsilons = 1e-1, -1e-2\n", "verify",
                 "-0.01")):
            cfg = write(tmp_path / "eps.cfg", "[grid]\nn_interior = 31\n" + text)
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config error: {key}: eps must be positive and finite, got {value}\n")
            assert not out.exists()

    def test_failed_tridiagonal_solve_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("logdiff.solver.dptsv", lambda d, e, b: (d, e, b, 1))
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "1"]) == 3
        assert "step 0 failed: tridiagonal solve failed" in capsys.readouterr().err

    def test_overflowed_residual_exit_3(self, tmp_path, capsys):
        # the residual itself overflows to inf, and so do its norm and rounding floor; neither
        # counts as converged.  The CLI prints no numpy warning (pytest makes one an error)
        text = ("[grid]\nn_interior = 31\n[initial]\nprofile = mode\nmode_k = 31\n"
                "amplitude = 1e308\n[solver]\nt_final = 0.005\n")
        cfg = write(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "1"]) == 3
        assert capsys.readouterr().err.startswith("solver failure: step 0 failed")
        assert not (out / "summary.csv").exists()

    def test_bump_of_amplitude_1e300_solves(self, tmp_path, monkeypatch, capsys):
        # every value is finite, so the norms are too: they scale by max |v| where the plain
        # sum of squares overflows, and numpy's overflow warnings stay off stderr.  The
        # stacked Newton solution's z @ z overflows too, which alone must not send the
        # batch's rows to one dptsv call each
        calls = []
        dptsv = logdiff.solver.dptsv
        monkeypatch.setattr("logdiff.solver.dptsv", lambda d, e, b, **overwrite:
                            calls.append(d.size) or dptsv(d, e, b, **overwrite))
        text = ("[grid]\nn_interior = 31\n[initial]\nprofile = bump\namplitude = 1e300\n"
                "[solver]\nt_final = 0.005\n")
        cfg = write(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "3"]) == 0
        assert capsys.readouterr().err == ""
        assert calls and set(calls) == {3 * (31 + 1)}
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            assert all(np.isfinite(float(v)) for v in row.values())
            assert 1e299 < float(row["x_l2_final"]) < 1e300

    def test_inadmissible_test_process_is_a_check_failure(self, tmp_path, capsys):
        # a 1e300 bump's test process has a finite sup-t L^2 norm (near 1.7e299, summed
        # scaled), but the integral of |Z'|_-1^2 overflows: the variational check fails
        # with one line on stderr, naming that clause, and no traceback
        cfg = write(tmp_path / "c.cfg", SMOKE.read_text()
                    + "\n[initial]\nprofile = bump\namplitude = 1e300\n")
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "sup_l2" not in captured.err
        assert captured.err == ("check failure: test process rejected: "
                                "clause deriv_hminus1_sq_integral is not finite\n")
        assert captured.out == ""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["simulate", "sweep-eps", "verify", "noise-check"])
    def test_overflowing_noise_is_a_check_failure(self, tmp_path, monkeypatch, capsys,
                                                  command, workers):
        # gamma_1 * beta_1 overflows on the first path; one row per batch sends simulate's
        # and verify's rows through the process pool at two workers
        monkeypatch.setattr("logdiff.solver._BATCH_VALUES", 401 * 31)
        cfg = write(tmp_path / "c.cfg", "[grid]\nn_interior = 31\n[noise]\ngamma0 = 1e308\n"
                    "n_paths = 30\n[solver]\ndt = 1e-2\nt_final = 4\n"
                    f"[output]\nworkers = {workers}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "check failure: noise values must be finite\n"

    def test_overflow_in_a_streamed_sup_is_a_check_failure(self, tmp_path, capsys):
        # seed 2's path is finite and is stored; seed 3's, streamed for its sup norm, is not
        cfg = write(tmp_path / "c.cfg", "[grid]\nn_interior = 31\n[noise]\ngamma0 = 1e308\n"
                    "seed = 2\n[solver]\ndt = 1e-2\nt_final = 1\n")
        one, two = tmp_path / "one", tmp_path / "two"
        main(["noise-check", "--config", cfg, "--out", str(one), "--paths", "1"])
        assert (one / "noise_sup.csv").read_bytes().startswith(b"path,seed,sup_norm\r\n0,2,1.3")
        capsys.readouterr()
        assert main(["noise-check", "--config", cfg, "--out", str(two), "--paths", "2"]) == 1
        assert capsys.readouterr().err == "check failure: noise values must be finite\n"
        assert not (two / "noise_sup.csv").exists()

    @pytest.mark.parametrize("command, out_line, err_line", [
        ("simulate", "simulate: 30 path(s)", None),
        ("sweep-eps", None, "solver failure: step 0 failed"),
        ("verify", None, "solver failure: step 0 failed"),
        ("noise-check", None, "noise-check: step 0 -> 1 oscillates"),
    ], ids=["simulate", "sweep-eps", "verify", "noise-check"])
    def test_huge_amplitudes_print_no_numpy_warnings(self, tmp_path, capsys, command, out_line,
                                                     err_line):
        # the decay check's sums of squares overflow at gamma0 = 1e200; the command's own
        # line is all it prints
        cfg = write(tmp_path / "c.cfg",
                    SMOKE.read_text().replace("[noise]\n", "[noise]\ngamma0 = 1e200\n"))
        main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        for text, line in ((captured.out, out_line), (captured.err, err_line)):
            assert len(text.splitlines()) == (line is not None)
            assert line is None or text.startswith(line)

    def test_failed_decay_check_exit_1(self, tmp_path, capsys):
        text = "[grid]\nn_interior = 31\n[noise]\ngamma_decay = 4.0\n"
        cfg = write(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        # decided before the output directory is made, naming the config key that overrides it
        for command in ("simulate", "sweep-eps", "verify"):
            capsys.readouterr()
            assert main([command, "--config", cfg, "--out", str(out)]) == 1
            assert "[noise] override_decay_check" in capsys.readouterr().err
            assert not out.exists()
        override = write(tmp_path / "o.cfg", text + "override_decay_check = true\n")
        assert main(["simulate", "--config", override, "--out", str(out), "--paths", "1"]) == 0

    def test_value_error_inside_a_command_propagates(self, tmp_path, monkeypatch):
        # a ValueError there is a bug, not a failed check; LinAlgError is a ValueError
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr("logdiff.solver.dptsv", singular)
        cfg = write(tmp_path / "c.cfg", BASE)
        with pytest.raises(np.linalg.LinAlgError):
            main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--paths", "1"])


class TestCliOther:
    def test_sweep_eps(self, tmp_path):
        text = BASE + "\n[solver]\nepsilon_list = 1e-1, 1e-2, 1e-3\n"
        # configparser forbids duplicate sections; merge by hand
        text = BASE.replace(
            "t_final = 0.1", "t_final = 0.1\nepsilon_list = 1e-1, 1e-2, 1e-3"
        )
        cfg = write(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert main(["sweep-eps", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "sweep_consecutive.csv").exists()
        assert (out / "sweep_pairwise.csv").exists()
        assert "monotone_decreasing" in (out / "sweep_summary.txt").read_text()

    def test_verify_passes(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--paths", "30"]) == 0
        for name in (
            "mean_square_bound", "flux_l1", "total_variation",
            "hminus1_sup", "variational_inequality",
        ):
            assert (out / f"report_{name}.csv").exists(), name
        assert "overall: PASS" in (out / "verify_summary.txt").read_text()

    def test_verify_too_few_paths_exit_2_before_solving(self, tmp_path, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_path ran")

        monkeypatch.setattr("logdiff.cli.solve_path", no_solve)
        monkeypatch.setattr("logdiff.solver.solve_path", no_solve)
        monkeypatch.setattr("logdiff.solver._solve_batch", no_solve)
        cfg = write(tmp_path / "c.cfg", BASE)
        one_eps = write(tmp_path / "one_eps.cfg",
                        BASE.replace("t_final = 0.1", "t_final = 0.1\nepsilon_list = 1e-2"))
        out = tmp_path / "out"
        # both are config errors found before the output directory is made
        assert main(["verify", "--config", cfg, "--out", str(out), "--paths", "5"]) == 2
        assert not out.exists()
        assert main(["sweep-eps", "--config", one_eps, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep-eps", "--paths", "3"],
        ["sweep-eps", "--dump-trajectories"],
        ["verify", "--dump-trajectories"],
        ["noise-check", "--dump-trajectories"],
    ])
    def test_each_subcommand_takes_only_its_flags(self, tmp_path, capsys, argv):
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", cfg, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_solves_each_base_path_eps_once(self, tmp_path, monkeypatch):
        solve_batch = logdiff.solver._solve_batch
        solved, batches = [], []

        def spy(x0, config, rows):
            batches.append(len(rows))
            solved.extend((path.spec.seed, eps) for path, eps in rows)
            return solve_batch(x0, config, rows)

        # every (seed, eps) row verify solves goes through one batch core
        monkeypatch.setattr("logdiff.solver._solve_batch", spy)

        def verify(name, text):
            cfg = write(tmp_path / f"{name}.cfg", text)
            out = tmp_path / name
            solved.clear()
            batches.clear()
            assert main(["verify", "--config", cfg, "--out", str(out), "--paths", "30"]) == 0
            assert len(set(solved)) == len(solved)  # each row once
            return {p.name: p.read_bytes() for p in out.iterdir()}, list(solved)

        def alone(name, block, diag):
            # each check run alone solves for itself, as every check did before sharing;
            # the files all checks at once must write: its reports and the summaries joined
            # in CHECK_NAMES order, which is the order verify writes its reports in
            files, summaries = {}, []
            for check in CHECK_NAMES:
                check_files, solves = verify(f"{name}_{check}",
                                             BASE + f"\n[verify]\n{block}checks = {check}\n")
                assert solves == {"mean_square": [(42 + i, 1e-2) for i in range(30)],
                                  "variational": [(42, 1e-2)]}.get(check, [(42, e) for e in diag])
                summary = check_files.pop("verify_summary.txt").decode()
                summaries.append(summary.removesuffix("\n\noverall: PASS\n"))
                files.update(check_files)
            files["verify_summary.txt"] = ("\n\n".join(summaries) + "\n\noverall: PASS\n").encode()
            return files

        # the base row (42, 1e-2) is ensemble path 0, one of the diag eps and the
        # variational check's trajectory, and it is solved once; all rows form one batch
        everything, solves = verify("all", BASE)
        assert solves == [(42 + i, 1e-2) for i in range(30)] + [(42, 1e-1), (42, 1e-3), (42, 1e-4)]
        assert batches == [33]
        assert everything == alone("all", "", [1e-1, 1e-2, 1e-3, 1e-4])
        # a repeated diag eps is one row, solved once and read twice
        repeated = "diag_epsilons = 1e-1, 1e-3, 1e-3\n"
        with_repeat, solves = verify("repeated", BASE + f"\n[verify]\n{repeated}")
        assert solves == [(42 + i, 1e-2) for i in range(30)] + [(42, 1e-1), (42, 1e-3)]
        assert with_repeat == alone("repeated", repeated, [1e-1, 1e-3])
        # only the selected diagnostics are computed; the CLI looks each one up by its name
        calls = []

        def spy(name):
            value = getattr(logdiff.cli, name)
            monkeypatch.setattr(logdiff.cli, name, lambda traj: calls.append(name) or value(traj))

        for name in ("flux_l1_integral", "total_variation", "hminus1_sup"):
            spy(name)
        verify("flux_only", BASE + "\n[verify]\nchecks = flux_l1\n")
        assert calls == ["flux_l1_integral"] * 4
        # each diagnostic is computed once per solved row, not once per diag eps entry
        calls.clear()
        files, _ = verify("flux_repeated", BASE + f"\n[verify]\nchecks = flux_l1\n{repeated}")
        assert calls == ["flux_l1_integral"] * 2
        assert files["report_flux_l1.csv"] == with_repeat["report_flux_l1.csv"]
        # a configured eps outside the diag list gets a solve of its own
        off_list = BASE.replace("epsilon = 1e-2", "epsilon = 5e-3")
        for i, (checks, expected) in enumerate((
                ("variational", [5e-3]),
                ("flux_l1, variational", [1e-1, 1e-2, 1e-3, 1e-4, 5e-3]))):
            _, solves = verify(f"off{i}", off_list + f"\n[verify]\nchecks = {checks}\n")
            assert solves == [(42, e) for e in expected]

    def test_cli_keeps_every_name_the_benchmark_traces(self):
        # the traced benchmark wraps these names where logdiff.cli looks them up
        child = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "child.py"),
                               run_name="bench_child")
        names = [attr for sites in child["WRAPS"].values()
                 for module, attr, _ in sites if module == "logdiff.cli"]
        assert "solve_path" in names
        assert [name for name in names if not hasattr(logdiff.cli, name)] == []

    def test_benchmark_counters_read_the_records(self):
        # the traced benchmark counts what synthesize and solve_path return; a counter
        # that reads a removed attribute would raise inside a traced round
        child = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "child.py"),
                               run_name="bench_child")
        eigen = eigensystem(GridSpec(1.0, 15), 8)
        spec = NoiseSpec(k_max=8, gammas=PowerLawGammas(1.0, 8.0), seed=1,
                         t_final=0.01, n_steps=5)
        path = synthesize(spec, eigen)
        traj = solve_path(Field.zeros(eigen.grid), path, SolverConfig(epsilon=1e-2))
        results = {"synthesize": path, "solve_path": traj}
        counts = [count(results[attr]) for sites in child["WRAPS"].values()
                  for _, attr, count in sites if attr in results]
        iters = int(traj.newton_iters.sum())
        assert counts == [{"values": 6 * 15}] * 2 + [
            {"steps": 5, "newton_iters": iters, "substeps": 5, "bytes": 2 * 6 * 15 * 8}] * 2

    def test_noise_check_passes(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--paths", "3", "--out", str(out)]) == 0
        assert (out / "decay_report.csv").exists()
        with open(out / "noise_sup.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert (out / "noise_partition.csv").exists()

    @pytest.mark.parametrize("paths, rows", [(None, 30), (0, 1), (1, 1)])
    def test_noise_check_stores_only_the_first_path(self, tmp_path, monkeypatch, paths, rows):
        # the partition reads the first path; every other sup norm is streamed, not stored
        seeds = []
        real = logdiff.cli.synthesize
        monkeypatch.setattr("logdiff.cli.synthesize",
                            lambda spec, *args, **kwargs: seeds.append(spec.seed)
                            or real(spec, *args, **kwargs))
        out = tmp_path / "out"
        argv = ["noise-check", "--config", str(SMOKE), "--out", str(out)]
        assert main(argv + ([] if paths is None else ["--paths", str(paths)])) == 0
        assert seeds == [7]
        with open(out / "noise_sup.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert [row[:2] for row in table[1:]] == [[str(i), str(7 + i)] for i in range(rows)]

    @pytest.mark.parametrize("name, row", [
        ("smoke.cfg", b"8,97.27654389152015,1450.4305707055203,11.0,1.0,true"),
        ("zero_noise.cfg", b"1,0.0,0.0,,,true"),  # no power rule: empty margins
    ])
    def test_decay_report_bytes(self, tmp_path, name, row):
        out = tmp_path / "out"
        assert main(["noise-check", "--config", str(CONFIGS / name), "--out", str(out)]) == 0
        assert (out / "decay_report.csv").read_bytes() == (
            b"k_max,sum_gamma_sq_lambda_sq,sum_gamma_lambda_cubed,margin_square_sum,"
            b"margin_linear_sum,ok\r\n" + row + b"\r\n")

    def test_noise_check_decay_failure_exit_1(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "[noise]\ngamma_decay = 4.0\n")
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == 1
        assert (out / "decay_report.csv").exists()

    def test_noise_check_fails_the_decay_check_despite_the_override(self, tmp_path):
        # the override lets the other commands solve; noise-check still reports the check,
        # so it reaches its sup norms only with decay > 7 or zero amplitudes
        cfg = write(tmp_path / "c.cfg", "[noise]\ngamma_decay = 4.0\noverride_decay_check = true\n")
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["decay_report.csv"]

    @pytest.mark.parametrize("command", ["noise-check", "simulate", "sweep-eps", "verify"])
    def test_eigensystem_and_decay_check_run_once(self, tmp_path, monkeypatch, command):
        calls = []

        def spy_on(target):
            module, name = target.rsplit(".", 1)
            real = getattr(sys.modules[module], name)

            def spy(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(target, spy)

        # main judges the decay check; synthesize and solve_rows would judge it again
        spy_on("logdiff.cli.validate_decay")
        spy_on("logdiff.noise.validate_decay")
        spy_on("logdiff.config.eigensystem")
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        # sweep-eps takes no --paths, and verify's mean_square check needs 30 paths
        paths = {"sweep-eps": [], "verify": ["--paths", "30"]}.get(command, ["--paths", "3"])
        assert main([command, "--config", cfg, "--out", str(out)] + paths) == 0
        assert sorted(calls) == ["eigensystem", "validate_decay"]

    def test_version_string(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "logdiff 0.1.0 (config schema 1)"

    def test_cli_import_leaves_out_scipy_integrate_and_optimize(self):
        # every command pays for what logdiff.cli imports; scipy.integrate and scipy.optimize
        # cost about 20 MB, and scipy.linalg's init loads numpy.f2py (~260 ms in all).  The
        # LAPACK loader falls back on scipy.linalg, so its absence shows the fast path in use
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, logdiff.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg', "
                "'scipy.special', 'numpy.f2py') if m in sys.modules))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "[]"

    def test_simulate_judges_the_decay_check_once(self, tmp_path, monkeypatch):
        # cli.main judges the spec through its own import; the ensemble judges it once more
        calls = []
        validate_decay = logdiff.noise.validate_decay
        monkeypatch.setattr("logdiff.noise.validate_decay",
                            lambda *args: calls.append(1) or validate_decay(*args))
        assert main(["simulate", "--config", str(SMOKE), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) <= 1

    def test_noise_check_judges_the_decay_check_once(self, tmp_path, monkeypatch):
        # cli.main judges the spec through its own import; the paths are not judged again
        calls = []
        validate_decay = logdiff.noise.validate_decay
        monkeypatch.setattr("logdiff.noise.validate_decay",
                            lambda *args: calls.append(1) or validate_decay(*args))
        assert main(["noise-check", "--config", str(SMOKE), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) <= 1

    def test_block_size_does_not_change_noise_check_bytes(self, tmp_path, monkeypatch):
        first = {}
        # smoke.cfg has 31 nodes and 51 time rows: a streamed sup norm sums blocks of, and
        # the continuity windows hold, at most 1, 1, 7 and 1057 rows; a stored path is one sum
        for block_values in (1, 31, 7 * 31, logdiff.noise._BLOCK_VALUES):
            monkeypatch.setattr("logdiff.noise._BLOCK_VALUES", block_values)
            for command, files in (["noise-check"], 3), (["simulate", "--dump-trajectories"], 61):
                out = tmp_path / f"{command[0]}{block_values}"
                assert main([*command, "--config", str(SMOKE), "--out", str(out)]) == 0
                outputs = {p.name: p.read_bytes() for p in out.iterdir()}
                assert len(outputs) == files
                first.setdefault(command[0], outputs)
                assert outputs == first[command[0]]

    @pytest.mark.parametrize("command, loads", [
        ("simulate", False), ("sweep-eps", False), ("noise-check", False), ("verify", False),
    ])
    def test_scipy_special_loads_only_for_the_resolvent(self, tmp_path, command, loads):
        # the resolvent, which verify's flux_l1 check evaluates, is a Newton iteration in
        # numpy, so no command loads scipy.special, nor scipy.linalg and numpy.f2py
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, logdiff.cli; "
                f"code = logdiff.cli.main([{command!r}, '--config', {str(SMOKE)!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]); "
                "print(code, 'scipy.special' in sys.modules, "
                "[m for m in ('scipy.linalg', 'numpy.f2py') if m in sys.modules])")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.splitlines()[-1].split(maxsplit=2) == ["0", str(loads), "[]"]
