"""Config parsing and the command line driver."""

import csv
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from logdiff.cli import main
from logdiff.config import ConfigError, ExperimentConfig, parse_config
from logdiff.grid import GridSpec, eigensystem


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
    ("solver", "scheme", "explicit", "explicit"),
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
        default = Path(__file__).parents[1] / "scripts" / "configs" / "default.cfg"
        assert parse_config(str(default)) == parse_config(write(tmp_path / "c.cfg", ""))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write(tmp_path / "c.cfg", "[blah]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write(tmp_path / "c.cfg", "[grid]\nspacing = 0.1\n"))

    def test_bad_value(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path / "c.cfg", "[grid]\nn_interior = tiny\n"))

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
        grid = cfg.grid_spec()
        assert grid.n_interior == 31
        spec = cfg.noise_spec()
        assert spec.n_steps == 50
        assert spec.t_final == 0.1
        solver = cfg.solver_config()
        assert solver.epsilon == 1e-2
        assert solver.n_steps == 50
        override = cfg.solver_config(epsilon=1e-3, scheme="explicit")
        assert override.epsilon == 1e-3
        assert override.scheme == "explicit"


class TestInitialProfiles:
    def test_zero(self, tmp_path):
        cfg = parse_config(write(tmp_path / "c.cfg", "[initial]\nprofile = zero\n"))
        g = GridSpec(length=1.0, n_interior=15)
        assert np.all(cfg.initial_datum(g).values == 0.0)

    def test_bump(self, tmp_path):
        text = "[initial]\nprofile = bump\namplitude = 2.0\n"
        cfg = parse_config(write(tmp_path / "c.cfg", text))
        g = GridSpec(length=1.0, n_interior=15)
        datum = cfg.initial_datum(g)
        xi = g.nodes
        assert np.allclose(datum.values, 2.0 * xi * (1.0 - xi))

    def test_mode(self, tmp_path):
        text = "[initial]\nprofile = mode\nmode_k = 3\namplitude = 0.5\n"
        cfg = parse_config(write(tmp_path / "c.cfg", text))
        g = GridSpec(length=1.0, n_interior=15)
        es = eigensystem(g, 8)
        datum = cfg.initial_datum(g, es)
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
        g = cfg.grid_spec()
        assert np.allclose(cfg.initial_datum(g).values, [0.1, 0.2, 0.3, 0.4, 0.5])

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

    def test_workers_do_not_change_bytes(self, tmp_path):
        for args in (["simulate", "--paths", "4", "--dump-trajectories"],
                     ["verify", "--paths", "30"]):
            outputs = []
            for workers in (1, 2):
                cfg = write(tmp_path / f"c{workers}.cfg",
                            BASE + f"\n[output]\nworkers = {workers}\n")
                out = tmp_path / f"{args[0]}{workers}"
                assert main([args[0], "--config", cfg, "--out", str(out)] + args[1:]) == 0
                outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert len(outputs[0]) > 1
            assert outputs[0] == outputs[1]

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
        # the last seed itself is fine: noise-check's one path at --paths 0 runs
        assert main(["noise-check", "--config", top_cfg, "--out", str(out), "--paths", "0"]) == 0

    def test_solver_failure_exit_3(self, tmp_path):
        text = "[solver]\nscheme = explicit\ndt = 1e-3\nt_final = 0.01\n"
        cfg = write(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "1"]) == 3

    def test_failed_decay_check_exit_1(self, tmp_path):
        text = "[noise]\ngamma_decay = 4.0\n"
        cfg = write(tmp_path / "c.cfg", text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--paths", "1"]) == 1


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
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out), "--paths", "5"]) == 2

    def test_noise_check_passes(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", BASE)
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--paths", "3", "--out", str(out)]) == 0
        assert (out / "decay_report.csv").exists()
        with open(out / "noise_sup.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert (out / "noise_partition.csv").exists()

    def test_noise_check_decay_failure_exit_1(self, tmp_path):
        cfg = write(tmp_path / "c.cfg", "[noise]\ngamma_decay = 4.0\n")
        out = tmp_path / "out"
        assert main(["noise-check", "--config", cfg, "--out", str(out)]) == 1
        assert (out / "decay_report.csv").exists()

    def test_version_string(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == "logdiff 0.1.0 (config schema 1)"

    def test_cli_import_leaves_out_scipy_integrate_and_optimize(self):
        # every command pays for what logdiff.cli imports; these two cost about 20 MB
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys, logdiff.cli; "
                "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "[]"
