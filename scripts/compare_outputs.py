"""Compare this checkout's CLI output with another checkout's, run for run.

    python3 scripts/compare_outputs.py PARENT_CHECKOUT

Both checkouts make the same 108 runs: simulate, simulate --paths 2
--dump-trajectories, sweep-eps, verify, noise-check and noise-check
--paths 0 (its one-path edge case), on every scripts/configs/*.cfg
(each checkout its own file), on the four benchmark workload configs
at seed 1 (written by bench/workloads.py of this checkout) and on
SHALLOW, defined here, each at [output] workers 1 and 2.  Every run is
a fresh interpreter with one BLAS thread and the checkout's src on
PYTHONPATH.
A run matches when its exit code, stdout, stderr (with the run's own
paths replaced by placeholders) and the bytes of every output file are
equal.  Prints one line per differing run and exits 1 on any difference.
A differing CSV file of unchanged shape is listed with the largest
relative difference |x - y| / max(|x|, |y|) over its numeric cells.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
COMMANDS = (["simulate"], ["simulate", "--paths", "2", "--dump-trajectories"], ["sweep-eps"],
            ["verify"], ["noise-check"], ["noise-check", "--paths", "0"])
WORKERS = (1, 2)
# the shallowest spectrum noise-check admits (decay just above 7) on every mode of 31 nodes,
# where the streamed sup norms' row bounds leave the most time rows to sum
SHALLOW = {"grid": {"n_interior": "31"},
           "noise": {"k_max": "31", "gamma_decay": "7.01", "n_paths": "30"},
           "solver": {"dt": "1e-3", "t_final": "1.0"}}


def workload_configs() -> dict[str, dict]:
    """The benchmark workloads' config sections at seed 1, from bench/workloads.py."""
    sys.dont_write_bytecode = True  # import bench/ without writing into it
    sys.path.insert(0, str(HERE / "bench"))
    import workloads

    return {f"bench_{name}": workloads.make_config(name, 1) for name in workloads.WORKLOADS}


def config_text(sections: dict[str, dict], workers: int) -> str:
    sections = {name: dict(keys) for name, keys in sections.items()}
    sections.setdefault("output", {})["workers"] = str(workers)
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())


def file_sections(path: Path) -> dict[str, dict]:
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.read_string(path.read_text())
    return {name: dict(parser[name]) for name in parser.sections()}


def start(root: Path, sections: dict, workers: int, command: list[str], tmp: Path):
    """Write the run's config under tmp and start the CLI of the checkout at root."""
    tmp.mkdir(parents=True)
    cfg, out = tmp / "run.cfg", tmp / "out"
    cfg.write_text(config_text(sections, workers))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-m", "logdiff.cli", *command, "--config", str(cfg), "--out", str(out)]
    proc = subprocess.Popen(argv, cwd=tmp, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    return proc, root, tmp


def finish(run) -> tuple:
    """(exit code, stdout, stderr, {file name: bytes}) with the run's paths normalised."""
    proc, root, tmp = run
    stdout, stderr = proc.communicate()

    def normalise(text: bytes) -> bytes:
        return text.replace(str(tmp).encode(), b"<run>").replace(str(root).encode(), b"<checkout>")

    out = tmp / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, normalise(stdout), normalise(stderr), files


def largest_relative_difference(a: bytes, b: bytes) -> float | None:
    """Over the numeric cells of two CSV files of one shape; None if the shapes differ."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(text.decode()))) for text in (a, b))
    if [len(row) for row in rows_a] != [len(row) for row in rows_b]:
        return None
    largest = 0.0
    for x, y in zip((c for row in rows_a for c in row), (c for row in rows_b for c in row)):
        if x == y:
            continue
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            continue
        if not (math.isfinite(fx) and math.isfinite(fy)):
            return math.inf
        largest = max(largest, abs(fx - fy) / max(abs(fx), abs(fy)))
    return largest


def differences(a: tuple, b: tuple) -> list[str]:
    names = ("exit code", "stdout", "stderr")
    found = [name for name, x, y in zip(names, a, b) if x != y]
    files_a, files_b = a[3], b[3]
    if files_a.keys() != files_b.keys():
        found.append(f"file names {sorted(files_a.keys() ^ files_b.keys())}")
    for name in sorted(files_a.keys() & files_b.keys()):
        if files_a[name] != files_b[name]:
            largest = (largest_relative_difference(files_a[name], files_b[name])
                       if name.endswith(".csv") else None)
            found.append(name if largest is None else f"{name} (largest relative {largest:.2e})")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    names = [path.name for path in sorted((HERE / "scripts" / "configs").glob("*.cfg"))]
    workloads = workload_configs()
    sides = {root: {**{name: file_sections(root / "scripts" / "configs" / name) for name in names},
                    **workloads, "shallow_decay": SHALLOW}
             for root in (HERE, other)}
    runs = differing = n_files = 0
    with tempfile.TemporaryDirectory() as scratch:
        for config in sides[HERE]:
            for command in COMMANDS:
                for workers in WORKERS:
                    label = f"{' '.join(command)} {config} workers={workers}"
                    tmp = Path(scratch) / str(runs)
                    # both sides run at once, each in its own process
                    started = [start(root, sides[root][config], workers, command, tmp / side)
                               for side, root in (("this", HERE), ("other", other))]
                    mine, theirs = (finish(run) for run in started)
                    runs += 1
                    n_files += len(mine[3])
                    found = differences(mine, theirs)
                    if found:
                        differing += 1
                        print(f"DIFFERS {label}: {', '.join(found)}")
    print(f"{runs} runs, {n_files} output files: {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
