"""logdiff benchmark: one workload, timed through fresh `logdiff` processes.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds src/logdiff.  The run writes the
workload's config from the seed, then starts one fresh interpreter per round
(bench/child.py) running the workload's `logdiff` subcommand, until the next
round would pass --seconds (at least MIN_ROUNDS rounds).  Every round gets
the same input, so the first round's output is checked against the
reference and every other round must write the same bytes.

--trace 0 reports the end-to-end metrics over the rounds: wall_s is the
mean, setup_s and peak_rss_mb the medians.  --trace 1 runs the
first round traced and the rest untraced, and reports the per-layer metrics
of the traced round.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Run outputs go to bench/runs/<workload>-seed<seed>-trace<0|1>/.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# one process and one BLAS/OpenMP thread: the load comes from a single core
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# other tenants of the machine slow rounds down and let go again within a run;
# the mean of wall_s varied least from run to run (README)
FOLD = {"setup_s": statistics.median, "wall_s": statistics.fmean,
        "peak_rss_mb": statistics.median}
LAYER_UNITS = {
    "config.parse_s": "s",
    "noise.synthesize_s": "s",
    "noise.synthesize_calls": "count",
    "noise.synthesize_ns_per_value": "ns",
    "noise.continuity_s": "s",
    "solver.solve_s": "s",
    "solver.solve_calls": "count",
    "solver.steps": "count",
    "solver.step_us": "us",
    "solver.newton_iters_per_step": "count",
    "solver.newton_iter_us": "us",
    "solver.retry_substeps": "count",
    "solver.banded_solves_per_step": "count",
    "solver.banded_solve_s": "s",
    "solver.sweep_distance_s": "s",
    "solver.trajectory_mb": "MB",
    "nonlinearity.resolvent_calls_per_step": "count",
    "nonlinearity.resolvent_s": "s",
    "nonlinearity.resolvent_ns_per_value": "ns",
    "grid.hminus1_s": "s",
    "grid.hminus1_rows": "count",
    "verifier.mean_square_s": "s",
    "verifier.variational_s": "s",
    "verifier.diagnostics_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.other_s": "s",
    "trace.overhead_s": "s",
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREADS,
    }


def run_round(run_dir: Path, index: int, argv: list[str], trace: bool) -> dict:
    """One fresh `logdiff` process; returns its timings, or failed = True."""
    out = run_dir / f"out{index}"
    record_path = run_dir / f"record{index}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREADS)
    cmd = [sys.executable, str(BENCH / "child.py"), str(record_path), str(int(trace)), "--",
           *argv, "--out", str(out)]
    with open(run_dir / f"log{index}.txt", "w") as log:
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                                  timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"index": index, "out": str(out), "failed": True, "why": "timeout"}
    if proc.returncode != 0 or not record_path.exists():
        return {"index": index, "out": str(out), "failed": True, "why": f"exit {proc.returncode}"}
    record = json.loads(record_path.read_text())
    record_path.unlink()
    if Path(record["logdiff_file"]).resolve().parent != (ROOT / "src" / "logdiff").resolve():
        raise SystemExit(f"logdiff was imported from {record['logdiff_file']}, not from src/")
    return {
        "index": index,
        "out": str(out),
        "traced": trace,
        "failed": record["exit_code"] != 0,
        "why": f"logdiff exit {record['exit_code']}",
        "setup_s": record["ready"] - launched,
        "wall_s": record["done"] - record["ready"],
        "peak_rss_mb": record["maxrss_kb"] / 1024.0,
        "spans": record.get("spans"),
        "absent": record.get("absent"),
    }


def layer_metrics(spans: list, bytes_written: int, overhead_s: float) -> dict:
    """Per-layer metrics from one traced round; self time = span minus its children."""
    child_s = [0.0] * len(spans)
    solve_child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
            if name == "solver.solve":
                solve_child_s[parent] += end - start
    total, own, calls, counts = defaultdict(float), defaultdict(float), Counter(), defaultdict(Counter)
    sweep_distance_s = 0.0
    for i, (name, start, end, parent, count) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child_s[i]
        calls[name] += 1
        counts[name].update(count or {})
        if name == "solver.epsilon_sweep":
            sweep_distance_s += end - start - solve_child_s[i]

    def ratio(a, b):
        return a / b if b else 0.0

    solve = counts["solver.solve"]
    steps = solve["steps"]
    resolvent = counts["nonlinearity.resolvent"]
    return {
        "config.parse_s": own["config.parse"],
        "noise.synthesize_s": own["noise.synthesize"],
        "noise.synthesize_calls": calls["noise.synthesize"],
        "noise.synthesize_ns_per_value": ratio(1e9 * own["noise.synthesize"],
                                               counts["noise.synthesize"]["values"]),
        "noise.continuity_s": own["noise.continuity"],
        "solver.solve_s": own["solver.solve"],
        "solver.solve_calls": calls["solver.solve"],
        "solver.steps": steps,
        "solver.step_us": ratio(1e6 * total["solver.solve"], steps),
        "solver.newton_iters_per_step": ratio(solve["newton_iters"], steps),
        "solver.newton_iter_us": ratio(1e6 * total["solver.solve"], solve["newton_iters"]),
        "solver.retry_substeps": solve["substeps"] - steps,
        "solver.banded_solves_per_step": ratio(calls["solver.banded_solve"], steps),
        "solver.banded_solve_s": own["solver.banded_solve"],
        "solver.sweep_distance_s": sweep_distance_s,
        "solver.trajectory_mb": solve["bytes"] / 2**20,
        "nonlinearity.resolvent_calls_per_step": ratio(resolvent["solver_calls"], steps),
        "nonlinearity.resolvent_s": own["nonlinearity.resolvent"],
        "nonlinearity.resolvent_ns_per_value": ratio(1e9 * own["nonlinearity.resolvent"],
                                                     resolvent["values"]),
        "grid.hminus1_s": own["grid.hminus1"],
        "grid.hminus1_rows": counts["grid.hminus1"]["rows"],
        "verifier.mean_square_s": own["verifier.mean_square"],
        "verifier.variational_s": own["verifier.variational"],
        "verifier.diagnostics_s": own["verifier.diagnostics"],
        "cli.write_s": own["cli.write"],
        "cli.bytes_written": bytes_written,
        "cli.other_s": own["cli.command"],
        "trace.overhead_s": overhead_s,
    }


def same_bytes(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ensemble", "sweep", "verify", "noise"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "logdiff" / "__init__.py").is_file():
        print(f"no logdiff sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREADS)
    import workloads

    run_dir = BENCH / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg = workloads.make_config(args.workload, args.seed)
    cfg_path = run_dir / "workload.cfg"
    workloads.write_config(cfg, str(cfg_path))
    argv_cli = [workloads.SUBCOMMAND[args.workload], "--config", str(cfg_path)]

    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        rounds.append(run_round(run_dir, len(rounds), argv_cli, args.trace == 1 and not rounds))
        spent = time.monotonic() - began
        if len(rounds) >= MIN_ROUNDS and time.monotonic() - start + spent > args.seconds:
            break
    loop_s = time.monotonic() - start

    failures: list[str] = []
    done = [r for r in rounds if not r["failed"]]
    untraced = [r for r in done if not r["traced"]]
    if untraced:
        first = untraced[0]
        failures += workloads.CHECKS[args.workload](cfg, first["out"])
        for r in done:
            if r is first:
                continue
            if not same_bytes(Path(first["out"]), Path(r["out"])):
                failures.append(f"round {r['index']} wrote other bytes than round {first['index']}")
            if not r["traced"]:
                shutil.rmtree(r["out"])
    else:
        failures.append("no untraced round finished")

    if args.trace:
        traced = [r for r in done if r["traced"]]
        if not traced or not untraced:
            metrics = {name: 0.0 for name in LAYER_UNITS}
            failures.append("the traced round or the untraced rounds did not finish")
        else:
            out = Path(traced[0]["out"])
            written = sum(p.stat().st_size for p in out.iterdir())
            overhead = traced[0]["wall_s"] - FOLD["wall_s"](r["wall_s"] for r in untraced)
            metrics = layer_metrics(traced[0]["spans"], written, overhead)
            if metrics["solver.retry_substeps"] != 0:
                failures.append(f"{metrics['solver.retry_substeps']} retry substeps: "
                                "an answer solved another time grid")
            for name in traced[0]["absent"]:
                print(f"absent: {name} (its metrics read 0)")
        units = LAYER_UNITS
    else:
        metrics = {name: FOLD[name](r[name] for r in untraced) if untraced else 0.0
                   for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    info = machine_info()
    result = {"correct": not failures,
              "attempted": len(rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    (run_dir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info, "config": cfg, "failures": failures,
        "rounds": [{k: v for k, v in r.items() if k not in ("spans",)} for r in rounds],
        "spans": next((r["spans"] for r in done if r["traced"]), None),
        "result": result}, indent=1))

    print(f"machine: {json.dumps(info)}")
    print(f"{args.workload}: {len(rounds)} rounds in {loop_s:.1f} s, checks {time.monotonic() - start - loop_s:.1f} s, "
          f"noise seed {cfg['noise']['seed']}")
    for name, entry in result["metrics"].items():
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}")
    for r in rounds:
        if r["failed"]:
            print(f"round {r['index']} failed: {r['why']}", file=sys.stderr)
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
