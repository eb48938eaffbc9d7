"""Run one `logdiff` command in a fresh interpreter and record its timings.

    python3 bench/child.py RECORD.json TRACE(0|1) -- <logdiff arguments>

The record holds monotonic timestamps for "ready" (parse_config has
returned, so the subcommand can run) and "done" (cli.main has returned,
so the last output file is written), the exit code and the peak RSS.
Every round zeroes the unused corners of the solver's band matrix (see
zero_unused_corners).  With TRACE = 1 the names listed in WRAPS are replaced, in the module that
looks them up, by wrappers that keep one span per call in memory:
[name, start, end, parent index, counters].  The spans go into the record
when the command ends.  Names a later version no longer has are listed
under "absent" and the run goes on.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _values(result):
    return {"values": int(result.values.size)}


def _resolvent_values(result):
    return {"values": int(result.size)}


def _solver_resolvent(result):
    return {"values": int(result.size), "solver_calls": 1}


def _trajectory(result):
    return {
        "steps": int(result.n_steps),
        "newton_iters": int(result.newton_iters.sum()),
        "substeps": int(result.substeps.sum()),
        "bytes": int(result.y_fields.nbytes + result.x_fields.nbytes),
    }


def _rows(result):
    return {"rows": int(result.shape[0])}


def _one_row(result):
    return {"rows": 1}


# span name -> every (module, attribute, result counter) where that name is looked up
WRAPS = {
    "config.parse": [("logdiff.cli", "parse_config", None)],
    "noise.synthesize": [("logdiff.cli", "synthesize", _values),
                         ("logdiff.solver", "synthesize", _values)],
    "noise.continuity": [("logdiff.cli", "modulus_of_continuity", None)],
    "solver.solve": [("logdiff.cli", "solve_path", _trajectory),
                     ("logdiff.solver", "solve_path", _trajectory)],
    "solver.banded_solve": [("logdiff.solver", "solve_banded", None)],
    "solver.epsilon_sweep": [("logdiff.cli", "epsilon_sweep", None)],
    "nonlinearity.resolvent": [("logdiff.solver", "_resolvent", _solver_resolvent),
                               ("logdiff.nonlinearity", "_resolvent", _resolvent_values)],
    "grid.hminus1": [("logdiff.solver", "_hminus1_norms", _rows),
                     ("logdiff.verifier", "_hminus1_norms", _rows),
                     ("logdiff.cli", "norm_hminus1", _one_row)],
    "verifier.mean_square": [("logdiff.cli", "mean_square_bound", None)],
    "verifier.variational": [("logdiff.cli", "build_test_process", None),
                             ("logdiff.cli", "self_test_process", None),
                             ("logdiff.cli", "variational_residual", None)],
    "verifier.diagnostics": [("logdiff.cli", "flux_l1_integral", None),
                             ("logdiff.cli", "total_variation", None),
                             ("logdiff.cli", "hminus1_sup", None)],
    "cli.write": [("logdiff.cli", "_write_csv", None)],
    "cli.command": [("logdiff.cli", name, None) for name in
                    ("cmd_simulate", "cmd_sweep_eps", "cmd_verify", "cmd_noise_check")],
}


def zero_unused_corners(solve_banded):
    """solve_banded that first sets the two band entries outside a tridiagonal matrix to 0.

    logdiff.solver fills its (3, n) band array from np.empty and never writes
    ab[0, 0] and ab[2, -1].  LAPACK never reads them, but solve_banded checks
    the whole array for finiteness, so recycled heap memory holding a NaN bit
    pattern there fails a step at random (CHANGES.md, FOUND).  Zeroing the two
    entries changes no result and keeps a round from failing by chance.
    """

    def guarded(l_and_u, ab, b, *args, **kwargs):
        if tuple(l_and_u) == (1, 1):
            ab[0, 0] = ab[2, -1] = 0.0
        return solve_banded(l_and_u, ab, b, *args, **kwargs)

    return guarded


class Tracer:
    """In-memory span recorder; spans nest through a stack (single thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, module_name: str, attr: str, name: str, count) -> None:
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        for name, sites in WRAPS.items():
            for module_name, attr, count in sites:
                self.wrap(module_name, attr, name, count)


def main(argv: list[str]) -> int:
    record_path, trace = argv[0], argv[1] == "1"
    cli_args = argv[argv.index("--") + 1:]
    import logdiff.cli as cli

    record: dict = {"logdiff_file": sys.modules["logdiff"].__file__}
    solver = sys.modules["logdiff.solver"]
    if hasattr(solver, "solve_banded"):
        solver.solve_banded = zero_unused_corners(solver.solve_banded)
    tracer = Tracer()
    if trace:
        tracer.install()
    parse = cli.parse_config

    def parse_then_mark(path):
        cfg = parse(path)
        record["ready"] = time.monotonic()
        return cfg

    cli.parse_config = parse_then_mark
    code = cli.main(cli_args)
    record["done"] = time.monotonic()
    record["exit_code"] = int(code)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        record["spans"] = tracer.spans
        record["absent"] = tracer.absent
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
