"""Experiment configuration files: flat, sectioned, key = value text.

The sections are the fields of ExperimentConfig and the keys are the
fields of its blocks; each key is parsed by its annotated type.  Unknown
sections or keys are hard errors, as are malformed values and missing or
unreadable files.  Every key has a default, so the empty file is the
default desk-scale experiment.
"""

from __future__ import annotations

import configparser
import csv
import os
from dataclasses import dataclass, fields, replace
from typing import Literal, Optional, get_args, get_type_hints

import numpy as np

from .grid import EigenSystem, Field, GridSpec, eigensystem
from .noise import NoiseSpec, PowerLawGammas

SCHEMA_VERSION = "1"

CHECK_NAMES = ("mean_square", "flux_l1", "variational", "total_variation", "hminus1_sup")
Profile = Literal["zero", "bump", "mode", "file"]
PROFILES = get_args(Profile)


class ConfigError(Exception):
    """Invalid configuration file or option."""


@dataclass(frozen=True)
class GridBlock:
    length: float = 1.0
    n_interior: int = 127


@dataclass(frozen=True)
class NoiseBlock:
    k_max: int = 8
    gamma0: float = 1.0
    gamma_decay: float = 8.0
    seed: int = 42
    n_paths: int = 200
    continuity_alpha: float = 0.5
    override_decay_check: bool = False


@dataclass(frozen=True)
class SolverBlock:
    epsilon: float = 1e-2
    dt: float = 1e-3
    t_final: float = 0.5
    scheme: str = "implicit"
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    epsilon_list: tuple[float, ...] = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)


@dataclass(frozen=True)
class InitialBlock:
    profile: Profile = "zero"
    amplitude: float = 1.0
    mode_k: int = 1
    path: str = ""


@dataclass(frozen=True)
class VerifyBlock:
    checks: tuple[str, ...] = CHECK_NAMES
    mu: float = 1e-2
    tol_vi: Optional[float] = None
    diag_epsilons: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
    ratio_max: float = 10.0


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"
    dump_trajectories: bool = False
    workers: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridBlock = GridBlock()
    noise: NoiseBlock = NoiseBlock()
    solver: SolverBlock = SolverBlock()
    initial: InitialBlock = InitialBlock()
    verify: VerifyBlock = VerifyBlock()
    output: OutputBlock = OutputBlock()

    def grid_spec(self) -> GridSpec:
        return GridSpec(self.grid.length, self.grid.n_interior)

    def eigen(self, grid: GridSpec) -> EigenSystem:
        return eigensystem(grid, self.noise.k_max)

    def noise_spec(self, seed: Optional[int] = None) -> NoiseSpec:
        n_steps = round(self.solver.t_final / self.solver.dt)
        return NoiseSpec(
            k_max=self.noise.k_max,
            gammas=PowerLawGammas(self.noise.gamma0, self.noise.gamma_decay),
            seed=self.noise.seed if seed is None else seed,
            t_final=self.solver.t_final,
            n_steps=n_steps,
        )

    def solver_config(self, epsilon: Optional[float] = None, scheme: Optional[str] = None):
        from .solver import SolverConfig

        return SolverConfig(
            epsilon=self.solver.epsilon if epsilon is None else epsilon,
            dt=self.solver.dt,
            t_final=self.solver.t_final,
            newton_tol=self.solver.newton_tol,
            newton_max_iter=self.solver.newton_max_iter,
            scheme=self.solver.scheme if scheme is None else scheme,
        )

    def initial_datum(self, grid: GridSpec, eigen: Optional[EigenSystem] = None) -> Field:
        block = self.initial
        if block.profile == "zero":
            return Field.zeros(grid)
        if block.profile == "bump":
            xi = grid.nodes
            return Field(grid, block.amplitude * xi * (grid.length - xi))
        if block.profile == "mode":
            if eigen is None or eigen.k_max < block.mode_k:
                eigen = eigensystem(grid, block.mode_k)
            return Field(grid, block.amplitude * eigen.eigenvectors[block.mode_k - 1])
        return _load_datum_csv(block.path, grid)


def _load_datum_csv(path: str, grid: GridSpec) -> Field:
    if not path:
        raise ConfigError("initial profile 'file' requires initial.path")
    if not os.path.exists(path):
        raise ConfigError(f"initial datum file not found: {path}")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read initial datum file {path}: {exc}") from exc
    header = rows[0] if rows else None
    if header != ["node", "value"]:
        raise ConfigError(f"initial datum file must have header node,value, got {header}")
    values = np.full(grid.n_interior, np.nan)
    for row in filter(None, rows[1:]):
        try:
            node, value = int(row[0]), float(row[1])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"bad initial datum row {row}: {exc}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"bad initial datum row {row}: value must be finite")
        if not (1 <= node <= grid.n_interior):
            raise ConfigError(f"initial datum node {node} outside 1..{grid.n_interior}")
        values[node - 1] = value
    if np.any(np.isnan(values)):
        raise ConfigError("initial datum file does not cover every node")
    return Field(grid, values)


# ---------------------------------------------------------------------------
# parsing

def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from exc
    if not np.isfinite(value):
        raise ConfigError(f"{key}: value must be finite, got {text!r}")
    return value


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from exc


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_float_list(text: str, key: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_parse_float(p, key) for p in parts)


def _parse_profile(text: str, key: str) -> str:
    value = text.strip()
    if value not in PROFILES:
        raise ConfigError(f"{key}: expected one of {PROFILES}, got {text!r}")
    return value


def _parse_checks(text: str, key: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    for p in parts:
        if p not in CHECK_NAMES:
            raise ConfigError(f"{key}: unknown check {p!r}, valid: {CHECK_NAMES}")
    if not parts:
        raise ConfigError(f"{key}: empty check list")
    return parts


_PARSERS = {
    float: _parse_float,
    Optional[float]: _parse_float,
    int: _parse_int,
    bool: _parse_bool,
    str: lambda text, key: text.strip(),
    tuple[float, ...]: _parse_float_list,
    tuple[str, ...]: _parse_checks,
    Profile: _parse_profile,
}


def _key_parsers(block) -> dict:
    hints = get_type_hints(type(block))
    return {f.name: _PARSERS[hints[f.name]] for f in fields(block)}


# section -> key -> parser: the block dataclasses are the schema
_SCHEMA = {f.name: _key_parsers(f.default) for f in fields(ExperimentConfig)}


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a config file; every key is optional."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # no header can name the empty section, so [DEFAULT] is an ordinary (unknown) section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def block(section: str, default):
        raw = parser[section] if parser.has_section(section) else {}
        return replace(default, **{key: parse(raw[key], f"[{section}] {key}")
                                   for key, parse in _SCHEMA[section].items() if key in raw})

    cfg = ExperimentConfig(**{f.name: block(f.name, f.default) for f in fields(ExperimentConfig)})
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    try:
        grid = cfg.grid_spec()
        cfg.noise_spec()
        cfg.solver_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.noise.k_max > cfg.grid.n_interior:
        raise ConfigError(
            f"noise k_max = {cfg.noise.k_max} exceeds n_interior = {cfg.grid.n_interior}"
        )
    if cfg.noise.n_paths < 0:
        raise ConfigError("noise n_paths must be >= 0")
    if cfg.noise.continuity_alpha <= 0:
        raise ConfigError("noise continuity_alpha must be positive")
    if cfg.initial.profile == "mode" and not (1 <= cfg.initial.mode_k <= cfg.grid.n_interior):
        raise ConfigError(f"initial mode_k must lie in 1..{cfg.grid.n_interior}")
    if cfg.initial.profile == "file":
        # parse the file early so missing/ill-formed data is a config error
        cfg.initial_datum(grid)
    if cfg.verify.mu <= 0:
        raise ConfigError("verify mu must be positive")
    if cfg.verify.tol_vi is not None and cfg.verify.tol_vi <= 0:
        raise ConfigError("verify tol_vi must be positive")
    if any(e <= 0 for e in cfg.verify.diag_epsilons):
        raise ConfigError("verify diag_epsilons must be positive")
    if cfg.verify.ratio_max <= 1:
        raise ConfigError("verify ratio_max must exceed 1")
    if len(cfg.solver.epsilon_list) >= 2 and any(np.diff(cfg.solver.epsilon_list) > 0):
        raise ConfigError("solver epsilon_list must be non-increasing")
    if any(e <= 0 for e in cfg.solver.epsilon_list):
        raise ConfigError("solver epsilon_list must be positive")
    if cfg.output.workers < 1:
        raise ConfigError("output workers must be >= 1")
