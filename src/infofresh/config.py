"""Experiment configuration: a flat INI file plus flag overrides.

Every field declares its ``[section] key``, decoder and valid range through
``_ini``, so the INI schema is the field list itself.  ``check`` tests each
set value against its range; the ``build_*`` methods construct the module
objects and convert their errors into ConfigError diagnostics naming the field.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .service import ServiceTimeDist
from .sources import (
    Affine,
    AgePenalty,
    BinarySymmetric,
    GaussianAR1,
    MarkovSourceModel,
    NegatedMI,
    PenaltyTable,
    Tabulated,
)

KNOWN_POLICIES = ("optimal", "zero-wait", "uniform")


class ConfigError(Exception):
    """A configuration field failed to parse or validate."""


def round_half_up(x: float) -> int:
    """Round to nearest integer with ties going up (period rounding rule)."""
    return int(math.floor(x + 0.5))


# ----------------------------------------------------------------------
# field decoders

def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _str_list(raw: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _seeds(raw: str) -> tuple[int, ...]:
    """A bare count N means seeds 0..N-1; a comma list is explicit."""
    if "," in raw:
        return _int_list(raw)
    return tuple(range(int(raw)))


def _service_pairs(raw: str) -> tuple[tuple[int, float], ...]:
    pairs = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        y, _, p = tok.partition(":")
        if not p:
            raise ValueError(f"expected y:prob pairs, got {tok!r}")
        pairs.append((int(y), float(p)))
    if not pairs:
        raise ValueError("service distribution must list at least one y:prob pair")
    return tuple(pairs)


def _grid(raw: str) -> tuple[float, ...]:
    """Either a comma list or start:stop:step (stop inclusive)."""
    if ":" in raw:
        start_s, stop_s, step_s = raw.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        count = int(round((stop - start) / step)) + 1
        return tuple(round(start + k * step, 12) for k in range(count))
    return _float_list(raw)


def _ini(section: str, key: str, decode, default=None, rule=None):
    """A field read from ``[section] key`` through ``decode``; a set value must
    satisfy ``rule = (predicate, phrase)``, where the phrase states the range."""
    return field(default=default, metadata={"ini": (section, key, decode), "rule": rule})


@dataclass
class ExperimentConfig:
    source_kind: str | None = _ini("source", "kind", str)
    source_q: float | None = _ini("source", "q", float)
    source_a: float | None = _ini("source", "a", float)
    source_values: tuple[float, ...] | None = _ini("source", "values", _float_list)
    service: tuple[tuple[int, float], ...] | None = _ini("service", "dist", _service_pairs)
    penalty_kind: str = _ini("penalty", "kind", str, "negated-mi")
    penalty_slope: float | None = _ini("penalty", "slope", float)
    penalty_intercept: float = _ini("penalty", "intercept", float, 0.0)
    penalty_values: tuple[float, ...] | None = _ini("penalty", "values", _float_list)
    tol: float = _ini("solver", "tol", float, 1e-10, (lambda v: v > 0, "must be positive"))
    z_max: int = _ini("solver", "z_max", int, 10_000, (lambda v: v >= 1, "must be >= 1"))
    horizon: int = _ini("sim", "horizon", int, 1_000_000, (lambda v: v >= 1, "must be >= 1"))
    seeds: tuple[int, ...] = _ini("sim", "seeds", _seeds, tuple(range(10)),
                                  (bool, "must name at least one seed"))
    delta0: int = _ini("sim", "delta0", int, 1, (lambda v: v >= 1, "must be >= 1"))
    sweep_variable: str | None = _ini("sweep", "variable", str)
    sweep_grid: tuple[float, ...] | None = _ini("sweep", "grid", _grid, None, (
        lambda g: g and all(b > a for a, b in zip(g, g[1:])),
        "must be non-empty and strictly increasing"))
    uniform_period: int | None = _ini("sweep", "uniform_period", int, None,
                                      (lambda v: v >= 1, "must be >= 1"))
    policies: tuple[str, ...] = _ini("sweep", "policies", _str_list, KNOWN_POLICIES,
                                     (bool, "must name at least one policy"))
    trace_policy: str = _ini("trace", "policy", str, "threshold")
    forced_services: tuple[int, ...] | None = _ini("trace", "forced_services", _int_list)
    trace_seed: int | None = _ini("trace", "seed", int)
    trace_horizon: int = _ini("trace", "horizon", int, 50, (lambda v: v >= 1, "must be >= 1"))
    delta_max: int = _ini("curve", "delta_max", int, 50, (lambda v: v >= 0, "must be >= 0"))
    oracle_instances: int = _ini("oracle", "instances", int, 20,
                                 (lambda v: v >= 1, "must be >= 1"))
    oracle_z_cap: int = _ini("oracle", "z_cap", int, 40, (lambda v: v >= 0, "must be >= 0"))
    oracle_seed: int = _ini("oracle", "seed", int, 0)
    out_path: str | None = _ini("output", "path", str)

    # ------------------------------------------------------------------
    # parsing

    @classmethod
    def from_ini(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config syntax error: {exc}") from exc
        spots = {f.metadata["ini"][:2]: (f.name, f.metadata["ini"][2]) for f in fields(cls)}
        cfg = cls()
        for section in parser.sections():
            for key, raw in parser.items(section):
                if (section, key) not in spots:
                    raise ConfigError(f"unknown config field [{section}] {key}")
                name, decode = spots[section, key]
                try:
                    setattr(cfg, name, decode(raw.strip()))
                except ConfigError:
                    raise
                except Exception as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from exc
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                return cls.from_ini(f.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    # ------------------------------------------------------------------
    # builders

    def build_source(self) -> MarkovSourceModel:
        kind = self.source_kind
        if kind is None:
            raise ConfigError("[source] kind is required for this command")
        try:
            if kind == "binary":
                if self.source_q is None:
                    raise ConfigError("[source] q is required for kind = binary")
                return BinarySymmetric(q=self.source_q)
            if kind == "gaussian":
                if self.source_a is None:
                    raise ConfigError("[source] a is required for kind = gaussian")
                return GaussianAR1(a=self.source_a)
            if kind == "tabulated":
                if self.source_values is None:
                    raise ConfigError("[source] values is required for kind = tabulated")
                return Tabulated(values=self.source_values)
        except ValueError as exc:
            raise ConfigError(f"[source]: {exc}") from exc
        raise ConfigError(f"[source] kind must be binary, gaussian, or tabulated, got {kind!r}")

    def build_service(self) -> ServiceTimeDist:
        if self.service is None:
            raise ConfigError("[service] dist is required for this command")
        try:
            return ServiceTimeDist(self.service)
        except ValueError as exc:
            raise ConfigError(f"[service] dist: {exc}") from exc

    def build_penalty(self) -> AgePenalty:
        kind = self.penalty_kind
        try:
            if kind == "negated-mi":
                return NegatedMI(self.build_source())
            if kind == "affine":
                if self.penalty_slope is None:
                    raise ConfigError("[penalty] slope is required for kind = affine")
                return Affine(slope=self.penalty_slope, intercept=self.penalty_intercept)
            if kind == "table":
                if self.penalty_values is None:
                    raise ConfigError("[penalty] values is required for kind = table")
                return PenaltyTable(values=self.penalty_values)
        except ValueError as exc:
            raise ConfigError(f"[penalty]: {exc}") from exc
        raise ConfigError(f"[penalty] kind must be negated-mi, affine, or table, got {kind!r}")

    def sweep_period(self, dist: ServiceTimeDist) -> int:
        return self.uniform_period if self.uniform_period is not None else round_half_up(dist.mean())

    def check(self) -> None:
        """Raise ConfigError naming the first set value outside its field's range."""
        for f in fields(self):
            value, rule = getattr(self, f.name), f.metadata["rule"]
            if rule and value is not None and not rule[0](value):
                section, key, _ = f.metadata["ini"]
                raise ConfigError(f"[{section}] {key} {rule[1]}, got {value}")

    def validate_sweep(self) -> None:
        self.check()
        if self.sweep_variable not in ("q", "a"):
            raise ConfigError(f"[sweep] variable must be q or a, got {self.sweep_variable!r}")
        if not self.sweep_grid:
            raise ConfigError("[sweep] grid must be non-empty")
        for p in self.policies:
            if p not in KNOWN_POLICIES:
                raise ConfigError(f"[sweep] unknown policy {p!r}, expected one of {KNOWN_POLICIES}")
