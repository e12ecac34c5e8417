"""Experiment configuration: a flat INI file plus flag overrides.

Every field declares its ``[section] key``, decoder and valid range through
``_ini``, so the INI schema is the field list itself.  Setting a field, by any
route, checks its range; ``set_text`` decodes text as its key would be, from
the file or from a flag.  The ``build_*`` methods construct the module objects
and convert their errors into ConfigError diagnostics naming the field.
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

# [source] kind -> (model class, the [source] key holding its parameter)
SOURCES = {"binary": (BinarySymmetric, "q"), "gaussian": (GaussianAR1, "a"),
           "tabulated": (Tabulated, "values")}
# [sweep] variable -> the source model whose scalar parameter it is
SWEEP_MODELS = {key: model for model, key in SOURCES.values() if key != "values"}
PENALTIES = ("negated-mi", "affine", "table")
TRACE_POLICIES = ("threshold", "zero-wait", "uniform")
# Only an input range: the simulator runs any period past the horizon as horizon + 1.
UNIFORM_PERIOD_MAX = 10**7
# A sweep runs every seed's whole horizon at each grid point, so a longer range is
# a typo.  At this bound the tuple builds in about 0.06 s (2-core Xeon VM), where
# 0:1:1e-12 would ask for 10**12 points.
GRID_POINTS_MAX = 10**5
# Longer counts are typos: a sweep runs its horizon once per seed, and oracle-check builds
# every instance before its first solve; 10**4 build in 0.3 s and solve in 6 s (same VM).
SEED_COUNT_MAX = 10**4
ORACLE_INSTANCES_MAX = 10**4


class ConfigError(Exception):
    """A configuration field failed to parse or validate."""


def round_half_up(x: float) -> int:
    """Round to nearest integer with ties going up (period rounding rule)."""
    return int(math.floor(x + 0.5))


# ----------------------------------------------------------------------
# field decoders

def _list(decode):
    """A comma list of ``decode``d items; empty items are skipped."""
    return lambda raw: tuple(decode(tok.strip()) for tok in raw.split(",") if tok.strip())


def _seeds(raw: str) -> tuple[int, ...]:
    """A bare count N, bounded before it is built, means seeds 0..N-1; a list is explicit."""
    if "," in raw:
        return _list(int)(raw)
    if int(raw) > SEED_COUNT_MAX:
        raise ValueError(f"a seed count is at most {SEED_COUNT_MAX}, got {int(raw)}")
    return tuple(range(int(raw)))


def _pair(tok: str) -> tuple[int, float]:
    y, _, p = tok.partition(":")
    if not p:
        raise ValueError(f"expected y:prob pairs, got {tok!r}")
    return int(y), float(p)


def _grid(raw: str) -> tuple[float, ...]:
    """Either a comma list or start:stop:step (stop inclusive).

    The range holds every start + k*step up to the stop and none past it;
    a stop that the steps reach up to float noise (1e-9 of a step) counts,
    so 0.02:0.50:0.02 has 25 points.
    """
    if ":" in raw:
        bounds = tuple(map(float, raw.split(":")))
        if len(bounds) != 3 or not all(map(math.isfinite, bounds)):
            raise ValueError(f"a range is start:stop:step with finite numbers, got {raw!r}")
        start, stop, step = bounds
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        span = (stop - start) / step + 1e-9  # the points past the start, and a fraction
        if span >= GRID_POINTS_MAX:  # inf too
            raise ValueError(f"a range start:stop:step holds at most {GRID_POINTS_MAX} points, "
                             f"got {raw!r} with {span + 1:.6g} points")
        count = math.floor(max(span, -1.0)) + 1  # -inf: a stop far below the start
        return tuple(round(start + k * step, 12) for k in range(count))
    return _list(float)(raw)


def _ini(section: str, key: str, decode, default=None, *rules):
    """A field read from ``[section] key`` through ``decode``; a set value must
    satisfy each ``(predicate, phrase)`` rule, where the phrase states the range."""
    return field(default=default, metadata={"ini": (section, key, decode), "rules": rules})


def _one_of(names) -> tuple:
    """The rule that a value is one of ``names``."""
    *head, last = names
    listed = f"{', '.join(head)}, or {last}" if len(head) > 1 else f"{head[0]} or {last}"
    return (lambda v: v in names, f"must be {listed}")


def _at_least(low: int) -> tuple:
    return (lambda v: v >= low, f"must be >= {low}")


def _at_most(high: int) -> tuple:
    return (lambda v: v <= high, f"must be <= {high}")


@dataclass
class ExperimentConfig:
    source_kind: str | None = _ini("source", "kind", str, None, _one_of(SOURCES))
    source_q: float | None = _ini("source", "q", float)
    source_a: float | None = _ini("source", "a", float)
    source_values: tuple[float, ...] | None = _ini("source", "values", _list(float))
    service: tuple[tuple[int, float], ...] | None = _ini(
        "service", "dist", _list(_pair), None, (bool, "must list at least one y:prob pair"))
    penalty_kind: str = _ini("penalty", "kind", str, "negated-mi", _one_of(PENALTIES))
    penalty_slope: float | None = _ini("penalty", "slope", float)
    penalty_intercept: float = _ini("penalty", "intercept", float, 0.0)
    penalty_values: tuple[float, ...] | None = _ini("penalty", "values", _list(float))
    z_max: int | None = _ini("solver", "z_max", int, None, _at_least(1))
    horizon: int = _ini("sim", "horizon", int, 1_000_000, _at_least(1))
    seeds: tuple[int, ...] = _ini("sim", "seeds", _seeds, tuple(range(10)),
                                  (bool, "must name at least one seed"),
                                  (lambda v: min(v) >= 0, "must all be >= 0"),
                                  (lambda v: len(set(v)) == len(v), "must not repeat a seed"))
    sweep_variable: str | None = _ini("sweep", "variable", str, None, _one_of(SWEEP_MODELS))
    sweep_grid: tuple[float, ...] | None = _ini("sweep", "grid", _grid, None, (
        lambda g: g and all(b > a for a, b in zip(g, g[1:])),
        "must be non-empty and strictly increasing"))
    uniform_period: int | None = _ini("sweep", "uniform_period", int, None, _at_least(1),
                                      _at_most(UNIFORM_PERIOD_MAX))
    trace_policy: str = _ini("trace", "policy", str, "threshold", _one_of(TRACE_POLICIES))
    forced_services: tuple[int, ...] | None = _ini(
        "trace", "forced_services", _list(int), None, (bool, "must list at least one service time"))
    trace_seed: int | None = _ini("trace", "seed", int, None, _at_least(0))
    trace_horizon: int = _ini("trace", "horizon", int, 50, _at_least(1))
    delta_max: int = _ini("curve", "delta_max", int, 50, _at_least(0))
    oracle_instances: int = _ini("oracle", "instances", int, 20, _at_least(1),
                                 _at_most(ORACLE_INSTANCES_MAX))
    oracle_z_cap: int = _ini("oracle", "z_cap", int, 40, _at_least(0))
    oracle_seed: int = _ini("oracle", "seed", int, 0, _at_least(0))
    out_path: str | None = _ini("output", "path", str)
    tol = 1e-10  # not a field: only perfbench reads it, until it holds the value (ROADMAP.md)
    delta0 = 1  # not a field: only perfbench reads it, until it holds the value (ROADMAP.md)

    def __setattr__(self, name: str, value) -> None:
        """Set an attribute; a field's value, unless None, must first satisfy its rules."""
        f = _FIELDS.get(name)
        if f is not None and value is not None:
            for holds, phrase in f.metadata["rules"]:
                if not holds(value):
                    section, key, _ = f.metadata["ini"]
                    raise ConfigError(f"[{section}] {key} {phrase}, got {value!r}")
        super().__setattr__(name, value)

    # ------------------------------------------------------------------
    # parsing

    @classmethod
    def from_ini(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)  # a value is read as written
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config syntax error: {exc}") from exc
        for key in parser.defaults():  # configparser would copy these into every section
            raise ConfigError(f"unknown config field [DEFAULT] {key}")
        spots = {f.metadata["ini"][:2]: f.name for f in fields(cls)}
        cfg = cls()
        for section in parser.sections():
            for key, raw in parser.items(section):
                if (section, key) not in spots:
                    raise ConfigError(f"unknown config field [{section}] {key}")
                cfg.set_text(spots[section, key], raw)
        return cfg

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as f:
                return cls.from_ini(f.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def set_text(self, name: str, raw: str) -> None:
        """Set field ``name`` from text as its INI key decodes it; setting checks its range."""
        section, key, decode = _FIELDS[name].metadata["ini"]
        try:
            value = decode(raw.strip())
        except Exception as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        setattr(self, name, value)

    def _required(self, name: str, by: str = "this command"):
        value = getattr(self, name)
        if value is None:
            section, key, _ = _FIELDS[name].metadata["ini"]
            raise ConfigError(f"[{section}] {key} is required for {by}")
        return value

    # ------------------------------------------------------------------
    # builders

    def build_source(self) -> MarkovSourceModel:
        kind = self._required("source_kind")
        model, key = SOURCES[kind]
        value = self._required("source_" + key, f"kind = {kind}")
        try:
            return model(value)
        except ValueError as exc:
            raise ConfigError(f"[source]: {exc}") from exc

    def build_service(self) -> ServiceTimeDist:
        try:
            return ServiceTimeDist(self._required("service"))
        except ValueError as exc:
            raise ConfigError(f"[service] dist: {exc}") from exc

    def build_penalty(self) -> AgePenalty:
        kind = self.penalty_kind
        try:
            if kind == "negated-mi":
                return NegatedMI(self.build_source())
            if kind == "affine":
                slope = self._required("penalty_slope", "kind = affine")
                return Affine(slope=slope, intercept=self.penalty_intercept)
            return PenaltyTable(values=self._required("penalty_values", "kind = table"))
        except ValueError as exc:
            raise ConfigError(f"[penalty]: {exc}") from exc

    def sweep_period(self, dist: ServiceTimeDist) -> int:
        return self.uniform_period if self.uniform_period is not None else round_half_up(dist.mean())

    def validate_sweep(self) -> list[MarkovSourceModel]:
        """Name a missing ``sweep`` key; return the source model at each grid point."""
        model = SWEEP_MODELS[self._required("sweep_variable")]
        try:
            return [model(g) for g in self._required("sweep_grid")]
        except ValueError as exc:
            raise ConfigError(f"[sweep] grid: {exc}") from exc


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
