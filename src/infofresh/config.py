"""Experiment configuration: a flat INI file plus flag overrides.

Every field declares its ``[section] key``, decoder and valid range through
``_ini``, so the INI schema is the field list itself.  ``set_text`` decodes
a value as its key would be, from the file or from a flag, and checks its
range; the ``build_*`` methods construct the module objects and convert
their errors into ConfigError diagnostics naming the field.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .service import ServiceTimeDist
from .solver import DEFAULT_Z_MAX
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
POLICIES = ("optimal", "zero-wait", "uniform")
TRACE_POLICIES = ("threshold", "zero-wait", "uniform")
# Runs size their age histograms and metric tables by delta0; at this bound each is
# about 80 MB, where an unbounded delta0 could ask for terabytes.
DELTA0_MAX = 10**7
# Keeps int64 times exact; no simulator array outgrows the ages a run reaches.
UNIFORM_PERIOD_MAX = 10**7


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
    """A bare count N means seeds 0..N-1; a comma list is explicit."""
    return _list(int)(raw) if "," in raw else tuple(range(int(raw)))


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
    """Either a comma list or start:stop:step (stop inclusive).

    The range holds every start + k*step up to the stop and none past it;
    a stop that the steps reach up to float noise (1e-9 of a step) counts,
    so 0.02:0.50:0.02 has 25 points.
    """
    if ":" in raw:
        start_s, stop_s, step_s = raw.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        count = math.floor((stop - start) / step + 1e-9) + 1
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


_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")


@dataclass
class ExperimentConfig:
    source_kind: str | None = _ini("source", "kind", str, None, _one_of(SOURCES))
    source_q: float | None = _ini("source", "q", float)
    source_a: float | None = _ini("source", "a", float)
    source_values: tuple[float, ...] | None = _ini("source", "values", _list(float))
    service: tuple[tuple[int, float], ...] | None = _ini("service", "dist", _service_pairs)
    penalty_kind: str = _ini("penalty", "kind", str, "negated-mi", _one_of(PENALTIES))
    penalty_slope: float | None = _ini("penalty", "slope", float)
    penalty_intercept: float = _ini("penalty", "intercept", float, 0.0)
    penalty_values: tuple[float, ...] | None = _ini("penalty", "values", _list(float))
    tol: float = _ini("solver", "tol", float, 1e-10, (lambda v: v > 0, "must be positive"))
    z_max: int = _ini("solver", "z_max", int, DEFAULT_Z_MAX, (lambda v: v >= 1, "must be >= 1"))
    horizon: int = _ini("sim", "horizon", int, 1_000_000, (lambda v: v >= 1, "must be >= 1"))
    seeds: tuple[int, ...] = _ini("sim", "seeds", _seeds, tuple(range(10)),
                                  (bool, "must name at least one seed"),
                                  (lambda v: min(v) >= 0, "must all be >= 0"))
    delta0: int = _ini("sim", "delta0", int, 1, (lambda v: v >= 1, "must be >= 1"),
                       (lambda v: v <= DELTA0_MAX, f"must be <= {DELTA0_MAX}"))
    sweep_variable: str | None = _ini("sweep", "variable", str, None, _one_of(SWEEP_MODELS))
    sweep_grid: tuple[float, ...] | None = _ini("sweep", "grid", _grid, None, (
        lambda g: g and all(b > a for a, b in zip(g, g[1:])),
        "must be non-empty and strictly increasing"))
    uniform_period: int | None = _ini(
        "sweep", "uniform_period", int, None, (lambda v: v >= 1, "must be >= 1"),
        (lambda v: v <= UNIFORM_PERIOD_MAX, f"must be <= {UNIFORM_PERIOD_MAX}"))
    policies: tuple[str, ...] = _ini(
        "sweep", "policies", _list(str), POLICIES, (bool, "must name at least one policy"),
        (lambda v: set(v) <= set(POLICIES),
         f"must not name an unknown policy (known: {', '.join(POLICIES)})"))
    trace_policy: str = _ini("trace", "policy", str, "threshold", _one_of(TRACE_POLICIES))
    forced_services: tuple[int, ...] | None = _ini("trace", "forced_services", _list(int))
    trace_seed: int | None = _ini("trace", "seed", int, None, _NON_NEGATIVE)
    trace_horizon: int = _ini("trace", "horizon", int, 50, (lambda v: v >= 1, "must be >= 1"))
    delta_max: int = _ini("curve", "delta_max", int, 50, _NON_NEGATIVE)
    oracle_instances: int = _ini("oracle", "instances", int, 20,
                                 (lambda v: v >= 1, "must be >= 1"))
    oracle_z_cap: int = _ini("oracle", "z_cap", int, 40, _NON_NEGATIVE)
    oracle_seed: int = _ini("oracle", "seed", int, 0, _NON_NEGATIVE)
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
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def set_text(self, name: str, raw: str) -> None:
        """Set field ``name`` from text as its INI key decodes it, then check its range."""
        section, key, decode = _FIELDS[name].metadata["ini"]
        try:
            value = decode(raw.strip())
        except Exception as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc
        _check_rules(_FIELDS[name], value)
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

    def check(self) -> None:
        """Raise ConfigError naming the first set value outside its field's range."""
        for f in fields(self):
            _check_rules(f, getattr(self, f.name))

    def validate_sweep(self) -> list[MarkovSourceModel]:
        """Check the keys ``sweep`` reads; return the source model at each grid point."""
        self.check()
        model = SWEEP_MODELS[self._required("sweep_variable")]
        try:
            return [model(g) for g in self._required("sweep_grid")]
        except ValueError as exc:
            raise ConfigError(f"[sweep] grid: {exc}") from exc


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _check_rules(f, value) -> None:
    if value is None:
        return
    for holds, phrase in f.metadata["rules"]:
        if not holds(value):
            section, key, _ = f.metadata["ini"]
            shown = repr(value) if isinstance(value, str) else value
            raise ConfigError(f"[{section}] {key} {phrase}, got {shown}")
