"""Markov source models, their information-vs-age curves, and age penalties.

A source model knows how much information a sample of age ``delta`` still
carries about the current source state, as a curve r(delta) in bits.  The
curve is non-negative and non-increasing for every model here.  Age
penalties are the non-decreasing scoring functions the solver minimizes;
negating an information curve yields one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GaussianAR1:
    """First-order autoregressive Gaussian source x[n] = a*x[n-1] + noise.

    ``a`` must lie in (-1, 1).  The information curve is
    -0.5*log2(1 - a^(2*delta)) bits whatever the noise variance, which is
    +inf at delta = 0 (a real-valued state has infinite absolute entropy).
    """

    a: float

    def __post_init__(self) -> None:
        if not -1.0 < self.a < 1.0:
            raise ValueError(f"AR(1) coefficient must be in (-1, 1), got {self.a}")


@dataclass(frozen=True)
class BinarySymmetric:
    """Binary state flipped each step by an independent Bernoulli(q) bit.

    ``q`` in [0, 1/2].  The information curve is 1 - h((1 - (1-2q)^delta)/2)
    bits with h the binary entropy function; it equals 1 at delta = 0 and
    decays to 0 (identically 0 for delta >= 1 when q = 1/2).
    """

    q: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.q <= 0.5:
            raise ValueError(f"flip probability must be in [0, 0.5], got {self.q}")


@dataclass(frozen=True)
class Tabulated:
    """Information curve given directly as a table r(0), r(1), ..., r(max).

    Values must be non-negative and non-increasing.  Ages past the table
    evaluate to 0 (the curve has decayed off the table).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("tabulated curve needs at least one value")
        if any(v < 0.0 for v in vals):
            raise ValueError("tabulated curve values must be non-negative")
        if any(b > a for a, b in zip(vals, vals[1:])):
            raise ValueError("tabulated curve values must be non-increasing")
        object.__setattr__(self, "values", vals)


MarkovSourceModel = Union[GaussianAR1, BinarySymmetric, Tabulated]


def binary_entropy(x: float) -> float:
    """Binary entropy -x*log2(x) - (1-x)*log2(1-x), with 0*log2(0) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


# Scalar on purpose: the reference that metric_table is tested against.
def mutual_information(model: MarkovSourceModel, delta: int) -> float:
    """Information (bits) a sample of age ``delta`` retains about the state.

    Non-negative and non-increasing in ``delta``; may be +inf (Gaussian at
    age 0).  Total on valid models.
    """
    if delta < 0:
        raise ValueError(f"age must be non-negative, got {delta}")
    if isinstance(model, GaussianAR1):
        if delta == 0:
            return math.inf
        t = (model.a * model.a) ** delta
        return -0.5 * math.log1p(-t) / _LN2 + 0.0  # +0.0 folds -0.0 (a = 0 case)
    if isinstance(model, BinarySymmetric):
        # 1 - h((1-t)/2) rewritten to avoid cancellation near h = 1:
        #   ((1-t)*log2(1-t) + (1+t)*log2(1+t)) / 2,  t = (1-2q)^delta
        t = (1.0 - 2.0 * model.q) ** delta
        if t >= 1.0:
            return 1.0
        if t < 1e-8:
            # quadratic asymptote; exact to double precision here and, unlike
            # the sum above, monotone through the underflow regime
            return t * t / (2.0 * _LN2)
        return ((1.0 - t) * math.log1p(-t) + (1.0 + t) * math.log1p(t)) / (2.0 * _LN2)
    if isinstance(model, Tabulated):
        if delta < len(model.values):
            return model.values[delta]
        return 0.0
    raise TypeError(f"unknown source model {model!r}")


@dataclass(frozen=True)
class NegatedMI:
    """Penalty p(delta) = -r(delta): non-positive, non-decreasing."""

    model: MarkovSourceModel


@dataclass(frozen=True)
class PenaltyTable:
    """Penalty given as a non-decreasing table, extended by its last value."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("penalty table needs at least one value")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("penalty table values must be non-decreasing")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Affine:
    """Penalty slope*delta + intercept; slope >= 0 keeps it non-decreasing."""

    slope: float
    intercept: float = 0.0

    def __post_init__(self) -> None:
        if self.slope < 0.0:
            raise ValueError(f"slope must be non-negative, got {self.slope}")


AgePenalty = Union[NegatedMI, PenaltyTable, Affine]


# Scalar on purpose: the reference that metric_table is tested against.
def penalty_value(penalty: AgePenalty, delta: int) -> float:
    """Evaluate a penalty at age ``delta`` (non-decreasing in delta)."""
    if delta < 0:
        raise ValueError(f"age must be non-negative, got {delta}")
    if isinstance(penalty, NegatedMI):
        return -mutual_information(penalty.model, delta)
    if isinstance(penalty, PenaltyTable):
        if delta < len(penalty.values):
            return penalty.values[delta]
        return penalty.values[-1]
    if isinstance(penalty, Affine):
        return penalty.slope * delta + penalty.intercept
    raise TypeError(f"unknown penalty {penalty!r}")


def _information_table(model: MarkovSourceModel, n: int) -> np.ndarray:
    """``mutual_information(model, d)`` for d = 0..n-1, elementwise in numpy."""
    delta = np.arange(n)
    if isinstance(model, GaussianAR1):
        t = (model.a * model.a) ** delta
        with np.errstate(divide="ignore"):  # t = 1 at age 0 gives +inf
            return -0.5 * np.log1p(-t) / _LN2 + 0.0
    if isinstance(model, BinarySymmetric):
        t = (1.0 - 2.0 * model.q) ** delta
        with np.errstate(divide="ignore", invalid="ignore"):  # t = 1 is masked below
            exact = ((1.0 - t) * np.log1p(-t) + (1.0 + t) * np.log1p(t)) / (2.0 * _LN2)
        return np.where(t >= 1.0, 1.0, np.where(t < 1e-8, t * t / (2.0 * _LN2), exact))
    if isinstance(model, Tabulated):
        out = np.zeros(n)
        k = min(n, len(model.values))
        out[:k] = model.values[:k]
        return out
    raise TypeError(f"unknown source model {model!r}")


def metric_table(metric: "MarkovSourceModel | AgePenalty", n: int) -> np.ndarray:
    """Values at ages 0..n-1 of a source model's information curve or of a penalty.

    The closed forms of ``mutual_information`` and ``penalty_value``,
    evaluated over the whole age range at once.  numpy's vectorized
    ``log1p`` may differ from ``math.log1p`` in the last bit, so entries
    agree with the scalar path to rounding, not bitwise.
    """
    if n < 0:
        raise ValueError(f"table length must be non-negative, got {n}")
    if isinstance(metric, (GaussianAR1, BinarySymmetric, Tabulated)):
        return _information_table(metric, n)
    if isinstance(metric, NegatedMI):
        return -_information_table(metric.model, n)
    if isinstance(metric, PenaltyTable):
        vals = np.asarray(metric.values)
        return vals[np.minimum(np.arange(n), len(vals) - 1)]
    if isinstance(metric, Affine):
        return metric.slope * np.arange(n) + metric.intercept
    raise TypeError(f"metric must be a source model or an age penalty, got {metric!r}")

