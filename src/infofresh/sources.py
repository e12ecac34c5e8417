"""Markov source models, their information-vs-age curves, and age penalties.

A source model knows how much information a sample of age ``delta`` still
carries about the current source state, as a curve r(delta) in bits.  The
curve is non-negative and non-increasing for every model here.  Age
penalties are the non-decreasing scoring functions the solver minimizes;
negating an information curve yields one.

Each closed form is written once per route, and each route takes any
source model or penalty: ``scalar_metric`` resolves the type and constants
once and returns a callable from age to value, and ``metric_table``
evaluates a whole age range in numpy.  The scalar route is the reference
the tables are tested against; ``mi-curve`` prints it, and
``penalty_prefix_sums`` adds it up for the exact cycle sums of
``solver.cycle_stats`` and the oracle, which so share no table with the
solver.  ``NegatedMI`` checks for a source model, and
``penalty_prefix_sums`` and the solver's tables for a penalty.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

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

    Values must be non-negative and non-increasing, so NaN is rejected and
    +inf is allowed only where it leads, as at age 0 of a Gaussian curve.
    Ages past the table evaluate to 0 (the curve has decayed off the table).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("tabulated curve needs at least one value")
        # each check phrased so that NaN fails it
        if not all(v >= 0.0 for v in vals):
            raise ValueError("tabulated curve values must be non-negative")
        if not all(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("tabulated curve values must be non-increasing")
        object.__setattr__(self, "values", vals)


MarkovSourceModel = Union[GaussianAR1, BinarySymmetric, Tabulated]


@dataclass(frozen=True)
class NegatedMI:
    """Penalty p(delta) = -r(delta): non-positive, non-decreasing."""

    model: MarkovSourceModel

    def __post_init__(self) -> None:
        if not isinstance(self.model, MarkovSourceModel):
            raise TypeError(f"NegatedMI needs a source model, got {self.model!r}")


@dataclass(frozen=True)
class PenaltyTable:
    """Penalty given as a non-decreasing table, extended by its last value."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("penalty table needs at least one value")
        if any(math.isnan(v) for v in vals):
            raise ValueError("penalty table values must not be NaN")
        if not all(b >= a for a, b in zip(vals, vals[1:])):
            raise ValueError("penalty table values must be non-decreasing")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Affine:
    """Penalty slope*delta + intercept; slope >= 0 keeps it non-decreasing.

    Both must be finite: an infinite slope or intercept gives no finite
    cycle sum at any age.
    """

    slope: float
    intercept: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.slope < math.inf:  # NaN fails too
            raise ValueError(f"slope must be non-negative and finite, got {self.slope}")
        if math.isnan(self.intercept):
            raise ValueError("intercept must not be NaN")
        if math.isinf(self.intercept):
            raise ValueError(f"intercept must be finite, got {self.intercept}")


AgePenalty = Union[NegatedMI, PenaltyTable, Affine]


def require_penalty(metric: object) -> None:
    """Raise ``TypeError`` unless ``metric`` is an age penalty."""
    if not isinstance(metric, AgePenalty):
        raise TypeError(f"expected an age penalty (NegatedMI, PenaltyTable or Affine), got "
                        f"{metric!r}; wrap a source model in NegatedMI to maximize its information")


def scalar_metric(metric: "MarkovSourceModel | AgePenalty") -> Callable[[int], float]:
    """A source model's information curve, or a penalty, as a callable from age (>= 0)
    to value.

    The type and the fixed constants are resolved here, once; the callable
    does not check its age.
    """
    if isinstance(metric, NegatedMI):
        info = scalar_metric(metric.model)
        return lambda delta: -info(delta)
    if isinstance(metric, GaussianAR1):
        base = metric.a * metric.a

        def gaussian(delta: int) -> float:
            if delta == 0:
                return math.inf
            t = base ** delta
            return -0.5 * math.log1p(-t) / _LN2 + 0.0  # +0.0 folds -0.0 (a = 0 case)

        return gaussian
    if isinstance(metric, BinarySymmetric):
        base = 1.0 - 2.0 * metric.q

        def binary(delta: int) -> float:
            # 1 - h((1-t)/2) rewritten to avoid cancellation near h = 1:
            #   ((1-t)*log2(1-t) + (1+t)*log2(1+t)) / 2,  t = (1-2q)^delta
            t = base ** delta
            if t >= 1.0:
                return 1.0
            if t < 1e-8:
                # quadratic asymptote; exact to double precision here and, unlike
                # the sum above, monotone through the underflow regime
                return t * t / (2.0 * _LN2)
            return ((1.0 - t) * math.log1p(-t) + (1.0 + t) * math.log1p(t)) / (2.0 * _LN2)

        return binary
    if isinstance(metric, (Tabulated, PenaltyTable)):  # past its table, a curve is 0.0
        values = metric.values + ((0.0,) if isinstance(metric, Tabulated) else ())
        n, last = len(values), values[-1]
        return lambda delta: values[delta] if delta < n else last
    if isinstance(metric, Affine):
        slope, intercept = metric.slope, metric.intercept
        return lambda delta: slope * delta + intercept
    raise TypeError(f"metric must be a source model or an age penalty, got {metric!r}")


def penalty_prefix_sums(penalty: AgePenalty, top: int) -> list[float]:
    """cum[k] = p(1) + ... + p(k - 1) for k = 0..top, added left to right
    from ``scalar_metric``.  A cycle's ages start at its service time >= 1,
    so p(0) never enters; p and its running sum must be finite at every age
    1..top-1 (see ``sum_error``).
    """
    require_penalty(penalty)
    value = scalar_metric(penalty)
    cum = [0.0, *itertools.accumulate(map(value, range(1, top)), initial=0.0)]
    if not math.isfinite(cum[-1]):  # a running sum never returns from inf or NaN
        age = next(k for k, c in enumerate(cum) if not math.isfinite(c)) - 1
        raise sum_error(age, value(age))
    return cum


def sum_error(age: int, value: float) -> ValueError:
    """The error for a penalty whose running sum from age 1 is first not finite at
    ``age``, where it takes ``value``: the value itself, or a float64 overflow."""
    if math.isfinite(value):
        return ValueError(f"penalty sum over ages 1..{age} overflows float64; "
                          f"cycle sums require finite values")
    return ValueError(f"penalty is not finite at age {age}; cycle sums require finite values")


def _powers_end(base: float, n: int) -> int:
    """An age k <= n such that ``base ** d`` is 0.0 for every d in k..n-1.

    For 0 < base < 1, base ** d < 2**-1077, an eighth of the smallest
    subnormal, once d > -1077 / log2(base), so a ``pow`` good to 7/8 of an
    ulp returns 0.0 there; the two extra ages absorb the rounding of that
    bound.  Any other base gets no cut.
    """
    if 0.0 < base < 1.0:
        return min(n, int(-1077.0 / math.log2(base)) + 2)
    return n


def metric_table(metric: "MarkovSourceModel | AgePenalty", n: int) -> np.ndarray:
    """Values at ages 0..n-1 of a source model's information curve or of a penalty.

    The closed forms of ``scalar_metric`` over the whole age range at once.
    numpy's vectorized ``log1p`` may differ from ``math.log1p`` in the last
    bit, so entries agree with the scalar route to rounding, not bitwise.
    The binary and Gaussian curves are closed forms in t = base ** d, 0.0
    where t is.  libm's ``pow`` is about ten times slower where its result
    underflows, so it runs only on ages below ``_powers_end``; past those
    the table keeps the 0.0 it would have given.
    """
    if n < 0:
        raise ValueError(f"table length must be non-negative, got {n}")
    if isinstance(metric, NegatedMI):
        return -metric_table(metric.model, n)
    if isinstance(metric, (Tabulated, PenaltyTable)):  # past its table, a curve is 0.0
        vals = np.asarray(metric.values + ((0.0,) if isinstance(metric, Tabulated) else ()))
        return vals[np.minimum(np.arange(n), len(vals) - 1)]
    if isinstance(metric, Affine):
        return metric.slope * np.arange(n) + metric.intercept
    if isinstance(metric, GaussianAR1):
        base = metric.a * metric.a
    elif isinstance(metric, BinarySymmetric):
        base = 1.0 - 2.0 * metric.q
    else:
        raise TypeError(f"metric must be a source model or an age penalty, got {metric!r}")
    out, k = np.zeros(n), _powers_end(base, n)
    t = base ** np.arange(k)
    if isinstance(metric, GaussianAR1):
        with np.errstate(divide="ignore"):  # t = 1 at age 0 gives +inf
            out[:k] = -0.5 * np.log1p(-t) / _LN2 + 0.0
        return out
    out[:k] = t * t / (2.0 * _LN2)  # the asymptote, taken where t < 1e-8
    j = int(np.count_nonzero(t >= 1e-8))  # t falls with age: the exact form is for ages < j
    t = t[:j]
    with np.errstate(divide="ignore", invalid="ignore"):  # t = 1 is masked below
        exact = ((1.0 - t) * np.log1p(-t) + (1.0 + t) * np.log1p(t)) / (2.0 * _LN2)
    out[:j] = np.where(t >= 1.0, 1.0, exact)
    return out
