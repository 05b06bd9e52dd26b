"""Distribution helpers: empirical CDFs, heavy-tailed samplers and fits.

The paper's figures are dominated by empirical CDFs (Figs. 2, 7, 10, 11)
and by heavy-tailed popularity distributions ("the top 5% of instances
have 90.6% of all users").  This module provides the small set of
primitives used to generate and to characterise those distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import AnalysisError


@dataclass
class ECDF:
    """An empirical cumulative distribution function.

    Built from a sample, the ECDF can be evaluated at arbitrary points and
    exported as ``(x, y)`` series ready for plotting (the representation
    used for every CDF figure in the paper).
    """

    values: np.ndarray

    def __init__(self, sample: Iterable[float]) -> None:
        values = np.asarray(sorted(float(v) for v in sample), dtype=float)
        if values.size == 0:
            raise AnalysisError("cannot build an ECDF from an empty sample")
        self.values = values

    def __len__(self) -> int:
        return int(self.values.size)

    def evaluate(self, x: float) -> float:
        """Return ``P[X <= x]`` under the empirical distribution."""
        return float(np.searchsorted(self.values, x, side="right")) / self.values.size

    def quantile(self, q: float) -> float:
        """Return the ``q``-th quantile (``0 <= q <= 1``) of the sample."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile {q} outside [0, 1]")
        return float(np.quantile(self.values, q))

    def series(self) -> tuple[list[float], list[float]]:
        """Return ``(x, y)`` lists describing the full step function."""
        n = self.values.size
        ys = [(i + 1) / n for i in range(n)]
        return self.values.tolist(), ys

    def survival(self, x: float) -> float:
        """Return ``P[X > x]`` (the complementary CDF)."""
        return 1.0 - self.evaluate(x)


def sample_power_law(
    rng: np.random.Generator,
    size: int,
    exponent: float = 2.0,
    minimum: float = 1.0,
    maximum: float | None = None,
) -> np.ndarray:
    """Draw ``size`` samples from a (bounded) Pareto/power-law distribution.

    The density is proportional to ``x ** -exponent`` for ``x >= minimum``.
    When ``maximum`` is given the distribution is truncated via inverse
    transform sampling on the bounded support, which keeps extreme values
    controllable in small synthetic scenarios.
    """
    if size < 0:
        raise AnalysisError("sample size must be non-negative")
    if exponent <= 1.0:
        raise AnalysisError("power-law exponent must exceed 1")
    if minimum <= 0:
        raise AnalysisError("power-law minimum must be positive")
    if size == 0:
        return np.empty(0, dtype=float)
    u = rng.random(size)
    alpha = exponent - 1.0
    if maximum is None:
        return minimum * (1.0 - u) ** (-1.0 / alpha)
    if maximum <= minimum:
        raise AnalysisError("power-law maximum must exceed minimum")
    lo = minimum ** (-alpha)
    hi = maximum ** (-alpha)
    return (lo - u * (lo - hi)) ** (-1.0 / alpha)


def sample_lognormal(
    rng: np.random.Generator,
    size: int,
    median: float,
    sigma: float,
) -> np.ndarray:
    """Draw lognormal samples parameterised by their median."""
    if median <= 0:
        raise AnalysisError("lognormal median must be positive")
    if sigma <= 0:
        raise AnalysisError("lognormal sigma must be positive")
    return rng.lognormal(mean=float(np.log(median)), sigma=sigma, size=size)


def sample_zipf_shares(size: int, exponent: float = 1.0) -> np.ndarray:
    """Return ``size`` normalised Zipf shares ``1/rank**exponent``.

    Useful for allocating a fixed population (users, toots) across ranked
    entities (instances) with the rank-size skew observed in the paper.
    """
    if size <= 0:
        raise AnalysisError("number of shares must be positive")
    ranks = np.arange(1, size + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def fit_power_law_exponent(sample: Sequence[float], minimum: float | None = None) -> float:
    """Maximum-likelihood estimate of the power-law exponent (Hill estimator).

    Returns the exponent ``alpha`` of ``p(x) ~ x**-alpha`` fitted on the
    values ``>= minimum``.  The estimator follows Clauset et al.'s
    continuous MLE.
    """
    data = np.asarray([float(v) for v in sample if v > 0], dtype=float)
    if data.size == 0:
        raise AnalysisError("cannot fit a power law on an empty sample")
    xmin = float(minimum) if minimum is not None else float(data.min())
    tail = data[data >= xmin]
    if tail.size < 2:
        raise AnalysisError("not enough tail observations to fit a power law")
    log_excess = float(np.sum(np.log(tail / xmin)))
    if log_excess <= 0.0:
        raise AnalysisError("cannot fit a power law when every tail value equals xmin")
    return 1.0 + tail.size / log_excess


def lorenz_curve(sample: Iterable[float]) -> tuple[list[float], list[float]]:
    """Return the Lorenz curve of a non-negative sample.

    The result is a pair ``(population_fraction, mass_fraction)`` with the
    population sorted ascending, suitable for quantifying concentration
    statements such as "10% of instances host almost half the users".
    """
    values = np.asarray(sorted(float(v) for v in sample), dtype=float)
    if values.size == 0:
        raise AnalysisError("cannot compute a Lorenz curve on an empty sample")
    if np.any(values < 0):
        raise AnalysisError("Lorenz curve requires non-negative values")
    total = values.sum()
    if total == 0:
        xs = np.linspace(0, 1, values.size + 1)
        return xs.tolist(), xs.tolist()
    cum = np.concatenate([[0.0], np.cumsum(values) / total])
    xs = np.linspace(0, 1, values.size + 1)
    return xs.tolist(), cum.tolist()


def pareto_share(sample: Iterable[float], top_fraction: float) -> float:
    """Return the fraction of total mass held by the top ``top_fraction``.

    ``pareto_share(users_per_instance, 0.05)`` answers "what share of users
    do the top 5% of instances hold?" — the form of every concentration
    headline in Section 4.1 of the paper.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise AnalysisError("top_fraction must be in (0, 1]")
    values = np.asarray(sorted((float(v) for v in sample), reverse=True), dtype=float)
    if values.size == 0:
        raise AnalysisError("cannot compute a Pareto share on an empty sample")
    total = values.sum()
    if total == 0:
        return 0.0
    k = max(1, int(round(top_fraction * values.size)))
    share = float(values[:k].sum() / total)
    # guard against floating-point noise pushing the share above 1
    return min(1.0, max(0.0, share))
