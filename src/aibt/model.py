"""Mixture model for wavelet coefficients with an area-interaction occupancy prior.

Each detail coefficient observes ``dhat = d + noise`` with known noise level
``sigma``.  The underlying coefficient is zero unless points of a lattice
point process occupy its site; with multiplicity ``c`` it is centred Gaussian
with variance ``tau**2 * c``.  The point process prior has density
proportional to ``lam**N(xi) * gamma**(-coverage(xi))`` against a unit-rate
Poisson process, so for ``gamma > 1`` configurations whose neighbourhoods
overlap are rewarded.  Integrating the coefficients out leaves a point
process posterior.  Coverage depends on occupancy alone, so given which
sites are occupied the multiplicities are independent: each occupied site
weighs ``lam**c / c! * N(dhat; 0, v(c))`` for ``c >= 1``, and summing them
out leaves a binary area-interaction field over occupancy
(:func:`log_count_terms` gives the summands).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .lattice import coverage_measure
from .wavelet import WaveletDecomposition, as_real

__all__ = [
    "ModelParams",
    "log_marginal_posterior",
    "estimate_sigma_mad",
]


@dataclass(frozen=True)
class ModelParams:
    """Fixed hyperparameters of the coefficient model.

    Args:
        lam: prior per-site point intensity; positive.
        gamma: clustering reward; at least 1 (1 recovers an independence prior).
        tau: prior scale of a nonzero coefficient; positive.
        sigma: observation noise standard deviation; positive.

    ``tau**2``, ``sigma**2``, their ratio and the gain ``g`` of :func:`log_dominating_rate`
    must be finite floats, and all but the ratio nonzero.
    """

    lam: float
    gamma: float
    tau: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("lam", "gamma", "tau", "sigma"):  # numpy scalars would warn on overflow below
            object.__setattr__(self, name, float(as_real(getattr(self, name), name)))
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        if not (self.gamma >= 1 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be at least 1")
        for name in ("tau", "sigma"):  # both enter the model squared
            value = getattr(self, name)
            if not (value > 0 and 0.0 < value * value < math.inf):
                raise ValueError(f"{name} must be positive, with a finite nonzero square")
        if not (self.tau**2 / self.sigma**2 < math.inf and 0.0 < _gain(self) < math.inf):
            raise ValueError("tau**2 / sigma**2 must be finite, and the gain tau**2 / (2 v(0) v(1)) finite and nonzero")

    def variance(self, count) -> np.ndarray | float:
        """Marginal coefficient variance ``sigma**2 + tau**2 * count``."""
        c = np.asarray(count, dtype=float)
        return self.sigma**2 + self.tau**2 * c


def _gain(params: ModelParams) -> float:
    """Coefficient of ``dhat**2`` in the log likelihood ratio of a first point, ``tau**2 / (2 v(0) v(1))``."""
    denominator = 2.0 * params.sigma**2 * (params.sigma**2 + params.tau**2)
    return params.tau**2 / denominator if denominator else math.inf


def check_dhat(dhat, n_sites: int | None = None) -> np.ndarray:
    """``dhat`` as a float vector of one real value per site (``n_sites`` of them, if given), none of them nan."""
    dhat = as_real(dhat, "dhat")
    if dhat.ndim != 1 or n_sites is not None and dhat.size != n_sites:
        raise ValueError("dhat must hold one value per lattice site")
    if np.isnan(dhat).any():  # +-inf is allowed: the sampler holds such a site, and the law scores it -inf
        raise ValueError("dhat must not hold nan")
    return dhat


def log_marginal_posterior(counts, dhat: np.ndarray, params: ModelParams) -> float:
    """Log posterior probability of a count vector, one multiplicity per site, coefficients integrated out.

    Up to one additive constant shared by all count vectors:
    ``N*log(lam) - coverage*log(gamma)`` plus, per site, ``-log(count!)`` and
    the log Gaussian likelihood of ``dhat`` under variance ``v(count)``.
    This is the law :func:`aibt.cftp_counts` draws when no site is held.
    """
    m_cov = coverage_measure(counts)
    counts = np.asarray(counts, dtype=np.int64)
    dhat = check_dhat(dhat, counts.size)
    v = params.variance(counts)
    loglik = float(np.sum(-(dhat**2) / (2.0 * v) - 0.5 * np.log(2.0 * np.pi * v)))
    log_factorials = sum(math.lgamma(c + 1) for c in counts.tolist())
    return int(counts.sum()) * math.log(params.lam) - m_cov * math.log(params.gamma) + loglik - log_factorials


def log_count_terms(dhat_u, params: ModelParams, cap: int) -> np.ndarray:
    """``log(lam**c / c! * N(dhat; 0, v(c)) / N(dhat; 0, v(0)))`` for ``c = 1..cap``.

    One row per entry of ``dhat_u`` (last axis: ``c``).  Summed over ``c``
    the terms give an occupied site's weight against an empty one;
    normalized they give its multiplicity law.  The ratio of consecutive
    terms, ``lam / (c+1) * sqrt(v(c)/v(c+1)) * exp(dhat**2 * tau**2 / (2 v(c) v(c+1)))``,
    is at most ``exp(log_dominating_rate) / (c+1)``.
    """
    d2 = np.asarray(dhat_u, dtype=float)[..., None] ** 2
    c = np.arange(1, cap + 1, dtype=float)
    v0 = params.variance(0)
    v = params.variance(c)
    terms = d2 * (1.0 / v0 - 1.0 / v)  # then in place: the floats of one expression, in one array
    terms *= 0.5
    terms -= 0.5 * np.log(v / v0)
    return np.add(terms, c * math.log(params.lam) - np.cumsum(np.log(c)), out=terms)


def log_dominating_rate(dhat_u, params: ModelParams):
    """Log of ``lam * exp(dhat**2 * g)``, ``g = tau**2 / (2 v(0) v(1))``, which bounds the count ratio.

    ``g``, the gain of a first point, bounds the gain of every later one.  Above ``e**4`` the sampler
    holds a site occupied instead of simulating it; among simulated sites the maximum fixes how far the
    multiplicity law is summed.  A ``dhat`` whose square overflows gives ``+inf``.
    """
    with np.errstate(over="ignore"):
        d2 = np.asarray(dhat_u, dtype=float) ** 2
    return math.log(params.lam) + d2 * _gain(params)


def estimate_sigma_mad(dec: WaveletDecomposition) -> float:
    """Noise level estimate: median absolute finest-level detail over 0.6745.

    The finest-level coefficients of a noisy signal are dominated by noise,
    whose absolute values have median ``0.6745 * sigma``.
    """
    if not dec.n_levels:
        raise ValueError("the decomposition has no finest-level details; cannot estimate a noise level")
    finest = np.abs(dec.details[-1])
    if np.isnan(finest).any():
        raise ValueError("finest-level details hold nan; cannot estimate a noise level")
    med = statistics.median(finest.tolist())  # not np.median, which imports numpy.ma
    if med == 0.0:
        raise ValueError("finest-level details are all zero; cannot estimate a noise level")
    return med / 0.6745
