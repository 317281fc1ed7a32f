"""Mixture model for wavelet coefficients with an area-interaction occupancy prior.

Each detail coefficient observes ``dhat = d + noise`` with known noise level
``sigma``.  The underlying coefficient is zero unless points of a lattice
point process occupy its site; with multiplicity ``c`` it is centred Gaussian
with variance ``tau**2 * c**z``.  The point process prior has density
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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import Configuration, coverage_measure
from .wavelet import WaveletDecomposition

__all__ = [
    "ModelParams",
    "log_marginal_posterior",
    "log_count_terms",
    "log_dominating_rate",
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
        z: power through which site multiplicity enters the coefficient
            variance ``tau**2 * c**z``.
    """

    lam: float
    gamma: float
    tau: float
    sigma: float
    z: float = 1.0

    def __post_init__(self) -> None:
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")
        if not (self.gamma >= 1 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be at least 1")
        if not (self.tau > 0 and math.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        if not (self.z > 0 and math.isfinite(self.z)):
            raise ValueError("z must be positive and finite")

    def variance(self, count) -> np.ndarray | float:
        """Marginal coefficient variance ``sigma**2 + tau**2 * count**z``."""
        c = np.asarray(count, dtype=float)
        v = self.sigma**2 + self.tau**2 * c**self.z
        return float(v) if v.ndim == 0 else v

    def gain_exponent(self, count) -> np.ndarray | float:
        """Coefficient of ``dhat**2`` in the log likelihood ratio of one more point at a site.

        Adding one point changes the marginal variance from ``v(c)`` to
        ``v(c+1)``; the likelihood-ratio exponent is
        ``tau**2 * ((c+1)**z - c**z) / (2 * v(c) * v(c+1))``.
        """
        c = np.asarray(count, dtype=float)
        v0 = self.variance(c)
        v1 = self.variance(c + 1.0)
        g = self.tau**2 * ((c + 1.0) ** self.z - c**self.z) / (2.0 * v0 * v1)
        return float(g) if np.ndim(g) == 0 else g

    @cached_property
    def max_gain_exponent(self) -> float:
        """Supremum of ``gain_exponent`` over all multiplicities.

        For ``z <= 1`` the gain is largest at an empty site.  For ``z > 1``
        the supremum sits at an interior multiplicity; it is bracketed by a
        continuous scan (an upper bound for the integer supremum, which is
        all the dominating rate needs) with a tail-decay check.
        """
        base = self.gain_exponent(0)
        if self.z <= 1.0:
            return base
        cstar = (self.sigma**2 / self.tau**2) ** (1.0 / self.z)
        hi = 10.0 * (cstar + 1.0) + 1000.0
        grid = np.concatenate([[0.0], np.geomspace(1e-3, hi, 4096)])
        best = float(np.max(self.gain_exponent(grid)))
        # beyond the scan the gain is dominated by z*(c+1)**(z-1) / (2*tau**2*c**(2z))
        tail = self.z * (hi + 1.0) ** (self.z - 1.0) / (2.0 * self.tau**2 * hi ** (2.0 * self.z))
        if tail > best:
            raise ValueError("failed to bound the gain exponent; parameters out of supported range")
        return max(base, best) * (1.0 + 1e-12)


def log_marginal_posterior(
    xi: Configuration,
    dhat: np.ndarray,
    params: ModelParams,
    forced_occupied: np.ndarray | None = None,
) -> float:
    """Log posterior density of a configuration with coefficients integrated out.

    Up to one additive constant shared by all configurations:
    ``N(xi)*log(lam) - coverage(xi)*log(gamma)`` plus, per site, the log
    Gaussian likelihood of ``dhat`` under variance ``v(count)``.
    """
    dhat = np.asarray(dhat, dtype=float)
    if dhat.shape != (xi.lattice.n_sites,):
        raise ValueError("dhat must hold one value per lattice site")
    v = params.variance(xi.counts)
    loglik = float(np.sum(-(dhat**2) / (2.0 * v) - 0.5 * np.log(2.0 * np.pi * v)))
    m_cov = coverage_measure(xi, forced_occupied)
    return xi.n_points * math.log(params.lam) - m_cov * math.log(params.gamma) + loglik


def log_count_terms(dhat_u, params: ModelParams, cap: int) -> np.ndarray:
    """``log(lam**c / c! * N(dhat; 0, v(c)) / N(dhat; 0, v(0)))`` for ``c = 1..cap``.

    One row per entry of ``dhat_u`` (last axis: ``c``).  Summed over ``c``
    the terms give an occupied site's weight against an empty one;
    normalized they give its multiplicity law.  The ratio of consecutive
    terms, ``lam / (c+1) * sqrt(v(c)/v(c+1)) * exp(dhat**2 * gain_exponent(c))``,
    is at most ``exp(log_dominating_rate) / (c+1)``.
    """
    d2 = np.asarray(dhat_u, dtype=float)[..., None] ** 2
    c = np.arange(1, cap + 1, dtype=float)
    v0 = params.variance(0)
    v = params.variance(c)
    log_ratio = d2 * (1.0 / v0 - 1.0 / v) / 2.0 - 0.5 * np.log(v / v0)
    return c * math.log(params.lam) - np.cumsum(np.log(c)) + log_ratio


def log_dominating_rate(dhat_u, params: ModelParams):
    """Log of ``lam * exp(dhat**2 * max_gain_exponent)``, which bounds the count ratio.

    Above ``e**4`` the sampler holds a site occupied instead of simulating
    it; among simulated sites its maximum fixes how far the multiplicity
    law has to be summed.
    """
    d2 = np.asarray(dhat_u, dtype=float) ** 2
    out = math.log(params.lam) + d2 * params.max_gain_exponent
    return float(out) if out.ndim == 0 else out


def estimate_sigma_mad(dec: WaveletDecomposition) -> float:
    """Noise level estimate: median absolute finest-level detail over 0.6745.

    The finest-level coefficients of a noisy signal are dominated by noise,
    whose absolute values have median ``0.6745 * sigma``.
    """
    finest = dec.details[-1]
    med = float(np.median(np.abs(finest)))
    if med == 0.0:
        raise ValueError("finest-level details are all zero; cannot estimate a noise level")
    return med / 0.6745
