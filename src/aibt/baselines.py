"""Classical wavelet shrinkage rules used as comparators.

All rules consume a full decomposition and return a new one with the detail
coefficients shrunk; the scaling coefficient always passes through.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .wavelet import WaveletDecomposition

__all__ = [
    "soft_threshold",
    "hard_threshold",
    "universal_threshold",
    "sure_shrink",
    "bayes_thresh",
    "estimate_mixture_hyperparams",
    "fdr_threshold",
]


_SQRT_2PI = math.sqrt(2.0 * math.pi)
_erfc = np.vectorize(math.erfc, otypes=[float])
_inv_cdf = np.vectorize(NormalDist().inv_cdf, otypes=[float])


def _norm_pdf(x: np.ndarray, scale: float) -> np.ndarray:
    """Density of ``N(0, scale**2)``."""
    z = x / scale
    return np.exp(-(z**2) / 2.0) / _SQRT_2PI / scale


def _norm_sf(x: np.ndarray) -> np.ndarray:
    """Upper tail ``P(Z > x)`` of the standard normal; ``erfc`` keeps it accurate far out."""
    return 0.5 * _erfc(x / math.sqrt(2.0))


def soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Shrink towards zero by ``t``, clipping at zero."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def hard_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Zero out entries strictly smaller than ``t`` in magnitude."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < t, 0.0, x)


def universal_threshold(dec: WaveletDecomposition, sigma: float) -> WaveletDecomposition:
    """Soft-threshold every detail at ``sigma * sqrt(2 log n)`` (n = signal length)."""
    t = sigma * np.sqrt(2.0 * np.log(dec.n))
    return WaveletDecomposition([soft_threshold(d, t) for d in dec.details], dec.scaling, dec.filter)


def _sure_threshold(x: np.ndarray, sigma: float) -> float:
    """Minimizer of Stein's unbiased risk estimate for soft thresholding.

    Candidates are the rescaled magnitudes capped at the level-wise
    universal threshold; the risk of soft thresholding at ``t`` is
    ``m - 2 #{|x| <= t} + sum(min(|x|, t)^2)`` in rescaled units.
    """
    m = x.size
    a = np.sort(np.abs(x) / sigma)
    cap = np.sqrt(2.0 * np.log(m))
    cand = np.concatenate([[0.0], np.minimum(a, cap)])
    csum = np.concatenate([[0.0], np.cumsum(a**2)])
    k = np.searchsorted(a, cand, side="right")  # entries at or below each candidate
    risk = m - 2.0 * k + csum[k] + (m - k) * cand**2
    return float(sigma * cand[int(np.argmin(risk))])


def sure_shrink(dec: WaveletDecomposition, sigma: float) -> WaveletDecomposition:
    """Level-by-level soft thresholding with the hybrid SURE rule.

    Levels that look sparse (rescaled energy excess at most
    ``(log2 m)**1.5 / sqrt(m)``) take the level-wise universal threshold
    ``sigma * sqrt(2 log m)``; dense levels take the SURE minimizer.
    On a one-coefficient level both rules give threshold zero.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    out = []
    for d in dec.details:
        m = d.size
        excess = (np.sum((d / sigma) ** 2) - m) / m
        sparse = excess <= np.log2(m) ** 1.5 / np.sqrt(m)
        t = sigma * np.sqrt(2.0 * np.log(m)) if sparse else _sure_threshold(d, sigma)
        out.append(soft_threshold(d, t))
    return WaveletDecomposition(out, dec.scaling, dec.filter)


def _mixture_median(d: np.ndarray, sigma: float, pi: float, tau: float) -> np.ndarray:
    """Posterior median under a point-mass-at-zero / Gaussian slab mixture.

    With prior ``pi * N(0, tau^2) + (1 - pi) * delta_0`` and Gaussian noise,
    the posterior at each observation is a point mass at zero plus a
    Gaussian slab; the median is zero unless the slab carries enough mass
    past zero, which gives thresholding behaviour.
    """
    if not 0.0 <= pi <= 1.0:
        raise ValueError("pi must lie in [0, 1]")
    if pi == 0.0 or tau <= 0.0:
        return np.zeros_like(d)
    s2 = sigma**2 + tau**2
    g1 = _norm_pdf(d, np.sqrt(s2))
    g0 = _norm_pdf(d, sigma)
    w = pi * g1 / (pi * g1 + (1.0 - pi) * g0)
    mu = tau**2 / s2 * np.abs(d)
    nu = np.sqrt(sigma**2 * tau**2 / s2)
    # for d > 0 the median is positive iff w * Phi(mu/nu) > 1/2
    take = w * _norm_sf(-mu / nu) > 0.5
    med = np.zeros_like(d)
    if take.any():
        q = 1.0 - 1.0 / (2.0 * w[take])
        med[take] = np.sign(d[take]) * (mu[take] + nu * _inv_cdf(q))
    return med


def bayes_thresh(
    dec: WaveletDecomposition,
    sigma: float,
    pi,
    tau,
) -> WaveletDecomposition:
    """Independent spike-and-slab posterior medians, level by level.

    ``pi`` and ``tau`` may be scalars or one value per level.
    """
    n_levels = dec.n_levels
    pis = np.broadcast_to(np.asarray(pi, dtype=float), (n_levels,))
    taus = np.broadcast_to(np.asarray(tau, dtype=float), (n_levels,))
    out = [
        _mixture_median(d, sigma, float(pis[j]), float(taus[j]))
        for j, d in enumerate(dec.details)
    ]
    return WaveletDecomposition(out, dec.scaling, dec.filter)


def estimate_mixture_hyperparams(
    dec: WaveletDecomposition, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matching defaults for the mixture weights and slab scales.

    Per level: the weight is the fraction of coefficients exceeding the
    global universal threshold, and the slab variance matches the energy
    surplus ``mean(d^2) - sigma^2`` spread over that weight.  Levels with no
    exceedances get weight zero (the slab scale is then immaterial).
    """
    u = sigma * np.sqrt(2.0 * np.log(dec.n))
    pis = np.zeros(dec.n_levels)
    taus = np.full(dec.n_levels, sigma)
    for j, d in enumerate(dec.details):
        pi = float(np.mean(np.abs(d) > u))
        pis[j] = pi
        if pi > 0:
            surplus = max(float(np.mean(d**2)) - sigma**2, 0.0)
            taus[j] = np.sqrt(max(surplus / pi, 1e-4 * sigma**2))
    return pis, taus


def fdr_threshold(dec: WaveletDecomposition, sigma: float, q: float = 0.05) -> WaveletDecomposition:
    """Hard thresholding with the false-discovery-rate step-up rule.

    Two-sided p-values of all detail coefficients are compared against the
    Benjamini-Hochberg ladder at rate ``q``; the magnitude of the last
    coefficient kept becomes a hard threshold.  With no discoveries all
    details are zeroed.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    flat = dec.flat_details()
    m = flat.size
    p = 2.0 * _norm_sf(np.abs(flat) / sigma)
    order = np.argsort(p)
    ladder = q * (np.arange(1, m + 1) / m)
    passed = np.flatnonzero(p[order] <= ladder)
    if passed.size == 0:
        return WaveletDecomposition([np.zeros_like(d) for d in dec.details], dec.scaling, dec.filter)
    t = float(np.abs(flat[order[passed[-1]]]))
    return dec.with_details(hard_threshold(flat, t))
