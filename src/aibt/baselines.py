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


_erfc = np.vectorize(math.erfc, otypes=[float])
_inv_cdf = np.vectorize(NormalDist().inv_cdf, otypes=[float])


def _check_sigma(sigma: float) -> None:
    """Reject a noise level that is not positive and finite."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")


def _norm_sf(x: np.ndarray) -> np.ndarray:
    """Upper tail ``P(Z > x)`` of the standard normal; ``erfc`` keeps it accurate far out."""
    return 0.5 * _erfc(x / math.sqrt(2.0))


def soft_threshold(x: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """Shrink towards zero by ``t`` (a scalar or one per entry), clipping at zero."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def hard_threshold(x: np.ndarray, t: float) -> np.ndarray:
    """Zero out entries strictly smaller than ``t`` in magnitude."""
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < t, 0.0, x)


def universal_threshold(dec: WaveletDecomposition, sigma: float) -> WaveletDecomposition:
    """Soft-threshold every detail at ``sigma * sqrt(2 log n)`` (n = signal length)."""
    _check_sigma(sigma)
    t = sigma * np.sqrt(2.0 * np.log(dec.n))
    return dec.with_details(soft_threshold(dec.flat_details(), t))


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
    with np.errstate(over="ignore"):  # sums that overflow hold entries past the cap, which no risk reads
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
    _check_sigma(sigma)
    ts = []
    for d in dec.details:
        m = d.size
        with np.errstate(over="ignore"):  # an inf energy marks the level dense
            excess = (np.sum((d / sigma) ** 2) - m) / m
        sparse = excess <= np.log2(m) ** 1.5 / np.sqrt(m)
        ts.append(sigma * np.sqrt(2.0 * np.log(m)) if sparse else _sure_threshold(d, sigma))
    return dec.with_details(soft_threshold(dec.flat_details(), np.repeat(ts, [d.size for d in dec.details])))


def _mixture_median(d: np.ndarray, sigma: float, pi: float | np.ndarray, tau: float | np.ndarray) -> np.ndarray:
    """Posterior median under a point-mass-at-zero / Gaussian slab mixture.

    With prior ``pi * N(0, tau^2) + (1 - pi) * delta_0`` and Gaussian noise,
    the posterior at each observation is a point mass at zero plus a
    Gaussian slab; the median is zero unless the slab carries enough mass
    past zero, which gives thresholding behaviour.
    """
    pi, tau = np.broadcast_to(pi, d.shape), np.broadcast_to(tau, d.shape)
    if not np.all((pi >= 0.0) & (pi <= 1.0)):
        raise ValueError("pi must lie in [0, 1]")
    med = np.zeros_like(d)
    # rho = tau**2 / (sigma**2 + tau**2) is taken from sigma / tau, so no tau is squared; the slab weight is the
    # logistic of the log density ratio, which is +inf at pi = 1 or where (d / sigma)**2 overflows
    with np.errstate(divide="ignore", over="ignore"):
        r = sigma / tau
        rho = 1.0 / (1.0 + r**2)
        # the median is exactly 0 where pi = 0, tau = 0, or rho = 0 ((sigma / tau)**2 overflows: no slab is left)
        live = np.flatnonzero((pi > 0.0) & (tau > 0.0) & (rho > 0.0))
        d, pi, r, rho = d[live], pi[live], r[live], rho[live]
        x = np.log(pi / (1.0 - pi)) + np.log(r) + 0.5 * np.log(rho) + (d / sigma) ** 2 * rho / 2
        w = 0.5 + 0.5 * np.tanh(x / 2)
    mu = rho * np.abs(d)
    nu = sigma * np.sqrt(rho)
    # for d > 0 the median is positive iff w * Phi(mu/nu) > 1/2; mu/nu may overflow to inf, where Phi is 1
    with np.errstate(over="ignore"):
        take = w * _norm_sf(-mu / nu) > 0.5
    q = 1.0 - 1.0 / (2.0 * w[take])
    med[live[take]] = np.sign(d[take]) * (mu[take] + nu[take] * _inv_cdf(q))
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
    _check_sigma(sigma)
    sizes = [d.size for d in dec.details]
    pis = np.repeat(np.broadcast_to(np.asarray(pi, dtype=float), (dec.n_levels,)), sizes)
    taus = np.repeat(np.broadcast_to(np.asarray(tau, dtype=float), (dec.n_levels,)), sizes)
    return dec.with_details(_mixture_median(dec.flat_details(), sigma, pis, taus))


def estimate_mixture_hyperparams(
    dec: WaveletDecomposition, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matching defaults for the mixture weights and slab scales.

    Per level: the weight is the fraction of coefficients exceeding the
    global universal threshold, and the slab variance matches the energy
    surplus ``mean(d^2) - sigma^2`` spread over that weight.  Levels with no
    exceedances get weight zero (the slab scale is then immaterial).
    """
    _check_sigma(sigma)
    u = sigma * np.sqrt(2.0 * np.log(dec.n))
    pis = np.zeros(dec.n_levels)
    taus = np.full(dec.n_levels, sigma)
    for j, d in enumerate(dec.details):
        pi = float(np.mean(np.abs(d) > u))
        pis[j] = pi
        if pi > 0:
            s = float(np.max(np.abs(d)))  # squares in units of the largest magnitude cannot overflow
            surplus = max(float(np.mean((d / s) ** 2)) - (sigma / s) ** 2, 0.0)
            taus[j] = s * np.sqrt(max(surplus / pi, 1e-4 * (sigma / s) ** 2))
    return pis, taus


def fdr_threshold(dec: WaveletDecomposition, sigma: float, q: float = 0.05) -> WaveletDecomposition:
    """Hard thresholding with the false-discovery-rate step-up rule.

    Two-sided p-values of all detail coefficients are compared against the
    Benjamini-Hochberg ladder at rate ``q``; the smallest magnitude among the
    discoveries becomes a hard threshold, so p-values that tie (at 0, far
    out) keep every discovery.  With no discoveries all details are zeroed.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    _check_sigma(sigma)
    flat = dec.flat_details()
    m = flat.size
    p = 2.0 * _norm_sf(np.abs(flat) / sigma)
    order = np.argsort(p)
    ladder = q * (np.arange(1, m + 1) / m)
    passed = np.flatnonzero(p[order] <= ladder)
    if passed.size == 0:
        return dec.with_details(np.zeros_like(flat))
    t = float(np.abs(flat[order[: passed[-1] + 1]]).min())
    return dec.with_details(hard_threshold(flat, t))
