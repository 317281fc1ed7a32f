"""Signal estimation: posterior draws of coefficients and per-site medians.

Given an exact occupancy draw, each detail coefficient is conditionally
Gaussian (or exactly zero at empty sites); repeating the draw and taking
per-site medians yields the posterior-median estimate, which is then mapped
back through the inverse transform.  The scaling coefficient is never
shrunk.
"""

from __future__ import annotations

import math

import numpy as np

from .cftp import DEFAULT_DIRECT_CUTOFF, DEFAULT_SIMULATION_CUTOFF, Tier, cftp_counts, classify_sites
from .lattice import Configuration, Lattice, lattice_for
from .model import ModelParams, log_dominating_rate
from .wavelet import WaveletDecomposition, WaveletFilter, forward_dwt, inverse_dwt

__all__ = [
    "sample_coefficients",
    "posterior_median_estimate",
    "denoise",
]

_NORMAL_APPROX_LOG_RATE = math.log(1e15)  # Poisson draws above this rate use a Gaussian


def _occupied_assumed_counts(
    dhat: np.ndarray, params: ModelParams, sites: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Multiplicity draws for sites treated as permanently occupied.

    The count is the stationary dominating count: Poisson with the (possibly
    saturated) dominating rate, switched to its Gaussian limit when the rate
    is too large for a direct Poisson draw to be meaningful.
    """
    log_rate = np.atleast_1d(log_dominating_rate(dhat[sites], params))
    counts = np.zeros(sites.size, dtype=np.int64)
    small = log_rate <= _NORMAL_APPROX_LOG_RATE
    if small.any():
        counts[small] = rng.poisson(np.exp(log_rate[small]))
    if (~small).any():
        rate = np.exp(np.minimum(log_rate[~small], 700.0))
        counts[~small] = np.maximum(np.rint(rng.normal(rate, np.sqrt(rate))), 0.0).astype(np.int64)
    return counts


def sample_coefficients(
    xi: Configuration,
    dhat: np.ndarray,
    params: ModelParams,
    tiers: np.ndarray | None = None,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """One draw of all detail coefficients given an occupancy configuration.

    At a site with multiplicity ``c > 0`` the coefficient is Gaussian with
    mean ``w * dhat`` and variance ``w * sigma**2`` where
    ``w = tau**2 c**z / (sigma**2 + tau**2 c**z)``; empty simulated sites
    give exactly zero.  Sites assumed occupied use a stationary dominating
    multiplicity; direct-tier sites draw from ``N(dhat, sigma**2)``.
    """
    dhat = np.asarray(dhat, dtype=float)
    if tiers is None:
        tiers = classify_sites(dhat, params)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    counts = xi.counts.astype(float).copy()
    occ = np.flatnonzero(tiers == Tier.OCCUPIED_ASSUMED)
    if occ.size:
        counts[occ] = _occupied_assumed_counts(dhat, params, occ, rng)
    d = np.zeros(dhat.size)
    noise = rng.standard_normal(dhat.size)
    nz = (counts > 0) & (tiers != Tier.DIRECT)
    if nz.any():
        v = params.tau**2 * counts[nz] ** params.z
        w = v / (params.sigma**2 + v)
        d[nz] = w * dhat[nz] + np.sqrt(w) * params.sigma * noise[nz]
    direct = tiers == Tier.DIRECT
    if direct.any():
        d[direct] = dhat[direct] + params.sigma * noise[direct]
    return d


def posterior_median_estimate(
    dhat: np.ndarray,
    params: ModelParams,
    n_draws: int = 25,
    seed: int | np.random.SeedSequence = 0,
    *,
    lattice: Lattice | None = None,
    tiers: np.ndarray | None = None,
    max_doublings: int = 20,
) -> np.ndarray:
    """Per-site posterior median of the detail coefficients over exact draws.

    Draw ``i`` uses the generator of the ``i``-th child of ``seed`` for its
    coupling and then its coefficients; all couplings run as one batch.
    The median is the lower middle order statistic, so with few draws and
    mostly-empty sites it is exactly zero; estimates are genuinely sparse.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    dhat = np.asarray(dhat, dtype=float)
    if lattice is None:
        lattice = lattice_for(dhat.size)
    if tiers is None:
        tiers = classify_sites(dhat, params)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(child) for child in ss.spawn(n_draws)]
    counts = cftp_counts(dhat, params, rngs, max_doublings, lattice=lattice, tiers=tiers)
    draws = np.empty((n_draws, dhat.size))
    for i, rng in enumerate(rngs):
        draws[i] = sample_coefficients(Configuration(lattice, counts[i]), dhat, params, tiers, rng)
    return np.sort(draws, axis=0)[(n_draws - 1) // 2]


def denoise(
    y: np.ndarray,
    filt: WaveletFilter,
    params: ModelParams,
    n_draws: int = 25,
    seed: int = 0,
    *,
    t1: float = DEFAULT_SIMULATION_CUTOFF,
    t2: float = DEFAULT_DIRECT_CUTOFF,
    max_doublings: int = 20,
) -> np.ndarray:
    """Denoise a signal end to end: transform, estimate details, invert.

    The scaling coefficient passes through unchanged; ``t1`` and ``t2`` are
    the tier cutoffs of :func:`classify_sites`.
    """
    dec = forward_dwt(y, filt)
    dhat = dec.flat_details()
    tiers = classify_sites(dhat, params, t1, t2)
    est = posterior_median_estimate(dhat, params, n_draws, seed, tiers=tiers, max_doublings=max_doublings)
    return inverse_dwt(dec.with_details(est))
