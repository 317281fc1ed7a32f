"""Signal estimation: posterior draws of coefficients and per-site medians.

Given an exact occupancy draw, each detail coefficient is conditionally
Gaussian: shrunk towards zero at a simulated occupied site, exactly zero
at an empty one, and centred on the observation at a held site.
Repeating the draw and taking per-site medians yields the posterior-median
estimate, which is then mapped back through the inverse transform.  The
scaling coefficient is never shrunk.
"""

from __future__ import annotations

import numpy as np

from .cftp import cftp_counts, held_sites
from .lattice import Configuration, Lattice, lattice_for
from .model import ModelParams
from .wavelet import WaveletDecomposition, WaveletFilter, forward_dwt, inverse_dwt

__all__ = [
    "sample_coefficients",
    "posterior_median_estimate",
    "denoise",
]


def sample_coefficients(
    xi: Configuration,
    dhat: np.ndarray,
    params: ModelParams,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """One draw of all detail coefficients given an occupancy configuration.

    At a site with multiplicity ``c > 0`` the coefficient is Gaussian with
    mean ``w * dhat`` and variance ``w * sigma**2`` where
    ``w = tau**2 c**z / (sigma**2 + tau**2 c**z)``; empty sites give exactly
    zero.  A held site (see :func:`~aibt.cftp.held_sites`) takes ``w = 1``
    whatever its count, so its coefficient is drawn from ``N(dhat, sigma**2)``.
    """
    dhat = np.asarray(dhat, dtype=float)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    held = held_sites(dhat, params)
    d = np.zeros(dhat.size)
    noise = rng.standard_normal(dhat.size)
    v = params.tau**2 * xi.counts.astype(float) ** params.z
    w = np.where(held, 1.0, v / (params.sigma**2 + v))
    nz = held | (xi.counts > 0)
    d[nz] = w[nz] * dhat[nz] + np.sqrt(w[nz]) * params.sigma * noise[nz]
    return d


def posterior_median_estimate(
    dhat: np.ndarray,
    params: ModelParams,
    n_draws: int = 25,
    seed: int | np.random.SeedSequence = 0,
    *,
    lattice: Lattice | None = None,
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
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(child) for child in ss.spawn(n_draws)]
    counts = cftp_counts(dhat, params, rngs, max_doublings, lattice=lattice)
    draws = np.empty((n_draws, dhat.size))
    for i, rng in enumerate(rngs):
        draws[i] = sample_coefficients(Configuration(lattice, counts[i]), dhat, params, rng)
    return np.sort(draws, axis=0)[(n_draws - 1) // 2]


def denoise(
    y: np.ndarray,
    filt: WaveletFilter,
    params: ModelParams,
    n_draws: int = 25,
    seed: int = 0,
    *,
    max_doublings: int = 20,
) -> np.ndarray:
    """Denoise a signal end to end: transform, estimate details, invert.

    The scaling coefficient passes through unchanged.
    """
    dec = forward_dwt(y, filt)
    dhat = dec.flat_details()
    est = posterior_median_estimate(dhat, params, n_draws, seed, max_doublings=max_doublings)
    return inverse_dwt(dec.with_details(est))
