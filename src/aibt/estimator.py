"""Signal estimation: posterior draws of coefficients and per-site medians.

Given an exact occupancy draw, each detail coefficient is conditionally
Gaussian: shrunk towards zero at a simulated occupied site, exactly zero
at an empty one, and centred on the observation at a held site.
Repeating the draw and taking per-site medians yields the posterior-median
estimate, which is then mapped back through the inverse transform.  The
coefficients are drawn and sorted only at held sites and at the sites more
than ``(n_draws - 1) // 2`` draws occupy; every other median is exactly
zero.  The scaling coefficient is never shrunk.
"""

from __future__ import annotations

import numbers

import numpy as np

from .cftp import cftp_counts, held_sites
from .model import ModelParams, check_dhat
from .wavelet import WaveletDecomposition, WaveletFilter, forward_dwt, inverse_dwt

__all__ = [
    "posterior_median_estimate",
    "denoise",
]


def _coefficients(
    counts: np.ndarray,
    dhat: np.ndarray,
    params: ModelParams,
    held: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Coefficient draws, one per entry of ``counts``, from standard normal ``noise`` of its shape.

    Occupied sites draw from ``N(w * dhat, w * sigma**2)``, ``w = tau**2 c / (sigma**2 + tau**2 c)``;
    empty sites give exactly zero, and ``held`` sites (:func:`~aibt.cftp.held_sites`) take ``w = 1``.
    """
    v = params.tau**2 * counts.astype(float)
    w = np.where(held, 1.0, v / (params.sigma**2 + v))
    return np.where(held | (counts > 0), w * dhat + np.sqrt(w) * params.sigma * noise, 0.0)


def posterior_median_estimate(
    dhat: np.ndarray,
    params: ModelParams,
    n_draws: int = 25,
    seed: int | np.random.SeedSequence = 0,
) -> np.ndarray:
    """Per-site posterior median of the detail coefficients over exact draws.

    Draw ``i`` uses the generator of the ``i``-th child of ``seed`` for its
    coupling and then its coefficients; all couplings run as one batch.
    The median is the lower middle order statistic, so with few draws and
    mostly-empty sites it is exactly zero; estimates are genuinely sparse.
    """
    if not isinstance(n_draws, numbers.Integral) or isinstance(n_draws, bool):
        raise ValueError(f"n_draws must be an integer, not {n_draws!r}")
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    dhat = check_dhat(dhat)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(child) for child in ss.spawn(n_draws)]
    counts = cftp_counts(dhat, params, rngs)
    held = held_sites(dhat, params)
    cols = np.flatnonzero(held | ((counts > 0).sum(axis=0) > (n_draws - 1) // 2))
    noise = np.stack([rng.standard_normal(cols[-1] + 1 if cols.size else 0) for rng in rngs])
    draws = _coefficients(counts[:, cols], dhat[cols], params, held[cols], noise[:, cols])
    est = np.zeros(dhat.size)
    est[cols] = np.sort(draws, axis=0)[(n_draws - 1) // 2]
    return est


def denoise(
    y: np.ndarray,
    filt: WaveletFilter,
    params: ModelParams,
    n_draws: int = 25,
    seed: int | np.random.SeedSequence = 0,
) -> np.ndarray:
    """Denoise a signal end to end: transform, estimate details, invert.

    ``seed`` is passed to :func:`posterior_median_estimate`.  The scaling
    coefficient passes through unchanged.
    """
    dec = forward_dwt(y, filt)
    dhat = dec.flat_details()
    est = posterior_median_estimate(dhat, params, n_draws, seed)
    return inverse_dwt(dec.with_details(est))
