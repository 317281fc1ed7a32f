"""Bayesian wavelet denoising with an area-interaction prior on the coefficient tree.

The package couples an orthonormal wavelet transform with a marked point
process prior whose interaction term rewards spatially clustered detail
coefficients.  Posterior samples are drawn by monotone coupling-from-the-past
on the occupancy field, exact for the tier-conditioned posterior (sites with
overwhelming coefficients held occupied), and signal estimates are
per-coefficient posterior medians.  Classical thresholding rules and a
reproducible benchmark harness are included for comparison.
"""

from .baselines import (
    bayes_thresh,
    estimate_mixture_hyperparams,
    fdr_threshold,
    hard_threshold,
    soft_threshold,
    sure_shrink,
    universal_threshold,
)
from .bench import METHODS, ExperimentConfig, ResultRow, amse, emit_csv, load_config, run_experiment
from .cftp import CoalescenceError, Tier, cftp_sample, classify_sites
from .estimator import denoise, posterior_median_estimate, sample_coefficients
from .lattice import Configuration, Lattice, coverage_measure, neighbourhood, uncovered_measure
from .model import ModelParams, estimate_sigma_mad, log_dominating_rate, log_marginal_posterior
from .wavelet import (
    DAUB_LA10,
    HAAR,
    SIGNAL_NAMES,
    WaveletDecomposition,
    WaveletFilter,
    add_noise,
    forward_dwt,
    get_filter,
    inverse_dwt,
    make_test_signal,
)

__version__ = "0.1.0"
