"""Bayesian wavelet denoising with an area-interaction prior on the coefficient tree.

The package couples an orthonormal wavelet transform with a marked point
process prior whose interaction term rewards spatially clustered detail
coefficients.  Posterior samples are drawn by monotone coupling-from-the-past
on the occupancy field, exact given the held sites (those with overwhelming
coefficients, kept occupied and their coefficients taken from the
observation), and signal estimates are per-coefficient posterior medians.
Classical thresholding rules and a reproducible benchmark harness are
included for comparison.

This namespace holds the names the README and demos use; everything else
is imported from its submodule.
"""

from .baselines import (
    bayes_thresh,
    estimate_mixture_hyperparams,
    fdr_threshold,
    sure_shrink,
    universal_threshold,
)
from .bench import ExperimentConfig, emit_csv, run_experiment
from .cftp import CoalescenceError, cftp_counts
from .estimator import denoise, posterior_median_estimate
from .lattice import Lattice, coverage_measure
from .model import ModelParams, estimate_sigma_mad, log_marginal_posterior
from .wavelet import (
    SIGNAL_NAMES,
    forward_dwt,
    get_filter,
    inverse_dwt,
    make_test_signal,
)

__version__ = "0.1.0"
