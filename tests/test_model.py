"""Model terms: variances, count terms, the count-vector law against its oracle, quadrature check."""

import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from aibt.lattice import Lattice
from aibt.model import (
    ModelParams,
    estimate_sigma_mad,
    log_count_terms,
    log_dominating_rate,
    log_marginal_posterior,
)
from aibt.wavelet import HAAR, WaveletDecomposition
from oracles import log_density, site_of, uncovered_measure

RNG = np.random.default_rng(7)


# --- parameters ---------------------------------------------------------------


def test_params_validation():
    ModelParams(lam=0.1, gamma=1.0, tau=1.0, sigma=0.5)
    for bad in (
        dict(lam=0.0, gamma=2.0, tau=1.0, sigma=1.0),
        dict(lam=1.0, gamma=0.5, tau=1.0, sigma=1.0),
        dict(lam=1.0, gamma=2.0, tau=0.0, sigma=1.0),
        dict(lam=1.0, gamma=2.0, tau=1.0, sigma=-1.0),
    ):
        with pytest.raises(ValueError):
            ModelParams(**bad)
    # tau and sigma enter squared: a square that overflows or underflows to zero names its field,
    # and so does any field given an integer too large for a float, as a JSON config can give one, or a complex value
    for name, value in (("tau", 1e160), ("sigma", 1e200), ("tau", 1e-170), ("sigma", 1e-200),
                        ("lam", 10**400), ("gamma", 10**400), ("tau", 10**400), ("sigma", 10**400),
                        ("lam", 1 + 1j), ("gamma", 1 + 1j), ("tau", 1 + 1j), ("sigma", 1 + 1j)):
        with pytest.raises(ValueError, match=f"^{name} "):
            ModelParams(**{"lam": 1.0, "gamma": 2.0, "tau": 1.0, "sigma": 1.0, name: value})
    # tau**2 / sigma**2 must not overflow, and the gain tau**2 / (2 v(0) v(1)) must be neither 0 nor inf
    for tau, sigma in ((1.3407807929942596e154, 1e-154), (1.34e154, 0.1), (1.0, 1e154), (1e-150, 1e50),
                       (1e-154, 1e-154)):
        with pytest.raises(ValueError, match=r"^tau\*\*2 / sigma\*\*2 must be finite"):
            ModelParams(lam=1.0, gamma=2.0, tau=tau, sigma=sigma)
    ModelParams(lam=1.0, gamma=2.0, tau=1e153, sigma=1.0)
    ModelParams(lam=1.0, gamma=2.0, tau=1.0, sigma=1e-154)


def test_numpy_scalar_params_are_stored_as_floats_and_rejected_without_warnings():
    """A numpy scalar whose square overflows raises the ValueError before numpy can warn on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau, sigma in ((np.float64(1e200), 1.0), (np.float64(1.34e154), np.float64(0.1))):
            with pytest.raises(ValueError):
                ModelParams(0.05, 3.0, tau, sigma)
        p = ModelParams(np.float64(0.05), np.float32(3.0), np.float64(1.0), np.int64(1))
    assert all(type(getattr(p, name)) is float for name in ("lam", "gamma", "tau", "sigma"))


def test_variance_and_gain_formulas():
    p = ModelParams(lam=0.5, gamma=3.0, tau=1.0, sigma=0.1)
    assert p.variance(0) == pytest.approx(0.01, rel=1e-15)
    assert p.variance(3) == pytest.approx(3.01, abs=1e-15)
    # the rate's exponent per dhat^2 is the gain of a first point, tau^2 / (2 v(0) v(1))
    assert log_dominating_rate(1.0, p) - math.log(0.5) == pytest.approx(49.5049504950495, abs=1e-12)


def _gain(p: ModelParams, c):
    """Coefficient of dhat^2 in the log likelihood ratio of point c+1 to point c: tau^2 / (2 v(c) v(c+1))."""
    return p.tau**2 / (2 * p.variance(c) * p.variance(c + 1))


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_max_gain_is_at_zero_for_concave_counts(sigma):
    """The variance grows linearly in the count, so the first point gains the most, and the rate's
    exponent is that gain."""
    p = ModelParams(lam=0.5, gamma=2.0, tau=1.3, sigma=sigma)
    gains = _gain(p, np.arange(200.0))
    assert np.all(np.diff(gains) < 0)
    assert log_dominating_rate(1.0, p) - math.log(0.5) == pytest.approx(gains[0], rel=1e-12)


def test_max_gain_analytic_example():
    p = ModelParams(lam=1.0, gamma=2.0, tau=1.0, sigma=1.0)
    assert log_dominating_rate(1.0, p) == pytest.approx(0.25, rel=1e-12)


# --- conditional intensity factors -----------------------------------------------
#
# In the factorization of the conditional intensity of a new point at u,
# f1 = lam, f2 = gamma**-(coverage it adds), f3 = exp(dhat**2 * gain(c)) and
# f4 = sqrt(v(c) / v(c+1)).  The occupancy field uses f2 through the
# uncovered count, and f1*f3*f4 / (c+1) as the ratio of consecutive count terms.


def test_factor_frozen_values():
    lat = Lattice(6)
    p = ModelParams(lam=0.5, gamma=3.0, tau=1.0, sigma=0.1)
    empty = np.zeros(lat.n_sites, dtype=np.int64)
    u = (3, 4)  # interior site with the full 9-site neighbourhood
    assert p.gamma ** -uncovered_measure(u, empty) == pytest.approx(3.0**-9, rel=1e-12)
    # a_1 = f1 * f3 * f4 at an empty site with dhat = 2
    log_a1 = float(log_count_terms(2.0, p, 1)[0])
    assert log_a1 == pytest.approx(
        math.log(0.5) + 198.019801980198 + 0.5 * math.log(0.01 / 1.01), abs=1e-9
    )


def test_f4_multiplicity_example():
    p = ModelParams(lam=1.0, gamma=2.0, tau=1.0, sigma=1.0)
    terms = log_count_terms(0.0, p, 6)
    # a_6 / a_5 = f1 * f3 * f4 / 6 with f3 = 1 at dhat = 0 and f4 = sqrt(6/7)
    assert terms[5] - terms[4] == pytest.approx(math.log(math.sqrt(6.0 / 7.0) / 6.0), abs=1e-12)


def test_factor_bounds_random_states():
    """f2 never exceeds one; the count-term ratio stays under the dominating rate over c+1."""
    lat = Lattice(4)
    for _ in range(300):
        p = ModelParams(
            lam=float(RNG.uniform(0.05, 2.0)), gamma=float(RNG.uniform(1.0, 4.0)),
            tau=float(RNG.uniform(0.3, 2.0)), sigma=float(RNG.uniform(0.1, 1.0)),
        )
        counts = RNG.poisson(0.5, lat.n_sites)
        u = site_of(int(RNG.integers(lat.n_sites)))
        assert 0 < p.gamma ** -uncovered_measure(u, counts) <= 1.0
        d = float(RNG.normal(0, 1.0))
        terms = log_count_terms(d, p, 40)
        c = np.arange(1, 40)
        assert np.all(terms[1:] - terms[:-1] <= log_dominating_rate(d, p) - np.log(c + 1) + 1e-12)


def test_intensity_equals_density_ratio():
    """Moving a site's count from 0 to c changes the log probability by its count term and f2."""
    lat = Lattice(3)
    p = ModelParams(lam=0.4, gamma=2.0, tau=1.1, sigma=0.6)
    for _ in range(120):
        counts = RNG.poisson(0.6, lat.n_sites)
        dhat = RNG.normal(0, 1.2, lat.n_sites)
        s = int(RNG.integers(lat.n_sites))
        c = int(RNG.integers(1, 6))
        counts[s] = 0
        plus = counts.copy()
        plus[s] = c
        delta = log_marginal_posterior(plus, dhat, p) - log_marginal_posterior(counts, dhat, p)
        expected = float(log_count_terms(dhat[s], p, c)[-1]) - uncovered_measure(site_of(s), counts) * math.log(p.gamma)
        assert delta == pytest.approx(expected, abs=1e-10)


def test_log_marginal_posterior_matches_independent_formula():
    lat = Lattice(3)
    p = ModelParams(lam=0.4, gamma=2.5, tau=0.9, sigma=0.5)
    for _ in range(60):
        counts = RNG.poisson(0.7, lat.n_sites)
        dhat = RNG.normal(0, 1.0, lat.n_sites)
        ref = log_density(counts.tolist(), dhat, p, lat)
        assert log_marginal_posterior(counts, dhat, p) == pytest.approx(ref, abs=1e-10)


# --- marginal likelihood vs quadrature ---------------------------------------------


@pytest.mark.parametrize("c", [1, 2, 5])
@pytest.mark.parametrize("tau", [1.0, 1.7])
def test_site_likelihood_matches_gauss_hermite(c, tau):
    """The closed-form site likelihood equals numerically integrating out the mean.

    A site holding ``c`` points models its coefficient as Gaussian with
    variance ``tau^2 c`` around zero plus observation noise, so the
    marginal of the observed value is Gaussian with the two variances
    added; the quadrature integrates the noise density against the prior.
    """
    p = ModelParams(lam=0.5, gamma=2.0, tau=tau, sigma=0.35)
    nodes, weights = hermegauss(120)  # weight exp(-x^2/2), total mass sqrt(2 pi)
    prior_var = p.tau**2 * float(c)
    for dhat in (0.0, 0.4, -1.3, 2.5):
        # integrate over the (narrower) noise; the convolution is symmetric
        eps = nodes * p.sigma
        dens = np.exp(-((dhat - eps) ** 2) / (2 * prior_var)) / math.sqrt(
            2 * math.pi * prior_var
        )
        integral = float(np.dot(weights, dens)) / math.sqrt(2 * math.pi)
        v = p.variance(c)
        closed = math.exp(-(dhat**2) / (2 * v)) / math.sqrt(2 * math.pi * v)
        assert closed == pytest.approx(integral, rel=1e-6)


# --- dominating rate ----------------------------------------------------------------


def test_dominating_rate_identity():
    p = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
    gain = 1.0 / (2 * 0.25 * 1.25)  # tau^2 / (2 sigma^2 (sigma^2 + tau^2))
    for d in (0.0, 0.7, -2.0):
        assert log_dominating_rate(d, p) == pytest.approx(math.log(0.5) + d**2 * gain, abs=1e-12)
    # vector form; huge signals stay finite in log space
    rates = log_dominating_rate(np.array([0.0, 40.0, 1e6]), p)
    assert rates.shape == (3,)
    assert np.isfinite(rates).all()
    assert rates[1] == pytest.approx(math.log(0.5) + 1600.0 * gain)
    # a signal whose square overflows has an infinite rate, with no floating-point warning
    with np.errstate(all="raise"):
        assert log_dominating_rate(np.array([1e200, -1e300]), p).tolist() == [math.inf, math.inf]


def test_count_terms_stay_finite_for_huge_signals():
    p = ModelParams(lam=1.0, gamma=2.0, tau=1.0, sigma=0.05)
    terms = log_count_terms(np.array([60.0, 1e6]), p, 50)
    assert terms.shape == (2, 50)
    assert np.isfinite(terms).all()


# --- noise scale estimate --------------------------------------------------------------


def test_estimate_sigma_mad_frozen():
    details = np.array([0.0, 0.0, 0.0, 0.1, -0.2, 0.3, -0.4])
    dec = WaveletDecomposition(details, 0.0, HAAR)
    assert estimate_sigma_mad(dec) == pytest.approx(0.37064492216456635, rel=1e-12)


def test_estimate_sigma_mad_rejects_degenerate():
    details = np.array([5.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    dec = WaveletDecomposition(details, 0.0, HAAR)
    with pytest.raises(ValueError):
        estimate_sigma_mad(dec)
    with pytest.raises(ValueError, match="no finest-level details"):  # the 1-sample decomposition
        estimate_sigma_mad(WaveletDecomposition(np.zeros(0), 1.0, HAAR))


def test_estimate_sigma_mad_rejects_nan_details():
    """A nan among the finest details raises a ValueError that names it, rather than returning nan."""
    dec = WaveletDecomposition(np.array([np.nan, 1.0, np.nan]), 0.0, HAAR)
    with pytest.raises(ValueError, match="nan"):
        estimate_sigma_mad(dec)
