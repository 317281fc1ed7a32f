"""Coefficient draws, posterior medians, and the end-to-end denoiser."""

import math

import numpy as np
import pytest

from aibt.cftp import cftp_sample, held_sites
from aibt.estimator import denoise, posterior_median_estimate, sample_coefficients
from aibt.lattice import Configuration, Lattice
from aibt.model import ModelParams
from aibt.wavelet import add_noise, forward_dwt, get_filter, make_test_signal

PARAMS = ModelParams(lam=0.5, gamma=2.0, tau=0.9, sigma=0.4)


def _fixed_config(counts):
    lat = Lattice(2)
    return Configuration.from_counts(lat, np.asarray(counts))


def test_empty_sites_give_exact_zeros():
    xi = _fixed_config([0, 2, 0])
    dhat = np.array([1.0, 0.3, -0.7])
    assert not held_sites(dhat, PARAMS).any()
    for seed in range(10):
        d = sample_coefficients(xi, dhat, PARAMS, seed)
        assert d[0] == 0.0 and d[2] == 0.0
        assert d[1] != 0.0


def test_occupied_site_conditional_moments():
    """Given a count, the draw is Gaussian shrinkage of the observation."""
    c = 2
    xi = _fixed_config([c, 0, 0])
    dhat = np.array([1.1, 0.0, 0.0])
    rng = np.random.default_rng(123)
    n = 20000
    draws = np.array([sample_coefficients(xi, dhat, PARAMS, rng)[0] for _ in range(n)])
    v_signal = PARAMS.tau**2 * c  # z = 1
    w = v_signal / (PARAMS.sigma**2 + v_signal)
    mean_se = math.sqrt(w) * PARAMS.sigma / math.sqrt(n)
    assert draws.mean() == pytest.approx(w * 1.1, abs=4 * mean_se)
    assert draws.var(ddof=1) == pytest.approx(w * PARAMS.sigma**2, rel=0.05)


def test_held_site_moments():
    """A held site's coefficient is drawn from N(dhat, sigma**2) whatever its count."""
    d_held = 1.8863236699596295  # dominating rate e**5 under these parameters
    p = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
    dhat = np.array([d_held, 0.0, 0.0])
    assert held_sites(dhat, p).tolist() == [True, False, False]
    rng = np.random.default_rng(9)
    n = 20000
    for counts in ([0, 0, 0], [3, 0, 0]):
        xi = _fixed_config(counts)
        draws = np.array([sample_coefficients(xi, dhat, p, rng)[0] for _ in range(n)])
        assert draws.mean() == pytest.approx(d_held, abs=4 * p.sigma / math.sqrt(n))
        assert draws.std(ddof=1) == pytest.approx(p.sigma, rel=0.025)


def test_posterior_median_is_lower_middle_order_statistic():
    """The estimator equals replaying its seed discipline by hand."""
    dhat = np.array([0.8, -0.3, 0.5])
    lat = Lattice(2)
    n_draws = 6
    ss = np.random.SeedSequence(2024)
    draws = np.empty((n_draws, 3))
    for i, child in enumerate(ss.spawn(n_draws)):
        rng = np.random.default_rng(child)
        xi = cftp_sample(dhat, PARAMS, rng, lattice=lat)
        draws[i] = sample_coefficients(xi, dhat, PARAMS, rng)
    expected = np.sort(draws, axis=0)[(n_draws - 1) // 2]
    got = posterior_median_estimate(dhat, PARAMS, n_draws=n_draws, seed=2024)
    assert np.array_equal(got, expected)


def test_posterior_median_deterministic():
    # strong signal so the medians are nonzero and seed differences show
    dhat = np.array([1.3, -0.3, 1.2])
    a = posterior_median_estimate(dhat, PARAMS, n_draws=5, seed=1)
    b = posterior_median_estimate(dhat, PARAMS, n_draws=5, seed=1)
    c = posterior_median_estimate(dhat, PARAMS, n_draws=5, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_posterior_median_validation():
    with pytest.raises(ValueError):
        posterior_median_estimate(np.zeros(3), PARAMS, n_draws=0)
    with pytest.raises(ValueError):
        posterior_median_estimate(np.zeros(4), PARAMS)


def test_pure_noise_estimates_are_sparse():
    """Most coefficients of a pure-noise input come back exactly zero."""
    rng = np.random.default_rng(5)
    sigma = 0.1
    y = sigma * rng.standard_normal(128)
    p = ModelParams(lam=0.05, gamma=3.0, tau=1.0, sigma=sigma)
    dec = forward_dwt(y, get_filter("la10"))
    med = posterior_median_estimate(dec.flat_details(), p, n_draws=9, seed=3)
    assert np.mean(med == 0.0) > 0.8


def test_denoise_end_to_end():
    truth = make_test_signal("Heavisine", 128)
    sigma = 0.1
    y = add_noise(truth, sigma, seed=21)
    p = ModelParams(lam=0.05, gamma=3.0, tau=1.0, sigma=sigma)
    est = denoise(y, get_filter("la10"), p, n_draws=9, seed=4)
    assert est.shape == y.shape
    # the scaling coefficient passes through untouched
    assert est.mean() == pytest.approx(y.mean(), abs=1e-10)
    assert np.mean((est - truth) ** 2) < 0.75 * np.mean((y - truth) ** 2)
    again = denoise(y, get_filter("la10"), p, n_draws=9, seed=4)
    assert np.array_equal(est, again)
