"""Comparator rules checked against direct-search and root-finding oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import expit
from scipy.stats import norm

from aibt.baselines import (
    _inv_cdf,
    _mixture_median,
    _norm_sf,
    bayes_thresh,
    estimate_mixture_hyperparams,
    fdr_threshold,
    hard_threshold,
    soft_threshold,
    sure_shrink,
    universal_threshold,
)
from aibt.wavelet import HAAR, WaveletDecomposition, forward_dwt

RNG = np.random.default_rng(99)


def _dec(details, scaling=0.0):
    return WaveletDecomposition([np.asarray(d, dtype=float) for d in details], scaling, HAAR)


# --- elementary rules -------------------------------------------------------------


def test_soft_threshold_values():
    x = np.array([-3.0, -1.0, 0.0, 0.5, 2.5])
    assert np.allclose(soft_threshold(x, 1.0), [-2.0, 0.0, 0.0, 0.0, 1.5], atol=0)


def test_hard_threshold_values():
    x = np.array([-3.0, -1.0, 0.0, 0.5, 2.5])
    assert np.allclose(hard_threshold(x, 1.0), [-3.0, -1.0, 0.0, 0.0, 2.5], atol=0)
    # the cut is strict: magnitudes equal to the threshold survive
    assert hard_threshold(np.array([1.0]), 1.0)[0] == 1.0


def test_universal_threshold_level():
    # n = 8 so the threshold is sigma * sqrt(2 log 8)
    sigma = 0.5
    t = sigma * math.sqrt(2 * math.log(8))
    dec = _dec([[3.0], [t * 0.99, -t * 0.99], [2.0, -2.0, 0.1, 0.0]], scaling=4.0)
    out = universal_threshold(dec, sigma)
    assert out.scaling == 4.0
    assert out.details[0][0] == pytest.approx(3.0 - t, rel=1e-12)
    assert np.allclose(out.details[1], 0.0, atol=0)
    assert out.details[2][0] == pytest.approx(2.0 - t, rel=1e-12)


# --- sure shrink -----------------------------------------------------------------------


def _sure_grid_oracle(x, sigma):
    """Direct evaluation of the soft-threshold risk at every candidate."""
    a = np.abs(x) / sigma
    cap = math.sqrt(2 * math.log(x.size))
    cands = [0.0] + [min(v, cap) for v in sorted(a)]
    best_t, best_risk = None, np.inf
    for t in cands:
        risk = x.size + sum(min(v, t) ** 2 - 2 * (v <= t) for v in a)
        if risk < best_risk - 1e-15:
            best_risk, best_t = risk, t
    return sigma * best_t


def test_sure_dense_level_matches_grid_search():
    x = RNG.normal(0, 3.0, 14)
    dec = _dec([x[:1], x[1:3], x[3:7], np.concatenate([x[7:14], [2.2]])])
    out = sure_shrink(dec, 1.0)
    checked_dense = 0
    for j, d in enumerate(dec.details):
        m = d.size
        excess = (np.sum(d**2) - m) / m
        sparse = excess <= math.log2(m) ** 1.5 / math.sqrt(m) if m > 1 else True
        if not sparse:
            t = _sure_grid_oracle(d, 1.0)
            assert np.allclose(out.details[j], soft_threshold(d, t), atol=1e-12), j
            checked_dense += 1
    assert checked_dense >= 2  # the draw really exercised the search branch


def test_sure_sparse_level_takes_universal_threshold():
    sigma = 1.0
    quiet = np.array([0.3, -0.2, 0.1, 0.0, 0.2, -0.1, 0.15, -0.25])
    m = quiet.size
    assert (np.sum(quiet**2) - m) / m <= math.log2(m) ** 1.5 / math.sqrt(m)
    dec = _dec([[0.0], [0.0, 0.0], [0.0, 0.0, 0.0, 0.0], quiet])
    out = sure_shrink(dec, sigma)
    t = sigma * math.sqrt(2 * math.log(m))
    assert np.allclose(out.details[3], soft_threshold(quiet, t), atol=1e-12)


def test_sure_singleton_level_degenerates_to_zero_threshold():
    dec = _dec([[2.5], [1.0, -1.0]])
    out = sure_shrink(dec, 1.0)
    assert out.details[0][0] == 2.5  # threshold sqrt(2 log 1) = 0


def test_sure_sigma_validation():
    with pytest.raises(ValueError):
        sure_shrink(_dec([[1.0]]), 0.0)


# --- spike and slab posterior medians ------------------------------------------------------


def _mixture_median_oracle(d, sigma, pi, tau):
    """Posterior median by numeric CDF inversion, atom at zero handled explicitly.

    The posterior is ``(1 - w) delta_0 + w N(mu, nu^2)``; the median is zero
    exactly when 1/2 falls inside the atom's jump of the CDF.
    """
    if pi == 0.0 or tau <= 0.0:
        return 0.0
    s2 = sigma**2 + tau**2
    g1 = norm.pdf(d, scale=math.sqrt(s2))
    g0 = norm.pdf(d, scale=sigma)
    w = pi * g1 / (pi * g1 + (1 - pi) * g0)
    mu = tau**2 / s2 * d  # signed slab mean
    nu = math.sqrt(sigma**2 * tau**2 / s2)
    below = w * norm.cdf((0.0 - mu) / nu)  # slab mass strictly below zero
    if below < 0.5 <= below + (1 - w):
        return 0.0
    span = abs(mu) + 12 * nu + 1.0
    if below + (1 - w) < 0.5:
        f = lambda m: (1 - w) + w * norm.cdf((m - mu) / nu) - 0.5
        return brentq(f, 0.0, span, xtol=1e-13)
    f = lambda m: w * norm.cdf((m - mu) / nu) - 0.5
    return brentq(f, -span, 0.0, xtol=1e-13)


@pytest.mark.parametrize("pi,tau", [(0.3, 1.0), (0.8, 2.5), (0.05, 0.7)])
def test_bayes_thresh_matches_cdf_inversion(pi, tau):
    sigma = 0.6
    d = np.array(
        [-6.0, -4.0, -1.9, -0.7, -0.2, 0.0, 0.3, 0.9, 1.7, 3.3, 6.0, 0.05, -2.6, 1.2, -0.45]
    )
    dec = _dec([d[:1], d[1:3], d[3:7], d[7:15]])
    out = bayes_thresh(dec, sigma, pi, tau)
    got = out.flat_details()
    for i, v in enumerate(dec.flat_details()):
        want = _mixture_median_oracle(float(v), sigma, pi, tau)
        assert got[i] == pytest.approx(want, abs=1e-8), (i, v)


def test_bayes_thresh_is_a_thresholding_rule():
    sigma = 1.0
    d = np.linspace(-6, 6, 31)
    dec = _dec([d[:1], d[1:3], d[3:7], d[7:15], d[15:31]])
    out = bayes_thresh(dec, sigma, 0.2, 1.5)
    flat_in = dec.flat_details()
    flat_out = out.flat_details()
    small = np.abs(flat_in) < 1.0
    assert np.all(flat_out[small] == 0.0)
    big = np.abs(flat_in) > 5.0
    assert np.all(np.abs(flat_out[big]) > 0.0)
    assert np.all(np.sign(flat_out[big]) == np.sign(flat_in[big]))
    assert np.all(np.abs(flat_out) <= np.abs(flat_in) + 1e-12)


def test_bayes_thresh_degenerate_weights():
    dec = _dec([[3.0], [1.0, -2.0]])
    assert np.allclose(bayes_thresh(dec, 1.0, 0.0, 1.0).flat_details(), 0.0, atol=0)
    for pi in (1.5, [0.5, 1.5], [np.nan, 0.5]):
        with pytest.raises(ValueError):
            bayes_thresh(dec, 1.0, pi, 1.0)


def test_bayes_thresh_where_both_densities_underflow():
    """At d = 100 (sigma = 1, tau = 1, pi = 1/2) both densities underflow, so the slab weight comes from
    their log ratio: it is 1, and the median is the slab's, d / 2, with no warning, as at d = 50."""
    out = bayes_thresh(_dec([[100.0], [50.0, -100.0]]), 1.0, 0.5, 1.0).flat_details()
    assert out.tolist() == [50.0, 25.0, -50.0]
    assert bayes_thresh(_dec([[100.0]]), 1.0, 1.0, 1.0).flat_details().tolist() == [50.0]


def test_coefficients_that_square_past_the_float_range_raise_no_warning():
    """At 1e200 sigma the squares overflow: the densities are 0 and the level energy inf, with no
    RuntimeWarning (an error under the suite's filter).  The mixture median is the slab's, d / 2,
    and SureShrink keeps the spike.  Where tau is so far below sigma that (sigma / tau)**2 overflows,
    the slab collapses onto the spike and the median is exactly 0."""
    assert _mixture_median(np.array([1e200, -1e200]), 1.0, 0.5, 1.0).tolist() == [5e199, -5e199]
    # with sigma tiny, mu / nu overflows to inf, where the slab's normal cdf is 1
    assert _mixture_median(np.array([1e10]), 1e-300, 0.5, 1.0).tolist() == [1e10]
    assert _mixture_median(np.array([1e300, -1e300]), 1e-300, 0.5, 1e-300).tolist() == [5e299, -5e299]
    for tau in (1e-150, 1e-160, 1e-200, 1e-310, 5e-324):
        assert _mixture_median(np.array([1.0, 40.0]), 1.0, 0.5, tau).tolist() == [0.0, 0.0]
    out = sure_shrink(_dec([[0.3], [1e200, -0.5], [0.1, -0.2, 0.4, 0.2]]), 1.0)
    assert out.details[1][0] == 1e200


@pytest.mark.parametrize("sigma,tau,pi", [(1.0, 0.1, 0.5), (0.3, 0.02, 0.2)])
def test_mixture_median_where_the_spike_density_is_subnormal(sigma, tau, pi):
    """At |d| / sigma in [37, 38.6] the spike density N(d; 0, sigma^2) is subnormal; the median still
    matches a reference whose slab weight is the logistic of scipy's log density ratio."""
    d = sigma * np.concatenate([np.linspace(37.0, 38.6, 161), -np.linspace(37.0, 38.6, 161)])
    s = math.hypot(sigma, tau)
    w = expit(math.log(pi / (1.0 - pi)) + norm.logpdf(d, scale=s) - norm.logpdf(d, scale=sigma))
    mu, nu = tau**2 / s**2 * np.abs(d), sigma * tau / s
    take = w * norm.cdf(mu / nu) > 0.5
    want = np.where(take, np.sign(d) * (mu + nu * norm.ppf(1.0 - 1.0 / (2.0 * w))), 0.0)
    got = _mixture_median(d, sigma, pi, tau)
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_bayes_thresh_per_level_parameters():
    dec = _dec([[2.0], [2.0, -2.0]])
    out = bayes_thresh(dec, 1.0, [0.0, 0.9], [1.0, 1.0])
    assert out.details[0][0] == 0.0  # level 0 has weight zero
    assert np.all(out.details[1] != 0.0)


def test_estimate_mixture_hyperparams_moment_matching():
    sigma = 1.0
    loud = np.array([3.0, -4.0, 0.5, 0.1])
    dec = _dec([[0.2], [0.3, -0.1], loud])
    pis, taus = estimate_mixture_hyperparams(dec, sigma)
    u = sigma * math.sqrt(2 * math.log(8))
    assert pis[0] == 0.0 and taus[0] == sigma
    assert pis[2] == pytest.approx(np.mean(np.abs(loud) > u), abs=0)
    surplus = np.mean(loud**2) - sigma**2
    assert taus[2] == pytest.approx(math.sqrt(surplus / pis[2]), rel=1e-12)


def test_mixture_hyperparams_of_a_coefficient_that_squares_past_the_float_range():
    """The level [1e200, -0.5] has a slab scale of 1e200, not inf: its squares are taken in units of its
    largest magnitude.  BayesThresh then keeps 1e200, with no RuntimeWarning."""
    dec = _dec([[0.3], [1e200, -0.5]])
    pis, taus = estimate_mixture_hyperparams(dec, 1.0)
    assert pis.tolist() == [0.0, 0.5]
    assert taus[1] == pytest.approx(1e200, rel=1e-12)
    assert bayes_thresh(dec, 1.0, pis, taus).details[1].tolist() == [1e200, 0.0]


# --- false discovery rate rule ----------------------------------------------------------------


def test_fdr_threshold_hand_trace():
    """Seven coefficients, step-up at q = 0.05: exactly four survive."""
    flat = np.array([5.0, -3.2, 2.8, 0.4, -0.2, 1.0, -2.2])
    dec = _dec([[flat[0]], flat[1:3], flat[3:7]])
    out = fdr_threshold(dec, sigma=1.0, q=0.05)
    got = out.flat_details()
    # the fourth ordered p-value 2*Phi(-2.2) = 0.0278 <= 0.05*4/7 passes,
    # the fifth 2*Phi(-1.0) = 0.317 does not, so the cut sits at |x| = 2.2
    expected = np.array([5.0, -3.2, 2.8, 0.0, 0.0, 0.0, -2.2])
    assert np.array_equal(got, expected)


def test_fdr_keeps_every_discovery_when_p_values_tie_at_zero():
    """A Haar spike of 1000 sigma at n = 16 has four nonzero details, all with p-values that underflow
    to 0.  Benjamini-Hochberg keeps every discovery, whichever order the tie sorts in."""
    x = np.zeros(16)
    x[5] = 1000.0
    dec = forward_dwt(x, HAAR)
    flat = dec.flat_details()
    spike = flat != 0.0
    assert spike.sum() == 4 and np.all(_norm_sf(np.abs(flat[spike])) == 0.0)
    assert np.array_equal(fdr_threshold(dec, sigma=1.0).flat_details(), flat)


def test_fdr_no_discoveries_zeroes_all_details():
    dec = _dec([[0.5], [0.3, -0.4], [0.2, 0.1, -0.3, 0.25]], scaling=7.0)
    out = fdr_threshold(dec, sigma=1.0, q=0.05)
    assert np.allclose(out.flat_details(), 0.0, atol=0)
    assert out.scaling == 7.0


def test_fdr_validation():
    dec = _dec([[1.0]])
    with pytest.raises(ValueError):
        fdr_threshold(dec, sigma=0.0)
    with pytest.raises(ValueError):
        fdr_threshold(dec, sigma=1.0, q=0.0)
    with pytest.raises(ValueError):
        fdr_threshold(dec, sigma=1.0, q=1.0)


def test_rules_preserve_scaling_and_shapes():
    x = RNG.standard_normal(32)
    dec = forward_dwt(x, HAAR)
    for rule in (
        lambda d: universal_threshold(d, 1.0),
        lambda d: sure_shrink(d, 1.0),
        lambda d: bayes_thresh(d, 1.0, 0.5, 1.0),
        lambda d: fdr_threshold(d, 1.0),
    ):
        out = rule(dec)
        assert out.scaling == dec.scaling
        assert [d.size for d in out.details] == [d.size for d in dec.details]


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "rule",
    [
        universal_threshold,
        sure_shrink,
        lambda dec, sigma: bayes_thresh(dec, sigma, 0.5, 1.0),
        estimate_mixture_hyperparams,
        fdr_threshold,
    ],
    ids=["universal", "sure", "bayes", "hyperparams", "fdr"],
)
def test_rules_reject_a_noise_level_that_is_not_positive_and_finite(rule, sigma):
    dec = forward_dwt(np.sin(np.arange(16.0)), HAAR)
    with pytest.raises(ValueError, match="sigma"):
        rule(dec, sigma)


# --- normal-law helpers against scipy ---------------------------------------------------------

EPS = np.finfo(float).eps


def test_normal_helpers_match_scipy():
    x = np.linspace(-38.0, 38.0, 20001)
    # erfc(x / sqrt 2) has condition number ~x**2, so rounding x / sqrt 2 alone costs
    # about 38**2 * eps ~ 3e-13 relative at the ends; subnormal tails differ absolutely
    np.testing.assert_allclose(_norm_sf(x), norm.sf(x), rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(_norm_sf(-x), norm.cdf(x), rtol=1e-12, atol=1e-300)
    q = np.append(np.logspace(-300.0, math.log10(0.5), 2001), 0.5)
    np.testing.assert_allclose(_inv_cdf(q), norm.ppf(q), rtol=8 * EPS, atol=0)
    assert _inv_cdf(0.5) == 0.0  # w = 1: the median is the slab mean


def _scipy_bayes_thresh(flat, sigma, pi, tau):
    """The spike-and-slab median computed with ``scipy.stats.norm``; exactly 0 without a slab."""
    if pi == 0.0 or tau <= 0.0:
        return np.zeros_like(flat)
    s2 = sigma**2 + tau**2
    g1 = norm.pdf(flat, scale=math.sqrt(s2))
    g0 = norm.pdf(flat, scale=sigma)
    w = pi * g1 / (pi * g1 + (1.0 - pi) * g0)
    mu = tau**2 / s2 * np.abs(flat)
    nu = math.sqrt(sigma**2 * tau**2 / s2)
    take = w * norm.cdf(mu / nu) > 0.5
    med = np.zeros_like(flat)
    med[take] = np.sign(flat[take]) * (mu[take] + nu * norm.ppf(1.0 - 1.0 / (2.0 * w[take])))
    return med


def _scipy_fdr(flat, sigma, q):
    p = 2.0 * norm.sf(np.abs(flat) / sigma)
    order = np.argsort(p)
    passed = np.flatnonzero(p[order] <= q * np.arange(1, flat.size + 1) / flat.size)
    if passed.size == 0:
        return np.zeros_like(flat)
    t = np.abs(flat[order[passed[-1]]])
    return np.where(np.abs(flat) >= t, flat, 0.0)


def test_bayes_thresh_and_fdr_match_scipy_reference():
    """Scalar and per-level weights and scales; each per-level draw has a level with no
    slab weight and another with a zero slab scale."""
    rng = np.random.default_rng(17)
    for i in range(40):
        sigma = float(rng.uniform(0.05, 2.0))
        x = np.where(rng.random(256) < 0.2, rng.normal(0.0, 6.0 * sigma, 256), 0.0)
        dec = forward_dwt(x + rng.normal(0.0, sigma, 256), HAAR)
        flat = dec.flat_details()
        pis, taus = rng.uniform(0.01, 0.99, dec.n_levels), rng.uniform(0.1, 5.0, dec.n_levels)
        if i % 2:
            pis[:], taus[:] = pis[0], taus[0]
            got = bayes_thresh(dec, sigma, float(pis[0]), float(taus[0]))
        else:
            no_pi, no_tau = rng.choice(dec.n_levels, 2, replace=False)
            pis[no_pi], taus[no_tau] = 0.0, 0.0
            got = bayes_thresh(dec, sigma, pis, taus)
        for j, (d, g) in enumerate(zip(dec.details, got.details)):
            want = _scipy_bayes_thresh(d, sigma, float(pis[j]), float(taus[j]))
            assert np.array_equal(g == 0.0, want == 0.0), j
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=0)
        q = float(rng.uniform(0.01, 0.5))
        assert np.array_equal(fdr_threshold(dec, sigma, q).flat_details(), _scipy_fdr(flat, sigma, q))
