"""Coefficient draws, posterior medians, and the end-to-end denoiser."""

import hashlib
import math
from statistics import NormalDist

import numpy as np
import pytest
from oracles import enumerate_posterior

from aibt import estimator
from aibt.cftp import _root, cftp_counts, held_sites
from aibt.estimator import _coefficients, denoise, posterior_median_estimate
from aibt.model import ModelParams
from aibt.wavelet import add_noise, forward_dwt, get_filter, make_test_signal

PARAMS = ModelParams(lam=0.5, gamma=2.0, tau=0.9, sigma=0.4)


def _draw(counts, dhat, params, rng):
    """One coefficient draw given a count vector, through the estimator's own path."""
    noise = rng.standard_normal(dhat.size)
    return _coefficients(np.asarray(counts), dhat, params, held_sites(dhat, params), noise)


def test_empty_sites_give_exact_zeros():
    dhat = np.array([1.0, 0.3, -0.7])
    assert not held_sites(dhat, PARAMS).any()
    for seed in range(10):
        d = _draw([0, 2, 0], dhat, PARAMS, np.random.default_rng(seed))
        assert d[0] == 0.0 and d[2] == 0.0
        assert d[1] != 0.0


def test_occupied_site_conditional_moments():
    """Given a count, the draw is Gaussian shrinkage of the observation."""
    c = 2
    dhat = np.array([1.1, 0.0, 0.0])
    rng = np.random.default_rng(123)
    n = 20000
    draws = np.array([_draw([c, 0, 0], dhat, PARAMS, rng)[0] for _ in range(n)])
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
        draws = np.array([_draw(counts, dhat, p, rng)[0] for _ in range(n)])
        assert draws.mean() == pytest.approx(d_held, abs=4 * p.sigma / math.sqrt(n))
        assert draws.std(ddof=1) == pytest.approx(p.sigma, rel=0.025)


def test_posterior_median_is_lower_middle_order_statistic():
    """The estimator equals replaying its seed discipline by hand."""
    dhat = np.array([0.8, -0.3, 0.5])
    n_draws = 6
    ss = np.random.SeedSequence(2024)
    draws = np.empty((n_draws, 3))
    for i, child in enumerate(ss.spawn(n_draws)):
        rng = np.random.default_rng(child)
        draws[i] = _draw(cftp_counts(dhat, PARAMS, [rng])[0], dhat, PARAMS, rng)
    expected = np.sort(draws, axis=0)[(n_draws - 1) // 2]
    got = posterior_median_estimate(dhat, PARAMS, n_draws=n_draws, seed=2024)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n_draws", [1, 2, 9, 25])
def test_sparse_tail_equals_dense_median(n_draws, monkeypatch):
    """Drawing and sorting only the held and occupied columns gives the dense median byte for
    byte, with the sampler's counts replaced by fixed ones and its use of the generators kept."""
    p = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
    n = 31
    rng = np.random.default_rng(n_draws)
    dhat = rng.normal(0.0, 0.5, n)
    dhat[:2] = 1e3
    held = held_sites(dhat, p)
    assert held.tolist() == [True, True] + [False] * (n - 2)
    middle = (n_draws - 1) // 2 + 1  # occupied draws that put a coefficient at the median
    counts = np.zeros((n_draws, n), dtype=np.int64)
    counts[:, 1] = 3  # held column 0 stays at count zero
    counts[:middle, 2] = 2
    counts[-middle:, 3] = 1
    counts[: middle - 1, 4] = 1
    counts[:, 5] = rng.integers(1, 4, n_draws)
    counts[:, 6:20] = rng.poisson(0.3, (n_draws, 14))  # columns 20 onward stay empty

    def fixed_counts(dhat, params, rngs, *args, **kwargs):
        for g in rngs:
            _root(g)
        return counts

    monkeypatch.setattr(estimator, "cftp_counts", fixed_counts)
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(8).spawn(n_draws)]
    fixed_counts(dhat, p, rngs)
    noise = np.stack([g.standard_normal(n) for g in rngs])
    v = p.tau**2 * counts.astype(float)
    w = np.where(held, 1.0, v / (p.sigma**2 + v))
    draws = np.where(held | (counts > 0), w * dhat + np.sqrt(w) * p.sigma * noise, 0.0)
    expected = np.sort(draws, axis=0)[(n_draws - 1) // 2]
    got = posterior_median_estimate(dhat, p, n_draws=n_draws, seed=8)
    assert got.tobytes() == expected.tobytes()
    assert np.all(got[20:] == 0.0)


@pytest.mark.parametrize(
    "signal, wavelet, noise_seed, sigma, n, expected",
    [
        (None, "la10", 0, 0.1, 4096, "92ed362a76bbaeb5"),
        ("Blocks", "haar", 1, 1 / 7, 1024, "f92958027d456a84"),
        ("Bumps", "la10", 3, 0.1, 1024, "f9a306d6d7f80d15"),
    ],
    ids=["noise-4096-la10", "blocks-1024-haar", "bumps-1024-la10"],
)
def test_pinned_denoise(signal, wavelet, noise_seed, sigma, n, expected):
    """Nine-draw estimates of pure noise and two test signals are pinned byte for byte, so a
    change to the transform, the sampler or the median that moves an estimate shows."""
    y = sigma * np.random.default_rng(noise_seed).standard_normal(n)
    if signal is not None:
        y = make_test_signal(signal, n) + y
    est = denoise(y, get_filter(wavelet), ModelParams(0.05, 3, 1, sigma), n_draws=9, seed=5)
    assert hashlib.sha256(est.tobytes()).hexdigest()[:16] == expected


def _exact_median(post, site, dhat, params):
    """Median and density there of site ``site``'s exact posterior coefficient law, and its atom at zero.

    The law is an atom at 0 (count 0) plus ``N(w_c dhat, w_c sigma**2)`` per count ``c >= 1``,
    ``w_c = tau**2 c / (sigma**2 + tau**2 c)``; its cdf is inverted by bisection.
    """
    mass = {}
    for counts, pr in post.items():
        mass[counts[site]] = mass.get(counts[site], 0.0) + pr
    atom = mass.pop(0, 0.0)
    parts = []
    for c, pr in mass.items():
        w = params.tau**2 * c / (params.sigma**2 + params.tau**2 * c)
        parts.append((pr, NormalDist(w * dhat[site], math.sqrt(w) * params.sigma)))
    lo, hi = -100.0, 100.0
    for _ in range(200):
        mid = (lo + hi) / 2
        below = atom * (mid >= 0) + sum(pr * law.cdf(mid) for pr, law in parts)
        lo, hi = (mid, hi) if below < 0.5 else (lo, mid)
    return hi, sum(pr * law.pdf(hi) for pr, law in parts), atom


@pytest.mark.parametrize(
    "dhat, n_continuous", [((0.5, 0.3, -0.2), 0), ((4.0, 0.3, -0.2), 1)], ids=["all-atoms", "continuous-root"]
)
def test_posterior_median_matches_enumeration(dhat, n_continuous):
    """On the 3-site lattice with no held site, the estimate converges to the exact posterior median.

    Where the atom at zero holds more than half the mass the estimate is exactly 0; where the
    median lies in the continuous part the estimate, a sample median of ``K`` exact draws, is
    within 4 standard errors ``1 / (2 f(m) sqrt(K))`` of it.
    """
    params = ModelParams(lam=0.5, gamma=1.5, tau=1.0, sigma=1.0)
    dhat = np.array(dhat)
    assert not held_sites(dhat, params).any()
    post = enumerate_posterior(dhat, params, caps=(20, 6, 6))
    k = 4001
    est = posterior_median_estimate(dhat, params, n_draws=k, seed=11)
    continuous = 0
    for site in range(3):
        median, density, atom = _exact_median(post, site, dhat, params)
        if atom > 0.5:
            assert atom > 0.6  # far enough above 1/2 that fewer than half empty draws is negligible
            assert est[site] == 0.0
        else:
            continuous += 1
            assert median != 0.0
            assert abs(est[site] - median) < 4.0 / (2.0 * density * math.sqrt(k))
    assert continuous == n_continuous


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
    # a draw count that is not an integer names n_draws, not numpy's spawn
    for bad in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="^n_draws must be an integer"):
            posterior_median_estimate(np.zeros(3), PARAMS, n_draws=bad)
    with pytest.raises(ValueError, match="^n_draws must be an integer"):
        denoise(np.zeros(8), get_filter("haar"), PARAMS, n_draws=2.5)
    assert posterior_median_estimate(np.zeros(3), PARAMS, n_draws=np.int64(3)).shape == (3,)


def test_nan_coefficient_is_rejected_naming_dhat():
    """A nan in ``dhat`` raises a ValueError naming it; a held ``+-inf`` passes through as itself."""
    with pytest.raises(ValueError, match="dhat"):
        posterior_median_estimate(np.array([0.1, np.nan, 0.2]), PARAMS, n_draws=3)
    with pytest.raises(ValueError, match="dhat must be real"):
        posterior_median_estimate(np.full(3, 1 + 1j), PARAMS, n_draws=3)
    est = posterior_median_estimate(np.array([np.inf, 0.1, -np.inf]), PARAMS, n_draws=3)
    assert est[[0, 2]].tolist() == [np.inf, -np.inf]


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
