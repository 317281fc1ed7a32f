"""Acceptance gate: one test per headline guarantee, at its stated tolerance.

Each test finishes by printing one ``PASS`` line with the measured value, so
a ``pytest -v -s`` run reads as a checklist; without ``-s`` the per-test
pass/fail lines of ``pytest -v`` carry the same information.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from aibt.bench import ExperimentConfig, emit_csv, run_experiment
from aibt.cftp import (
    _HELD_LOG_RATE, _count_cap, _key, _occupancy, _root, _schedule, _site_weights, cftp_counts, held_sites,
)
from aibt.estimator import posterior_median_estimate
from aibt.lattice import Lattice
from aibt.model import ModelParams, log_count_terms, log_dominating_rate, log_marginal_posterior
from aibt.wavelet import SIGNAL_NAMES, forward_dwt, get_filter, inverse_dwt, make_test_signal
from oracles import (
    enumerate_posterior, heat_bath_log_odds, occupancy_law, occupancy_pattern_probs, pattern_frequencies,
    sandwich_updates, total_variation,
)


def test_exact_draws_match_enumeration():
    """Total variation against exhaustive enumeration below 0.02 at 1e4 draws."""
    start = time.perf_counter()
    params = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
    dhat = np.array([0.8, -0.3, 0.5])
    exact = occupancy_pattern_probs(enumerate_posterior(dhat, params, caps=(14, 14, 14)))
    n_draws = 10_000
    tv = total_variation(exact, pattern_frequencies(cftp_counts(dhat, params, range(n_draws))))
    elapsed = time.perf_counter() - start
    assert tv < 0.02
    assert elapsed < 120.0
    print(f"PASS exact sampling: TV={tv:.4f} < 0.02 over {n_draws} draws ({elapsed:.1f}s)")


MODERATE = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
FIFTEEN = [1.2, -0.8, 1.5, 0.3, -1.4, 0.9, 1.1, -0.6, 1.6, 0.2, -1.3, 0.7, -1.0, 1.45, 0.4]
# the pooled chi-square p-value each case must reach; every simulated site must also be within 4 standard errors
ALPHA = 1e-3


def test_occupancy_law_matches_count_enumeration():
    """The pattern enumerator equals the count enumeration's occupancy law on 3 sites, with and without a held site."""
    dhat = np.array([0.8, -0.3, 0.5])
    post = enumerate_posterior(dhat, MODERATE, caps=(25, 25, 25))
    for held in ((), (0,)):
        kept = {k: p for k, p in post.items() if all(k[s] > 0 for s in held)}
        total = sum(kept.values())
        exact = occupancy_pattern_probs({k: p / total for k, p in kept.items()})
        law = occupancy_law(dhat, MODERATE, held)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        assert all(law[sum(b << s for s, b in enumerate(pat))] == pytest.approx(p, abs=1e-12) for pat, p in exact.items())


@pytest.mark.parametrize(
    "dhat, params, n_held, first_seed",
    [
        pytest.param([1.2, -0.8, 0.3, 0.9, 0.05, -0.45, 0.6], MODERATE, 0, 0, id="7-sites"),
        pytest.param(FIFTEEN, MODERATE, 0, 10_000, id="15-sites"),
        pytest.param([0.9, 1.3, -0.5, -1.2, 0.4, 1.5, -0.9, 0.1, -1.4, 1.0, 0.6, -0.3, 1.2, -1.5, 0.8],
                     ModelParams(1.0, 1.5, 1.0, 0.5), 0, 20_000, id="15-sites-weaker-clustering"),
        pytest.param(FIFTEEN[:4] + [2.5] + FIFTEEN[5:], MODERATE, 1, 30_000, id="15-sites-one-held"),
        # 4.1 of 15 sites occupied on average leaves most sites uncovered, so log(gamma) decides many updates
        pytest.param(FIFTEEN, ModelParams(0.25, 2.0, 1.0, 0.5), 0, 40_000, id="15-sites-sparse"),
    ],
)
def test_occupancy_matches_exact_law(dhat, params, n_held, first_seed):
    """Occupancy patterns of 1e4 draws against the exact law of all ``2**n`` patterns.

    On 15 sites the lattice has full 9-site neighbourhoods (level 2), a
    truncated finest level, merged narrow levels and colour classes of
    several sites.  Held sites carry count 0, so a draw's pattern is its
    occupied counts or held sites, against the law conditioned on the held
    sites.  Cells of expected count below 5 are pooled into one.
    """
    start = time.perf_counter()
    dhat = np.array(dhat)
    held = held_sites(dhat, params)
    assert held.sum() == n_held
    exact = occupancy_law(dhat, params, np.flatnonzero(held))
    n_draws = 10_000
    occ = (cftp_counts(dhat, params, range(first_seed, first_seed + n_draws)) > 0) | held
    p_value, z, marginal = _fit_to_law(occ, exact, ~held)
    elapsed = time.perf_counter() - start
    assert p_value >= ALPHA and np.abs(z).max() <= 4.0, (p_value, z)
    assert elapsed < 120.0
    print(f"PASS exact occupancy law: chi2 p = {p_value:.2f} >= {ALPHA}, max |z| = {np.abs(z).max():.2f} <= 4 "
          f"over {dhat.size} sites, E[occupied] = {marginal.sum():.1f} ({elapsed:.1f}s)")


def test_prior_occupancy_matches_exact_law():
    """Occupancy patterns of 1e4 draws at prior site weights, which no ``dhat`` gives, against the exact law.

    With no likelihood every site weighs ``W_s = e**lam - 1``.  The field
    is run through its weights-in entry alone, on the 15-site lattice,
    against the enumerated prior law, whose ``W_s`` are summed term by term.
    At ``lam = 1`` and ``gamma = 2.7`` the prior occupies 4.7 of 15 sites on
    average, so the interaction decides many updates.
    """
    start = time.perf_counter()
    params = ModelParams(lam=1.0, gamma=2.7, tau=1.0, sigma=0.5)
    lat = Lattice(4)
    exact = occupancy_law(np.zeros(lat.n_sites), params, prior=True)
    n_draws = 10_000
    log_w = np.full(lat.n_sites, math.log(math.expm1(params.lam)))
    occ = _occupancy(lat, log_w, math.log(params.gamma), [_root(s) for s in range(50_000, 50_000 + n_draws)])
    p_value, z, marginal = _fit_to_law(occ, exact, np.ones(lat.n_sites, dtype=bool))
    elapsed = time.perf_counter() - start
    assert p_value >= ALPHA and np.abs(z).max() <= 4.0, (p_value, z)
    assert elapsed < 120.0
    print(f"PASS exact prior occupancy law: chi2 p = {p_value:.2f} >= {ALPHA}, max |z| = {np.abs(z).max():.2f} <= 4 "
          f"over {lat.n_sites} sites, E[occupied] = {marginal.sum():.1f} ({elapsed:.1f}s)")


def _fit_to_law(occ, exact, sites):
    """Pooled chi-square p-value of the patterns ``occ`` (a bool row per draw) against the law ``exact``, each
    of the ``sites``' z-score of its occupancy frequency, and every site's exact occupancy.

    Cells of expected count below 5 are pooled into one.
    """
    n_draws, n = occ.shape
    observed = np.bincount(occ @ (1 << np.arange(n)), minlength=exact.size)
    expected = n_draws * exact
    small = expected < 5
    obs_cells = np.append(observed[~small], observed[small].sum())
    exp_cells = np.append(expected[~small], expected[small].sum())
    p_value = scipy.stats.chi2.sf(((obs_cells - exp_cells) ** 2 / exp_cells).sum(), exp_cells.size - 1)
    marginal = exact @ (np.arange(exact.size)[:, None] >> np.arange(n) & 1)
    m = marginal[sites]
    z = (occ[:, sites].mean(axis=0) - m) / np.sqrt(m * (1 - m) / n_draws)
    return p_value, z, marginal


def test_class_updates_keep_chains_sandwiched():
    """Over 1e5 heat-bath site updates of coupled top and bottom chains, every
    class update keeps bottom <= top, with acceptance probabilities ordered in [0, 1]
    and the incremental coverage counts exact."""
    total = 0
    params = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
    hot = ModelParams(lam=0.05, gamma=3.0, tau=1.0, sigma=0.1)
    rng = np.random.default_rng(2)
    # a high-rate site first, then random signals with a random third of sites held occupied
    cases = [(Lattice(2), np.array([0.35, 0.0, 0.22]), hot, np.zeros(3, dtype=bool))]
    seed = 0
    while total < 100_000:
        if not cases:
            lat = Lattice(4)
            dhat = rng.normal(0.0, 1.0, lat.n_sites)
            held = (rng.random(lat.n_sites) < 1 / 3) | held_sites(dhat, params)
            cases.append((lat, dhat, params, held))
        lat, dhat, p, held = cases.pop()
        log_w = _site_weights(dhat, p)[1]
        log_w[held] = np.inf
        roots = [_root(seed + i) for i in range(8)]
        sweeps = (np.stack([_key(r, t).random(lat.n_sites) for r in roots]) for t in range(32, 0, -1))
        # as in the sampler, top chains start all occupied and bottom chains with only the held sites
        top, bottom = np.ones((lat.n_sites, len(roots)), dtype=bool), np.repeat(held[:, None], len(roots), axis=1)
        total += sandwich_updates(lat, log_w, math.log(p.gamma), top, bottom, sweeps)
        seed += len(roots)
    assert total >= 100_000
    print(f"PASS sandwich and ordering: {total} site updates with per-class checks")


def test_conditional_intensity_factor_bounds():
    """The clustering factor lies in (0, 1]; count terms shrink at least as fast as
    the dominating rate over c+1, and the multiplicity cap drops under 2**-60 of W_s."""
    rng = np.random.default_rng(11)
    lat = Lattice(4)
    schedule = _schedule(lat)
    checked = 0
    while checked < 10_000:
        params = ModelParams(
            lam=float(rng.uniform(0.02, 1.0)), gamma=float(rng.uniform(1.0, 4.0)),
            tau=float(rng.uniform(0.3, 2.0)), sigma=float(rng.uniform(0.1, 1.0)),
        )
        d = float(rng.normal(0.0, 1.5))
        log_rate = float(log_dominating_rate(d, params))
        if log_rate > _HELD_LOG_RATE:  # a held site, never simulated
            continue
        dhat = np.full(lat.n_sites, d)
        log_w = _site_weights(dhat, params)[1]
        pattern = (rng.random(lat.n_sites) < 0.3)[:, None]
        sites = schedule.class_order[schedule.class_rows[int(rng.integers(len(schedule.class_rows)))]]
        clustering = heat_bath_log_odds(lat, log_w, math.log(params.gamma), pattern, sites) - log_w[sites, None]
        assert np.all((clustering <= 0.0) & np.isfinite(clustering))
        cap = _count_cap(log_rate)
        terms = log_count_terms(d, params, 4 * cap + 40)
        k = np.arange(1, terms.size)
        assert np.all(np.diff(terms) <= log_rate - np.log(k + 1) + 1e-12)
        top = terms.max()
        weights = np.exp(terms - top)
        assert weights[cap:].sum() <= 2.0**-60 * weights.sum()
        checked += 1
    print(f"PASS factor bounds: {checked} random states within bounds")


def test_intensity_consistent_with_density():
    """The sampler's heat-bath log-odds equal the log posterior probability summed
    over the site's multiplicities, to 1e-10, with held sites occupied."""
    rng = np.random.default_rng(17)
    params = ModelParams(lam=0.4, gamma=2.0, tau=1.1, sigma=0.6)
    lat = Lattice(4)
    schedule = _schedule(lat)
    worst = 0.0
    for _ in range(1_000):
        counts = rng.poisson(0.4, lat.n_sites)
        dhat = rng.normal(0.0, 1.2, lat.n_sites)
        clamped = held_sites(dhat, params)
        log_w = _site_weights(dhat, params)[1]
        # the classes that hold a simulated site, drawn from as when held sites sat outside them
        live = [c for c, rows in enumerate(schedule.class_rows) if not clamped[schedule.class_order[rows]].all()]
        c = live[int(rng.integers(len(live)))]
        sites = schedule.class_order[schedule.class_rows[c]]
        odds = heat_bath_log_odds(lat, log_w, math.log(params.gamma), ((counts > 0) | clamped)[:, None], sites)[:, 0]
        for i, s in enumerate(sites.tolist()):
            if clamped[s]:
                assert odds[i] == math.inf
                continue
            base = counts.copy()
            base[clamped] = 1  # held sites occupied; their terms cancel between lp and lp0
            base[s] = 0
            lp0 = log_marginal_posterior(base, dhat, params)
            terms = []
            for m in range(1, 40):
                base[s] = m
                lp = log_marginal_posterior(base, dhat, params)
                terms.append(lp - lp0)
            top = max(terms)
            expected = top + math.log(sum(math.exp(t - top) for t in terms))
            worst = max(worst, abs(odds[i] - expected))
    assert worst < 1e-10
    print(f"PASS intensity vs density: worst |delta| = {worst:.2e} < 1e-10")


@pytest.mark.parametrize("clamped", [False, True])
def test_heat_bath_conditional_matches_enumeration(clamped):
    """On the three-site lattice the heat-bath conditional of each simulated site
    equals the conditional of the enumerated posterior to 1e-9, with the third
    site occupied when it is held, and turning on with probability 1."""
    params = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
    lat = Lattice(2)
    dhat = np.array([0.3, -0.6, 1.8863236699596295 if clamped else 0.5])
    held = held_sites(dhat, params)
    assert held.tolist() == [False, False, clamped]
    log_w = _site_weights(dhat, params)[1]
    patterns = occupancy_pattern_probs(enumerate_posterior(dhat, params, caps=(40, 40, 4 if clamped else 40)))
    worst = 0.0
    for pattern in patterns:
        if clamped and not pattern[2]:
            continue
        odds = heat_bath_log_odds(lat, log_w, math.log(params.gamma), np.array(pattern, bool)[:, None], np.arange(3))
        for s, p_on in enumerate(1.0 / (1.0 + np.exp(-odds[:, 0]))):
            if held[s]:  # a held site always turns on
                assert p_on == 1.0
                continue
            on = pattern[:s] + (1,) + pattern[s + 1 :]
            off = pattern[:s] + (0,) + pattern[s + 1 :]
            exact = patterns[on] / (patterns[on] + patterns[off])
            worst = max(worst, abs(p_on - exact))
    assert worst < 1e-9
    print(f"PASS heat-bath conditional vs enumeration: worst error {worst:.1e} < 1e-9")


def test_site_likelihood_quadrature():
    """Closed-form site likelihood matches Gauss-Hermite integration to 1e-6.

    A site holding ``c`` points has coefficient ``N(0, tau^2 c)`` plus noise ``N(0, sigma^2)``, so the
    closed form adds the two variances; the quadrature integrates the prior density over the noise.
    """
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(150)
    worst = 0.0
    pairs = ((1.0, 0.1), (0.8, 0.35), (1.0, 0.35), (1.7, 0.35), (2.0, 1.0), (1.5, 0.2), (0.5, 0.5), (3.0, 0.7))
    for tau, sigma in pairs:
        params = ModelParams(lam=0.5, gamma=2.0, tau=tau, sigma=sigma)
        for c in (1, 2, 3, 5, 10):
            prior_var = tau**2 * float(c)
            for dhat in (-2.5, -1.3, -0.7, 0.0, 0.4, 1.3, 2.5, 3.0):
                eps = nodes * sigma
                dens = np.exp(-((dhat - eps) ** 2) / (2 * prior_var)) / math.sqrt(
                    2 * math.pi * prior_var
                )
                integral = float(np.dot(weights, dens)) / math.sqrt(2 * math.pi)
                v = params.variance(c)
                closed = math.exp(-(dhat**2) / (2 * v)) / math.sqrt(2 * math.pi * v)
                worst = max(worst, abs(closed - integral) / integral)
    assert worst < 1e-6
    print(f"PASS quadrature: worst relative error {worst:.2e} < 1e-6")


def test_transform_round_trip_everywhere():
    """Analysis then synthesis reproduces the input to 1e-10 at every length."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for name in ("haar", "la10"):
        filt = get_filter(name)
        for n in (8, 16, 32, 64, 128, 256, 512):
            x = rng.standard_normal(n) * 5
            worst = max(worst, float(np.max(np.abs(inverse_dwt(forward_dwt(x, filt)) - x))))
        for signal in SIGNAL_NAMES:
            x = make_test_signal(signal, 256)
            worst = max(worst, float(np.max(np.abs(inverse_dwt(forward_dwt(x, filt)) - x))))
    assert worst < 1e-10
    print(f"PASS transform round trip: worst error {worst:.2e} < 1e-10")


def test_benchmark_desk_scale_targets():
    """Small benchmark lands in the published error ranges, far under an hour."""
    start = time.perf_counter()
    cfg = ExperimentConfig(
        signals=("Heavisine", "Blocks"),
        n=256,
        rsnr=(10.0,),
        reps=5,
        n_draws=25,
        lam=0.05,
        gamma=3.0,
        tau=1.0,
        seed=0,
        methods=("AIBT", "SureShrink"),
    )
    rows = {(r.signal, r.method): r for r in run_experiment(cfg)}
    elapsed = time.perf_counter() - start
    heavisine = rows[("Heavisine", "AIBT")].amse * 1e4
    blocks = rows[("Blocks", "AIBT")].amse * 1e4
    sure_blocks = rows[("Blocks", "SureShrink")].amse * 1e4
    assert 20.0 <= heavisine <= 50.0
    assert 15.0 <= blocks <= 45.0
    assert 49.0 / 2.0 <= sure_blocks <= 49.0 * 2.0
    assert all(r.failures == 0 for r in rows.values())
    assert elapsed < 3600.0
    print(
        f"PASS benchmark targets: Heavisine {heavisine:.1f} in [20,50], "
        f"Blocks {blocks:.1f} in [15,45], SureShrink Blocks {sure_blocks:.1f} "
        f"in [24.5,98] ({elapsed:.1f}s)"
    )


def test_pure_noise_estimates_mostly_exact_zeros():
    """Coefficient estimates on pure noise are exact zeros at over 80% of sites."""
    rng = np.random.default_rng(7)
    sigma = 0.1
    y = sigma * rng.standard_normal(256)
    params = ModelParams(lam=0.05, gamma=3.0, tau=1.0, sigma=sigma)
    dec = forward_dwt(y, get_filter("la10"))
    med = posterior_median_estimate(dec.flat_details(), params, n_draws=25, seed=1)
    frac = float(np.mean(med == 0.0))
    assert frac > 0.8
    print(f"PASS sparsity on noise: {frac:.1%} exact zeros > 80%")


def test_held_mask_monotone_in_signal():
    """A larger observed coefficient never turns a held site back into a simulated one."""
    params = ModelParams(lam=0.05, gamma=3.0, tau=1.0, sigma=0.1)
    grid = np.linspace(0.0, 100.0, 4001)
    held = held_sites(grid, params).astype(int)
    assert np.all(np.diff(held) >= 0)
    assert held[0] == 0 and held[-1] == 1
    print("PASS held-site monotonicity: the held mask is non-decreasing on a 4001-point grid")


def test_benchmark_csv_is_byte_deterministic(tmp_path):
    """Identical configurations write identical bytes."""
    cfg = ExperimentConfig(
        signals=("Blocks",),
        n=32,
        rsnr=(10.0, 3.0),
        reps=2,
        n_draws=3,
        seed=123,
        methods=("AIBT", "Universal", "FDR"),
        record_runtime=False,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(cfg), str(a))
    emit_csv(run_experiment(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()
    print("PASS CSV determinism: repeated runs are byte-identical")
