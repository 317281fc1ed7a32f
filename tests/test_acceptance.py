"""Acceptance gate: one test per headline guarantee, at its stated tolerance.

Each test finishes by printing one ``PASS`` line with the measured value, so
a ``pytest -v -s`` run reads as a checklist; without ``-s`` the per-test
pass/fail lines of ``pytest -v`` carry the same information.
"""

import math
import time

import numpy as np
import pytest

from aibt.bench import ExperimentConfig, emit_csv, run_experiment
from aibt.cftp import _HELD_LOG_RATE, _count_cap, _key, _OccupancyField, _root, _site_weights, cftp_counts, held_sites
from aibt.estimator import posterior_median_estimate
from aibt.lattice import Lattice
from aibt.model import ModelParams, log_count_terms, log_dominating_rate, log_marginal_posterior
from aibt.wavelet import SIGNAL_NAMES, forward_dwt, get_filter, inverse_dwt, make_test_signal
from oracles import (
    enumerate_posterior,
    gathered_coverage,
    gillespie_occupancy,
    heat_bath_log_odds,
    occupancy_pattern_probs,
)


def test_exact_draws_match_enumeration():
    """Total variation against exhaustive enumeration below 0.02 at 1e4 draws."""
    start = time.perf_counter()
    params = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
    dhat = np.array([0.8, -0.3, 0.5])
    exact = occupancy_pattern_probs(enumerate_posterior(dhat, params, caps=(14, 14, 14)))
    n_draws = 10_000
    freq: dict[tuple[int, ...], float] = {}
    for counts in cftp_counts(dhat, params, range(n_draws)):
        pat = tuple(int(c > 0) for c in counts)
        freq[pat] = freq.get(pat, 0.0) + 1.0 / n_draws
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - freq.get(k, 0.0)) for k in set(exact) | set(freq))
    elapsed = time.perf_counter() - start
    assert tv < 0.02
    assert elapsed < 120.0
    print(f"PASS exact sampling: TV={tv:.4f} < 0.02 over {n_draws} draws ({elapsed:.1f}s)")


def test_occupancy_matches_forward_equilibrium_chain():
    """Per-site occupancy agrees with an independent forward birth-death chain.

    1e4 exact draws against 1000 chains of 1e4 events each (1e7 in all) in
    detailed balance with the same density; every site within three
    combined standard errors.
    """
    start = time.perf_counter()
    params = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
    lattice = Lattice(3)
    dhat = np.array([1.2, -0.8, 0.3, 0.9, 0.05, -0.45, 0.6])
    assert not held_sites(dhat, params).any()
    mc_est, mc_se = gillespie_occupancy(
        dhat, params, lattice, n_chains=1000, n_events=10_000, seed=42
    )
    n_draws = 10_000
    occ = (cftp_counts(dhat, params, range(n_draws)) > 0).sum(axis=0)
    p_cftp = occ / n_draws
    se_cftp = np.sqrt(p_cftp * (1 - p_cftp) / n_draws)
    combined = np.sqrt(mc_se**2 + se_cftp**2)
    z = np.abs(p_cftp - mc_est) / combined
    elapsed = time.perf_counter() - start
    assert np.all(z <= 3.0), (p_cftp, mc_est, z)
    assert elapsed < 600.0
    print(
        "PASS occupancy cross-check: max |z| = "
        f"{float(z.max()):.2f} <= 3 over {lattice.n_sites} sites ({elapsed:.0f}s)"
    )


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
        field = _OccupancyField(lat, log_w, math.log(p.gamma))
        sim_rows = ~held[lat.class_order]
        roots = [_root(seed + i) for i in range(8)]
        occ, cov = field.start(len(roots))  # class-major rows: top chains, then bottom chains
        top = slice(0, len(roots))
        bottom = slice(len(roots), None)
        for t in range(32, 0, -1):
            lim = field.on_limits(np.stack([_key(r, t).random(lat.n_sites) for r in roots]))
            for c, rows in enumerate(lat.class_rows):
                prob = 1.0 / (1.0 + np.exp(-heat_bath_log_odds(lat, log_w, math.log(p.gamma), occ, c)))
                lo, hi = prob[:, bottom], prob[:, top]
                assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))
                field.update_class(occ, cov, c, lim)
                assert np.all(occ[:, bottom] <= occ[:, top])
                total += int(sim_rows[rows].sum()) * len(roots)  # held sites are not counted
            assert np.array_equal(cov[:-1], gathered_coverage(lat, occ)[:-1])
        seed += len(roots)
    assert total >= 100_000
    print(f"PASS sandwich and ordering: {total} site updates with per-class checks")


def test_conditional_intensity_factor_bounds():
    """The clustering factor lies in (0, 1]; count terms shrink at least as fast as
    the dominating rate over c+1, and the multiplicity cap drops under 2**-60 of W_s."""
    rng = np.random.default_rng(11)
    lat = Lattice(4)
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
        occ = np.zeros((lat.n_sites + 1, 1), dtype=bool)
        occ[:-1, 0] = (rng.random(lat.n_sites) < 0.3)[lat.class_order]
        c = int(rng.integers(len(lat.class_rows)))
        odds = heat_bath_log_odds(lat, log_w, math.log(params.gamma), occ, c)
        clustering = odds - log_w[lat.class_order[lat.class_rows[c]], None]
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
    worst = 0.0
    for _ in range(1_000):
        counts = rng.poisson(0.4, lat.n_sites)
        dhat = rng.normal(0.0, 1.2, lat.n_sites)
        clamped = held_sites(dhat, params)
        log_w = _site_weights(dhat, params)[1]
        # the classes that hold a simulated site, drawn from as when held sites sat outside them
        live = [c for c, rows in enumerate(lat.class_rows) if not clamped[lat.class_order[rows]].all()]
        c = live[int(rng.integers(len(live)))]
        sites = lat.class_order[lat.class_rows[c]]
        occ = np.append(((counts > 0) | clamped)[lat.class_order], False)[:, None]
        odds = heat_bath_log_odds(lat, log_w, math.log(params.gamma), occ, c)[:, 0]
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
        occ = np.append(np.array(pattern, dtype=bool)[lat.class_order], False)[:, None]
        for c, rows in enumerate(lat.class_rows):
            prob = 1.0 / (1.0 + np.exp(-heat_bath_log_odds(lat, log_w, math.log(params.gamma), occ, c)[:, 0]))
            for s, p_on in zip(lat.class_order[rows].tolist(), prob):
                if held[s]:  # a held site sits in its class and always turns on
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
