"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from first principles: explicit
basis matrices, brute-force set arithmetic, a site-by-site heat bath, and
exhaustive enumerations of count vectors and of occupancy patterns.  None
of it reuses the package's incremental or coupled machinery, so agreement
is evidence, not tautology; :func:`sandwich_updates` runs that machinery
under these checks.  Patterns are in flat site order, one column per
chain.  Only :func:`field_rows`, :func:`flat_chains` and
:func:`gathered_coverage` know the sampler's row layout, and with
:func:`sandwich_updates` and :func:`reference_run` they take it and the
update order from the sampler's schedule.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from aibt.cftp import _PAD_COVERAGE, _key, _OccupancyField, _schedule
from aibt.lattice import Lattice, lattice_for
from aibt.model import ModelParams

Site = tuple[int, int]


def flat_index(j: int, k: int) -> int:
    """Flat index of site ``(j, k)``: level-major, ``2**j - 1 + k``."""
    return 2**j - 1 + k


def site_of(s: int) -> Site:
    """The ``(j, k)`` site at flat index ``s``, the inverse of :func:`flat_index`."""
    j = (s + 1).bit_length() - 1
    return j, s - (2**j - 1)


def haar_matrix(n: int) -> np.ndarray:
    """Orthonormal Haar analysis matrix, rows ordered scaling then coarse to fine.

    Row 0 is the constant; the detail row for level ``j``, shift ``k`` is
    positive on the left half of its dyadic block.
    """
    rows = [np.full(n, 1.0 / math.sqrt(n))]
    n_levels = int(math.log2(n))
    for j in range(n_levels):
        block = n >> j
        half = block >> 1
        for k in range(1 << j):
            row = np.zeros(n)
            row[k * block : k * block + half] = 1.0
            row[k * block + half : (k + 1) * block] = -1.0
            rows.append(row / math.sqrt(block))
    return np.array(rows)


def neighbourhood(x: Site, n_levels: int) -> frozenset[Site]:
    """The neighbourhood ``B(x)``: ``x`` plus its clustered relatives, built site by site.

    Candidates are ``x`` itself; the parent; the parent-level site next
    nearest to ``x``; the two siblings; the two children; and the outer
    neighbours of the two children.  Positions wrap periodically within a
    level, candidates beyond the top or bottom level are dropped, and
    duplicates arising on narrow levels are merged, so the result has at
    most nine sites (exactly nine away from the boundary rows).  The
    lattice's padded table ``nbr`` is checked against this.
    """
    j, k = x
    if not (0 <= j < n_levels and 0 <= k < 2**j):
        raise ValueError(f"site {x!r} outside a {n_levels}-level lattice")
    sites = {x}
    width = 2**j
    sites.add((j, (k - 1) % width))
    sites.add((j, (k + 1) % width))
    if j > 0:
        up = 2 ** (j - 1)
        p = k // 2
        sites.add((j - 1, p))
        step = -1 if k % 2 == 0 else 1
        sites.add((j - 1, (p + step) % up))
    if j + 1 < n_levels:
        down = 2 ** (j + 1)
        sites.add((j + 1, 2 * k))
        sites.add((j + 1, 2 * k + 1))
        sites.add((j + 1, (2 * k - 1) % down))
        sites.add((j + 1, (2 * k + 2) % down))
    return frozenset(sites)


def brute_coverage(lattice: Lattice, occupied: set) -> int:
    """Sites whose neighbourhood meets the occupied set, counted one by one."""
    n_levels = lattice.n_levels
    covered = 0
    for s in range(lattice.n_sites):
        b = neighbourhood(site_of(s), n_levels)
        if any(flat_index(*v) in occupied for v in b):
            covered += 1
    return covered


def field_rows(lattice: Lattice, top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """The occupancy field's chain state of the flat patterns ``top`` and ``bottom``, each ``(n_sites, draws)``:
    row ``rank[s]`` of the lattice's schedule holds site ``s``, so the rows run class by class in its
    ``class_order``, an empty pad row follows, and the columns of the top chains come before those of the bottom
    chains."""
    rows = np.concatenate([top, bottom], axis=1)[_schedule(lattice).class_order]
    return np.append(rows, np.zeros((1, rows.shape[1]), dtype=bool), axis=0).astype(np.int8)


def flat_chains(lattice: Lattice, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat ``(top, bottom)`` halves of a field state's rows, the inverse of :func:`field_rows`."""
    flat = state[_schedule(lattice).rank[:-1]]
    return flat[:, : flat.shape[1] // 2], flat[:, flat.shape[1] // 2 :]


def gathered_coverage(lattice: Lattice, occ: np.ndarray) -> np.ndarray:
    """Coverage of a field chain state (see :func:`field_rows`), gathered afresh from the neighbour table: each
    row counts the occupied sites of its site's neighbourhood, and the pad row holds the sampler's pad value.
    The sampler keeps this incrementally; tests check its running counts and start states against it."""
    schedule = _schedule(lattice)
    cov = np.full(occ.shape, _PAD_COVERAGE, dtype=np.int8)
    cov[:-1] = occ.astype(np.int64)[schedule.rank[lattice.nbr[schedule.class_order]]].sum(axis=1)
    return cov


def heat_bath_log_odds(lattice: Lattice, log_w: np.ndarray, log_gamma: float, pattern: np.ndarray, sites) -> np.ndarray:
    """The float log-odds ``log W_s - unc_s * log(gamma)`` of each of the flat ``sites`` in each column of ``pattern``.

    ``pattern`` (``(n_sites, chains)``) and ``log_w`` are in flat site
    order.  ``unc_s`` counts the sites of ``B(s)`` that no occupied site
    other than ``s`` covers.  The sampler compares integer on-limits with
    ``unc_s``; these are the floats those comparisons stand for.
    """
    occ = np.append(pattern, np.zeros((1, pattern.shape[1]), dtype=bool), axis=0).astype(np.int64)
    # occupied sites in each B(v), which by symmetry are those covering v; the pad row is never 0 or 1
    cov = np.append(occ[lattice.nbr].sum(axis=1), np.full_like(occ[:1], -1), axis=0)
    return log_w[sites, None] - (cov[lattice.nbr[sites]] == occ[sites, None]).sum(axis=1) * log_gamma


def sandwich_updates(lattice: Lattice, log_w: np.ndarray, log_gamma: float, top: np.ndarray, bottom: np.ndarray,
                     uniforms) -> int:
    """Class updates of the field on coupled chains from the flat patterns ``top >= bottom``, each one checked.

    Each ``(draws, n_sites)`` array of ``uniforms``, read when needed, drives
    one sweep.  Before each class update its sites' heat-bath log-odds are
    ordered, top over bottom, with probabilities in [0, 1]; after it every
    bottom chain stays below its top chain; after each sweep the running
    coverage equals a fresh gather.  Returns the number of site updates per
    chain pair at simulated (``log W < inf``) sites.
    """
    field = _OccupancyField(lattice, log_w, log_gamma)
    occ = field_rows(lattice, top, bottom)
    cov = gathered_coverage(lattice, occ)
    updates = 0
    for u in uniforms:
        lim = field.on_limits(u)
        for c, rows in enumerate(field.schedule.class_rows):
            sites = field.schedule.class_order[rows]
            odds = heat_bath_log_odds(lattice, log_w, log_gamma, np.hstack(flat_chains(lattice, occ)), sites)
            hi, lo = np.split(odds, 2, axis=1)
            assert np.all((0.0 <= 1.0 / (1.0 + np.exp(-lo))) & (lo <= hi) & (1.0 / (1.0 + np.exp(-hi)) <= 1.0))
            field.update_class(occ, cov, c, lim)
            now_top, now_bottom = flat_chains(lattice, occ)
            assert np.all(now_bottom <= now_top)
            updates += int((log_w[sites] < np.inf).sum()) * len(u)
        assert np.array_equal(cov, gathered_coverage(lattice, occ))
    return updates


def reference_run(lattice: Lattice, dhat, params: ModelParams, held, roots, sweeps: int) -> np.ndarray:
    """A heat bath one site and one draw at a time, each site's ``log W`` summed term by term.  Sweep ``t`` of
    a draw reads the uniforms of its key ``t``, as the sampler's does, and visits the sites class by class; held
    sites stay occupied in both chains.  Returns both chains of every draw, shape ``(2, draws, n_sites)``."""
    log_w = np.array([math.inf if h else _log_weight(d, params) for d, h in zip(dhat, held)])
    draws = []
    for root in roots:
        chains = np.stack([np.ones(len(held), dtype=bool), np.array(held, dtype=bool)], axis=1)  # top, bottom
        for t in range(sweeps, 0, -1):
            u = _key(root, t).random(len(held))
            for s in _schedule(lattice).class_order.tolist():
                if not held[s]:
                    odds = heat_bath_log_odds(lattice, log_w, math.log(params.gamma), chains, [s])[0]
                    chains[s] = [u[s] < 1.0 / (1.0 + math.exp(-o)) for o in odds.tolist()]
        draws.append(chains.T)
    return np.array(draws).transpose(1, 0, 2)


def uncovered_measure(u: Site, counts) -> int:
    """Number of sites in ``B(u)`` not covered by any occupied site of a count vector.

    This is the coverage a new point at ``u`` would add, which is what the
    clustering term of the model prices.
    """
    lat = lattice_for(len(counts))
    occ = np.append(np.asarray(counts) > 0, False)
    b = lat.nbr[flat_index(*u)]
    b = b[b < lat.n_sites]
    return int((~occ[lat.nbr[b]].any(axis=1)).sum())


def log_density(counts, dhat: np.ndarray, params: ModelParams, lattice: Lattice) -> float:
    """Log posterior probability of a count vector, up to a constant shared by all count vectors.

    Written from the model definition: independent Poisson(1) reference per
    site (its ``1/c!``), intensity ``lam`` per point, clustering reward
    ``gamma`` per covered site, and a Gaussian marginal likelihood with
    variance ``sigma^2 + tau^2 c`` at each site.
    """
    occ = {s for s, c in enumerate(counts) if c > 0}
    n = int(sum(counts))
    lp = n * math.log(params.lam) - brute_coverage(lattice, occ) * math.log(params.gamma)
    for s, c in enumerate(counts):
        lp += log_likelihood(dhat[s], c, params) - math.lgamma(c + 1)
    return lp


def log_likelihood(d: float, c: int, params: ModelParams) -> float:
    """Log Gaussian density of an observation ``d`` at a site with ``c`` points: variance ``sigma^2 + tau^2 c``."""
    v = params.sigma**2 + params.tau**2 * float(c)
    return -(d**2) / (2 * v) - 0.5 * math.log(2 * math.pi * v)


def _log_weight(d: float, params: ModelParams, prior: bool = False) -> float:
    """``log W`` of a site observing ``d``: ``lam**c / c!`` times the likelihood ratio of ``c`` points against
    none (left out with ``prior``), summed term by term over ``c = 1..400``."""
    log_lik = [0.0 if prior else log_likelihood(d, c, params) for c in range(401)]
    terms = [c * math.log(params.lam) - math.lgamma(c + 1) + log_lik[c] for c in range(1, 401)]
    top = max(terms)
    assert terms[-1] < top - 60, "the sum over counts needs more terms"
    return top + math.log(sum(math.exp(t - top) for t in terms)) - log_lik[0]


def enumerate_posterior(
    dhat: np.ndarray, params: ModelParams, caps: tuple[int, ...]
) -> dict[tuple[int, ...], float]:
    """Exhaustive normalized posterior over count vectors up to per-site caps."""
    lattice = Lattice((len(caps) + 1).bit_length() - 1)
    assert lattice.n_sites == len(caps)
    logw = {
        counts: log_density(counts, dhat, params, lattice)
        for counts in itertools.product(*[range(c + 1) for c in caps])
    }
    mx = max(logw.values())
    z = sum(math.exp(v - mx) for v in logw.values())
    return {counts: math.exp(v - mx) / z for counts, v in logw.items()}


def occupancy_pattern_probs(post: dict[tuple[int, ...], float]) -> dict[tuple[int, ...], float]:
    out: dict[tuple[int, ...], float] = {}
    for counts, p in post.items():
        pat = tuple(int(c > 0) for c in counts)
        out[pat] = out.get(pat, 0.0) + p
    return out


def pattern_frequencies(counts) -> dict[tuple[int, ...], float]:
    """The share of the draws, the rows of ``counts``, with each occupancy pattern, keyed as by
    :func:`occupancy_pattern_probs`."""
    freq: dict[tuple[int, ...], float] = {}
    for row in counts:
        pat = tuple(int(c > 0) for c in row)
        freq[pat] = freq.get(pat, 0.0) + 1.0 / len(counts)
    return freq


def total_variation(p: dict, q: dict) -> float:
    """Total variation distance between two laws given as dicts of probabilities."""
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def occupancy_law(dhat, params: ModelParams, held=(), prior=False) -> np.ndarray:
    """Exact law of the occupancy pattern on a lattice of at most 15 sites, by enumerating all ``2**n`` patterns.

    Entry ``p`` is the probability that exactly the sites of the bits of
    ``p`` are occupied (bit ``s`` for flat site ``s``).  Given occupancy the
    counts are independent, so a pattern scores ``sum_occupied log W_s -
    coverage * log(gamma)``, with ``W_s`` from :func:`_log_weight` and
    coverage the union of the occupied sites' neighbourhoods, built by
    :func:`neighbourhood`.  The law is conditioned on the ``held`` sites
    being occupied.  With ``prior`` the likelihood ratio is left out, so
    ``dhat`` only sets the number of sites: the law of the prior, with no
    observation.
    """
    n = len(dhat)
    n_levels = (n + 1).bit_length() - 1
    assert 2**n_levels - 1 == n <= 15
    log_w = [_log_weight(d, params, prior) for d in dhat]
    cover = np.array([sum(1 << flat_index(*v) for v in neighbourhood(site_of(s), n_levels)) for s in range(n)])
    patterns = np.arange(2**n)
    occupied = patterns[:, None] >> np.arange(n) & 1
    covered = np.bitwise_or.reduce(occupied * cover, axis=1)[:, None] >> np.arange(n) & 1
    log_p = occupied @ np.array(log_w) - covered.sum(axis=1) * math.log(params.gamma)
    held_bits = sum(1 << int(s) for s in held)
    log_p[patterns & held_bits != held_bits] = -np.inf
    p = np.exp(log_p - log_p.max())
    return p / p.sum()
