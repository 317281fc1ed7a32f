"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from first principles: explicit
basis matrices, brute-force set arithmetic, and exhaustive enumerations of
count vectors and of occupancy patterns.  None of it reuses the
package's incremental or coupled machinery, so agreement is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from aibt.cftp import _PAD_COVERAGE
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


def gathered_coverage(lattice: Lattice, occ: np.ndarray) -> np.ndarray:
    """Coverage of a sampler chain state, gathered afresh from the neighbour table.

    ``occ`` has one row per site in the lattice's class-major order plus an
    empty pad row, and one column per chain.  Each row of the result counts
    the occupied sites of that site's neighbourhood; the pad row holds the
    sampler's pad value.  The sampler keeps this incrementally; tests check
    its running counts and start states against this full gather.
    """
    cov = np.full(occ.shape, _PAD_COVERAGE, dtype=np.int8)
    cov[:-1] = occ.astype(np.int64)[lattice.rank[lattice.nbr[lattice.class_order]]].sum(axis=1)
    return cov


def heat_bath_log_odds(lattice: Lattice, log_w: np.ndarray, log_gamma: float, occ: np.ndarray, c: int) -> np.ndarray:
    """The float log-odds ``log W_s - unc_s * log(gamma)`` of colour class ``c``'s sites in each chain of a state.

    ``occ`` is a sampler state (see :func:`gathered_coverage`) and ``log_w``
    is per site in flat order.  ``unc_s`` counts the sites of ``B(s)`` that
    no occupied site other than ``s`` covers.  The sampler compares integer
    on-limits with ``unc_s``; these are the floats those comparisons stand for.
    """
    rows = lattice.class_rows[c]
    sites = lattice.class_order[rows]
    cov = gathered_coverage(lattice, occ)[lattice.rank[lattice.nbr[sites]]]  # (sites, neighbours, chains)
    unc = (cov - occ[rows, None].astype(np.int64) == 0).sum(axis=1)
    return log_w[sites, None] - unc * log_gamma


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


def occupancy_law(dhat, params: ModelParams, held=(), prior=False) -> np.ndarray:
    """Exact law of the occupancy pattern on a lattice of at most 15 sites, by enumerating all ``2**n`` patterns.

    Entry ``p`` is the probability that exactly the sites of the bits of
    ``p`` are occupied (bit ``s`` for flat site ``s``).  Given occupancy the
    counts are independent, so a pattern scores ``sum_occupied log W_s -
    coverage * log(gamma)``, where ``W_s`` sums ``lam**c / c!`` times the
    likelihood ratio of ``c`` points against none over ``c = 1..400``, term by
    term, and coverage is the union of the occupied sites' neighbourhoods,
    built by :func:`neighbourhood`.  The law is conditioned on the ``held``
    sites being occupied.  With ``prior`` the likelihood ratio is left out,
    so every ``W_s`` sums ``lam**c / c!`` alone and ``dhat`` only sets the
    number of sites: the law of the prior, with no observation.
    """
    n = len(dhat)
    n_levels = (n + 1).bit_length() - 1
    assert 2**n_levels - 1 == n <= 15
    log_w = []
    for d in dhat:
        log_lik = [0.0 if prior else log_likelihood(d, c, params) for c in range(401)]
        terms = [c * math.log(params.lam) - math.lgamma(c + 1) + log_lik[c] for c in range(1, 401)]
        top = max(terms)
        assert terms[-1] < top - 60, "the sum over counts needs more terms"
        log_w.append(top + math.log(sum(math.exp(t - top) for t in terms)) - log_lik[0])
    cover = np.array([sum(1 << flat_index(*v) for v in neighbourhood(site_of(s), n_levels)) for s in range(n)])
    patterns = np.arange(2**n)
    occupied = patterns[:, None] >> np.arange(n) & 1
    covered = np.bitwise_or.reduce(occupied * cover, axis=1)[:, None] >> np.arange(n) & 1
    log_p = occupied @ np.array(log_w) - covered.sum(axis=1) * math.log(params.gamma)
    held_bits = sum(1 << int(s) for s in held)
    log_p[patterns & held_bits != held_bits] = -np.inf
    p = np.exp(log_p - log_p.max())
    return p / p.sum()
