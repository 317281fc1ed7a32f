"""Independent reference implementations the tests check the package against.

Everything here is deliberately written from first principles: explicit
basis matrices, brute-force set arithmetic, an exhaustive state enumeration,
and a forward birth-death equilibrium chain.  None of it reuses the
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
        v = params.sigma**2 + params.tau**2 * float(c)
        lp += -dhat[s] ** 2 / (2 * v) - 0.5 * math.log(2 * math.pi * v)
        lp -= math.lgamma(c + 1)
    return lp


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


def gillespie_occupancy(
    dhat: np.ndarray,
    params: ModelParams,
    lattice: Lattice,
    n_chains: int,
    n_events: int,
    seed: int,
    n_groups: int = 50,
    count_cap: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Time-weighted occupancy of independent forward birth-death chains, with group SE.

    Birth rates are ratios of :func:`log_density` at neighbouring states
    (each point also dies at unit rate), which is detailed balance with the
    target posterior; the chains therefore equilibrate to the same law the
    coupled sampler draws from, by a completely different route.  All
    ``n_chains`` chains start empty and run ``n_events`` events each, side
    by side; the first 5% of each chain's events are discarded as burn-in.
    The chains are split into ``n_groups`` groups whose time-weighted means
    give the standard error.
    """
    ns = lattice.n_sites
    dhat = np.asarray(dhat, dtype=float)
    if n_chains % n_groups:
        raise ValueError("n_chains must be a multiple of n_groups")

    def gauss(s: int, c: int) -> float:
        v = params.sigma**2 + params.tau**2 * float(c)
        return -dhat[s] ** 2 / (2 * v) - 0.5 * math.log(2 * math.pi * v)

    # birth rate tables: count part per site, coverage part per occupancy pattern
    exp_g = np.array(
        [
            [math.exp(math.log(params.lam) + gauss(s, c + 1) - gauss(s, c)) for c in range(count_cap)]
            for s in range(ns)
        ]
    )
    cov_tab = [
        brute_coverage(lattice, {s for s in range(ns) if pat >> s & 1})
        for pat in range(1 << ns)
    ]
    dcov_pow = np.array(
        [
            [params.gamma ** -(cov_tab[pat | 1 << s] - cov_tab[pat]) for s in range(ns)]
            for pat in range(1 << ns)
        ]
    )

    rng = np.random.default_rng(seed)
    chains = np.arange(n_chains)
    sites = np.arange(ns)
    bits = 1 << sites
    counts = np.zeros((n_chains, ns), dtype=np.int64)
    burn = n_events // 20
    occ_time = np.zeros((n_chains, ns))
    t_total = np.zeros(n_chains)
    for ev in range(n_events):
        occupied = counts > 0
        # IndexError if a count reaches count_cap: the tables would be too short
        births = exp_g[sites, counts] * np.where(occupied, 1.0, dcov_pow[occupied @ bits])
        rates = np.concatenate([births, counts], axis=1)
        cum = np.cumsum(rates, axis=1)
        tot = cum[:, -1]
        u = rng.random((2, n_chains))
        dt = -np.log(u[0]) / tot
        if ev >= burn:
            t_total += dt
            occ_time += dt[:, None] * occupied
        # the first event whose cumulative rate exceeds the pick; its rate is positive
        pick = (cum <= (u[1] * tot)[:, None]).sum(axis=1)
        counts[chains, pick % ns] += np.where(pick < ns, 1, -1)
    groups = n_chains // n_groups
    group_time = t_total.reshape(n_groups, groups).sum(axis=1)
    means = occ_time.reshape(n_groups, groups, ns).sum(axis=1) / group_time[:, None]
    est = np.average(means, axis=0, weights=group_time)
    se = means.std(axis=0, ddof=1) / math.sqrt(n_groups)
    return est, se
