"""Exact posterior sampling by monotone coupling-from-the-past on the occupancy field.

Given which sites are occupied, site multiplicities are independent, so the
posterior over occupancy patterns is a binary area-interaction field: an
occupied site ``s`` weighs ``W_s = sum_{c>=1} lam**c / c! * N(dhat_s; 0, v(c))
/ N(dhat_s; 0, v(0))`` and every covered site costs a factor ``1/gamma``.
The heat-bath conditional of a site is ``sigmoid(log W_s - unc_s * log
gamma)``, where ``unc_s`` counts the sites of ``B(s)`` that no other
occupied site covers.  For ``gamma >= 1`` it grows with the rest of the
pattern, so the field is attractive and Propp-Wilson monotone CFTP is exact
on it: a top chain started all occupied and a bottom chain started with
only the held sites (below) occupied, the least pattern they allow, share
every uniform; once they agree at time zero the common pattern is an
exact draw.  The lookback doubles from 2 to at most 4096 sweeps;
near the field's ordered phase (large ``lam`` and ``gamma``) the chains
may not meet by then, and the sampler raises rather than run on.  Each
sweep updates the lattice's colour classes in turn; no two sites of one
class have intersecting neighbourhoods, so a class updates as one
vectorized step.  The chains of all draws are stored one
row per site in the lattice's class-major order, so a class is a slice of
rows and its update gathers and scatters only the coverage around it; its
cost hardly grows with the number of draws.  Each sweep turns each
uniform into an integer on-limit, the largest ``unc`` at which it turns
its site on; a uniform at or above its site's cut turns it off whatever
its neighbours, so its logit is not computed.  The field knows only ``log
W`` and ``log gamma``; the multiplicity law, kept apart, sums ``log W``
over chunks of rate-sorted sites, each only as far as its own rates need,
and draws the counts.  Random streams are drawn only as far as they are
read: numpy fills them one value at a time, so a short fill is a prefix.

Sites are either simulated or held.  A site whose dominating rate ``lam *
exp(dhat**2 * g)``, ``g = tau**2 / (2 * sigma**2 * (sigma**2 + tau**2))``,
exceeds ``e**4`` is held: it weighs ``W_s = +inf``, so every update turns
it on in both chains, and its count is not drawn; the estimator takes its
coefficient from the observation.  Draws are exact for this posterior
conditioned on the held sites being occupied, the close approximation the
sampler targets.
"""

from __future__ import annotations

import itertools
import json
import logging
import math

import numpy as np

from .lattice import Lattice, lattice_for
from .model import ModelParams, log_count_terms, log_dominating_rate

__all__ = [
    "held_sites",
    "CoalescenceError",
    "cftp_counts",
]

logger = logging.getLogger(__name__)

# log dominating rate above which a site is held rather than simulated
_HELD_LOG_RATE = 4.0
# the multiplicity sum is cut where the dropped tail is below this share of W_s
_LOG_TAIL_SHARE = -60.0 * math.log(2.0)
_CHUNK_SITES = 256  # rate-sorted simulated sites that share one count cap; equal caps share one pass
_PAD_COVERAGE = -1  # coverage of the neighbour table's pad row: never equal to an occupancy
# the longest lookback in sweeps; a draw not coalesced by then raises CoalescenceError
_MAX_LOOKBACK = 2**12


def held_sites(dhat: np.ndarray, params: ModelParams) -> np.ndarray:
    """Mask of the sites held occupied: dominating rate above ``e**4``.

    The rest are simulated.  The comparison is made in log space, so no
    coefficient is too large for it.
    """
    return np.asarray(log_dominating_rate(dhat, params)) > _HELD_LOG_RATE


class CoalescenceError(RuntimeError):
    """Raised when the chains have not met within the allowed lookback."""

    def __init__(self, gap: int, horizon: float):
        super().__init__(f"top and bottom chains still differ at {gap} sites after {horizon:g} sweeps")
        self.gap = gap
        self.horizon = horizon


def _count_cap(log_rate: float, start: int = 1) -> int:
    """How many multiplicities the sums over ``c`` keep, given the largest log rate.

    With ``r = exp(log_rate)`` the terms obey ``a_{c+1} <= a_c * r / (c+1)``,
    so ``a_c <= a_1 * r**(c-1) / c!``; past ``c >= 2r`` they at least halve
    at each step.  The mass dropped beyond ``cap`` is then at most
    ``2 * r**cap / (cap+1)!`` times ``a_1 <= W_s``, which the loop pushes
    below ``2**-60``.  The cap never falls as the rate rises (the bound
    grows with it, and so does ``2r``), so a search may ``start`` at the cap
    of any lower rate.  The sampler asks once per chunk of rate-sorted
    sites, with the chunk's largest rate, and evaluates the terms of all
    chunks with one cap together: 10 terms at a rate of ``e**-3``, 19 at 1
    and 180 at the largest simulated rate, ``e**4``.
    """
    cap = max(start, math.ceil(2.0 * math.exp(log_rate)))
    while math.log(2.0) + cap * log_rate - math.lgamma(cap + 2) > _LOG_TAIL_SHARE:
        cap += 1
    return cap


def _decided_off_cut(log_w: np.ndarray) -> np.ndarray:
    """Per site, the uniform at and above which an update turns the site off whatever its neighbours.

    A site turns on iff ``logit(u) < log W_s - unc_s * log(gamma) <= log W_s``.
    The cut is ``expit(log W_s + 1e-6)``; its few-ulp relative error moves
    its logit by that error over ``1 - u``, under ``2e-7`` while
    ``log W_s < 20``, and the float ``log(u) - log1p(-u)`` errs by under
    ``1e-12``, so at and above the cut the float logit is above ``log W_s``.
    Outside ``-700 < log W_s < 20`` (float spacing near 1 too wide above,
    subnormals below) and at held sites the cut is ``+inf``.
    """
    cut = np.full(log_w.shape, np.inf)
    inside = (log_w > -700.0) & (log_w < 20.0)
    cut[inside] = 1.0 / (1.0 + np.exp(-(log_w[inside] + 1e-6)))
    return cut


def _key(root: np.ndarray, t: int) -> np.random.Generator:
    """The stream of one draw at sweep ``t`` (``t >= 1`` steps before time zero; 0 for counts)."""
    return np.random.default_rng(np.random.SeedSequence(root, spawn_key=(t,)))


def _root(seed) -> np.ndarray:
    """A draw's root entropy; taken from the generator, so a reused generator gives fresh draws."""
    ints = np.random.default_rng(seed).integers(2**63, size=2).tolist()
    # the uint32 words SeedSequence makes of a list of ints (no zero high word): the same keys, derived faster
    return np.array([w for x in ints for w in (x & 0xFFFFFFFF, x >> 32)[: 1 + (x >= 2**32)]], dtype=np.uint32)


def _rows(a: np.ndarray) -> np.ndarray:
    """Each row along the last axis of a contiguous 1-byte array as one ``np.void`` element."""
    return a.view(np.dtype((np.void, a.shape[-1])))[..., 0]


def _site_weights(dhat: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per site, the multiplicity cap and ``log W``; held sites get cap 0 and ``log W = +inf``.

    Simulated sites are capped per chunk of ``_CHUNK_SITES`` in rate order, tied rates in site order (see
    :func:`_count_cap`); a run of chunks with one cap shares one pass.
    """
    log_rate = log_dominating_rate(dhat, params)
    sim_sites = np.flatnonzero(~(log_rate > _HELD_LOG_RATE))  # the complement of held_sites
    log_rate = log_rate[sim_sites]
    by_rate = np.argsort(log_rate)
    if not (log_rate[by_rate[1:]] > log_rate[by_rate[:-1]]).all():  # a tie: only the stable order is unique
        by_rate = np.argsort(log_rate, kind="stable")
    chunk_tops = log_rate[np.append(by_rate[_CHUNK_SITES - 1 :: _CHUNK_SITES], by_rate[-1:])]  # a last one may repeat
    ranked = sim_sites[by_rate]
    cap = np.zeros(dhat.size, dtype=np.int64)
    log_w = np.full(dhat.size, np.inf)
    lo = 0
    caps = itertools.accumulate(chunk_tops.tolist(), lambda c, r: _count_cap(r, c), initial=1)  # tops ascend
    for c, run in itertools.groupby(itertools.islice(caps, 1, None)):
        sites = ranked[lo : lo + _CHUNK_SITES * len(list(run))]
        lo += sites.size
        cap[sites] = c
        terms = log_count_terms(dhat[sites], params, c)
        top = np.ascontiguousarray(terms.T).max(axis=0)
        np.exp(np.subtract(terms, top[:, None], out=terms), out=terms)
        log_w[sites] = top + np.log(terms.sum(axis=1))
    return cap, log_w


def _draw_counts(occ: np.ndarray, roots: list[np.ndarray], dhat: np.ndarray, params: ModelParams,
                 cap: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """Multiplicities from ``P(c) ~ lam**c/c! N(dhat; 0, v(c))``, ``c <= cap``, where ``occ[draw, site]`` holds.

    ``cap`` and ``log_w`` come from :func:`_site_weights`; the count terms
    are evaluated only at the occupied simulated sites, once per cap, with uniforms from each draw's key 0.
    """
    counts = np.zeros(occ.shape, dtype=np.int64)
    draw, site = np.divmod(np.flatnonzero(occ & (cap > 0)), occ.shape[1])
    u = np.empty(occ.shape)
    for i in np.flatnonzero(np.append(draw[1:] != draw[:-1], draw.size > 0)):  # each draw's last site
        _key(roots[draw[i]], 0).random(out=u[draw[i], : site[i] + 1])
    site_cap = cap[site]
    for c in np.unique(site_cap):
        d, s = draw[site_cap == c], site[site_cap == c]
        cdf = np.cumsum(np.exp(log_count_terms(dhat[s], params, c) - log_w[s, None]), axis=1)
        counts[d, s] = np.minimum(1 + (cdf < u[d, s, None]).sum(axis=1), c)
    return counts


class _OccupancyField:
    """Heat-bath dynamics of a binary area-interaction field with site weights ``log W`` and interaction ``log gamma``.

    A site with ``log W = +inf`` is held: every update turns it on.
    Chain states are int8 arrays ``occ[n_sites + 1, 2 * draws]`` in class-major
    order: row ``i`` holds site ``lattice.class_order[i]`` in the top chains
    of every draw, then in the bottom chains, and class ``c`` is the slice
    ``lattice.class_rows[c]``, whose coverage is gathered through
    ``lattice.class_nbr[c]``.
    ``cov[v]`` counts the occupied sites in ``B(v)``, which by the symmetry
    of neighbourhoods is how many cover ``v``.  The last row pads the
    neighbour table: it stays empty in ``occ`` and holds ``_PAD_COVERAGE``
    in ``cov``, so it never counts as uncovered.
    """

    def __init__(self, lattice: Lattice, log_w: np.ndarray, log_gamma: float):
        n = lattice.n_sites
        order = lattice.class_order
        self.lattice = lattice
        self.log_w = log_w[order]  # by row
        self.steps = np.arange(lattice.max_neighbourhood + 1)[:, None] * log_gamma  # log-odds drop per unc
        # both start states are constants of the field, built once and repeated per run
        held_pad = np.append(self.log_w == np.inf, False)
        self.start_occ = np.stack([np.arange(n + 1) < n, held_pad], axis=1).astype(np.int8)
        self.start_cov = np.full((n + 1, 2), _PAD_COVERAGE, dtype=np.int8)
        # held sites in each B(v), counted in flat order: neighbourhoods are symmetric and hold no duplicate
        held_near = np.bincount(lattice.nbr[log_w == np.inf].ravel(), minlength=n + 1)
        self.start_cov[:-1, 0] = lattice.neighbourhood_sizes[order]
        self.start_cov[:-1, 1] = held_near[order]
        self.u_off = _decided_off_cut(log_w)

    def start(self, n_draws: int) -> tuple[np.ndarray, np.ndarray]:
        """Top chains (all occupied) and bottom chains (held sites only), shape ``(n+1, 2 * n_draws)``."""
        return np.repeat(self.start_occ, n_draws, axis=1), np.repeat(self.start_cov, n_draws, axis=1)

    def on_limits(self, u: np.ndarray) -> np.ndarray:
        """Per row and chain, the largest ``unc`` with ``logit(u[draw, site]) < log W - unc * log(gamma)``, or -1.

        The log-odds never increase with ``unc``, so ``unc <= limit`` is that float comparison.  Like
        ``occ``, the result has a column per top chain and then per bottom chain; both chains share ``u``.
        """
        lim = np.full((u.shape[1], 2 * len(u)), -1, dtype=np.int8)
        live = np.flatnonzero(u < self.u_off)
        draw, site = np.divmod(live, u.shape[1])
        row, v = self.lattice.rank[site], np.take(u, live)
        with np.errstate(divide="ignore"):
            logit = np.log(v) - np.log1p(-v)
        lim[row, draw] = lim[row, draw + len(u)] = (logit < self.log_w[row] - self.steps).sum(axis=0) - 1
        return lim

    def update_class(self, occ: np.ndarray, cov: np.ndarray, c: int, lim: np.ndarray) -> None:
        """Heat-bath update of class ``c`` in place: a site turns on iff ``unc <= lim``.

        ``lim[i, j]`` is chain ``j``'s on-limit at row ``i`` (see :meth:`on_limits`).  ``cov`` counts ``s``
        itself when occupied, so the sites of ``B(s)`` that no other occupied site covers are those with ``cov
        == occ[s]``.  No two sites of a class share a neighbour, so the scattered rows are distinct, apart
        from the pad row, which is reset after.
        """
        rows, nbr = self.lattice.class_rows[c], self.lattice.class_nbr[c]
        near = np.take(cov, nbr, axis=0)
        here = occ[rows]
        unc = (near == here).view(np.int8).sum(axis=0, dtype=np.int8)
        new = (unc <= lim[rows]).view(np.int8)
        _rows(cov)[nbr] = _rows(near + (new - here))
        cov[-1] = _PAD_COVERAGE
        occ[rows] = new

    def run(self, roots: list[np.ndarray], sweeps: int) -> np.ndarray:
        """Both chains at time zero after ``sweeps`` sweeps, C-contiguous, shape ``(2, draws, n_sites)``.

        Each sweep's uniforms come from the draw's key for that sweep.
        """
        n = self.lattice.n_sites
        occ, cov = self.start(len(roots))
        u = np.empty((len(roots), n))
        for t in range(sweeps, 0, -1):
            for row, root in zip(u, roots):
                _key(root, t).random(out=row)
            lim = self.on_limits(u)
            for c in range(len(self.lattice.class_rows)):
                self.update_class(occ, cov, c, lim)
        return np.ascontiguousarray(np.take(occ, self.lattice.rank[:-1], axis=0).view(bool).T).reshape(2, -1, n)


def cftp_counts(dhat: np.ndarray, params: ModelParams, seeds) -> np.ndarray:
    """Exact posterior multiplicities of the simulated sites, one row per seed.

    Held sites (see :func:`held_sites`) are occupied in every draw and
    carry count zero here.

    All draws run side by side from a shared lookback of 2, 4, ..., 4096
    sweeps.  A draw whose chains agree at time zero is final: a start
    further back sandwiches the same two chains and meets the same state,
    so only the rest go on to the next doubling, and starting the ladder at
    2 rather than 1 changes no draw.  A draw that has not coalesced after
    4096 sweeps raises :class:`CoalescenceError`, so whatever the
    parameters a call makes at most ``8190 * draws * sites`` site updates,
    each applied to a top and a bottom chain, and holds ``O(draws *
    sites)`` memory.

    Args:
        dhat: flat detail coefficients, one per site of a ``2**J - 1``-site lattice.
        params: model hyperparameters.
        seeds: one integer seed, ``SeedSequence`` or generator per draw.
    """
    dhat = np.asarray(dhat, dtype=float)
    if dhat.ndim != 1:
        raise ValueError("dhat must hold one value per lattice site")
    if np.isnan(dhat).any():  # +-inf is allowed: those sites are held
        raise ValueError("dhat must not hold nan")
    lattice = lattice_for(dhat.size)
    roots = [_root(s) for s in seeds]
    if not roots:  # no draws to run: a chain state with no columns has no rows to view
        return np.zeros((0, lattice.n_sites), dtype=np.int64)
    cap, log_w = _site_weights(dhat, params)
    field = _OccupancyField(lattice, log_w, math.log(params.gamma))
    occ = np.zeros((len(roots), lattice.n_sites), dtype=bool)
    active = np.arange(len(roots))
    for sweeps in (2**k for k in range(1, _MAX_LOOKBACK.bit_length())):
        top, bottom = field.run([roots[i] for i in active], sweeps)
        agree = (top == bottom).all(axis=1)
        occ[active[agree]] = top[agree]
        gap = int((top != bottom).sum())
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "coupling run %s",
                json.dumps({
                    "sweeps": sweeps,
                    "draws": int(active.size),
                    "draw_sweeps": sweeps * int(active.size),
                    "coalesced": int(agree.sum()),
                    "gap": gap,
                    "held": int((log_w == np.inf).sum()),
                }),
            )
        active = active[~agree]
        if not active.size:
            return _draw_counts(occ, roots, dhat, params, cap, log_w)
    raise CoalescenceError(gap, _MAX_LOOKBACK)
