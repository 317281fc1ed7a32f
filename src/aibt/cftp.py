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
its neighbours, so its logit is not computed.  On a sparse posterior
nearly every update is such a decided one, and a field whose expected
share of live updates (uniforms below their cut) is small sweeps only the
live ones instead: it keeps per chain and site a bitmask of the classes
covering the site, and settles a sweep's live updates in vectorized
passes to the state the class-by-class sweep reaches.  The field knows
only ``log W`` and ``log gamma``; the multiplicity law, kept apart, sums
``log W`` over chunks of rate-sorted sites, each only as far as its own
rates need, and draws the counts.  Random streams are drawn only as far
as they are read: numpy fills them one value at a time, so a short fill
is a prefix.

Sites are either simulated or held.  A site whose dominating rate ``lam *
exp(dhat**2 * g)``, ``g = tau**2 / (2 * sigma**2 * (sigma**2 + tau**2))``,
exceeds ``e**4`` is held: it weighs ``W_s = +inf``, so every update turns
it on in both chains, and its count is not drawn; the estimator takes its
coefficient from the observation.  Draws are exact for this posterior
conditioned on the held sites being occupied, the close approximation the
sampler targets.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import logging
import math

import numpy as np

from .lattice import Lattice, lattice_for
from .model import ModelParams, check_dhat, log_count_terms, log_dominating_rate

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
# expected share of live site updates below which a field sweeps only its live sites (see _OccupancyField)
_LIVE_SHARE = 0.025
_ALL_CLASSES = 0xFFF  # every colour class's bit: the mask of the neighbour table's pad, which reads as covered


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


_Schedule = collections.namedtuple("_Schedule", "rank class_rows class_nbr bit full")


@functools.lru_cache(maxsize=32)
def _schedule(lattice: Lattice) -> _Schedule:
    """The tables the sweep kernels read, built once per lattice; the arrays are read-only.

    Site ``(j, k)`` has colour ``(j mod 3, k mod 4)``, and no two sites of one colour class have intersecting
    neighbourhoods: neighbourhoods span three adjacent levels, and on one level they meet only for positions at most
    three apart (checked exhaustively by the test suite).  A sweep updates the non-empty classes in colour order.
    The schedule holds five tables.  The dense kernel lays the sites out class by class: row ``rank[s]`` holds site
    ``s`` (the pad keeps ``n_sites``), class ``c`` is the block of rows ``class_rows[c]``, and ``class_nbr[c]`` is
    ``nbr`` of that block renumbered by ``rank``, neighbour-major and contiguous.  The live kernel reads, in flat
    order, the ``bit`` of each site's class, and the ``full`` mask of the all-occupied pattern (see
    :func:`_covering_bits`).  No two sites of a class share a neighbour, so the bits of ``B(v)``, the sites covering
    ``v``, never collide.
    """
    n, levels = lattice.n_sites, np.arange(lattice.n_levels)
    j = np.repeat(levels, 2**levels)
    colour = (j % 3) * 4 + (np.arange(n) + 1 - 2**j) % 4
    class_order = np.argsort(colour, kind="stable")
    rank = np.append(np.argsort(class_order), n)  # the pad keeps its index
    sizes = np.bincount(colour)
    sizes = sizes[sizes > 0]
    class_rows = tuple(slice(hi - m, hi) for hi, m in zip(np.cumsum(sizes).tolist(), sizes.tolist()))
    class_nbr = tuple(np.ascontiguousarray(rank[lattice.nbr[class_order[r]].T]) for r in class_rows)
    bit = (1 << np.repeat(np.arange(sizes.size), sizes)[rank[:-1]]).astype(np.uint16)  # each row's class, by site
    schedule = _Schedule(rank, class_rows, class_nbr, bit, _covering_bits(lattice, bit, np.arange(n)))
    for a in (rank, *class_nbr, bit, schedule.full):
        a.flags.writeable = False
    return schedule


def _covering_bits(lattice: Lattice, bit: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """The masks of the pattern where ``sites`` are occupied: per site ``v`` the sum (so the union) of ``bit``
    over the occupied sites of ``B(v)``, then ``_ALL_CLASSES`` for the pad."""
    mask = np.zeros(lattice.n_sites + 1, dtype=np.uint16)
    np.add.at(mask, lattice.nbr[sites], bit[sites, None])  # by symmetry, the sites s with v in B(s)
    mask[-1] = _ALL_CLASSES
    return mask


@functools.lru_cache(maxsize=64)
def _void(width: int) -> np.dtype:
    """The ``np.void`` dtype of ``width`` bytes, built once per width."""
    return np.dtype((np.void, width))


def _rows(a: np.ndarray) -> np.ndarray:
    """Each row along the last axis of a contiguous 1-byte array as one ``np.void`` element."""
    return a.view(_void(a.shape[-1]))[..., 0]


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
    for c in sorted(set(site_cap.tolist())):  # not np.unique, which imports numpy.ma
        d, s = draw[site_cap == c], site[site_cap == c]
        cdf = np.cumsum(np.exp(log_count_terms(dhat[s], params, c) - log_w[s, None]), axis=1)
        counts[d, s] = np.minimum(1 + (cdf < u[d, s, None]).sum(axis=1), c)
    return counts


class _OccupancyField:
    """Heat-bath dynamics of a binary area-interaction field with site weights ``log W`` and interaction ``log gamma``.

    A site with ``log W = +inf`` is held: every update turns it on.  The field keeps the caller's flat ``log_w``,
    the flat indices of its ``held`` sites, and per site one ``cut``, :func:`_decided_off_cut` with held sites at 0.
    An update is live when its uniform is below its site's cut, so a held site's never is; both kernels take a
    sweep's live updates from :meth:`live_updates`.  Chain states are int8 arrays ``occ[n_sites + 1, 2 * draws]`` in
    class-major order: row ``schedule.rank[s]`` holds site ``s`` in the top chains of every draw, then in the
    bottom chains, and class ``c`` is the slice ``schedule.class_rows[c]``, whose coverage is gathered through
    ``schedule.class_nbr[c]`` (the lattice's :func:`_schedule`).  ``cov[v]`` counts the occupied sites in ``B(v)``,
    which by the symmetry of neighbourhoods is how many cover ``v``.  The last row pads the neighbour table: it stays
    empty in ``occ`` and holds ``_PAD_COVERAGE`` in ``cov``, so it never counts as uncovered.

    A field whose expected share of live updates, the mean over its sites of ``min(cut, 1)``, is below
    ``_LIVE_SHARE`` runs the ``"live"`` kernel, :meth:`_run_live`; the others run the ``"dense"`` one, class by
    class over these rows.
    """

    def __init__(self, lattice: Lattice, log_w: np.ndarray, log_gamma: float):
        self.lattice, self.schedule, self.log_w = lattice, _schedule(lattice), log_w
        self.steps = np.arange(lattice.max_neighbourhood + 1)[:, None] * log_gamma  # log-odds drop per unc
        self.held = np.flatnonzero(log_w == np.inf)
        self.cut = _decided_off_cut(log_w)
        self.cut[self.held] = 0.0  # a held site's update is never live
        self.kernel = "live" if np.minimum(self.cut, 1.0).mean() < _LIVE_SHARE else "dense"

    # the start states are constants of the field, built when its kernel first runs and repeated per run
    @functools.cached_property
    def start_occ(self) -> np.ndarray:
        """The top chain's start (all occupied) and the bottom chain's (held sites only), one column each."""
        occ = np.zeros((self.lattice.n_sites + 1, 2), dtype=np.int8)
        occ[:-1, 0] = occ[self.schedule.rank[self.held], 1] = 1
        return occ

    @functools.cached_property
    def start_cov(self) -> np.ndarray:
        """The coverage of :attr:`start_occ`."""
        lattice, n, rows = self.lattice, self.lattice.n_sites, self.schedule.rank[:-1]
        cov = np.full((n + 1, 2), _PAD_COVERAGE, dtype=np.int8)
        # held sites in each B(v), counted in flat order: neighbourhoods are symmetric and hold no duplicate
        held_near = np.bincount(lattice.nbr[self.held].ravel(), minlength=n + 1)
        cov[rows, 0] = lattice.neighbourhood_sizes
        cov[rows, 1] = held_near[:-1]
        return cov

    @functools.cached_property
    def held_mask(self) -> np.ndarray:
        """The mask of the held-only pattern, in flat order with the pad (see :func:`_covering_bits`)."""
        return _covering_bits(self.lattice, self.schedule.bit, self.held)

    def live_updates(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The draw, site and on-limit of each live update of ``u[draw, site]``: its uniform is below the cut.

        The on-limit is the largest ``unc`` with ``logit(u) < log W - unc * log(gamma)``, or -1.  The log-odds
        never increase with ``unc``, so ``unc <= limit`` is that float comparison.  Every other update turns
        its site off whatever the neighbours, unless the site is held, when it turns it on.
        """
        live = np.flatnonzero(u < self.cut)
        draw, site = np.divmod(live, u.shape[1])
        v = np.take(u, live)
        with np.errstate(divide="ignore"):
            logit = np.log(v) - np.log1p(-v)
        return draw, site, (logit < self.log_w[site] - self.steps).sum(axis=0) - 1

    def on_limits(self, u: np.ndarray) -> np.ndarray:
        """Per row and chain, the on-limit of ``u[draw, site]`` (see :meth:`live_updates`).

        Off updates get -1 and held sites the top limit, which no ``unc`` exceeds.  Like ``occ``, the result has
        a column per top chain and then per bottom chain; both chains share ``u``.
        """
        lim = np.full((u.shape[1], 2 * len(u)), -1, dtype=np.int8)
        lim[self.schedule.rank[self.held]] = len(self.steps) - 1
        draw, site, on = self.live_updates(u)
        row = self.schedule.rank[site]
        lim[row, draw] = lim[row, draw + len(u)] = on
        return lim

    def update_class(self, occ: np.ndarray, cov: np.ndarray, c: int, lim: np.ndarray) -> None:
        """Heat-bath update of class ``c`` in place: a site turns on iff ``unc <= lim``.

        ``lim[i, j]`` is chain ``j``'s on-limit at row ``i`` (see :meth:`on_limits`).  ``cov`` counts ``s``
        itself when occupied, so the sites of ``B(s)`` that no other occupied site covers are those with ``cov
        == occ[s]``.  No two sites of a class share a neighbour, so the scattered rows are distinct, apart
        from the pad row, which is reset after.
        """
        rows, nbr = self.schedule.class_rows[c], self.schedule.class_nbr[c]
        near = np.take(cov, nbr, axis=0)
        here = occ[rows]
        unc = (near == here).view(np.int8).sum(axis=0, dtype=np.int8)
        new = (unc <= lim[rows]).view(np.int8)
        near += new - here
        _rows(cov)[nbr] = _rows(near)
        cov[-1] = _PAD_COVERAGE
        occ[rows] = new

    def _uniforms(self, roots: list[np.ndarray], sweeps: int):
        """Each sweep's uniforms, from ``sweeps`` steps before time zero on, in one array refilled per sweep."""
        u = np.empty((len(roots), self.lattice.n_sites))
        for t in range(sweeps, 0, -1):
            for row, root in zip(u, roots):
                _key(root, t).random(out=row)
            yield u

    def run(self, roots: list[np.ndarray], sweeps: int) -> np.ndarray:
        """Both chains at time zero after ``sweeps >= 1`` sweeps, C-contiguous, shape ``(2, draws, n_sites)``.

        Each sweep's uniforms come from the draw's key for that sweep.  The field's ``kernel``, ``"live"``
        or ``"dense"``, runs the sweeps; both give the same chains.
        """
        return self._run_live(roots, sweeps) if self.kernel == "live" else self._run_dense(roots, sweeps)

    def _run_dense(self, roots: list[np.ndarray], sweeps: int) -> np.ndarray:
        """:meth:`run` class by class over every row."""
        n, d = self.lattice.n_sites, len(roots)
        occ, cov = np.repeat(self.start_occ, d, axis=1), np.repeat(self.start_cov, d, axis=1)
        for u in self._uniforms(roots, sweeps):
            lim = self.on_limits(u)
            for c in range(len(self.schedule.class_rows)):
                self.update_class(occ, cov, c, lim)
        return np.ascontiguousarray(np.take(occ, self.schedule.rank[:-1], axis=0).view(bool).T).reshape(2, -1, n)

    def _run_live(self, roots: list[np.ndarray], sweeps: int) -> np.ndarray:
        """:meth:`run` over the live updates alone: those whose uniform is below their site's cut.

        A sweep's other updates turn their site off whatever its neighbours, and held sites stay on, so
        a chain after a sweep is its held sites and its live sites that turned on.  Chain ``j`` keeps a
        mask per site ``v`` (flat index ``j * (n + 1) + v``): the classes of its occupied sites that cover
        ``v``.  A live site of class ``c`` sees ``v`` covered by another site iff a class updated before
        ``c`` covers it after the sweep, or one updated after ``c`` covers it before the sweep.  So each
        sweep gathers the masks before it, clears the last sweep's live sites to leave the held ones,
        and updates every live pair in passes, toggling the bits of the pairs that changed.  A class
        depends only on earlier ones, so after pass ``k`` the first ``k`` classes are final, and the pass
        that changes nothing, at the latest the 13th, ends at the class-by-class sweep's state.
        """
        n, d, schedule = self.lattice.n_sites, len(roots), self.schedule
        rows = np.empty((2 * d, n + 1), dtype=np.uint16)
        rows[:d], rows[d:] = schedule.full, self.held_mask  # the start states: top all occupied, bottom held only
        mask = rows.reshape(-1)

        def toggle(entries, bits):
            np.add.at(mask, entries, bits)  # bits given their leading axis: add.at broadcasts 1-d values wrongly
            mask[n :: n + 1] = _ALL_CLASSES

        off = None  # the last sweep's live pairs that ended on: their mask entries and minus their bits
        for u in self._uniforms(roots, sweeps):
            draw, site, lim = self.live_updates(u)
            lim, site = np.concatenate([lim, lim]), np.concatenate([site, site])
            chain = np.concatenate([draw, draw + d])  # top chains, then bottom
            at, bits = np.take(self.lattice.nbr.T, site, axis=1) + chain * (n + 1), schedule.bit[site]
            # the later classes' bits; a mask entry read never exceeds _ALL_CLASSES, so bits 12-15 need no clearing
            before = np.take(mask, at) & ~(2 * bits - 1)
            if off is None:  # the top chains' all-occupied start goes, leaving their held sites
                rows[:d] = self.held_mask
            else:
                toggle(*off)
            first, on = bits - 1, np.zeros(site.size, dtype=bool)
            for _ in range(len(schedule.class_rows) + 1):
                new = ((np.take(mask, at) & first | before) == 0).sum(axis=0) <= lim
                moved = np.flatnonzero(new != on)
                if not moved.size:
                    break
                toggle(at[:, moved], np.where(new, bits, -bits)[moved][None])  # off: minus, mod 2**16
                on = new
            else:
                raise RuntimeError("live updates did not reach a fixed point")
            off = at[:, on], -bits[on][None]
        out = np.zeros((2 * d, n), dtype=bool)
        out[:, self.held] = True
        out[chain[on], site[on]] = True
        return out.reshape(2, d, n)


def _occupancy(lattice: Lattice, log_w: np.ndarray, log_gamma: float, roots: list[np.ndarray]) -> np.ndarray:
    """Exact occupancy patterns at site weights ``log W`` and interaction ``log gamma``, one bool row per root.

    All draws run side by side from a shared lookback of 2, 4, ..., 4096
    sweeps.  A draw whose chains agree at time zero is final: a start
    further back sandwiches the same two chains and meets the same state,
    so only the rest go on to the next doubling, and starting the ladder at
    2 rather than 1 changes no draw.  A draw that has not coalesced after
    4096 sweeps raises :class:`CoalescenceError`, so a call makes at most
    ``8190 * draws * sites`` site updates, each applied to a top and a
    bottom chain, and holds ``O(draws * sites)`` memory.
    """
    occ = np.zeros((len(roots), lattice.n_sites), dtype=bool)
    field = _OccupancyField(lattice, log_w, log_gamma)
    active, sweeps = np.arange(len(roots)), 2
    while active.size:
        if sweeps > _MAX_LOOKBACK:
            raise CoalescenceError(gap, _MAX_LOOKBACK)
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
                    "held": field.held.size,
                    "kernel": field.kernel,
                }),
            )
        active, sweeps = active[~agree], 2 * sweeps
    return occ


def cftp_counts(dhat: np.ndarray, params: ModelParams, seeds) -> np.ndarray:
    """Exact posterior multiplicities of the simulated sites, one row per seed.

    Held sites (see :func:`held_sites`) are occupied in every draw and
    carry count zero here.  The occupancy patterns come from a lookback of
    2, 4, ..., 4096 sweeps (see :func:`_occupancy`); a draw that has not
    coalesced by then raises :class:`CoalescenceError`.

    Args:
        dhat: flat detail coefficients, one per site of a ``2**J - 1``-site lattice.
        params: model hyperparameters.
        seeds: one integer seed, ``SeedSequence`` or generator per draw.
    """
    dhat = check_dhat(dhat)
    lattice = lattice_for(dhat.size)
    roots = [_root(s) for s in seeds]
    cap, log_w = _site_weights(dhat, params)
    occ = _occupancy(lattice, log_w, math.log(params.gamma), roots)
    return _draw_counts(occ, roots, dhat, params, cap, log_w)
