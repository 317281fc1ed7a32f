"""Exact posterior sampling by monotone coupling-from-the-past on the occupancy field.

Given which sites are occupied, site multiplicities are independent, so the
posterior over occupancy patterns is a binary area-interaction field: an
occupied site ``s`` weighs ``W_s = sum_{c>=1} lam**c / c! * N(dhat_s; 0, v(c))
/ N(dhat_s; 0, v(0))`` and every covered site costs a factor ``1/gamma``.
The heat-bath conditional of a site is ``sigmoid(log W_s - unc_s * log
gamma)``, where ``unc_s`` counts the sites of ``B(s)`` that no other
occupied site covers.  For ``gamma >= 1`` it grows with the rest of the
pattern, so the field is attractive and Propp-Wilson monotone CFTP is exact
on it: a top chain started all occupied and a bottom chain started all
empty share every uniform; once they agree at time zero the common pattern
is an exact draw.  Each sweep updates the lattice's colour classes in turn;
no two sites of one class have intersecting neighbourhoods, so a class
updates as one vectorized step.  Occupied sites then draw their
multiplicity from its one-dimensional law.

Sites whose dominating rate ``lam * exp(dhat**2 * max_gain_exponent)`` is
too large are not simulated: above ``t1`` they are held occupied in both
chains (their count drawn by the estimator), above ``t2`` they are handed
to the estimator directly.  Draws are exact for this tier-conditioned
posterior, the close approximation the sampler targets.
"""

from __future__ import annotations

import enum
import json
import logging
import math

import numpy as np

from .lattice import Configuration, Lattice, lattice_for
from .model import ModelParams, log_count_terms, log_dominating_rate

__all__ = [
    "Tier",
    "DEFAULT_SIMULATION_CUTOFF",
    "DEFAULT_DIRECT_CUTOFF",
    "classify_sites",
    "CoalescenceError",
    "cftp_counts",
    "cftp_sample",
]

logger = logging.getLogger(__name__)

DEFAULT_SIMULATION_CUTOFF = math.exp(4.0)
DEFAULT_DIRECT_CUTOFF = math.exp(20.0)

# the multiplicity sum is cut where the dropped tail is below this share of W_s
_LOG_TAIL_SHARE = -60.0 * math.log(2.0)
# largest dominating rate a simulated site may have (about e**10.4); its
# multiplicity sum then runs to some 2**16 terms
_MAX_SIMULATED_RATE = 2.0**15
_CHUNK_TERMS = 2**20  # count terms evaluated at once


class Tier(enum.IntEnum):
    """How a site is handled by the sampler, by dominating-rate magnitude."""

    SIMULATED = 0
    OCCUPIED_ASSUMED = 1
    DIRECT = 2


def classify_sites(
    dhat: np.ndarray,
    params: ModelParams,
    t1: float = DEFAULT_SIMULATION_CUTOFF,
    t2: float = DEFAULT_DIRECT_CUTOFF,
) -> np.ndarray:
    """Assign each site a tier from its dominating rate.

    Rates at most ``t1`` are simulated exactly; rates in ``(t1, t2]`` are
    treated as permanently occupied (only the multiplicity is random);
    rates above ``t2`` are estimated directly from the observation.
    Comparison happens in log space so no finite cutoff can overflow.
    """
    if not (0 < t1 <= t2):
        raise ValueError("cutoffs must satisfy 0 < t1 <= t2")
    log_rate = np.asarray(log_dominating_rate(dhat, params))
    tiers = np.full(log_rate.shape, Tier.SIMULATED, dtype=np.int8)
    tiers[log_rate > math.log(t1)] = Tier.OCCUPIED_ASSUMED
    tiers[log_rate > math.log(t2)] = Tier.DIRECT
    return tiers


class CoalescenceError(RuntimeError):
    """Raised when the chains have not met within the allowed lookback."""

    def __init__(self, gap: int, horizon: float):
        super().__init__(f"top and bottom chains still differ at {gap} sites after {horizon:g} sweeps")
        self.gap = gap
        self.horizon = horizon


def _count_cap(log_rate: float) -> int:
    """How many multiplicities the sums over ``c`` keep, given the largest log rate.

    With ``r = exp(log_rate)`` the terms obey ``a_{c+1} <= a_c * r / (c+1)``,
    so ``a_c <= a_1 * r**(c-1) / c!``; past ``c >= 2r`` they at least halve
    at each step.  The mass dropped beyond ``cap`` is then at most
    ``2 * r**cap / (cap+1)!`` times ``a_1 <= W_s``, which the loop pushes
    below ``2**-60`` (about 175 terms at the default ``t1 = e**4``).
    """
    if log_rate > math.log(_MAX_SIMULATED_RATE):
        raise ValueError(
            f"a simulated site has dominating rate {math.exp(log_rate):.3g}; lower the cutoff t1"
        )
    cap = max(1, math.ceil(2.0 * math.exp(log_rate)))
    while math.log(2.0) + cap * log_rate - math.lgamma(cap + 2) > _LOG_TAIL_SHARE:
        cap += 1
    return cap


def _key(root: np.random.SeedSequence, t: int) -> np.random.Generator:
    """The stream of one draw at sweep ``t`` (``t >= 1`` steps before time zero; 0 for counts)."""
    return np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(t,)))


def _root(seed) -> np.random.SeedSequence:
    """A draw's root key; taken from the generator, so a reused generator gives fresh draws."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return np.random.SeedSequence(rng.integers(2**63, size=2).tolist())


class _OccupancyField:
    """Heat-bath dynamics of the tier-conditioned occupancy posterior of one signal.

    Chain states are boolean arrays ``occ[..., n_sites + 1]`` (the last entry
    pads the neighbour table and stays empty) with matching coverage counts
    ``cov[..., v]``: how many occupied sites lie in ``B(v)``, which by the
    symmetry of neighbourhoods is how many cover ``v``.
    """

    def __init__(self, lattice: Lattice, dhat: np.ndarray, params: ModelParams, tiers: np.ndarray):
        n = lattice.n_sites
        sim = np.asarray(tiers) == Tier.SIMULATED
        self.lattice = lattice
        self.sim = sim
        self.log_gamma = math.log(params.gamma)
        # both start states are constants of the field, built once and copied per run
        self.start_occ = np.stack([np.arange(n + 1) < n, np.append(~sim, False)])
        self.start_cov = self.coverage(self.start_occ)
        self.classes = []
        for members in lattice.colour_classes:
            sites = members[sim[members]]
            if sites.size:
                nb = lattice.nbr[sites]
                self.classes.append((sites, nb, nb < n))
        self.dhat = dhat
        self.params = params
        sim_sites = np.flatnonzero(sim)
        self.cap = 1
        if sim_sites.size:
            self.cap = _count_cap(float(np.max(log_dominating_rate(dhat[sim_sites], params))))
        self.log_w = np.zeros(n)
        for sites, terms in self._count_terms(sim_sites):
            top = terms.max(axis=1)
            self.log_w[sites] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))

    def _count_terms(self, sites: np.ndarray):
        """``(sites, log_count_terms)`` in chunks of bounded size."""
        rows = max(1, _CHUNK_TERMS // self.cap)
        for lo in range(0, sites.size, rows):
            chunk = sites[lo : lo + rows]
            yield chunk, log_count_terms(self.dhat[chunk], self.params, self.cap)

    def start(self, n_draws: int) -> tuple[np.ndarray, np.ndarray]:
        """Top chains (all occupied) and bottom chains (tier sites only), shape ``(2, n_draws, n+1)``."""
        shape = (2, n_draws, self.lattice.n_sites + 1)
        return (
            np.broadcast_to(self.start_occ[:, None], shape).copy(),
            np.broadcast_to(self.start_cov[:, None], shape).copy(),
        )

    def coverage(self, occ: np.ndarray) -> np.ndarray:
        cov = np.zeros(occ.shape, dtype=np.int8)
        cov[..., :-1] = occ[..., self.lattice.nbr].sum(axis=-1)
        return cov

    def class_log_odds(self, occ: np.ndarray, cov: np.ndarray, c: int) -> np.ndarray:
        """``log W_s - unc_s * log(gamma)`` for the sites of class ``c``."""
        sites, nb, valid = self.classes[c]
        others = cov[..., nb] - occ[..., sites, None]
        unc = ((others == 0) & valid).sum(axis=-1)
        return self.log_w[sites] - unc * self.log_gamma

    def update_class(self, occ: np.ndarray, cov: np.ndarray, c: int, logit_u: np.ndarray) -> None:
        """Heat-bath update of class ``c`` in place: a site turns on iff ``logit(u) < log-odds``."""
        sites, nb, _ = self.classes[c]
        new = logit_u[..., sites] < self.class_log_odds(occ, cov, c)
        cov[..., nb] += (new.astype(np.int8) - occ[..., sites])[..., None]
        occ[..., sites] = new

    def run(self, roots: list[np.random.SeedSequence], sweeps: int) -> np.ndarray:
        """Both chains at time zero after ``sweeps`` sweeps, each sweep's uniforms from its key."""
        occ, cov = self.start(len(roots))
        n = self.lattice.n_sites
        for t in range(sweeps, 0, -1):
            u = np.stack([_key(root, t).random(n) for root in roots])
            with np.errstate(divide="ignore"):
                logit_u = np.log(u) - np.log1p(-u)
            for c in range(len(self.classes)):
                self.update_class(occ, cov, c, logit_u)
        return occ[..., :-1]

    def draw_counts(self, occ: np.ndarray, roots: list[np.random.SeedSequence]) -> np.ndarray:
        """Multiplicities of the occupied simulated sites from ``P(c) ~ lam**c/c! N(dhat; 0, v(c))``."""
        counts = np.zeros(occ.shape, dtype=np.int64)
        for i, root in enumerate(roots):
            u = _key(root, 0).random(self.lattice.n_sites)
            for sites, terms in self._count_terms(np.flatnonzero(occ[i] & self.sim)):
                cdf = np.cumsum(np.exp(terms - self.log_w[sites, None]), axis=1)
                counts[i, sites] = np.minimum(1 + (cdf < u[sites, None]).sum(axis=1), self.cap)
        return counts


def cftp_counts(
    dhat: np.ndarray,
    params: ModelParams,
    seeds,
    max_doublings: int = 20,
    *,
    lattice: Lattice | None = None,
    tiers: np.ndarray | None = None,
) -> np.ndarray:
    """Exact posterior multiplicities over simulated sites, one row per seed.

    All draws run along one leading axis from a shared lookback of 1, 2,
    4, ... sweeps.  A draw whose chains agree at time zero is final: a start
    further back sandwiches the same two chains and meets the same state,
    so only the rest go on to the next doubling.  Raises
    :class:`CoalescenceError` if some draw has not coalesced after
    ``max_doublings`` doublings.

    Args:
        dhat: flat detail coefficients, one per lattice site.
        params: model hyperparameters.
        seeds: one integer seed, ``SeedSequence`` or generator per draw.
        max_doublings: how many times the lookback may double.
        lattice: prebuilt lattice (the shared one for ``dhat.size`` if omitted).
        tiers: precomputed tier map (default cutoffs applied if omitted).
    """
    dhat = np.asarray(dhat, dtype=float)
    if lattice is None:
        lattice = lattice_for(dhat.size)
    if dhat.shape != (lattice.n_sites,):
        raise ValueError("dhat must hold one value per lattice site")
    if tiers is None:
        tiers = classify_sites(dhat, params)
    roots = [_root(s) for s in seeds]
    field = _OccupancyField(lattice, dhat, params, tiers)
    occ = np.zeros((len(roots), lattice.n_sites), dtype=bool)
    active = np.arange(len(roots))
    sweeps = 1
    for _ in range(max_doublings + 1):
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
                    "coalesced": int(agree.sum()),
                    "gap": gap,
                    "tier_census": np.bincount(np.asarray(tiers), minlength=3).tolist(),
                }),
            )
        active = active[~agree]
        if not active.size:
            return field.draw_counts(occ, roots)
        sweeps *= 2
    raise CoalescenceError(gap, sweeps // 2)


def cftp_sample(
    dhat: np.ndarray,
    params: ModelParams,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    max_doublings: int = 20,
    *,
    lattice: Lattice | None = None,
    tiers: np.ndarray | None = None,
) -> Configuration:
    """One exact draw from the tier-conditioned posterior over simulated sites.

    Non-simulated sites carry zero counts; see :func:`cftp_counts`.
    """
    dhat = np.asarray(dhat, dtype=float)
    if lattice is None:
        lattice = lattice_for(dhat.size)
    counts = cftp_counts(dhat, params, [seed], max_doublings, lattice=lattice, tiers=tiers)
    return Configuration(lattice, counts[0])
