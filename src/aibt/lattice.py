"""Binary-tree index space for detail coefficients, with local neighbourhoods.

Sites are pairs ``(j, k)``: resolution level ``j`` (0 coarsest) holding
``2**j`` positions, periodic in ``k`` within each level.  Each site has a
nine-site neighbourhood reaching one level up, one level down, and sideways,
truncated at the top and bottom levels and deduplicated on narrow levels.
A configuration is a count vector, one multiplicity per flat site; its
coverage is the union of neighbourhoods of its occupied sites.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Lattice",
    "lattice_for",
    "coverage_measure",
]


class Lattice:
    """Padded neighbour table and colour classes for a fixed depth.

    Flat site order is level-major: site ``(j, k)`` sits at index
    ``2**j - 1 + k``, so all ``2**n_levels - 1`` sites pack into one vector
    aligned with flattened detail coefficients.  ``nbr[s]`` lists the flat
    indices of ``B(s)`` in increasing order, padded with ``n_sites``.  The
    colour classes partition the sites so that no two sites of one class
    have intersecting neighbourhoods: site ``(j, k)`` has class
    ``(j mod 3, k mod 4)``.  Neighbourhoods span three adjacent levels, and
    on one level they meet only for positions at most three apart, so this
    closed form is enough (checked exhaustively by the test suite).

    For the sampler, ``class_order`` lists the sites class by class, so the
    non-empty class ``c`` is the block ``class_rows[c]`` of it, and
    ``rank[s]`` is site ``s``'s place in it (the pad keeps ``n_sites``);
    ``class_nbr[c]`` is ``nbr`` of that block renumbered by ``rank``,
    neighbour-major.  All arrays are read-only.
    """

    def __init__(self, n_levels: int):
        if n_levels < 1:
            raise ValueError("n_levels must be at least 1")
        self.n_levels = int(n_levels)
        self.n_sites = n = 2**self.n_levels - 1
        levels = np.arange(self.n_levels)
        j = np.repeat(levels, 2**levels)
        k = np.arange(n) - (2**j - 1)
        width = 2**j
        p = k // 2
        step = np.where(k % 2 == 0, -1, 1)
        up = np.maximum(width // 2, 1)
        # B(s) as (level, position) columns: s, siblings, parent pair, children and their outer neighbours
        lev = np.stack([j, j, j, j - 1, j - 1, j + 1, j + 1, j + 1, j + 1], axis=1)
        pos = np.stack(
            [k, (k - 1) % width, (k + 1) % width, p, (p + step) % up,
             2 * k, 2 * k + 1, (2 * k - 1) % (2 * width), (2 * k + 2) % (2 * width)],
            axis=1,
        )
        inside = (lev >= 0) & (lev < self.n_levels)
        cand = np.sort(np.where(inside, 2**np.clip(lev, 0, None) - 1 + pos, n), axis=1)
        cand[:, 1:][cand[:, 1:] == cand[:, :-1]] = n  # merge duplicates on narrow levels
        self.nbr = np.sort(cand, axis=1)
        self.neighbourhood_sizes = (self.nbr < n).sum(axis=1)
        self.max_neighbourhood = int(self.neighbourhood_sizes.max())
        self.nbr = self.nbr[:, : self.max_neighbourhood]
        colour = (j % 3) * 4 + k % 4
        self.class_order = np.argsort(colour, kind="stable")
        self.rank = np.append(np.argsort(self.class_order), n)  # the pad keeps its index
        ends = np.cumsum(np.bincount(colour)).tolist()
        self.class_rows = tuple(slice(lo, hi) for lo, hi in zip([0, *ends[:-1]], ends) if hi > lo)
        self.class_nbr = tuple(
            np.ascontiguousarray(self.rank[self.nbr[self.class_order[r]]].T) for r in self.class_rows
        )
        for a in (self.nbr, self.neighbourhood_sizes, self.class_order, self.rank, *self.class_nbr):
            a.flags.writeable = False


@functools.lru_cache(maxsize=32)
def lattice_for(n_sites: int) -> Lattice:
    """The shared lattice with ``n_sites == 2**J - 1`` sites, built once per size."""
    n_levels = (n_sites + 1).bit_length() - 1
    if n_levels < 1 or 2**n_levels - 1 != n_sites:
        raise ValueError(f"a lattice has 2**J - 1 sites for some J >= 1, not {n_sites}")
    return Lattice(n_levels)


def coverage_measure(counts) -> int:
    """Number of sites covered by the neighbourhoods of the occupied sites of a count vector.

    Neighbourhoods are symmetric, so ``v`` is covered iff ``B(v)`` holds an occupied site.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or not ((counts >= 0) & np.isfinite(counts) & (np.floor(counts) == counts)).all():
        raise ValueError("counts must be finite, nonnegative whole numbers, one entry per site")
    return int(np.append(counts > 0, False)[lattice_for(counts.size).nbr].any(axis=1).sum())
