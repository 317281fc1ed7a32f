"""Binary-tree index space for detail coefficients, with local neighbourhoods.

Sites are pairs ``(j, k)``: resolution level ``j`` (0 coarsest) holding
``2**j`` positions, periodic in ``k`` within each level.  Each site has a
nine-site neighbourhood reaching one level up, one level down, and sideways,
truncated at the top and bottom levels and deduplicated on narrow levels.
Configurations give a multiplicity per site; coverage of a configuration is
the union of neighbourhoods of its occupied sites.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Site",
    "Lattice",
    "Configuration",
    "lattice_for",
    "neighbourhood",
    "coverage_measure",
]

Site = tuple[int, int]


def neighbourhood(x: Site, n_levels: int) -> frozenset[Site]:
    """The neighbourhood ``B(x)``: ``x`` plus its clustered relatives.

    Candidates are ``x`` itself; the parent; the parent-level site next
    nearest to ``x``; the two siblings; the two children; and the outer
    neighbours of the two children.  Positions wrap periodically within a
    level, candidates beyond the top or bottom level are dropped, and
    duplicates arising on narrow levels are merged, so the result has at
    most nine sites (exactly nine away from the boundary rows).
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


class Lattice:
    """Site indexing, padded neighbour table and colour classes for a fixed depth.

    Flat site order is level-major: site ``(j, k)`` sits at index
    ``2**j - 1 + k``, so all ``2**n_levels - 1`` sites pack into one vector
    aligned with flattened detail coefficients.  ``nbr[s]`` lists the flat
    indices of ``B(s)`` in increasing order, padded with ``n_sites``.  The
    colour classes partition the sites so that no two sites of one class
    have intersecting neighbourhoods: site ``(j, k)`` has class
    ``(j mod 3, k mod 4)``.  Neighbourhoods span three adjacent levels, and
    on one level they meet only for positions at most three apart, so this
    closed form is enough (checked exhaustively by the test suite).

    For the sampler, ``class_order`` lists the sites class by class, so each
    class is one block of it; ``ordered_nbr`` is ``nbr`` in that order and
    renumbered into it (the pad stays ``n_sites``); ``class_nbr[c]`` is class
    ``c``'s block of it, neighbour-major.  All arrays are read-only.
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
        # the nine candidates of ``neighbourhood``, as (level, position) columns
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
        self.colour_classes: tuple[np.ndarray, ...] = tuple(
            np.flatnonzero(colour == c) for c in range(12) if (colour == c).any()
        )
        self.class_order = np.concatenate(self.colour_classes)
        rank = np.append(np.argsort(self.class_order), n)  # the pad keeps its index
        self.ordered_nbr = rank[self.nbr[self.class_order]]
        blocks = np.split(self.ordered_nbr, np.cumsum([c.size for c in self.colour_classes])[:-1])
        self.class_nbr = tuple(np.ascontiguousarray(b.T) for b in blocks)
        for a in (self.nbr, self.neighbourhood_sizes, *self.colour_classes, self.class_order, self.ordered_nbr,
                  *self.class_nbr):
            a.flags.writeable = False

    def site_index(self, j: int, k: int) -> int:
        if not (0 <= j < self.n_levels and 0 <= k < 2**j):
            raise ValueError(f"site ({j}, {k}) outside a {self.n_levels}-level lattice")
        return 2**j - 1 + k

    def site_of(self, index: int) -> Site:
        if not 0 <= index < self.n_sites:
            raise ValueError(f"flat index {index} out of range")
        j = (index + 1).bit_length() - 1
        return j, index - (2**j - 1)

    def __repr__(self) -> str:
        return f"Lattice(n_levels={self.n_levels})"


@functools.lru_cache(maxsize=32)
def lattice_for(n_sites: int) -> Lattice:
    """The shared lattice with ``n_sites == 2**J - 1`` sites, built once per size."""
    n_levels = (n_sites + 1).bit_length() - 1
    if n_levels < 1 or 2**n_levels - 1 != n_sites:
        raise ValueError("dhat length must be 2**J - 1 for some J >= 1")
    return Lattice(n_levels)


@dataclass
class Configuration:
    """A finite point configuration: a multiplicity per lattice site."""

    lattice: Lattice
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (self.lattice.n_sites,):
            raise ValueError("counts must have one entry per lattice site")

    @classmethod
    def empty(cls, lattice: Lattice) -> "Configuration":
        return cls(lattice, np.zeros(lattice.n_sites, dtype=np.int64))

    @classmethod
    def from_counts(cls, lattice: Lattice, counts) -> "Configuration":
        """Build a configuration from per-site counts, as an array or a ``{site: count}`` dict."""
        if isinstance(counts, dict):
            arr = np.zeros(lattice.n_sites, dtype=np.int64)
            for (j, k), c in counts.items():
                arr[lattice.site_index(j, k)] = c
            counts = arr
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (lattice.n_sites,) or (counts < 0).any():
            raise ValueError("counts must be nonnegative with one entry per site")
        return cls(lattice, counts)

    @property
    def n_points(self) -> int:
        return int(self.counts.sum())

    def occupied(self) -> np.ndarray:
        """Boolean occupancy per flat site (multiplicity ignored)."""
        return self.counts > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.lattice.n_levels == other.lattice.n_levels and np.array_equal(
            self.counts, other.counts
        )


def coverage_measure(xi: Configuration, forced_occupied: np.ndarray | None = None) -> int:
    """Number of sites covered by the neighbourhoods of occupied sites.

    ``forced_occupied`` optionally marks sites treated as occupied whatever
    their count (used when part of the lattice is handled analytically).
    Neighbourhoods are symmetric, so ``v`` is covered iff ``B(v)`` holds an
    occupied site.
    """
    occ = xi.occupied()
    if forced_occupied is not None:
        occ = occ | np.asarray(forced_occupied, dtype=bool)
    return int(np.append(occ, False)[xi.lattice.nbr].any(axis=1).sum())
