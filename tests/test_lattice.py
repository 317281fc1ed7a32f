"""Neighbourhood geometry and coverage arithmetic against brute-force oracles."""

import numpy as np
import pytest

from aibt.cftp import _schedule
from aibt.lattice import Lattice, coverage_measure, lattice_for
from aibt.model import ModelParams, log_marginal_posterior
from oracles import (
    brute_coverage, class_order, flat_index, heat_bath_log_odds, neighbourhood, site_of, uncovered_measure,
)

RNG = np.random.default_rng(42)


# --- neighbourhood shape -----------------------------------------------------


def test_neighbourhood_frozen_interior_site():
    # deep interior site: self, two siblings, parent pair, children, flanking children
    got = neighbourhood((3, 4), 6)
    assert got == {
        (3, 4), (3, 3), (3, 5),
        (2, 2), (2, 1),
        (4, 8), (4, 9), (4, 7), (4, 10),
    }
    assert len(got) == 9


def test_neighbourhood_frozen_root():
    assert neighbourhood((0, 0), 2) == {(0, 0), (1, 0), (1, 1)}
    assert neighbourhood((0, 0), 1) == {(0, 0)}


def test_neighbourhood_frozen_small_lattice():
    # level 1 of a 3-level lattice: the sibling wraps, both parent slots merge
    assert neighbourhood((1, 0), 3) == {
        (1, 0), (1, 1), (0, 0), (2, 0), (2, 1), (2, 2), (2, 3),
    }
    # finest level has no children
    assert neighbourhood((2, 1), 3) == {(2, 1), (2, 0), (2, 2), (1, 0), (1, 1)}


def test_neighbourhood_next_nearest_parent_parity():
    # even shift steps one parent left, odd shift one parent right
    assert (2, 1) in neighbourhood((3, 4), 6)
    assert (2, 3) in neighbourhood((3, 5), 6)


def test_neighbourhood_rejects_outside_lattice():
    with pytest.raises(ValueError):
        neighbourhood((3, 0), 3)
    with pytest.raises(ValueError):
        neighbourhood((1, 2), 3)
    with pytest.raises(ValueError):
        neighbourhood((-1, 0), 3)


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5])
def test_neighbourhood_symmetric(n_levels):
    lat = Lattice(n_levels)
    sets = [neighbourhood(site_of(s), n_levels) for s in range(lat.n_sites)]
    for u in range(lat.n_sites):
        for v in range(lat.n_sites):
            u_in_v = site_of(u) in sets[v]
            v_in_u = site_of(v) in sets[u]
            assert u_in_v == v_in_u


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5, 6])
def test_neighbourhood_size_bound(n_levels):
    lat = Lattice(n_levels)
    sizes = lat.neighbourhood_sizes
    assert sizes.max() == lat.max_neighbourhood <= 9
    for s in range(lat.n_sites):
        assert sizes[s] == len(neighbourhood(site_of(s), n_levels))


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5, 6, 7])
def test_padded_neighbour_table_matches_neighbourhood(n_levels):
    lat = Lattice(n_levels)
    assert lat.nbr.shape == (lat.n_sites, lat.max_neighbourhood)
    for s in range(lat.n_sites):
        row = lat.nbr[s]
        expected = sorted(flat_index(*v) for v in neighbourhood(site_of(s), n_levels))
        assert row[row < lat.n_sites].tolist() == expected
        assert (row[len(expected):] == lat.n_sites).all()


# --- the sampler's colour classes, built per lattice by aibt.cftp._schedule ----------------------------


@pytest.mark.parametrize("n_levels", range(1, 13))
def test_colour_classes_partition_sites_with_disjoint_neighbourhoods(n_levels):
    lat = Lattice(n_levels)
    order = class_order(lat)
    classes = [order[rows] for rows in _schedule(lat).class_rows]
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(lat.n_sites))
    for cls in classes:
        covered = lat.nbr[cls]
        covered = covered[covered < lat.n_sites]
        assert np.unique(covered).size == covered.size  # no site lies in two neighbourhoods


@pytest.mark.parametrize("n_levels", range(1, 13))
def test_class_order_lays_out_colour_classes_as_blocks(n_levels):
    """``class_rows`` tile the class order in consecutive blocks, each the sites of one colour
    ``(j mod 3, k mod 4)`` in flat order; ``rank`` is a permutation that keeps the pad, each
    class table is ``nbr`` of its block renumbered by ``rank``, neighbour-major, and each
    site's bit is its block's place."""
    lat = Lattice(n_levels)
    schedule, order = _schedule(lat), class_order(lat)
    n = lat.n_sites
    assert np.array_equal(np.sort(schedule.rank[:-1]), np.arange(n)) and schedule.rank[n] == n
    j, k = np.array([site_of(s) for s in range(n)]).T
    colour = (j % 3) * 4 + k % 4
    members = [np.flatnonzero(colour == c) for c in range(12) if (colour == c).any()]
    ends = [rows.stop for rows in schedule.class_rows]
    assert [rows.start for rows in schedule.class_rows] == [0, *ends[:-1]] and ends[-1] == n
    assert len(schedule.class_rows) == len(members) == len(schedule.class_nbr)
    for i, (rows, sites, table) in enumerate(zip(schedule.class_rows, members, schedule.class_nbr)):
        assert np.array_equal(order[rows], sites)
        assert table.flags.c_contiguous
        assert np.array_equal(np.append(order, n)[table.T], lat.nbr[sites])
        assert (schedule.bit[sites] == 1 << i).all()
    for a in (lat.nbr, lat.neighbourhood_sizes, *schedule.class_nbr, *(a for a in schedule if hasattr(a, "flags"))):
        assert not a.flags.writeable


def test_sampler_tables_store_each_fact_once():
    """The lattice and its schedule hold 164 bytes per site plus a constant: one neighbour table, the
    neighbourhood sizes, ``rank``, the class tables, the class bits and the full mask.  Views share their
    owner's bytes, as in CI's table figure."""

    def owner(a):
        return a if a.base is None else owner(a.base)

    lat = lattice_for(2**12 - 1)
    items = [*vars(lat).values(), *_schedule(lat)]
    arrays = [a for x in items for a in (x if isinstance(x, tuple) else [x]) if isinstance(a, np.ndarray)]
    tables = {id(owner(a)): owner(a).nbytes for a in arrays}
    assert sum(tables.values()) <= 164 * lat.n_sites + 16


def test_lattice_for_shares_one_lattice_per_size():
    assert lattice_for(15) is lattice_for(15)
    assert lattice_for(15).n_levels == 4
    with pytest.raises(ValueError):
        lattice_for(14)


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(0)
    with pytest.raises(ValueError, match="n_levels must be an integer"):  # not truncated to 2
        Lattice(2.5)
    with pytest.raises(ValueError, match="n_levels must be an integer"):  # not a 1-level lattice
        Lattice(True)


# --- coverage ------------------------------------------------------------------


@pytest.mark.parametrize("n_levels", [2, 3, 4])
def test_coverage_matches_bruteforce(n_levels):
    lat = Lattice(n_levels)
    for _ in range(60):
        counts = RNG.poisson(0.6, lat.n_sites)
        occ = set(np.flatnonzero(counts > 0).tolist())
        assert coverage_measure(counts) == brute_coverage(lat, occ)


@pytest.mark.parametrize("n_levels", [2, 3, 4])
def test_uncovered_matches_bruteforce(n_levels):
    lat = Lattice(n_levels)
    for _ in range(40):
        counts = RNG.poisson(0.5, lat.n_sites)
        occ = set(np.flatnonzero(counts > 0).tolist())
        for u in range(lat.n_sites):
            b = neighbourhood(site_of(u), n_levels)
            uncov = sum(
                1
                for v in b
                if not any(
                    flat_index(*w) in occ
                    for w in neighbourhood(v, n_levels)
                )
            )
            assert uncovered_measure(site_of(u), counts) == uncov


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5])
def test_heat_bath_log_odds_match_uncovered_measure(n_levels):
    """At every site of random patterns the site-order log-odds are ``log W_s - uncovered_measure(s, the pattern
    without s) * log(gamma)`` bit for bit, and ``+inf`` at held sites; narrow levels truncate and merge ``B(s)``."""
    lat = Lattice(n_levels)
    rng = np.random.default_rng(100 + n_levels)
    for _ in range(5):
        log_w = rng.normal(0.0, 2.0, lat.n_sites)
        log_w[rng.random(lat.n_sites) < 1 / 3] = np.inf  # held sites
        log_gamma, pattern = float(rng.uniform(0.0, 2.0)), rng.random((lat.n_sites, 3)) < rng.uniform(0.1, 0.9)
        odds = heat_bath_log_odds(lat, log_w, log_gamma, pattern, np.arange(lat.n_sites))
        for s in range(lat.n_sites):
            for chain, others in enumerate(pattern.T.copy()):
                others[s] = False
                assert odds[s, chain] == log_w[s] - uncovered_measure(site_of(s), others) * log_gamma
        assert np.all(odds[log_w == np.inf] == np.inf)


def test_coverage_monotone_under_insertion():
    lat = Lattice(4)
    counts = np.zeros(lat.n_sites, dtype=int)
    cov_prev = 0
    order = RNG.permutation(lat.n_sites)
    for s in order:
        counts[s] += 1
        cov = coverage_measure(counts)
        assert cov >= cov_prev
        cov_prev = cov
    assert cov_prev == lat.n_sites  # everything occupied covers everything


def test_uncovered_plus_covered_partitions_neighbourhood():
    lat = Lattice(3)
    counts = RNG.poisson(0.7, lat.n_sites)
    for u in range(lat.n_sites):
        site = site_of(u)
        assert 0 <= uncovered_measure(site, counts) <= len(neighbourhood(site, 3))


# --- count vectors --------------------------------------------------------------


def test_configuration_rejects_bad_counts():
    """A count vector needs one finite, nonnegative whole number per site of a ``2**J - 1``-site lattice."""
    p = ModelParams(lam=0.4, gamma=2.0, tau=1.0, sigma=0.5)
    for bad in (np.array([1, -1, 0]), np.array([1, 0]), np.array([0.5, 0, 0]), np.array([1.5, 0, 0]),
                np.array([np.nan, 0, 0]), np.array([np.inf, 0, 0]), np.full(3, 1 + 1j), np.array([10**400, 0, 0])):
        with pytest.raises(ValueError):
            coverage_measure(bad)
        with pytest.raises(ValueError):
            log_marginal_posterior(bad, np.zeros(bad.size), p)
    with pytest.raises(ValueError):
        log_marginal_posterior(np.array([1, 0, 0]), np.zeros(2), p)
    with pytest.raises(ValueError, match="nan"):
        log_marginal_posterior(np.array([1, 0, 0]), np.array([np.nan, 0, 0]), p)
    with pytest.raises(ValueError, match="dhat must be real"):
        log_marginal_posterior(np.array([1, 0, 0]), np.full(3, 1 + 1j), p)
    assert log_marginal_posterior(np.array([1, 0, 0]), np.array([np.inf, 0, 0]), p) == -np.inf
