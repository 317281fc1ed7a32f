"""Neighbourhood geometry and coverage arithmetic against brute-force oracles."""

import numpy as np
import pytest

from aibt.lattice import Lattice, coverage_measure, lattice_for
from aibt.model import ModelParams, log_marginal_posterior
from oracles import brute_coverage, neighbourhood, uncovered_measure

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
    sets = [neighbourhood(lat.site_of(s), n_levels) for s in range(lat.n_sites)]
    for u in range(lat.n_sites):
        for v in range(lat.n_sites):
            u_in_v = lat.site_of(u) in sets[v]
            v_in_u = lat.site_of(v) in sets[u]
            assert u_in_v == v_in_u


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5, 6])
def test_neighbourhood_size_bound(n_levels):
    lat = Lattice(n_levels)
    sizes = lat.neighbourhood_sizes
    assert sizes.max() == lat.max_neighbourhood <= 9
    for s in range(lat.n_sites):
        assert sizes[s] == len(neighbourhood(lat.site_of(s), n_levels))


@pytest.mark.parametrize("n_levels", [1, 2, 3, 4, 5, 6, 7])
def test_padded_neighbour_table_matches_neighbourhood(n_levels):
    lat = Lattice(n_levels)
    assert lat.nbr.shape == (lat.n_sites, lat.max_neighbourhood)
    for s in range(lat.n_sites):
        row = lat.nbr[s]
        expected = sorted(lat.site_index(*v) for v in neighbourhood(lat.site_of(s), n_levels))
        assert row[row < lat.n_sites].tolist() == expected
        assert (row[len(expected):] == lat.n_sites).all()


@pytest.mark.parametrize("n_levels", range(1, 13))
def test_colour_classes_partition_sites_with_disjoint_neighbourhoods(n_levels):
    lat = Lattice(n_levels)
    members = np.concatenate(lat.colour_classes)
    assert np.array_equal(np.sort(members), np.arange(lat.n_sites))
    for cls in lat.colour_classes:
        covered = lat.nbr[cls]
        covered = covered[covered < lat.n_sites]
        assert np.unique(covered).size == covered.size  # no site lies in two neighbourhoods


@pytest.mark.parametrize("n_levels", range(1, 13))
def test_class_order_lays_out_colour_classes_as_blocks(n_levels):
    """``class_order`` is a permutation whose blocks are the colour classes; the renumbered
    table maps back to ``nbr``, and each class table is its block, neighbour-major."""
    lat = Lattice(n_levels)
    n = lat.n_sites
    assert np.array_equal(np.sort(lat.class_order), np.arange(n))
    sizes = [table.shape[1] for table in lat.class_nbr]
    blocks = np.split(lat.class_order, np.cumsum(sizes)[:-1])
    assert len(blocks) == len(lat.colour_classes)
    for block, members in zip(blocks, lat.colour_classes):
        assert np.array_equal(block, members)
    assert np.array_equal(np.append(lat.class_order, n)[lat.ordered_nbr], lat.nbr[lat.class_order])
    for table, lo in zip(lat.class_nbr, np.cumsum([0, *sizes])):
        assert table.flags.c_contiguous
        assert np.array_equal(table.T, lat.ordered_nbr[lo : lo + table.shape[1]])
    for a in (lat.class_order, lat.ordered_nbr, *lat.class_nbr):
        assert not a.flags.writeable


def test_lattice_for_shares_one_lattice_per_size():
    assert lattice_for(15) is lattice_for(15)
    assert lattice_for(15).n_levels == 4
    with pytest.raises(ValueError):
        lattice_for(14)


def test_lattice_indexing_round_trip():
    lat = Lattice(4)
    assert lat.n_sites == 15
    for s in range(lat.n_sites):
        assert lat.site_index(*lat.site_of(s)) == s
    assert lat.site_index(0, 0) == 0
    assert lat.site_index(3, 0) == 7


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(0)
    with pytest.raises(ValueError, match="outside"):
        Lattice(3).site_index(3, 0)
    with pytest.raises(ValueError, match="out of range"):
        Lattice(3).site_of(7)


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
            b = neighbourhood(lat.site_of(u), n_levels)
            uncov = sum(
                1
                for v in b
                if not any(
                    lat.site_index(*w) in occ
                    for w in neighbourhood(v, n_levels)
                )
            )
            assert uncovered_measure(lat.site_of(u), counts) == uncov


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
        site = lat.site_of(u)
        assert 0 <= uncovered_measure(site, counts) <= len(neighbourhood(site, 3))


# --- count vectors --------------------------------------------------------------


def test_configuration_rejects_bad_counts():
    """A count vector needs one nonnegative entry per site of a ``2**J - 1``-site lattice."""
    p = ModelParams(lam=0.4, gamma=2.0, tau=1.0, sigma=0.5)
    for bad in (np.array([1, -1, 0]), np.array([1, 0])):
        with pytest.raises(ValueError):
            coverage_measure(bad)
        with pytest.raises(ValueError):
            log_marginal_posterior(bad, np.zeros(bad.size), p)
    with pytest.raises(ValueError):
        log_marginal_posterior(np.array([1, 0, 0]), np.zeros(2), p)
