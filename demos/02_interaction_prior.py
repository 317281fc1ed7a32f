"""
The area-interaction prior on the coefficient lattice
=====================================================

Coefficients live on a dyadic (level, position) lattice.  The prior is a
point process on that lattice: each site can hold points, and an occupied
site "covers" a neighbourhood of nearby sites within and across levels.
The density rewards configurations whose covered area is small relative
to their point count, i.e. clusters of activity in time-scale cells --
exactly the signature of jumps and bumps in a signal.
"""

import numpy as np

from aibt import Lattice, ModelParams, coverage_measure, log_marginal_posterior

lat = Lattice(4)  # levels 0..3, 15 sites
print(f"Lattice with {lat.n_levels} levels and {lat.n_sites} sites\n")

# A site's neighbourhood: itself, nearest same-level neighbours, the
# parent pair above, and the children below.
# Flat site order is level-major: site (j, k) sits at index 2**j - 1 + k.
# Row ``s`` of ``lat.nbr`` lists the flat indices of B(s), padded with n_sites.
site_at = [(j, k) for j in range(lat.n_levels) for k in range(2**j)]  # flat index -> (j, k)
for j, k in [(0, 0), (2, 1), (3, 4)]:
    nb = sorted(site_at[v] for v in lat.nbr[2**j - 1 + k].tolist() if v < lat.n_sites)
    print(f"neighbourhood of {(j, k)}: {nb}")

# The interaction term counts covered sites.  Compare a clustered pair
# (parent and child, overlapping neighbourhoods) against a scattered
# pair (far apart, disjoint neighbourhoods).
params = ModelParams(lam=0.2, gamma=3.0, tau=1.0, sigma=0.5)
dhat = np.zeros(lat.n_sites)


def one_point_at(*sites):
    """A configuration as a count vector: one point at each given (level, position) site."""
    counts = np.zeros(lat.n_sites, dtype=int)
    counts[[2**j - 1 + k for j, k in sites]] = 1
    return counts


empty = one_point_at()
clustered = one_point_at((2, 1), (3, 2))
scattered = one_point_at((2, 0), (3, 7))

base = log_marginal_posterior(empty, dhat, params)
lc = log_marginal_posterior(clustered, dhat, params) - base
ls = log_marginal_posterior(scattered, dhat, params) - base

print(f"\ncovered sites, clustered pair: {coverage_measure(clustered)}")
print(f"covered sites, scattered pair: {coverage_measure(scattered)}")
print(f"log prior odds vs empty, clustered: {lc:+.3f}")
print(f"log prior odds vs empty, scattered: {ls:+.3f}")
print(f"clustering bonus: {lc - ls:+.3f} nats")

# gamma > 1 therefore concentrates prior mass on configurations that
# stack activity across adjacent scales at the same location.
gap = (lc - ls) / np.log(params.gamma)
print(
    f"\nThe bonus equals {gap:.0f} * log(gamma): overlapping neighbourhoods"
    f" make the clustered pair cover {gap:.0f} fewer sites."
)
