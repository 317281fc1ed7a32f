"""
Perfect posterior sampling checked against exhaustive enumeration
=================================================================

On a tiny three-site problem the posterior over occupancy counts can be
enumerated exactly.  Monotone coupling-from-the-past draws carry no burn-in
or mixing error, so their empirical law should match the enumeration to
Monte Carlo accuracy -- which this script measures as a total-variation
distance.  It also shows the two kinds of site: a site whose coefficient
is so large that its occupancy is nearly certain is held occupied rather
than simulated, so draws are exact for the posterior given the held sites,
the close approximation the sampler targets.
"""

import math

import numpy as np

from aibt import ModelParams, cftp_counts, log_marginal_posterior
from aibt.cftp import held_sites

params = ModelParams(lam=0.5, gamma=2.0, tau=1.0, sigma=0.5)
dhat = np.array([0.8, -0.3, 0.5])  # sites (0,0), (1,0), (1,1)

# --- exact enumeration -------------------------------------------------
# Reference measure: independent unit-rate Poisson counts per site, so a
# configuration with counts xi has weight exp(log density) / prod(xi!).
cap = 12
probs: dict[tuple[int, ...], float] = {}
for c0 in range(cap):
    for c1 in range(cap):
        for c2 in range(cap):
            counts = np.array([c0, c1, c2])
            logw = log_marginal_posterior(counts, dhat, params) - sum(math.lgamma(c + 1) for c in counts)
            probs[(c0, c1, c2)] = math.exp(logw)
total = sum(probs.values())
probs = {k: v / total for k, v in probs.items()}

occ_exact = {k: 0.0 for k in {tuple(int(c > 0) for c in key) for key in probs}}
for key, p in probs.items():
    occ_exact[tuple(int(c > 0) for c in key)] += p

# --- perfect simulation ------------------------------------------------
n_draws = 4000
occ_freq: dict[tuple[int, ...], float] = {}
for counts in cftp_counts(dhat, params, range(n_draws)):  # one draw per seed, run as one batch
    pat = tuple(int(c > 0) for c in counts)
    occ_freq[pat] = occ_freq.get(pat, 0.0) + 1.0 / n_draws

print("occupancy pattern   exact      sampled")
for pat in sorted(occ_exact, key=occ_exact.get, reverse=True):
    print(f"   {pat}      {occ_exact[pat]:.4f}     {occ_freq.get(pat, 0.0):.4f}")

tv = 0.5 * sum(abs(occ_exact.get(k, 0.0) - occ_freq.get(k, 0.0)) for k in set(occ_exact) | set(occ_freq))
print(f"\ntotal variation distance over {n_draws} draws: {tv:.4f}")
print("(once the top and bottom chains coalesce, each draw is exactly stationary)")

# --- held sites for extreme coefficients --------------------------------
# Above a dominating rate of e**4 a site is held occupied in both chains,
# its count is not drawn, and its coefficient comes straight from the
# observation, N(dhat, sigma**2).  Holding a site occupied is an
# approximation: its exact occupancy can be well below one.
strong = ModelParams(lam=0.05, gamma=3.0, tau=1.0, sigma=0.1)
for d in (0.0, 0.3, 0.6):
    kind = "held" if held_sites(np.array([d]), strong)[0] else "simulated"
    print(f"dhat = {d:>5.1f}  ->  {kind}")
