"""
A reproducible benchmark across signals, noise levels, and methods
==================================================================

Runs a small, fully seeded Monte Carlo comparison — every method sees the
same noisy replicates — and prints the average mean squared errors as the
same CSV the command line tool writes.  Rerunning this script reproduces
the numbers byte for byte; scale up `n`, `reps`, `n_draws`, and the grids
for publication-quality tables.
"""

import sys
import tempfile
import time
from pathlib import Path

from aibt import ExperimentConfig, emit_csv, run_experiment

cfg = ExperimentConfig(
    signals=("Blocks", "Heavisine"),
    n=256,
    rsnr=(10.0, 5.0),
    reps=3,
    n_draws=9,
    lam=0.05,
    gamma=3.0,
    tau=1.0,
    seed=0,
    record_runtime=False,  # keep the CSV byte-reproducible across machines
)

print(f"methods: {', '.join(cfg.methods)}")
print(f"cells:   {len(cfg.signals)} signals x {len(cfg.rsnr)} noise levels, {cfg.reps} replicates\n")

start = time.time()
rows = run_experiment(cfg)
elapsed = time.time() - start

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "results.csv"
    emit_csv(rows, str(out))
    print(out.read_text(), end="")

print(f"\nfinished in {elapsed:.1f}s", file=sys.stderr)  # wall time: stdout stays byte-reproducible

# Each row: signal, root signal-to-noise ratio, method, average MSE over
# replicates, its standard error, replicate count, and runtime (zeroed
# here for reproducibility).  Lower average MSE is better.  At this desk
# scale the Bayesian rules trade the lead cell by cell; the posterior
# median under the interaction prior ("AIBT") pulls ahead of the
# independence-based rules as replicates and posterior draws grow.
best = {}
for r in rows:
    key = (r.signal, r.rsnr)
    if key not in best or r.amse < best[key].amse:
        best[key] = r
print()
for (signal, rsnr), r in best.items():
    print(f"best at ({signal}, rsnr {rsnr:g}): {r.method} with average mse {r.amse:.5f}")
