"""Spans and counts around the program's public functions, installed from outside.

The tracer replaces names in the program's module namespaces with wrappers
that record a span per call: layer, start, end, the span that was active
when the call began, and the op it belongs to.  Nothing inside the program
changes; each wrapper sits at the call site named in ``CALL_SITES`` (the
module whose global lookup the caller performs), so the spans cover exactly
the calls one layer makes into the next.  A name the program no longer has
is skipped and listed in ``Tracer.skipped``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np

# (layer, module, attribute): the attribute is looked up in that module's
# namespace by its caller at call time, so replacing it there traces the call.
CALL_SITES = (
    ("cli.main", "aibt.cli", "main"),
    ("bench.run_experiment", "aibt.cli", "run_experiment"),
    ("bench.emit_csv", "aibt.cli", "emit_csv"),
    ("estimator.denoise", "aibt.estimator", "denoise"),
    ("estimator.denoise", "aibt.bench", "denoise"),
    ("wavelet.forward", "aibt.estimator", "forward_dwt"),
    ("wavelet.forward", "aibt.bench", "forward_dwt"),
    ("wavelet.inverse", "aibt.estimator", "inverse_dwt"),
    ("wavelet.inverse", "aibt.bench", "inverse_dwt"),
    ("baselines.universal", "aibt.bench", "universal_threshold"),
    ("baselines.sure_shrink", "aibt.bench", "sure_shrink"),
    ("baselines.bayes_thresh", "aibt.bench", "estimate_mixture_hyperparams"),
    ("baselines.bayes_thresh", "aibt.bench", "bayes_thresh"),
    ("baselines.fdr", "aibt.bench", "fdr_threshold"),
    ("cftp.classify", "aibt.estimator", "classify_sites"),
    ("cftp.classify", "aibt.cftp", "classify_sites"),
    ("estimator.median", "aibt.estimator", "posterior_median_estimate"),
    ("lattice.build", "aibt.estimator", "Lattice"),
    ("lattice.build", "aibt.cftp", "Lattice"),
    ("cftp.sample", "aibt.estimator", "cftp_sample"),
    ("estimator.coefficients", "aibt.estimator", "sample_coefficients"),
    ("cftp.setup", "aibt.cftp", "EventTrajectory"),
    ("model.rates", "aibt.cftp", "dominating_rate"),
    ("model.rates", "aibt.cftp", "lower_thinning_prob"),
    ("cftp.extend", "aibt.cftp", "extend_backward"),
    ("cftp.replay", "aibt.cftp", "run_coupled_forward"),
)

BUSY = (
    "lattice.build", "cftp.setup", "model.rates", "cftp.replay", "cftp.sample", "cftp.extend",
    "estimator.coefficients", "wavelet.forward", "wavelet.inverse", "baselines.universal",
    "baselines.sure_shrink", "baselines.bayes_thresh", "baselines.fdr", "bench.emit_csv",
)
SELF = ("estimator.median", "estimator.denoise", "bench.run_experiment", "cli.main")
# counts that repeat exactly for a fixed seed (cftp.failures included: ops
# fail at the same places when the budget is far from the op times)
DETERMINISTIC = (
    "lattice.build.count", "cftp.sample.count", "cftp.replays", "cftp.events_replayed",
    "cftp.events_useful", "cftp.sites.simulated", "cftp.sites.assumed", "cftp.sites.direct",
    "cftp.failures",
)

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{f"{layer}.busy_s": "s" for layer in BUSY},
    **{f"{layer}.self_s": "s" for layer in SELF},
    **{name: "count" for name in DETERMINISTIC},
    "cftp.useful_ratio": "ratio",
    "cftp.events_per_s": "1/s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _count_replay(counts: Counter, state) -> None:
    counts["cftp.replays"] += 1
    counts["cftp.events_replayed"] += state.n_events
    if state.coalesced:
        counts["cftp.events_useful"] += state.n_events


def _count_tiers(counts: Counter, tiers) -> None:
    sim, assumed, direct = np.bincount(np.asarray(tiers, dtype=np.int64), minlength=3)[:3]
    counts["cftp.sites.simulated"] += int(sim)
    counts["cftp.sites.assumed"] += int(assumed)
    counts["cftp.sites.direct"] += int(direct)


_ON_RESULT = {
    "cftp.replay": _count_replay,
    "cftp.classify": _count_tiers,
    "lattice.build": lambda counts, _: counts.update(("lattice.build.count",)),
    "cftp.sample": lambda counts, _: counts.update(("cftp.sample.count",)),
}


class Tracer:
    """Install wrappers with ``install()``; remove them with ``uninstall()``.

    Counts of an op are held back until ``end_op(ok=True)``, so an op cut
    short by its wall budget adds no partial work and two runs at one seed
    give the same totals.  ``cftp.failures`` counts every exception that
    leaves ``cftp_sample``, budget expiries included.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.skipped: list[str] = []
        self._pending: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, module_name, attr in CALL_SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.skipped.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin_op(self) -> None:
        self._op += 1
        self._pending.clear()

    def end_op(self, ok: bool) -> None:
        if ok:
            self.counts.update(self._pending)
        self._pending.clear()

    def _wrap(self, layer: str, fn):
        on_result = _ON_RESULT.get(layer)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((layer, 0.0, 0.0, parent, self._op))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if layer == "cftp.sample":
                    self.counts["cftp.failures"] += 1
                raise
            finally:
                self.spans[index] = (layer, start, time.perf_counter(), parent, self._op)
                self._stack.pop()
            if on_result is not None:
                on_result(self._pending, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Busy time per layer (outermost spans only), self time, and counts."""
        busy: Counter = Counter()
        self_time: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (layer, start, end, parent, _) in enumerate(self.spans):
            self_time[layer] += end - start - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != layer:
                p = self.spans[p][3]
            if p < 0:
                busy[layer] += end - start
        out: dict[str, float] = {}
        for layer in BUSY:
            out[f"{layer}.busy_s"] = busy[layer]
        for layer in SELF:
            out[f"{layer}.self_s"] = self_time[layer]
        for name in DETERMINISTIC:
            out[name] = self.counts[name]
        replayed = self.counts["cftp.events_replayed"]
        out["cftp.useful_ratio"] = self.counts["cftp.events_useful"] / replayed if replayed else 0.0
        replay_s = busy["cftp.replay"]
        out["cftp.events_per_s"] = replayed / replay_s if replay_s > 0 else 0.0
        return out

    def span_records(self) -> list[dict]:
        return [
            {"layer": layer, "start": start, "end": end, "parent": parent, "op": op}
            for layer, start, end, parent, op in self.spans
        ]
