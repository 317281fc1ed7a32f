"""Reproducible benchmark harness: average mean squared error over replicates.

A cell is one (signal, noise level) pair; each noisy replicate is transformed
once and every method estimates from that decomposition.  Each replicate is
driven by its own seed substream, so changing the replicate count of a run
never perturbs other cells.  Results reduce to CSV rows in configuration
order regardless of how cells are executed.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import logging
import math
import numbers
import os
import time
from dataclasses import dataclass

import numpy as np

from .baselines import (
    bayes_thresh,
    estimate_mixture_hyperparams,
    fdr_threshold,
    sure_shrink,
    universal_threshold,
)
from .cftp import CoalescenceError
from .estimator import posterior_median_estimate
from .model import ModelParams
from .wavelet import (SIGNAL_NAMES, WaveletDecomposition, add_noise, as_real, forward_dwt, get_filter, inverse_dwt,
                      make_test_signal, resolve_wavelet)

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "ResultRow",
    "run_experiment",
    "emit_csv",
    "load_config",
]

logger = logging.getLogger(__name__)

METHODS = ("AIBT", "SureShrink", "Universal", "BayesThresh", "FDR")

CSV_HEADER = "signal,rsnr,method,amse,se,reps,runtime_s"


def _is_a(kind):
    """A check that a value is an instance of ``kind`` other than a bool."""
    return lambda v: isinstance(v, kind) and not isinstance(v, bool)


def _list_of(kind):
    return lambda v: isinstance(v, (list, tuple)) and all(map(_is_a(kind), v))


# what each field must be, checked before its value, so a mistyped JSON config fails at once
_FIELD_TYPES = {
    **dict.fromkeys(("n", "reps", "n_draws", "seed"), (_is_a(numbers.Integral), "an integer")),
    **dict.fromkeys(("lam", "gamma", "tau"), (_is_a(numbers.Real), "a number")),
    **dict.fromkeys(("signals", "methods"), (_list_of(str), "a list of strings")),
    "rsnr": (_list_of(numbers.Real), "a list of numbers"),
    "record_runtime": (lambda v: isinstance(v, bool), "a bool"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a benchmark run; the JSON schema uses these field names."""

    signals: tuple[str, ...] = SIGNAL_NAMES
    n: int = 256
    rsnr: tuple[float, ...] = (10.0, 7.0, 3.0)
    reps: int = 5
    n_draws: int = 9
    lam: float = 0.05
    gamma: float = 3.0
    tau: float = 1.0
    seed: int = 0
    methods: tuple[str, ...] = METHODS
    record_runtime: bool = True

    def __post_init__(self) -> None:
        for name, (ok, kind) in _FIELD_TYPES.items():
            if not ok(getattr(self, name)):
                raise ValueError(f"{name} must be {kind}, not {getattr(self, name)!r}")
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "rsnr", tuple(as_real(self.rsnr, "rsnr").tolist()))
        object.__setattr__(self, "methods", tuple(self.methods))
        for s in self.signals:
            if s not in SIGNAL_NAMES:
                raise ValueError(f"unknown signal {s!r}; choose from {SIGNAL_NAMES}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 8")
        if not all(0 < r < math.inf for r in self.rsnr):
            raise ValueError("rsnr values must be positive and finite")
        # an entry given twice would run its cells or rows twice; noise levels are told apart by their CSV labels
        for name, keys in (("signals", self.signals), ("rsnr", [f"{r:.10g}" for r in self.rsnr]),
                           ("methods", self.methods)):
            if not keys or len(set(keys)) < len(keys):
                raise ValueError(f"{name} must not be empty or repeat an entry, not {list(getattr(self, name))!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed}")
        if self.reps < 1 or self.n_draws < 1:
            raise ValueError("reps and n_draws must be at least 1")
        for r in self.rsnr:  # a bad model setting fails here, before any cell runs
            ModelParams(self.lam, self.gamma, self.tau, 1.0 / r)


@dataclass(frozen=True)
class ResultRow:
    """One CSV row; ``failures`` and ``replicate_mses`` are diagnostics kept off the CSV."""

    signal: str
    rsnr: float
    method: str
    amse: float
    se: float
    reps: int
    runtime_s: float
    failures: int = 0
    replicate_mses: tuple[float, ...] = ()


def _mean_and_se(mses) -> tuple[float, float]:
    """Mean of per-replicate MSEs and its standard error: nan for none, zero for one."""
    if len(mses) < 2:
        return (float(mses[0]), 0.0) if len(mses) else (math.nan, math.nan)
    return float(np.mean(mses)), float(np.std(mses, ddof=1) / np.sqrt(len(mses)))


def _estimate_one(
    method: str, dec: WaveletDecomposition, sigma: float, cfg: ExperimentConfig, seed
) -> WaveletDecomposition:
    """One method's estimate of the clean coefficients of a noisy decomposition; ``dec`` is not modified."""
    if method == "AIBT":
        params = ModelParams(cfg.lam, cfg.gamma, cfg.tau, sigma)
        return dec.with_details(posterior_median_estimate(dec.flat_details(), params, cfg.n_draws, seed))
    if method == "Universal":
        return universal_threshold(dec, sigma)
    if method == "SureShrink":
        return sure_shrink(dec, sigma)
    if method == "BayesThresh":
        return bayes_thresh(dec, sigma, *estimate_mixture_hyperparams(dec, sigma))
    return fdr_threshold(dec, sigma)


def _run_cell(cfg: ExperimentConfig, signal: str, rsnr_index: int) -> list[ResultRow]:
    """All method rows for one (signal, rsnr) cell; a method's runtime is its estimate plus inverse transform."""
    rsnr = cfg.rsnr[rsnr_index]
    sigma = 1.0 / rsnr
    truth = make_test_signal(signal, cfg.n)
    filt = get_filter(resolve_wavelet("auto", signal))
    signal_id = SIGNAL_NAMES.index(signal)
    mses: dict[str, list[float]] = {m: [] for m in cfg.methods}
    runtime: dict[str, float] = {m: 0.0 for m in cfg.methods}
    for rep in range(cfg.reps):
        cell_ss = np.random.SeedSequence(cfg.seed, spawn_key=(signal_id, rsnr_index, rep))
        noise_ss, method_ss = cell_ss.spawn(2)
        dec = forward_dwt(add_noise(truth, sigma, np.random.default_rng(noise_ss)), filt)
        for method in cfg.methods:
            start = time.perf_counter()
            try:
                est = inverse_dwt(_estimate_one(method, dec, sigma, cfg, method_ss))
            except CoalescenceError as err:
                logger.warning(
                    "replicate dropped: %s",
                    json.dumps({"signal": signal, "rsnr": rsnr, "method": method,
                                "rep": rep, "error": str(err)}),
                )
                continue
            finally:
                runtime[method] += time.perf_counter() - start
            mses[method].append(float(np.mean((est - truth) ** 2)))
    rows = []
    for method in cfg.methods:
        got = mses[method]
        mean, se = _mean_and_se(got)
        rows.append(
            ResultRow(
                signal=signal,
                rsnr=rsnr,
                method=method,
                amse=mean,
                se=se,
                reps=len(got),
                runtime_s=runtime[method] if cfg.record_runtime else 0.0,
                failures=cfg.reps - len(got),
                replicate_mses=tuple(got),
            )
        )
    return rows


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """Run every cell of the configuration and return rows in configuration order.

    ``workers`` bounds the process pool, which starts no more processes
    than there are cells; cells are independent jobs, collected in the
    order they were submitted.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    cells = [(signal, i) for signal in cfg.signals for i in range(len(cfg.rsnr))]
    if workers == 1:
        return [row for signal, i in cells for row in _run_cell(cfg, signal, i)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        futures = [pool.submit(_run_cell, cfg, signal, i) for signal, i in cells]
        return [row for fut in futures for row in fut.result()]


def emit_csv(rows: list[ResultRow], path: str) -> None:
    """Write rows as UTF-8, LF-terminated CSV with 10 significant digits."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.signal},{r.rsnr:.10g},{r.method},{r.amse:.10g},{r.se:.10g},{r.reps},{r.runtime_s:.10g}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def load_config(source=None, **overrides) -> ExperimentConfig:
    """Build a configuration from a JSON file path or a mapping, then apply ``overrides``.

    Keys must be ``ExperimentConfig`` field names; unknown keys are
    rejected rather than ignored.  An override of ``None`` is skipped, so
    unset command-line options leave the source's value.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            mapping = json.load(fh)
    else:
        mapping = dict(source or {})
    if not isinstance(mapping, dict):
        raise ValueError("configuration must be a JSON object")
    mapping.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(mapping) - set(_CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    return ExperimentConfig(**mapping)
