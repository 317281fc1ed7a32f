"""Reproducible benchmark harness: average mean squared error over replicates.

A cell is one (signal, noise level) pair; every method sees the same noisy
replicates, each replicate driven by its own seed substream so changing the
replicate count of a run never perturbs other cells.  Results reduce to CSV
rows in configuration order regardless of how cells are executed.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import logging
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
from .estimator import denoise
from .model import ModelParams
from .wavelet import SIGNAL_NAMES, forward_dwt, get_filter, inverse_dwt, make_test_signal, resolve_wavelet

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "ResultRow",
    "amse",
    "run_experiment",
    "emit_csv",
    "load_config",
]

logger = logging.getLogger(__name__)

METHODS = ("AIBT", "SureShrink", "Universal", "BayesThresh", "FDR")

CSV_HEADER = "signal,rsnr,method,amse,se,reps,runtime_s"


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
    z: float = 1.0
    seed: int = 0
    max_doublings: int = 20
    methods: tuple[str, ...] = METHODS
    wavelet_policy: str = "auto"
    record_runtime: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "rsnr", tuple(float(r) for r in self.rsnr))
        object.__setattr__(self, "methods", tuple(self.methods))
        for s in self.signals:
            if s not in SIGNAL_NAMES:
                raise ValueError(f"unknown signal {s!r}; choose from {SIGNAL_NAMES}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if self.n < 8 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two >= 8")
        if not self.rsnr or any(r <= 0 for r in self.rsnr):
            raise ValueError("rsnr values must be positive")
        if self.reps < 1 or self.n_draws < 1:
            raise ValueError("reps and n_draws must be at least 1")
        if self.wavelet_policy not in ("auto", "haar", "la10"):
            raise ValueError("wavelet_policy must be 'auto', 'haar', or 'la10'")

    def wavelet_for(self, signal: str):
        """The filter a signal is analysed with under ``wavelet_policy``."""
        return get_filter(resolve_wavelet(self.wavelet_policy, signal))


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


def amse(estimates: np.ndarray, truth: np.ndarray) -> tuple[float, float]:
    """Average mean squared error across replicates and its standard error.

    ``estimates`` has one replicate per row.  The standard error is the
    sample standard deviation of per-replicate MSEs over ``sqrt(reps)``;
    with a single replicate it is zero.
    """
    estimates = np.atleast_2d(np.asarray(estimates, dtype=float))
    truth = np.asarray(truth, dtype=float)
    mses = np.mean((estimates - truth) ** 2, axis=1)
    if mses.size == 1:
        return float(mses[0]), 0.0
    return float(mses.mean()), float(mses.std(ddof=1) / np.sqrt(mses.size))


def _estimate_one(method: str, y: np.ndarray, filt, sigma: float, cfg: ExperimentConfig, seed) -> np.ndarray:
    if method == "AIBT":
        params = ModelParams(cfg.lam, cfg.gamma, cfg.tau, sigma, cfg.z)
        return denoise(y, filt, params, cfg.n_draws, seed, max_doublings=cfg.max_doublings)
    dec = forward_dwt(y, filt)
    if method == "Universal":
        return inverse_dwt(universal_threshold(dec, sigma))
    if method == "SureShrink":
        return inverse_dwt(sure_shrink(dec, sigma))
    if method == "BayesThresh":
        pi, tau = estimate_mixture_hyperparams(dec, sigma)
        return inverse_dwt(bayes_thresh(dec, sigma, pi, tau))
    if method == "FDR":
        return inverse_dwt(fdr_threshold(dec, sigma))
    raise ValueError(f"unknown method {method!r}")


def _run_cell(cfg: ExperimentConfig, signal: str, rsnr_index: int) -> list[ResultRow]:
    """All method rows for one (signal, rsnr) cell, replicates seeded independently."""
    rsnr = cfg.rsnr[rsnr_index]
    sigma = 1.0 / rsnr
    truth = make_test_signal(signal, cfg.n)
    filt = cfg.wavelet_for(signal)
    signal_id = SIGNAL_NAMES.index(signal)
    mses: dict[str, list[float]] = {m: [] for m in cfg.methods}
    runtime: dict[str, float] = {m: 0.0 for m in cfg.methods}
    failures: dict[str, int] = {m: 0 for m in cfg.methods}
    for rep in range(cfg.reps):
        cell_ss = np.random.SeedSequence(cfg.seed, spawn_key=(signal_id, rsnr_index, rep))
        noise_ss, method_ss = cell_ss.spawn(2)
        y = truth + sigma * np.random.default_rng(noise_ss).standard_normal(cfg.n)
        for method in cfg.methods:
            start = time.perf_counter()
            try:
                est = _estimate_one(method, y, filt, sigma, cfg, method_ss)
            except CoalescenceError as err:
                failures[method] += 1
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
        if got:
            mean = float(np.mean(got))
            se = float(np.std(got, ddof=1) / np.sqrt(len(got))) if len(got) > 1 else 0.0
        else:
            mean, se = float("nan"), float("nan")
        rows.append(
            ResultRow(
                signal=signal,
                rsnr=rsnr,
                method=method,
                amse=mean,
                se=se,
                reps=len(got),
                runtime_s=runtime[method] if cfg.record_runtime else 0.0,
                failures=failures[method],
                replicate_mses=tuple(got),
            )
        )
    return rows


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[ResultRow]:
    """Run every cell of the configuration and return rows in configuration order.

    ``workers`` bounds the process pool; cells are independent jobs and the
    reduction does not depend on completion order.
    """
    cells = [(signal, i) for signal in cfg.signals for i in range(len(cfg.rsnr))]
    results: dict[tuple[str, int], list[ResultRow]] = {}
    if workers <= 1:
        for signal, i in cells:
            results[(signal, i)] = _run_cell(cfg, signal, i)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_cell, cfg, signal, i): (signal, i) for signal, i in cells}
            for fut in concurrent.futures.as_completed(futures):
                results[futures[fut]] = fut.result()
    rows: list[ResultRow] = []
    for key in cells:
        rows.extend(results[key])
    return rows


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


def load_config(source) -> ExperimentConfig:
    """Build a configuration from a JSON file path or a mapping.

    Keys must be ``ExperimentConfig`` field names; unknown keys are
    rejected rather than ignored.
    """
    if isinstance(source, (str, bytes)):
        with open(source, encoding="utf-8") as fh:
            mapping = json.load(fh)
    else:
        mapping = dict(source)
    if not isinstance(mapping, dict):
        raise ValueError("configuration must be a JSON object")
    unknown = set(mapping) - set(_CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    return ExperimentConfig(**mapping)
