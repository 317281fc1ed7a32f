"""Workloads: seeded inputs, one timed call per op, and the checks on its output.

Every op is built from the benchmark seed alone: ``SeedSequence(seed,
spawn_key=(pass, index))`` yields the noise of the op's input and the seed
handed to the program, so a run is repeatable and ops never share a stream.
``Op.run`` is the timed call into the program; ``Op.check`` validates what
it returned (untimed) and raises ``CheckFailed`` on a wrong output, or
``OpFailed`` when the program reported that it could not finish.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from aibt import bench, cli, estimator, model, wavelet

WARMUP_PASS = 1_000_000  # pass index of warm-up op 0 (op k uses WARMUP_PASS + k), never timed
LAMBDA, GAMMA, TAU = 0.05, 3.0, 1.0  # the README's model settings
NOISE = "noise"  # input name of a pure-noise signal (truth zero)
NOISE_SIGMA = 0.1  # its noise level, as in the acceptance suite's sparsity test
SPARSE_SHARE = 0.8  # share of exact zeros the acceptance suite requires on pure noise
ROUND_OFF = 1e-9
# (signal, n) where AIBT does not beat the noisy input at the commit that added
# this benchmark: Bumps at n=256, rsnr 10 gives AIBT MSE 0.0102-0.0121 against
# sigma^2 = 0.01 (seeds 1-3, 3 reps each), while SureShrink, BayesThresh and FDR
# give 0.0076-0.0084.  Such estimates are checked for shape and finiteness only;
# every run still counts them in ``worse_than_input``.
SIGMA2_UNMET = {("Bumps", 256)}


class CheckFailed(Exception):
    """An op returned an output that is wrong."""


class OpFailed(Exception):
    """The program reported a failure: a dropped replicate or a non-zero exit."""


@dataclass
class Outcome:
    samples: int  # noisy input samples processed
    mses: list[float]  # MSE of each AIBT estimate against the truth
    output: bytes  # what the op produced, for the run digest
    worse_than_input: int  # AIBT estimates with MSE at or above sigma^2


@dataclass
class Op:
    run: object  # () -> raw result; the only timed part
    check: object  # (raw result) -> Outcome


def _op_seeds(seed: int, pass_index: int, index: int) -> tuple[np.random.Generator, int]:
    noise_ss, program_ss = np.random.SeedSequence(seed, spawn_key=(pass_index, index)).spawn(2)
    return np.random.default_rng(noise_ss), int(program_ss.generate_state(1)[0])


def _check_mse(label: str, signal: str, n: int, mse: float, sigma: float) -> int:
    """1 if an AIBT estimate does not beat the noisy input; raise where it must."""
    if mse < sigma**2:
        return 0
    if (signal, n) not in SIGMA2_UNMET:
        raise CheckFailed(f"{label}/{signal}: AIBT MSE {mse:.4g} not below sigma^2 {sigma**2:.4g}")
    return 1


@dataclass
class DenoiseWorkload:
    """One ``denoise`` call per op; a pass denoises each input once."""

    name: str
    n: int
    inputs: tuple[str, ...]  # test signal names, or NOISE
    rsnr: float  # of the test signals
    draws: int
    op_budget_s: float
    trace_passes: int

    def prepare(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self._truths = [
            np.zeros(self.n) if name == NOISE else wavelet.make_test_signal(name, self.n)
            for name in self.inputs
        ]

    def ops(self, pass_index: int) -> list[Op]:
        return [self._op(pass_index, i) for i in range(len(self.inputs))]

    def warmup_op(self, k: int) -> Op:
        return self._op(WARMUP_PASS + k, 0)

    def _op(self, pass_index: int, index: int) -> Op:
        name, truth = self.inputs[index], self._truths[index]
        sigma = NOISE_SIGMA if name == NOISE else 1.0 / self.rsnr
        rng, program_seed = _op_seeds(self.seed, pass_index, index)
        y = truth + sigma * rng.standard_normal(self.n)
        filt = wavelet.get_filter("haar" if name == "Blocks" else "la10")
        params = model.ModelParams(LAMBDA, GAMMA, TAU, sigma)

        def run():
            return estimator.denoise(y, filt, params, self.draws, program_seed)

        def check(est) -> Outcome:
            est = np.asarray(est, dtype=float)
            if est.shape != y.shape or not np.all(np.isfinite(est)):
                raise CheckFailed(f"{self.name}/{name}: estimate is not {self.n} finite values")
            mse = float(np.mean((est - truth) ** 2))
            worse = 0
            if name == NOISE:
                details = wavelet.forward_dwt(est, filt).flat_details()
                zero = float(np.mean(np.abs(details) <= ROUND_OFF * (1.0 + np.abs(y).max())))
                if zero < SPARSE_SHARE:
                    raise CheckFailed(f"{self.name}/noise: {zero:.1%} exact zeros < {SPARSE_SHARE:.0%}")
            else:
                worse = _check_mse(self.name, name, self.n, mse, sigma)
            return Outcome(self.n, [mse], est.tobytes(), worse)

        return Op(run, check)


@dataclass
class BenchWorkload:
    """One in-process ``aibt bench`` command per op, on one (signal, rsnr) cell."""

    name: str
    n: int
    rsnrs: tuple[float, ...]
    draws: int
    op_budget_s: float
    trace_passes: int

    def prepare(self, seed: int, out_dir: str) -> None:
        """Fix the seed; ``out_dir`` receives the CSV each command writes."""
        self.seed = seed
        self.out_dir = out_dir
        self._cells = [(s, r) for r in self.rsnrs for s in wavelet.SIGNAL_NAMES]

    def ops(self, pass_index: int) -> list[Op]:
        return [self._command(pass_index, i) for i in range(len(self._cells))]

    def warmup_op(self, k: int) -> Op:
        return self._command(WARMUP_PASS + k, 0)

    def _command(self, pass_index: int, index: int) -> Op:
        signal, rsnr = self._cells[index]
        _, program_seed = _op_seeds(self.seed, pass_index, index)
        path = os.path.join(self.out_dir, "bench.csv")
        argv = [
            "bench", "--signals", signal, "--n", str(self.n), "--rsnr", f"{rsnr:g}",
            "--reps", "1", "--draws", str(self.draws), "--seed", str(program_seed),
            "--no-runtime", "--out", path,
        ]

        def run():
            return cli.main(argv)

        def check(code) -> Outcome:
            if code != 0:
                raise OpFailed(f"aibt bench exited with {code}")
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            rows = list(csv.DictReader(io.StringIO(text)))
            methods = sorted(r["method"] for r in rows)
            if methods != sorted(bench.METHODS) or any(r["signal"] != signal for r in rows):
                raise CheckFailed(f"{self.name}/{signal}: CSV rows are not one per method: {methods}")
            worse = 0
            mses = []
            for r in rows:
                reps, amse = int(r["reps"]), float(r["amse"])
                if r["method"] == "AIBT" and reps == 0:
                    raise OpFailed(f"{self.name}/{signal}: AIBT replicate dropped")
                if reps != 1 or not math.isfinite(amse):
                    raise CheckFailed(f"{self.name}/{signal}: {r['method']} row has reps {reps}, amse {amse}")
                if r["method"] == "AIBT":
                    worse = _check_mse(self.name, signal, self.n, amse, 1.0 / rsnr)
                    mses.append(amse)
            return Outcome(self.n, mses, text.encode(), worse)

        return Op(run, check)


def make_workloads() -> dict[str, object]:
    """Every workload by name; README.md says which ones BENCHMARK.json gates on and why."""
    signals = wavelet.SIGNAL_NAMES
    table = [
        BenchWorkload("bench-1k", n=1024, rsnrs=(10.0,), draws=9, op_budget_s=30.0, trace_passes=8),
        DenoiseWorkload("noise-4k", n=4096, inputs=(NOISE,), rsnr=10.0, draws=9, op_budget_s=30.0,
                        trace_passes=20),
        BenchWorkload("bench-256", n=256, rsnrs=(10.0, 7.0), draws=25, op_budget_s=60.0, trace_passes=2),
        DenoiseWorkload("denoise-16k", n=16384, inputs=signals + (NOISE,), rsnr=10.0, draws=9,
                        op_budget_s=120.0, trace_passes=1),
        DenoiseWorkload("low-snr-256", n=256, inputs=signals, rsnr=3.0, draws=9, op_budget_s=5.0,
                        trace_passes=2),
    ]
    return {w.name: w for w in table}
