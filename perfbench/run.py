"""Benchmark of the aibt denoiser: one closed-loop workload per run, outputs checked.

Run from the root of a source checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload bench-256 --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs a fixed list of ops twice, first untraced and then with
spans and counts around the program's public functions, and reports the
per-layer metrics and the tracing overhead (traced minus untraced wall
time).  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the budgets and the figures that are not gated.
The exit code is 0 when every output check passed, 1 when one failed, and 2
when the program or the workload is missing.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread per numerical library; must be set before numpy is first imported
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ADDRESS_SPACE_MB = 2048  # RLIMIT_AS of the benchmark process, so runaway memory fails an op
SETUP_PROBES = 2  # fresh-interpreter set-ups besides the run's own; setup_s is the median of all
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many ops beyond it

END_TO_END_UNITS = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "amse": "mse",
    "fail_share": "ratio",
    "setup_s": "s",
}
# the end-to-end metrics BENCHMARK.json gates on; README.md gives the spreads
# that keep the others in the report line only
GATED = ("op_p50_s", "samples_per_s", "setup_s")


class BudgetExceeded(Exception):
    """An op ran past its wall budget."""


def _on_alarm(signum, frame):
    raise BudgetExceeded("op exceeded its wall budget")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once more in this fresh interpreter, with warm-up op N, and exit
    p.add_argument("--setup-probe", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """What a sequence of ops produced: times, failures, samples, MSEs, digest."""

    def __init__(self):
        self.times: list[float] = []
        self.failed = 0
        self.samples = 0
        self.mses: list[float] = []
        self.worse_than_input = 0
        self.errors: list[str] = []
        self.incorrect: list[str] = []
        self.digest = hashlib.sha256()
        self.wall = 0.0


def _run_op(op, budget_s: float, failures: tuple, tally: Tally, tracer=None) -> None:
    import workloads  # not at the top: it imports aibt, whose import main() times

    if tracer is not None:
        tracer.begin_op()
    ok = False
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        raw = op.run()
    except failures as err:
        raw, error = None, f"{type(err).__name__}: {err}"
    else:
        error = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    tally.times.append(time.perf_counter() - start)
    if error is None:
        try:
            outcome = op.check(raw)
        except workloads.OpFailed as err:
            error = f"OpFailed: {err}"
        except workloads.CheckFailed as err:
            tally.incorrect.append(str(err))
        else:
            ok = True
            tally.samples += outcome.samples
            tally.mses.extend(outcome.mses)
            tally.worse_than_input += outcome.worse_than_input
            tally.digest.update(outcome.output)
    if error is not None:
        tally.failed += 1
        tally.errors.append(error)
    if tracer is not None:
        tracer.end_op(ok)


def _run_passes(wl, failures: tuple, keep_going, tracer=None) -> Tally:
    """Run whole passes while ``keep_going(passes_done, elapsed)`` holds; stop at a wrong output."""
    tally = Tally()
    start = time.perf_counter()
    passes = 0
    while True:
        for op in wl.ops(passes):
            _run_op(op, wl.op_budget_s, failures, tally, tracer)
            if tally.incorrect:
                break
        passes += 1
        tally.wall = time.perf_counter() - start
        if tally.incorrect or not keep_going(passes, tally.wall):
            return tally


def _tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND ops beyond it, and that percentile.

    A run with too few ops for that percentile to reach the median reports
    its slowest op as the 100th percentile instead.
    """
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND
    if 2 * k < len(ordered):
        return ordered[-1], 100.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def _setup_probe(args, index: int) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--setup-probe", str(index),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _measure(args, wl, failures, setup_local: float, report: dict) -> tuple[dict, Tally]:
    setups = [setup_local] + [_setup_probe(args, k) for k in range(1, SETUP_PROBES + 1)]
    # stop at the pass boundary nearest to --seconds
    tally = _run_passes(wl, failures, lambda n, t: t + t / n / 2 < args.seconds)
    tail, tail_pct = _tail(tally.times)
    attempted = len(tally.times)
    metrics = {
        "op_p50_s": statistics.median(tally.times),
        "op_tail_s": tail,
        "samples_per_s": tally.samples / tally.wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "amse": statistics.fmean(tally.mses) if tally.mses else 0.0,
        "fail_share": tally.failed / attempted,
        "setup_s": statistics.median(setups),
    }
    measured = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    report.update(
        end_to_end=measured,
        op_tail_percentile=tail_pct,
        ops=attempted,
        worse_than_input=tally.worse_than_input,
        timed_s=tally.wall,
        setup_samples_s=setups,
        op_times_s=[round(t, 5) for t in tally.times],
    )
    return {k: measured[k] for k in GATED}, tally


def _trace(args, wl, failures, report: dict) -> tuple[dict, Tally]:
    import tracing

    passes = wl.trace_passes
    untraced = _run_passes(wl, failures, lambda n, t: n < passes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run_passes(wl, failures, lambda n, t: n < passes, tracer)
    finally:
        tracer.uninstall()
    if not (untraced.incorrect or traced.incorrect) and untraced.digest.digest() != traced.digest.digest():
        traced.incorrect.append("traced and untraced passes produced different outputs")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced.wall - untraced.wall
    metrics["trace.overhead_share"] = (traced.wall - untraced.wall) / untraced.wall
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps(tracer.span_records()))
    report.update(
        passes=passes,
        untraced_s=untraced.wall,
        traced_s=traced.wall,
        skipped_call_sites=tracer.skipped,
        spans_file=str(spans_path.relative_to(ROOT)),
        counts={k: metrics[k] for k in tracing.DETERMINISTIC},
    )
    units = tracing.PER_LAYER_UNITS
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}, traced


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "aibt" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'aibt'}; run from a source checkout", file=sys.stderr)
        return 2
    cap = ADDRESS_SPACE_MB << 20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import aibt

    import_s = time.perf_counter() - start
    import workloads

    wl = workloads.make_workloads().get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    failures = (BudgetExceeded, MemoryError, getattr(aibt, "CoalescenceError", MemoryError))
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as csv_dir:
        start = time.perf_counter()
        wl.prepare(args.seed, csv_dir)
        warm = Tally()
        _run_op(wl.warmup_op(args.setup_probe), wl.op_budget_s, failures, warm)
        setup_local = import_s + time.perf_counter() - start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_local}))
            return 0
        import numpy
        import scipy

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "commit": _git_commit(),
                "threads": {v: os.environ[v] for v in THREAD_VARS},
            },
            "budgets": {"op_budget_s": wl.op_budget_s, "address_space_mb": ADDRESS_SPACE_MB},
        }
        if args.trace:
            metrics, tally = _trace(args, wl, failures, report)
        else:
            metrics, tally = _measure(args, wl, failures, setup_local, report)
    incorrect = warm.incorrect + tally.incorrect
    report.update(digest=tally.digest.hexdigest(), errors=tally.errors[:5], incorrect=incorrect[:5])
    print(json.dumps(report))
    print(json.dumps({
        "correct": not incorrect,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
