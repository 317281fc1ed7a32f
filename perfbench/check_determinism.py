"""Check that traced runs repeat, and that a held-out seed passes every check.

Two traced runs at ``--seed`` must report identical counts (events, replays,
lattice builds, draws, tier census, failures) and identical output digests;
a third traced run at ``--held-out-seed`` must pass every output check.
Run from the root of a source checkout:

    python3 perfbench/check_determinism.py --seed 1 --held-out-seed 2024

Exits 0 when all of that holds for every workload given, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    """The report line and the result line of one ``--trace 1`` run."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {done.returncode})\n{done.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", help="repeatable; default: those in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--held-out-seed", type=int, default=2024)
    args = p.parse_args(argv)
    problems = []
    gated = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    for workload in args.workload or gated:
        first, first_result = traced_run(workload, args.seed)
        second, second_result = traced_run(workload, args.seed)
        _, held_result = traced_run(workload, args.held_out_seed)
        if first["counts"] != second["counts"]:
            problems.append(f"{workload}: counts differ: {first['counts']} vs {second['counts']}")
        if first["digest"] != second["digest"]:
            problems.append(f"{workload}: output digests differ at seed {args.seed}")
        for seed, result in ((args.seed, first_result), (args.seed, second_result),
                             (args.held_out_seed, held_result)):
            if not result["correct"]:
                problems.append(f"{workload}: output check failed at seed {seed}")
        print(json.dumps({"workload": workload, "counts": first["counts"], "digest": first["digest"]}))
    for line in problems:
        print(line, file=sys.stderr)
    print("determinism: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
