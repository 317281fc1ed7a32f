"""Command line interface: denoise a signal, run a benchmark, or draw a sample.

Failures print one machine-readable JSON line to stderr; usage errors exit
with status 2 and runtime errors with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import METHODS, emit_csv, load_config, run_experiment
from .cftp import CoalescenceError, cftp_sample, held_sites
from .estimator import denoise
from .lattice import lattice_for
from .model import ModelParams, estimate_sigma_mad
from .wavelet import SIGNAL_NAMES, add_noise, forward_dwt, get_filter, make_test_signal, resolve_wavelet

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        print(json.dumps({"error": message}), file=sys.stderr)
        self.exit(2)


def _add_input_options(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--in", dest="infile", help="text file with one sample per line")
    src.add_argument("--signal", choices=SIGNAL_NAMES, help="named test signal")
    p.add_argument("--n", type=int, default=256, help="samples for a named signal (power of two)")
    p.add_argument("--rsnr", type=float, help="root signal-to-noise ratio for a named signal")
    p.add_argument("--noise-seed", type=int, default=0, help="seed for the added noise")
    p.add_argument("--sigma", type=float, help="noise level of a file input")
    p.add_argument(
        "--estimate-sigma", action="store_true",
        help="estimate the noise level from the finest detail coefficients",
    )
    p.add_argument(
        "--wavelet", choices=("auto", "haar", "la10"), default="auto",
        help="analysis filter; auto picks haar for Blocks, la10 otherwise",
    )


def _add_param_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lam", type=float, default=0.05, help="prior per-site intensity")
    p.add_argument("--gamma", type=float, default=3.0, help="clustering reward (>= 1)")
    p.add_argument("--tau", type=float, default=1.0, help="prior coefficient scale")
    p.add_argument("--z", type=float, default=1.0, help="multiplicity power in the variance")
    p.add_argument("--seed", type=int, default=0, help="sampler seed")


def _resolve_input(args) -> tuple[np.ndarray, float, str]:
    """Load or synthesize the noisy signal; return (samples, sigma, filter name)."""
    wavelet = resolve_wavelet(args.wavelet, args.signal)
    if args.signal is not None:
        if args.rsnr is None:
            raise ValueError("--rsnr is required with --signal")
        truth = make_test_signal(args.signal, args.n)
        sigma = 1.0 / args.rsnr
        y = add_noise(truth, sigma, args.noise_seed)
    else:
        y = np.loadtxt(args.infile)
        if args.sigma is not None:
            sigma = args.sigma
        elif args.estimate_sigma:
            sigma = estimate_sigma_mad(forward_dwt(y, get_filter(wavelet)))
        else:
            raise ValueError("file input needs --sigma or --estimate-sigma")
    if sigma <= 0:
        raise ValueError("noise level must be positive")
    return np.asarray(y, dtype=float), float(sigma), wavelet


def _cmd_denoise(args) -> int:
    y, sigma, wavelet = _resolve_input(args)
    params = ModelParams(args.lam, args.gamma, args.tau, sigma, args.z)
    est = denoise(y, get_filter(wavelet), params, args.draws, args.seed)
    np.savetxt(args.out, est, fmt="%.17g")
    return 0


def _cmd_sample(args) -> int:
    y, sigma, wavelet = _resolve_input(args)
    params = ModelParams(args.lam, args.gamma, args.tau, sigma, args.z)
    dhat = forward_dwt(y, get_filter(wavelet)).flat_details()
    lattice = lattice_for(dhat.size)
    xi = cftp_sample(dhat, params, args.seed, lattice=lattice)
    held = held_sites(dhat, params)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("j,k,xi,held\n")
        for s in range(lattice.n_sites):
            j, k = lattice.site_of(s)
            fh.write(f"{j},{k},{int(xi.counts[s])},{int(held[s])}\n")
    return 0


def _cmd_bench(args) -> int:
    mapping = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict):
            raise ValueError("configuration must be a JSON object")
    overrides = {
        "signals": args.signals.split(",") if args.signals else None,
        "n": args.n,
        "rsnr": [float(r) for r in args.rsnr.split(",")] if args.rsnr else None,
        "reps": args.reps,
        "n_draws": args.draws,
        "lam": args.lam,
        "gamma": args.gamma,
        "tau": args.tau,
        "z": args.z,
        "seed": args.seed,
        "methods": args.methods.split(",") if args.methods else None,
        "wavelet_policy": args.wavelet_policy,
        "record_runtime": False if args.no_runtime else None,
    }
    mapping.update({k: v for k, v in overrides.items() if v is not None})
    cfg = load_config(mapping)
    rows = run_experiment(cfg, workers=args.workers)
    emit_csv(rows, args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="aibt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("denoise", help="denoise one signal", parents=[], add_help=True)
    _add_input_options(d)
    _add_param_options(d)
    d.add_argument("--draws", type=int, default=25, help="posterior draws for the median")
    d.add_argument("--out", required=True, help="output file, one sample per line")
    d.set_defaults(func=_cmd_denoise)

    s = sub.add_parser("sample", help="write one exact posterior occupancy draw")
    _add_input_options(s)
    _add_param_options(s)
    s.add_argument("--out", required=True, help="output CSV with columns j,k,xi,held")
    s.set_defaults(func=_cmd_sample)

    b = sub.add_parser("bench", help="run the benchmark grid and write CSV")
    b.add_argument("--config", help="JSON file with ExperimentConfig fields")
    b.add_argument("--out", required=True, help="output CSV path")
    b.add_argument("--signals", help="comma-separated subset of " + ",".join(SIGNAL_NAMES))
    b.add_argument("--n", type=int, help="signal length")
    b.add_argument("--rsnr", help="comma-separated noise ratios")
    b.add_argument("--reps", type=int, help="replicates per cell")
    b.add_argument("--draws", type=int, help="posterior draws per estimate")
    b.add_argument("--lam", type=float, help="prior per-site intensity")
    b.add_argument("--gamma", type=float, help="clustering reward")
    b.add_argument("--tau", type=float, help="prior coefficient scale")
    b.add_argument("--z", type=float, help="multiplicity power")
    b.add_argument("--seed", type=int, help="root seed")
    b.add_argument("--methods", help="comma-separated subset of " + ",".join(METHODS))
    b.add_argument("--wavelet-policy", choices=("auto", "haar", "la10"))
    b.add_argument("--no-runtime", action="store_true", help="record zero runtimes (byte-stable output)")
    b.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CoalescenceError, json.JSONDecodeError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
