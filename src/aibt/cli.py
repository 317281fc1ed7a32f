"""Command line interface: denoise a signal, run a benchmark, or draw a sample.

Failures print one machine-readable JSON line to stderr; usage errors exit
with status 2 and runtime errors with status 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import warnings

import numpy as np

from .bench import METHODS, ExperimentConfig, emit_csv, load_config, run_experiment
from .cftp import CoalescenceError, cftp_counts, held_sites
from .estimator import denoise
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
    p.add_argument("--sigma", type=float, help="noise level of a file input; estimated from the data if left out")
    p.add_argument(
        "--wavelet", choices=("auto", "haar", "la10"), default="auto",
        help="analysis filter; auto picks haar for Blocks, la10 otherwise",
    )


def _add_param_options(p: argparse.ArgumentParser) -> None:
    """The model and seed options, unset by default; ``denoise`` and ``sample`` default them to the config's."""
    p.add_argument("--lam", type=float, help="prior per-site intensity")
    p.add_argument("--gamma", type=float, help="clustering reward (>= 1)")
    p.add_argument("--tau", type=float, help="prior coefficient scale")
    p.add_argument("--seed", type=int, help="random seed")


def _comma_list(kind):
    """An argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _resolve_input(args) -> tuple[np.ndarray, float, str]:
    """Load or synthesize the noisy signal; return (samples, sigma, filter name)."""
    for flag, seed in (("--seed", args.seed), ("--noise-seed", args.noise_seed)):
        if seed < 0:
            raise ValueError(f"{flag} must be a non-negative integer, not {seed}")
    wavelet = resolve_wavelet(args.wavelet, args.signal)
    if args.signal is not None:
        if args.sigma is not None:
            raise ValueError("--sigma applies to --in only; a named signal's noise level is 1 / --rsnr")
        if args.rsnr is None:
            raise ValueError("--rsnr is required with --signal")
        if not (args.rsnr > 0 and np.isfinite(args.rsnr)):
            raise ValueError("--rsnr must be positive and finite")
        truth = make_test_signal(args.signal, args.n)
        sigma = 1.0 / args.rsnr
        y = add_noise(truth, sigma, args.noise_seed)
    else:
        if args.rsnr is not None:
            raise ValueError("--rsnr applies to --signal only; a file's noise level is --sigma or its estimate")
        with warnings.catch_warnings():  # an empty file fails the transform's length check with one JSON line
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            y = np.loadtxt(args.infile, ndmin=1)
        sigma = args.sigma if args.sigma is not None else estimate_sigma_mad(forward_dwt(y, get_filter(wavelet)))
    return np.asarray(y, dtype=float), float(sigma), wavelet


def _cmd_denoise(args) -> int:
    y, sigma, wavelet = _resolve_input(args)
    params = ModelParams(args.lam, args.gamma, args.tau, sigma)
    est = denoise(y, get_filter(wavelet), params, args.draws, args.seed)
    np.savetxt(args.out, est, fmt="%.17g")
    return 0


def _cmd_sample(args) -> int:
    y, sigma, wavelet = _resolve_input(args)
    params = ModelParams(args.lam, args.gamma, args.tau, sigma)
    dhat = forward_dwt(y, get_filter(wavelet)).flat_details()
    counts = cftp_counts(dhat, params, [args.seed])[0]
    s = np.arange(dhat.size)
    j = np.frexp(s + 1)[1] - 1  # flat site s is (j, k) with s + 1 = 2**j + k, 0 <= k < 2**j
    columns = np.column_stack([j, s + 1 - 2**j, counts, held_sites(dhat, params)])
    np.savetxt(args.out, columns, fmt="%d", delimiter=",", header="j,k,xi,held", comments="")
    return 0


def _cmd_bench(args) -> int:
    cfg = load_config(args.config, **{f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)})
    emit_csv(run_experiment(cfg, workers=args.workers), args.out)
    return 0


@functools.lru_cache(maxsize=1)  # built on first use, not at import, and reused by later calls
def _build_parser() -> _Parser:
    parser = _Parser(prog="aibt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    param_defaults = {name: getattr(ExperimentConfig, name) for name in ("lam", "gamma", "tau", "seed")}

    d = sub.add_parser("denoise", help="denoise one signal")
    _add_input_options(d)
    _add_param_options(d)
    d.add_argument("--draws", type=int, default=25, help="posterior draws for the median")
    d.add_argument("--out", required=True, help="output file, one sample per line")
    d.set_defaults(func=_cmd_denoise, **param_defaults)

    s = sub.add_parser("sample", help="write one exact posterior occupancy draw")
    _add_input_options(s)
    _add_param_options(s)
    s.add_argument("--out", required=True, help="output CSV with columns j,k,xi,held")
    s.set_defaults(func=_cmd_sample, **param_defaults)

    # each bench option sets the ExperimentConfig field its dest names; one left out keeps the config's value
    b = sub.add_parser("bench", help="run the benchmark grid and write CSV")
    b.add_argument("--config", help="JSON file with ExperimentConfig fields")
    b.add_argument("--out", required=True, help="output CSV path")
    b.add_argument("--signals", type=_comma_list(str), help="comma-separated subset of " + ",".join(SIGNAL_NAMES))
    b.add_argument("--n", type=int, help="signal length")
    b.add_argument("--rsnr", type=_comma_list(float), help="comma-separated noise ratios")
    b.add_argument("--reps", type=int, help="replicates per cell")
    b.add_argument("--draws", dest="n_draws", type=int, help="posterior draws per estimate")
    _add_param_options(b)
    b.add_argument("--methods", type=_comma_list(str), help="comma-separated subset of " + ",".join(METHODS))
    b.add_argument("--no-runtime", dest="record_runtime", action="store_false", default=None,
                   help="record zero runtimes (byte-stable output)")
    b.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    b.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CoalescenceError, MemoryError) as err:
        print(json.dumps({"error": str(err)}), file=sys.stderr)
        return 1
