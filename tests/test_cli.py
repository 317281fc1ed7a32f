"""Command line contract: exit codes, JSON errors, output files."""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aibt
from aibt import cli
from aibt.cli import main
from aibt.model import estimate_sigma_mad
from aibt.wavelet import SIGNAL_NAMES, add_noise, forward_dwt, get_filter, make_test_signal


def _stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def test_usage_error_exits_2_with_json(capsys):
    for argv in (
        ["denoise", "--signal", "Blocks"],  # missing --rsnr is caught later; --out now
        ["denoise", "--signal", "Blocks", "--rsnr", "7", "--out", "x.txt", "--t1", "5"],
        ["bench", "--wavelet-policy", "haar", "--out", "x.csv"],  # the harness picks each signal's filter
        ["denoise", "--in", "x.txt", "--estimate-sigma", "--out", "x.txt"],  # leaving out --sigma estimates it
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error" in _stderr_json(capsys)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["optimize"])
    assert exc.value.code == 2
    assert "error" in _stderr_json(capsys)


def test_runtime_error_exits_1_with_json(tmp_path, capsys):
    out = tmp_path / "x.txt"
    rc = main(["denoise", "--in", str(tmp_path / "missing.txt"), "--sigma", "0.1",
               "--out", str(out)])
    assert rc == 1
    assert "error" in _stderr_json(capsys)


def test_named_signal_requires_rsnr(tmp_path, capsys):
    rc = main(["denoise", "--signal", "Blocks", "--n", "32", "--draws", "2",
               "--out", str(tmp_path / "y.txt")])
    assert rc == 1
    assert "rsnr" in _stderr_json(capsys)["error"]


@pytest.mark.parametrize("command", ["denoise", "sample"])
@pytest.mark.parametrize("rsnr", ["0", "-1"])
def test_nonpositive_rsnr_exits_1_with_json(command, rsnr, tmp_path, capsys):
    rc = main([command, "--signal", "Blocks", "--n", "32", "--rsnr", rsnr,
               "--out", str(tmp_path / "out.txt")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "--rsnr" in json.loads(err[0])["error"]


@pytest.mark.parametrize("command", ["denoise", "sample"])
@pytest.mark.parametrize("flag", ["--seed", "--noise-seed"])
def test_negative_seed_exits_1_naming_the_flag(command, flag, tmp_path, capsys):
    out = tmp_path / "out.txt"
    rc = main([command, "--signal", "Blocks", "--n", "32", "--rsnr", "10", flag, "-1",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert flag in json.loads(err[0])["error"]
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--tau", "1e160"), ("--rsnr", "1e-200")])
def test_parameter_whose_square_overflows_exits_1_with_json(flag, value, tmp_path, capsys):
    rc = main(["denoise", "--signal", "Blocks", "--n", "16", "--rsnr", "10", flag, value,
               "--out", str(tmp_path / "out.txt")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"].startswith("tau" if flag == "--tau" else "sigma")


@pytest.mark.parametrize("command", ["denoise", "sample"])
@pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
def test_bad_file_sigma_exits_1_naming_sigma(command, sigma, tmp_path, capsys):
    """A given noise level is checked once, where the model is built: zero, negative, nan and inf all fail."""
    f = tmp_path / "y.txt"
    np.savetxt(f, np.random.default_rng(0).standard_normal(32))
    out = tmp_path / "out.txt"
    rc = main([command, "--in", str(f), "--sigma", sigma, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert "sigma" in json.loads(err[0])["error"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [["denoise"], ["sample", "--sigma", "1"]])
def test_one_value_file_fails_on_its_length(argv, tmp_path, capsys):
    """A file holding one number is a signal one sample long, not one of the wrong dimension."""
    f = tmp_path / "one.txt"
    f.write_text("3.5\n")
    rc = main([*argv, "--in", str(f), "--out", str(tmp_path / "out.txt")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "signal length must be a power of two >= 2, got 1"


def test_file_input_without_sigma_estimates_it(tmp_path):
    """Leaving out ``--sigma`` is the same as passing the MAD estimate of the finest details."""
    f = tmp_path / "y.txt"
    y = add_noise(make_test_signal("Doppler", 64), 0.2, seed=3)
    np.savetxt(f, y, fmt="%.17g")
    sigma = estimate_sigma_mad(forward_dwt(y, get_filter("la10")))
    argv = ["denoise", "--in", str(f), "--draws", "3", "--out"]
    assert main([*argv, str(tmp_path / "estimated.txt")]) == 0
    assert main([*argv, str(tmp_path / "given.txt"), "--sigma", repr(sigma)]) == 0
    assert (tmp_path / "estimated.txt").read_bytes() == (tmp_path / "given.txt").read_bytes()


@pytest.mark.parametrize("command", ["denoise", "sample"])
@pytest.mark.parametrize(
    "argv, flag",
    [(["--signal", "Blocks", "--n", "32", "--rsnr", "3", "--sigma", "5"], "--sigma"),
     (["--in", "{file}", "--rsnr", "3"], "--rsnr")],
    ids=["sigma-with-signal", "rsnr-with-file"],
)
def test_option_for_the_other_input_exits_1_with_json(command, argv, flag, tmp_path, capsys):
    """``--sigma`` belongs to file input and ``--rsnr`` to a named signal; neither is silently ignored."""
    f = tmp_path / "y.txt"
    np.savetxt(f, np.random.default_rng(0).standard_normal(32))
    out = tmp_path / "out.txt"
    rc = main([command, *(a.replace("{file}", str(f)) for a in argv), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"].startswith(flag)
    assert not out.exists()


def test_denoise_named_signal(tmp_path):
    out = tmp_path / "est.txt"
    rc = main([
        "denoise", "--signal", "Doppler", "--n", "64", "--rsnr", "10",
        "--draws", "3", "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    est = np.loadtxt(out)
    assert est.shape == (64,)
    assert np.all(np.isfinite(est))


def test_denoise_file_input_with_estimated_sigma(tmp_path):
    truth = make_test_signal("Heavisine", 64)
    y = add_noise(truth, 0.1, seed=5)
    f = tmp_path / "noisy.txt"
    np.savetxt(f, y, fmt="%.17g")
    out = tmp_path / "est.txt"
    rc = main(["denoise", "--in", str(f), "--draws", "9", "--out", str(out)])
    assert rc == 0
    est = np.loadtxt(out)
    assert np.mean((est - truth) ** 2) < np.mean((y - truth) ** 2)


def test_sample_writes_site_csv(tmp_path):
    out = tmp_path / "draw.csv"
    rc = main(["sample", "--signal", "Blocks", "--n", "32", "--rsnr", "10",
               "--wavelet", "haar", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,k,xi,held"
    assert len(lines) == 1 + 31  # one row per lattice site
    levels = {}
    n_held = 0
    for row in lines[1:]:
        j, k, xi, held = (int(v) for v in row.split(","))
        assert xi >= 0 and held in (0, 1)
        assert not (held and xi)  # a held site's count is not simulated
        n_held += held
        levels.setdefault(j, []).append(k)
    assert {j: len(ks) for j, ks in levels.items()} == {0: 1, 1: 2, 2: 4, 3: 8, 4: 16}
    assert 0 < n_held < 31  # Blocks at rsnr 10 has both kinds of site


@pytest.mark.parametrize(
    "signal, n, rsnr, seed, expected",
    [("Doppler", 128, 10, 0, "2e4d4fedb7f16eb9"), ("Blocks", 4096, 3, 4, "929936c0cfef85cf")],
)
def test_pinned_sample_csv(signal, n, rsnr, seed, expected, tmp_path):
    """``aibt sample`` output is pinned byte for byte: header, row order, columns, number format and line ends."""
    out = tmp_path / "draw.csv"
    rc = main(["sample", "--signal", signal, "--n", str(n), "--rsnr", str(rsnr), "--seed", str(seed),
               "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == expected


def test_bench_end_to_end(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"signals": ["Blocks"], "rsnr": [10.0]}))
    out = tmp_path / "rows.csv"
    args = [
        "bench", "--config", str(cfg), "--out", str(out),
        "--n", "32", "--reps", "1", "--draws", "2",
        "--methods", "AIBT,FDR", "--no-runtime", "--seed", "5",
    ]
    assert main(args) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "signal,rsnr,method,amse,se,reps,runtime_s"
    assert len(lines) == 3
    assert lines[1].startswith("Blocks,10,AIBT,")
    assert lines[2].startswith("Blocks,10,FDR,")
    # byte-stable across identical invocations since runtimes are off
    out2 = tmp_path / "rows2.csv"
    assert main(args[:4] + [str(out2)] + args[5:]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_bench_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replications": 5}))
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "unknown configuration keys" in _stderr_json(capsys)["error"]


def test_bench_rejects_mistyped_config_value(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": 1.5}))
    rc = main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "reps" in _stderr_json(capsys)["error"]
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "argv, config, code",
    [
        (["--lam", "-1"], None, 1),
        (["--methods", "FDR,AIBT", "--gamma", "0.5"], None, 1),
        ([], {"tau": 10**400}, 1),
        ([], {"rsnr": [10**400]}, 1),
        (["--rsnr", "abc"], None, 2),
        (["--methods", "AIBT,AIBT"], None, 1),
        ([], {"signals": []}, 1),
    ],
    ids=["lam--1", "gamma-0.5", "config-tau-401-digits", "config-rsnr-401-digits", "rsnr-abc", "methods-repeated",
         "config-signals-empty"],
)
def test_bench_rejects_bad_settings_before_any_cell_runs(argv, config, code, tmp_path, capsys, monkeypatch):
    """A bad flag exits 2 and a bad setting 1, each with one JSON line and before the runner is called."""
    def no_run(*args, **kwargs):
        raise AssertionError("run_experiment called")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    try:
        rc = main(["bench", *argv, "--out", str(tmp_path / "o.csv")])
    except SystemExit as exc:  # argparse's usage errors
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "error" in json.loads(err[0])


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "aibt", "denoise", "--signal", "Blocks", "--n", "16",
         "--rsnr", "10", "--draws", "1", "--out", "/dev/null"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _cap_cpu_and_memory():
    """Limits for the child process only: 60 s of CPU time and 3 GB of address space."""
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


def test_slow_coalescence_stops_at_the_lookback_budget(tmp_path):
    """Near the field's ordered phase the chains need more than 4096 sweeps; the run must stop there."""
    # one BLAS thread keeps the child's address space small on machines with many cores
    env = {**os.environ, "PYTHONPATH": str(Path(aibt.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "aibt", "denoise", "--signal", "Blocks", "--n", "256", "--rsnr", "10",
         "--lam", "5", "--gamma", "30", "--out", str(tmp_path / "est.txt")],
        capture_output=True, text=True, timeout=300, env=env, preexec_fn=_cap_cpu_and_memory,
    )
    assert proc.returncode == 1, proc.stderr[-2000:]
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1
    assert "after 4096 sweeps" in json.loads(err[0])["error"]
    assert not (tmp_path / "est.txt").exists()


def test_default_bench_finishes_within_the_limits(tmp_path):
    """The README's ``aibt bench`` with every default: 4 signals x 3 noise levels x 5 methods, 5 replicates each."""
    env = {**os.environ, "PYTHONPATH": str(Path(aibt.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "aibt", "bench", "--out", str(tmp_path / "rows.csv")],
        capture_output=True, text=True, timeout=300, env=env, preexec_fn=_cap_cpu_and_memory,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    header, *rows = (tmp_path / "rows.csv").read_text().strip().splitlines()
    assert len(rows) == 60
    assert {row.split(",")[header.split(",").index("reps")] for row in rows} == {"5"}


@pytest.mark.parametrize(
    "argv",
    [
        ["denoise", "--signal", "Blocks", "--n", str(2**30), "--rsnr", "10"],
        ["bench", "--n", str(2**30), "--signals", "Blocks", "--rsnr", "10", "--reps", "1", "--methods", "FDR"],
    ],
    ids=["denoise", "bench"],
)
def test_out_of_memory_exits_1_with_json(tmp_path, argv):
    """A signal too long for memory ends with one JSON error line and exit 1, not a traceback."""
    env = {**os.environ, "PYTHONPATH": str(Path(aibt.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "aibt", *argv, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env, preexec_fn=_cap_cpu_and_memory,
    )
    assert proc.returncode == 1, proc.stderr[-2000:]
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "allocate" in json.loads(lines[0])["error"], proc.stderr[-2000:]
    assert not (tmp_path / "out").exists()


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    """The parser is built once per process; denoise, bench, sample and denoise again with other flags
    each write what a fresh process writes, and a later usage error still exits 2 with one JSON line."""
    runs = [
        ["denoise", "--signal", "Blocks", "--n", "64", "--rsnr", "7", "--draws", "3"],
        ["bench", "--signals", "Bumps", "--n", "32", "--rsnr", "10,3", "--reps", "1", "--draws", "2", "--no-runtime"],
        ["sample", "--signal", "Doppler", "--n", "64", "--rsnr", "5", "--seed", "2"],
        ["denoise", "--signal", "Doppler", "--n", "32", "--rsnr", "3", "--lam", "0.3", "--wavelet", "haar", "--seed", "4"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(aibt.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    for i, argv in enumerate(runs):
        fresh = subprocess.run([sys.executable, "-m", "aibt", *argv, "--out", str(tmp_path / f"fresh{i}")],
                               capture_output=True, text=True, timeout=120, env=env)
        assert fresh.returncode == 0, fresh.stderr[-2000:]
    cli._build_parser.cache_clear()
    for i, argv in enumerate(runs):
        assert main([*argv, "--out", str(tmp_path / f"reused{i}")]) == 0
        assert (tmp_path / f"reused{i}").read_bytes() == (tmp_path / f"fresh{i}").read_bytes()
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["denoise", "--signal", "Blocks", "--rsnr", "7", "--out", "x.txt", "--draws", "many"])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


def test_import_and_bench_load_no_scipy(tmp_path):
    """The package and its CLI parser import without scipy or ``numpy.ma``, and a bench over all five methods,
    a denoise of a named signal and a denoise of a file with its noise level estimated run without them."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"signals": ["Bumps"], "rsnr": [10.0]}))
    np.savetxt(tmp_path / "y.txt", add_noise(make_test_signal("Doppler", 32), 0.2, seed=3), fmt="%.17g")
    runs = [
        ["bench", "--config", str(cfg), "--out", str(tmp_path / "rows.csv"),
         "--n", "32", "--reps", "1", "--draws", "2", "--no-runtime", "--seed", "5"],
        ["denoise", "--signal", "Blocks", "--n", "32", "--rsnr", "7", "--draws", "2", "--out", str(tmp_path / "a.txt")],
        ["denoise", "--in", str(tmp_path / "y.txt"), "--draws", "2", "--out", str(tmp_path / "b.txt")],
    ]
    loaded = "print(sorted(m for m in sys.modules if (m + '.').startswith(('scipy.', 'numpy.ma.'))))\n"
    code = (f"import sys, aibt, aibt.cli\naibt.cli._build_parser()\n{loaded}"
            f"assert [aibt.cli.main(argv) for argv in {runs!r}] == [0, 0, 0]\n{loaded}")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]  # after the import and parser, and after the three runs
    assert len((tmp_path / "rows.csv").read_text().strip().splitlines()) == 6


_SQRT_MAX = 1.3407807929942596e154  # the largest float whose square is finite
_ABOVE_SQRT_MAX = math.nextafter(_SQRT_MAX, math.inf)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@example(signal="Blocks", n=16, draws=3, lam=0.05, gamma=3.0, tau=_SQRT_MAX, rsnr=10.0, seed=0)
@example(signal="Blocks", n=16, draws=3, lam=0.05, gamma=3.0, tau=_ABOVE_SQRT_MAX, rsnr=10.0, seed=0)
@example(signal="Bumps", n=8, draws=1, lam=0.05, gamma=3.0, tau=1.0, rsnr=1 / _SQRT_MAX, seed=0)
@example(signal="Doppler", n=16, draws=2, lam=0.05, gamma=3.0, tau=1.0, rsnr=1e-200, seed=0)
@example(signal="Blocks", n=16, draws=3, lam=0.05, gamma=3.0, tau=1.0, rsnr=1e-154, seed=0)
@example(signal="Blocks", n=8, draws=1, lam=1.0, gamma=1.0, tau=5e-324, rsnr=1.0, seed=0)
@given(
    signal=st.sampled_from(SIGNAL_NAMES),
    n=st.sampled_from([8, 16]),
    draws=st.integers(1, 3),
    lam=_positive,
    gamma=st.floats(min_value=1.0, allow_nan=False, allow_infinity=False),
    tau=_positive,
    rsnr=_positive,
    seed=st.integers(0, 2**32),
)
def test_denoise_over_the_parameter_space_exits_0_or_1_with_json(signal, n, draws, lam, gamma, tau, rsnr, seed):
    """Any parameters give a finite estimate, or exit 1 with one JSON line."""
    argv = ["denoise", "--signal", signal, "--n", str(n), "--draws", str(draws), "--rsnr", repr(rsnr),
            "--lam", repr(lam), "--gamma", repr(gamma), "--tau", repr(tau), "--seed", str(seed)]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main([*argv, "--out", os.path.join(tmp, "est.txt")])
        est = np.loadtxt(os.path.join(tmp, "est.txt")) if rc == 0 else None
    if rc == 0:
        assert est.shape == (n,) and np.all(np.isfinite(est))
    else:
        lines = err.getvalue().strip().splitlines()
        assert rc == 1 and len(lines) == 1 and "error" in json.loads(lines[0])


_BLOCKS_16 = ["--signal", "Blocks", "--n", "16", "--rsnr", "10"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--signal", "Blocks", "--n", "16", "--rsnr", "1e-154"], 1),  # sigma**2 (sigma**2 + tau**2) overflows
        ([*_BLOCKS_16, "--tau", "1.34e154"], 1),  # tau**2 / sigma**2 overflows
        (["--in", "{huge}", "--sigma", "1"], 0),  # every dhat**2 overflows
        (["--in", "{empty}"], 1),  # numpy's loadtxt warns on a file with no data
        ([*_BLOCKS_16, "--lam", "1e300"], 0),
        ([*_BLOCKS_16, "--gamma", "1e300"], 0),
        ([*_BLOCKS_16, "--z", "1"], 2),  # the model has no multiplicity power
    ],
    ids=["rsnr-1e-154", "tau-1.34e154", "file-1e200", "file-empty", "lam-1e300", "gamma-1e300", "z"],
)
def test_child_stderr_is_empty_or_one_json_line(tmp_path, argv, code):
    """Run as its own process, ``aibt denoise`` prints nothing to stderr when it succeeds and a single
    JSON error line when it fails: no numpy warning comes before it."""
    huge = tmp_path / "huge.txt"
    huge.write_text("1e200\n" * 16)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    env = {**os.environ, "PYTHONPATH": str(Path(aibt.__file__).parents[1]), "PYTHONWARNINGS": "default"}
    argv = [a.replace("{huge}", str(huge)).replace("{empty}", str(empty)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "aibt", "denoise", *argv, "--draws", "3", "--out", str(tmp_path / "est.txt")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == code, proc.stderr[-2000:]
    if code == 0:
        assert proc.stderr == ""
        assert np.all(np.isfinite(np.loadtxt(tmp_path / "est.txt")))
    else:
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "error" in json.loads(lines[0]), proc.stderr[-2000:]
