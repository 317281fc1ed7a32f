"""Command line contract: exit codes, JSON errors, output files."""

import json
import subprocess
import sys

import numpy as np
import pytest

from aibt.cli import main
from aibt.wavelet import add_noise, make_test_signal


def _stderr_json(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def test_usage_error_exits_2_with_json(capsys):
    for argv in (
        ["denoise", "--signal", "Blocks"],  # missing --rsnr is caught later; --out now
        ["denoise", "--signal", "Blocks", "--rsnr", "7", "--out", "x.txt", "--t1", "5"],
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


def test_file_input_requires_sigma(tmp_path, capsys):
    f = tmp_path / "y.txt"
    np.savetxt(f, np.zeros(32))
    rc = main(["denoise", "--in", str(f), "--out", str(tmp_path / "out.txt")])
    assert rc == 1
    assert "sigma" in _stderr_json(capsys)["error"]


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
    rc = main(["denoise", "--in", str(f), "--estimate-sigma", "--draws", "9",
               "--out", str(out)])
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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "aibt", "denoise", "--signal", "Blocks", "--n", "16",
         "--rsnr", "10", "--draws", "1", "--out", "/dev/null"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_and_bench_load_no_scipy(tmp_path):
    """The package, its CLI and a bench over all five methods run without scipy."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"signals": ["Bumps"], "rsnr": [10.0]}))
    argv = ["bench", "--config", str(cfg), "--out", str(tmp_path / "rows.csv"),
            "--n", "32", "--reps", "1", "--draws", "2", "--no-runtime", "--seed", "5"]
    code = (
        "import sys, aibt, aibt.cli\n"
        f"assert aibt.cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert len((tmp_path / "rows.csv").read_text().strip().splitlines()) == 6
