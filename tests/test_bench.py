"""Benchmark harness: seeding discipline, CSV stability, failure reporting."""

import concurrent.futures
import hashlib
import json

import numpy as np
import pytest

from aibt import bench
from aibt.bench import (
    CSV_HEADER,
    METHODS,
    ExperimentConfig,
    ResultRow,
    _mean_and_se,
    emit_csv,
    load_config,
    run_experiment,
)
from aibt.cftp import CoalescenceError
from aibt.cli import main

TINY = dict(
    signals=("Blocks",),
    n=32,
    rsnr=(10.0,),
    reps=2,
    n_draws=2,
    seed=7,
    methods=("AIBT", "Universal"),
    record_runtime=False,
)


def test_amse_hand_example():
    mean, se = _mean_and_se([1.0, 1.0])
    assert mean == 1.0
    assert se == 0.0
    # MSEs 0 and 2: mean 1, sd sqrt(2), se 1
    mean2, se2 = _mean_and_se([0.0, 2.0])
    assert mean2 == 1.0
    assert se2 == pytest.approx(1.0, rel=1e-12)
    one, zero = _mean_and_se([1.0])
    assert one == 1.0 and zero == 0.0
    assert all(np.isnan(_mean_and_se([])))


def test_config_validation():
    ExperimentConfig()
    for bad in (
        dict(signals=("Steps",)),
        dict(methods=("AIBT", "Oracle")),
        dict(n=100),
        dict(n=4),
        dict(rsnr=()),
        dict(rsnr=(0.0,)),
        dict(reps=0),
        dict(n_draws=0),
        dict(rsnr=(float("nan"),)),
        dict(rsnr=(float("inf"),)),
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    # a repeated entry would run its cells or rows twice, and an empty list would run nothing
    for field, value in (
        ("signals", ("Blocks", "Blocks")), ("signals", ()), ("rsnr", (10.0, 10.0)), ("rsnr", (10, 10.0)),
        ("rsnr", (10.0, 10.000000000001)), ("rsnr", ()), ("methods", ("AIBT", "AIBT")), ("methods", []),
    ):
        with pytest.raises(ValueError, match=f"^{field} must not"):
            ExperimentConfig(**{field: value})
    # mistyped values, as a JSON config can give them, and a negative seed name their field
    for field, value in (
        ("n", "256"), ("n", 256.0), ("n", True), ("reps", 1.5), ("n_draws", "9"), ("seed", None),
        ("seed", -1), ("rsnr", 10), ("rsnr", "37"), ("rsnr", ["10"]), ("lam", "0.05"),
        ("signals", "Blocks"), ("signals", [1]), ("methods", "AIBT"), ("record_runtime", "false"),
        ("record_runtime", 0),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ExperimentConfig(**{field: value})


def test_config_checks_the_model_at_each_noise_level():
    """Each rsnr's ``ModelParams(lam, gamma, tau, 1 / rsnr)`` is built with the config, not when a cell runs."""
    for bad in (dict(lam=-1.0), dict(gamma=0.5), dict(tau=1e160), dict(tau=10**400)):
        with pytest.raises(ValueError, match="^(lam|gamma|tau) "):
            ExperimentConfig(**bad)
    ExperimentConfig(tau=1e153, rsnr=(1.0,))
    with pytest.raises(ValueError, match=r"^tau\*\*2 / sigma\*\*2"):  # overflows only at sigma = 0.01
        ExperimentConfig(tau=1e153, rsnr=(1.0, 100.0))
    with pytest.raises(ValueError, match="^rsnr "):
        ExperimentConfig(rsnr=(10**400,))


def test_load_config_from_file_and_mapping(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"signals": ["Blocks"], "reps": 3, "rsnr": [7.0]}))
    cfg = load_config(str(path))
    assert cfg.signals == ("Blocks",) and cfg.reps == 3 and cfg.rsnr == (7.0,)
    assert load_config(path) == cfg  # a pathlib.Path reads the same file
    assert load_config({"n": 64}).n == 64
    # overrides replace the file's values, and an override of None leaves them
    cfg = load_config(str(path), reps=5, n=None, rsnr=[3.0])
    assert cfg.signals == ("Blocks",) and cfg.reps == 5 and cfg.n == 256 and cfg.rsnr == (3.0,)
    assert load_config(None, n=64) == ExperimentConfig(n=64)
    with pytest.raises(ValueError, match="unknown configuration keys"):
        load_config({}, repz=3)
    # the sampler has no cutoff or budget to configure, the model no multiplicity power,
    # and the harness picks each signal's filter itself
    for key in ("repz", "t0", "t1", "t2", "max_doublings", "z", "wavelet_policy"):
        with pytest.raises(ValueError, match="unknown configuration keys"):
            load_config({key: 3})
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_config(str(bad))


def test_emit_csv_golden(tmp_path):
    rows = [
        ResultRow("Blocks", 10.0, "AIBT", 0.00123456789, 0.0002, 5, 1.5),
        ResultRow("Doppler", 3.0, "FDR", float("nan"), float("nan"), 0, 0.0),
    ]
    path = tmp_path / "out.csv"
    emit_csv(rows, str(path))
    text = path.read_bytes().decode()
    assert text == (
        CSV_HEADER + "\n"
        "Blocks,10,AIBT,0.00123456789,0.0002,5,1.5\n"
        "Doppler,3,FDR,nan,nan,0,0\n"
    )


def test_pinned_bench_csv(tmp_path):
    """All five methods on two noise levels give these CSV bytes; a change to any of them shows here."""
    path = tmp_path / "pinned.csv"
    emit_csv(run_experiment(ExperimentConfig(n=256, rsnr=(10.0, 3.0), reps=2, seed=7, record_runtime=False)), str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "6f0f312f4b5a1b435ddb04f267657e55f255dcfb74a51237e52130b5e6e902c5"


def test_run_experiment_is_deterministic(tmp_path):
    cfg = ExperimentConfig(**TINY)
    rows1 = run_experiment(cfg)
    rows2 = run_experiment(cfg)
    assert rows1 == rows2
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows1, str(a))
    emit_csv(rows2, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_process_pool_matches_serial_run(tmp_path):
    """Two worker processes return the serial run's rows, and the CSV bytes match."""
    cfg = ExperimentConfig(**{**TINY, "rsnr": (10.0, 3.0)})
    serial = run_experiment(cfg, workers=1)
    pooled = run_experiment(cfg, workers=2)
    assert len({(r.signal, r.rsnr) for r in serial}) == 2
    assert pooled == serial
    a, b = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    emit_csv(serial, str(a))
    emit_csv(pooled, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_pool_starts_no_more_workers_than_cells(monkeypatch):
    """Asking for more workers than cells sizes the pool to the cells; no process is started here."""

    class InlinePool:
        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = ExperimentConfig(**{**TINY, "rsnr": (10.0, 3.0)})
    assert run_experiment(cfg, workers=500) == run_experiment(cfg, workers=1)
    assert InlinePool.sizes == [2]


def test_workers_below_one_are_rejected_before_any_cell_runs(tmp_path, capsys, monkeypatch):
    """``workers`` below 1 raises a ValueError before a cell runs; the CLI exits 1 with one JSON line."""
    monkeypatch.setattr(bench, "_run_cell", lambda *args: pytest.fail("a cell ran"))
    for workers in (0, -3):
        with pytest.raises(ValueError, match="^workers must be at least 1$"):
            run_experiment(ExperimentConfig(**TINY), workers=workers)
        out = tmp_path / "o.csv"
        assert main(["bench", "--signals", "Blocks", "--n", "16", "--reps", "1", "--workers", str(workers),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0]) == {"error": "workers must be at least 1"}
        assert not out.exists()


def test_rows_come_back_in_configuration_order():
    cfg = ExperimentConfig(**{**TINY, "signals": ("Doppler", "Blocks"), "rsnr": (10.0, 3.0)})
    rows = run_experiment(cfg)
    keys = [(r.signal, r.rsnr, r.method) for r in rows]
    expected = [
        (s, r, m) for s in ("Doppler", "Blocks") for r in (10.0, 3.0) for m in cfg.methods
    ]
    assert keys == expected


def test_adding_replicates_preserves_existing_ones():
    """Replicate substreams are keyed by index, so longer runs extend shorter ones."""
    short = run_experiment(ExperimentConfig(**{**TINY, "reps": 2}))
    long = run_experiment(ExperimentConfig(**{**TINY, "reps": 4}))
    for r_short, r_long in zip(short, long):
        assert r_long.replicate_mses[:2] == r_short.replicate_mses


def test_method_subset_does_not_shift_stochastic_results():
    alone = run_experiment(ExperimentConfig(**{**TINY, "methods": ("AIBT",)}))
    together = run_experiment(ExperimentConfig(**TINY))
    aibt_rows = [r for r in together if r.method == "AIBT"]
    assert aibt_rows[0].replicate_mses == alone[0].replicate_mses


def test_runtime_column_zeroed_when_disabled():
    rows = run_experiment(ExperimentConfig(**TINY))
    assert all(r.runtime_s == 0.0 for r in rows)
    timed = run_experiment(ExperimentConfig(**{**TINY, "record_runtime": True}))
    assert any(r.runtime_s > 0.0 for r in timed)


def test_failed_replicates_reduce_reps_and_are_counted(monkeypatch):
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise CoalescenceError(3, 1024.0)
        return np.zeros(31)

    monkeypatch.setattr("aibt.bench.posterior_median_estimate", flaky)
    cfg = ExperimentConfig(**{**TINY, "reps": 3, "methods": ("AIBT",)})
    rows = run_experiment(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.failures == 1
    assert row.reps == 2
    assert len(row.replicate_mses) == 2
    assert np.isfinite(row.amse)


def test_all_replicates_failing_reports_nan(monkeypatch):
    def always(*args, **kwargs):
        raise CoalescenceError(1, 2.0)

    monkeypatch.setattr("aibt.bench.posterior_median_estimate", always)
    cfg = ExperimentConfig(**{**TINY, "reps": 2, "methods": ("AIBT",)})
    rows = run_experiment(cfg)
    assert rows[0].reps == 0
    assert rows[0].failures == 2
    assert np.isnan(rows[0].amse) and np.isnan(rows[0].se)


def test_methods_constant_is_complete():
    assert METHODS == ("AIBT", "SureShrink", "Universal", "BayesThresh", "FDR")
    cfg = ExperimentConfig(**{**TINY, "methods": METHODS, "n_draws": 1, "reps": 1})
    rows = run_experiment(cfg)
    assert [r.method for r in rows] == list(METHODS)
    assert all(np.isfinite(r.amse) for r in rows)
