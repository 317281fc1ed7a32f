"""Benchmark harness: seeding discipline, CSV stability, failure reporting."""

import json

import numpy as np
import pytest

from aibt.bench import (
    CSV_HEADER,
    METHODS,
    ExperimentConfig,
    ResultRow,
    amse,
    emit_csv,
    load_config,
    run_experiment,
)
from aibt.cftp import CoalescenceError

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
    est = np.array([[1.0, 1.0], [3.0, 3.0]])
    truth = np.array([2.0, 2.0])
    mean, se = amse(est, truth)
    assert mean == 1.0  # per-replicate MSEs are 1 and 1
    assert se == 0.0
    est2 = np.array([[2.0, 2.0], [4.0, 2.0]])
    mean2, se2 = amse(est2, truth)
    # MSEs are 0 and 2: mean 1, sd sqrt(2), se 1
    assert mean2 == 1.0
    assert se2 == pytest.approx(1.0, rel=1e-12)
    one, zero = amse(np.array([[3.0, 1.0]]), truth)
    assert one == 1.0 and zero == 0.0


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
        dict(wavelet_policy="sym8"),
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


def test_wavelet_policy():
    cfg = ExperimentConfig()
    assert cfg.wavelet_for("Blocks").name == "haar"
    assert cfg.wavelet_for("Doppler").name == "la10"
    fixed = ExperimentConfig(wavelet_policy="haar")
    assert fixed.wavelet_for("Doppler").name == "haar"


def test_load_config_from_file_and_mapping(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"signals": ["Blocks"], "reps": 3, "rsnr": [7.0]}))
    cfg = load_config(str(path))
    assert cfg.signals == ("Blocks",) and cfg.reps == 3 and cfg.rsnr == (7.0,)
    assert load_config({"n": 64}).n == 64
    for key in ("repz", "t0", "t1", "t2"):  # the sampler has no cutoff to configure
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


def test_run_experiment_is_deterministic(tmp_path):
    cfg = ExperimentConfig(**TINY)
    rows1 = run_experiment(cfg)
    rows2 = run_experiment(cfg)
    assert rows1 == rows2
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows1, str(a))
    emit_csv(rows2, str(b))
    assert a.read_bytes() == b.read_bytes()


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
        return np.zeros(32)

    monkeypatch.setattr("aibt.bench.denoise", flaky)
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

    monkeypatch.setattr("aibt.bench.denoise", always)
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
