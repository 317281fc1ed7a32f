"""Transform correctness: filter identities, explicit-matrix agreement, round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aibt.wavelet import (
    DAUB_LA10,
    HAAR,
    SIGNAL_NAMES,
    WaveletDecomposition,
    WaveletFilter,
    _raw_signal,
    _synthesis_step,
    _windows,
    add_noise,
    forward_dwt,
    get_filter,
    inverse_dwt,
    make_test_signal,
    resolve_wavelet,
)
from oracles import haar_matrix

RNG = np.random.default_rng(20260819)


# --- filter identities -----------------------------------------------------


@pytest.mark.parametrize("filt", [HAAR, DAUB_LA10], ids=["haar", "la10"])
def test_filter_orthonormality_identities(filt):
    h = filt.lowpass
    g = filt.highpass
    assert abs(h.sum() - math.sqrt(2)) < 1e-12
    assert abs(np.dot(h, h) - 1.0) < 1e-12
    assert abs(g.sum()) < 1e-12
    # quadrature mirror pairing
    L = len(h)
    expected_g = (-1) ** np.arange(L) * h[::-1]
    assert np.allclose(g, expected_g, atol=1e-15)
    # orthogonality to even shifts
    for k in range(2, L, 2):
        assert abs(np.dot(h[:-k], h[k:])) < 1e-12
        assert abs(np.dot(h[:-k], g[k:])) < 1e-12


def test_haar_taps_exact():
    assert np.allclose(HAAR.lowpass, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=0)


def test_la10_taps_frozen():
    """20-tap least-asymmetric filter; end and peak taps pinned to full precision."""
    h = DAUB_LA10.lowpass
    assert len(h) == 20
    assert h[0] == pytest.approx(0.0007701598091144599, abs=1e-15)
    assert h[np.argmax(np.abs(h))] == pytest.approx(0.769510037021098, abs=1e-13)


def test_la10_vanishing_moments():
    """The highpass kills polynomials up to degree 9 and no further."""
    g = DAUB_LA10.highpass
    k = np.arange(len(g), dtype=float)
    for p in range(10):
        rel = np.sum(g * k**p) / np.sum(np.abs(g) * np.maximum(k, 1.0) ** p)
        assert abs(rel) < 1e-12, p
    rel10 = np.sum(g * k**10) / np.sum(np.abs(g) * k**10)
    assert abs(rel10) > 1e-7


def test_bad_filter_rejected():
    with pytest.raises(ValueError):
        WaveletFilter("bad", np.array([0.6, 0.8]))  # unit energy but wrong sum
    with pytest.raises(ValueError):
        WaveletFilter("bad", np.array([1.0, 1.0]))  # right sum, wrong energy
    r2 = math.sqrt(2.0)
    with pytest.raises(ValueError, match="even"):
        WaveletFilter("bad", [0.5, 0.5, r2 - 1.0])  # right sum, odd length
    with pytest.raises(ValueError, match="unit energy"):
        WaveletFilter("bad", [r2, 0.0])
    with pytest.raises(ValueError, match="orthogonality at shift 2"):
        WaveletFilter("bad", [r2 / 6, 2 * r2 / 3, r2 / 6, 0.0])  # right sum and energy


def test_get_filter_lookup():
    assert get_filter("haar") is HAAR
    assert get_filter("LA10") is DAUB_LA10
    with pytest.raises(ValueError, match="haar"):
        get_filter("db4")


def test_resolve_wavelet_auto_rule():
    assert resolve_wavelet("auto", "Blocks") == "haar"
    assert resolve_wavelet("auto", "Doppler") == "la10"
    assert resolve_wavelet("auto", None) == "la10"  # file input
    assert resolve_wavelet("haar", "Doppler") == "haar"
    assert resolve_wavelet("la10", "Blocks") == "la10"


# --- transform vs explicit matrix -------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_haar_transform_matches_explicit_matrix(n):
    """The pyramid algorithm equals one orthonormal matrix multiplication."""
    w = haar_matrix(n)
    assert np.allclose(w @ w.T, np.eye(n), atol=1e-12)
    x = RNG.standard_normal(n)
    dec = forward_dwt(x, HAAR)
    coeffs = np.concatenate([[dec.scaling], dec.flat_details()])
    assert np.allclose(coeffs, w @ x, atol=1e-12)


def test_scaling_coefficient_is_scaled_mean():
    x = RNG.standard_normal(64)
    dec = forward_dwt(x, DAUB_LA10)
    assert dec.scaling == pytest.approx(x.mean() * math.sqrt(64), abs=1e-12)


# --- round trips and energy --------------------------------------------------


@pytest.mark.parametrize("filt", [HAAR, DAUB_LA10], ids=["haar", "la10"])
@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256, 512])
def test_round_trip_and_parseval(filt, n):
    x = RNG.standard_normal(n)
    dec = forward_dwt(x, filt)
    assert np.max(np.abs(inverse_dwt(dec) - x)) < 1e-10
    energy = dec.scaling**2 + np.sum(dec.flat_details() ** 2)
    assert energy == pytest.approx(np.sum(x**2), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["haar", "la10"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_round_trip_property(log_n, name, seed):
    x = np.random.default_rng(seed).standard_normal(2**log_n) * 10
    dec = forward_dwt(x, get_filter(name))
    assert np.max(np.abs(inverse_dwt(dec) - x)) < 1e-10


@pytest.mark.parametrize("filt", [HAAR, DAUB_LA10], ids=["haar", "la10"])
def test_synthesis_step_matches_unbuffered_scatter_add(filt):
    """One inverse step equals the ``np.add.at`` scatter bit for bit at every level size."""
    for size in (2**k for k in range(12)):
        approx, detail = RNG.standard_normal((2, size)) * 10
        n = 2 * size
        oracle = np.zeros(n)
        pos = (2 * np.arange(size)[:, None] + np.arange(filt.lowpass.size)[None, :]) % n
        np.add.at(oracle, pos, approx[:, None] * filt.lowpass[None, :] + detail[:, None] * filt.highpass[None, :])
        got = _synthesis_step(approx, detail, filt.lowpass, filt.highpass)
        assert got.tobytes() == oracle.tobytes(), size


def test_transform_windows_are_shared_and_read_only():
    """The index windows are built once per size and filter length, and no caller can change them."""
    idx = _windows(16, 4)
    assert _windows(16, 4) is idx
    assert np.array_equal(idx, (2 * np.arange(8)[:, None] + np.arange(4)[None, :]) % 16)
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 1
    forward_dwt(RNG.standard_normal(64), DAUB_LA10)
    assert not _windows(64, DAUB_LA10.lowpass.size).flags.writeable


def test_decomposition_shape_contract():
    x = RNG.standard_normal(32)
    dec = forward_dwt(x, HAAR)
    assert dec.n == 32 and dec.n_levels == 5
    assert [d.size for d in dec.details] == [1, 2, 4, 8, 16]
    flat = dec.flat_details()
    assert flat.size == 31
    # flat ordering is coarse to fine
    assert np.allclose(flat, np.concatenate(dec.details), atol=0)
    rebuilt = dec.with_details(flat.copy())
    assert np.allclose(inverse_dwt(rebuilt), x, atol=1e-10)
    with pytest.raises(ValueError, match="expected 3 detail coefficients"):
        forward_dwt(x[:4], HAAR).with_details(np.zeros(5))
    with pytest.raises(ValueError, match="level 0 must hold 1"):
        WaveletDecomposition([np.zeros(2)], 0.0, HAAR)


def test_decomposition_leaves_the_callers_list_alone():
    given = [[1], [2, 3]]
    dec = WaveletDecomposition(given, 0.0, HAAR)
    assert [type(d) for d in given] == [list, list]
    assert [d.dtype for d in dec.details] == [np.float64, np.float64]


def test_with_details_replaces_values():
    x = RNG.standard_normal(16)
    dec = forward_dwt(x, HAAR)
    zeroed = dec.with_details(np.zeros(15))
    # only the scaling survives: the reconstruction is the constant mean
    assert np.allclose(inverse_dwt(zeroed), x.mean(), atol=1e-12)


def test_dwt_input_validation():
    with pytest.raises(ValueError):
        forward_dwt(np.ones(12), HAAR)  # not a power of two
    with pytest.raises(ValueError):
        forward_dwt(np.array([1.0]), HAAR)
    with pytest.raises(ValueError):
        forward_dwt(np.array([1.0, np.nan, 0.0, 0.0]), HAAR)
    with pytest.raises(ValueError, match="one-dimensional"):
        forward_dwt(np.zeros((4, 2)), HAAR)


# --- test signals -------------------------------------------------------------


@pytest.mark.parametrize("name", SIGNAL_NAMES)
def test_signals_standardized(name):
    x = make_test_signal(name, 256)
    assert x.mean() == pytest.approx(0.0, abs=1e-12)
    assert x.std(ddof=1) == pytest.approx(1.0, rel=1e-12)


def test_signal_name_and_length_validation():
    with pytest.raises(ValueError):
        make_test_signal("Ramp", 64)
    with pytest.raises(ValueError):
        make_test_signal("Blocks", 48)


def test_blocks_is_piecewise_constant():
    x = _raw_signal("blocks", np.arange(256) / 256)
    assert len(np.unique(x)) == 11


def test_heavisine_midpoint_value():
    # 4 sin(2 pi) - sign(0.2) - sign(0.22) = -2 up to the sine's fp residue
    x = _raw_signal("heavisine", np.arange(16) / 16)
    assert x[8] == pytest.approx(-2.0, abs=1e-12)


def test_doppler_left_endpoint_zero():
    x = _raw_signal("doppler", np.arange(64) / 64)
    assert x[0] == 0.0


def test_bumps_positive():
    x = _raw_signal("bumps", np.arange(128) / 128)
    assert np.all(x >= 0) and x.max() > 1


def test_add_noise_reproducible():
    x = make_test_signal("Doppler", 128)
    y1 = add_noise(x, 0.25, seed=3)
    y2 = add_noise(x, 0.25, seed=3)
    y3 = add_noise(x, 0.25, seed=4)
    assert np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)
    assert np.std(y1 - x) == pytest.approx(0.25, rel=0.3)
    for sigma in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
            add_noise(x, sigma, seed=0)
    assert np.array_equal(add_noise(x, 0.0, seed=0), x)
