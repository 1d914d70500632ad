import warnings

import numpy as np
import pytest

from ambitlab import volatility
from ambitlab.volatility import (
    ConstantVol,
    DeterministicVol,
    LogGaussianVol,
    SigmaField,
    integrated_power,
    midpoints,
    rect_integral,
    sample_volatility,
    squared_prefix_integral,
    vol_from_config,
    vol_to_config,
)


# ---------------------------------------------------------------- sampling

def test_constant_grid_is_constant():
    f = sample_volatility(ConstantVol(1.0), 16, seed=0)
    assert f.values.shape == (16, 16)
    assert np.all(f.values == 1.0)


def test_deterministic_hand_value():
    # 1 + 0.5*sin(pi/2)*sin(pi/2) at (0.25, 0.25)
    assert DeterministicVol("sine_product")(0.25, 0.25) == pytest.approx(1.5, abs=1e-15)


def test_deterministic_grid_matches_closure_at_midpoints():
    model = DeterministicVol("bowl")
    f = sample_volatility(model, 10, seed=0)
    u = midpoints(10)
    assert np.array_equal(u, -1.0 + (2.0 * np.arange(10) + 1.0) / 10)
    assert np.array_equal(f.values, model(u[:, None], u[None, :]))


# per-coordinate Lipschitz bound of each catalog closure on [-1,1]^2:
# sine_product 0.5 * 2 pi |cos sin| <= pi, gentle_slope 1/8, bowl 0.125 * 2|u| <= 1/4
_CATALOG_LIPSCHITZ = {"sine_product": np.pi, "gentle_slope": 0.125, "bowl": 0.25}


@pytest.mark.parametrize("name", sorted(volatility._DET_CATALOG))
@pytest.mark.parametrize("m", [2, 3, 8, 64, 512])
def test_catalog_grids_jump_at_most_lipschitz_times_the_pitch(name, m):
    # adjacent midpoints are 2/m apart along one axis; 1e-15 absorbs the
    # rounding of values near 1 (gentle_slope meets its bound exactly).  A
    # closure added to the catalog without a stated bound fails here.
    vals = sample_volatility(DeterministicVol(name), m, seed=0).values
    jump = max(np.abs(np.diff(vals, axis=axis)).max() for axis in (0, 1))
    assert jump <= _CATALOG_LIPSCHITZ[name] * 2.0 / m + 1e-15


def test_log_gaussian_positive_and_deterministic():
    model = LogGaussianVol(mean=0.2, variance=0.09, smooth_length=0.3)
    a = sample_volatility(model, 64, seed=11)
    b = sample_volatility(model, 64, seed=11)
    c = sample_volatility(model, 64, seed=12)
    assert np.all(a.values > 0.0)
    assert np.array_equal(a.values, b.values)  # bit-for-bit
    assert not np.array_equal(a.values, c.values)


def test_log_gaussian_marginals_near_declared():
    # pointwise law is exactly lognormal(mean, variance); with a short
    # smoothing length the grid holds many nearly independent patches
    model = LogGaussianVol(mean=0.1, variance=0.04, smooth_length=0.05)
    f = sample_volatility(model, 256, seed=3)
    logs = np.log(f.values)
    assert logs.mean() == pytest.approx(0.1, abs=0.02)
    assert logs.var() == pytest.approx(0.04, rel=0.25)

    # Lag-one log-increments D along axis 0 are exactly N(0, 2 (1 - rho1) 0.04),
    # rho1 the bump's lag-one autocorrelation.  D is the white grid convolved
    # with the differenced bump d, so its autocorrelation r is d's, normalized,
    # and mean(D^2) has relative standard deviation sqrt(2 / N_eff) with
    # N_eff = N / sum(r^2) for N = 256 * 255 differences.  Here rho1 = 0.9602,
    # sum(r^2) = 31.67, N_eff = 2061 and the relative sd 0.0312; the bound is
    # five of them, 0.156.
    bump = volatility._bump_kernel(0.05 * 256 / 2.0)
    rho1 = float(np.sum(bump[1:, :] * bump[:-1, :]))
    d = np.zeros((bump.shape[0] + 1, bump.shape[1]))
    d[1:] += bump
    d[:-1] -= bump
    r = np.real(np.fft.ifft2(np.abs(np.fft.fft2(d, (64, 64))) ** 2))
    n_eff = logs.shape[0] * (logs.shape[0] - 1) / np.sum((r / r[0, 0]) ** 2)
    dlog = np.diff(logs, axis=0)
    assert np.mean(dlog**2) == pytest.approx(2.0 * (1.0 - rho1) * 0.04,
                                             rel=5.0 * np.sqrt(2.0 / n_eff))


def test_log_gaussian_rejects_bad_params():
    with pytest.raises(ValueError):
        LogGaussianVol(variance=0.0)
    with pytest.raises(ValueError):
        LogGaussianVol(smooth_length=-0.1)
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        LogGaussianVol(smooth_length=1.01)


@pytest.mark.parametrize("smooth_length", [0.01, 0.3, 0.99, 1.0])
@pytest.mark.parametrize("m", [2, 3, 8, 63, 64])
def test_every_admissible_smoothing_bump_fits_the_grid(smooth_length, m):
    f = sample_volatility(LogGaussianVol(smooth_length=smooth_length), m, seed=0)
    assert f.values.shape == (m, m)


def test_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantVol(0.0)


def test_unknown_catalog_name_rejected():
    with pytest.raises(ValueError, match="catalog"):
        DeterministicVol("does_not_exist")


def test_resolution_must_be_at_least_two():
    with pytest.raises(ValueError):
        sample_volatility(ConstantVol(), 1)


def test_realized_values_are_immutable():
    f = sample_volatility(ConstantVol(), 8, seed=0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0


# ---------------------------------------------------------------- integrated powers

def test_constant_integrated_power_closed_form():
    f = sample_volatility(ConstantVol(2.0), 8, seed=0)
    # sigma0^p * s * t over [0,s]x[0,t]
    assert integrated_power(f, 3.0, (0.0, 0.5, 0.0, 0.25)) == pytest.approx(
        8.0 * 0.5 * 0.25, rel=1e-12
    )


def test_sine_product_square_integral():
    # int (1 + 0.5 sin sin)^2 = 1 + 0.25 * (1/2) * (1/2) over the unit square
    f = sample_volatility(DeterministicVol("sine_product"), 32, seed=0)
    assert integrated_power(f, 2.0, (0.0, 1.0, 0.0, 1.0)) == pytest.approx(1.0625, rel=1e-6)


def test_grid_path_positive_homogeneity_is_exact():
    f = sample_volatility(DeterministicVol("sine_product"), 32, seed=0)
    base, scaledf = f.scaled(1.0), f.scaled(3.0)
    p = 2.5
    got = integrated_power(scaledf, p, (0.0, 1.0, 0.0, 1.0))
    want = 3.0**p * integrated_power(base, p, (0.0, 1.0, 0.0, 1.0))
    assert got == want  # bit-exact: scaling acts on cached values


def test_rect_monotonicity():
    f = sample_volatility(LogGaussianVol(variance=0.04, smooth_length=0.2), 64, seed=7)
    small = integrated_power(f, 2.0, (0.0, 0.5, 0.0, 0.5))
    big = integrated_power(f, 2.0, (0.0, 1.0, 0.0, 1.0))
    assert 0.0 < small <= big


def test_zero_area_rect_warns_and_returns_zero():
    f = sample_volatility(ConstantVol(), 8, seed=0)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert integrated_power(f, 2.0, (0.3, 0.3, 0.0, 1.0)) == 0.0
    assert len(rec) == 1


def test_rect_outside_domain_rejected():
    f = sample_volatility(ConstantVol(), 8, seed=0)
    with pytest.raises(ValueError, match="domain"):
        integrated_power(f, 2.0, (0.0, 1.5, 0.0, 1.0))


def test_power_must_be_positive():
    f = sample_volatility(ConstantVol(), 8, seed=0)
    with pytest.raises(ValueError):
        integrated_power(f, -2.0)


def test_grid_backed_integration_matches_cell_sum():
    f = sample_volatility(LogGaussianVol(variance=0.04, smooth_length=0.2), 16, seed=1)
    cell = (2.0 / 16) ** 2
    assert integrated_power(f, 2.0, (-1.0, 1.0, -1.0, 1.0)) == pytest.approx(
        float(np.sum(f.values**2)) * cell, rel=1e-13
    )


def _scalar_rect_integral(pref, u_iv, v_iv):
    """One rectangle at a time: the definition the batched form must match."""
    (ua, ub), (va, vb) = u_iv, v_iv
    ua, va = max(ua, -1.0), max(va, -1.0)
    ub, vb = min(ub, 1.0), min(vb, 1.0)
    if ub <= ua or vb <= va:
        return 0.0
    vals = pref(np.array([ub, ub, ua, ua]), np.array([vb, va, vb, va]))
    return float(vals[0] - vals[1] - vals[2] + vals[3])


def test_batched_rect_integral_equals_the_scalar_definition_bit_for_bit():
    f = sample_volatility(LogGaussianVol(variance=0.3, smooth_length=0.3), 12, seed=4)
    pref = squared_prefix_integral(f)
    rects = [
        ((0.2, 0.2), (-0.5, 0.5)),       # empty: zero width
        ((-0.3, 0.4), (0.7, 0.7)),       # empty: zero height
        ((0.6, 0.1), (-0.5, 0.5)),       # inverted
        ((1.2, 1.5), (-0.5, 0.5)),       # inverted once clipped to [-1, 1]
        ((-0.4, 0.4), (-2.0, -1.1)),     # inverted once clipped, in v
        ((-1.3, 0.2), (0.1, 1.7)),       # partly outside the domain
        ((-2.0, 2.0), (-2.0, 2.0)),      # covers the whole domain
        ((0.013, 0.377), (-0.91, -0.05)),  # edges cut through partial cells
        ((-1.0, -0.999), (0.999, 1.0)),  # inside one corner cell
        ((0.0, 1.0 / 6.0), (-1.0 / 3.0, 0.5)),  # edges on cell edges
    ]
    rng = np.random.default_rng(0)
    for _ in range(40):
        u = np.sort(rng.uniform(-1.2, 1.2, 2))
        v = np.sort(rng.uniform(-1.2, 1.2, 2))
        rects.append((tuple(u), tuple(v)))
    ua, ub, va, vb = (np.array([r[axis][end] for r in rects])
                      for axis in (0, 1) for end in (0, 1))
    batched = rect_integral(pref, (ua, ub), (va, vb))
    assert batched.shape == (len(rects),)
    expected = [_scalar_rect_integral(pref, *r) for r in rects]
    assert batched.tolist() == expected
    assert expected[:5] == [0.0] * 5
    assert expected[6] == pytest.approx(float(np.sum(f.values**2)) * (2.0 / 12) ** 2,
                                        rel=1e-13)
    for r, value in zip(rects, expected):
        assert rect_integral(pref, *r) == value


# ---------------------------------------------------------------- plumbing

def test_sigma_field_validation():
    with pytest.raises(ValueError):
        SigmaField(values=np.ones((3, 4)))
    with pytest.raises(ValueError):
        SigmaField(values=np.zeros((3, 3)))  # not strictly positive
    assert SigmaField(values=np.ones((3, 3))).resolution == 3


def test_at_looks_up_covering_cell():
    f = sample_volatility(DeterministicVol("gentle_slope"), 4, seed=0)
    u = midpoints(4)
    assert f.at(u[2], u[1]) == f.values[2, 1]
    assert f.at(-1.0, -1.0) == f.values[0, 0]  # clipped to the boundary cell


@pytest.mark.parametrize(
    "model",
    [
        ConstantVol(1.5),
        DeterministicVol("bowl"),
        LogGaussianVol(mean=-0.1, variance=0.16, smooth_length=0.4),
    ],
)
def test_config_roundtrip(model):
    assert vol_from_config(vol_to_config(model)) == model


def test_config_missing_variant():
    with pytest.raises(ValueError, match="missing key volatility.variant"):
        vol_from_config({})
    with pytest.raises(ValueError, match="unknown volatility variant 'mystery'"):
        vol_from_config({"volatility.variant": "mystery"})
