import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ambitlab.gaussian import abs_moment
from ambitlab.kernels import SingularWeight, UniformWeight, compute_cn
from ambitlab.simulate import (
    increment_covariance,
    simulate_lattice,
    strip_covariances,
)
from ambitlab.variation import (
    expected_scaled_pv,
    retained_corners,
    scaled_power_variation,
    variation_field,
)
from ambitlab.volatility import (
    ConstantVol,
    DeterministicVol,
    LogGaussianVol,
    sample_volatility,
)
from oracles import eval_h, power_variation


# ------------------------------------------------------------- raw statistic

def test_unit_increments_count_the_cells():
    inc = np.ones((3, 3))
    assert power_variation(inc, 2.0, 1 / 3, 1.0, 1.0) == 9.0
    assert power_variation(inc, 0.5, 1 / 3, 1.0, 1.0) == 9.0


def test_hand_enumerated_square_sum():
    inc = np.array([[0.5, -0.5], [1.0, 2.0]])
    # 0.25 + 0.25 + 1 + 4
    assert power_variation(inc, 2.0, 0.5, 1.0, 1.0) == 5.5
    assert power_variation(inc, 2.0, 0.5, 0.5, 1.0) == 0.5
    assert power_variation(inc, 2.0, 0.5, 1.0, 0.5) == 1.25


def test_empty_ranges_sum_to_zero():
    inc = np.ones((2, 2))
    assert power_variation(inc, 2.0, 0.5, 0.4, 1.0) == 0.0  # floor(ns/k) = 0
    assert power_variation(inc, 2.0, 0.5, 0.0, 1.0) == 0.0
    assert power_variation(inc, 1.0, 0.5, 1.0, 0.49) == 0.0


def test_a_corner_on_the_evaluation_point_is_counted():
    # 0.6 / 0.1 is 5.999..., yet the corner 0.6 lies in [0, 0.6]
    inc = np.ones((10, 10))
    assert retained_corners(0.6, 1.0, 0.1) == (6, 10)
    assert power_variation(inc, 2.0, 0.1, 0.6, 1.0) == 60.0
    assert variation_field(inc, 2.0)[retained_corners(0.6, 1.0, 0.1)] == 60.0
    sig = sample_volatility(ConstantVol(1.0), 20, seed=0)
    assert expected_scaled_pv(UniformWeight(), sig, 10, 1, 2.0, 0.6, 1.0) == pytest.approx(
        0.6, rel=1e-14)


@given(st.integers(2, 199), st.sampled_from((3, 4, 5, 6, 7, 10, 20)))
def test_grid_points_count_the_corners_below_them_exactly(n, g):
    # the grid point i/g lies at or above the corner eps j iff j k g <= i n
    for k in range(1, n + 1):
        for i in range(g + 1):
            assert retained_corners(i / g, 1.0, k / n)[0] == (i * n) // (k * g), (k, i)


def test_power_and_point_validation():
    inc = np.ones((2, 2))
    with pytest.raises(ValueError, match="positive"):
        power_variation(inc, 0.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        power_variation(inc, -2.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="unit square"):
        power_variation(inc, 2.0, 0.5, 1.2, 0.5)
    with pytest.raises(ValueError, match="positive"):
        variation_field(inc, 0.0)


# ------------------------------------------------------------------ field

def test_field_matches_pointwise_statistic():
    rng = np.random.default_rng(4)
    inc = rng.standard_normal((4, 4))  # n = 8, k = 2
    fld = variation_field(inc, 1.5)
    assert fld.shape == (5, 5)
    for i in range(5):
        for j in range(5):
            s, t = i * 0.25, j * 0.25
            assert fld[i, j] == pytest.approx(
                power_variation(inc, 1.5, 0.25, s, t), rel=1e-13, abs=1e-300
            )
            assert fld[retained_corners(s, t, 0.25)] == fld[i, j]
    # step-field convention between corners
    assert fld[retained_corners(0.3, 0.9, 0.25)] == fld[1, 3]
    # off the unit square, as the pointwise statistic
    for s, t in ((-0.1, 1.0), (0.5, 1.1)):
        with pytest.raises(ValueError, match="outside the unit square"):
            retained_corners(s, t, 0.25)
        with pytest.raises(ValueError, match="outside the unit square"):
            power_variation(inc, 1.5, 0.25, s, t)


def test_field_is_monotone_and_vanishes_on_axes():
    rng = np.random.default_rng(5)
    fld = variation_field(rng.standard_normal((6, 6)), 2.0)
    assert np.all(fld[0, :] == 0.0) and np.all(fld[:, 0] == 0.0)
    assert np.all(np.diff(fld, axis=0) >= 0.0)
    assert np.all(np.diff(fld, axis=1) >= 0.0)
    assert np.all(fld >= 0.0)


def test_field_and_its_scaling_are_read_only_arrays():
    fld = variation_field(np.ones((4, 4)), 2.0)
    scaled = scaled_power_variation(fld, 2.0, 0.25, 0.25)
    for arr in (fld, scaled):
        assert type(arr) is np.ndarray and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[1, 1] = 0.0


@pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
def test_field_refuses_an_input_that_is_not_a_square_matrix(shape):
    with pytest.raises(ValueError, match="square 2-D array"):
        variation_field(np.ones(shape), 2.0)


# ----------------------------------------------------------------- scalings

def test_uniform_scaling_factor_is_one_quarter():
    # eps^2 / c_n = (1/n^2) / (4/n^2) for the window weight at k=1
    n = 8
    cn = compute_cn(UniformWeight(), n)
    scaled = scaled_power_variation(variation_field(np.ones((n, n)), 2.0), 2.0, 1 / n, cn)
    assert scaled[-1, -1] == pytest.approx(64 * 0.25, rel=1e-12)


def test_scaling_requires_cn_and_respects_doubling():
    V = variation_field(np.ones((4, 4)), 2.0)
    for bad in (0.0, -0.25, np.inf, np.nan):
        with pytest.raises(ValueError, match="c_n must be positive and finite"):
            scaled_power_variation(V, 2.0, 0.25, bad)
    a = scaled_power_variation(V, 2.0, 0.25, 0.25)
    b = scaled_power_variation(V, 2.0, 0.25, 0.5)
    assert np.allclose(a, 2.0 * b, rtol=0, atol=0)
    zero = scaled_power_variation(variation_field(np.zeros((4, 4)), 2.0), 2.0, 0.25, 0.25)
    assert np.all(zero == 0.0)


def test_relative_field_is_exactly_invariant_under_sigma_doubling():
    # doubling sigma scales every lattice value by exactly 2 (binary exponent
    # shift through the FFT), so any ratio of the field's values, the
    # variation relative to its full-square value among them, is bit-identical
    sig1 = sample_volatility(ConstantVol(1.0), 32, seed=0)
    sig2 = sample_volatility(ConstantVol(2.0), 32, seed=0)
    for spec in (UniformWeight(), SingularWeight(alpha=0.75)):
        f1, _ = simulate_lattice(spec, sig1, 4, 32, seed=3)
        f2, _ = simulate_lattice(spec, sig2, 4, 32, seed=3)
        assert np.array_equal(f2, 2.0 * f1)


# ----------------------------------------------------------- expected values

def test_expected_constant_cases_from_closed_form():
    sig1 = sample_volatility(ConstantVol(1.0), 16, seed=0)
    sig2 = sample_volatility(ConstantVol(2.0), 16, seed=0)
    # eps = 0.1: 1 * 1 * 0.01 * 10 * 10
    assert expected_scaled_pv(UniformWeight(), sig1, 10, 1, 2.0, 1.0, 1.0) == pytest.approx(
        1.0, rel=1e-14
    )
    # eps = 0.25: m_1 * 2 * 0.0625 * 2 * 4
    got = expected_scaled_pv(UniformWeight(), sig2, 8, 2, 1.0, 0.6, 1.0)
    assert got == pytest.approx(abs_moment(1.0), rel=1e-13)
    assert expected_scaled_pv(UniformWeight(), sig1, 10, 1, 2.0, 0.05, 1.0) == 0.0


def test_expected_quadrature_path_agrees_with_closed_form():
    # general route evaluated on a constant grid must reproduce the closed
    # form: the concentration measure has unit mass
    spec, sig = UniformWeight(), sample_volatility(ConstantVol(1.5), 16, seed=0)
    n, k, p, s, t = 8, 2, 1.5, 0.8, 0.55
    eps = k / n
    ci, cj = int(s / eps), int(t / eps)
    idx = np.array([(i, j) for i in range(1, ci + 1) for j in range(1, cj + 1)])
    diag = np.arange(len(idx))
    avg = strip_covariances(spec, sig, n, eps, idx, diag, diag) / compute_cn(spec, n)
    quad = eps**2 * abs_moment(p) * np.sum(avg ** (p / 2))
    closed = expected_scaled_pv(spec, sig, n, k, p, s, t)
    assert quad == pytest.approx(closed, rel=1e-8)


def _expected_by_common_refinement(spec, sigma, n, k, p, s, t):
    """E[scaled PV | sigma] without prefix integrals.

    For each retained corner, cut the kernel variables at the window breaks
    and at the volatility cell edges seen from that corner; h_n and sigma are
    both constant on every piece, so summing h_n^2 sigma^2 times the piece
    area over the pieces integrates exactly.
    """
    eps, d = k / n, 1.0 / n
    m = sigma.resolution
    edges = np.linspace(-1.0, 1.0, m + 1)
    sq = sigma.values**2
    cn = compute_cn(spec, n)

    def pieces(corner, lo1, lo2):
        cuts = np.concatenate([[lo1, lo1 + d, lo2, lo2 + d], corner - edges])
        cuts = np.unique(cuts[(cuts >= lo1) & (cuts <= lo2 + d)])
        mid = 0.5 * (cuts[1:] + cuts[:-1])
        cells = np.floor((corner - mid + 1.0) * m / 2.0).astype(int)
        return mid, np.diff(cuts), cells

    total = 0.0
    for i in range(1, int(np.floor(s / eps)) + 1):
        xi, dxi, ci = pieces(eps * i, spec.s1, spec.s2)
        for j in range(1, int(np.floor(t / eps)) + 1):
            tau, dtau, cj = pieces(eps * j, spec.t1, spec.t2)
            h2 = eval_h(spec, n, xi[:, None], tau[None, :]) ** 2
            avg = np.sum(h2 * sq[np.ix_(ci, cj)] * np.outer(dxi, dtau)) / cn
            total += avg ** (p / 2.0)
    return eps**2 * abs_moment(p) * total


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_expected_uniform_path_against_a_common_refinement(k, p):
    # window corners off the volatility cells and the lattice, so pieces cut
    # through partial cells; two fields, two evaluation points
    spec = UniformWeight(0.2, 0.7, 0.3, 0.9, scale=1.5)
    n = 16
    for sig in (sample_volatility(DeterministicVol("sine_product"), 40, seed=0),
                sample_volatility(LogGaussianVol(variance=0.3), 40, seed=5)):
        for s, t in ((1.0, 1.0), (0.7, 0.45)):
            got = expected_scaled_pv(spec, sig, n, k, p, s, t)
            ref = _expected_by_common_refinement(spec, sig, n, k, p, s, t)
            assert got == pytest.approx(ref, rel=1e-12)


def test_expected_trace_identity_against_covariance():
    # p=2, k=1: the unscaled expectation is the trace of the increment
    # covariance, however the volatility varies
    sig = sample_volatility(DeterministicVol("sine_product"), 16, seed=0)
    n = 8
    cov = increment_covariance(UniformWeight(), sig, n, 1)
    expect = expected_scaled_pv(UniformWeight(), sig, n, 1, 2.0, 1.0, 1.0)
    unscaled = expect * cov.c_n / (1.0 / n) ** 2
    assert unscaled == pytest.approx(float(np.trace(cov.matrix)), rel=1e-6)


def test_expected_rejects_what_it_cannot_do_exactly():
    sine = sample_volatility(DeterministicVol("sine_product"), 16, seed=0)
    with pytest.raises(ValueError, match="simulation route"):
        expected_scaled_pv(SingularWeight(alpha=0.75), sine, 8, 1, 2.0, 1.0, 1.0)
    const = sample_volatility(ConstantVol(1.0), 16, seed=0)
    with pytest.raises(ValueError, match="positive"):
        expected_scaled_pv(UniformWeight(), const, 8, 1, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="thinning"):
        expected_scaled_pv(UniformWeight(), const, 8, 0, 2.0, 1.0, 1.0)
    # fractional sizes are refused, not truncated; integer-valued floats pass
    with pytest.raises(ValueError, match="integers"):
        expected_scaled_pv(UniformWeight(), const, 8.7, 1, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="integers"):
        expected_scaled_pv(UniformWeight(), const, 8, 1.5, 2.0, 1.0, 1.0)
    assert expected_scaled_pv(UniformWeight(), const, 8.0, 2.0, 2.0, 1.0, 1.0) == (
        expected_scaled_pv(UniformWeight(), const, 8, 2, 2.0, 1.0, 1.0))


# ----------------------------------------------------------------- lattice bias

def test_bias_identity_with_floor_product_is_exact():
    sig = sample_volatility(ConstantVol(2.0), 16, seed=0)
    n, k, p = 16, 4, 3.0
    eps = k / n
    for s, t in [(0.33, 0.77), (0.5, 0.5), (0.9, 0.1)]:
        expect = expected_scaled_pv(UniformWeight(), sig, n, k, p, s, t)
        ci, cj = int(s / eps), int(t / eps)
        closed = abs_moment(p) * 2.0**p * (eps * ci) * (eps * cj)
        assert expect == pytest.approx(closed, rel=1e-12)
