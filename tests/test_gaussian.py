import re

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import gammaln

from ambitlab.errors import FloatRangeError
from ambitlab.gaussian import (
    _he_values,
    _lgam,
    abs_moment,
    up_hermite_coeffs,
)


# ---------------------------------------------------------------- references

def _abs_moment_quadrature(q):
    """m_q = 2 * integral of x^q phi(x) over the half-line, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        half = mpmath.quad(lambda x: x**q * mpmath.exp(-x * x / 2), [0, 1, mpmath.inf])
        return float(2 * half / mpmath.sqrt(2 * mpmath.pi))


def _power_cov_probe(rho, p):
    """cov(|X|^p, |Y|^p) at corr(X, Y) = rho, at 40 digits, from the bivariate
    closed form E|X|^p |Y|^p = m_p^2 2F1(-p/2, -p/2; 1/2; rho^2) (Kamat 1953)."""
    with mpmath.workdps(40):
        p, rho = mpmath.mpf(p), mpmath.mpf(rho)
        mp = 2 ** (p / 2) * mpmath.gamma((p + 1) / 2) / mpmath.sqrt(mpmath.pi)
        return float(mp * mp * (mpmath.hyp2f1(-p / 2, -p / 2, 0.5, rho * rho) - 1))


def _hermite_series(p, rho, max_order=120):
    """The production covariance: sum_k alpha_k^2 rho^k / k! over up_hermite_coeffs."""
    ex = up_hermite_coeffs(p, max_order=max_order)
    k = np.arange(ex.alpha.size)
    return float(np.sum(ex.alpha**2 * np.sign(rho) ** k * np.abs(rho) ** k
                        / np.exp(gammaln(k + 1.0))))


# ---------------------------------------------------------------- moments

def test_abs_moment_examples():
    assert abs_moment(2.0) == pytest.approx(1.0, rel=1e-14)
    assert abs_moment(4.0) == pytest.approx(3.0, rel=1e-14)
    # sqrt(2/pi), 16 digits
    assert abs_moment(1.0) == pytest.approx(0.7978845608028654, rel=1e-14)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
def test_abs_moment_closed_form_vs_quadrature(q):
    assert abs_moment(q) == pytest.approx(_abs_moment_quadrature(q), rel=1e-14)


def test_log_gamma_equals_scipy_bit_for_bit():
    # the hermite kind pins alpha_0 ~ 1e-16 = E|X|^p - m_p: an ulp in m_p moves it
    xs = np.concatenate([np.linspace(0.5, 2000.0, 40001), np.arange(1, 4001) * 0.5,
                         np.random.default_rng(3).uniform(0.5, 20.0, 4000)])
    mine = np.array([_lgam(float(x)) for x in xs])
    differ = xs[mine != gammaln(xs)]
    assert differ.size == 0, differ[:5]


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
def test_abs_moment_equals_the_scipy_formula_bit_for_bit(q):
    scipy_formula = float(np.exp(0.5 * q * np.log(2.0) + gammaln(0.5 * (q + 1.0))
                                 - 0.5 * np.log(np.pi)))
    assert abs_moment(q) == scipy_formula


@pytest.mark.parametrize("q", [0.0, -1.0, -0.5])
def test_abs_moment_rejects_nonpositive(q):
    with pytest.raises(ValueError):
        abs_moment(q)


def test_abs_moment_raises_where_it_overflows_float():
    assert abs_moment(301.0) == pytest.approx(6.506281088353494e307, rel=1e-13)
    for q in (301.5, 400.0, 1e6):
        with pytest.raises(FloatRangeError, match=re.escape(f"overflows float at q={q:g}")):
            abs_moment(q)


@pytest.mark.parametrize("q", [np.inf, np.nan])
def test_abs_moment_rejects_a_non_finite_power(q):
    with pytest.raises(ValueError, match="positive and finite"):
        abs_moment(q)


def test_even_integer_moments_match_double_factorial():
    # E|X|^{2m} = (2m-1)!!
    val = 1.0
    for m in range(1, 9):
        val *= 2 * m - 1
        assert abs_moment(2.0 * m) == pytest.approx(val, rel=1e-12)


# ---------------------------------------------------------------- Hermite polynomials

def test_hermite_orthogonality_by_quadrature():
    # E[He_k He_m] = k! delta_km against the Gaussian weight; Gauss-Hermite-e
    # nodes are an independent rule (exact for degree < 128).
    x, w = hermegauss(64)
    w = w / np.sqrt(2.0 * np.pi)
    he = _he_values(10, x)
    for k in range(11):
        fact_k = np.exp(gammaln(k + 1.0))
        for m in range(11):
            val = float(np.dot(w, he[k] * he[m])) / fact_k
            assert val == pytest.approx(1.0 if k == m else 0.0, abs=1e-8)


# ---------------------------------------------------------------- expansion coefficients

def test_expansion_rank_two_is_computed_not_assumed():
    for p in (1.0, 1.5, 2.0, 3.0):
        ex = up_hermite_coeffs(p, max_order=12)
        assert abs(ex.alpha[0]) < 1e-10
        assert abs(ex.alpha[1]) < 1e-10


def test_expansion_p2_is_exactly_he2():
    ex = up_hermite_coeffs(2.0, max_order=60)
    assert ex.alpha[2] == pytest.approx(2.0, abs=1e-12)
    others = np.delete(ex.alpha, 2)
    assert np.max(np.abs(others)) < 1e-10


def test_expansion_alpha2_equals_second_moment_coefficient():
    # alpha_2 = E[|X|^p He_2(X)] = p * m_p  (one integration by parts)
    for p in (1.0, 1.5, 3.0, 4.5):
        ex = up_hermite_coeffs(p, max_order=6)
        assert ex.alpha[2] == pytest.approx(p * abs_moment(p), rel=1e-11)


def test_expansion_partial_sums_monotone_and_bounded():
    for p in (1.0, 1.5, 2.0, 3.0):
        ex = up_hermite_coeffs(p, max_order=60)
        ps = ex.partial_sums()
        assert np.all(np.diff(ps) >= -1e-15)
        assert ps[-1] <= ex.parseval_target() + 1e-12


def test_expansion_parseval_gap_shrinks_with_order():
    gaps = []
    for K in (20, 40, 60):
        gaps.append(up_hermite_coeffs(1.5, max_order=K).parseval_gap())
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_expansion_parseval_gap_values():
    # True tails of the expansion; the p=1 tail decays like k^{-3/2} in the
    # partial-sum index and is NOT below 1e-4 at order 60.
    assert up_hermite_coeffs(1.0, 60).parseval_gap() == pytest.approx(3.6155e-4, rel=1e-3)
    assert up_hermite_coeffs(1.5, 60).parseval_gap() < 1e-4
    assert up_hermite_coeffs(3.0, 60).parseval_gap() < 1e-4


def test_expansion_rejects_bad_input():
    with pytest.raises(ValueError):
        up_hermite_coeffs(0.0)
    with pytest.raises(ValueError):
        up_hermite_coeffs(-2.0)
    with pytest.raises(ValueError):
        up_hermite_coeffs(2.0, max_order=1)


# ---------------------------------------------------------------- covariance series

def test_power_cov_probe_isserlis_p2():
    # For p=2 the covariance is exactly 2 rho^2 (fourth-moment identity).
    for rho in np.arange(-0.9, 0.95, 0.1):
        rho = round(float(rho), 10)
        assert _hermite_series(2.0, rho, 60) == pytest.approx(2.0 * rho * rho, rel=1e-12, abs=1e-15)
        assert _power_cov_probe(rho, 2.0) == pytest.approx(2.0 * rho * rho, rel=1e-15)


def test_power_cov_probe_edge_cases():
    assert _power_cov_probe(0.0, 2.0) == 0.0
    assert abs(_hermite_series(2.0, 0.0, 60)) < 1e-15
    for rho, cov in ((1.0, 2.0), (0.5, 0.5)):
        assert _hermite_series(2.0, rho, 60) == pytest.approx(cov, rel=1e-12)
        assert _power_cov_probe(rho, 2.0) == pytest.approx(cov, rel=1e-15)
    # at rho = +-1, Gauss's 2F1 sum gives the variance m_2p - m_p^2
    for p in (1.0, 1.5, 3.0):
        var = abs_moment(2 * p) - abs_moment(p) ** 2
        for rho in (1.0, -1.0):
            assert _power_cov_probe(rho, p) == pytest.approx(var, rel=1e-14)


@pytest.mark.parametrize("p,rho", [(1.0, 0.5), (1.0, -0.3), (3.0, 0.7), (1.5, 0.9)])
def test_power_cov_probe_matches_hermite_series(p, rho):
    assert _hermite_series(p, rho) == pytest.approx(_power_cov_probe(rho, p), rel=1e-10)


def test_power_cov_probe_rank_two_ratio_bounded():
    for p in (1.0, 3.0):
        rhos = (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9)
        ratios = [_hermite_series(p, rho) / rho**2 for rho in rhos]
        # the order-120 series trails the closed form by 1.3e-10 at p = 1, |rho| = 0.9
        assert ratios == pytest.approx([_power_cov_probe(rho, p) / rho**2 for rho in rhos],
                                       rel=1e-9)
        # one constant works for the whole correlation range
        assert max(ratios) < 2.0 * abs_moment(2 * p)
