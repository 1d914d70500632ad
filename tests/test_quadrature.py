"""The batched quadrature engine: per-job results, per-job checks, named failures."""

import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from ambitlab import quadrature
from ambitlab.errors import QuadratureError
from ambitlab.kernels import SingularWeight, mu_mass
from ambitlab.quadrature import QuadratureConfig, integrate_pieces, make_pieces
from ambitlab.regions import HalfPlane, Intersection, band
from ambitlab.simulate import _G2_QUAD


def _power_integrand(points, alphas, sizes=None):
    """(x - p)^-alpha right of p, zero left of it; p and alpha read per node by job."""

    def f(x, delta, origin, job):
        if sizes is not None:
            sizes.append(x.size)
        p = points[job]
        r = x - p if origin is None else np.where(origin == p, delta, x - p)
        return np.where(r > 0.0, np.where(r > 0.0, r, 1.0) ** -alphas[job], 0.0)

    return f


def _power_jobs(count, seed=7):
    rng = np.random.default_rng(seed)
    points, alphas = rng.uniform(0.0, 1.0, count), rng.uniform(0.1, 0.9, count)
    jobs = [make_pieces([p, 0.3, 0.7], [p], 0.0, 1.5) for p in points]
    return points, alphas, jobs


def test_a_job_integrates_the_same_alone_as_in_a_batch():
    points, alphas, jobs = _power_jobs(80)
    sizes = []
    together = integrate_pieces(_power_integrand(points, alphas, sizes), jobs, _G2_QUAD)
    # the batch outgrows one call, and no call outgrows the cap
    assert sum(sizes) > 4 * quadrature._NODE_CAP
    assert max(sizes) <= quadrature._NODE_CAP
    for k, job in enumerate(jobs):
        alone = integrate_pieces(_power_integrand(points[k:k + 1], alphas[k:k + 1]), [job], _G2_QUAD)
        assert alone[0] == together[k], k
    exact = (1.5 - points) ** (1.0 - alphas) / (1.0 - alphas)
    np.testing.assert_allclose(together, exact, rtol=1e-11)


def test_a_singular_point_grades_only_the_piece_to_its_right():
    assert make_pieces([0.25, 0.5, 2.0], [0.5], 0.0, 1.0) == [
        (0.0, 0.25, "smooth"), (0.25, 0.5, "smooth"), (0.5, 1.0, "graded")]


def test_autocorrelation_of_an_offset_array_equals_its_scalar_calls():
    spec, d = SingularWeight(alpha=0.75), 1.0 / 40.0
    i, j = np.meshgrid(np.arange(-13, 44, 8), np.arange(-41, 42, 9), indexing="ij")
    w1, w2 = i * d, j * d
    batch = spec.autocorrelation(w1, w2, _G2_QUAD)
    assert batch.shape == w1.shape
    scalar = [[spec.autocorrelation(a, b, _G2_QUAD) for a, b in zip(ra, rb)]
              for ra, rb in zip(w1.tolist(), w2.tolist())]
    np.testing.assert_array_equal(batch, scalar)
    assert np.all(batch[np.abs(w1) >= 1.0] == 0.0) and np.any(np.abs(w1) >= 1.0)


def test_a_failing_autocorrelation_names_its_offset_and_wedge():
    # every job fails at this tolerance; the error names the first whose two
    # resolutions round apart, which must be a wedge of the first offset
    cfg = QuadratureConfig(rel_tol=1e-18, abs_tol=0.0)
    with pytest.raises(QuadratureError, match=re.escape("w = (0.25, -0.3), wedge ") + "[abd]: "):
        SingularWeight(alpha=0.75).autocorrelation(np.array([0.25, 0.5]), np.array([-0.3, 0.1]), cfg)


def test_a_failing_mass_names_its_n_and_half():
    cfg = QuadratureConfig(rel_tol=1e-18, abs_tol=0.0)
    with pytest.raises(QuadratureError, match=re.escape("lower half {t < s}: singular mass at n=8: ")):
        mu_mass(SingularWeight(alpha=0.75), 8, HalfPlane(1.0, -2.0, 0.3), cfg)


def test_a_non_integrable_job_fails_by_name_beside_a_good_one():
    points, alphas = np.array([0.2, 0.4]), np.array([0.5, 1.5])
    jobs = [make_pieces([p], [p], 0.0, 1.0) for p in points]
    with pytest.raises(QuadratureError, match=r"^steep: graded panels .* do not decay"):
        integrate_pieces(_power_integrand(points, alphas), jobs, QuadratureConfig(),
                         labels=["mild", "steep"])
    good = integrate_pieces(_power_integrand(points[:1], alphas[:1]), jobs[:1], QuadratureConfig())
    assert good[0] == pytest.approx(0.8**0.5 / 0.5, rel=1e-8)


@pytest.mark.parametrize("bad, message", [
    (dict(levels=0), "levels must be an integer >= 1"),
    (dict(nodes=0), "nodes must be an integer >= 1"),
    (dict(smooth_nodes=0), "smooth_nodes must be an integer >= 1"),
    (dict(levels=2.5), "levels must be an integer"),
    (dict(nodes=1.5), "nodes must be an integer"),
    (dict(max_depth=-1), "max_depth must be an integer >= 0"),
    (dict(max_depth=math.inf), "max_depth must be an integer"),
    (dict(rel_tol=-1.0), "rel_tol must be a finite tolerance >= 0"),
    (dict(abs_tol=-1e-14), "abs_tol must be a finite tolerance >= 0"),
    (dict(rel_tol=math.nan), "rel_tol must be a finite tolerance"),
    (dict(abs_tol=math.inf), "abs_tol must be a finite tolerance"),
])
def test_config_refuses_settings_the_engine_cannot_run(bad, message):
    # construction only: the negative tolerance would never finish integrating
    with pytest.raises(ValueError, match=message):
        QuadratureConfig(**bad)


def test_config_keeps_zero_tolerances_and_depth_and_stores_integer_counts():
    cfg = QuadratureConfig(rel_tol=0.0, abs_tol=0.0, levels=4.0, nodes=2, max_depth=0)
    assert (cfg.levels, cfg.nodes, cfg.max_depth) == (4, 2, 0)
    assert type(cfg.levels) is int


# Node counts of the default configs (graded 10, adaptive 16, and the counts
# the quadrature and simulation configs ask for), plus the 24 and 48 of
# gaussian's tensor rule.
RULE_SIZES = (10, 14, 16, 18, 20, 24, 28, 48)


def _mpmath_rule(nodes):
    """Gauss-Legendre nodes and weights at 40 digits: Newton on P_n from the cosine guesses."""
    with mpmath.workdps(40):
        xs, ws = [], []
        for i in range(nodes):
            x = mpmath.cos(mpmath.pi * (i + 0.75) / (nodes + 0.5))
            while True:
                p0, p1 = mpmath.mpf(1), x
                for k in range(1, nodes):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                dp = nodes * (p0 - x * p1) / (1 - x * x)
                step = p1 / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** -35:
                    break
            xs.append(x)
            ws.append(2 / ((1 - x * x) * dp * dp))
        return np.array([float(x) for x in xs[::-1]]), np.array([float(w) for w in ws[::-1]])


@pytest.mark.parametrize("nodes", RULE_SIZES)
def test_gauss_legendre_rule_matches_forty_digit_arithmetic(nodes):
    x, w = quadrature.gl(nodes)
    x_ref, w_ref = _mpmath_rule(nodes)
    assert np.max(np.abs(x - x_ref)) <= 2e-16
    np.testing.assert_allclose(w, w_ref, rtol=2e-14, atol=0.0)


@pytest.mark.parametrize("nodes", RULE_SIZES)
def test_gauss_legendre_rule_matches_scipy(nodes):
    # scipy's own end weight at 48 nodes is 1.09e-12 away from the 40-digit one
    rtol = 1.5e-12 if nodes == 48 else 1e-12
    x, w = quadrature.gl(nodes)
    x_ref, w_ref = roots_legendre(nodes)
    np.testing.assert_allclose(x, x_ref, rtol=rtol, atol=0.0)
    np.testing.assert_allclose(w, w_ref, rtol=rtol, atol=0.0)


def test_gauss_legendre_rule_is_symmetric_and_sums_to_two():
    for nodes in (1, 2, 3, *RULE_SIZES):
        x, w = quadrature.gl(nodes)
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert abs(w.sum() - 2.0) <= 4e-16


# Two singular masses that the engine cannot yet integrate (alpha = 0.6,
# ell = one, n = 8).  Each must come out between 0 and the mass of its band.
_SINGULAR = SingularWeight(alpha=0.6)


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="the lower half's two resolutions disagree by 2e-6 relative")
def test_singular_mass_of_a_band_cut_by_a_shallow_slant():
    cut = Intersection((band(0.0, 1.0 / 16.0), HalfPlane(-0.5, 3.0, 0.25)))
    mass = mu_mass(_SINGULAR, 8, cut)
    assert 0.0 < mass < mu_mass(_SINGULAR, 8, band(0.0, 1.0 / 16.0))


@pytest.mark.xfail(strict=True, raises=QuadratureError,
                   reason="an edge at t = 8e-86 is graded toward as if it were singular")
def test_singular_mass_of_a_band_cut_just_above_the_corner():
    cut = Intersection((band(0.0, 1.0), HalfPlane(0.0, 0.5, 4e-86)))
    mass = mu_mass(_SINGULAR, 8, cut)
    assert 0.0 <= mass < mu_mass(_SINGULAR, 8, band(0.0, 1.0))
