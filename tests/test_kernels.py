import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from ambitlab import asymptotics, cli, kernels, quadrature, regions, simulate
from ambitlab.errors import QuadratureError
from ambitlab.kernels import (
    KappaRange,
    SingularWeight,
    SlowFunction,
    TriangleWeight,
    UniformWeight,
    compute_cn,
    concentration_mass,
    eval_g,
    mu_mass,
    near_region,
    thinning_count,
)
from ambitlab.quadrature import QuadratureConfig
from ambitlab.regions import Everything, HalfPlane, Intersection, Rect, band
from ambitlab.simulate import _G2_QUAD
from oracles import Difference, eval_h, full_range, singular_g, triangle_g, uniform_mass
from test_regions import shapes


# ---------------------------------------------------------------- evaluation

def test_uniform_kernel_is_plain_indicator():
    w = UniformWeight()
    assert eval_g(w, 0.5, 0.5) == 1.0
    assert eval_g(w, 0.25, 0.75) == 1.0  # closed rectangle
    assert eval_g(w, 0.1, 0.5) == 0.0
    assert eval_g(w, 0.5, -0.2) == 0.0


def test_singular_kernel_uses_coordinate_maximum():
    w = SingularWeight(alpha=0.5, ell=SlowFunction("one"))
    # max(0.04, 0.01) = 0.04 -> 0.04^(-1/2) = 5
    assert eval_g(w, 0.04, 0.01) == pytest.approx(5.0, rel=1e-14)
    assert eval_g(w, 0.01, 0.04) == pytest.approx(5.0, rel=1e-14)
    assert eval_g(w, -0.04, 0.01) == 0.0  # outside the quadrant
    assert eval_g(w, 0.04, 1.5) == 0.0
    assert np.isposinf(eval_g(w, 0.0, 0.0))


def test_triangle_kernel_lives_on_the_cone():
    w = TriangleWeight(alpha=0.75, ell=SlowFunction("one"))
    assert eval_g(w, 0.5, 0.5) == pytest.approx(0.5 ** -0.75, rel=1e-14)
    assert eval_g(w, 0.8, 0.5) == 0.0  # |2s-1| = 0.6 >= t
    assert eval_g(w, 0.3, 0.5) == pytest.approx(0.5 ** -0.75, rel=1e-14)
    assert eval_g(w, 0.3, 0.39) == 0.0


# a scale other than 1 makes a regrouped product show in the bits
_PROFILE_SPECS = [cls(alpha=a, ell=SlowFunction(ell), scale=scale)
                  for cls, alphas in ((SingularWeight, (0.3, 0.75)), (TriangleWeight, (0.75,)))
                  for a in alphas for ell in ("one", "one_minus_s", "cos_quarter", "smooth_cutoff")
                  for scale in (1.0, 2.5)]


@pytest.mark.parametrize("spec", _PROFILE_SPECS,
                         ids=lambda w: f"{w.variant}-{w.ell.name}-{w.alpha}-x{w.scale}")
def test_profile_has_the_bits_of_the_masked_formula(spec):
    special = [0.0, -0.0, 1.0, 1.0 - 1e-16, 5e-324, 1e-300, np.inf, -np.inf, np.nan]
    r = np.concatenate([np.random.default_rng(7).uniform(-0.3, 1.3, 200_000), special])
    inside = (r > 0.0) & (r < 1.0)

    def masked(pts, keep):
        want = np.zeros_like(pts)
        ri = pts[keep]
        want[keep] = spec.scale * ri ** (-spec.alpha) * spec.ell(ri)
        return want

    # the whole set takes the masked path, its (0, 1) points the all-inside one
    for pts, keep in ((r, inside), (r[inside], np.ones(np.count_nonzero(inside), dtype=bool))):
        before = pts.copy()
        got = spec.profile(pts)
        assert np.array_equal(got.view(np.int64), masked(pts, keep).view(np.int64))
        assert np.array_equal(pts.view(np.int64), before.view(np.int64))
        assert not np.shares_memory(got, pts)
    for x in (0.5, 1e-300, 0.0, 1.0, 1.3, np.float64(0.25)):
        got = spec.profile(x)
        assert type(got) is float
        assert got == masked(np.array([x], dtype=float), np.array([0.0 < x < 1.0]))[0]


@pytest.mark.parametrize("ell", ["one", "one_minus_s", "cos_quarter", "smooth_cutoff"])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.75])
def test_evaluate_has_the_bits_of_the_profile_masked_afterwards(alpha, ell):
    # a dyadic grid on [-0.5, 1.5]^2 with -0.0 beside it: r = 0, the cone's
    # apex (1/2, 0) and points on its edges |2s - 1| = t lie on it exactly
    x = np.concatenate([[-0.0], np.arange(-16, 49) / 32.0])
    s, t = np.broadcast_arrays(x[:, None], x[None, :])
    cases = [(SingularWeight(alpha=alpha, ell=SlowFunction(ell)), singular_g)]
    if alpha > 0.5:
        cases.append((TriangleWeight(alpha=alpha, ell=SlowFunction(ell)), triangle_g))
    for spec, oracle in cases:
        got, want = spec.evaluate(s, t), oracle(spec, s, t)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # signbit included


# A coordinate outside [0,1], next to one anywhere on [-2,2], in either order.
_below = st.floats(-2.0, 0.0, exclude_max=True)
_above = st.floats(1.0, 2.0, exclude_min=True)
_anywhere = st.floats(-2.0, 2.0)
_off_square = st.tuples(st.one_of(_below, _above), _anywhere, st.booleans()).map(
    lambda p: (p[1], p[0]) if p[2] else p[:2])


@pytest.mark.parametrize("spec", [
    UniformWeight(),
    UniformWeight(s1=0.0, s2=1.0, t1=0.0, t2=1.0),
    UniformWeight(s1=0.5, s2=1.0, t1=0.25, t2=1.0, scale=3.0),
    SingularWeight(alpha=0.75, ell=SlowFunction("one")),
    SingularWeight(alpha=0.3),
    TriangleWeight(alpha=0.6, ell=SlowFunction("one")),
], ids=["uniform", "uniform-unit-square", "uniform-to-the-edge", "singular-one",
        "singular", "triangle"])
@given(st.lists(_off_square, min_size=1, max_size=20))
def test_every_weight_vanishes_off_the_unit_square(spec, points):
    # the lattice simulation's M x M transform drops offsets above 1
    s, t = np.array(points).T
    assert np.all(eval_g(spec, s, t) == 0.0)


def test_differenced_kernel_is_the_four_term_combination():
    w = SingularWeight(alpha=0.4)
    n = 8
    s, t = 0.37, 0.81
    expect = (
        eval_g(w, s, t)
        - eval_g(w, s - 1 / n, t)
        - eval_g(w, s, t - 1 / n)
        + eval_g(w, s - 1 / n, t - 1 / n)
    )
    assert eval_h(w, n, s, t) == pytest.approx(expect, rel=1e-14)


def test_differenced_uniform_kernel_takes_signed_unit_values():
    w = UniformWeight()
    n = 8
    # inside the kernel rectangle everything cancels
    assert eval_h(w, n, 0.5, 0.5) == 0.0
    # just past a corner only one copy contributes
    assert eval_h(w, n, 0.26, 0.26) == 1.0
    assert eval_h(w, n, 0.26, 0.80) == -1.0


def test_eval_h_rejects_bad_resolution():
    with pytest.raises(ValueError):
        eval_h(UniformWeight(), 0, 0.5, 0.5)


# ---------------------------------------------------------------- spec validation

def test_uniform_weight_rejects_bad_corners():
    with pytest.raises(ValueError):
        UniformWeight(s1=0.75, s2=0.25)
    with pytest.raises(ValueError):
        UniformWeight(t1=-0.1, t2=0.5)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.7])
def test_singular_weight_rejects_exponent_outside_unit_interval(alpha):
    with pytest.raises(ValueError):
        SingularWeight(alpha=alpha)


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("variant", [UniformWeight, SingularWeight, TriangleWeight],
                         ids=lambda cls: cls.variant)
def test_every_variant_refuses_a_scale_that_is_not_finite_and_positive(variant, scale):
    params = {} if variant is UniformWeight else {"alpha": 0.75}
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        variant(scale=scale, **params)


@pytest.mark.parametrize("alpha", [0.5, 0.3, 1.0])
def test_triangle_weight_needs_exponent_above_one_half(alpha):
    with pytest.raises(ValueError):
        TriangleWeight(alpha=alpha)


def test_slow_function_catalog_and_validation():
    ell = SlowFunction("smooth_cutoff")
    assert ell(0.5) == pytest.approx(0.25)
    with pytest.raises(ValueError, match="unknown slow-function name"):
        SlowFunction("no_such_factor")
    # the flags come from the catalog: none can be declared
    with pytest.raises(TypeError):
        SlowFunction(name="one", ell1_zero=True)
    assert SlowFunction() == SlowFunction("one_minus_s")


def test_slow_function_repr_lists_the_catalog_flags():
    # field.csv headers carry the weight repr, and with it this one
    assert repr(SlowFunction("one")) == (
        "SlowFunction(name='one', ell0_nonzero=True, ell1_zero=False, "
        "derivative_bound=0.0, derivative1_zero=True)")


_SCAN = np.linspace(1.0 / 4096, 1.0 - 1.0 / 4096, 4096)


@pytest.mark.parametrize("name", sorted(kernels._ELL_CATALOG))
def test_catalog_flags_hold_for_the_factor_values(name):
    ell = SlowFunction(name)
    vals = np.asarray(ell(_SCAN), dtype=float)
    assert np.all(np.isfinite(vals))
    slopes = np.abs(np.diff(vals) / np.diff(_SCAN))
    assert np.max(slopes) <= ell.derivative_bound * (1.0 + 1e-6) + 1e-9
    assert abs(vals[0]) >= 1e-6 if ell.ell0_nonzero else abs(vals[0]) < 1e-6
    assert abs(vals[-1]) <= 1e-2 if ell.ell1_zero else abs(vals[-1]) >= 1e-6
    assert (slopes[-1] < 1e-2) == ell.derivative1_zero


@pytest.mark.parametrize("name", sorted(kernels._ELL_CATALOG))
def test_catalog_coefficients_state_the_factor(name):
    factor, poly, _ = kernels._ELL_CATALOG[name]
    if poly is None:  # no closed-form antiderivative: the exact covariance refuses it
        with pytest.raises(ValueError, match="closed-form antiderivative"):
            SingularWeight(alpha=0.5, ell=SlowFunction(name)).autocorrelation(0.0, 0.0, None)
        return
    expected = sum(c * _SCAN**j for j, c in enumerate(poly))
    assert np.allclose(factor(_SCAN), expected, rtol=1e-14, atol=1e-15)


# ---------------------------------------------------------------- total masses

@pytest.mark.parametrize("n", [2, 5, 8, 16, 37])
def test_uniform_total_mass_is_four_cells(n):
    # h is +-1 on four disjoint 1/n-cells whenever 1/n < side length
    assert compute_cn(UniformWeight(), n) == pytest.approx(4.0 / n**2, rel=1e-13)


def test_uniform_total_mass_carries_the_squared_scale():
    assert compute_cn(UniformWeight(scale=3.0), 8) == pytest.approx(9.0 * 4.0 / 64.0, rel=1e-14)


@pytest.mark.parametrize("corners", [dict(s1=0.5, s2=0.52), dict(t1=0.3, t2=0.31),
                                     dict(s1=0.5, s2=0.52, t1=0.3, t2=0.31)],
                         ids=["narrow-s", "narrow-t", "narrow-both"])
@pytest.mark.parametrize("n", [8, 16])
def test_uniform_total_mass_of_a_window_narrower_than_a_cell(corners, n):
    # each axis contributes two signed strips of width min(1/n, side)
    spec = UniformWeight(scale=1.5, **corners)
    want = 4.0 * spec.scale**2 * min(1.0 / n, spec.s2 - spec.s1) * min(1.0 / n, spec.t2 - spec.t1)
    assert compute_cn(spec, n) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("corners", [{}, dict(s1=0.5, s2=0.52), dict(t1=0.3, t2=0.31),
                                     dict(s1=0.5, s2=0.52, t1=0.3, t2=0.31)],
                         ids=["wide", "narrow-s", "narrow-t", "narrow-both"])
@pytest.mark.parametrize("n", [2, 5, 8, 37])
def test_uniform_masses_of_rectangles_match_the_closed_form(corners, n):
    # a rectangle's rows are constant in t between the strip ends, so the
    # engine's outer integral is exact up to rounding
    spec = UniformWeight(scale=1.5, **corners)
    (s_plus, s_minus), (t_plus, t_minus) = spec.strips(n)
    rng = np.random.default_rng(n)
    bounds = [np.sort(rng.uniform(-0.1, 1.2, 2)) for _ in range(60)]
    # rectangles around a window corner, so each cut meets the strips
    near = [np.sort(rng.uniform(lo - 0.05, lo + 0.08, 2))
            for lo in (spec.s1, spec.s2, spec.t1, spec.t2) for _ in range(10)]
    rects = [(*bounds[k], *bounds[k + 1]) for k in range(0, len(bounds), 2)]
    rects += [(*near[k], *near[k + 20]) for k in range(20)]
    rects += [(*s_plus, *t_minus), (*s_minus, *t_plus), (0.0, 1.0 + 1.0 / n, 0.0, 1.0 + 1.0 / n)]
    kernels.mu_masses.cache_clear()
    got = kernels.mu_masses(spec, n, [Rect(*rect) for rect in rects])
    want = [uniform_mass(spec, n, rect) for rect in rects]
    assert max(want) > 0.0 and min(want) == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# references: outer scipy.integrate.quad over exact row/column reductions of
# h^2, breakpoints at every structural line, tolerance pushed to ~1e-11
@pytest.mark.parametrize(
    "alpha,expect,rtol",
    [
        (0.3, 0.10700295964932457, 1e-9),
        (0.6, 0.9607735122949955, 1e-9),
        (0.9, 21.845467032032865, 1e-6),
    ],
)
def test_singular_total_mass_matches_quadrature_reference(alpha, expect, rtol):
    assert compute_cn(SingularWeight(alpha=alpha), 8) == pytest.approx(expect, rel=rtol)


@pytest.mark.parametrize(
    "alpha,expect,rtol",
    [
        (0.6, 0.960781538185788, 1e-9),
        (0.75, 2.667897914873535, 1e-9),
        (0.9, 12.513092617159693, 1e-7),
    ],
)
def test_triangle_total_mass_matches_quadrature_reference(alpha, expect, rtol):
    assert compute_cn(TriangleWeight(alpha=alpha), 8) == pytest.approx(expect, rel=rtol)


@pytest.mark.parametrize(
    "spec",
    [
        SingularWeight(alpha=0.6),
        TriangleWeight(alpha=0.75),
    ],
)
def test_total_mass_scales_quadratically(spec):
    import dataclasses

    scaled = dataclasses.replace(spec, scale=2.5)
    assert compute_cn(scaled, 8) == pytest.approx(2.5**2 * compute_cn(spec, 8), rel=1e-12)


def test_mass_integrals_need_two_lattice_cells():
    with pytest.raises(ValueError):
        mu_mass(UniformWeight(), 1)


# ---------------------------------------------------------------- region masses

def test_singular_rectangle_mass_matches_quadrature_reference():
    w = SingularWeight(alpha=0.6)
    got = mu_mass(w, 16, Rect(0.0, 0.125, 0.0, 0.125))
    assert got == pytest.approx(0.5244011304285371, rel=1e-9)


def test_singular_diagonal_band_mass_matches_quadrature_reference():
    w = SingularWeight(alpha=0.6)
    got = mu_mass(w, 16, band(-0.05, 0.05))
    assert got == pytest.approx(0.3598440935416495, rel=1e-9)


@pytest.mark.parametrize("ell,below,above", [("one", 0.50439, 0.68609),
                                              ("one_minus_s", 0.48039, 0.65586)])
def test_singular_cut_just_past_the_corner_lies_between_its_neighbours(ell, below, above):
    # {s - t < 0.01} cuts the column piece (0.01, 1/n) next to the s^(1 - 2 alpha)
    # singularity at 0; grading that piece toward 1/n used to fail the
    # two-resolution check there
    w = SingularWeight(alpha=0.6, ell=SlowFunction(ell))
    low, mid, high = (mu_mass(w, 8, HalfPlane(1.0, -1.0, c)) for c in (0.0, 0.01, 0.02))
    assert low == pytest.approx(below, rel=1e-5)
    assert high == pytest.approx(above, rel=1e-5)
    assert low < mid < high


def test_triangle_apex_rectangle_mass_matches_quadrature_reference():
    w = TriangleWeight(alpha=0.75)
    got = mu_mass(w, 8, Rect(0.375, 0.625, 0.0, 0.25))
    assert got == pytest.approx(1.753258346473444, rel=1e-8)


def test_triangle_halfplane_wedge_mass_matches_quadrature_reference():
    w = TriangleWeight(alpha=0.75)
    wedge = Intersection((HalfPlane(-2.0, 1.0, -0.1), HalfPlane(2.0, 1.0, 2.1)))
    assert mu_mass(w, 8, wedge) == pytest.approx(2.6357191217522855, rel=1e-8)


@pytest.mark.parametrize(
    "spec,n",
    [
        (UniformWeight(), 8),
        (SingularWeight(alpha=0.6), 16),
        (TriangleWeight(alpha=0.75), 8),
    ],
)
def test_region_and_complement_masses_partition_the_total(spec, n):
    piece = Rect(0.1, 0.4, 0.0, 0.3)
    inside = mu_mass(spec, n, piece)
    outside = mu_mass(spec, n, Difference(Everything(), piece))
    assert inside + outside == pytest.approx(compute_cn(spec, n), rel=1e-10)


def test_band_mass_respects_transposition_symmetry():
    # the coordinate-maximum kernel is symmetric, so mirrored bands carry
    # identical mass
    w = SingularWeight(alpha=0.6)
    assert mu_mass(w, 16, band(0.1, 0.3)) == pytest.approx(
        mu_mass(w, 16, band(-0.3, -0.1)), rel=1e-10
    )


def test_neighborhood_mass_grows_with_radius():
    w = SingularWeight(alpha=0.75)
    masses = [concentration_mass(w, 32, near_region(w, eps)) for eps in (0.05, 0.1, 0.2, 0.4)]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    assert 0.0 < masses[0] < masses[-1] < 1.0


def test_concentration_mass_of_everything_is_one():
    w = TriangleWeight(alpha=0.75)
    assert concentration_mass(w, 8, Everything()) == pytest.approx(1.0, rel=1e-12)


def test_empty_region_has_zero_mass():
    w = SingularWeight(alpha=0.6)
    assert mu_mass(w, 8, Rect(0.0, 0.0, 0.0, 0.0)) == 0.0


@pytest.mark.parametrize("spec", [UniformWeight(), SingularWeight(alpha=0.6)])
def test_a_non_region_argument_is_a_type_error(spec):
    with pytest.raises(TypeError, match=r"not a region: \(0, 1, 0, 1\)"):
        mu_mass(spec, 8, (0, 1, 0, 1))


def test_unstable_quadrature_raises_with_estimate():
    # at alpha = 0.99 the graded tail past the reach misses a rel_tol of 1e-12
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=0.0)
    with pytest.raises(QuadratureError) as exc:
        mu_mass(SingularWeight(alpha=0.99), 8, None, cfg)
    assert exc.value.estimate is not None


# ---------------------------------------------------------------- singular column integrand

def _clip(secs, lo, hi):
    return [(max(a, lo), min(b, hi)) for a, b in secs if min(b, hi) > max(a, lo)]


def _sections(region, t, lo, hi):
    """The slice of ``region`` at height ``t``, clipped to (lo, hi), as float pairs."""
    a, _, b, _ = regions.row_sections_array(region, [t])  # heights outright: no offsets
    return _clip(zip(a[:, 0].tolist(), b[:, 0].tolist()), lo, hi)


def _holds(region, s, t):
    """Does ``region`` hold the point (s, t), given exactly as Fractions?"""
    return any(all(Fraction(a) * s + Fraction(b) * t < Fraction(c) for a, b, c in piece)
               for piece in region.pieces)


def _scalar_column(spec, n, region, nodes):
    """The column integrand one node at a time: the definition the batched one must match."""
    d = 1.0 / n
    xi, wi = roots_legendre(nodes)
    growth = 4.0 ** np.arange(32, dtype=float)
    flipped = regions.transpose(region)

    def col(ss, deltas, origin):
        ss = np.atleast_1d(np.asarray(ss, dtype=float))
        sigs = np.atleast_1d(deltas) if origin is not None and origin == d else ss - d
        out = np.zeros_like(ss)
        own, los, his, consts = [], [], [], []
        for i, (s, sig) in enumerate(zip(ss, sigs)):
            top = min(s, 1.0 + d)
            secs = _sections(flipped, s, 0.0, top)
            if not secs:
                continue
            fs = spec.profile(s)
            if sig <= 0.0:
                for a, b in secs:
                    out[i] += (b - a) * fs * fs
                continue
            fsig = spec.profile(sig)
            if sig < d:
                for a, b in _clip(secs, 0.0, d):
                    local = [a] + ([sig] if a < sig < b else []) + [b]
                    for lo, hi in zip(local[:-1], local[1:]):
                        if hi <= lo:
                            continue
                        if 0.5 * (lo + hi) < sig:
                            v = fs - fsig
                            out[i] += (hi - lo) * v * v
                        else:
                            own.append(i)
                            los.append(lo)
                            his.append(hi)
                            consts.append(fs)
                if top > d:
                    trail = [(a - d, sig if b >= top else b - d) for a, b in _clip(secs, d, top)]
                elif _holds(region, Fraction(d) + Fraction(sig), Fraction(d)):  # s is d + sig
                    trail = [(0.0, sig)]
                else:
                    trail = []
                for lo_off, hi_off in trail:
                    w = hi_off - lo_off
                    if w > 0.0:
                        tq = d + (lo_off + 0.5 * w * (1.0 + xi))
                        vals = (fsig - spec.profile(tq)) ** 2
                        out[i] += 0.5 * w * float(vals @ wi)
                continue
            cuts = sorted({d, sig, 1.0})
            for a, b in secs:
                local = [a] + [x for x in cuts if a < x < b] + [b]
                for lo, hi in zip(local[:-1], local[1:]):
                    if hi <= lo:
                        continue
                    m = 0.5 * (lo + hi)
                    if m < d:
                        v = fs - fsig
                        out[i] += (hi - lo) * v * v
                    elif m < sig:
                        pass
                    elif m >= 1.0:
                        out[i] += (hi - lo) * fsig * fsig
                    else:
                        own.append(i)
                        los.append(lo)
                        his.append(hi)
                        consts.append(fsig)
        if own:
            lo, hi, amp = np.asarray(los), np.asarray(his), np.asarray(consts)
            edges = np.minimum(lo[:, None] * growth, hi[:, None])
            edges = np.concatenate([edges, hi[:, None]], axis=1)
            a, b = edges[:, :-1], edges[:, 1:]
            x = 0.5 * (a + b)[:, :, None] + 0.5 * (b - a)[:, :, None] * xi
            hv = (amp[:, None, None] - spec.profile(x.ravel()).reshape(x.shape)) ** 2
            contrib = np.sum(0.5 * (b - a)[:, :, None] * wi * hv, axis=(1, 2))
            np.add.at(out, np.asarray(own), contrib)
        return out

    return col


def _column_nodes(n, rng):
    """Outer nodes in both call forms: plain (s, None, None) and graded toward 1/n."""
    d = 1.0 / n
    plain = np.concatenate([
        rng.uniform(0.0, 1.0 + d, 40),
        d * rng.uniform(0.0, 3.0, 20),
        1.0 + d * rng.uniform(-1.0, 1.0, 10),
        [0.5 * d, d, 2.0 * d, 1.0, 1.0 + 0.5 * d],
    ])
    # offsets from 1/n on both sides, down to where d + delta rounds back to d
    mags = d * 2.0 ** -rng.uniform(0.0, 60.0, 40)
    deltas = np.concatenate([mags, -mags[:10], [d * 2.0**-54, d * 2.0**-60]])
    assert np.any(d + deltas == d)
    return plain, deltas


@pytest.mark.parametrize("ell", ["one", "one_minus_s", "smooth_cutoff", "cos_quarter"])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.75, 0.9])
def test_batched_column_matches_the_scalar_definition(alpha, ell):
    spec = SingularWeight(alpha=alpha, ell=SlowFunction(ell))
    rng = np.random.default_rng(int(alpha * 100))
    for n in (8, 32, 256):
        d = 1.0 / n
        plain, deltas = _column_nodes(n, rng)
        parts = {**spec.catalog(n, thinning_count(n, 0.4) / n), "everything": Everything()}
        # the column integrand reads the transposed regions, whose rows are the columns
        batched = spec._column(n, [regions.transpose(r) for r in parts.values()], 14)
        for args in ((plain, None, None), (d + deltas, deltas, d)):
            size, alone = args[0].size, []
            for j, (name, region) in enumerate(parts.items()):
                alone.append(batched(*args, np.full(size, j)))
                np.testing.assert_allclose(alone[-1], _scalar_column(spec, n, region, 14)(*args),
                                           rtol=1e-13, atol=0.0, err_msg=f"{name} at n={n}")
            # every region's nodes in one call: each node reads its own, bit for bit
            job = np.arange(size) % len(parts)
            np.testing.assert_array_equal(batched(*args, job), np.choose(job, alone))


def test_column_evaluates_no_zero_width_panels(monkeypatch):
    # each varying piece integrates only its own nonzero quarter-ratio panels:
    # 92,332 points here (163,522 on doubling panels)
    points, original = [], kernels._ProfileWeight.profile

    def counted(self, r):
        points.append(np.size(r))
        return original(self, r)

    monkeypatch.setattr(kernels._ProfileWeight, "profile", counted)
    spec = SingularWeight(alpha=0.75, ell=SlowFunction("one"))
    spec.masses(32, [Everything()], QuadratureConfig())
    assert sum(points) <= 100_000


def _counting_gauss_sums(monkeypatch):
    """One entry per Gauss-sum pass: the number of nodes it sends to the integrand."""
    calls, original = [], quadrature._gauss_sums

    def counted(f, lo, hi, job, nodes, origin=None):
        calls.append(lo.size * nodes)
        return original(f, lo, hi, job, nodes, origin)

    monkeypatch.setattr(quadrature, "_gauss_sums", counted)
    kernels.mu_masses.cache_clear()
    return calls


@pytest.mark.parametrize("n", [8, 32, 256])
@pytest.mark.parametrize("ell", ["one", "one_minus_s"])
@pytest.mark.parametrize("alpha", [0.3, 0.75, 0.9])
def test_a_singular_cn_takes_at_most_six_integrand_calls(monkeypatch, alpha, ell, n):
    # per resolution a scale pass, a graded pass and one bisection level: the
    # geometric outer edges 2/n, 4/n, ... leave no smooth piece to bisect again
    calls = _counting_gauss_sums(monkeypatch)
    compute_cn(SingularWeight(alpha=alpha, ell=SlowFunction(ell)), n)
    assert len(calls) <= 6


def test_the_asymptotics_region_batch_takes_six_integrand_calls(monkeypatch):
    spec = SingularWeight(alpha=0.75, ell=SlowFunction("one"))
    catalog = asymptotics.region_catalog(spec, 32, 0.4)
    calls = _counting_gauss_sums(monkeypatch)
    asymptotics.region_measures(spec, 32, catalog)
    assert len(calls) == 6


def _stencil_cn(spec, n):
    """c_n as the 3x3 second-difference stencil of G2 at the lattice offsets
    around 0, integrated on the autocorrelation path at the covariance config."""
    i, j = np.meshgrid(np.arange(-1, 2), np.arange(-1, 2), indexing="ij")
    g2 = spec.lattice_autocorrelation(n, _G2_QUAD, np.stack([i.ravel(), j.ravel()], axis=1))
    stencil = np.array([-1.0, 2.0, -1.0])
    return float(stencil @ g2.reshape(3, 3) @ stencil)


@pytest.mark.parametrize("n", [8, 32, 128])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.75, 0.9])
def test_singular_cn_matches_the_autocorrelation_stencil(alpha, n):
    spec = SingularWeight(alpha=alpha)
    cn = compute_cn(spec, n)
    assert cn == pytest.approx(_stencil_cn(spec, n), rel=2e-12, abs=0.0)
    # the lower half T carries half of it by the swap symmetry
    lower = mu_mass(spec, n, spec.catalog(n, 0.5)["T"])
    assert lower == pytest.approx(0.5 * cn, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [8, 16])
def test_a_tight_cn_next_to_the_integrability_edge_converges(n):
    # next to alpha = 1 at rel_tol 1e-12 both resolutions must still agree
    spec = SingularWeight(alpha=0.95, ell=SlowFunction("one"))
    cn = compute_cn(spec, n, QuadratureConfig(rel_tol=1e-12))
    assert cn == pytest.approx(_stencil_cn(spec, n), rel=1e-13, abs=0.0)


# ---------------------------------------------------------------- cone row integrand

def _exact_sections(region, t, top):
    """The slice of ``region`` at the exact height ``t``, clipped to (0, top),
    as merged Fraction pairs: no end is rounded, however narrow the slice."""
    spans = []
    for piece in region.pieces:
        lo, hi = Fraction(0), Fraction(top)
        for a, b, c in piece:
            rhs = Fraction(c) - Fraction(b) * t
            if a == 0.0:
                if rhs <= 0:
                    hi = lo  # the row lies outside a horizontal half-plane
            elif a > 0.0:
                hi = min(hi, rhs / Fraction(a))
            else:
                lo = max(lo, rhs / Fraction(a))
        if hi > lo:
            spans.append((lo, hi))
    merged = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _scalar_rows(spec, n, region):
    """The cone row integrand one node at a time, in exact arithmetic: the
    definition the array one must match.

    In y = 2s - 1 the row of h_n is f(t) (1{|y| < t} - 1{|y - 2d| < t})
    minus f(t - d) times the same pair at t - d; every cross-section end,
    region section end, piece length and midpoint is a Fraction.  A graded
    node's height is its origin plus its offset, summed exactly, and its
    region sections are exact.  A plain height t has no exact offset, so its
    ends are the floats the array form computes, each then taken exactly:
    the cross-section ends k d -+ (t - d), each rounded once, and the region
    section ends 2 s - 1 at the rounded height.  Only the profile values are
    floats, read at the heights the array form reads them.
    """
    d = 1.0 / n
    top = Fraction(1.0 + d)

    def rows(ts, deltas, origin):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros_like(ts)
        for i, t in enumerate(ts.tolist()):
            at = None if origin is None else float(origin[i])
            if not 0 < (Fraction(t) if at is None else Fraction(at) + Fraction(deltas[i])) < top:
                continue
            tau = float(deltas[i]) if at == d else t - d
            ft, ftau = spec.profile(t), spec.profile(tau) if tau > 0.0 else 0.0
            if ft == 0.0 and ftau == 0.0:
                continue
            # I(t) and I(t - d), each centred at 0 and at 2d
            if at is None:
                u = t - d
                spans = [(-d - u, d + u), (d - u, 3 * d + u), (-u, u), (2 * d - u, 2 * d + u)]
                spans = [(Fraction(lo), Fraction(hi)) for lo, hi in spans]
                sections = [(Fraction(2.0 * a - 1.0), Fraction(2.0 * b - 1.0))
                            for a, b in _sections(region, t, 0.0, 1.0 + d)]
            else:
                h = Fraction(at) + Fraction(deltas[i])
                spans = [(c - w, c + w) for w in (h, h - Fraction(d)) for c in (0, 2 * Fraction(d))]
                sections = [(2 * a - 1, 2 * b - 1) for a, b in _exact_sections(region, h, top)]
            spans = [span if span[0] < span[1] else None for span in spans]
            ends = {e for span in spans if span for e in span}
            acc = 0.0
            for ya, yb in sections:
                cuts = sorted({ya, yb, *(e for e in ends if ya < e < yb)})
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    m = (lo + hi) / 2
                    inside = [float(span is not None and span[0] < m < span[1]) for span in spans]
                    v = ft * (inside[0] - inside[1]) - ftau * (inside[2] - inside[3])
                    acc += float(hi - lo) * v * v
            out[i] = 0.5 * acc  # ds = dy / 2
        return out

    return rows


def _row_nodes(n, rng):
    """Outer nodes in all three call forms: plain, graded toward 0 and toward 1/n."""
    d = 1.0 / n
    plain = np.concatenate([
        rng.uniform(0.0, 1.0 + d, 40),
        d * rng.uniform(0.0, 4.0, 30),
        1.0 + d * rng.uniform(-1.0, 1.0, 10),
        d * np.array([0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
    ])
    low = 0.5 * d * 2.0 ** -rng.uniform(0.0, 60.0, 30)
    # offsets above 1/n, down to where d + delta rounds back to d
    high = 0.5 * d * 2.0 ** -rng.uniform(0.0, 60.0, 30)
    high = np.concatenate([high, [d * 2.0**-54, d * 2.0**-60]])
    assert np.any(d + high == d)
    return plain, low, high


@pytest.mark.parametrize("ell", ["one", "one_minus_s"])
@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
def test_array_cone_rows_match_the_scalar_definition(alpha, ell):
    spec = TriangleWeight(alpha=alpha, ell=SlowFunction(ell))
    rng = np.random.default_rng(int(alpha * 100))
    for n in (8, 64):
        d = 1.0 / n
        plain, low, high = _row_nodes(n, rng)
        cuts = {"edge-cut": HalfPlane(2.0, -1.0, 1.0 + 0.5 * d),
                "across": HalfPlane(1.0, -0.5, 0.55),
                "steep": HalfPlane(-2.0, 3.0, 0.1 - d),
                "wedge": Intersection((HalfPlane(1.0, -1.0, 0.45), HalfPlane(-1.0, -0.7, -0.4)))}
        catalog = spec.catalog(n, thinning_count(n, 0.15) / n)
        parts = {**catalog, **cuts, "everything": Everything()}
        array, nonzero = spec._rows(n, list(parts.values())), dict.fromkeys(parts, 0)
        for ts, deltas, origin in ((plain, None, None),
                                   (low, low, np.zeros(low.size)),
                                   (d + high, high, np.full(high.size, d))):
            alone = []
            for j, (name, region) in enumerate(parts.items()):
                want = _scalar_rows(spec, n, region)(ts, deltas, origin)
                alone.append(array(ts, deltas, origin, np.full(ts.size, j)))
                np.testing.assert_allclose(alone[-1], want,
                                           rtol=1e-13, atol=0.0, err_msg=f"{name} at n={n}")
                nonzero[name] += np.count_nonzero(want)
            # every region's nodes in one call: each node reads its own, bit for bit
            job = np.arange(ts.size) % len(parts)
            np.testing.assert_array_equal(array(ts, deltas, origin, job), np.choose(job, alone))
        assert min(nonzero.values()) >= 5, f"{nonzero} at n={n}"


def test_cone_rows_keep_the_region_section_at_the_apex():
    # the cone is 1.68e-17 wide here, far below the rounding of its edges 1/2 -+ t/2;
    # in the core Etilde the row of h_n^2 is t f(t)^2 = t^(1 - 2 alpha)
    spec, n, t = TriangleWeight(alpha=0.75, ell=SlowFunction("one")), 64, 1.68e-17
    etilde = spec.catalog(n, thinning_count(n, 0.15) / n)["Etilde"]
    row = spec._rows(n, [etilde])(np.array([t]), np.array([t]), np.zeros(1), np.zeros(1, int))
    assert row[0] == pytest.approx(t ** -0.5, rel=1e-14)
    assert _scalar_rows(spec, n, etilde)(np.array([t]), np.array([t]), np.zeros(1))[0] == \
        pytest.approx(t ** -0.5, rel=1e-14)


def test_transpose_invariant_regions_integrate_one_half(monkeypatch):
    spec, n = SingularWeight(alpha=0.75), 32
    catalog = spec.catalog(n, thinning_count(n, 0.4) / n)
    invariant = {name: catalog[name] for name in ("E", "B1", "B2", "B3", "B4")}
    invariant["everything"] = Everything()
    # these upper halves lie in {s < t}: one job each, the lower half
    lower_only = {"Etilde": catalog["Etilde"], "band": band(0.1, 0.3)}
    other = {"crossing band": band(-0.1, 0.3), "half-plane": HalfPlane(1.0, -2.0, 0.3)}
    batches, original, quad = [], kernels.integrate_pieces, QuadratureConfig()

    def counted(f, jobs, quadcfg, labels=None, f_check=None):
        batches.append(labels)
        return original(f, jobs, quadcfg, labels, f_check)

    monkeypatch.setattr(kernels, "integrate_pieces", counted)
    lower = "lower half {t < s}: singular mass at n=32"
    upper = "upper half {t > s}: singular mass at n=32"
    for name, region in {**invariant, **lower_only, **other}.items():
        batches.clear()
        value = spec.masses(n, [region], quad)[0]
        assert batches == [[lower] if name not in other else [lower, upper]], name
        if name in invariant:
            both = [("lower", region), ("upper", regions.transpose(region))]
            halves = spec._lower_masses(n, both, quad)
            assert value == halves[0] + halves[1], name
    # all of them in one engine call: a job per half, region by region
    batches.clear()
    spec.masses(n, [*invariant.values(), *lower_only.values(), *other.values()], quad)
    assert batches == [[lower] * (len(invariant) + len(lower_only)) + [lower, upper] * len(other)]


def test_a_half_in_the_other_triangle_makes_no_job(monkeypatch):
    spec, n, quad = SingularWeight(alpha=0.6), 16, QuadratureConfig()
    etilde = spec.catalog(n, 0.5)["Etilde"]  # inside {t < s}
    batches, original = [], kernels.integrate_pieces

    def counted(f, jobs, quadcfg, labels=None, f_check=None):
        batches.append(labels)
        return original(f, jobs, quadcfg, labels, f_check)

    monkeypatch.setattr(kernels, "integrate_pieces", counted)
    lower = "lower half {t < s}: singular mass at n=16"
    upper = "upper half {t > s}: singular mass at n=16"
    flipped = regions.transpose(etilde)  # inside {s < t}
    nowhere = Intersection((HalfPlane(1.0, -1.0, 0.0), HalfPlane(-1.0, 1.0, 0.0)))
    cases = [(etilde, [lower]), (flipped, [upper]), (nowhere, []),
             # bands across the diagonal, or along it, keep both halves
             (band(-0.1, 0.2), [lower, upper]), (band(-1e-300, 0.2), [lower, upper])]
    values = []
    for region, labels in cases:
        batches.clear()
        values.append(spec.masses(n, [region], quad)[0])
        assert batches == [labels], region
    lone = spec._lower_masses(n, [("lower", etilde)], quad)[0]
    assert values[0] == values[1] == lone > 0.0
    assert values[2] == 0.0
    # one batch: the same masses, from the nonempty halves' jobs alone
    batches.clear()
    parts = [region for region, _ in cases]
    np.testing.assert_array_equal(spec.masses(n, parts, quad), values)
    assert batches == [[label for _, labels in cases for label in labels]]


def test_a_failing_half_names_its_region_past_the_empty_halves():
    spec, tight = SingularWeight(alpha=0.99), QuadratureConfig(rel_tol=1e-12, abs_tol=0.0)
    etilde = spec.catalog(8, 0.5)["Etilde"]
    cut = HalfPlane(1.0, -2.0, 0.3)
    with pytest.raises(QuadratureError) as alone:
        spec.masses(8, [cut], tight)
    # two jobs, then one, then the failing region's: its lower half is job 3
    parts = [Rect(0.5, 0.9, 0.1, 0.4), regions.transpose(etilde), cut]
    with pytest.raises(QuadratureError) as batched:
        spec.masses(8, parts, tight)
    assert str(batched.value) == str(alone.value) and batched.value.job == 2


_BATCH_CUTS = {"band": band(0.1, 0.3), "half-plane": HalfPlane(1.0, -2.0, 0.3)}


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("spec, kappa", [
    (SingularWeight(alpha=0.3, ell=SlowFunction("one")), 0.25),
    (SingularWeight(alpha=0.3, ell=SlowFunction("one_minus_s")), 0.25),
    (SingularWeight(alpha=0.75, ell=SlowFunction("one")), 0.4),
    (SingularWeight(alpha=0.75, ell=SlowFunction("one_minus_s")), 0.4),
    (TriangleWeight(alpha=0.75), 0.15),
    (UniformWeight(), None),
], ids=["singular-0.3-one", "singular-0.3-one_minus_s", "singular-0.75-one",
        "singular-0.75-one_minus_s", "cone-0.75", "uniform"])
def test_batched_masses_equal_one_region_masses_bit_for_bit(spec, kappa, n):
    # the catalog's Etilde and T, and the cuts, are not transpose-invariant
    cells = (spec.corner_cells(n) if kappa is None
             else spec.catalog(n, thinning_count(n, kappa) / n))
    parts = list({**cells, **_BATCH_CUTS, "everything": Everything()}.values())
    quad = QuadratureConfig()
    alone = [spec.masses(n, [region], quad)[0] for region in parts]
    np.testing.assert_array_equal(spec.masses(n, parts, quad), alone)
    kernels.mu_masses.cache_clear()
    np.testing.assert_array_equal(kernels.mu_masses(spec, n, parts + parts[:2]),
                                  alone + alone[:2])


def test_a_region_in_a_batch_is_integrated_once_and_then_cached(monkeypatch):
    spec, n = TriangleWeight(alpha=0.75), 16
    window = spec.window(0.5)
    batches, original = [], TriangleWeight.masses

    def counted(self, n, parts, quadcfg):
        batches.append(list(parts))
        return original(self, n, parts, quadcfg)

    monkeypatch.setattr(TriangleWeight, "masses", counted)
    kernels.mu_masses.cache_clear()
    both = kernels.mu_masses(spec, n, [window, None, window])
    assert batches == [[window, Everything()]]
    assert both[0] == both[2] == mu_mass(spec, n, window)
    assert concentration_mass(spec, n, window) == both[0] / both[1]
    assert compute_cn(spec, n) == both[1] and len(batches) == 1


# ---------------------------------------------------------------- support clip

def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _cells(n):
    """The (n + 1)^2 cells of side 1/n that tile the support [0, 1 + 1/n]^2."""
    d = 1.0 / n
    return [Rect(i * d, (i + 1) * d, j * d, (j + 1) * d) for i in range(n + 1) for j in range(n + 1)]


_CLIP_SPECS = [
    *((SingularWeight(alpha=a, ell=SlowFunction(ell)), 0.3)
      for a in (0.3, 0.6, 0.75, 0.9) for ell in ("one", "one_minus_s")),
    (TriangleWeight(alpha=0.75), 0.1),
    (UniformWeight(s1=0.2, s2=0.7, t1=0.1, t2=0.9, scale=1.5), None),
]


def _mass_outcome(spec, n, parts):
    """The batch's masses as int64 bits or, if it fails, its error's message,
    estimate bits and job."""
    try:
        return _bits(spec.masses(n, parts, QuadratureConfig())).tolist()
    except QuadratureError as exc:
        return str(exc), int(_bits(exc.estimate)), exc.job


@pytest.mark.parametrize("n", [5, 8, 16])
@pytest.mark.parametrize("spec, kappa", _CLIP_SPECS, ids=[
    *(f"singular-{a}-{ell}" for a in (0.3, 0.6, 0.75, 0.9) for ell in ("one", "one_minus_s")),
    "cone-0.75", "uniform"])
def test_masses_on_clipped_jobs_have_the_full_range_bits(monkeypatch, spec, kappa, n):
    # each job keeps only the panels where its region's rows can be nonzero;
    # the cone's table at n = 5 fails, at the same cell, on either layout
    catalog = (spec.corner_cells(n) if kappa is None
               else asymptotics.region_catalog(spec, n, kappa))
    parts = _cells(n) + list(catalog.values()) + [Everything()]
    clipped = _mass_outcome(spec, n, parts)
    full_range(monkeypatch)
    assert clipped == _mass_outcome(spec, n, parts)


def test_the_singular_table_at_n_32_has_the_full_range_bits(monkeypatch):
    # the 33 x 33 cell table and the asym-singular-regions catalog, where most
    # panels lie inside the column's zero sets; 930 of the cells' masses are 0
    parts = _cells(32) + list(asymptotics.region_catalog(_ONE, 32, 0.4).values())
    clipped = _mass_outcome(_ONE, 32, parts)
    assert sum(bits == 0 for bits in clipped[:33 * 33]) == 930
    full_range(monkeypatch)
    assert clipped == _mass_outcome(_ONE, 32, parts)


@pytest.mark.parametrize("spec", [UniformWeight(), SingularWeight(alpha=0.6), TriangleWeight(alpha=0.75)],
                         ids=["uniform", "singular", "cone"])
def test_a_batch_of_empty_jobs_gives_float_zeros(spec):
    # regions off the support keep no panel at all; the engine's sum over
    # no pieces still comes back as float64 +0.0, and a mixed batch keeps the
    # bits of its region with mass
    off = [Rect(3.0, 4.0, 3.0, 4.0), Rect(2.0, 3.0, -3.0, -2.0)]
    kernels.mu_masses.cache_clear()
    zeros = kernels.mu_masses(spec, 8, off)
    assert zeros.dtype == np.float64 and _bits(zeros).tolist() == [0, 0]
    kernels.mu_masses.cache_clear()
    assert isinstance(mu_mass(spec, 8, off[0]), np.float64)
    window = Rect(0.1, 0.6, 0.2, 0.7)
    alone = mu_mass(spec, 8, window)
    kernels.mu_masses.cache_clear()
    assert _bits(kernels.mu_masses(spec, 8, [off[0], window, off[1]])).tolist() == [0, int(_bits(alone)), 0]


def test_the_clip_drops_a_sliver_whose_nodes_round_into_the_cell(monkeypatch):
    # the cone cell (1, 1.2) x (0.8, 1) at n = 5: its side s = 1.2 + 2e-16
    # meets the cone edge 2s - t = 1.4 at t = 1 + 4e-16, so the full range
    # has a piece (1, 1 + 4e-16) above the cell, where its rows are empty;
    # but the midpoint of its bisected left half rounds to 1, so that
    # half's left Gauss nodes round to 1 - 1.1e-16, inside the cell, and
    # add 3e-19: the one mass the clip was seen to move
    spec, n, d = TriangleWeight(alpha=0.75), 5, 0.2
    cell, quad = Rect(5 * d, 6 * d, 4 * d, 5 * d), QuadratureConfig()
    clipped = spec.masses(n, [cell], quad)[0]
    (kept,), = kernels._outer_jobs(n, [1.0, 1.0 + d], [cell], [(2.0, -1.0, 1.0 + 2.0 * d)])
    rows = spec._rows(n, [cell])
    assert clipped == quadrature.integrate_pieces(rows, [[kept]], quad)[0]
    sliver = quadrature.integrate_pieces(rows, [[(1.0, 1.0000000000000004, "smooth")]], quad)[0]
    assert 0.0 < sliver < 1e-18
    full_range(monkeypatch)
    assert spec.masses(n, [cell], quad)[0] == clipped + sliver != clipped


@pytest.mark.parametrize("n, k", [(16, 2), (40, 10), (37, 5)])
@pytest.mark.parametrize("ell", ["one", "one_minus_s"])
@pytest.mark.parametrize("alpha", [0.3, 0.75])
def test_gamma_on_clipped_wedges_has_the_full_range_bits(monkeypatch, alpha, ell, n, k):
    spec = SingularWeight(alpha=alpha, ell=SlowFunction(ell))
    clipped = simulate._stationary_gamma(spec, n, k, n // k, _G2_QUAD)
    full_range(monkeypatch)
    kernels.mu_masses.cache_clear()
    assert np.array_equal(_bits(clipped), _bits(simulate._stationary_gamma(spec, n, k, n // k, _G2_QUAD)))


def _engine_jobs(run, full):
    """Every job of the engine calls ``run`` makes, each call answered with
    zeros: (label, how many jobs before it have that label) -> (integrand,
    check integrand, config, job index, pieces).  ``full`` lays out the
    full-range jobs."""
    jobs = {}

    def record(f, pieces, quadcfg, labels, f_check=None):
        for k, (label, job) in enumerate(zip(labels, pieces)):
            seen = sum(key[0] == label for key in jobs)
            jobs[label, seen] = f, f_check or f, quadcfg, k, job
        return np.zeros(len(pieces))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "integrate_pieces", record)
        if full:
            full_range(patch)
        run()
    return jobs


def _assert_the_clip_drops_only_zeros(run):
    """Each kept piece is a piece of the full-range job, and each dropped
    piece's integrand is exactly 0.0 at every node of both resolutions."""
    kept, full = _engine_jobs(run, False), _engine_jobs(run, True)
    assert set(kept) <= set(full)
    calls = {}  # the full run's integrands -> its jobs less their kept pieces
    for key, (f, f_check, quadcfg, k, pieces) in full.items():
        keep = kept[key][4] if key in kept else []
        assert all(piece in pieces for piece in keep)
        calls.setdefault((f, f_check, quadcfg), {})[k] = [p for p in pieces if p not in keep]
    for (f, f_check, quadcfg), dropped in calls.items():
        values = []

        def spy(g):
            def spied(*args):
                values.append(g(*args))
                return values[-1]
            return spied

        jobs = [dropped.get(k, []) for k in range(max(dropped) + 1)]
        assert not quadrature.integrate_pieces(spy(f), jobs, quadcfg, f_check=spy(f_check)).any()
        assert not any(v.any() for v in values)


@settings(max_examples=50)
@given(shapes, st.integers(2, 12))
@pytest.mark.parametrize("spec", [UniformWeight(s1=0.2, s2=0.7, t1=0.1, t2=0.9),
                                  SingularWeight(alpha=0.6), TriangleWeight(alpha=0.75)],
                         ids=["uniform", "singular", "cone"])
def test_the_mass_clip_drops_only_pieces_of_zeros(spec, region, n):
    _assert_the_clip_drops_only_zeros(
        lambda: spec.masses(n, [region, regions.transpose(region)], QuadratureConfig()))


@st.composite
def _lattice_offsets(draw):
    n = draw(st.integers(2, 40))
    lag = st.integers(-(n + 1), n + 1)
    return n, draw(st.lists(st.tuples(lag, lag), min_size=1, max_size=4))


@settings(max_examples=30)
@given(_lattice_offsets())
@pytest.mark.parametrize("ell", ["one", "one_minus_s"])
@pytest.mark.parametrize("alpha", [0.3, 0.9])
def test_the_wedge_clip_drops_only_pieces_of_zeros(alpha, ell, offsets):
    spec, (n, lags) = SingularWeight(alpha=alpha, ell=SlowFunction(ell)), offsets
    i, j = np.array(lags, dtype=float).T
    _assert_the_clip_drops_only_zeros(lambda: spec.autocorrelation(i / n, j / n, _G2_QUAD))


_ONE = SingularWeight(alpha=0.75, ell=SlowFunction("one"))  # the benchmark configs' weight


def _clt_gamma(nodes):
    # the clt-singular-cov config: n = 40, k = ceil(40^0.6) = 10, m = 4
    compute_cn(_ONE, 40)  # c_n comes from its own layout, not Gamma's
    nodes.clear()
    simulate._stationary_gamma(_ONE, 40, 10, 4, _G2_QUAD)


def _asym_batch(nodes):
    # the asym-singular-regions config: n = 32, kappa = 0.4
    asymptotics.region_measures(_ONE, 32, asymptotics.region_catalog(_ONE, 32, 0.4))


@pytest.mark.parametrize("work, least, most", [
    (_clt_gamma, 0, 250_000),  # 387,604 on the full-range layouts
    (_asym_batch, 0, 6_100),  # 13,992; 10,866 before the column's zero sets
    (lambda nodes: kernels.mu_masses(_ONE, 32, _cells(32)), 0, 21_000),  # 4,509,180; 309,660
    (lambda nodes: compute_cn(UniformWeight(), 32), 0, 240),  # 600
    (lambda nodes: compute_cn(_ONE, 256), 2_004, 2_004),  # the singular c_n layout is unclipped
], ids=["clt-gamma", "asym-batch", "singular-cell-table-33", "uniform-cn-32", "singular-cn-256"])
def test_the_clipped_layouts_send_at_most_their_pinned_node_counts(monkeypatch, work, least, most):
    nodes = _counting_gauss_sums(monkeypatch)
    work(nodes)
    assert least <= sum(nodes) <= most


# ---------------------------------------------------------------- concentration geometry

def test_concentration_points_per_variant():
    assert SingularWeight(alpha=0.3).concentration_point == (0.0, 0.0)
    assert TriangleWeight(alpha=0.75).concentration_point == (0.5, 0.0)
    assert UniformWeight().concentration_point is None


def test_near_region_shapes():
    sq = near_region(SingularWeight(alpha=0.3), 0.2)
    assert sq == Rect(0.0, 0.2, 0.0, 0.2)
    tri = near_region(TriangleWeight(alpha=0.75), 0.2)
    assert tri == Rect(0.4, 0.6, 0.0, 0.1)
    with pytest.raises(ValueError):
        near_region(UniformWeight(), 0.2)
    with pytest.raises(ValueError):
        near_region(SingularWeight(alpha=0.3), 0.0)


# ---------------------------------------------------------------- thinning

def test_thinning_count_examples():
    assert thinning_count(600, 0.4) == 47  # ceil(600^0.6)
    assert thinning_count(64, 0.4) == 13
    assert thinning_count(64, 0.5) == 8  # exact power hits the integer


@pytest.mark.parametrize("kappa", [0.0, 1.0, -0.2, 1.4])
def test_thinning_count_rejects_bad_exponent(kappa):
    with pytest.raises(ValueError):
        thinning_count(64, kappa)


def test_thinning_count_rejects_bad_resolution():
    with pytest.raises(ValueError):
        thinning_count(0, 0.4)


# ---------------------------------------------------------------- config keys

def _weight(entries):
    return cli._build("weight", kernels.VARIANTS, entries)[0]


def test_weight_config_rejects_incomplete_mappings():
    with pytest.raises(ValueError, match="missing key weight.variant"):
        _weight({})
    with pytest.raises(ValueError, match="unknown weight variant 'banana'"):
        _weight({"weight.variant": "banana"})
    with pytest.raises(ValueError, match="missing key weight.alpha for the singular variant"):
        _weight({"weight.variant": "singular"})


# The exponents each variant needs to build; every other key has a default.
_VARIANT_KEYS = {"singular": {"weight.alpha": "0.6"}, "triangle": {"weight.alpha": "0.75"}}


@pytest.mark.parametrize("variant", sorted(kernels.VARIANTS))
def test_every_variant_has_closed_form_atoms_and_a_thinning_range(variant):
    # lln, clt and asymptotics call limit_atoms and kappa_range unguarded
    spec = _weight({"weight.variant": variant, **_VARIANT_KEYS.get(variant, {})})
    atoms = spec.limit_atoms()
    assert atoms
    for weight, point in atoms:
        assert math.isfinite(weight) and weight > 0.0
        assert len(point) == 2 and all(math.isfinite(x) for x in point)
    assert sum(weight for weight, _ in atoms) == pytest.approx(1.0, abs=1e-12)
    if spec.concentration_point is not None:  # clt_experiment's single atom
        assert atoms == ((1.0, spec.concentration_point),)
    assert isinstance(spec.kappa_range(), KappaRange)
