"""Property tests of the region algebra and of mass additivity over it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambitlab import regions
from ambitlab.kernels import SingularWeight, UniformWeight, mu_mass
from ambitlab.regions import Everything, HalfPlane, Intersection, Rect, Union, band
from oracles import Difference, contains

coords = st.floats(-0.25, 1.25)
widths = st.floats(0.0, 1.0)
normals = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0])

rects = st.builds(lambda x0, w, y0, h: Rect(x0, x0 + w, y0, y0 + h), coords, widths, coords, widths)
bands = st.builds(lambda lo, w: band(lo, lo + w), st.floats(-1.0, 1.0), widths)


@st.composite
def half_plane(draw):
    a, b = draw(normals), draw(normals)
    if a == 0.0 and b == 0.0:
        a = 1.0
    return HalfPlane(a, b, draw(st.floats(-1.0, 2.0)))


leaves = st.one_of(rects, half_plane(), bands, st.just(Everything()))
parts = st.lists(leaves, min_size=1, max_size=3).map(tuple)
# the right side of a difference is a leaf or one union/intersection of leaves:
# the difference has a piece per choice of one complemented half-plane from
# each piece on the right, so a nested difference there multiplies sizes
subtrahends = st.one_of(leaves, parts.map(Union), parts.map(Intersection))


def _extend(children):
    groups = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        groups.map(Union),
        groups.map(Intersection),
        st.builds(Difference, children, subtrahends),
    )


# up to four leaves, so nested at most three deep
shapes = st.recursive(leaves, _extend, max_leaves=4)
seeds = st.integers(0, 2**32 - 1)


def _points(seed, count=200):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 1.5, count), rng.uniform(-0.5, 1.5, count)


def _off_boundary(region, s, t, margin=1e-9):
    """Points farther than ``margin`` from every line bounding the region."""
    keep = np.ones(np.shape(s), dtype=bool)
    for a, b, c in regions.boundary_lines(region):
        keep &= np.abs(a * s + b * t - c) > margin * np.hypot(a, b)
    return keep


def _inner_point(lo, hi):
    if np.isfinite(lo) and np.isfinite(hi):
        return 0.5 * (lo + hi)
    if np.isfinite(hi):
        return hi - 1.0
    return lo + 1.0 if np.isfinite(lo) else 0.0


@given(shapes, seeds)
def test_row_sections_agree_with_membership(region, seed):
    s, ts = _points(seed, 50)
    for t in ts[:10]:
        left, _, right, _ = regions.row_sections_array(region, [t])
        secs = [(a, b) for a, b in zip(left[:, 0].tolist(), right[:, 0].tolist()) if b > a]
        for (lo, hi), (nxt, _) in zip(secs, secs[1:]):
            assert lo < hi < nxt
        for lo, hi in secs:
            assert lo < hi
            if hi - lo > 1e-9:
                assert contains(region, _inner_point(lo, hi), t)
        gap = np.full(s.shape, np.inf)
        for lo, hi in secs:
            gap = np.minimum(gap, np.maximum(lo - s, s - hi))
        outside = gap > 1e-9
        assert not np.any(contains(region, s[outside], t))


def _scalar_row_sections(region, t):
    """One row, one piece at a time: the definition the array form must match."""
    out = []
    for piece in region.pieces:
        lo, hi = -np.inf, np.inf
        for a, b, c in piece:
            rhs = c - b * t
            if a > 0.0:
                hi = min(hi, rhs / a)
            elif a < 0.0:
                lo = max(lo, rhs / a)
            elif rhs <= 0.0:
                break
        else:
            if hi > lo:
                out.append((lo, hi))
    merged = []
    for a, b in sorted(out):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


@given(shapes, seeds)
def test_array_row_sections_equal_the_scalar_definition(region, seed):
    rng = np.random.default_rng(seed)
    ts = np.concatenate([rng.uniform(-0.5, 1.5, 40), rng.choice(np.linspace(-0.25, 1.25, 7), 8)])
    lo, lo_off, hi, hi_off = regions.row_sections_array(region, ts)
    assert lo.shape == lo_off.shape == hi.shape == hi_off.shape == (len(region.pieces), ts.size)
    assert not np.any(lo_off) and not np.any(hi_off)  # heights given outright
    for i, t in enumerate(ts):
        want = _scalar_row_sections(region, t)
        assert [(a, b) for a, b in zip(lo[:, i], hi[:, i]) if b > a] == want


@given(shapes, seeds)
def test_offset_row_sections_agree_with_membership(region, seed):
    # heights t0 + u summed exactly, so membership can be asked at the sum
    rng = np.random.default_rng(seed)
    t0, u = rng.integers(-4, 12, 10) / 8.0, rng.integers(0, 1024, 10) / 8192.0
    lo, lo_off, hi, hi_off = regions.row_sections_array(region, t0, u)
    s = rng.uniform(-0.5, 1.5, 200)
    for i, t in enumerate(t0 + u):
        secs = [(a, b) for a, b in zip((lo + lo_off)[:, i].tolist(), (hi + hi_off)[:, i].tolist())
                if b > a]
        for (a, b), (nxt, _) in zip(secs, secs[1:]):
            assert a < b < nxt
        covered = np.zeros(s.shape, dtype=bool)
        for a, b in secs:
            covered |= (a < s) & (s < b)
        keep = _off_boundary(region, s, np.full(s.shape, t))
        np.testing.assert_array_equal(covered[keep], contains(region, s[keep], t)[keep])


def test_offset_heights_keep_sections_narrower_than_rounding():
    # 1/2 -+ u/2 both round to 1/2 at u = 2^-60; from height 0 with offset u
    # the cone's section, and those of unions through its apex, stay exact
    u = 2.0**-60
    cone = Intersection((HalfPlane(-2.0, -1.0, -1.0), HalfPlane(2.0, -1.0, 1.0)))
    right = Intersection((HalfPlane(-2.0, 0.0, -1.0), HalfPlane(2.0, -1.0, 1.0)))  # 1 < 2s < 1 + t
    left = Intersection((HalfPlane(-2.0, -1.0, -1.0), HalfPlane(2.0, 0.25, 1.0)))  # 1 - t < 2s < 1 - t/4
    cases = {
        "cone": (cone, [(-0.5, 0.5)]),
        "apart": (Union((right, left)), [(-0.5, -0.125), (0.0, 0.5)]),
        "merged": (Union((right, cone, left)), [(-0.5, 0.5)]),
    }
    for name, (region, want) in cases.items():
        rounded, _, rounded_hi, _ = regions.row_sections_array(region, [u])
        assert not np.any(rounded_hi > rounded), name  # at t = u outright: all empty
        lo, lo_off, hi, hi_off = regions.row_sections_array(region, [0.0], [u])
        used = hi[:, 0] != 0.0
        assert np.all(lo[used, 0] == 0.5) and np.all(hi[used, 0] == 0.5), name
        assert list(zip(lo_off[used, 0] / u, hi_off[used, 0] / u)) == want, name


@given(shapes, seeds)
def test_transpose_invariance_is_never_claimed_wrongly(region, seed):
    s, t = _points(seed)
    mirrored = Union((region, regions.transpose(region)))
    assert regions.transpose_invariant(mirrored)
    for r in (region, mirrored):
        if regions.transpose_invariant(r):
            np.testing.assert_array_equal(contains(r, s, t), contains(r, t, s))


@given(shapes, seeds)
def test_transpose_swaps_the_coordinates(region, seed):
    s, t = _points(seed)
    flipped = regions.transpose(region)
    assert regions.transpose(flipped) == region
    np.testing.assert_array_equal(contains(flipped, t, s), contains(region, s, t))


@given(parts, subtrahends, seeds)
def test_set_operations_are_or_and_and_not(group, right, seed):
    s, t = _points(seed)
    members = [contains(part, s, t) for part in group]
    np.testing.assert_array_equal(contains(Union(group), s, t),
                                  np.logical_or.reduce(members))
    np.testing.assert_array_equal(contains(Intersection(group), s, t),
                                  np.logical_and.reduce(members))
    keep = _off_boundary(right, s, t)
    left = group[0]
    np.testing.assert_array_equal(
        contains(Difference(left, right), s, t)[keep],
        (contains(left, s, t) & ~contains(right, s, t))[keep])


def test_a_non_region_is_refused_by_every_operation():
    for op in (lambda r: regions.row_sections_array(r, [0.5]), regions.transpose,
               lambda r: contains(r, 0.5, 0.5), regions.t_breakpoints,
               regions.boundary_lines, lambda r: Union((r,)), lambda r: Difference(r, r)):
        with pytest.raises(TypeError, match="not a region"):
            op((0.0, 1.0, 0.0, 1.0))


def _mass(spec, region):
    return mu_mass(spec, 8, region)


@settings(max_examples=8)
@given(shapes, half_plane())
@pytest.mark.parametrize("spec", [UniformWeight(), SingularWeight(alpha=0.6)])
def test_mass_is_additive_across_a_half_plane_cut(spec, region, cut):
    whole = _mass(spec, region)
    split = _mass(spec, Intersection((region, cut))) + _mass(spec, Difference(region, cut))
    assert split == pytest.approx(whole, rel=1e-9, abs=1e-15)


@settings(max_examples=8)
@given(shapes, half_plane())
@pytest.mark.parametrize("spec", [UniformWeight(), SingularWeight(alpha=0.6)])
def test_a_subset_has_at_most_the_mass_of_its_set(spec, region, cut):
    whole = _mass(spec, region)
    assert _mass(spec, Intersection((region, cut))) <= whole * (1.0 + 1e-9) + 1e-15
