"""The batched quadrature engine: per-job results, per-job checks, named failures."""

import itertools
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.special import roots_legendre

from ambitlab import kernels, quadrature
from ambitlab.errors import QuadratureError
from ambitlab.kernels import SingularWeight, SlowFunction, compute_cn, mu_mass
from ambitlab.quadrature import QuadratureConfig, integrate_pieces, make_pieces
from ambitlab.regions import HalfPlane, Intersection, Union, band, transpose
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
    points, alphas, jobs = _power_jobs(120)
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


@pytest.mark.parametrize("quadcfg, layout, reach", [
    (QuadratureConfig(), (20, 10, 16), 40),
    (QuadratureConfig(rel_tol=1e-6), (20, 10, 16), 40),
    (_G2_QUAD, (24, 14, 20), 48),
    (QuadratureConfig(rel_tol=1e-15), (27, 17, 23), 54),
    # below the float resolution rel_tol is clamped there
    (QuadratureConfig(rel_tol=0.0), (28, 18, 24), 56),
], ids=["default", "loose", "covariance", "tight", "zero"])
def test_a_graded_piece_takes_ratio_4_panels_to_its_reach(quadcfg, layout, reach):
    # the layout follows rel_tol alone: (levels, nodes, smooth_nodes)
    assert (quadcfg.levels, quadcfg.nodes, quadcfg.smooth_nodes) == layout
    # one graded piece alone: one integrand call per resolution, all graded nodes
    offsets = []

    def f(x, delta, origin, job):
        offsets.append(delta)
        return delta ** -0.5

    total = integrate_pieces(f, [[(0.0, 1.0, "graded")]], quadcfg)
    assert total[0] == pytest.approx(2.0, rel=max(quadcfg.rel_tol, 1e-15))
    levels, per_panel = quadcfg.levels, quadcfg.nodes
    assert [d.size for d in offsets] == [levels * per_panel, (levels + 3) * (per_panel + 4)]
    for delta, count, bits in zip(offsets, (per_panel, per_panel + 4), (reach, reach + 6)):
        # the innermost panel is (r, 4r), r the reach past which the tail is
        # extrapolated; its lowest node sits at r (1 + 3 (1 + x_0) / 2)
        r = delta.min() / (1.0 + 1.5 * (1.0 + quadrature.gl(count)[0][0]))
        assert r == pytest.approx(2.0 ** -bits, rel=1e-12)
        # node-major: node 0 of every panel first, panels outward, each 4 times the last
        first = delta[:delta.size // count]
        np.testing.assert_allclose(first[1:] / first[:-1], 4.0, rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 0.95])
@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12, 1e-14])
def test_graded_panels_take_the_nodes_their_tolerance_needs(rel_tol, alpha):
    # a panel (r, 4r) next to r^-alpha misses about 9^-n of its mass with n
    # nodes; the count grows with the tolerance so that a panel stays well
    # inside it, and never falls below 10
    count = QuadratureConfig(rel_tol=rel_tol).nodes
    xi, wi = quadrature.gl(count)
    panel = 1.5 * np.sum(wi * (2.5 + 1.5 * xi) ** -alpha)
    exact = (4.0 ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
    assert abs(panel - exact) <= rel_tol / 5.0 * exact
    assert count == {1e-8: 10, 1e-10: 12, 1e-12: 14, 1e-14: 16}[rel_tol]


@pytest.mark.parametrize("graded", [False, True], ids=["smooth", "graded"])
def test_gauss_sums_of_a_batch_are_its_panels_summed_alone(graded):
    # node-major layout: node k of every panel, then node k + 1; a panel's sum
    # still adds its own nodes in node order, whatever batch and slice it is in
    points, alphas, _ = _power_jobs(5)
    nodes, rng = 14, np.random.default_rng(11)
    count = quadrature._NODE_CAP // nodes + 40  # two integrand calls
    job = rng.integers(0, points.size, count)
    if graded:  # offsets from each job's singular point, as the graded pass lays them out
        origin = points[job]
        lo = 0.5 ** rng.integers(1, 45, count)
        hi = 2.0 * lo
    else:
        origin = None
        lo = rng.uniform(-0.5, 1.5, count)
        hi = lo + rng.uniform(1e-6, 0.5, count)
    sizes = []
    batch = quadrature._gauss_sums(_power_integrand(points, alphas, sizes), lo, hi, job, nodes,
                                   origin)
    assert len(sizes) == 2 and max(sizes) <= quadrature._NODE_CAP
    f = _power_integrand(points, alphas)
    alone = [quadrature._gauss_sums(f, lo[i:i + 1], hi[i:i + 1], job[i:i + 1], nodes,
                                    None if origin is None else origin[i:i + 1])
             for i in range(count)]
    assert batch.tobytes() == np.concatenate(alone).tobytes()


def _fdiff_two_branches(spec, y, w):
    """F(y + w) - F(y) as both branches of each power term picked by np.where."""
    coef = [(c, j + 1.0 - spec.alpha) for j, c in enumerate(kernels._ELL_CATALOG[spec.ell.name][1])]
    live = w > 0.0
    at0 = live & (y <= 0.0)
    safe_y = np.where(y > 0.0, y, 1.0)
    safe_w = np.where(live, w, 1.0)
    grow = np.log1p(np.where(live, w, 0.0) / safe_y)
    out = np.zeros(np.broadcast(y, w).shape)
    for c, e in coef:
        out += (c / e) * np.where(at0, safe_w**e, safe_y**e * np.expm1(e * grow))
    return spec.scale * np.where(live, out, 0.0)


@pytest.mark.parametrize("ell", [name for name, (_, poly, _) in kernels._ELL_CATALOG.items()
                                 if poly is not None])
def test_the_f_difference_equals_its_two_branch_formula_bit_for_bit(ell):
    y, w = np.meshgrid([0.0, -0.0, -0.25, 1e-30, 1e-17, 3e-9, 0.3, 0.999],
                       [-0.5, -0.0, 0.0, 5e-324, 1e-17, 1.1e-17, 2e-9, 0.4, 1.0], indexing="ij")
    for alpha in (0.3, 0.75):
        spec = SingularWeight(alpha=alpha, ell=SlowFunction(ell), scale=1.5)
        fdiff = spec._profile_antiderivative()
        assert fdiff(y, w).tobytes() == _fdiff_two_branches(spec, y, w).tobytes()
        # a scalar floor against a row of widths broadcasts as the formula does
        row = fdiff(0.0, w[0])
        assert row.tobytes() == _fdiff_two_branches(spec, np.float64(0.0), w[0]).tobytes()


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


def test_a_failing_autocorrelation_names_the_first_failing_offset():
    # the two resolutions of these tiny offsets disagree past 1e-12: the first
    # offset fails only in its F-difference wedge, the second in a product wedge
    spec = SingularWeight(alpha=0.55, ell=SlowFunction("one"))
    with pytest.raises(QuadratureError, match=re.escape("w = (1e-12, 0.0), wedge a: ")):
        spec.autocorrelation(1e-12, 0.0, _G2_QUAD)
    with pytest.raises(QuadratureError, match=re.escape("w = (0.0, -1e-12), wedge d: ")):
        spec.autocorrelation(np.array([0.0, 1e-12]), np.array([-1e-12, 0.0]), _G2_QUAD)


def test_a_failing_autocorrelation_is_at_most_two_engine_calls(monkeypatch):
    calls, integrate = [], kernels.integrate_pieces

    def counted(f, jobs, quadcfg, labels=None, f_check=None):
        calls.append(len(jobs))
        return integrate(f, jobs, quadcfg, labels, f_check)

    monkeypatch.setattr(kernels, "integrate_pieces", counted)
    # only the tiny offset fails, in its product wedge a (see above)
    w1 = np.concatenate([np.linspace(0.1, 0.5, 30), [1e-12], np.linspace(0.6, 0.9, 30)])
    with pytest.raises(QuadratureError, match=re.escape("w = (1e-12, 0.0), wedge a: ")):
        SingularWeight(alpha=0.55, ell=SlowFunction("one")).autocorrelation(w1, 0.0, _G2_QUAD)
    assert len(calls) <= 2


def test_a_failing_mass_names_its_n_and_half():
    # next to the integrability edge the panel masses decay so slowly that the
    # tail extrapolated past the reach misses 1e-12: the two resolutions
    # differ by 1.1e-11 of the mass, and ten more levels would agree
    cfg = QuadratureConfig(rel_tol=1e-12, abs_tol=0.0)
    with pytest.raises(QuadratureError, match=re.escape("lower half {t < s}: singular mass at n=8: ")):
        mu_mass(SingularWeight(alpha=0.99), 8, HalfPlane(1.0, -2.0, 0.3), cfg)


def test_a_singular_c_n_meets_a_tolerance_near_the_float_resolution():
    # the reach grows with rel_tol, to 4^-27 at 1e-15: at 4^-20 the tail
    # extrapolated past it misses this c_n by 2e-12, and the two resolutions
    # disagree past the 1e-12 absolute tolerance
    spec = SingularWeight(alpha=0.75, scale=0.5)
    tight = compute_cn(spec, 16, QuadratureConfig(rel_tol=1e-15, abs_tol=1e-12))
    assert tight == pytest.approx(compute_cn(spec, 16, QuadratureConfig(rel_tol=1e-12, abs_tol=1e-12)),
                                  rel=1e-14, abs=0.0)


def test_a_non_integrable_job_fails_by_name_beside_a_good_one():
    points, alphas = np.array([0.2, 0.4]), np.array([0.5, 1.5])
    jobs = [make_pieces([p], [p], 0.0, 1.0) for p in points]
    with pytest.raises(QuadratureError, match=re.escape(
            "steep: graded panels toward the left end of (0.4, 1.0) do not decay")) as failure:
        integrate_pieces(_power_integrand(points, alphas), jobs, QuadratureConfig(),
                         labels=["mild", "steep"])
    assert "np.float64(" not in str(failure.value)
    good = integrate_pieces(_power_integrand(points[:1], alphas[:1]), jobs[:1], QuadratureConfig())
    assert good[0] == pytest.approx(0.8**0.5 / 0.5, rel=1e-8)


def _nan_after(calls, bad=1):
    """1 on every job but ``bad``; on that one, 1 for the first ``calls`` calls
    and NaN after them."""
    count = [0]

    def f(x, delta, origin, job):
        count[0] += 1
        return np.where((job == bad) & (count[0] > calls), np.nan, 1.0)

    return f


# without the check the graded case returns NaN and the others bisect until
# memory runs out; a depth cap of 4 stops those after a few levels
@pytest.mark.parametrize("pieces, calls, what", [
    (make_pieces([], [0.0], 0.0, 1.0), 0, "graded piece"),
    (make_pieces([], [], 0.0, 1.0), 0, "smooth piece"),
    (make_pieces([], [], 0.0, 1.0), 1, "adaptive panel"),
], ids=["graded", "seed", "bisection"])
def test_a_non_finite_estimate_fails_by_name(pieces, calls, what, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 4)
    good = make_pieces([], [], 0.0, 2.0)
    with pytest.raises(QuadratureError, match=rf"^bad: {what} \(0\.0, .*\) has the non-finite"):
        integrate_pieces(_nan_after(calls), [good, pieces], QuadratureConfig(),
                         labels=["good", "bad"])


def test_a_failed_job_is_integrated_no_further(monkeypatch):
    # bisecting its NaN panels would reach the depth cap, 2^48 of them by default
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 8)
    nan, seen = _nan_after(0), []

    def f(x, delta, origin, job):
        seen.append(np.count_nonzero(job == 1))
        return nan(x, delta, origin, job)

    smooth = make_pieces([], [], 0.0, 1.0)
    with pytest.raises(QuadratureError, match=r"^job 1: smooth piece \(0\.0, 1\.0\) has the non-finite"):
        integrate_pieces(f, [smooth, smooth], QuadratureConfig())
    assert sum(seen) == QuadratureConfig().smooth_nodes  # its seed, and nothing in either pass after


def test_a_panel_past_the_depth_cap_is_named_by_plain_floats(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    step = lambda x, *_: np.where(x > 1.0 / 3.0, 1.0, 0.0)  # no dyadic panel isolates the jump
    with pytest.raises(QuadratureError, match=re.escape(
            "bad: adaptive panel (0.25, 0.5) failed to converge (residual ")) as failure:
        integrate_pieces(step, [make_pieces([], [], 0.0, 1.0)], QuadratureConfig(),
                         labels=["bad"])
    assert str(failure.value).endswith(" at depth 2)") and "np.float64(" not in str(failure.value)


_KINDS = ("good", "steep", "nan", "step", "drift")


def _failing_batch(kinds):
    """Jobs of the named ``kinds``, with the integrand and check integrand that fail them.

    A ``good`` job passes.  Each other kind fails one check: ``steep``'s
    graded panels do not decay, ``nan`` has a non-finite graded piece,
    ``step`` has an adaptive panel past a depth cap of 2, and ``drift``'s
    two resolutions disagree by 1e-6.
    """
    at = {kind: kinds.index(kind) if kind in kinds else -1 for kind in _KINDS}
    alphas = np.where(np.array(kinds) == "steep", 1.5, 0.5)
    power, nan = _power_integrand(np.zeros(len(kinds)), alphas), _nan_after(0, bad=at["nan"])

    def f(x, delta, origin, job):
        values = np.where(job == at["step"], x > 1.0 / 3.0, power(x, delta, origin, job))
        return values * nan(x, delta, origin, job)

    def f_check(x, delta, origin, job):
        return f(x, delta, origin, job) * np.where(job == at["drift"], 1.0 + 1e-6, 1.0)

    jobs = [make_pieces([], [], 0.0, 1.0) if kind == "step" else make_pieces([0.5], [0.0], 0.0, 1.0)
            for kind in kinds]
    return jobs, f, f_check


def test_a_batch_raises_the_error_its_first_failing_job_raises_alone(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 2)
    cfg, alone = QuadratureConfig(), {}
    checks = {"steep": "graded panels toward", "nan": "graded piece (0.0, 0.5) has the non-finite",
              "step": "adaptive panel", "drift": "quadrature did not stabilize"}
    for kind, check in checks.items():
        jobs, f, f_check = _failing_batch((kind,))
        with pytest.raises(QuadratureError) as failure:
            integrate_pieces(f, jobs, cfg, [kind], f_check)
        alone[kind] = failure.value
        assert str(alone[kind]).startswith(f"{kind}: {check}") and alone[kind].job == 0
    jobs, f, f_check = _failing_batch(("good",))
    assert integrate_pieces(f, jobs, cfg, ["good"], f_check)[0] == pytest.approx(2.0, rel=1e-8)
    # in a batch steep fails first, in the graded pass, and drift last, in the
    # agreement check; whatever the order, the lowest-index failing job raises
    for kinds in itertools.permutations(_KINDS):
        jobs, f, f_check = _failing_batch(kinds)
        with pytest.raises(QuadratureError) as failure:
            integrate_pieces(f, jobs, cfg, list(kinds), f_check)
        first = 1 if kinds[0] == "good" else 0
        want = alone[kinds[first]]
        assert str(failure.value) == str(want), kinds
        assert repr(failure.value.estimate) == repr(want.estimate), kinds
        assert failure.value.job == first, kinds


REFUSED = [
    (dict(rel_tol=-1.0), "rel_tol must be a finite tolerance >= 0"),
    (dict(abs_tol=-1e-14), "abs_tol must be a finite tolerance >= 0"),
    (dict(rel_tol=math.nan), "rel_tol must be a finite tolerance"),
    (dict(abs_tol=math.inf), "abs_tol must be a finite tolerance"),
]


# ids numbered from 7, the numbers these cases were first given
@pytest.mark.parametrize("bad, message", REFUSED,
                         ids=[f"bad{7 + i}-{message}" for i, (_, message) in enumerate(REFUSED)])
def test_config_refuses_settings_the_engine_cannot_run(bad, message):
    # construction only: the negative tolerance would never finish integrating
    with pytest.raises(ValueError, match=message):
        QuadratureConfig(**bad)


def test_config_keeps_zero_tolerances_and_derives_integer_counts():
    cfg = QuadratureConfig(rel_tol=0.0, abs_tol=0.0)
    assert (cfg.rel_tol, cfg.abs_tol) == (0.0, 0.0)
    assert [type(count) for count in (cfg.levels, cfg.nodes, cfg.smooth_nodes)] == [int] * 3


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


def test_a_mass_names_its_first_failing_half_though_the_other_fails_sooner():
    # the two shapes above: the slanted cut fails the lower half's final
    # check, the transposed corner cut the upper half's graded pass, which
    # the batch of both halves reaches first; redone half by half, the lower
    # half raises, as it does when the halves are integrated in turn
    slant = Intersection((band(0.0, 1.0 / 16.0), HalfPlane(-0.5, 3.0, 0.25)))
    corner = Intersection((band(0.0, 1.0), HalfPlane(0.0, 0.5, 4e-86)))
    for region in (Union((slant, transpose(corner))), Union((transpose(corner), slant))):
        with pytest.raises(QuadratureError, match=re.escape(
                "lower half {t < s}: singular mass at n=8: quadrature did not stabilize: ")):
            mu_mass(_SINGULAR, 8, region)
