import math
import re

import numpy as np
import pytest

from ambitlab import cli, kernels
from ambitlab.asymptotics import (
    PARTITION,
    assumption2_ratio,
    region_catalog,
    region_measures,
    slope_fit,
)
from ambitlab.errors import QuadratureError
from ambitlab.kernels import (
    SingularWeight,
    SlowFunction,
    TriangleWeight,
    UniformWeight,
    compute_cn,
    mu_mass,
    thinning_count,
)
from ambitlab.quadrature import QuadratureConfig
from ambitlab.regions import Everything, HalfPlane, Rect, band


def singular(alpha, ell="one_minus_s"):
    return SingularWeight(alpha=alpha, ell=SlowFunction(ell))


def triangle(alpha, ell="one_minus_s"):
    return TriangleWeight(alpha=alpha, ell=SlowFunction(ell))


# ------------------------------------------------------ admissible exponents

def test_small_alpha_range_is_closed_at_alpha():
    rng = singular(0.25).kappa_range()
    assert rng.upper == 0.25
    assert rng.upper_inclusive
    assert rng.contains(0.25)
    assert not rng.contains(0.2500001)
    assert not rng.contains(0.0)
    assert not rng.contains(-0.1)
    assert str(rng) == "(0, 0.25]"


def test_large_alpha_range_is_open():
    rng = singular(0.75).kappa_range()
    np.testing.assert_allclose(rng.upper, 2.5 / 4.5, rtol=1e-15)
    assert not rng.upper_inclusive
    assert rng.contains(0.5555)
    assert not rng.contains(2.5 / 4.5)


def test_cone_range():
    rng = triangle(0.75).kappa_range()
    np.testing.assert_allclose(rng.upper, 0.5 / 2.5, rtol=1e-15)
    assert not rng.upper_inclusive
    assert rng.contains(0.15)
    assert not rng.contains(0.2)


def test_rectangle_indicator_range_is_empty_with_reason():
    rng = UniformWeight().kappa_range()
    assert rng.empty
    assert not rng.contains(0.1)
    assert "four separated corner" in rng.note
    assert str(rng) == "empty"


def test_range_formulas_cross_over_at_one_half():
    # the two upper-bound formulas meet where the exponent regimes switch
    upper_small = lambda a: a
    upper_large = lambda a: (2.0 * a + 1.0) / (2.0 * a + 3.0)
    corr_length = lambda a: 1.0 / (2.0 * a + 1.0)
    assert upper_large(0.5) == corr_length(0.5) == 0.5
    # below the switch the three quantities are ordered one way ...
    a = 0.3
    assert upper_small(a) < upper_large(a) < corr_length(a)
    # ... above it the correlation-length bound drops under the mass bound
    a = 0.75
    assert corr_length(a) < upper_large(a) < a


def test_range_is_continuous_across_the_switch():
    below = singular(0.5 - 1e-9).kappa_range()
    at = singular(0.5).kappa_range()
    np.testing.assert_allclose(below.upper, at.upper, atol=2e-9)
    assert below.upper_inclusive and not at.upper_inclusive


# ------------------------------------------------------------- slope fitting

def test_exact_power_law_recovered():
    fit = slope_fit({n: n**-1.4 for n in (8, 16, 32, 64, 128)})
    assert set(fit) == {"exponent", "intercept", "r_squared"}
    assert all(type(v) is float for v in fit.values())  # JSON-ready as it is
    np.testing.assert_allclose(fit["exponent"], -1.4, atol=1e-12)
    np.testing.assert_allclose(fit["intercept"], 0.0, atol=1e-12)
    np.testing.assert_allclose(fit["r_squared"], 1.0, atol=1e-12)


def test_prefactor_lands_in_intercept():
    fit = slope_fit({n: 3.5 * n**-2.0 for n in (4, 8, 16, 32)})
    np.testing.assert_allclose(fit["exponent"], -2.0, atol=1e-12)
    np.testing.assert_allclose(fit["intercept"], math.log(3.5), rtol=1e-12)


def test_noisy_values_report_honest_r_squared():
    vals = {n: n**-1.0 * (1.2 if i % 2 else 0.8) for i, n in enumerate((8, 16, 32, 64, 128))}
    fit = slope_fit(vals)
    assert 0.9 < fit["r_squared"] < 1.0


def test_slope_fit_rejects_thin_input():
    with pytest.raises(ValueError, match="at least 4 points"):
        slope_fit({8: 1.0, 16: 0.5, 32: 0.25})
    with pytest.raises(ValueError, match="fewer than two octaves"):
        slope_fit({8: 1.0, 10: 0.9, 12: 0.8, 14: 0.7})
    with pytest.raises(ValueError, match="positive finite"):
        slope_fit({8: 1.0, 16: 0.5, 32: 0.0, 64: 0.1})
    with pytest.raises(ValueError, match="positive finite"):
        slope_fit({8: 1.0, 16: 0.5, 32: -0.3, 64: 0.1})
    with pytest.raises(ValueError, match="positive finite"):
        slope_fit({8: 1.0, 16: 0.5, 32: float("nan"), 64: 0.1})
    with pytest.raises(ValueError, match=">= 1"):
        slope_fit({0: 1.0, 16: 0.5, 32: 0.25, 64: 0.125})


# ------------------------------------------------------------ region catalog

def test_singular_catalog_geometry():
    # kappa = 0.4 realizes k = 13 at n = 64
    cat = region_catalog(singular(0.75), 64, 0.4)
    assert PARTITION == ("E", "B1", "B2", "B3", "B4")
    assert cat["E"] == Rect(0.0, 13 / 64, 0.0, 13 / 64)
    assert set(cat) == {"E", "Etilde", "T", "B1", "B2", "B3", "B4"}


def test_triangle_catalog_geometry():
    # kappa = 0.15 realizes k = 35 at n = 64
    cat = region_catalog(triangle(0.75), 64, 0.15)
    assert cat["E"] == Rect(0.5 - 35 / 128, 0.5 + 35 / 128, 0.0, 35 / 128)
    assert set(cat) == {"E", "Etilde", "B1", "B2", "B3", "B4"}


def test_triangle_catalog_needs_a_wide_enough_cone():
    # n=4, kappa=0.5 realizes k=2: the window's top edge sits below the
    # stacked slanted bands and the partition would overlap
    with pytest.raises(ValueError, match="narrower than the differenced edge bands"):
        region_catalog(triangle(0.75), 4, 0.5)


def test_catalog_rejects_kernels_without_a_single_concentration_point():
    with pytest.raises(ValueError, match="corner-singular and cone"):
        region_catalog(UniformWeight(), 64, 0.4)


# ---------------------------------------------------------- region measures
#
# All frozen masses below were cross-checked against one-dimensional
# integral forms of the differenced kernel: on each band the kernel value
# is an explicit difference of profile values, so the planar mass reduces
# to a single integral with a closed antiderivative (or a 1-D adaptive
# quadrature for the mixed band B2).

def closed_corner_core(b, a):
    # int_0^b s^(1-2a) (1-s)^2 ds, the one-sided core mass for ell = 1-s
    return (b ** (2 - 2 * a) / (2 - 2 * a)
            - 2 * b ** (3 - 2 * a) / (3 - 2 * a)
            + b ** (4 - 2 * a) / (4 - 2 * a))


def test_singular_measures_match_one_dimensional_forms():
    spec = singular(0.75)
    cat = region_catalog(spec, 64, 0.4)
    m = region_measures(spec, 64, cat)
    np.testing.assert_allclose(m["Etilde"], closed_corner_core(1 / 64, 0.75), rtol=1e-10)
    # 2/n * int_eps^1 (f(s) - f(s-1/n))^2 ds, f(s) = s^-0.75 (1-s), both
    # mirror bands counted; adaptive 1-D quadrature oracle, frozen:
    np.testing.assert_allclose(m["B1"], 1.2160146668665414e-04, rtol=1e-9)
    # 2 * int_eps^1 int_{s-1/n}^s (f(s-1/n) - f(t))^2 dt ds, nested oracle:
    np.testing.assert_allclose(m["B2"], 4.149761574673481e-05, rtol=1e-8)
    assert abs(m["B3"]) < 1e-15  # the four kernel copies cancel exactly there
    np.testing.assert_allclose(m["B4"], 6.069298610179285e-08, rtol=1e-8)


def test_singular_partition_mass_accounting():
    spec = singular(0.75)
    cat = region_catalog(spec, 64, 0.4)
    m = region_measures(spec, 64, cat, names=PARTITION)
    cn = compute_cn(spec, 64)
    np.testing.assert_allclose(sum(m.values()), cn, rtol=1e-9)


def test_lower_half_carries_exactly_half_the_mass():
    spec = singular(0.75)
    cat = region_catalog(spec, 64, 0.4)
    m = region_measures(spec, 64, cat, names=("T",))
    np.testing.assert_allclose(m["T"], compute_cn(spec, 64) / 2, rtol=1e-12)


@pytest.mark.parametrize("alpha, ell, rel_tol, n", [
    (0.6, "one", 1e-15, 8), (0.75, "one", 1e-15, 32), (0.75, "one_minus_s", 1e-15, 8),
    (0.9, "one_minus_s", 1e-12, 8), (0.9, "one", 1e-12, 16)])
def test_lower_half_carries_half_the_mass_at_a_tight_tolerance(alpha, ell, rel_tol, n):
    # past about 2^-53 of 1/n the graded columns at s = 1/n + sig round back to
    # 1/n, where the diagonal bounding T passes: their top band (1/n, s) lies
    # in T, which only the exact offset sig shows
    spec, quad = singular(alpha, ell), QuadratureConfig(rel_tol=rel_tol, abs_tol=0.0)
    m = region_measures(spec, n, region_catalog(spec, n, 0.4), names=("T",), quadcfg=quad)
    np.testing.assert_allclose(m["T"], compute_cn(spec, n, quad) / 2, rtol=1e-14)


def test_triangle_measures_match_closed_antiderivatives():
    spec = triangle(0.75)
    n = 64
    cat = region_catalog(spec, n, 0.15)
    m = region_measures(spec, n, cat)
    d, lo = 1.0 / n, 35 / 128  # eps/2: kappa = 0.15 realizes k = 35

    # f(t)^2 = t^-1.5 (1-t)^2 has the elementary antiderivative below
    def AD(t):
        return -2.0 / math.sqrt(t) - 4.0 * math.sqrt(t) + (2.0 / 3.0) * t**1.5

    np.testing.assert_allclose(m["Etilde"], closed_corner_core(d, 0.75), rtol=1e-12)
    np.testing.assert_allclose(m["B1"], d * (AD(1.0) - AD(lo)), rtol=1e-12)
    np.testing.assert_allclose(m["B3"], d * (AD(1.0 - d) - AD(lo - d)), rtol=1e-12)
    np.testing.assert_allclose(m["B4"], 2 * d * (AD(1.0) - AD(1.0 - d)), rtol=1e-9)
    # mixed band, adaptive 1-D oracle d * int (f(t) - f(t-d))^2 dt, frozen:
    np.testing.assert_allclose(m["B2"], 2.9196443547772028e-05, rtol=1e-9)
    cn = compute_cn(spec, n)
    np.testing.assert_allclose(sum(m[r] for r in PARTITION), cn, rtol=1e-12)


@pytest.mark.parametrize("ell", ["one", "one_minus_s"])
@pytest.mark.parametrize("n", [16, 64, 256, 1024])
@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
def test_cone_core_mass_matches_its_closed_form(alpha, n, ell):
    # below height 1/n the cone's shifted copies miss it, so Etilde carries
    # int_0^d t f(t)^2 dt = int_0^d t^(1 - 2 alpha) ell(t)^2 dt; the graded
    # rows there are as narrow as the offsets from the apex
    d = 1.0 / n
    m = region_measures(triangle(alpha, ell), n, region_catalog(triangle(alpha, ell), n, 0.15),
                        names=("Etilde",))
    want = (closed_corner_core(d, alpha) if ell == "one_minus_s"
            else d ** (2 - 2 * alpha) / (2 - 2 * alpha))
    np.testing.assert_allclose(m["Etilde"], want, rtol=1e-12)


def test_measure_subset_only_computes_requested_regions():
    spec = singular(0.5)
    cat = region_catalog(spec, 16, 0.4)
    m = region_measures(spec, 16, cat, names=("Etilde", "B1"))
    assert set(m) == {"Etilde", "B1"}


def test_core_decay_slope_tracks_the_singularity():
    # small-scale version of the full-schedule check: mass of the core
    # decays like n^(-2(1-alpha))
    spec = singular(0.75)
    vals = {}
    for n in (16, 32, 64, 128, 256):
        cat = region_catalog(spec, n, 0.4)
        vals[n] = region_measures(spec, n, cat, names=("Etilde",))["Etilde"]
        np.testing.assert_allclose(vals[n], closed_corner_core(1.0 / n, 0.75), rtol=1e-9)
    fit = slope_fit(vals)
    assert abs(fit["exponent"] - (-0.5)) < 0.1
    assert fit["r_squared"] > 0.999


def test_leftover_band_decays_faster_than_n_minus_two():
    spec = singular(0.75)
    vals = {}
    for n in (16, 32, 64, 128, 256):
        cat = region_catalog(spec, n, 0.4)
        vals[n] = region_measures(spec, n, cat, names=("B4",))["B4"]
    assert slope_fit(vals)["exponent"] < -2.0


def test_an_asymptotics_run_integrates_every_mass_once_in_one_engine_call(monkeypatch, tmp_path):
    # the catalog, c_n and the window's E all come from one batch per n:
    # assumption2_ratio reads E and c_n from the mass cache
    spec = singular(0.75, "one")
    batches, measured = [], []
    integrate, masses = kernels.integrate_pieces, SingularWeight.masses

    def counted(f, jobs, quadcfg, labels=None, f_check=None):
        batches.append(len(jobs))
        return integrate(f, jobs, quadcfg, labels, f_check)

    def recorded(self, n, parts, quadcfg):
        measured.extend(parts)
        return masses(self, n, parts, quadcfg)

    monkeypatch.setattr(kernels, "integrate_pieces", counted)
    monkeypatch.setattr(SingularWeight, "masses", recorded)
    kernels.mu_masses.cache_clear()
    config = cli.ExperimentConfig.from_text(
        "kind = asymptotics\nweight.variant = singular\nweight.alpha = 0.75\n"
        "weight.ell = one\nn = 32\nkappa = 0.4\n").with_overrides(out=str(tmp_path))
    assert cli.run(config) == cli.EXIT_OK
    # E, B1-B4, the whole plane and Etilde one half each: Etilde's upper half
    # lies in {s < t} and makes no job
    assert batches == [7]
    window = spec.window(thinning_count(32, 0.4) / 32)
    assert measured.count(window) == 1 and measured.count(Everything()) == 1
    assert len(measured) == len(set(measured)) == 7


# at alpha = 0.99 the graded tail past the reach misses a rel_tol of 1e-12 in
# some regions and not in others
_EDGE, _TIGHT = SingularWeight(alpha=0.99), QuadratureConfig(rel_tol=1e-12, abs_tol=0.0)


def test_a_failing_region_in_a_batch_raises_what_it_raises_alone():
    cut = HalfPlane(1.0, -2.0, 0.3)
    passing = [Rect(0.5, 0.9, 0.1, 0.4), HalfPlane(-1.0, 0.0, -0.5)]
    kernels.mu_masses.cache_clear()
    with pytest.raises(QuadratureError) as alone:
        mu_mass(_EDGE, 8, cut, _TIGHT)
    assert str(alone.value).startswith("lower half {t < s}: singular mass at n=8: ")
    for batch in ([cut, *passing], [*passing, cut], [passing[0], cut, band(0.1, 0.3)]):
        kernels.mu_masses.cache_clear()
        with pytest.raises(QuadratureError) as failure:
            kernels.mu_masses(_EDGE, 8, batch, _TIGHT)
        assert str(failure.value) == str(alone.value)
        assert failure.value.estimate == alone.value.estimate


def test_region_measures_names_the_first_failing_region_in_name_order():
    catalog = region_catalog(_EDGE, 8, 0.4)
    for names in (("Etilde", "B1", "E", "T"), ("B4", "T", "E"), ("B2", "B3")):
        kernels.mu_masses.cache_clear()
        want = None  # what measuring one region at a time raises
        for name in names:
            try:
                mu_mass(_EDGE, 8, catalog[name], _TIGHT)
            except QuadratureError as exc:
                want = f"region {name!r} at n=8: {exc}"
                break
        if want is None:  # only c_n fails, and its own error raises unprefixed
            with pytest.raises(QuadratureError) as alone:
                compute_cn(_EDGE, 8, _TIGHT)
            want = str(alone.value)
        kernels.mu_masses.cache_clear()
        with pytest.raises(QuadratureError, match=re.escape(want) + "$"):
            region_measures(_EDGE, 8, catalog, names, _TIGHT)


def test_a_failing_mass_batch_is_one_engine_call(monkeypatch):
    calls, integrate = [], kernels.integrate_pieces

    def counted(f, jobs, quadcfg, labels=None, f_check=None):
        calls.append(len(jobs))
        return integrate(f, jobs, quadcfg, labels, f_check)

    monkeypatch.setattr(kernels, "integrate_pieces", counted)
    cut, passing = HalfPlane(1.0, -2.0, 0.3), Rect(0.5, 0.9, 0.1, 0.4)
    kernels.mu_masses.cache_clear()
    with pytest.raises(QuadratureError) as failure:
        kernels.mu_masses(_EDGE, 8, [passing, passing, cut, passing, cut], _TIGHT)
    assert len(calls) == 1 and failure.value.job == 2  # the cut's first position
    catalog = region_catalog(_EDGE, 8, 0.4)
    # E fails first in the one batch; of B2, B3 and the whole plane only c_n fails
    for names, job in ((("Etilde", "B1", "E", "T"), 2), (("B2", "B3"), 2)):
        calls.clear()
        kernels.mu_masses.cache_clear()
        with pytest.raises(QuadratureError) as failure:
            region_measures(_EDGE, 8, catalog, names, _TIGHT)
        assert len(calls) == 1 and failure.value.job == job, names


# ------------------------------------------------------------- window decay

def test_window_ratio_frozen_value_and_trend():
    spec = singular(0.75)
    np.testing.assert_allclose(
        assumption2_ratio(spec, 64, 0.4), 3.064194777124553e-03, rtol=1e-9)
    admissible = [assumption2_ratio(spec, n, 0.4) for n in (64, 128, 256)]
    assert admissible[0] > admissible[1] > admissible[2] > 0
    # outside the admissible range the ratio grows instead (observational)
    inadmissible = [assumption2_ratio(spec, n, 0.65) for n in (64, 128, 256)]
    assert inadmissible[0] < inadmissible[1] < inadmissible[2]


def test_window_ratio_refuses_a_uniform_weight():
    # the rectangle indicator concentrates on four corners: no single point
    # to build E around
    with pytest.raises(ValueError, match="no single concentration point"):
        assumption2_ratio(UniformWeight(), 16, 0.4)

