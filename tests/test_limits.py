import math
import re

import numpy as np
import pytest

from ambitlab import limits, variation
from ambitlab.errors import AdmissibilityError
from ambitlab.kernels import SingularWeight, SlowFunction, TriangleWeight, UniformWeight
from ambitlab.limits import (
    clt_experiment,
    clt_variance,
    lln_experiment,
    sigma_functional,
)
from ambitlab.simulate import strip_covariances
from ambitlab.volatility import (
    ConstantVol,
    DeterministicVol,
    LogGaussianVol,
    SigmaField,
    sample_volatility,
)
from oracles import integrated_power

ONE = SlowFunction("one")


def singular(alpha):
    return SingularWeight(alpha=alpha, ell=ONE)


# --------------------------------------------------------- point-mass limits

def test_uniform_limit_splits_mass_over_the_window_corners():
    assert UniformWeight(s1=0.1, s2=0.6, t1=0.2, t2=0.9).limit_atoms() == (
        (0.25, (0.1, 0.2)), (0.25, (0.1, 0.9)),
        (0.25, (0.6, 0.2)), (0.25, (0.6, 0.9)),
    )


def test_concentration_points_of_the_closed_form_kernels():
    assert singular(0.75).limit_atoms() == ((1.0, (0.0, 0.0)),)
    assert TriangleWeight(alpha=0.75, ell=ONE).limit_atoms() == ((1.0, (0.5, 0.0)),)


def test_lln_experiment_needs_a_weight_spec():
    with pytest.raises(TypeError, match="not a weight spec"):
        lln_experiment("uniform", ConstantVol(), n_schedule=(8,), k=1, reps=1)


# ------------------------------------------------------------ the functional

QUARTERS = (
    (0.25, (0.25, 0.25)), (0.25, (0.25, 0.75)),
    (0.25, (0.75, 0.25)), (0.25, (0.75, 0.75)),
)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_constant_volatility_integrates_in_closed_form(p):
    sig = sample_volatility(ConstantVol(sigma0=1.5), 64, seed=0)
    got = sigma_functional(sig, p, QUARTERS, 0.7, 0.4)
    assert got == pytest.approx(1.5**p * 0.7 * 0.4, rel=1e-14)


def test_constant_volatility_forgets_the_limit_measure():
    # a probability measure integrates a constant to that constant, so the
    # functional cannot depend on where the atoms sit
    sig = sample_volatility(ConstantVol(sigma0=1.0), 64, seed=0)
    a = sigma_functional(sig, 2.0, QUARTERS, 1.0, 1.0)
    b = sigma_functional(sig, 2.0, ((1.0, (0.25, 0.5)),), 1.0, 1.0)
    assert a == b == pytest.approx(1.0, rel=1e-14)


def test_mixture_at_p_two_matches_the_shifted_integral_sum():
    # p = 2 makes the functional linear in the limit measure: it must equal
    # the weight-by-weight sum of plain shifted integrals of sigma^2, which
    # integrated_power computes through an unrelated cell-summation route
    sig = sample_volatility(LogGaussianVol(), 64, seed=7)
    got = sigma_functional(sig, 2.0, QUARTERS, 0.8, 0.6)
    oracle = sum(
        w * integrated_power(sig, 2.0, (-xi, 0.8 - xi, -tau, 0.6 - tau))
        for w, (xi, tau) in QUARTERS
    )
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(0.5634139601600087, rel=1e-9)


def test_uneven_mixture_at_p_two_keeps_the_linearity():
    sig = sample_volatility(LogGaussianVol(), 64, seed=7)
    mix = ((0.7, (0.1, 0.2)), (0.3, (0.5, 0.4)))
    got = sigma_functional(sig, 2.0, mix, 0.9, 0.9)
    oracle = sum(
        w * integrated_power(sig, 2.0, (-xi, 0.9 - xi, -tau, 0.9 - tau))
        for w, (xi, tau) in mix
    )
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.4361445875028944, rel=1e-9)


def test_single_atom_reduces_to_a_shifted_power_integral():
    sig = sample_volatility(LogGaussianVol(), 64, seed=7)
    got = sigma_functional(sig, 3.0, ((1.0, (0.25, 0.5)),), 0.8, 0.6)
    oracle = integrated_power(sig, 3.0, (-0.25, 0.55, -0.5, 0.1))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.4361965286176854, rel=1e-9)


def test_degenerate_windows_carry_no_mass():
    sig = sample_volatility(ConstantVol(), 16, seed=0)
    assert sigma_functional(sig, 2.0, QUARTERS, 0.0, 1.0) == 0.0
    assert sigma_functional(sig, 2.0, QUARTERS, 1.0, 0.0) == 0.0


@pytest.mark.parametrize("model", [ConstantVol(sigma0=1.5), DeterministicVol("bowl"),
                                   LogGaussianVol()], ids=lambda m: m.variant)
@pytest.mark.parametrize("atoms", [((1.0, (0.25, 0.5)),), QUARTERS], ids=["one", "four"])
def test_a_window_of_zero_width_is_the_grid_functional_there(model, atoms):
    sig = sample_volatility(model, 32, seed=3)
    for p in (1.0, 2.0, 3.5):
        for s, t in ((0.0, 0.7), (0.6, 0.0), (0.0, 0.0)):
            got = sigma_functional(sig, p, atoms, s, t)
            grid = float(limits._functional_on_grid(sig, p, atoms, [s], [t])[0, 0])
            assert repr(got) == repr(grid) == "0.0"
    # the shifted domain is still checked when the window is empty
    with pytest.raises(ValueError, match="escapes the sampled square"):
        sigma_functional(sig, 2.0, ((1.0, (-1.5, 0.0)),), 0.0, 1.0)


def test_functional_rejects_bad_arguments():
    sig = sample_volatility(ConstantVol(), 16, seed=0)
    with pytest.raises(ValueError, match="escapes the sampled square"):
        sigma_functional(sig, 2.0, ((1.0, (-0.5, 0.0)),), 1.0, 1.0)
    with pytest.raises(ValueError, match="power must be positive"):
        sigma_functional(sig, 0.0, QUARTERS, 0.5, 0.5)
    with pytest.raises(ValueError, match="outside the unit square"):
        sigma_functional(sig, 2.0, QUARTERS, 1.2, 0.5)


# -------------------------------------------------------- fluctuation target

def test_fluctuation_variance_anchors_for_unit_volatility():
    sig = sample_volatility(ConstantVol(sigma0=1.0), 16, seed=0)
    assert clt_variance(sig, 2.0, (0.0, 0.0), 1.0, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert clt_variance(sig, 1.0, (0.0, 0.0), 1.0, 1.0) == pytest.approx(
        1.0 - 2.0 / math.pi, rel=1e-14)


def test_fluctuation_variance_scales_like_sigma_to_the_2p():
    base = sample_volatility(ConstantVol(sigma0=1.0), 16, seed=0)
    for p, c in [(2.0, 1.5), (1.0, 2.0)]:
        got = clt_variance(SigmaField(values=c * base.values), p, (0.0, 0.0), 0.6, 0.8)
        assert got == pytest.approx(c ** (2 * p) * clt_variance(base, p, (0.0, 0.0), 0.6, 0.8),
                                    rel=1e-14)


def test_fluctuation_variance_grows_with_the_window():
    sig = sample_volatility(DeterministicVol(name="sine_product"), 64, seed=0)
    vals = [clt_variance(sig, 2.0, (0.0, 0.0), s, s) for s in (0.25, 0.5, 0.75, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------- config verification

def test_lln_config_rejects_contradictory_thinning():
    kw = dict(weight=UniformWeight(), volatility=ConstantVol())
    with pytest.raises(ValueError, match="set exactly one of kappa and k, not both"):
        lln_experiment(k=1, kappa=0.4, **kw)
    with pytest.raises(TypeError, match="needs a thinning rule: pass k or kappa"):
        lln_experiment(**kw)
    with pytest.raises(ValueError, match="resolution schedule must be strictly increasing"):
        lln_experiment(k=1, n_schedule=(32, 16), **kw)
    with pytest.raises(ValueError, match="replications must be >= 1, got 0"):
        lln_experiment(k=1, reps=0, **kw)
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"powers must be positive, got [2.0, {bad}]")):
            lln_experiment(k=1, p_values=(2.0, bad), **kw)
    with pytest.raises(ValueError, match=re.escape("need at least one power, got []")):
        lln_experiment(k=1, p_values=(), **kw)
    with pytest.raises(ValueError, match=re.escape("need at least one resolution, got []")):
        lln_experiment(k=1, n_schedule=(), **kw)
    # fractional sizes and seeds are refused, not truncated
    for schedule in ((8.7,), (16.9,), (8, math.inf)):
        with pytest.raises(ValueError, match="n must be integers"):
            lln_experiment(k=1, n_schedule=schedule, **kw)
    for name in ("k", "reps", "grid_size", "oversample", "seed"):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 1.5"):
            lln_experiment(**{"k": 1, name: 1.5}, **kw)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        lln_experiment(k=1, seed=-1, **kw)
    # before the run, in the words of cli.validate
    with pytest.raises(ValueError, match=re.escape(
            "constant thinning k=20 exceeds the smallest resolution n=16")):
        lln_experiment(k=20, n_schedule=(16, 32), **kw)


def test_one_error_names_every_broken_rule():
    with pytest.raises(ValueError) as caught:
        lln_experiment(UniformWeight(), ConstantVol(), k=0, reps=0, grid_size=2.5, seed=-1)
    assert str(caught.value) == (
        "grid_size must be an integer, got 2.5; constant thinning k must be >= 1, got 0; "
        "replications must be >= 1, got 0; seed must be a non-negative integer, got -1")


def test_clt_config_rejects_bad_geometry():
    kw = dict(weight=singular(0.75), volatility=ConstantVol())
    with pytest.raises(ValueError, match="thinning exponent must lie in \\(0,1\\), got 1.5"):
        clt_experiment(kappa=1.5, **kw)
    with pytest.raises(ValueError, match=re.escape(
            "eval_point must be two coordinates in (0,1], got [0.0, 1.0]")):
        clt_experiment(eval_point=(0.0, 1.0), **kw)
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match=re.escape(f"powers must be positive, got [{bad}]")):
            clt_experiment(p=bad, **kw)
    # fractional sizes and seeds are refused, not truncated
    with pytest.raises(ValueError, match=re.escape("n must be integers, got (64, 128.5)")):
        clt_experiment(n_schedule=(64, 128.5), **kw)
    for name in ("reps", "seed", "sigma_resolution"):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got 2.5"):
            clt_experiment(**{name: 2.5}, **kw)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
        clt_experiment(seed=-3, **kw)
    with pytest.raises(ValueError, match="sigma_resolution must be >= 2, got 1"):
        clt_experiment(sigma_resolution=1, **kw)


@pytest.mark.parametrize("experiment, keywords, k_key", [
    (lln_experiment, dict(weight=UniformWeight(), volatility=ConstantVol(), n_schedule=(8.0,),
                          k=2.0, reps=2.0, grid_size=2.0, oversample=1.0, seed=4.0), "2.0"),
    (clt_experiment, dict(weight=singular(0.75), volatility=ConstantVol(), n_schedule=(16.0,),
                          reps=2.0, seed=2.0, sigma_resolution=8.0), None),
], ids=["lln", "clt"])
def test_integer_valued_sizes_come_back_as_ints(experiment, keywords, k_key):
    rep = experiment(**keywords)
    n = int(keywords["n_schedule"][0])
    entry = rep["per_n"][str(n)]
    k = entry[k_key]["k"] if k_key else entry["k"]
    assert (rep["n_schedule"], rep["reps"], rep["seed"]) == ([n], 2, keywords["seed"])
    assert all(type(v) is int for v in (*rep["n_schedule"], rep["reps"], rep["seed"], k))


def test_lln_config_rejects_a_thinning_exponent_outside_the_unit_interval():
    kw = dict(weight=singular(0.75), volatility=ConstantVol())
    for kappa in (1.5, 1.0, 0.0, -0.2):
        with pytest.raises(ValueError, match="thinning exponent must lie in \\(0,1\\)"):
            lln_experiment(kappa=kappa, **kw)
    with pytest.raises(ValueError, match="thinning exponent must lie in \\(0,1\\)"):
        lln_experiment(kappa=1.5, override_admissibility=True, **kw)


def test_clt_config_rejects_a_resolution_below_two():
    kw = dict(weight=singular(0.75), volatility=ConstantVol())
    with pytest.raises(ValueError, match="resolutions must be >= 2"):
        clt_experiment(n_schedule=(1, 8), **kw)
    with pytest.raises(ValueError, match="resolutions must be >= 2"):
        clt_experiment(n_schedule=(0,), **kw)


# --------------------------------------------------- mean-convergence runs

def _lln_uniform_config(**overrides):
    base = dict(weight=UniformWeight(), volatility=ConstantVol(sigma0=1.0),
                p_values=(2.0,), n_schedule=(16, 32), k=1, reps=8,
                grid_size=3, seed=0)
    base.update(overrides)
    return base


def test_lln_run_reproduces_the_frozen_summary():
    rep = lln_experiment(**_lln_uniform_config())
    assert rep["kind"] == "lln" and rep["flags"] == []
    st16, st32 = rep["per_n"]["16"]["2.0"], rep["per_n"]["32"]["2.0"]
    assert st16["sup_error_median"] == pytest.approx(0.09676802833797052, rel=1e-7)
    assert st32["sup_error_median"] == pytest.approx(0.074258868846376, rel=1e-7)
    assert st32["sup_error_median"] < st16["sup_error_median"]
    assert st16["raw_v_mean"] == pytest.approx(3.9326746015900262, rel=1e-7)
    assert st16["raw_v_se"] == pytest.approx(0.11267964312554035, rel=1e-7)
    # unit volatility and k = 1 make the raw variation's expectation exact:
    # n^2 c_n = 4, and both runs land well within four standard errors
    for st in (st16, st32):
        assert abs(st["raw_v_mean"] - 4.0) < 4.0 * st["raw_v_se"]


def test_lln_mean_part_is_the_floor_lattice_bias():
    # constant volatility: the conditional mean of the scaled variation is
    # floor(s n)floor(t n)/n^2 against the limit s t; the sup over the grid
    # {1/3, 2/3, 1} has an exact rational value at each n
    rep = lln_experiment(**_lln_uniform_config())
    assert rep["per_n"]["16"]["2.0"]["mean_part_median"] == pytest.approx(31.0 / 576.0, rel=1e-12)
    assert rep["per_n"]["32"]["2.0"]["mean_part_median"] == pytest.approx(1.0 / 48.0, rel=1e-12)


def test_lln_is_deterministic_given_the_config():
    a = lln_experiment(**_lln_uniform_config())
    b = lln_experiment(**_lln_uniform_config())
    a.pop("runtime_s"), b.pop("runtime_s")
    assert a == b


def test_lln_redraw_volatility_splits_each_replication_against_its_own_mean():
    rep = lln_experiment(**_lln_uniform_config(
        volatility=LogGaussianVol(), reps=1, n_schedule=(16,), grid_size=2, seed=1))
    assert rep["flags"] == ["single replication: dispersion statistics degenerate"]
    st = rep["per_n"]["16"]["2.0"]
    assert st["sup_error_median"] > 0.0
    # one replication: each median is that replication's sup, and the sup
    # distance to the limit is at most the two parts' sum (up to rounding)
    assert st["sup_error_median"] <= (
        (st["mean_part_median"] + st["stoch_part_median"]) * (1.0 + 1e-12))


def test_lln_builds_the_strip_integrals_once_per_resolution(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[2])
        return strip_covariances(*args)

    monkeypatch.setattr(variation, "strip_covariances", counted)
    rep = lln_experiment(**_lln_uniform_config(
        volatility=DeterministicVol("sine_product"), p_values=(1.0, 2.0),
        n_schedule=(16, 32), k=2, reps=2, grid_size=5))
    assert calls == [16, 32]
    assert rep["per_n"]["32"]["1.0"]["mean_part_median"] is not None


def test_lln_mean_part_vanishes_where_the_grid_lies_on_the_lattice():
    # k = 1 and n a multiple of 5 put every grid point i/5 on a corner, and
    # unit volatility makes the conditional mean there exactly the limit;
    # 0.6 * 10 = 5.999... must still count six corners
    rep = lln_experiment(**_lln_uniform_config(n_schedule=(10, 20), reps=1, grid_size=5))
    for n in (10, 20):
        assert rep["per_n"][str(n)]["2.0"]["mean_part_median"] == pytest.approx(0.0, abs=1e-12)


def test_clt_keeps_the_corners_on_the_evaluation_point():
    # n = 25 at kappa 0.4 thins by k = 7 (eps = 0.28): three corners per axis
    # lie in [0, 0.84], though 0.84 / 0.28 rounds to 2.999...
    rep = clt_experiment(**_clt_singular_config(n_schedule=(25,), eval_point=(0.84, 0.84),
                                              reps=20))
    assert rep["per_n"]["25"]["k"] == 7
    assert rep["per_n"]["25"]["dim"] == 9


def test_lln_without_an_exact_mean_flags_the_skipped_split():
    rep = lln_experiment(**_lln_uniform_config(
        weight=singular(0.75), volatility=DeterministicVol("sine_product"),
        n_schedule=(16,), reps=3))
    assert rep["flags"] == ["mean/stochastic split skipped: the singular weight has no exact "
                            "conditional expectation under deterministic volatility"]
    assert rep["per_n"]["16"]["2.0"]["mean_part_median"] is None


def test_lln_config_refuses_a_repeated_power():
    # one power twice would append each replication's statistics twice
    with pytest.raises(ValueError, match=re.escape("powers must not repeat, got [2.0, 2.0]")):
        lln_experiment(**_lln_uniform_config(p_values=(2, 2.0)))


def test_lln_config_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="grid_size must be >= 1, got 0"):
        lln_experiment(**_lln_uniform_config(grid_size=0))


def test_lln_refuses_thinning_outside_the_known_range():
    with pytest.raises(AdmissibilityError, match="override_admissibility"):
        lln_experiment(**_lln_uniform_config(k=None, kappa=0.3))
    rep = lln_experiment(**_lln_uniform_config(
        k=None, kappa=0.3, reps=1, grid_size=2, override_admissibility=True))
    assert any("override" in f for f in rep["flags"])


def test_lln_explicit_k_bypasses_the_exponent_gate():
    # a constant thinning count is a statement about the lattice, not about
    # the exponent range, so no admissibility question arises
    rep = lln_experiment(**_lln_uniform_config(reps=1, grid_size=2))
    assert rep["per_n"]["16"]["2.0"]["k"] == 1


# ------------------------------------------------------- fluctuation runs

def _clt_singular_config(**overrides):
    base = dict(weight=singular(0.75), volatility=ConstantVol(sigma0=1.0),
                p=2.0, n_schedule=(64,), kappa=0.4, reps=400,
                sigma_resolution=8, seed=0)
    base.update(overrides)
    return base


def test_clt_run_reproduces_the_frozen_summary():
    rep = clt_experiment(**_clt_singular_config())
    e = rep["per_n"]["64"]
    assert e["dim"] == 16 and e["k"] == 13
    assert e["exact_variance"] == pytest.approx(1.3203167326427208, rel=1e-9)
    assert e["asymptotic_variance"] == pytest.approx(2.0, rel=1e-9)
    assert e["sample_variance"] == pytest.approx(1.2217058147430209, rel=1e-7)
    assert abs(e["sample_variance"] - e["exact_variance"]) < 5.0 * e["variance_se"]
    assert e["kolmogorov_distance"] < 0.2
    assert e["abs_skewness_median"] is not None


def test_clt_exact_variance_tightens_toward_the_limit():
    rep = clt_experiment(**_clt_singular_config(n_schedule=(64, 128, 256), reps=2))
    exact = [rep["per_n"][str(n)]["exact_variance"] for n in (64, 128, 256)]
    assert all(a < b for a, b in zip(exact, exact[1:]))
    assert all(v < 2.0 for v in exact)
    gaps = [2.0 - v for v in exact]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("reps", [20, 24])
def test_clt_batch_medians_need_four_draws_a_batch(reps):
    # batches of two draws always read |skewness| 0 and excess kurtosis -2,
    # of three draws excess kurtosis -1.5, whatever the law
    e = clt_experiment(**_clt_singular_config(reps=reps))["per_n"]["64"]
    assert e["abs_skewness_median"] is None and e["abs_excess_kurtosis_median"] is None
    assert e["skewness"] is not None


def test_clt_batch_medians_of_four_draws_follow_the_sample():
    keys = ("abs_skewness_median", "abs_excess_kurtosis_median")
    medians = [tuple(clt_experiment(**_clt_singular_config(reps=32, seed=seed))["per_n"]["64"][key]
                     for key in keys) for seed in (0, 1)]
    assert all(isinstance(v, float) for pair in medians for v in pair)
    assert medians[0][0] != medians[1][0] and medians[0][1] != medians[1][1]


@pytest.mark.parametrize("size", [1, 2, 3, 8, 9, 40, 41])
def test_sorted_statistics_match_numpy_bit_for_bit(size):
    # np.unique, np.median and np.percentile import numpy.ma on first use
    rng = np.random.default_rng(size)
    for _ in range(40):
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9)
        x = np.abs(x) if rng.random() < 0.5 else x
        repeated = rng.choice(x, 2 * size)
        assert limits._unique(repeated).tobytes() == np.unique(repeated).tobytes()
        assert np.float64(limits._median(x)).tobytes() == np.float64(np.median(x)).tobytes()
        quartiles = np.percentile(x.tolist(), [25.0, 50.0, 75.0])
        assert limits._quartiles(x.tolist()).tobytes() == quartiles.tobytes()
    with_nan = np.append(np.arange(size, dtype=float), np.nan)
    assert np.isnan(limits._median(with_nan)) and np.all(np.isnan(limits._quartiles(with_nan)))


def test_clt_off_quadratic_powers_lose_the_closed_form():
    rep = clt_experiment(**_clt_singular_config(p=1.5, reps=50))
    assert rep["per_n"]["64"]["exact_variance"] is None
    assert any("needs p=2" in f for f in rep["flags"])
    assert rep["per_n"]["64"]["sample_variance"] > 0.0


def test_clt_single_replication_degenerates_gracefully():
    rep = clt_experiment(**_clt_singular_config(reps=1))
    e = rep["per_n"]["64"]
    assert e["sample_variance"] is None and e["skewness"] is None
    assert any("single replication" in f for f in rep["flags"])


def test_clt_refuses_the_windowed_kernel():
    with pytest.raises(AdmissibilityError, match="override_admissibility"):
        clt_experiment(UniformWeight(), ConstantVol(), n_schedule=(64,), reps=4,
                       sigma_resolution=8)


def test_clt_eval_point_must_keep_some_increments():
    with pytest.raises(ValueError, match=re.escape(
            "eval_point (0.1, 0.1) excludes every retained increment at n=64 (k_n/n = 0.203125)")):
        clt_experiment(**_clt_singular_config(eval_point=(0.1, 0.1), reps=2))


def test_clt_is_deterministic_given_the_config():
    a = clt_experiment(**_clt_singular_config(reps=50))
    b = clt_experiment(**_clt_singular_config(reps=50))
    a.pop("runtime_s"), b.pop("runtime_s")
    assert a == b
