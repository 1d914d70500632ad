import math

import pytest

from ambitlab import variation
from ambitlab.errors import AdmissibilityError
from ambitlab.kernels import SingularWeight, SlowFunction, TriangleWeight, UniformWeight
from ambitlab.limits import (
    CLTConfig,
    LLNConfig,
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
    integrated_power,
    sample_volatility,
)

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
    config = LLNConfig(weight="uniform", volatility=ConstantVol(), n_schedule=(8,), k=1, reps=1)
    with pytest.raises(TypeError, match="not a weight spec"):
        lln_experiment(config)


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
        got = clt_variance(base.scaled(c), p, (0.0, 0.0), 0.6, 0.8)
        assert got == pytest.approx(c ** (2 * p) * clt_variance(base, p, (0.0, 0.0), 0.6, 0.8),
                                    rel=1e-14)


def test_fluctuation_variance_grows_with_the_window():
    sig = sample_volatility(DeterministicVol(name="sine_product"), 64, seed=0)
    vals = [clt_variance(sig, 2.0, (0.0, 0.0), s, s) for s in (0.25, 0.5, 0.75, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------- config verification

def test_lln_config_rejects_contradictory_thinning():
    kw = dict(weight=UniformWeight(), volatility=ConstantVol())
    with pytest.raises(ValueError, match="exactly one of k and kappa"):
        LLNConfig(k=1, kappa=0.4, **kw)
    with pytest.raises(ValueError, match="exactly one of k and kappa"):
        LLNConfig(**kw)
    with pytest.raises(ValueError, match="strictly increasing"):
        LLNConfig(k=1, n_schedule=(32, 16), **kw)
    with pytest.raises(ValueError, match="at least one replication"):
        LLNConfig(k=1, reps=0, **kw)
    with pytest.raises(ValueError, match="powers must be positive"):
        LLNConfig(k=1, p_values=(2.0, -1.0), **kw)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            LLNConfig(k=1, p_values=(2.0, bad), **kw)
    # fractional sizes and seeds are refused, not truncated
    for schedule in ((8.7,), (16.9,), (8, math.inf)):
        with pytest.raises(ValueError, match="each resolution must be an integer"):
            LLNConfig(k=1, n_schedule=schedule, **kw)
    for name in ("k", "reps", "grid_size", "oversample", "seed"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            LLNConfig(**{"k": 1, name: 1.5}, **kw)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        LLNConfig(k=1, seed=-1, **kw)
    # integer-valued floats pass and are stored as ints
    cfg = LLNConfig(k=2.0, n_schedule=(8.0, 16.0), reps=3.0, grid_size=2.0,
                    oversample=1.0, seed=4.0, **kw)
    assert (cfg.k, cfg.n_schedule, cfg.reps, cfg.grid_size, cfg.oversample, cfg.seed) \
        == (2, (8, 16), 3, 2, 1, 4)
    assert all(type(v) is int for v in (cfg.k, *cfg.n_schedule, cfg.reps, cfg.seed))


def test_clt_config_rejects_bad_geometry():
    kw = dict(weight=singular(0.75), volatility=ConstantVol())
    with pytest.raises(ValueError, match="must lie in \\(0,1\\)"):
        CLTConfig(kappa=1.5, **kw)
    with pytest.raises(ValueError, match="outside \\(0,1\\]"):
        CLTConfig(eval_point=(0.0, 1.0), **kw)
    for bad in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="power must be positive and finite"):
            CLTConfig(p=bad, **kw)
    # fractional sizes and seeds are refused, not truncated
    with pytest.raises(ValueError, match="each resolution must be an integer"):
        CLTConfig(n_schedule=(64, 128.5), **kw)
    for name in ("reps", "seed", "sigma_resolution"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            CLTConfig(**{name: 2.5}, **kw)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        CLTConfig(seed=-3, **kw)
    cfg = CLTConfig(n_schedule=(64.0,), reps=10.0, seed=2.0, sigma_resolution=8.0, **kw)
    assert (cfg.n_schedule, cfg.reps, cfg.seed, cfg.sigma_resolution) == ((64,), 10, 2, 8)


def test_lln_config_rejects_a_thinning_exponent_outside_the_unit_interval():
    kw = dict(weight=singular(0.75), volatility=ConstantVol())
    for kappa in (1.5, 1.0, 0.0, -0.2):
        with pytest.raises(ValueError, match="thinning exponent must lie in \\(0,1\\)"):
            LLNConfig(kappa=kappa, **kw)
    with pytest.raises(ValueError, match="thinning exponent must lie in \\(0,1\\)"):
        LLNConfig(kappa=1.5, override_admissibility=True, **kw)


def test_clt_config_rejects_a_resolution_below_two():
    kw = dict(weight=singular(0.75), volatility=ConstantVol())
    with pytest.raises(ValueError, match="resolutions must be >= 2"):
        CLTConfig(n_schedule=(1, 8), **kw)
    with pytest.raises(ValueError, match="resolutions must be >= 2"):
        CLTConfig(n_schedule=(0,), **kw)


# --------------------------------------------------- mean-convergence runs

def _lln_uniform_config(**overrides):
    base = dict(weight=UniformWeight(), volatility=ConstantVol(sigma0=1.0),
                p_values=(2.0,), n_schedule=(16, 32), k=1, reps=8,
                grid_size=3, seed=0)
    base.update(overrides)
    return LLNConfig(**base)


def test_lln_run_reproduces_the_frozen_summary():
    rep = lln_experiment(_lln_uniform_config())
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
    rep = lln_experiment(_lln_uniform_config())
    assert rep["per_n"]["16"]["2.0"]["mean_part_median"] == pytest.approx(31.0 / 576.0, rel=1e-12)
    assert rep["per_n"]["32"]["2.0"]["mean_part_median"] == pytest.approx(1.0 / 48.0, rel=1e-12)


def test_lln_is_deterministic_given_the_config():
    a = lln_experiment(_lln_uniform_config())
    b = lln_experiment(_lln_uniform_config())
    a.pop("runtime_s"), b.pop("runtime_s")
    assert a == b


def test_lln_redraw_volatility_splits_each_replication_against_its_own_mean():
    rep = lln_experiment(_lln_uniform_config(
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
    rep = lln_experiment(_lln_uniform_config(
        volatility=DeterministicVol("sine_product"), p_values=(1.0, 2.0),
        n_schedule=(16, 32), k=2, reps=2, grid_size=5))
    assert calls == [16, 32]
    assert rep["per_n"]["32"]["1.0"]["mean_part_median"] is not None


def test_lln_mean_part_vanishes_where_the_grid_lies_on_the_lattice():
    # k = 1 and n a multiple of 5 put every grid point i/5 on a corner, and
    # unit volatility makes the conditional mean there exactly the limit;
    # 0.6 * 10 = 5.999... must still count six corners
    rep = lln_experiment(_lln_uniform_config(n_schedule=(10, 20), reps=1, grid_size=5))
    for n in (10, 20):
        assert rep["per_n"][str(n)]["2.0"]["mean_part_median"] == pytest.approx(0.0, abs=1e-12)


def test_clt_keeps_the_corners_on_the_evaluation_point():
    # n = 25 at kappa 0.4 thins by k = 7 (eps = 0.28): three corners per axis
    # lie in [0, 0.84], though 0.84 / 0.28 rounds to 2.999...
    rep = clt_experiment(_clt_singular_config(n_schedule=(25,), eval_point=(0.84, 0.84),
                                              reps=20))
    assert rep["per_n"]["25"]["k"] == 7
    assert rep["per_n"]["25"]["dim"] == 9


def test_lln_without_an_exact_mean_flags_the_skipped_split():
    rep = lln_experiment(_lln_uniform_config(
        weight=singular(0.75), volatility=DeterministicVol("sine_product"),
        n_schedule=(16,), reps=3))
    assert rep["flags"] == ["mean/stochastic split skipped: the singular weight has no exact "
                            "conditional expectation under deterministic volatility"]
    assert rep["per_n"]["16"]["2.0"]["mean_part_median"] is None


def test_lln_config_refuses_a_repeated_power():
    # one power twice would append each replication's statistics twice
    with pytest.raises(ValueError, match="powers must not repeat, got \\(2.0, 2.0\\)"):
        _lln_uniform_config(p_values=(2, 2.0))


def test_lln_config_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="grid size must be >= 1, got 0"):
        _lln_uniform_config(grid_size=0)


def test_lln_refuses_thinning_outside_the_known_range():
    with pytest.raises(AdmissibilityError, match="override_admissibility"):
        lln_experiment(_lln_uniform_config(k=None, kappa=0.3))
    rep = lln_experiment(_lln_uniform_config(
        k=None, kappa=0.3, reps=1, grid_size=2, override_admissibility=True))
    assert any("override" in f for f in rep["flags"])


def test_lln_explicit_k_bypasses_the_exponent_gate():
    # a constant thinning count is a statement about the lattice, not about
    # the exponent range, so no admissibility question arises
    rep = lln_experiment(_lln_uniform_config(reps=1, grid_size=2))
    assert rep["per_n"]["16"]["2.0"]["k"] == 1


# ------------------------------------------------------- fluctuation runs

def _clt_singular_config(**overrides):
    base = dict(weight=singular(0.75), volatility=ConstantVol(sigma0=1.0),
                p=2.0, n_schedule=(64,), kappa=0.4, reps=400,
                sigma_resolution=8, seed=0)
    base.update(overrides)
    return CLTConfig(**base)


def test_clt_run_reproduces_the_frozen_summary():
    rep = clt_experiment(_clt_singular_config())
    e = rep["per_n"]["64"]
    assert e["dim"] == 16 and e["k"] == 13
    assert e["exact_variance"] == pytest.approx(1.3203167326427208, rel=1e-9)
    assert e["asymptotic_variance"] == pytest.approx(2.0, rel=1e-9)
    assert e["sample_variance"] == pytest.approx(1.2217058147430209, rel=1e-7)
    assert abs(e["sample_variance"] - e["exact_variance"]) < 5.0 * e["variance_se"]
    assert e["kolmogorov_distance"] < 0.2
    assert e["abs_skewness_median"] is not None


def test_clt_exact_variance_tightens_toward_the_limit():
    rep = clt_experiment(_clt_singular_config(n_schedule=(64, 128, 256), reps=2))
    exact = [rep["per_n"][str(n)]["exact_variance"] for n in (64, 128, 256)]
    assert all(a < b for a, b in zip(exact, exact[1:]))
    assert all(v < 2.0 for v in exact)
    gaps = [2.0 - v for v in exact]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_clt_off_quadratic_powers_lose_the_closed_form():
    rep = clt_experiment(_clt_singular_config(p=1.5, reps=50))
    assert rep["per_n"]["64"]["exact_variance"] is None
    assert any("needs p=2" in f for f in rep["flags"])
    assert rep["per_n"]["64"]["sample_variance"] > 0.0


def test_clt_single_replication_degenerates_gracefully():
    rep = clt_experiment(_clt_singular_config(reps=1))
    e = rep["per_n"]["64"]
    assert e["sample_variance"] is None and e["skewness"] is None
    assert any("single replication" in f for f in rep["flags"])


def test_clt_refuses_the_windowed_kernel():
    with pytest.raises(AdmissibilityError, match="override_admissibility"):
        clt_experiment(CLTConfig(weight=UniformWeight(), volatility=ConstantVol(),
                                 n_schedule=(64,), reps=4, sigma_resolution=8))


def test_clt_eval_point_must_keep_some_increments():
    with pytest.raises(ValueError, match="excludes every retained increment"):
        clt_experiment(_clt_singular_config(eval_point=(0.1, 0.1), reps=2))


def test_clt_is_deterministic_given_the_config():
    a = clt_experiment(_clt_singular_config(reps=50))
    b = clt_experiment(_clt_singular_config(reps=50))
    a.pop("runtime_s"), b.pop("runtime_s")
    assert a == b
