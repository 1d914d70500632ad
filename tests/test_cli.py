import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ambitlab import cli, kernels, limits, simulate, volatility
from ambitlab.asymptotics import region_catalog
from ambitlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_REFUSED,
    ExperimentConfig,
    main,
    run,
    validate,
)
from ambitlab.errors import NotPSDError, QuadratureError
from ambitlab.kernels import SlowFunction
from ambitlab.volatility import sample_volatility

LLN_TEXT = """
kind = lln
weight.variant = uniform
volatility.variant = constant
p = 2.0
n = 16, 32
k = 1
reps = 3
grid_size = 2
seed = 0
"""

CLT_TEXT = """
kind = clt
weight.variant = singular
weight.alpha = 0.75
weight.ell = one
volatility.variant = constant
p = 2.0
n = 64
kappa = 0.4
reps = 40
sigma_resolution = 8
"""

# the keywords of the experiment that LLN_TEXT and CLT_TEXT set
LLN_KEYWORDS = dict(p_values=(2.0,), n_schedule=(16, 32), k=1, reps=3, grid_size=2, seed=0)
CLT_KEYWORDS = dict(p=2.0, n_schedule=(64,), kappa=0.4, reps=40, sigma_resolution=8, seed=0)

SIMULATE_TEXT = """
kind = simulate
weight.variant = uniform
volatility.variant = deterministic
volatility.name = sine_product
p = 2.0
n = 16
seed = 3
"""

BENCH_CONFIGS = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "configs").glob("*.cfg"))


def _config(text, **extra):
    cfg = ExperimentConfig.from_text(text)
    entries = dict(cfg.entries)
    entries.update({k: str(v) for k, v in extra.items()})
    return ExperimentConfig(entries, cfg.problems)


def _weight(entries):
    return cli._build("weight", kernels.VARIANTS, entries)[0]


def _volatility(entries):
    return cli._build("volatility", volatility.VARIANTS, entries)[0]


# -------------------------------------------------------------- config text

def test_parser_reads_comments_blanks_and_inline_notes():
    cfg = ExperimentConfig.from_text(
        "# header comment\n\nkind = hermite  # trailing note\np = 2.0\n")
    assert cfg.entries == {"kind": "hermite", "p": "2.0"}
    assert cfg.problems == ()


def test_parser_collects_line_problems_instead_of_raising():
    cfg = ExperimentConfig.from_text("kind = lln\nnonsense line\nkind = clt\n")
    assert cfg.entries["kind"] == "lln"
    assert any("expected 'key = value'" in p for p in cfg.problems)
    assert any("duplicate key 'kind'" in p for p in cfg.problems)
    assert all(isinstance(v, str) for v in validate(cfg))


def test_overrides_rewrite_entries_without_touching_the_original():
    cfg = ExperimentConfig.from_text("kind = hermite\np = 2.0\nseed = 1\n")
    out = cfg.with_overrides(seed=9, out="elsewhere")
    assert out.entries["seed"] == "9" and out.entries["out"] == "elsewhere"
    assert cfg.entries["seed"] == "1" and "out" not in cfg.entries


# -------------------------------------------------------------- validation

def test_well_formed_lln_config_has_no_violations():
    assert validate(_config(LLN_TEXT)) == []


def test_all_violations_arrive_in_one_consolidated_list():
    cfg = _config(LLN_TEXT, p="-1", n="32, 16", bogus_key="7")
    messages = validate(cfg)
    assert any("powers must be positive" in m for m in messages)
    assert any("strictly increasing" in m for m in messages)
    assert any("unknown key 'bogus_key'" in m for m in messages)
    assert len(messages) == 3


def test_validation_never_throws_even_on_garbage():
    cfg = ExperimentConfig.from_text(
        "kind = banana\nweight.variant = banana\nvolatility.variant = banana\n"
        "p = two\nn = soon\nseed = x\nkappa = much\nreps = 0\n")
    messages = validate(cfg)
    assert len(messages) >= 7
    assert any("unknown kind 'banana'" in m for m in messages)
    assert any(m.startswith("weight:") for m in messages)
    assert any(m.startswith("volatility:") for m in messages)


def test_cone_kernel_thinning_gate_names_the_interval():
    cfg = ExperimentConfig.from_text(
        "kind = asymptotics\nweight.variant = triangle\nweight.alpha = 0.75\n"
        "weight.ell = one\nn = 64, 128, 256, 512\nkappa = 0.3\n")
    messages = validate(cfg)
    assert len(messages) == 1
    assert "kappa 0.3 outside the admissible range (0, 0.2)" in messages[0]
    overridden = ExperimentConfig(dict(cfg.entries, override_admissibility="true"))
    assert validate(overridden) == []


def test_windowed_kernel_cannot_run_the_fluctuation_experiment():
    cfg = ExperimentConfig.from_text(
        "kind = clt\nweight.variant = uniform\nvolatility.variant = constant\n"
        "p = 2.0\nn = 64\nkappa = 0.4\n")
    messages = validate(cfg)
    assert len(messages) == 1
    assert "cannot hold for any thinning exponent" in messages[0]


def test_contradictory_thinning_rules_are_rejected():
    messages = validate(_config(LLN_TEXT, kappa="0.4"))
    assert any("exactly one of kappa and k" in m for m in messages)
    messages = validate(ExperimentConfig(dict(_config(CLT_TEXT).entries, k="3")))
    assert any("not both" in m for m in messages)


def test_kind_specific_requirements():
    assert any("hermite needs a p list" in m
               for m in validate(ExperimentConfig({"kind": "hermite"})))
    no_kappa = dict(_config(CLT_TEXT).entries)
    del no_kappa["kappa"]
    assert any("set kappa" in m for m in validate(ExperimentConfig(no_kappa)))
    two_p = validate(_config(CLT_TEXT, p="1.0, 2.0"))
    assert any("single power" in m for m in two_p)
    sim = ExperimentConfig({"kind": "simulate", "weight.variant": "uniform",
                            "volatility.variant": "constant", "n": "16, 32"})
    assert any("single resolution" in m for m in validate(sim))
    sim.entries.update(n="16", p="1.0, 2.0")
    assert any("single power" in m for m in validate(sim))


@pytest.mark.parametrize("path", BENCH_CONFIGS, ids=lambda p: p.stem)
def test_shipped_benchmark_configs_are_valid(path):
    assert validate(ExperimentConfig.from_file(path)) == []


@pytest.mark.parametrize("text, message", [
    (LLN_TEXT + "quad.rel_tol = 1e-15\n", "kind lln does not read key 'quad.rel_tol'"),
    ("kind = hermite\np = 2.0\nweight.variant = uniform\n",
     "kind hermite does not read key 'weight.variant'"),
    ("kind = hermite\np = 2.0\nquad.max_depth = 60\n", "unknown key 'quad.max_depth'"),
], ids=["quad-on-lln", "weight-on-hermite", "unknown-quad-key"])
def test_a_key_the_kind_never_reads_is_a_config_error(tmp_path, text, message):
    cfg = ExperimentConfig.from_text(text)
    assert validate(cfg) == [message]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (LLN_TEXT + "weight.alpha = 0.3\n",
     "weight variant uniform does not read key 'weight.alpha'"),
    (LLN_TEXT.replace("volatility.variant = constant",
                      "volatility.variant = deterministic") + "volatility.sigma0 = 3\n",
     "volatility variant deterministic does not read key 'volatility.sigma0'"),
], ids=["alpha-on-uniform", "sigma0-on-deterministic"])
def test_a_key_the_variant_never_reads_is_a_config_error(tmp_path, text, message):
    cfg = ExperimentConfig.from_text(text)
    assert validate(cfg) == [message]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()


# A value other than its default for every field of every registered variant.
_FIELD_VALUES = {
    "uniform": dict(s1=0.1, s2=0.9, t1=0.2, t2=0.8, scale=2.0),
    "singular": dict(alpha=0.3, ell=SlowFunction("smooth_cutoff"), scale=0.5),
    "triangle": dict(alpha=0.8, ell=SlowFunction("one"), scale=3.0),
    "constant": dict(sigma0=1.5),
    "deterministic": dict(name="bowl"),
    "log_gaussian": dict(mean=-0.1, variance=0.16, smooth_length=0.4),
}
_REGISTRIES = {"weight": kernels.VARIANTS, "volatility": volatility.VARIANTS}
_REGISTERED = [(group, variant) for group, registry in _REGISTRIES.items()
               for variant in registry]


def _build_every_field(group, variant):
    """``_build`` on config text that sets every field of the variant."""
    text = f"{group}.variant = {variant}\n" + "".join(
        f"{group}.{name} = {value.name if isinstance(value, SlowFunction) else value}\n"
        for name, value in _FIELD_VALUES[variant].items())
    return cli._build(group, _REGISTRIES[group], ExperimentConfig.from_text(text).entries)


@pytest.mark.parametrize("group, variant", _REGISTERED, ids=[v for _, v in _REGISTERED])
def test_every_field_of_every_variant_is_read_from_its_key(group, variant):
    built, read = _build_every_field(group, variant)
    fields = dataclasses.fields(_REGISTRIES[group][variant])
    assert sorted(_FIELD_VALUES[variant]) == sorted(field.name for field in fields)
    assert read == {f"{group}.{name}" for name in ("variant", *_FIELD_VALUES[variant])}
    for field in fields:
        default = (field.default_factory() if field.default_factory is not dataclasses.MISSING
                   else field.default)
        assert _FIELD_VALUES[variant][field.name] != default, field.name
        assert getattr(built, field.name) == _FIELD_VALUES[variant][field.name], field.name


def test_the_docstring_variant_table_lists_the_keys_each_variant_reads():
    table = cli.__doc__.split("variant        keys read besides ``variant``\n", 1)[1]
    documented, variant = {}, None
    for line in table.splitlines()[1:]:
        if line.startswith("="):
            break
        if not line.startswith(" "):
            variant = line.split()[0]
            documented[variant] = set()
        documented[variant] |= set(re.findall(r"(?:weight|volatility)\.\w+", line))
    assert documented == {variant: _build_every_field(group, variant)[1] - {f"{group}.variant"}
                          for group, variant in _REGISTERED}


@pytest.mark.parametrize("text, pairing", [
    (CLT_TEXT.replace("volatility.variant = constant", "volatility.variant = deterministic"),
     "the singular weight under non-constant volatility"),
    (CLT_TEXT.replace("variant = singular", "variant = triangle").replace(
        "kappa = 0.4", "kappa = 0.1"),
     "the triangle weight under constant volatility"),
    # a slow factor without a closed-form antiderivative has no lattice autocorrelation
    (CLT_TEXT.replace("alpha = 0.75", "alpha = 0.3").replace("ell = one", "ell = cos_quarter")
     .replace("kappa = 0.4", "kappa = 0.2").replace("n = 64", "n = 8"),
     "the singular weight under constant volatility"),
], ids=["singular-deterministic", "triangle-constant", "singular-cos-quarter-constant"])
def test_clt_without_an_exact_covariance_is_a_config_error(tmp_path, text, pairing):
    cfg = ExperimentConfig.from_text(text)
    assert validate(cfg) == [
        f"no exact increment covariance for {pairing}: it needs the uniform weight, or "
        "constant volatility and a closed-form lattice autocorrelation (singular weights "
        "with a polynomial slow factor); use the simulation route instead"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("text", [LLN_TEXT, CLT_TEXT], ids=["lln", "clt"])
def test_a_smoothing_length_past_one_is_a_config_error(tmp_path, text):
    cfg = ExperimentConfig.from_text(text.replace(
        "volatility.variant = constant",
        "volatility.variant = log_gaussian\nvolatility.smooth_length = 5"))
    assert validate(cfg) == ["volatility: smoothing length must lie in (0, 1], got 5.0"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()


def test_lln_with_a_grid_weight_is_a_config_error(tmp_path):
    path = tmp_path / "lln.cfg"
    path.write_text("kind = lln\nweight.variant = grid\n"
                    "volatility.variant = constant\nn = 8\nk = 1\np = 2\nreps = 2\n")
    assert validate(ExperimentConfig.from_file(path)) == [
        "weight: unknown weight variant 'grid'"]
    out = tmp_path / "never"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


_READS_K = {
    "lln": LLN_TEXT,
    "simulate": "kind = simulate\nweight.variant = uniform\nvolatility.variant = constant\n"
                "n = 16\n",
    "kernel-report": "kind = kernel-report\nweight.variant = uniform\nn = 16, 32\n",
}


@pytest.mark.parametrize("kind", list(_READS_K))
def test_a_constant_thinning_past_the_smallest_resolution_is_a_config_error(tmp_path, kind):
    cfg = _config(_READS_K[kind], k=20)
    assert validate(cfg) == ["constant thinning k=20 exceeds the smallest resolution n=16"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()


def test_an_empty_evaluation_grid_is_a_config_error(tmp_path):
    cfg = _config(LLN_TEXT, grid_size=0)
    assert validate(cfg) == ["grid_size must be >= 1, got 0"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()


def test_an_eval_point_before_the_first_increment_is_a_config_error(tmp_path):
    # k_n/n is 4/8 at n = 8 and 13/64 at n = 64
    cfg = _config(CLT_TEXT, n="8, 64", eval_point="0.3, 0.3")
    assert validate(cfg) == [
        "eval_point (0.3, 0.3) excludes every retained increment at n=8 (k_n/n = 0.5)"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()
    assert validate(_config(CLT_TEXT, n="8, 64", eval_point="0.5, 1")) == []


def test_a_thinned_lattice_past_the_dense_covariance_cap_is_a_config_error(tmp_path):
    # k_n = ceil(sqrt(n)) at kappa = 0.5: n // k_n is 32 at n = 1024 and 44 at n = 2048
    cfg = _config(CLT_TEXT, kappa="0.5", n="2048", **{"weight.alpha": "0.6"})
    assert validate(cfg) == [
        f"thinned lattice 44 x 44 exceeds the dense-covariance cap {simulate.DENSE_CAP}"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()
    assert validate(_config(CLT_TEXT, kappa="0.5", n="1024", **{"weight.alpha": "0.6"})) == []


# (kind, config entries, experiment keywords) breaking one rule: every key of
# the rule table, then each joint rule
_ONE_RULE = {
    "seed": ("lln", dict(seed="-1"), dict(seed=-1)),
    "p": ("lln", dict(p="2, -1"), dict(p_values=(2.0, -1.0))),
    "n": ("lln", dict(n="32, 16"), dict(n_schedule=(32, 16))),
    "kappa": ("clt", dict(kappa="1.5"), dict(kappa=1.5)),
    "k": ("lln", dict(k="0"), dict(k=0)),
    "reps": ("clt", dict(reps="0"), dict(reps=0)),
    "grid_size": ("lln", dict(grid_size="0"), dict(grid_size=0)),
    "oversample": ("lln", dict(oversample="0"), dict(oversample=0)),
    "sigma_resolution": ("clt", dict(sigma_resolution="1"), dict(sigma_resolution=1)),
    "eval_point": ("clt", dict(eval_point="2, 1"), dict(eval_point=(2.0, 1.0))),
    "k past the smallest n": ("lln", dict(k="20"), dict(k=20)),
    "kappa and k": ("lln", dict(kappa="0.4", override_admissibility="true"),
                    dict(kappa=0.4, override_admissibility=True)),
    "eval_point before the first increment": (
        "clt", dict(n="8, 64", eval_point="0.3, 0.3"),
        dict(n_schedule=(8, 64), eval_point=(0.3, 0.3))),
}


def test_the_one_rule_cases_cover_the_rule_table():
    assert set(limits._RULES) <= set(_ONE_RULE)


@pytest.mark.parametrize("rule", list(_ONE_RULE))
def test_a_broken_rule_reads_the_same_in_validate_and_in_the_experiment(rule):
    kind, entries, keywords = _ONE_RULE[rule]
    text, base = {"lln": (LLN_TEXT, LLN_KEYWORDS), "clt": (CLT_TEXT, CLT_KEYWORDS)}[kind]
    cfg = _config(text, **entries)
    [message] = validate(cfg)
    experiment = getattr(limits, f"{kind}_experiment")
    with pytest.raises(ValueError) as caught:
        experiment(_weight(cfg.entries), _volatility(cfg.entries), **dict(base, **keywords))
    assert message in str(caught.value).split("; ")


def test_a_cone_window_narrower_than_its_edge_bands_is_a_config_error(tmp_path):
    # k_n = n at kappa = 0.05 and n <= 8: the window edge sits at height 1/2,
    # below the 2/n-deep edge bands at n = 2 only
    path = tmp_path / "cone.cfg"
    path.write_text("kind = asymptotics\nweight.variant = triangle\nweight.alpha = 0.6\n"
                    "weight.ell = one\nkappa = 0.05\nn = 2, 4, 8\n")
    messages = validate(ExperimentConfig.from_file(path))
    assert len(messages) == 1
    assert messages[0].startswith("region catalog at n=2: cone cross-section")
    out = tmp_path / "never"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("text", [LLN_TEXT, "kind = hermite\np = 2.0\n"], ids=["lln", "hermite"])
def test_a_repeated_power_is_a_config_error(tmp_path, text):
    # lln would append each replication's statistics twice, hermite would
    # write both tables to one file
    cfg = _config(text, p="2, 2.0")
    assert validate(cfg) == ["powers must not repeat, got [2.0, 2.0]"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()


def test_hermite_powers_sharing_a_table_name_are_a_config_error(tmp_path):
    cfg = ExperimentConfig.from_text("kind = hermite\np = 1.0000001, 1.0000002, 2\n")
    assert validate(cfg) == [
        "powers [1.0000001, 1.0000002, 2.0] would share hermite_p1.csv"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()
    assert validate(ExperimentConfig.from_text("kind = hermite\np = 1, 1.5\n")) == []


def test_an_asymptotics_config_is_refused_at_each_n_without_a_region_catalog(tmp_path):
    cfg = ExperimentConfig({"kind": "asymptotics", "weight.variant": "uniform",
                            "n": "8, 16", "kappa": "0.4", "override_admissibility": "true"})
    assert validate(cfg) == [
        f"region catalog at n={n}: region catalogs exist for the corner-singular and "
        "cone kernels only; got UniformWeight" for n in (8, 16)]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()


def test_validate_flags_exactly_the_region_catalogs_that_cannot_be_built():
    weights = {
        "uniform": {"weight.variant": "uniform"},
        "singular": {"weight.variant": "singular", "weight.alpha": "0.75"},
        "triangle": {"weight.variant": "triangle", "weight.alpha": "0.6"},
    }
    refused = set()
    for name, keys in weights.items():
        for n, kappa in ((2, 0.05), (4, 0.05), (8, 0.4), (64, 0.15)):
            entries = {"kind": "asymptotics", **keys, "n": str(n), "kappa": str(kappa)}
            flagged = [message for message in validate(ExperimentConfig(entries))
                       if message.startswith(f"region catalog at n={n}: ")]
            try:
                region_catalog(_weight(entries), n, kappa)
            except ValueError as exc:
                assert flagged == [f"region catalog at n={n}: {exc}"]
                refused.add((name, n))
            else:
                assert flagged == []
    # the cone is too narrow for its edge bands at n = 2 only
    assert refused == {("uniform", n) for n in (2, 4, 8, 64)} | {("triangle", 2)}


# ------------------------------------------------------------ run: failures

def test_invalid_config_exits_nonzero_and_writes_nothing(tmp_path):
    out = tmp_path / "never"
    cfg = _config(LLN_TEXT, p="-1", out=str(out))
    assert run(cfg) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("text", [LLN_TEXT, CLT_TEXT, SIMULATE_TEXT],
                         ids=["lln", "clt", "simulate"])
def test_a_negative_seed_is_a_config_error_in_the_file_and_on_the_command_line(tmp_path, text):
    cfg = _config(text, seed=-1)
    assert validate(cfg) == ["seed must be a non-negative integer, got -1"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert main(["--config", str(path), "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG
    assert not out.exists()


def test_inadmissible_thinning_is_a_distinct_refusal_exit(tmp_path):
    out = tmp_path / "never"
    cfg = ExperimentConfig({
        "kind": "asymptotics", "weight.variant": "triangle",
        "weight.alpha": "0.75", "weight.ell": "one",
        "n": "64, 128, 256, 512", "kappa": "0.3", "out": str(out),
    })
    assert run(cfg) == EXIT_REFUSED
    assert not out.exists()


def test_unreachable_quadrature_tolerance_is_a_numerical_exit(tmp_path, capsys):
    out = tmp_path / "tight"
    cfg = ExperimentConfig({
        "kind": "asymptotics", "weight.variant": "singular",
        "weight.alpha": "0.75", "weight.ell": "one",
        "n": "64, 128, 256, 512", "kappa": "0.4",
        "quad.rel_tol": "1e-15", "quad.abs_tol": "1e-300", "out": str(out),
    })
    assert run(cfg) == EXIT_NUMERICAL
    # the report lands last: its absence marks the run incomplete
    assert not (out / "report.json").exists()
    err = capsys.readouterr().err
    assert "did not stabilize" in err and "np.float64" not in err


@pytest.mark.parametrize("text", [
    "kind = asymptotics\nweight.variant = singular\nweight.alpha = 0.9\n"
    "weight.ell = one_minus_s\nn = 4\nkappa = 0.2\n",
    "kind = asymptotics\nweight.variant = singular\nweight.alpha = 0.9\nn = 2\nkappa = 0.4\n",
    "kind = kernel-report\nweight.variant = triangle\nweight.alpha = 0.9\n"
    "weight.ell = one_minus_s\nweight.scale = 3\nn = 5, 11, 16\nquad.abs_tol = 1e-12\n",
], ids=["singular-region", "singular-plain", "triangle-c_n"])
def test_a_tight_quadrature_tolerance_is_met(tmp_path, text):
    # the graded panels take more nodes at a tolerance of 1e-10 than at the
    # default, so the two resolutions agree to it
    out = tmp_path / "tight"
    cfg = _config(text, out=str(out), **{"quad.rel_tol": "1e-10"})
    assert run(cfg) == EXIT_OK
    assert (out / "report.json").exists()


@pytest.mark.parametrize("variant, rel_tol", [
    ("singular", "1e-12"), ("singular", "1e-14"), ("triangle", "1e-14"),
])
def test_a_kernel_report_meets_a_tolerance_near_the_float_resolution(tmp_path, variant, rel_tol):
    # the grading reaches further as rel_tol falls; at a reach of 4^-20 each exits 3
    out = tmp_path / "tight"
    cfg = ExperimentConfig({
        "kind": "kernel-report", "weight.variant": variant, "weight.alpha": "0.75",
        "weight.ell": "one", "n": "16, 32", "kappa": "0.4", "quad.rel_tol": rel_tol,
        "out": str(out),
    })
    assert run(cfg) == EXIT_OK
    assert (out / "report.json").exists()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the window side 1/2 + eps/2 rounds off the shifted cone apex; "
                          "near_mass's two resolutions disagree by 1.7e-8 relative")
def test_a_cone_kernel_report_at_a_shifted_apex_converges(tmp_path, capsys):
    cfg = ExperimentConfig.from_text(
        "kind = kernel-report\nweight.variant = triangle\nweight.alpha = 0.75\n"
        "weight.ell = one_minus_s\nn = 19\nk = 2\n")
    assert run(cfg.with_overrides(out=tmp_path / "report")) == EXIT_OK, capsys.readouterr().err


def test_a_simulate_run_names_its_failing_c_n(tmp_path, capsys):
    # next to the integrability edge the graded tail past the reach misses 1e-12
    out = tmp_path / "tight"
    cfg = ExperimentConfig({
        "kind": "simulate", "weight.variant": "singular", "weight.alpha": "0.99",
        "volatility.variant": "constant", "n": "16", "quad.rel_tol": "1e-12",
        "out": str(out),
    })
    assert validate(cfg) == []
    assert run(cfg) == EXIT_NUMERICAL
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical: c_n at n=16: lower half {t < s}: singular mass at n=16: ")


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_a_weight_scale_that_is_not_finite_is_a_config_error(tmp_path, scale):
    out = tmp_path / "scale"
    cfg = _config(LLN_TEXT, n="8", out=str(out), **{"weight.scale": scale})
    assert validate(cfg) == [f"weight: scale must be positive and finite, got {float(scale)}"]
    assert run(cfg) == EXIT_CONFIG
    assert not out.exists()


def test_a_log_field_mean_that_is_not_finite_is_a_config_error(tmp_path):
    out = tmp_path / "mean"
    cfg = _config(LLN_TEXT, n="8", out=str(out),
                  **{"volatility.variant": "log_gaussian", "volatility.mean": "nan"})
    assert validate(cfg) == ["volatility: log-field mean must be finite, got nan"]
    assert run(cfg) == EXIT_CONFIG
    assert not out.exists()


def test_a_volatility_draw_outside_float_range_is_a_numerical_exit(tmp_path, capsys):
    out = tmp_path / "wide"
    cfg = _config(LLN_TEXT, n="8", out=str(out),
                  **{"volatility.variant": "log_gaussian", "volatility.variance": "1e6"})
    assert validate(cfg) == []
    assert run(cfg) == EXIT_NUMERICAL
    assert not (out / "report.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("numerical: log-Gaussian volatility") and "float range" in err


@pytest.mark.parametrize("text, p, refused", [
    ("kind = hermite\n", "400", True),
    ("kind = hermite\n", "160", True),   # m_2p overflows
    ("kind = hermite\n", "150", False),
    (CLT_TEXT, "160", True),
    (LLN_TEXT, "302", True),
    (LLN_TEXT, "160", False),             # lln reads m_p only
], ids=["hermite-p", "hermite-2p", "hermite-ok", "clt-2p", "lln-p", "lln-ok"])
def test_a_power_whose_moment_overflows_is_a_config_error(tmp_path, text, p, refused):
    q = float(p) * (1.0 if text is LLN_TEXT else 2.0)
    cfg = _config(text, p=p, out=str(tmp_path / "moment"))
    if not refused:
        assert validate(cfg) == []
        return
    assert validate(cfg) == [f"power {p}: the absolute moment m_q overflows float at q={q:g}"]
    assert run(cfg) == EXIT_CONFIG
    assert not (tmp_path / "moment").exists()


def test_indefinite_covariance_is_a_numerical_exit(tmp_path, monkeypatch):
    # the exit status follows the exception type, whatever its message says
    def indefinite(cov, seed, reps):
        raise NotPSDError("sampler refused the covariance")

    monkeypatch.setattr(limits, "sample_increments_exact", indefinite)
    out = tmp_path / "indefinite"
    assert run(_config(CLT_TEXT, n="16", out=str(out))) == EXIT_NUMERICAL
    assert not (out / "report.json").exists()


def test_a_window_narrower_than_a_noise_cell_is_a_numerical_exit(tmp_path, capsys):
    # at n = 8 and oversample 1 no noise-cell midpoint offset lies in [0.5, 0.52]:
    # the simulated field would be identically 0
    out = tmp_path / "narrow"
    cfg = _config(LLN_TEXT, n="8", out=str(out), **{"weight.s1": "0.5", "weight.s2": "0.52"})
    assert run(cfg) == EXIT_NUMERICAL
    assert not out.exists()
    err = capsys.readouterr().err
    assert "at n=8, M=16" in err and "raise oversample" in err


def test_a_clt_statistic_past_double_precision_is_a_numerical_exit(tmp_path, capsys):
    # |increment|^100 spans more than double precision resolves: a batch of
    # eight replications rounds to one value, and its shape moments are 0/0
    out = tmp_path / "power"
    cfg = ExperimentConfig({
        "kind": "clt", "weight.variant": "uniform", "volatility.variant": "constant",
        "n": "8", "kappa": "0.5", "p": "100", "reps": "64",
        "override_admissibility": "true", "out": str(out),
    })
    assert validate(cfg) == []
    assert run(cfg) == EXIT_NUMERICAL
    assert not out.exists()
    err = capsys.readouterr().err
    assert "clt statistic abs_skewness_median at n=8 is nan" in err


def _unstable(*args):
    raise QuadratureError("mass did not stabilize")


@pytest.mark.parametrize("weight, job, column", [
    ("variant = uniform", 0, "c_n"),
    ("variant = uniform", 1, "corner_11"),
    ("variant = singular\nweight.alpha = 0.6", 1, "near_mass"),
], ids=["c_n", "corner", "near_mass"])
def test_a_kernel_report_numerical_exit_names_its_column_and_n(
        tmp_path, monkeypatch, capsys, weight, job, column):
    # c_n and the cells are one batch, whose error names the failing job
    def unstable(*args):
        raise QuadratureError("mass did not stabilize", job=job)

    monkeypatch.setattr(cli, "mu_masses", unstable)
    out = tmp_path / "report"
    cfg = ExperimentConfig.from_text(f"kind = kernel-report\nweight.{weight}\nn = 8\nkappa = 0.4\n")
    assert run(cfg.with_overrides(out=out)) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        f"numerical: column {column!r} at n=8: mass did not stabilize\n")
    assert not out.exists()


@pytest.mark.parametrize("weight", [
    "variant = uniform", "variant = singular\nweight.alpha = 0.6",
    "variant = triangle\nweight.alpha = 0.75",
], ids=["uniform", "singular", "triangle"])
def test_a_kernel_report_integrates_each_n_in_one_engine_call(tmp_path, monkeypatch, weight):
    calls, integrate = [], kernels.integrate_pieces

    def counted(f, jobs, *args, **kwargs):
        calls.append(len(jobs))
        return integrate(f, jobs, *args, **kwargs)

    monkeypatch.setattr(kernels, "integrate_pieces", counted)
    kernels.mu_masses.cache_clear()
    cfg = ExperimentConfig.from_text(f"kind = kernel-report\nweight.{weight}\nn = 8, 16\nkappa = 0.1\n")
    assert run(cfg.with_overrides(out=tmp_path / "report")) == EXIT_OK
    assert len(calls) == 2


@pytest.mark.parametrize("text, module, stage", [
    (LLN_TEXT, limits, "c_n"),
    (CLT_TEXT, simulate, "increment covariance"),
], ids=["lln", "clt"])
def test_an_experiment_numerical_exit_names_its_stage_and_n(
        tmp_path, monkeypatch, capsys, text, module, stage):
    monkeypatch.setattr(module, "compute_cn", _unstable)
    out = tmp_path / "stage"
    assert run(_config(text, n="16", out=str(out))) == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical: {stage} at n=16: mass did not stabilize\n"
    assert not out.exists()


# ------------------------------------------------------------- run: reports

def test_run_builds_the_weight_and_the_volatility_once(tmp_path, monkeypatch):
    calls = {"weight": 0, "volatility": 0}

    build = cli._build

    def counted(group, registry, entries):
        calls[group] += 1
        return build(group, registry, entries)

    monkeypatch.setattr(cli, "_build", counted)
    assert run(_config(LLN_TEXT, n="16", out=str(tmp_path / "once"))) == EXIT_OK
    assert calls == {"weight": 1, "volatility": 1}


def test_hermite_report_carries_the_rank_two_signature(tmp_path):
    out = tmp_path / "herm"
    cfg = ExperimentConfig({"kind": "hermite", "p": "1.0, 2.0", "out": str(out)})
    assert run(cfg) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    table = report["results"]["per_p"]["2.0"]
    assert table["alpha_2"] == pytest.approx(2.0, abs=1e-10)
    assert table["parseval_total"] == pytest.approx(2.0, abs=1e-4)
    p1 = report["results"]["per_p"]["1.0"]
    assert p1["parseval_target"] == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-12)
    lines = (out / "hermite_p2.csv").read_text().splitlines()
    assert lines[0] == "k,alpha,partial_parseval"
    assert len(lines) == 62  # header + orders 0..60
    assert lines[3].startswith(f"2,{table['alpha_2']!r},")
    assert report["files"] == ["hermite_p1.csv", "hermite_p2.csv"]


def test_lln_with_a_window_narrower_than_a_cell_runs(tmp_path):
    # the s-strips are 0.02 wide, narrower than a cell, so c_n = 4 * (s2 - s1) * (1/n);
    # the run divides by it.  At oversample 4 the noise-cell midpoint offset 33/64
    # lies in the window (at oversample 1 none does, and the run is refused)
    path = tmp_path / "narrow.cfg"
    path.write_text("kind = lln\nweight.variant = uniform\nweight.s1 = 0.5\nweight.s2 = 0.52\n"
                    "volatility.variant = constant\nn = 8\nk = 1\np = 2\nreps = 2\n"
                    "oversample = 4\n")
    out = tmp_path / "narrow"
    assert main(["--config", str(path), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["per_n"]["8"]["2.0"]["c_n"] == pytest.approx(4.0 * 0.02 / 8, rel=1e-13)


def test_a_uniform_lln_with_a_midpoint_offset_on_the_window_edge_runs(tmp_path):
    # at n = 17 and oversample 2 a noise-cell midpoint offset lands on the edge 0.25
    out = tmp_path / "edge"
    assert run(_config(LLN_TEXT, n="17", oversample=2, out=str(out))) == EXIT_OK
    assert (out / "report.json").exists()


def test_kernel_report_tabulates_the_exact_window_masses(tmp_path):
    out = tmp_path / "kern"
    cfg = ExperimentConfig({"kind": "kernel-report", "weight.variant": "uniform",
                            "n": "8, 16, 32", "out": str(out)})
    assert run(cfg) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    for n in (8, 16, 32):
        row = report["results"]["per_n"][str(n)]
        assert row["c_n"] == pytest.approx(4.0 / n**2, rel=1e-10)
        for corner in ("corner_11", "corner_12", "corner_21", "corner_22"):
            assert row[corner] == pytest.approx(0.25, abs=1e-8)
    header = (out / "kernel_report.csv").read_text().splitlines()[0]
    assert header.startswith("n,c_n,k,eps,corner_")


def test_kernel_report_near_mass_is_the_window_share_behind_the_assumption2_ratio(tmp_path):
    # single-atom evidence for hypothesis 1: the window's share rises toward 1
    weight = {"weight.variant": "singular", "weight.alpha": "0.75", "weight.ell": "one"}
    schedule = (8, 16, 32, 64)
    tables = {}
    for kind in ("kernel-report", "asymptotics"):
        out = tmp_path / kind
        assert run(ExperimentConfig({"kind": kind, **weight, "kappa": "0.4", "out": str(out),
                                     "n": ", ".join(map(str, schedule))})) == EXIT_OK
        tables[kind] = json.loads((out / "report.json").read_text())["results"]
    rows = tables["kernel-report"]["per_n"]
    near = [rows[str(n)]["near_mass"] for n in schedule]
    assert all(a < b < 1.0 for a, b in zip(near, near[1:]))
    ratios = tables["asymptotics"]["assumption2_ratio"]
    for n in schedule:
        row = rows[str(n)]
        assert (1.0 - row["near_mass"]) / row["eps"] ** 2 == ratios[str(n)]
    assert ratios["32"] == pytest.approx(0.03209544412811027, rel=1e-9)


def test_lln_run_embeds_config_and_seed_and_writes_the_table(tmp_path):
    out = tmp_path / "lln"
    cfg = _config(LLN_TEXT, out=str(out))
    assert run(cfg) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 0
    assert report["config"]["weight.variant"] == "uniform"
    assert report["config"]["reps"] == "3"
    assert set(report["results"]["per_n"]) == {"16", "32"}
    assert "sup_error" in report["targets"]
    lines = (out / "lln.csv").read_text().splitlines()
    assert lines[0] == "n,p,stat,value"
    assert any(line.startswith("16,2.0,sup_error_median,") for line in lines)
    assert "16,2.0,k,1.0" in lines  # the integer k is written as a float
    per_n = report["results"]["per_n"]
    assert sorted(lines[1:]) == sorted(
        f"{n},{p},{stat},{float(val)!r}" for n, by_p in per_n.items()
        for p, table in by_p.items() for stat, val in table.items() if val is not None)


def test_clt_run_reports_the_variance_ladder(tmp_path):
    out = tmp_path / "clt"
    cfg = _config(CLT_TEXT, out=str(out))
    assert run(cfg) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    row = report["results"]["per_n"]["64"]
    assert row["exact_variance"] == pytest.approx(1.3203167326427208, rel=1e-9)
    assert row["asymptotic_variance"] == pytest.approx(2.0, rel=1e-9)
    assert abs(row["sample_variance"] - row["exact_variance"]) < 5 * row["variance_se"]
    assert (out / "clt.csv").read_text().splitlines()[0] == "n,stat,value"


def test_clt_csv_skips_the_statistics_a_single_replication_lacks(tmp_path):
    out = tmp_path / "clt"
    assert run(_config(CLT_TEXT, reps="1", out=str(out))) == EXIT_OK
    row = json.loads((out / "report.json").read_text())["results"]["per_n"]["64"]
    assert row["sample_variance"] is None
    lines = (out / "clt.csv").read_text().splitlines()
    assert lines[0] == "n,stat,value"
    assert sorted(lines[1:]) == sorted(
        f"64,{stat},{float(val)!r}" for stat, val in row.items() if val is not None)
    assert not any(",sample_variance," in line for line in lines)  # skipped, not invented


@pytest.mark.parametrize("kind, text, experiment, keywords", [
    ("lln", LLN_TEXT, limits.lln_experiment, LLN_KEYWORDS),
    ("clt", CLT_TEXT, limits.clt_experiment, CLT_KEYWORDS),
])
def test_experiment_runs_write_the_experiment_dict_in_schedule_order(
        tmp_path, kind, text, experiment, keywords):
    out = tmp_path / kind
    cfg = _config(text, n="8, 16", out=str(out))
    assert run(cfg) == EXIT_OK
    # string keys sort "16" before "8": the rows must follow the schedule
    ns = [line.split(",")[0] for line in (out / f"{kind}.csv").read_text().splitlines()[1:]]
    assert ns == sorted(ns, key=int) and set(ns) == {"8", "16"}
    results = json.loads((out / "report.json").read_text())["results"]
    expected = experiment(_weight(cfg.entries), _volatility(cfg.entries),
                          **dict(keywords, n_schedule=(8, 16)))
    results.pop("runtime_s"), expected.pop("runtime_s")
    assert results == expected


def test_asymptotics_run_recovers_the_core_decay_rate(tmp_path):
    out = tmp_path / "asym"
    cfg = ExperimentConfig({
        "kind": "asymptotics", "weight.variant": "singular",
        "weight.alpha": "0.75", "weight.ell": "one",
        "n": "64, 128, 256, 512", "kappa": "0.4", "out": str(out),
    })
    assert run(cfg) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["admissible_kappa"] == "(0, 0.555556)"
    slope = report["results"]["slopes"]["Etilde"]["exponent"]
    assert slope == pytest.approx(-0.5, abs=1e-6)
    assert "skipped" in report["results"]["slopes"]["B3"]  # mass exactly 0
    ratios = [report["results"]["assumption2_ratio"][str(n)]
              for n in (64, 128, 256, 512)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    lines = (out / "region_measures.csv").read_text().splitlines()
    assert lines[:2] == ["# squared-kernel mass by catalog region", "n,region,mass"]
    assert f"64,Etilde,{report['results']['per_n']['64']['Etilde']!r}" in lines
    assert (out / "assumption2.csv").read_text().splitlines()[0] == "n,ratio"


def test_simulate_run_writes_field_sigma_and_variation(tmp_path):
    out = tmp_path / "sim"
    cfg = _config(SIMULATE_TEXT, out=str(out))
    assert run(cfg) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["files"] == ["field.csv", "sigma.csv", "variation.csv"]
    assert report["results"]["n"] == 16 and report["results"]["M"] == 32
    assert report["results"]["field_min"] < report["results"]["field_max"]

    # field.csv and sigma.csv load back to the arrays the run drew, bit for bit
    sigma = sample_volatility(_volatility(cfg.entries), 32, seed=3)
    weight = _weight(cfg.entries)
    field, check_error = simulate.simulate_lattice(weight, sigma, 16, 32, seed=3, rep=0)
    assert (out / "field.csv").read_text().splitlines()[0] == (
        f"# lattice field: n=16 weight={repr(weight)!r} n=16 M=32 noise_seed=3 noise_rep=0 "
        f"sigma_seed=3 direct_check_error={check_error}")
    for name, values, header in (
            ("field.csv", field, "# lattice field: n=16 weight='UniformWeight("),
            ("sigma.csv", sigma.values,
             "# volatility grid: resolution=32 model=DeterministicVol seed=3")):
        assert (out / name).read_text().startswith(header)
        assert np.array_equal(np.loadtxt(out / name, delimiter=",", comments="#"), values)

    lines = (out / "variation.csv").read_text().splitlines()
    assert lines[0].startswith("# power variation field: p=2.0 k=1 n=16 eps=0.0625 c_n=")
    assert lines[1] == "s,t,value"
    assert len(lines) == 2 + 17 * 17
    assert lines[-1] == f"1.0,1.0,{report['results']['scaled_variation_at_11']!r}"


# ------------------------------------------------------------- determinism

def test_identical_configs_reproduce_identical_csv_bytes(tmp_path):
    for kind, text in (("lln", LLN_TEXT), ("simulate", SIMULATE_TEXT)):
        out_a, out_b = tmp_path / kind / "a", tmp_path / kind / "b"
        assert run(_config(text, out=str(out_a))) == EXIT_OK
        assert run(_config(text, out=str(out_b))) == EXIT_OK
        for name in json.loads((out_a / "report.json").read_text())["files"]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_seed_changes_the_numbers_and_is_echoed(tmp_path):
    out_a, out_b = tmp_path / "s0", tmp_path / "s9"
    assert run(_config(LLN_TEXT, out=str(out_a))) == EXIT_OK
    assert run(_config(LLN_TEXT, out=str(out_b), seed="9")) == EXIT_OK
    assert (out_a / "lln.csv").read_bytes() != (out_b / "lln.csv").read_bytes()
    assert json.loads((out_b / "report.json").read_text())["seed"] == 9


# ---------------------------------------------------- property: config text

# (valid, invalid) choices for each key; n stays at most 16, so every run is
# quick.  A valid choice can still break a rule that ties keys together.
_CHOICES = {
    "seed": (("0", "7"), ("-1", "x")),
    "kappa": (("0.05", "0.2", "0.4", "0.6", "0.9"), ("0", "1.5")),
    "k": (("1", "2", "3"), ("0", "20")),
    "reps": (("1", "2", "5", "20"), ("0",)),
    "grid_size": (("1", "2"), ("0",)),
    "oversample": (("1", "2"), ("0",)),
    "sigma_resolution": (("2", "8"), ("1",)),
    "eval_point": (("1, 1", "0.5, 0.75", "0.01, 0.01"), ("2, 1",)),
    "quad.rel_tol": (("1e-8", "1e-10", "1e-15"), ("0",)),
    "quad.abs_tol": (("1e-12", "1e-300"), ("-1",)),
    "override_admissibility": (("true", "false"), ("maybe",)),
    "weight.variant": (tuple(kernels.VARIANTS), ("grid",)),
    "volatility.variant": (tuple(volatility.VARIANTS), ("mystery",)),
    # the variant fields, by field name
    "s1": (("0", "0.25", "0.5"), ("-0.5",)),
    "s2": (("0.52", "0.75", "1"), ("0.1",)),
    "t1": (("0", "0.25", "0.5"), ("2",)),
    "t2": (("0.6", "0.75", "1"), ("x",)),
    "scale": (("1", "0.5", "3"), ("0", "nan")),
    "alpha": (("0.3", "0.6", "0.75", "0.9"), ("1.2",)),
    "ell": (("one", "one_minus_s", "cos_quarter", "smooth_cutoff"), ("bogus",)),
    "sigma0": (("1", "2.5"), ("0",)),
    "name": (("sine_product", "gentle_slope", "bowl"), ("nope",)),
    "mean": (("0", "-0.5"), ("nan",)),
    "variance": (("0.25", "1", "1e6"), ("0",)),
    "smooth_length": (("0.05", "0.25", "1"), ("5",)),
    "p": (("0.5", "1", "1.5", "2", "3", "1, 2"), ("-1", "nan", "160", "2, 2")),
    "n": (("2", "4", "8", "16", "4, 8", "5, 11, 16", "7"), ("1", "8, 4")),
}
# keys some other kind or variant reads, and bare field names, which no config reads
_STRAY_KEYS = (*_CHOICES, *dict.fromkeys(
    f"{group}.{field.name}" for group, registry in _REGISTRIES.items()
    for cls in registry.values() for field in dataclasses.fields(cls)))


def _choice(draw, key, flawed):
    """A valid choice for ``key``; in a flawed config, one time in four an invalid one."""
    valid, invalid = _CHOICES[key]
    return draw(st.sampled_from(invalid if flawed and draw(st.integers(0, 3)) == 0 else valid))


@st.composite
def _config_texts(draw):
    """Config text for one kind: the keys it needs, some it reads, now and then
    one it does not read."""
    kind = draw(st.sampled_from((*cli._KINDS, "banana")))
    row = cli._KINDS.get(kind, cli._KindKeys(()))
    needed = {draw(st.sampled_from(need.split("|"))) for need in row.needs}
    flawed = draw(st.booleans())
    entries = {"kind": kind}
    for key in ("seed", *row.reads):
        if key in ("weight.", "volatility."):
            group = key[:-1]
            entries[f"{group}.variant"] = variant = _choice(draw, f"{group}.variant", flawed)
            cls = _REGISTRIES[group].get(variant)
            for field in dataclasses.fields(cls) if cls is not None else ():
                required = field.default is field.default_factory is dataclasses.MISSING
                if required or draw(st.booleans()):
                    entries[f"{group}.{field.name}"] = _choice(draw, field.name, flawed)
        elif key in needed or (key not in ("kappa", "k") and draw(st.booleans())):
            entries[key] = _choice(draw, key, flawed)
    if draw(st.integers(0, 7)) == 0:
        stray = draw(st.sampled_from(_STRAY_KEYS))
        name = stray if stray in _CHOICES else stray.rpartition(".")[2]
        entries.setdefault(stray, _choice(draw, name, flawed))
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def _finite_cells(path):
    """Whether every number in a table or matrix file is finite."""
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # a header or a label
            if not math.isfinite(value):
                return False
    return True


@settings(max_examples=500, suppress_health_check=[HealthCheck.too_slow])
@given(text=_config_texts())
def test_every_config_text_exits_with_a_status_and_leaves_a_whole_report_or_nothing(text):
    cfg = ExperimentConfig.from_text(text)
    _, violations, refusals = cli._parse(cfg)
    assert validate(cfg) == violations + refusals
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        status = run(cfg.with_overrides(out=out))
        assert status in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_REFUSED)
        # validate is empty exactly when run passes validation; a refusal alone exits 4
        assert (status == EXIT_CONFIG) == bool(violations)
        assert not refusals or status in (EXIT_CONFIG, EXIT_REFUSED)
        if status != EXIT_OK:
            assert not out.exists()
            return
        files = json.loads((out / "report.json").read_text())["files"]
        assert sorted(path.name for path in out.iterdir()) == sorted([*files, "report.json"])
        assert all(_finite_cells(out / name) for name in files)


# ------------------------------------------------------------- entry point

def test_main_runs_a_config_file_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(LLN_TEXT)
    out = tmp_path / "cli_out"
    status = main(["--config", str(cfg_path), "--out", str(out), "--seed", "9"])
    assert status == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 9
    assert report["config"]["out"] == str(out)


def test_main_reports_unreadable_config_as_a_config_error(tmp_path, capsys):
    status = main(["--config", str(tmp_path / "missing.cfg")])
    assert status == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


def test_main_override_flag_unlocks_a_refused_run(tmp_path):
    cfg_path = tmp_path / "tri.cfg"
    cfg_path.write_text(
        "kind = asymptotics\nweight.variant = triangle\nweight.alpha = 0.75\n"
        "weight.ell = one\nn = 64, 128, 256, 512\nkappa = 0.15\n")
    out = tmp_path / "tri_out"
    refused = main(["--config", str(cfg_path), "--out", str(out)])
    assert refused == EXIT_OK  # kappa 0.15 is inside (0, 0.2): no refusal
    cfg_path.write_text(cfg_path.read_text().replace("kappa = 0.15", "kappa = 0.3"))
    assert main(["--config", str(cfg_path), "--out", str(out)]) == EXIT_REFUSED
    unlocked = main(["--config", str(cfg_path), "--out", str(out),
                     "--override-admissibility"])
    assert unlocked == EXIT_OK


def _fresh_python(code, *args):
    """Standard output of ``code`` run by a fresh interpreter that imports this ambitlab."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout


def test_importing_the_cli_loads_no_scipy_module():
    # scipy.special alone costs a fresh interpreter about a third of a second
    probe = "import sys, ambitlab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _fresh_python(probe).strip() == "[]"


def test_a_run_imports_no_module(tmp_path):
    # numpy loads some submodules on first use; a run that did would time the
    # import.  numpy.ma is not even loaded with the CLI: only hermite needs it,
    # through scipy.special.
    probe = """
import contextlib, io, json, sys
from ambitlab import cli
masked = ["numpy.ma" in sys.modules]
configs = [cli.ExperimentConfig.from_text(text).with_overrides(out=out)
           for text, out in json.loads(sys.argv[1])]
problems = [cli.validate(config) for config in configs]
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(config) for config in configs]
masked.append("numpy.ma" in sys.modules)
print(json.dumps([problems, codes, sorted(set(sys.modules) - before), masked]))
"""
    lln = LLN_TEXT.replace("n = 16, 32", "n = 16")
    clt = CLT_TEXT.replace("reps = 40", "reps = 8")
    jobs = [(lln, str(tmp_path / "lln")), (clt, str(tmp_path / "clt"))]
    # the benchmark configs of lln, clt, asymptotics, simulate and kernel-report:
    # between them the LLN limit's cell table and the quartile and batch-median
    # summaries
    jobs += [(path.read_text(), str(tmp_path / path.stem))
             for path in BENCH_CONFIGS if path.stem != "hermite"]
    problems, codes, loaded, masked = json.loads(_fresh_python(probe, json.dumps(jobs)))
    assert {ExperimentConfig.from_text(text).entries["kind"] for text, _ in jobs} == {
        "lln", "clt", "asymptotics", "simulate", "kernel-report"}
    assert problems == [[]] * len(jobs)
    assert codes == [EXIT_OK] * len(jobs)
    assert loaded == []
    assert masked == [False, False]


@pytest.mark.parametrize("path", [p for p in BENCH_CONFIGS if p.stem != "hermite"],
                         ids=lambda p: p.stem)
def test_a_validated_benchmark_config_runs_without_importing(path, tmp_path):
    # each config in a fresh interpreter, so no other run loads a module for
    # it: the CLI's import and validate load all a run needs, and validate
    # loads numpy.random, about 11 ms, only for the kinds that draw
    probe = """
import contextlib, io, json, sys
from ambitlab import cli
config = cli.ExperimentConfig.from_text(sys.argv[1]).with_overrides(out=sys.argv[2])
problems = cli.validate(config)
drawing = "numpy.random" in sys.modules
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(config)
print(json.dumps([problems, code, sorted(set(sys.modules) - before), drawing]))
"""
    text = path.read_text()
    problems, code, loaded, drawing = json.loads(_fresh_python(probe, text, str(tmp_path / "out")))
    assert problems == [] and code == EXIT_OK
    assert loaded == []
    kind = ExperimentConfig.from_text(text).entries["kind"]
    assert drawing == (kind in ("lln", "clt", "simulate"))
