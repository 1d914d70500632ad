import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from ambitlab import cli, limits, simulate
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
from ambitlab.errors import NotPSDError
from ambitlab.kernels import weight_from_config
from ambitlab.volatility import sample_volatility, vol_from_config

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


@pytest.mark.parametrize("text, pairing", [
    (CLT_TEXT.replace("volatility.variant = constant", "volatility.variant = deterministic"),
     "the singular weight lacks under deterministic volatility"),
    (CLT_TEXT.replace("variant = singular", "variant = triangle").replace(
        "kappa = 0.4", "kappa = 0.1"),
     "the triangle weight lacks under constant volatility"),
    # a slow factor without a closed-form antiderivative has no lattice autocorrelation
    (CLT_TEXT.replace("alpha = 0.75", "alpha = 0.3").replace("ell = one", "ell = cos_quarter")
     .replace("kappa = 0.4", "kappa = 0.2").replace("n = 64", "n = 8"),
     "the singular weight lacks under constant volatility"),
], ids=["singular-deterministic", "triangle-constant", "singular-cos-quarter-constant"])
def test_clt_without_an_exact_covariance_is_a_config_error(tmp_path, text, pairing):
    cfg = ExperimentConfig.from_text(text)
    assert validate(cfg) == [f"clt needs an exact increment covariance, which {pairing}"]
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
    assert validate(cfg) == [f"the thinned lattice exceeds the dense-covariance cap "
                             f"{simulate.DENSE_CAP} at n=2048 (44 x 44)"]
    out = tmp_path / "never"
    assert run(cfg.with_overrides(out=out)) == EXIT_CONFIG
    assert not out.exists()
    assert validate(_config(CLT_TEXT, kappa="0.5", n="1024", **{"weight.alpha": "0.6"})) == []


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
                region_catalog(weight_from_config(entries), n, kappa)
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
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert "at n=8, M=16" in err and "raise oversample" in err


# ------------------------------------------------------------- run: reports

def test_run_builds_the_weight_and_the_volatility_once(tmp_path, monkeypatch):
    calls = {"weight": 0, "volatility": 0}

    def counted(name, build):
        def wrapper(entries):
            calls[name] += 1
            return build(entries)
        return wrapper

    monkeypatch.setattr(cli, "weight_from_config", counted("weight", cli.weight_from_config))
    monkeypatch.setattr(cli, "vol_from_config", counted("volatility", cli.vol_from_config))
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


@pytest.mark.parametrize("kind, text, cls, experiment, fields", [
    ("lln", LLN_TEXT, limits.LLNConfig, limits.lln_experiment,
     dict(p_values=(2.0,), k=1, reps=3, grid_size=2, seed=0)),
    ("clt", CLT_TEXT, limits.CLTConfig, limits.clt_experiment,
     dict(p=2.0, kappa=0.4, reps=40, sigma_resolution=8, seed=0)),
])
def test_experiment_runs_write_the_experiment_dict_in_schedule_order(
        tmp_path, kind, text, cls, experiment, fields):
    out = tmp_path / kind
    cfg = _config(text, n="8, 16", out=str(out))
    assert run(cfg) == EXIT_OK
    # string keys sort "16" before "8": the rows must follow the schedule
    ns = [line.split(",")[0] for line in (out / f"{kind}.csv").read_text().splitlines()[1:]]
    assert ns == sorted(ns, key=int) and set(ns) == {"8", "16"}
    results = json.loads((out / "report.json").read_text())["results"]
    expected = experiment(cls(weight=weight_from_config(cfg.entries),
                              volatility=vol_from_config(cfg.entries),
                              n_schedule=(8, 16), **fields))
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
    sigma = sample_volatility(vol_from_config(cfg.entries), 32, seed=3)
    field = simulate.simulate_lattice(weight_from_config(cfg.entries), sigma, 16, 32,
                                      seed=3, rep=0)
    for name, values, header in (
            ("field.csv", field.values, "# lattice field: n=16 weight='UniformWeight("),
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
        "weight.ell = one\nn = 64, 128, 256, 512\nkappa = 0.15\n"
        "quad.rel_tol = 1e-6\n")
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
    # numpy loads some submodules on first use; a run that did would time the import
    probe = """
import contextlib, io, json, sys
from ambitlab import cli
configs = [cli.ExperimentConfig.from_text(text).with_overrides(out=out)
           for text, out in json.loads(sys.argv[1])]
problems = [cli.validate(config) for config in configs]
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(config) for config in configs]
print(json.dumps([problems, codes, sorted(set(sys.modules) - before)]))
"""
    lln = LLN_TEXT.replace("n = 16, 32", "n = 16")
    clt = CLT_TEXT.replace("reps = 40", "reps = 8")
    jobs = [(lln, str(tmp_path / "lln")), (clt, str(tmp_path / "clt"))]
    problems, codes, loaded = json.loads(_fresh_python(probe, json.dumps(jobs)))
    assert problems == [[], []]
    assert codes == [EXIT_OK, EXIT_OK]
    assert loaded == []
