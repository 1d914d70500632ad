"""Tests of the benchmark's own tracing and correctness gate.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import os
import shutil
import sys

import pytest

import gate
import harness
import tracing

sys.path.insert(0, os.path.join(harness.ROOT, "src"))

from ambitlab import cli  # noqa: E402

SMALL_LLN = """
kind = lln
weight.variant = uniform
volatility.variant = deterministic
volatility.name = sine_product
p = 2.0
n = 8, 16
k = 2
reps = 3
grid_size = 2
"""


@pytest.fixture
def tracer():
    t = tracing.Tracer().install()
    yield t
    t.uninstall()


def _originals():
    return {id(getattr(mod, fn)): (mod.__name__, fn)
            for mod in tracing.ambitlab_modules()
            for module, functions in tracing.TRACED.items()
            if mod.__name__ == f"ambitlab.{module}"
            for fn in functions}


def test_every_module_binding_of_a_traced_function_is_the_wrapper():
    originals = _originals()
    before = {(mod.__name__, attr): value
              for mod in tracing.ambitlab_modules()
              for attr, value in vars(mod).items() if id(value) in originals}
    # limits binds simulate_lattice by import; cli binds compute_cn and others.
    assert ("ambitlab.limits", "simulate_lattice") in before
    assert ("ambitlab.cli", "compute_cn") in before
    t = tracing.Tracer().install()
    try:
        for mod in tracing.ambitlab_modules():
            for attr, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{attr} is unwrapped"
        for (modname, attr), value in before.items():
            assert getattr(sys.modules[modname], attr).__wrapped__ is value
    finally:
        t.uninstall()
    for (modname, attr), value in before.items():
        assert getattr(sys.modules[modname], attr) is value


def test_self_times_sum_to_the_root_run_span(tracer, tmp_path):
    config = cli.ExperimentConfig.from_text(SMALL_LLN).with_overrides(
        seed=0, out=str(tmp_path))
    assert cli.run(config) == 0
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s[0] == "cli.run"]
    assert len(roots) == 1 and spans[roots[0]][3] == -1
    names = {s[0] for s in spans}
    assert {"limits.lln_experiment", "simulate.simulate_lattice",
            "variation.expected_scaled_pv", "kernels.mu_mass"} <= names

    root = roots[0]
    in_tree = {root}
    for i, span in enumerate(spans):
        if span[3] in in_tree:
            in_tree.add(i)
    own = tracing.self_times(spans)
    assert all(own[i] >= -1e-9 for i in in_tree)
    duration = spans[root][2] - spans[root][1]
    assert sum(own[i] for i in in_tree) == pytest.approx(duration, abs=1e-9)

    metrics = tracing.layer_metrics(spans)
    assert set(metrics) == {name for name, _ in tracing.metric_names()} - {"tracing_overhead_s"}
    assert metrics["cli.run.calls"] == 1
    assert metrics["simulate.simulate_lattice.calls"] == 2 * 3
    # M = 2n: 3 replications at n = 8 and 16.
    assert metrics["simulate.simulate_lattice.noise_cells"] == 3 * (16**2 + 32**2)
    assert metrics["kernels.compute_cn.distinct"] == 2


def test_layer_metrics_of_hand_made_spans():
    spans = [
        ["cli.run", 0.0, 10.0, -1, None],
        ["limits.lln_experiment", 1.0, 9.0, 0, None],
        ["kernels.compute_cn", 2.0, 3.0, 1, "a|8"],
        ["kernels.compute_cn", 3.0, 3.5, 1, "a|8"],
        ["simulate.simulate_lattice", 4.0, 6.0, 1, 256],
        ["simulate.simulate_lattice", 6.0, 7.0, 1, 256],
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.run.self_s"] == 2.0
    assert m["limits.lln_experiment.self_s"] == 3.5
    assert m["kernels.compute_cn.calls"] == 2
    assert m["kernels.compute_cn.distinct"] == 1
    assert m["simulate.simulate_lattice.noise_cells"] == 512
    assert m["simulate.simulate_lattice.p50_ms"] == 1500.0
    assert m["variation.expected_scaled_pv.calls"] == 0


def _copy_reference(name, target):
    shutil.copytree(os.path.join(gate.REF_DIR, name), target)
    return target


def test_gate_passes_the_reference_itself(tmp_path):
    references = gate.load_references()
    out = _copy_reference("clt-singular-cov", tmp_path / "out")
    verdict = gate.check("clt-singular-cov", 0, out, references)
    assert verdict == {"status": "passed", "max_rel_dev": 0.0, "problems": []}
    assert gate.check("clt-singular-cov", 1, out, references)["status"] == "unchecked"


def test_gate_flags_one_perturbed_cell(tmp_path):
    references = gate.load_references()
    out = _copy_reference("clt-singular-cov", tmp_path / "out")
    path = out / "clt.csv"
    lines = path.read_text().splitlines()
    n, stat, value = lines[5].split(",")
    lines[5] = ",".join([n, stat, repr(float(value) * (1 + 1e-6))])
    path.write_text("\n".join(lines) + "\n")

    verdict = gate.check("clt-singular-cov", 0, out, references)
    assert verdict["status"] == "failed"
    assert verdict["max_rel_dev"] == pytest.approx(1e-6, rel=1e-3)
    # Without a reference for the seed, the numbers cannot be judged.
    assert gate.check("clt-singular-cov", 1, out, references)["status"] == "unchecked"


def test_gate_flags_a_changed_table_shape_for_any_seed(tmp_path):
    references = gate.load_references()
    out = _copy_reference("clt-singular-cov", tmp_path / "out")
    path = out / "clt.csv"
    path.write_text(path.read_text() + "200,k,1.0\n")
    for seed in (0, 1):
        assert gate.check("clt-singular-cov", seed, out, references)["status"] == "failed"


def test_child_forks_each_repetition_from_set_up_and_stops_when_closed(tmp_path):
    references = gate.load_references()
    child = harness.Child("hermite", 0)
    try:
        assert child.start() > 0
        for rep in range(2):
            out = tmp_path / f"rep{rep}"
            row = child.run(str(out))
            assert row["status"] == 0 and row["wall_s"] > 0
            assert len(row["calibration_s"]) == 3 and min(row["calibration_s"]) > 0
            assert gate.check("hermite", 0, str(out), references)["status"] == "passed"
        proc = child.proc
    finally:
        child.close()
    assert proc.returncode == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
