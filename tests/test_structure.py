"""Architecture guards over the package source.

Read with ``ast`` only:

* no module imports another module's private name;
* every name in a module's ``__all__`` is defined in that module;
* only ``kernels`` knows the concrete weight classes, and only
  ``volatility`` the concrete volatility classes: everyone else reads a
  variant's facts off the instance;
* every imported name is used (a name listed in ``__all__`` counts), in the
  package and in ``tests/``;
* every top-level function and class is referenced somewhere in ``src/``,
  ``tests/`` or ``perfbench/`` outside its own definition (``__all__`` does
  not count);
* one quadrature engine: only ``quadrature`` builds Gauss-Legendre, adaptive
  or graded rules; the one exception is the import of scipy's generalized
  Gauss-Laguerre nodes in ``gaussian``, which its Hermite moments use;
* ``quadrature`` forms no matrix product, so no panel's Gauss sum depends
  on the panels beside it;
* ``kernels`` lays out engine jobs in two places only: the one builder of
  every variant's mass jobs and the singular autocorrelation;
* only ``cli`` opens files: the computation modules do no file I/O, and
  every CSV table goes through the CLI's one writer.

Run through the CLI:

* every public function and method is entered by some CLI run, or is the
  reference a named test checks CLI code against (``ORACLES``).

Loaded unchanged:

* the benchmark tracer (``perfbench/tracing.py``) finds every function it
  wraps, and every argument its work counts read;
* every key the experiments' rule table knows is read by some CLI kind, so
  the table holds no dead rule;
* the fields of ``QuadratureConfig`` are the ``quad.*`` keys the CLI reads,
  so no layout knob comes back beside the two tolerances unseen.
"""

import ast
import collections
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import pathlib
import re
import sys

import pytest

from ambitlab import cli, kernels, limits, volatility
from ambitlab.quadrature import QuadratureConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ambitlab"
MODULES = sorted(SRC.glob("*.py"))
TESTS = SRC.parents[1] / "tests"
READERS = (SRC, TESTS, SRC.parents[1] / "perfbench")
# every class kernels or volatility registers as a variant, so a new one is
# guarded too
WEIGHT_CLASSES = {cls.__name__ for cls in kernels.VARIANTS.values()}
VOLATILITY_CLASSES = {cls.__name__ for cls in volatility.VARIANTS.values()}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(tree):
    """(local name, imported name, node) for every import from this package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "ambitlab"):
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_across_modules(path):
    tree = _tree(path)
    modules = set()
    bad = []
    for local, name, node in _package_imports(tree):
        if name.startswith("_"):
            bad.append(f"line {node.lineno}: imports {name}")
        elif node.module is None:  # ``from . import kernels``
            modules.add(local)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            bad.append(f"line {node.lineno}: uses {node.value.id}.{node.attr}")
    assert not bad, bad


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_defined_in_its_module(path):
    tree = _tree(path)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    assert sorted(_exported(tree) - defined) == []


def _names_a_class(path, classes):
    tree = _tree(path)
    bad = [f"line {node.lineno}: imports {name}"
           for _, name, node in _package_imports(tree) if name in classes]
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in classes:
            bad.append(f"line {node.lineno}: names {name}")
    return bad


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "kernels.py"],
                         ids=lambda p: p.name)
def test_only_kernels_names_a_concrete_weight_class(path):
    bad = _names_a_class(path, WEIGHT_CLASSES)
    assert not bad, bad


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "volatility.py"],
                         ids=lambda p: p.name)
def test_only_volatility_names_a_concrete_volatility_class(path):
    bad = _names_a_class(path, VOLATILITY_CLASSES)
    assert not bad, bad


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = sorted(f"line {line}: {name}" for name, line in imported.items()
                    if name not in used)
    assert not unused, unused


def _names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@functools.cache
def _reads_everywhere():
    return collections.Counter(name for folder in READERS
                               for path in folder.glob("*.py")
                               for name in _names_read(_tree(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_definition_is_referenced(path):
    reads = _reads_everywhere()
    dead = []
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = sum(name == node.name for name in _names_read(node))
            if reads[node.name] == own:
                dead.append(f"line {node.lineno}: {node.name}")
    assert not dead, dead


# The rule imports allowed outside the engine, by module: the Hermite moments
# of ``gaussian`` integrate on generalized Gauss-Laguerre nodes.
RULE_IMPORTS_ALLOWED = {("gaussian.py", "scipy.special", "roots_genlaguerre")}
_RULE_NAME = re.compile(r"(^|_)(gl|gauss|legendre|adaptive|graded|quad)(_|$)", re.IGNORECASE)
_RULE_SOURCES = {"leggauss", "quad", "dblquad", "nquad", "fixed_quad", "quadrature"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "quadrature.py"],
                         ids=lambda p: p.name)
def test_only_the_quadrature_module_builds_quadrature_rules(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            bad += [f"line {node.lineno}: imports {alias.name} from {node.module}"
                    for alias in node.names
                    if (path.name, node.module, alias.name) not in RULE_IMPORTS_ALLOWED
                    and (alias.name.startswith("roots_") or alias.name == "integrate"
                         or node.module.startswith("scipy.integrate"))]
        elif isinstance(node, ast.Import):
            bad += [f"line {node.lineno}: imports {alias.name}" for alias in node.names
                    if alias.name.startswith("scipy.integrate")]
        elif isinstance(node, ast.Attribute) and (
                node.attr.startswith("roots_") or node.attr in _RULE_SOURCES):
            bad.append(f"line {node.lineno}: uses .{node.attr}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _RULE_NAME.search(node.name):
            bad.append(f"line {node.lineno}: defines {node.name}")
    assert not bad, bad


_MATRIX_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot"}


def test_the_quadrature_engine_forms_no_matrix_product():
    # BLAS blocks a matrix product by its shape, which would make a panel's
    # value depend on the panels batched beside it
    bad = []
    for node in ast.walk(_tree(SRC / "quadrature.py")):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            bad.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in _MATRIX_PRODUCTS:
            bad.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in _MATRIX_PRODUCTS:
            bad.append(f"line {node.lineno}: {node.id}")
    assert not bad, bad


def _callers(tree, name):
    """The innermost function around each call of ``name``, ``<module>`` outside any."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                      getattr(node.func, "attr", None)):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_kernels_lays_out_engine_jobs_in_two_places():
    # each variant's mass jobs come from one builder; a job loop of its own
    # would state a layout twice
    callers = _callers(_tree(SRC / "kernels.py"), "make_pieces")
    assert sorted(callers) == ["_outer_jobs", "autocorrelation"]


_FILE_IO = {"open", "savetxt"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_opens_files(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in _FILE_IO:
                bad.append(f"line {node.lineno}: calls {name}")
    assert not bad, bad


def _load_tracer():
    path = READERS[2] / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_the_benchmark_tracer_finds_what_it_wraps():
    tracer = _load_tracer()
    traced = {}
    for module, functions in tracer.TRACED.items():
        mod = importlib.import_module(f"ambitlab.{module}")
        for fn in functions:
            assert callable(getattr(mod, fn, None)), f"{module}.{fn}"
            traced[f"{module}.{fn}"] = getattr(mod, fn)
    for span, (_, count) in tracer.WORK.items():
        params = inspect.signature(traced[span]).parameters
        keys = {node.slice.value for node in ast.walk(ast.parse(inspect.getsource(count)))
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "args" and isinstance(node.slice, ast.Constant)}
        assert keys <= set(params), f"{span} has no parameter {sorted(keys - set(params))}"


def test_every_rule_table_key_is_read_by_some_kind():
    # every kind reads the common keys, seed among them
    assert [key for key in limits._RULES if not cli._reads(cli._ANY_KIND, key)] == []


def test_the_quadrature_config_holds_the_quad_keys_the_cli_reads():
    keys = {key.removeprefix("quad.") for key in cli._ANY_KIND.reads if key.startswith("quad.")}
    assert {field.name for field in dataclasses.fields(QuadratureConfig)} == keys


# Public names no CLI run enters, each mapped to a test that reads it: as the
# reference for code the CLI runs, or for the refusal it raises.
ORACLES = {
    "cli.validate": "test_cli.py::test_well_formed_lln_config_has_no_violations",
    "kernels.WeightSpec.catalog":
        "test_asymptotics.py::test_catalog_rejects_kernels_without_a_single_concentration_point",
    "kernels.WeightSpec.window": "test_asymptotics.py::test_window_ratio_refuses_a_uniform_weight",
    "kernels.UniformWeight.lattice_autocorrelation":
        "test_simulate.py::test_strips_engine_agrees_with_stationary_engine",
}

_SINGULAR = "weight.variant = singular\nweight.alpha = 0.6\nweight.ell = one\n"
# the profile skips a slow factor of one: the cone's 1 - s runs SlowFunction
_TRIANGLE = "weight.variant = triangle\nweight.alpha = 0.6\nweight.ell = one_minus_s\n"
_UNIFORM = "weight.variant = uniform\n"
_CONSTANT = "volatility.variant = constant\n"
_SINE = "volatility.variant = deterministic\nvolatility.name = sine_product\n"
_LOG_GAUSSIAN = "volatility.variant = log_gaussian\n"
# Every kind, weight variant and volatility variant, at n <= 16.
REACH_CONFIGS = (
    "kind = hermite\np = 1, 2\n",
    "kind = kernel-report\nn = 8, 16\nkappa = 0.4\n" + _UNIFORM,
    "kind = kernel-report\nn = 8\nquad.rel_tol = 1e-8\n" + _SINGULAR,
    "kind = lln\nn = 8, 16\nk = 2\np = 2\nreps = 2\n" + _UNIFORM + _SINE,
    "kind = lln\nn = 8\nkappa = 0.4\np = 1, 2\nreps = 2\n" + _SINGULAR + _CONSTANT,
    "kind = lln\nn = 8\nk = 1\np = 2\nreps = 2\n" + _UNIFORM + _LOG_GAUSSIAN,
    "kind = clt\nn = 8, 16\nkappa = 0.4\np = 2\nreps = 20\n" + _SINGULAR + _CONSTANT,
    "kind = clt\nn = 8\nkappa = 0.5\np = 1.5\nreps = 20\n" + _UNIFORM + _LOG_GAUSSIAN,
    "kind = asymptotics\nn = 4, 8, 16\nkappa = 0.4\n" + _SINGULAR,
    "kind = asymptotics\nn = 4\nkappa = 0.05\n" + _TRIANGLE,
    "kind = simulate\nn = 8\n" + _TRIANGLE + _SINE,
    "kind = simulate\nn = 8\nk = 2\np = 1\n" + _UNIFORM + _LOG_GAUSSIAN,
)


def _public_code(module):
    """(dotted name, code object) of each function and method ``__all__`` exports.

    Methods count when the module's own source defines them, so the methods a
    dataclass generates are left out; a cached function counts as the
    function it wraps.
    """
    prefix = module.__name__.split(".")[-1]
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exported from another module, checked there
        if callable(obj) and not inspect.isclass(obj):
            yield f"{prefix}.{name}", inspect.unwrap(obj).__code__
        elif inspect.isclass(obj):
            for attr_name, attr in vars(obj).items():
                attr = attr.fget if isinstance(attr, property) else attr
                attr = getattr(attr, "__func__", attr)  # classmethod, staticmethod
                if inspect.isfunction(attr) and attr.__code__.co_filename == module.__file__:
                    yield f"{prefix}.{name}.{attr_name}", attr.__code__


def test_every_public_function_is_run_by_the_cli_or_is_a_test_reference(tmp_path):
    modules = [importlib.import_module(f"ambitlab.{path.stem}")
               for path in MODULES if path.stem != "__init__"]
    for module in modules:  # a cached result would hide the calls behind it
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    entered = set()

    def record(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    statuses = []
    for i, text in enumerate(REACH_CONFIGS):
        path = tmp_path / f"{i}.cfg"
        path.write_text(text)
        argv = ["--config", str(path), "--out", str(tmp_path / f"out{i}")]
        if cli.validate(cli.ExperimentConfig.from_file(path)):
            argv.append("--override-admissibility")
        previous = sys.getprofile()
        sys.setprofile(record)
        try:
            statuses.append(cli.main(argv))
        finally:
            sys.setprofile(previous)
    assert statuses == [cli.EXIT_OK] * len(REACH_CONFIGS)

    public = dict(item for module in modules for item in _public_code(module))
    unreached = {name for name, code in public.items() if code not in entered}
    assert sorted(unreached - set(ORACLES)) == [], "neither run by the CLI nor a test reference"
    assert sorted(set(ORACLES) - unreached) == [], "stale ORACLES entries"
    for test_id in ORACLES.values():
        file_name, test_name = test_id.split("::")
        assert f"def {test_name}(" in (TESTS / file_name).read_text(), test_id
