"""Config-driven experiment runner with deterministic seeding and file reports.

Usage::

    ambitlab --config experiment.cfg [--out DIR] [--seed N]
             [--override-admissibility]

The config file is plain ``key = value`` text (``#`` starts a comment).  The
``kind`` key picks the experiment.  Every kind reads ``seed`` (master seed,
a non-negative integer; ``--seed`` overrides) and ``out`` (output directory;
``--out`` overrides).
The other keys each kind reads, marked ``!`` where the kind cannot run
without them and ``(1)`` where they must hold a single value:

=============  ==============================================================
kind           keys read
=============  ==============================================================
kernel-report  weight.* !, n !, kappa | k, quad.rel_tol, quad.abs_tol
hermite        p !
lln            weight.* !, volatility.* !, p !, n !, kappa | k !, reps,
               grid_size, oversample, override_admissibility
clt            weight.* !, volatility.* !, p ! (1), n !, kappa !, reps,
               eval_point, sigma_resolution, override_admissibility
asymptotics    weight.* !, n !, kappa !, quad.rel_tol, quad.abs_tol,
               override_admissibility
simulate       weight.* !, volatility.* !, p (1), n ! (1), kappa | k,
               oversample, quad.rel_tol, quad.abs_tol
=============  ==============================================================

A key that its kind does not read is a config violation, like an unknown
key.  ``weight.*`` is the kernel spec and ``volatility.*`` the volatility
model: ``<group>.variant`` names a class in ``kernels.VARIANTS`` or
``volatility.VARIANTS``, and ``<group>.<field>`` sets that dataclass field,
read as its declared type (unset, it keeps its default).  Any other key in
the group is a violation too, such as ``weight.alpha`` on a uniform weight or
``volatility.sigma0`` on a deterministic volatility:

=============  ==============================================================
variant        keys read besides ``variant``
=============  ==============================================================
uniform        weight.s1, weight.s2, weight.t1, weight.t2, weight.scale
singular       weight.alpha, weight.ell, weight.scale
triangle       weight.alpha, weight.ell, weight.scale
constant       volatility.sigma0
deterministic  volatility.name
log_gaussian   volatility.mean, volatility.variance, volatility.smooth_length
               (at most 1, so the smoothing bump fits every grid)
=============  ==============================================================

``clt`` also needs an exact increment covariance: the uniform weight has one
under any volatility and the singular weight with a polynomial slow factor
under constant volatility; any other pairing is a violation, as is a thinned
lattice side n // k_n past ``simulate.DENSE_CAP``.  ``asymptotics`` needs a
region catalog at every n.  ``p`` and ``n`` are comma-separated powers, no
two alike (nor alike by ``%g``, which names ``hermite``'s tables), and
resolutions; ``kappa`` is the thinning exponent and ``k`` a constant thinning
count (one only, at most the smallest n); ``grid_size`` is the number of
``lln`` evaluation points per axis, at least 1; ``eval_point`` must not lie
before the first thinned increment k_n/n at any n; ``quad.*`` are the
kernel-mass quadrature tolerances; and ``override_admissibility`` runs even
when the thinning exponent fails the gate.  ``limits.setting_problems``
holds these rules, for the experiments' keywords too.  Unset keys take the
defaults of the keywords of ``limits.lln_experiment``/``clt_experiment`` and
the tolerances of ``QuadratureConfig``; ``simulate`` defaults
to p = 2 and oversample = 1, and unthinned (k = 1) when neither kappa nor k
is set, as ``kernel-report`` does.

Every run writes ``report.json`` plus CSV tables into the output directory.
A table is an optional ``#`` comment line, a comma-separated header and one
line per row, a float cell as ``repr(float(v))`` and any other as ``str(v)``;
``field.csv`` and ``sigma.csv`` are a ``#`` line over a ``%.17g`` matrix;
``field.csv``'s line reads ``lattice field: n=<n> weight=<quoted repr>
n=<n> M=<M> noise_seed=<seed> noise_rep=0 sigma_seed=<seed>
direct_check_error=<e>``, e the spot-check gap ``simulate_lattice`` returns.
The JSON embeds the fully resolved config and the master seed; all random
streams derive from that one seed through fixed substream tags (volatility 1,
lattice noise 2, exact-covariance draws 3, per-replication volatility
re-draws 4), so identical configs reproduce identical CSV numeric content
byte for byte (wall-clock runtime lives only in the JSON).

Exit statuses: 0 success; 2 invalid config (all violations listed, nothing
written; a power whose absolute moment m_p, or m_2p where the kind reads it,
overflows float counts); 3 numerical failure (quadrature did not converge,
covariance not positive semidefinite, a volatility draw outside float
range); 4 admissibility refusal (thinning exponent outside the known-good
range and no override requested).
"""

import argparse
import dataclasses
import importlib
import json
import os
import sys
import time
from typing import NamedTuple, get_type_hints

import numpy as np

from .asymptotics import (
    PARTITION,
    assumption2_ratio,
    kappa_refusal,
    region_catalog,
    region_measures,
    slope_fit,
)
from .errors import AdmissibilityError, FloatRangeError, NotPSDError, QuadratureError
from .gaussian import abs_moment, up_hermite_coeffs
from .kernels import (
    VARIANTS as WEIGHT_VARIANTS,
    compute_cn,
    mu_masses,
    near_region,
    thinning_count,
)
from .limits import clt_experiment, lln_experiment, setting_problems
from .quadrature import QuadratureConfig
from .simulate import covariance_refusal, increments, simulate_lattice
from .variation import retained_corners, scaled_power_variation, variation_field
from .volatility import VARIANTS as VOLATILITY_VARIANTS, sample_volatility

# numpy loads its submodules on first use: load them before a run, so that a
# run imports nothing.  numpy.fft loads with the CLI; numpy.random, which
# takes about 11 ms, loads in ``validate`` and only for the kinds that draw.
importlib.import_module("numpy.fft")
_DRAWING_KINDS = ("lln", "clt", "simulate")

__all__ = ["ExperimentConfig", "main", "run", "validate"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REFUSED = 4


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class ExperimentConfig:
    """Raw key-value entries of one experiment, plus any parse problems.

    The wrapper stays untyped on purpose: ``validate`` turns every defect --
    parse errors, unknown keys, unbuildable specs, inadmissible thinning --
    into one consolidated list instead of failing at the first one.
    """

    def __init__(self, entries, problems=()):
        self.entries = dict(entries)
        self.problems = tuple(problems)

    @classmethod
    def from_text(cls, text):
        entries, problems = {}, []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                problems.append(f"line {lineno}: empty key")
                continue
            if key in entries:
                problems.append(f"line {lineno}: duplicate key {key!r}")
                continue
            entries[key] = value
        return cls(entries, problems)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read())

    def with_overrides(self, seed=None, out=None, override_admissibility=False):
        entries = dict(self.entries)
        if seed is not None:
            entries["seed"] = str(seed)
        if out is not None:
            entries["out"] = str(out)
        if override_admissibility:
            entries["override_admissibility"] = "true"
        return ExperimentConfig(entries, self.problems)


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_list(raw, convert):
    items = [part.strip() for part in raw.split(",")]
    if not all(items):
        raise ValueError(f"empty element in list {raw!r}")
    return [convert(part) for part in items]


def _parse_strict_int(raw):
    if not raw.lstrip("+-").isdigit():
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


class _KindKeys(NamedTuple):
    """The keys one experiment kind reads; a config is refused any other.

    ``reads`` names keys, or whole groups by their prefix (``weight.``,
    ``volatility.``): a kind that reads a group builds it and cannot run
    without it.  ``needs`` lists the keys it cannot run without ("a|b" for
    either of two), ``single`` the list keys that must hold one value.
    """

    reads: tuple
    needs: tuple = ()
    single: tuple = ()


_COMMON_KEYS = ("kind", "seed", "out")
_KINDS = {
    "kernel-report": _KindKeys(
        ("weight.", "n", "kappa", "k", "quad.rel_tol", "quad.abs_tol"), needs=("n",)),
    "hermite": _KindKeys(("p",), needs=("p",)),
    "lln": _KindKeys(
        ("weight.", "volatility.", "p", "n", "kappa", "k", "reps", "grid_size",
         "oversample", "override_admissibility"),
        needs=("n", "p", "kappa|k")),
    "clt": _KindKeys(
        ("weight.", "volatility.", "p", "n", "kappa", "reps", "eval_point",
         "sigma_resolution", "override_admissibility"),
        needs=("n", "p", "kappa"), single=("p",)),
    "asymptotics": _KindKeys(
        ("weight.", "n", "kappa", "quad.rel_tol", "quad.abs_tol",
         "override_admissibility"),
        needs=("n", "kappa")),
    "simulate": _KindKeys(
        ("weight.", "volatility.", "p", "n", "kappa", "k", "oversample",
         "quad.rel_tol", "quad.abs_tol"),
        needs=("n",), single=("p", "n")),
}
# A config without a known kind is checked against every key some kind reads.
_ANY_KIND = _KindKeys(tuple(dict.fromkeys(
    key for row in _KINDS.values() for key in row.reads)))
_NEEDED = {
    "p": "a p list",
    "n": "an n schedule",
    "kappa": "the thinning exponent: set kappa",
    "kappa|k": "a thinning rule: kappa or k",
}
_SINGLE = {"p": "power", "n": "resolution"}
# the largest absolute moment m_q a kind reads is at q = p times this
_MOMENT_MULTIPLE = {"hermite": 2.0, "lln": 1.0, "clt": 2.0}
_HERMITE_TABLE = "hermite_p{:g}.csv"  # hermite's table of one power


def _reads(row, key):
    return key in _COMMON_KEYS or any(
        key == read or (read.endswith(".") and key.startswith(read)) for read in row.reads)


def _build(group, registry, entries):
    """(object, keys read) for the class in ``registry`` that ``<group>.variant`` names.

    Each ``<group>.<field>`` set is read as its field's declared type.
    """
    variant = entries.get(f"{group}.variant")
    if variant not in registry:
        raise ValueError(f"missing key {group}.variant" if variant is None
                         else f"unknown {group} variant {variant!r}")
    cls = registry[variant]
    types, values, read = get_type_hints(cls), {}, {f"{group}.variant"}
    for field in dataclasses.fields(cls):
        key = f"{group}.{field.name}"
        read.add(key)
        if key in entries:
            values[field.name] = types[field.name](entries[key])
        elif field.default is field.default_factory is dataclasses.MISSING:
            raise ValueError(f"missing key {key} for the {variant} variant")
    return cls(**values), read


def _parse(config):
    """(settings, violations, refusals) for one config, in a single pass.

    Each key the kind reads is parsed once with the strict parsers, and the
    weight and volatility are built once.  ``settings`` holds ``kind``,
    ``seed``, ``out`` and ``quad`` (a ``QuadratureConfig`` or None), the built
    ``weight``/``volatility``, and every other key the config sets with a
    valid value, under its config key; unset keys keep the defaults of the
    experiment that reads them.  Never raises.
    """
    entries = config.entries
    violations = list(config.problems)
    kind = entries.get("kind")
    row = _KINDS.get(kind, _ANY_KIND)
    for key in entries:
        if not _reads(_ANY_KIND, key):
            violations.append(f"unknown key {key!r}")
        elif not _reads(row, key):
            violations.append(f"kind {kind} does not read key {key!r}")
    if kind is None:
        violations.append("missing key 'kind'")
    elif kind not in _KINDS:
        violations.append(f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}")

    settings = {"kind": kind, "seed": 0, "out": entries.get("out", "reports")}

    def take(key, convert, *checks):
        if key not in entries or not _reads(_ANY_KIND, key):
            return
        try:
            value = convert(entries[key])
        except (TypeError, ValueError) as exc:
            failed = [f"{key}: {exc}"]
        else:
            failed = setting_problems({key: value}) + [
                message.format(value) for holds, message in checks if not holds(value)]
        if _reads(row, key):
            violations.extend(failed)
        if not failed:  # a key the kind does not read is a violation already
            settings[key] = value

    take("seed", _parse_strict_int)
    take("override_admissibility", _parse_bool)
    take("p", lambda raw: _parse_list(raw, float))
    take("n", lambda raw: _parse_list(raw, _parse_strict_int))
    take("kappa", float)
    for key in ("k", "reps", "grid_size", "oversample", "sigma_resolution"):
        take(key, _parse_strict_int)
    take("eval_point", lambda raw: _parse_list(raw, float))
    for key in ("quad.rel_tol", "quad.abs_tol"):
        take(key, float, (lambda tol: np.isfinite(tol) and tol > 0.0,
                          f"{key} must be a positive tolerance, got {{}}"))
    tolerances = {key[len("quad."):]: settings.pop(key)
                  for key in ("quad.rel_tol", "quad.abs_tol") if key in settings}
    settings["quad"] = QuadratureConfig(**tolerances) if tolerances else None
    # every setting kept passed its own rules: only the joint rules can fail
    violations.extend(setting_problems(settings))

    for group, registry in (("weight", WEIGHT_VARIANTS), ("volatility", VOLATILITY_VARIANTS)):
        # a known kind that reads the group cannot run without it
        if (f"{group}.variant" in entries if row is _ANY_KIND
                else f"{group}." in row.reads):
            try:
                settings[group], read = _build(group, registry, entries)
            except ValueError as exc:
                violations.append(f"{group}: {exc}")
                continue
            violations.extend(
                f"{group} variant {entries[f'{group}.variant']} does not read key {key!r}"
                for key in entries if key.startswith(f"{group}.") and key not in read)

    for need in row.needs:
        if not any(key in entries for key in need.split("|")):
            violations.append(f"{kind} needs {_NEEDED[need]}")
    for key in row.single:
        if key in settings and len(settings[key]) != 1:
            violations.append(f"{kind} takes a single {_SINGLE[key]}, got "
                              f"{len(settings[key])}")
    if kind == "hermite" and "p" in settings:
        tables = [_HERMITE_TABLE.format(p) for p in settings["p"]]
        shared = sorted({name for name in tables if tables.count(name) > 1})
        if shared:
            violations.append(f"powers {settings['p']} would share {', '.join(shared)}")
    if kind in _MOMENT_MULTIPLE:
        for p in settings.get("p", ()):
            try:
                abs_moment(_MOMENT_MULTIPLE[kind] * p)
            except FloatRangeError as exc:
                violations.append(f"power {p:g}: {exc}")
    thinned = ({n: thinning_count(n, settings["kappa"]) for n in settings.get("n", [])}
               if "kappa" in settings else {})
    weight, vol = settings.get("weight"), settings.get("volatility")
    if kind == "asymptotics" and weight is not None:
        # weight.catalog, not region_catalog: the benchmark counts the run's calls
        for n, k in thinned.items():
            try:
                weight.catalog(n, k / n)
            except ValueError as exc:
                violations.append(f"region catalog at n={n}: {exc}")
    if kind == "clt" and weight is not None and vol is not None:
        # what increment_covariance refuses, each reason once
        violations.extend(dict.fromkeys(
            reason for n, k in thinned.items()
            if (reason := covariance_refusal(weight, vol.constant, n // k)) is not None))

    refusals = []
    if (row is not _ANY_KIND and "override_admissibility" in row.reads
            and weight is not None and "kappa" in settings
            and not settings.get("override_admissibility", False)):
        reason = kappa_refusal(weight, settings["kappa"])
        if reason is not None:
            refusals.append(f"{reason}; pass --override-admissibility to run anyway")
    return settings, violations, refusals


def validate(config):
    """All violations of one config, config-level and admissibility alike.

    Never raises: an unreadable value becomes a message, and every message
    is collected so one round trip shows every problem at once.  An empty
    list means ``run`` will accept the config.  For a kind that draws random
    numbers it also loads ``numpy.random``, so that its run imports nothing.
    """
    settings, violations, refusals = _parse(config)
    if settings["kind"] in _DRAWING_KINDS:
        importlib.import_module("numpy.random")
    return violations + refusals


def _thinning(settings, n):
    """The constant k if set, else k_n for the exponent kappa, else 1."""
    if "k" in settings:
        return settings["k"]
    return thinning_count(n, settings["kappa"]) if "kappa" in settings else 1


def _keywords(settings, kind):
    """The seed and the settings ``kind`` reads besides p, n and the groups.

    Only keys the config sets are passed, so every other keyword keeps the
    default of the experiment.
    """
    return {key: settings[key] for key in ("seed", *_KINDS[kind].reads)
            if key in settings and key not in ("p", "n")}


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def _create(out_dir, name):
    """Open ``out_dir/name`` for writing, making ``out_dir`` for the first file."""
    os.makedirs(out_dir, exist_ok=True)
    return open(os.path.join(out_dir, name), "w")


def _write_csv(out_dir, name, header, rows, comment=None):
    """Write one table, in the format above, as ``out_dir/name``; return ``name``."""
    with _create(out_dir, name) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    return name


def _write_matrix(out_dir, name, values, comment):
    """Write a ``# comment`` line over a ``%.17g`` matrix; return ``name``."""
    with _create(out_dir, name) as fh:
        fh.write(f"# {comment}\n")
        np.savetxt(fh, values, delimiter=",", fmt="%.17g")
    return name


def run(config):
    """Validate, execute, and write ``report.json`` plus CSV tables.

    Returns the exit status.  Nothing is written unless validation passes,
    the output directory being made with the first file; the report lands last,
    so a ``report.json`` on disk certifies that every CSV next to it is complete.
    """
    settings, general, refusals = _parse(config)
    if general or refusals:
        for message in general + refusals:
            print(f"config: {message}", file=sys.stderr)
        return EXIT_REFUSED if not general else EXIT_CONFIG

    out_dir = settings["out"]
    t_start = time.perf_counter()
    runner = {
        "hermite": _run_hermite,
        "kernel-report": _run_kernel_report,
        "lln": _run_lln,
        "clt": _run_clt,
        "asymptotics": _run_asymptotics,
        "simulate": _run_simulate,
    }[settings["kind"]]
    try:
        targets, results, files = runner(settings)
    except (QuadratureError, np.linalg.LinAlgError, NotPSDError, FloatRangeError) as exc:
        print(f"numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AdmissibilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED

    resolved = dict(sorted(config.entries.items()))
    resolved.setdefault("seed", str(settings["seed"]))
    resolved.setdefault("out", out_dir)
    report = {
        "kind": settings["kind"],
        "config": resolved,
        "seed": settings["seed"],
        "targets": targets,
        "results": results,
        "files": sorted(files),
        "runtime_s": time.perf_counter() - t_start,
    }
    with _create(out_dir, "report.json") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _run_hermite(settings):
    targets = {
        "alpha": "coefficients of |x|^p - m_p against He_k/k!; the k=0,1 "
                 "coefficients vanish (rank two), and alpha_2 = 2 at p = 2",
        "parseval_total": "sum over k of alpha_k^2/k!, increasing to "
                          "m_2p - m_p^2",
    }
    per_p, files = {}, []
    for p in settings["p"]:
        exp = up_hermite_coeffs(p)
        sums = exp.partial_sums()
        files.append(_write_csv(
            settings["out"], _HERMITE_TABLE.format(p), ("k", "alpha", "partial_parseval"),
            [(k, float(a), float(s)) for k, (a, s) in enumerate(zip(exp.alpha, sums))]))
        per_p[repr(float(p))] = {
            "m_p": float(abs_moment(p)),
            "m_2p": float(abs_moment(2.0 * p)),
            "alpha_2": float(exp.alpha[2]),
            "parseval_total": float(sums[-1]),
            "parseval_target": float(exp.parseval_target()),
            "parseval_gap": float(exp.parseval_gap()),
        }
    return targets, {"per_p": per_p}, files


def _run_kernel_report(settings):
    targets = {
        "c_n": "squared mass of the differenced kernel; 4/n^2 exactly for "
               "a rectangle indicator whose sides are at least 1/n",
        "concentration": "share of that mass in the corner cells (rectangle "
                         "indicator: 1/4 each) or in the shrinking "
                         "neighborhood of the concentration point",
    }
    weight, quad = settings["weight"], settings["quad"]
    per_n = {}
    for n in settings["n"]:
        k = _thinning(settings, n)
        cells = dict(weight.corner_cells(n))
        if weight.concentration_point is not None:
            cells["near_mass"] = near_region(weight, k / n)
        # c_n and every cell's mass in one batch; a failure names its column
        try:
            c_n, *masses = mu_masses(weight, n, [None, *cells.values()], quad).tolist()
        except QuadratureError as exc:
            column = ["c_n", *cells][exc.job]
            raise QuadratureError(f"column {column!r} at n={n}: {exc}", exc.estimate) from exc
        row = {"c_n": c_n, "k": int(k), "eps": k / n}
        row.update((name, mass / c_n) for name, mass in zip(cells, masses))
        per_n[str(n)] = row
    # every n has the same columns, in the same order
    name = _write_csv(settings["out"], "kernel_report.csv", ["n", *row],
                      [(n, *per_n[str(n)].values()) for n in settings["n"]])
    return targets, {"per_n": per_n}, [name]


def _run_lln(settings):
    targets = {
        "sup_error": "sup over the grid of |scaled variation - m_p * "
                     "Sigma^(p,pi)|, decreasing to 0 in n",
        "mean_part": "sup over the grid of |exact conditional mean - limit|, "
                     "the deterministic bias share of the error, reported "
                     "wherever the conditional mean is exact",
        "raw_v": "unscaled variation at (1,1); its expectation is the sum "
                 "of increment variances (n^2 c_n at k=1, unit volatility)",
    }
    report = lln_experiment(settings["weight"], settings["volatility"],
                            p_values=settings["p"], n_schedule=settings["n"],
                            **_keywords(settings, "lln"))
    rows = [(n, pkey, stat, float(val)) for n in report["n_schedule"]
            for pkey, table in sorted(report["per_n"][str(n)].items())
            for stat, val in table.items() if val is not None]
    name = _write_csv(settings["out"], "lln.csv", ("n", "p", "stat", "value"), rows)
    return targets, report, [name]


def _run_clt(settings):
    targets = {
        "sample_variance": "Monte Carlo variance of the centered, rescaled "
                           "variation; matches the exact value within "
                           "sampling error",
        "exact_variance": "2 * sum of squared normalized covariances "
                          "(fourth-moment identity at p = 2), increasing "
                          "toward the limit",
        "asymptotic_variance": "(m_2p - m_p^2) * integral of sigma^(2p) "
                               "over the shifted window",
        "shape": "skewness, excess kurtosis and Kolmogorov distance to a "
                 "fitted normal, all decreasing toward 0",
    }
    report = clt_experiment(settings["weight"], settings["volatility"],
                            p=settings["p"][0], n_schedule=settings["n"],
                            **_keywords(settings, "clt"))
    rows = [(n, stat, float(val)) for n in report["n_schedule"]
            for stat, val in report["per_n"][str(n)].items() if val is not None]
    name = _write_csv(settings["out"], "clt.csv", ("n", "stat", "value"), rows)
    return targets, report, [name]


def _run_asymptotics(settings):
    targets = {
        "region_mass": "squared-kernel mass by catalog region; the core "
                       "decays like n^(-2(1-alpha)) for the corner-singular "
                       "kernel, the interior band is exactly 0, the far "
                       "band decays faster than n^-2",
        "slopes": "fitted log-log decay exponents of those masses",
        "assumption2_ratio": "mass outside the concentration window over "
                             "eps^2; decreasing iff the thinning exponent "
                             "is admissible",
    }
    weight, kappa, schedule = settings["weight"], settings["kappa"], settings["n"]
    names = PARTITION + ("Etilde",)
    measures, ratios = {}, {}
    for n in schedule:
        measures[n] = region_measures(weight, n, region_catalog(weight, n, kappa),
                                      names=names, quadcfg=settings["quad"])
        ratios[str(n)] = float(assumption2_ratio(weight, n, kappa,
                                                 quadcfg=settings["quad"]))
    files = [
        _write_csv(settings["out"], "region_measures.csv", ("n", "region", "mass"),
                   [(n, name, float(mass)) for n in schedule
                    for name, mass in measures[n].items()],
                   comment="squared-kernel mass by catalog region"),
        _write_csv(settings["out"], "assumption2.csv", ("n", "ratio"),
                   [(n, ratios[str(n)]) for n in schedule]),
    ]

    slopes = {}
    for name in sorted(names):
        values = {n: measures[n][name] for n in schedule}
        try:
            slopes[name] = slope_fit(values)
        except ValueError as exc:
            slopes[name] = {"skipped": str(exc)}
    results = {
        "admissible_kappa": str(weight.kappa_range()),
        "kappa": kappa,
        "per_n": {str(n): {name: float(v) for name, v in measures[n].items()}
                  for n in schedule},
        "assumption2_ratio": ratios,
        "slopes": slopes,
    }
    return targets, results, files


def _run_simulate(settings):
    targets = {
        "field": "kernel-smoothed white-noise sheet on the (n+1)^2 lattice",
        "scaled_variation": "scaled power variation of its thinned "
                            "increments; near m_p * Sigma^(p,pi) for "
                            "admissible thinning",
    }
    n = settings["n"][0]
    M = 2 * n * settings.get("oversample", 1)
    sigma = sample_volatility(settings["volatility"], M, seed=settings["seed"])
    seed, weight = settings["seed"], settings["weight"]
    values, check_error = simulate_lattice(weight, sigma, n, M, seed=seed, rep=0)
    k = _thinning(settings, n)
    p = settings.get("p", [2.0])[0]
    eps = k / n
    try:
        c_n = float(compute_cn(weight, n, settings["quad"]))
    except QuadratureError as exc:
        raise QuadratureError(f"c_n at n={n}: {exc}", exc.estimate) from exc
    scaled = scaled_power_variation(variation_field(increments(values, k), p), p, eps, c_n)
    ticks = [i * k / n for i in range(scaled.shape[0])]
    files = [
        _write_matrix(settings["out"], "field.csv", values,
                      f"lattice field: n={n} weight={repr(weight)!r} n={n} M={M} "
                      f"noise_seed={seed} noise_rep=0 sigma_seed={sigma.seed} "
                      f"direct_check_error={check_error}"),
        _write_matrix(settings["out"], "sigma.csv", sigma.values,
                      f"volatility grid: resolution={sigma.resolution} "
                      f"model={type(sigma.model).__name__} seed={sigma.seed}"),
        _write_csv(settings["out"], "variation.csv", ("s", "t", "value"),
                   [(s, t, float(v)) for s, row in zip(ticks, scaled)
                    for t, v in zip(ticks, row)],
                   comment=f"power variation field: p={p!r} k={k} n={n} eps={eps!r} "
                           f"c_n={c_n!r}"),
    ]
    results = {
        "n": n, "M": M, "k": k, "p": p,
        "field_min": float(values.min()),
        "field_max": float(values.max()),
        "scaled_variation_at_11": float(scaled[retained_corners(1.0, 1.0, eps)]),
    }
    return targets, results, files


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ambitlab",
        description="Run a configured power-variation experiment and write "
                    "a JSON report plus CSV tables.",
    )
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="master seed (overrides the config)")
    parser.add_argument("--override-admissibility", action="store_true",
                        help="run even if the thinning exponent fails the gate")
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
    except OSError as exc:
        print(f"config: cannot read {args.config!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    config = config.with_overrides(
        seed=args.seed, out=args.out,
        override_admissibility=args.override_admissibility,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
