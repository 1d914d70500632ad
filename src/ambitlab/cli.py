"""Config-driven experiment runner with deterministic seeding and file reports.

Usage::

    ambitlab --config experiment.cfg [--out DIR] [--seed N]
             [--override-admissibility]

The config file is plain ``key = value`` text (``#`` starts a comment).  The
``kind`` key picks the experiment; the remaining keys feed it:

==================  =========================================================
key                 meaning
==================  =========================================================
kind                kernel-report | hermite | lln | clt | asymptotics |
                    simulate
weight.*            kernel spec (variant, alpha, ell, window corners, path)
volatility.*        volatility model (variant, sigma0, name, mean, ...)
p                   power(s), comma separated
n                   resolution schedule, comma separated
kappa / k           thinning exponent or constant thinning count (one only)
reps                replications
seed                master seed (``--seed`` overrides)
out                 output directory (``--out`` overrides)
grid_size, oversample, eval_point, cap, sigma_resolution, trend_batches
                    experiment-specific knobs
quad.rel_tol,       quadrature tolerances for the kernel-mass integrals
quad.abs_tol
override_admissibility
                    run even when the thinning exponent fails the gate
==================  =========================================================

Every run writes ``report.json`` plus CSV tables into the output directory.
The JSON embeds the fully resolved config and the master seed; all random
streams derive from that one seed through fixed substream tags (volatility 1,
lattice noise 2, exact-covariance draws 3, per-replication volatility
re-draws 4), so identical configs reproduce identical CSV numeric content
byte for byte (wall-clock runtime lives only in the JSON).

Exit statuses: 0 success; 2 invalid config (all violations listed, nothing
written); 3 numerical failure (quadrature did not converge, covariance not
positive semidefinite); 4 admissibility refusal (thinning exponent outside
the known-good range and no override requested).
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from .asymptotics import (
    admissible_kappa,
    assumption2_ratio,
    kappa_refusal,
    region_catalog,
    region_measures,
    save_measures_csv,
    slope_fit,
)
from .errors import AdmissibilityError, ConfigError, NotPSDError, QuadratureError
from .gaussian import abs_moment, up_hermite_coeffs
from .kernels import (
    QuadratureConfig,
    compute_cn,
    concentration_mass,
    concentration_point,
    near_region,
    thinning_count,
    weight_from_config,
)
from .limits import (
    CLTConfig,
    LLNConfig,
    clt_experiment,
    lln_experiment,
    report_to_dict,
    save_report_csv,
)
from .simulate import increments, save_field_csv, simulate_lattice
from .variation import save_variation_csv, scaled_power_variation, variation_field
from .volatility import sample_volatility, save_sigma_csv, vol_from_config

__all__ = ["ExperimentConfig", "main", "run", "validate"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REFUSED = 4

KINDS = ("kernel-report", "hermite", "lln", "clt", "asymptotics", "simulate")

_PLAIN_KEYS = {
    "kind", "p", "n", "kappa", "k", "reps", "seed", "out",
    "grid_size", "oversample", "eval_point", "cap", "sigma_resolution",
    "trend_batches", "override_admissibility",
}
_PREFIX_KEYS = ("weight.", "volatility.", "quad.")


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

    def get(self, key, default=None):
        return self.entries.get(key, default)

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


class _Checked:
    """Collects violations while pulling typed values out of the entries."""

    def __init__(self, config):
        self.config = config
        self.violations = list(config.problems)

    def take(self, key, convert, default=None, required_for=None):
        raw = self.config.get(key)
        if raw is None:
            if required_for:
                self.violations.append(f"missing key {key!r} (needed for kind={required_for})")
            return default
        try:
            return convert(raw)
        except (TypeError, ValueError) as exc:
            self.violations.append(f"{key}: {exc}")
            return default

    def require(self, cond, message):
        if not cond:
            self.violations.append(message)
        return cond


def _validate_parts(config):
    """(general violations, admissibility refusals) for one config."""
    chk = _Checked(config)
    for key in config.entries:
        if key not in _PLAIN_KEYS and not key.startswith(_PREFIX_KEYS):
            chk.violations.append(f"unknown key {key!r}")

    kind = config.get("kind")
    if kind is None:
        chk.violations.append("missing key 'kind'")
    elif kind not in KINDS:
        chk.violations.append(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")

    chk.take("seed", _parse_strict_int, default=0)
    overridden = chk.take("override_admissibility", _parse_bool, default=False)

    p_values = chk.take("p", lambda raw: _parse_list(raw, float))
    if p_values is not None:
        chk.require(all(np.isfinite(p) and p > 0.0 for p in p_values),
                    f"powers must be positive, got {p_values}")

    schedule = chk.take("n", lambda raw: _parse_list(raw, _parse_strict_int))
    if schedule is not None:
        chk.require(all(n >= 2 for n in schedule),
                    f"resolutions must be >= 2, got {schedule}")
        chk.require(all(a < b for a, b in zip(schedule, schedule[1:])),
                    f"resolution schedule must be strictly increasing, got {schedule}")

    kappa = chk.take("kappa", float)
    if kappa is not None:
        chk.require(0.0 < kappa < 1.0,
                    f"thinning exponent must lie in (0,1), got {kappa}")
    k_const = chk.take("k", _parse_strict_int)
    if k_const is not None:
        chk.require(k_const >= 1, f"constant thinning k must be >= 1, got {k_const}")
    chk.require(not (kappa is not None and k_const is not None),
                "set exactly one of kappa and k, not both")

    reps = chk.take("reps", _parse_strict_int)
    if reps is not None:
        chk.require(reps >= 1, f"replications must be >= 1, got {reps}")
    for key, floor in (("grid_size", 0), ("oversample", 1), ("cap", 1),
                       ("sigma_resolution", 2), ("trend_batches", 2)):
        val = chk.take(key, _parse_strict_int)
        if val is not None:
            chk.require(val >= floor, f"{key} must be >= {floor}, got {val}")
    eval_point = chk.take("eval_point", lambda raw: _parse_list(raw, float))
    if eval_point is not None:
        chk.require(len(eval_point) == 2
                    and all(0.0 < x <= 1.0 for x in eval_point),
                    f"eval_point must be two coordinates in (0,1], got {eval_point}")
    for key in ("quad.rel_tol", "quad.abs_tol"):
        tol = chk.take(key, float)
        if tol is not None:
            chk.require(np.isfinite(tol) and tol > 0.0,
                        f"{key} must be a positive tolerance, got {tol}")

    weight = None
    if "weight.variant" in config.entries or kind in (
            "kernel-report", "lln", "clt", "asymptotics", "simulate"):
        try:
            weight = weight_from_config(config.entries)
        except (ValueError, TypeError, OSError, ConfigError) as exc:
            chk.violations.append(f"weight: {exc}")

    if "volatility.variant" in config.entries or kind in ("lln", "clt", "simulate"):
        try:
            vol_from_config(config.entries)
        except (ConfigError, ValueError, TypeError) as exc:
            chk.violations.append(f"volatility: {exc}")

    if kind == "hermite":
        chk.require(p_values is not None, "hermite needs a p list")
    elif kind in ("kernel-report", "asymptotics", "simulate"):
        chk.require(schedule is not None, f"{kind} needs an n schedule")
    elif kind in ("lln", "clt"):
        chk.require(schedule is not None, f"{kind} needs an n schedule")
        chk.require(p_values is not None, f"{kind} needs a p list")
    if kind == "lln":
        chk.require(kappa is not None or k_const is not None,
                    "lln needs a thinning rule: kappa or k")
    if kind == "clt":
        chk.require(kappa is not None,
                    "clt thins by an exponent: set kappa, not a constant k")
        if p_values is not None:
            chk.require(len(p_values) == 1,
                        f"clt runs a single power, got {len(p_values)}")
    if kind == "asymptotics":
        chk.require(kappa is not None, "asymptotics needs the thinning exponent kappa")
        if weight is not None:
            chk.require(weight.catalog_min_k is not None,
                        "region catalogs exist for the corner-singular and "
                        "cone kernels only")
    if kind == "simulate" and schedule is not None:
        chk.require(len(schedule) == 1,
                    f"simulate takes a single resolution, got {len(schedule)}")

    refusals = []
    if (weight is not None and kappa is not None and not overridden
            and kind in ("lln", "clt", "asymptotics")):
        reason = kappa_refusal(weight, kappa)
        if reason is not None:
            refusals.append(f"{reason}; pass --override-admissibility to run anyway")
    return chk.violations, refusals


def validate(config):
    """All violations of one config, config-level and admissibility alike.

    Never raises: an unreadable value becomes a message, and every message
    is collected so one round trip shows every problem at once.  An empty
    list means ``run`` will accept the config.
    """
    general, refusals = _validate_parts(config)
    return general + refusals


# ---------------------------------------------------------------------------
# resolved settings
# ---------------------------------------------------------------------------

class _Resolved:
    def __init__(self, config):
        e = config.entries
        self.kind = e["kind"]
        self.seed = int(e.get("seed", 0))
        self.out_dir = e.get("out", "reports")
        self.override = _parse_bool(e.get("override_admissibility", "false"))
        self.p_values = tuple(_parse_list(e["p"], float)) if "p" in e else (2.0,)
        self.schedule = tuple(_parse_list(e["n"], int)) if "n" in e else ()
        self.kappa = float(e["kappa"]) if "kappa" in e else None
        self.k = int(e["k"]) if "k" in e else None
        self.reps = int(e["reps"]) if "reps" in e else None
        self.grid_size = int(e.get("grid_size", 5))
        self.oversample = int(e.get("oversample", 1))
        self.cap = int(e.get("cap", 32))
        self.sigma_resolution = int(e.get("sigma_resolution", 64))
        self.trend_batches = int(e.get("trend_batches", 8))
        self.eval_point = (tuple(_parse_list(e["eval_point"], float))
                           if "eval_point" in e else (1.0, 1.0))
        if "quad.rel_tol" in e or "quad.abs_tol" in e:
            base = QuadratureConfig()
            self.quadcfg = QuadratureConfig(
                rel_tol=float(e.get("quad.rel_tol", base.rel_tol)),
                abs_tol=float(e.get("quad.abs_tol", base.abs_tol)),
            )
        else:
            self.quadcfg = None
        self.weight = (weight_from_config(e)
                       if "weight.variant" in e or self.kind not in ("hermite",)
                       else None)
        self.volatility = (vol_from_config(e)
                           if "volatility.variant" in e else None)
        if self.volatility is None and self.kind in ("lln", "clt", "simulate"):
            self.volatility = vol_from_config({"volatility.variant": "constant"})

    def thinning_for(self, n):
        if self.k is not None:
            return self.k
        if self.kappa is not None:
            return thinning_count(n, self.kappa)
        return 1


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

def run(config):
    """Validate, execute, and write ``report.json`` plus CSV tables.

    Returns the exit status.  Nothing is written unless validation passes;
    the report lands last, so a ``report.json`` on disk certifies that every
    CSV next to it is complete.
    """
    general, refusals = _validate_parts(config)
    if general or refusals:
        for message in general + refusals:
            print(f"config: {message}", file=sys.stderr)
        return EXIT_REFUSED if not general else EXIT_CONFIG

    res = _Resolved(config)
    os.makedirs(res.out_dir, exist_ok=True)
    t_start = time.perf_counter()
    runner = {
        "hermite": _run_hermite,
        "kernel-report": _run_kernel_report,
        "lln": _run_lln,
        "clt": _run_clt,
        "asymptotics": _run_asymptotics,
        "simulate": _run_simulate,
    }[res.kind]
    try:
        targets, results, files = runner(res)
    except (QuadratureError, np.linalg.LinAlgError, NotPSDError) as exc:
        print(f"numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AdmissibilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED

    resolved = dict(sorted(config.entries.items()))
    resolved.setdefault("seed", str(res.seed))
    resolved.setdefault("out", res.out_dir)
    report = {
        "kind": res.kind,
        "config": resolved,
        "seed": res.seed,
        "targets": targets,
        "results": results,
        "files": sorted(files),
        "runtime_s": time.perf_counter() - t_start,
    }
    path = os.path.join(res.out_dir, "report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _run_hermite(res):
    targets = {
        "alpha": "coefficients of |x|^p - m_p against He_k/k!; the k=0,1 "
                 "coefficients vanish (rank two), and alpha_2 = 2 at p = 2",
        "parseval_total": "sum over k of alpha_k^2/k!, increasing to "
                          "m_2p - m_p^2",
    }
    per_p, files = {}, []
    for p in res.p_values:
        exp = up_hermite_coeffs(p)
        sums = exp.partial_sums()
        path = os.path.join(res.out_dir, f"hermite_p{p:g}.csv")
        with open(path, "w") as fh:
            fh.write("k,alpha,partial_parseval\n")
            for k, (a, s) in enumerate(zip(exp.alpha, sums)):
                fh.write(f"{k},{float(a)!r},{float(s)!r}\n")
        files.append(os.path.basename(path))
        per_p[repr(float(p))] = {
            "m_p": float(abs_moment(p)),
            "m_2p": float(abs_moment(2.0 * p)),
            "alpha_2": float(exp.alpha[2]),
            "parseval_total": float(sums[-1]),
            "parseval_target": float(exp.parseval_target()),
            "parseval_gap": float(exp.parseval_gap()),
        }
    return targets, {"per_p": per_p}, files


def _run_kernel_report(res):
    targets = {
        "c_n": "squared mass of the differenced kernel; 4/n^2 exactly for "
               "the rectangle indicator",
        "concentration": "share of that mass in the corner cells (rectangle "
                         "indicator: 1/4 each) or in the shrinking "
                         "neighborhood of the concentration point",
    }
    per_n = {}
    extra_cols = []
    for n in res.schedule:
        cn = compute_cn(res.weight, n, res.quadcfg)
        k = res.thinning_for(n)
        row = {"c_n": float(cn), "k": int(k), "eps": k / n}
        for name, cell in res.weight.corner_cells(n).items():
            row[name] = float(concentration_mass(res.weight, n, cell, res.quadcfg))
        if concentration_point(res.weight) is not None:
            row["near_mass"] = float(concentration_mass(
                res.weight, n, near_region(res.weight, k / n), res.quadcfg))
        per_n[str(n)] = row
        extra_cols = [key for key in row if key not in ("c_n", "k", "eps")]
    path = os.path.join(res.out_dir, "kernel_report.csv")
    with open(path, "w") as fh:
        fh.write("n,c_n,k,eps" + "".join(f",{c}" for c in extra_cols) + "\n")
        for n in res.schedule:
            row = per_n[str(n)]
            cells = [str(n), repr(row["c_n"]), str(row["k"]), repr(row["eps"])]
            cells += [repr(row[c]) for c in extra_cols]
            fh.write(",".join(cells) + "\n")
    return targets, {"per_n": per_n}, [os.path.basename(path)]


def _lln_targets():
    return {
        "sup_error": "sup over the grid of |scaled variation - m_p * "
                     "Sigma^(p,pi)|, decreasing to 0 in n",
        "mean_part": "|exact conditional mean - limit|; the deterministic "
                     "floor-lattice bias share of the error",
        "raw_v": "unscaled variation at (1,1); its expectation is the sum "
                 "of increment variances (n^2 c_n at k=1, unit volatility)",
    }


def _run_lln(res):
    cfg = dict(weight=res.weight, volatility=res.volatility,
               p_values=res.p_values, n_schedule=res.schedule,
               k=res.k, kappa=res.kappa, grid_size=res.grid_size,
               oversample=res.oversample, seed=res.seed,
               override_admissibility=res.override)
    if res.reps is not None:
        cfg["reps"] = res.reps
    report = lln_experiment(LLNConfig(**cfg))
    path = os.path.join(res.out_dir, "lln.csv")
    save_report_csv(report, path)
    return _lln_targets(), report_to_dict(report), [os.path.basename(path)]


def _run_clt(res):
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
    cfg = dict(weight=res.weight, volatility=res.volatility,
               p=res.p_values[0], n_schedule=res.schedule, kappa=res.kappa,
               eval_point=res.eval_point, seed=res.seed, cap=res.cap,
               sigma_resolution=res.sigma_resolution,
               trend_batches=res.trend_batches,
               override_admissibility=res.override)
    if res.reps is not None:
        cfg["reps"] = res.reps
    report = clt_experiment(CLTConfig(**cfg))
    path = os.path.join(res.out_dir, "clt.csv")
    save_report_csv(report, path)
    return targets, report_to_dict(report), [os.path.basename(path)]


def _run_asymptotics(res):
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
    measures, ratios = {}, {}
    for n in res.schedule:
        catalog = region_catalog(res.weight, n, res.kappa)
        names = tuple(dict.fromkeys(catalog.partition + ("Etilde",)))
        measures[n] = region_measures(res.weight, n, catalog, names=names,
                                      quadcfg=res.quadcfg)
        ratios[str(n)] = float(assumption2_ratio(res.weight, n, res.kappa,
                                                 quadcfg=res.quadcfg))
    csv_path = os.path.join(res.out_dir, "region_measures.csv")
    save_measures_csv(measures, csv_path)
    ratio_path = os.path.join(res.out_dir, "assumption2.csv")
    with open(ratio_path, "w") as fh:
        fh.write("n,ratio\n")
        for n in res.schedule:
            fh.write(f"{n},{ratios[str(n)]!r}\n")

    slopes = {}
    region_names = sorted({name for table in measures.values() for name in table})
    for name in region_names:
        values = {n: measures[n][name] for n in res.schedule}
        try:
            fit = slope_fit(values)
        except ValueError as exc:
            slopes[name] = {"skipped": str(exc)}
        else:
            slopes[name] = {"exponent": fit.exponent, "intercept": fit.intercept,
                            "r_squared": fit.r_squared}
    try:
        admissible = str(admissible_kappa(res.weight))
    except ValueError as exc:
        admissible = f"unknown ({exc})"
    results = {
        "admissible_kappa": admissible,
        "kappa": res.kappa,
        "per_n": {str(n): {name: float(v) for name, v in measures[n].items()}
                  for n in res.schedule},
        "assumption2_ratio": ratios,
        "slopes": slopes,
    }
    return targets, results, [os.path.basename(csv_path), os.path.basename(ratio_path)]


def _run_simulate(res):
    targets = {
        "field": "kernel-smoothed white-noise sheet on the (n+1)^2 lattice",
        "scaled_variation": "scaled power variation of its thinned "
                            "increments; near m_p * Sigma^(p,pi) for "
                            "admissible thinning",
    }
    n = res.schedule[0]
    M = 2 * n * res.oversample
    sigma = sample_volatility(res.volatility, M, seed=res.seed)
    fld = simulate_lattice(res.weight, sigma, n, M, seed=res.seed, rep=0)
    k = res.thinning_for(n)
    inc = increments(fld, k)
    p = res.p_values[0]
    V = variation_field(inc, p, c_n=compute_cn(res.weight, n, res.quadcfg))
    scaled = scaled_power_variation(V)
    files = []
    for name, saver, obj in (("field.csv", save_field_csv, fld),
                             ("sigma.csv", save_sigma_csv, sigma),
                             ("variation.csv", save_variation_csv, scaled)):
        path = os.path.join(res.out_dir, name)
        saver(obj, path)
        files.append(name)
    results = {
        "n": n, "M": M, "k": k, "p": p,
        "field_min": float(fld.values.min()),
        "field_max": float(fld.values.max()),
        "scaled_variation_at_11": float(scaled.at(1.0, 1.0)),
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
