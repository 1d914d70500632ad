"""Limit targets for thinned power variations and the harnesses that check them.

Per replication, the scaled variation field of a simulated lattice converges
to m_p * Sigma^(p,pi): an integral functional of the realized volatility
against the concentration limit pi of the squared differenced kernel.  Its
fluctuations around the exact conditional mean are asymptotically Gaussian
with variance (m_2p - m_p^2) * integral of sigma^(2p) over the shifted
window.  This module computes both targets from realized volatility grids --
read cell-constantly, exactly as the simulation itself reads them -- and
runs the two reference Monte Carlo experiments:

* ``lln_experiment``: convolution-path simulation, sup distance between the
  scaled variation field and its limit over an evaluation grid, with the
  error split into the exact conditional mean's bias and the stochastic rest;
* ``clt_experiment``: exact-covariance path, the centered and rescaled
  variation against its Gaussian limit, with moment and distribution-distance
  diagnostics.

Both experiments take their settings as keywords, named as the config keys
of ``cli`` (but ``p_values``/``p`` for p and ``n_schedule`` for n), and
check them against the one rule table that ``setting_problems`` applies --
the table ``cli.validate`` reads too -- before any work.  They derive every
random stream from one master seed and refuse thinning exponents outside the
kernel's admissible range unless explicitly overridden.
"""

import math
import time

import numpy as np

from .asymptotics import kappa_refusal
from .errors import AdmissibilityError, FloatRangeError, QuadratureError
from .gaussian import abs_moment
from .kernels import compute_cn, require_weight, thinning_count
from .simulate import (
    increment_covariance,
    increments,
    rho_bar,
    sample_increments_exact,
    simulate_lattice,
)
from .variation import (
    expected_scaled_pv,
    has_exact_mean,
    retained_corners,
    scaled_power_variation,
    variation_field,
)
from .volatility import sample_volatility

__all__ = [
    "clt_experiment",
    "clt_variance",
    "lln_experiment",
    "setting_problems",
    "sigma_functional",
]

_REDRAW_STREAM = 4  # substream tag: per-replication volatility re-draw roots
_TREND_BATCHES = 8  # clt replication batches whose shape statistics take a median


# ---------------------------------------------------------------------------
# limit functionals
# ---------------------------------------------------------------------------

def _check_shifted_domain(atoms, s, t):
    for _, (xi, tau) in atoms:
        if xi < s - 1.0 - 1e-12 or xi > 1.0 + 1e-12 or tau < t - 1.0 - 1e-12 or tau > 1.0 + 1e-12:
            raise ValueError(
                f"shifted domain for the atom at ({xi}, {tau}) escapes the "
                f"sampled square [-1,1]^2 at evaluation point ({s}, {t})"
            )


def _unique(x):
    """np.unique(x) of a 1-D array bit for bit, without the import of numpy.ma
    that it makes; x holds no NaN."""
    x = np.sort(x)
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _mixture_cell_table(sigma, atoms, s_max, t_max):
    """Overlay cuts of [0,s]x[0,t] and the mixture of squared volatilities.

    Cell-constant volatility stays cell-constant after shifting, so cutting
    at every shifted cell edge makes the mixture exactly piecewise constant
    and the integrals below exact for the grid-as-defined.
    """
    m = sigma.resolution
    edges = -1.0 + 2.0 * np.arange(m + 1) / m

    def cuts(limit, offsets):
        cs = [np.array([0.0, limit])]
        for off in offsets:
            e = edges + off
            cs.append(e[(e > 0.0) & (e < limit)])
        return _unique(np.concatenate(cs))

    cu = cuts(s_max, [xi for _, (xi, _) in atoms])
    cv = cuts(t_max, [tau for _, (_, tau) in atoms])
    mu = 0.5 * (cu[1:] + cu[:-1])
    mv = 0.5 * (cv[1:] + cv[:-1])
    mix = np.zeros((mu.size, mv.size))
    for w, (xi, tau) in atoms:
        mix += w * sigma.at(mu[:, None] - xi, mv[None, :] - tau) ** 2
    return cu, cv, mix


def _functional_on_grid(sigma, p, atoms, s_list, t_list):
    """Sigma^(p,pi) at every (s_i, t_j) of a rectangular evaluation grid."""
    s_max, t_max = max(s_list), max(t_list)
    _check_shifted_domain(atoms, s_max, t_max)
    if sigma.is_constant:
        # a probability measure integrates a constant to that constant
        base = float(sigma.values.flat[0]) ** p
        return base * np.outer(s_list, t_list)
    cu, cv, mix = _mixture_cell_table(sigma, atoms, s_max, t_max)
    F = mix ** (0.5 * p)
    wu = np.clip(np.minimum(np.asarray(s_list)[:, None], cu[None, 1:]) - cu[None, :-1],
                 0.0, None)
    wv = np.clip(np.minimum(np.asarray(t_list)[:, None], cv[None, 1:]) - cv[None, :-1],
                 0.0, None)
    return wu @ F @ wv.T


def sigma_functional(sigma, p, atoms, s, t):
    """Limit of the scaled variation per unit m_p: Sigma^(p,pi) at (s, t).

    ``atoms`` is the concentration limit pi as a tuple of (weight, (xi, tau))
    pairs, the form ``WeightSpec.limit_atoms()`` returns.  Integrates
    (integral of sigma^2(u-xi, v-tau) against pi)^(p/2) over [0,s] x [0,t],
    reading the realized grid cell-constantly -- the same reading the
    simulation path uses, so comparisons are apples to apples.  For a unit
    atom at (s0, t0) this is the plain integral of sigma^p over
    [-s0, s-s0] x [-t0, t-t0].
    """
    if not (p > 0.0 and math.isfinite(p)):
        raise ValueError(f"power must be positive, got {p}")
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError(f"evaluation point ({s}, {t}) outside the unit square")
    return float(_functional_on_grid(sigma, p, atoms, [s], [t])[0, 0])


def clt_variance(sigma, p, z0, s, t):
    """Variance of the Gaussian fluctuation limit at (s, t).

    (m_2p - m_p^2) times the integral of sigma^(2p) over the window shifted
    by z0; monotone nondecreasing in s and t since the integrand is positive.
    """
    spread = abs_moment(2.0 * p) - abs_moment(p) ** 2
    return spread * sigma_functional(sigma, 2.0 * p, ((1.0, z0),), s, t)


# ---------------------------------------------------------------------------
# experiment settings and reports
# ---------------------------------------------------------------------------

# config key -> its rules, each (holds, message); the message's {} is the value
_RULES = {
    "seed": ((lambda seed: seed >= 0, "seed must be a non-negative integer, got {}"),),
    "p": ((lambda ps: len(ps) > 0, "need at least one power, got {}"),
          (lambda ps: all(math.isfinite(p) and p > 0.0 for p in ps),
           "powers must be positive, got {}"),
          (lambda ps: len(set(ps)) == len(ps), "powers must not repeat, got {}")),
    "n": ((lambda ns: len(ns) > 0, "need at least one resolution, got {}"),
          (lambda ns: all(n >= 2 for n in ns), "resolutions must be >= 2, got {}"),
          (lambda ns: all(a < b for a, b in zip(ns, ns[1:])),
           "resolution schedule must be strictly increasing, got {}")),
    "kappa": ((lambda kappa: 0.0 < kappa < 1.0, "thinning exponent must lie in (0,1), got {}"),),
    "k": ((lambda k: k >= 1, "constant thinning k must be >= 1, got {}"),),
    "reps": ((lambda reps: reps >= 1, "replications must be >= 1, got {}"),),
    **{key: ((lambda value, floor=floor: value >= floor, f"{key} must be >= {floor}, got {{}}"),)
       for key, floor in (("grid_size", 1), ("oversample", 1), ("sigma_resolution", 2))},
    "eval_point": ((lambda xs: len(xs) == 2 and all(0.0 < x <= 1.0 for x in xs),
                    "eval_point must be two coordinates in (0,1], got {}"),),
}
_SIZES = ("seed", "n", "k", "reps", "grid_size", "oversample", "sigma_resolution")


def setting_problems(settings):
    """The message of every rule that ``settings``, config key -> value, breaks.

    Each key is checked against its own rules (a key the table does not know
    passes), and the joint rules read the keys that passed: a constant k past
    the smallest n, kappa and k set together, and an ``eval_point`` that keeps
    no thinned increment at some n.  ``p``, ``n`` and ``eval_point`` are lists.
    """
    problems, valid = [], {}
    for key, value in settings.items():
        failed = [message.format(value) for holds, message in _RULES.get(key, ())
                  if not holds(value)]
        problems += failed
        if not failed:
            valid[key] = value
    if "kappa" in settings and "k" in settings:
        problems.append("set exactly one of kappa and k, not both")
    schedule = valid.get("n")
    if schedule and "k" in valid and valid["k"] > min(schedule):
        problems.append(f"constant thinning k={valid['k']} exceeds the smallest "
                        f"resolution n={min(schedule)}")
    if schedule and "kappa" in valid and "eval_point" in valid:
        # clt_experiment keeps the retained corners below the evaluation point
        empty = [f"n={n} (k_n/n = {k / n:g})" for n in schedule
                 for k in [thinning_count(n, valid["kappa"])]
                 if 0 in retained_corners(*valid["eval_point"], k / n)]
        if empty:
            problems.append(f"eval_point {tuple(valid['eval_point'])} excludes every "
                            f"retained increment at {', '.join(empty)}")
    return problems


def _checked(**settings):
    """The values of ``settings``, in order, each size an int, once every rule holds.

    Keys are config keys, and None leaves a key unset.  A fractional size is
    refused, not truncated (8.0 passes as 8).  Raises one ValueError that
    names every broken rule.
    """
    problems, known = [], {}
    for key, value in settings.items():
        if value is None:
            continue
        if key in _SIZES:
            items = value if key == "n" else [value]
            if not all(math.isfinite(v) and v == int(v) for v in items):
                problems.append(f"{key} must be {'integers' if key == 'n' else 'an integer'}, "
                                f"got {value!r}")
                continue
            value = settings[key] = [int(v) for v in items] if key == "n" else int(value)
        known[key] = value
    problems += setting_problems(known)
    if problems:
        raise ValueError("; ".join(problems))
    return tuple(settings.values())


def _quartiles(xs):
    """np.percentile(xs, [25, 50, 75]) bit for bit, without the import of
    numpy.ma that it makes: a sort, then numpy's linear-method lerp."""
    x = np.sort(np.asarray(xs, dtype=float))
    at = (x.size - 1) * np.array([0.25, 0.5, 0.75])
    below = np.floor(at)
    below[at >= x.size - 1] = -1.0  # numpy reads a lone value as the last one
    t = at - below
    a = x[below.astype(np.intp)]
    b = x[np.minimum(below + 1.0, x.size - 1).astype(np.intp)]
    diff = b - a
    q = a + diff * t
    np.subtract(b, diff * (1.0 - t), out=q, where=t >= 0.5)
    return np.where(np.isnan(x[-1]), x[-1], q)


def _median(xs):
    """np.median(xs) bit for bit, without the import of numpy.ma that it makes."""
    x = np.sort(xs)
    half = x.size // 2
    middle = x[half:half + 1] if x.size % 2 else x[half - 1:half + 1]
    return x[-1] if np.isnan(x[-1]) else np.mean(middle)


def _quartile_stats(name, xs):
    """The quartiles of xs under name_q1, name_median and name_q3; None if xs is empty."""
    keys = (f"{name}_q1", f"{name}_median", f"{name}_q3")
    if not xs:
        return dict.fromkeys(keys)
    return dict(zip(keys, _quartiles(xs).tolist()))


def _gate_kappa(weight, kappa, override, flags):
    """Refuse thinning exponents outside the known-good range unless overridden."""
    reason = kappa_refusal(weight, kappa)
    if reason is None:
        return
    if not override:
        raise AdmissibilityError(f"{reason}; pass override_admissibility=True to run anyway")
    flags.append(f"{reason}: run under override")


def _redraw_seed(seed, rep):
    return int(np.random.SeedSequence((int(seed), _REDRAW_STREAM, int(rep))).generate_state(1)[0])


# ---------------------------------------------------------------------------
# mean-convergence experiment
# ---------------------------------------------------------------------------

def lln_experiment(weight, volatility, p_values=(2.0,), n_schedule=(64, 128, 256), k=None,
                   kappa=None, reps=200, grid_size=5, oversample=1, seed=0,
                   override_admissibility=False):
    """Simulate, scale, and measure the distance to m_p * Sigma^(p,pi).

    Per resolution and power: the sup over the evaluation grid of
    |scaled variation - m_p * Sigma^(p,pi)| per replication, summarized by
    quartiles, and -- where the conditional expectation given sigma is exact
    (constant volatility, or the uniform weight) -- the split into the
    deterministic mean part |E_W[scaled] - limit| and the stochastic part
    |scaled - E_W[scaled]|.  Shared and re-drawn volatility take one path:
    the limit and the mean are built once per realized sigma.  The unscaled
    variation at (1,1) is averaged as well, with its standard error, as a
    raw sanity anchor.

    Returns the JSON-ready dict with keys ``kind`` ("lln"), ``n_schedule``,
    ``reps``, ``seed``, ``runtime_s``, ``flags`` and ``per_n``.  ``per_n``
    maps ``str(n)`` to one table per power, keyed by ``repr(p)``; a statistic
    that could not be formed is None.  ``flags`` lists what kept an entry
    incomplete (a single replication, a skipped split) -- a flagged report is
    still a faithful account of what ran.

    Exactly one thinning rule is set: the constant count ``k`` or the
    exponent ``kappa``.  Every setting breaking a rule of ``setting_problems``
    (or a fractional size) is named in one ValueError before any work.
    """
    t_start = time.perf_counter()
    if k is None and kappa is None:
        raise TypeError("lln_experiment needs a thinning rule: pass k or kappa")
    p_values, n_schedule, k, kappa, reps, grid_size, oversample, seed = _checked(
        p=[float(p) for p in p_values], n=n_schedule, k=k, kappa=kappa, reps=reps,
        grid_size=grid_size, oversample=oversample, seed=seed)
    flags = []
    if kappa is not None:
        _gate_kappa(weight, kappa, override_admissibility, flags)

    atoms = require_weight(weight).limit_atoms()
    grid = [i / grid_size for i in range(1, grid_size + 1)]
    exact_mean = has_exact_mean(weight, volatility.constant)
    if not exact_mean:
        flags.append(
            f"mean/stochastic split skipped: the {weight.variant} weight has no exact "
            f"conditional expectation under {volatility.variant} volatility"
        )

    per_n = {}
    for n in n_schedule:
        k_n = k if k is not None else thinning_count(n, kappa)
        eps = k_n / n
        try:
            cn = compute_cn(weight, n)
        except QuadratureError as exc:
            raise QuadratureError(f"c_n at n={n}: {exc}", exc.estimate) from exc
        M = 2 * n * oversample

        def limit_and_mean(sigma, p):
            """m_p Sigma^(p,pi) on the grid, and E_W[scaled V_n | sigma] where exact."""
            target = abs_moment(p) * _functional_on_grid(sigma, p, atoms, grid, grid)
            if not exact_mean:
                return target, None
            return target, np.array([[expected_scaled_pv(weight, sigma, n, k_n, p, s, t)
                                      for t in grid] for s in grid])

        if not volatility.redrawn:
            sigma = sample_volatility(volatility, M, seed=seed)
            shared = {p: limit_and_mean(sigma, p) for p in p_values}

        sup_err, mean_part, stoch_part, raw_v = ({p: [] for p in p_values}
                                                 for _ in range(4))
        for rep in range(reps):
            if volatility.redrawn:
                sigma = sample_volatility(volatility, M, seed=_redraw_seed(seed, rep))
            values, _ = simulate_lattice(weight, sigma, n, M, seed=seed, rep=rep)
            inc = increments(values, k_n)
            for p in p_values:
                V = variation_field(inc, p)
                scaled = scaled_power_variation(V, p, eps, cn)
                svals = np.array([[scaled[retained_corners(s, t, eps)] for t in grid]
                                  for s in grid])
                target, mean = limit_and_mean(sigma, p) if volatility.redrawn else shared[p]
                sup_err[p].append(float(np.max(np.abs(svals - target))))
                raw_v[p].append(float(V[retained_corners(1.0, 1.0, eps)]))
                if mean is not None:
                    mean_part[p].append(float(np.max(np.abs(mean - target))))
                    stoch_part[p].append(float(np.max(np.abs(svals - mean))))

        per_n[str(n)] = {repr(p): {
            "k": k_n, "eps": eps, "c_n": float(cn),
            **_quartile_stats("sup_error", sup_err[p]),
            "raw_v_mean": float(np.mean(raw_v[p])),
            "raw_v_se": float(np.std(raw_v[p], ddof=1) / math.sqrt(reps))
            if reps > 1 else None,
            **_quartile_stats("mean_part", mean_part[p]),
            **_quartile_stats("stoch_part", stoch_part[p]),
        } for p in p_values}

    if reps == 1:
        flags.append("single replication: dispersion statistics degenerate")
    return {
        "kind": "lln", "n_schedule": n_schedule, "reps": reps,
        "seed": seed, "runtime_s": time.perf_counter() - t_start,
        "flags": flags, "per_n": per_n,
    }


# ---------------------------------------------------------------------------
# fluctuation experiment
# ---------------------------------------------------------------------------

def _shape_moments(z):
    """Skewness and excess kurtosis of a sample: biased moment ratios m3/m2^1.5, m4/m2^2 - 3."""
    dev = z - np.mean(z)
    m2 = np.mean(dev**2)
    return float(np.mean(dev**2 * dev) / m2**1.5), float(np.mean((dev**2) ** 2) / m2**2.0 - 3.0)


def _kolmogorov_distance(z):
    """Largest gap between the empirical CDF of z and the normal CDF fitted to it."""
    x = np.sort(z)
    scaled = (x - np.mean(z)) / np.std(z, ddof=1)
    cdf = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in scaled])
    n = x.size
    return float(max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n)))


def clt_experiment(weight, volatility, p=2.0, n_schedule=(200, 400, 600), kappa=0.4, reps=2000,
                   eval_point=(1.0, 1.0), seed=0, sigma_resolution=64,
                   override_admissibility=False):
    """Exact-covariance fluctuations of the thinned variation.

    Per resolution: draw the thinned increment vector from its exact
    covariance, center the variation at the exact conditional expectation,
    rescale, and compare the sample variance against (a) the exact finite-n
    value -- in closed form for p=2 -- and (b) the asymptotic limit variance.
    Skewness, excess kurtosis and the Kolmogorov distance to a fitted normal
    quantify the distributional trend; batch medians of the absolute moment
    diagnostics give a robust monotone-trend statistic.

    Returns the dict ``lln_experiment`` describes, with kind "clt" and
    ``per_n`` mapping ``str(n)`` to one flat table of statistics.  The
    settings are checked as ``lln_experiment``'s are.
    """
    t_start = time.perf_counter()
    [p], n_schedule, kappa, reps, (s_eval, t_eval), seed, sigma_resolution = _checked(
        p=[float(p)], n=n_schedule, kappa=kappa, reps=reps,
        eval_point=[float(x) for x in eval_point], seed=seed,
        sigma_resolution=sigma_resolution)
    flags = []
    _gate_kappa(weight, kappa, override_admissibility, flags)
    sigma = sample_volatility(volatility, sigma_resolution, seed=seed)

    if weight.concentration_point is not None:
        asymptotic = clt_variance(sigma, p, weight.concentration_point, s_eval, t_eval)
    else:
        asymptotic = None
        flags.append(
            "no single concentration point: asymptotic variance target omitted"
        )

    mp = abs_moment(p)
    per_n = {}
    for n in n_schedule:
        k = thinning_count(n, kappa)
        eps = k / n
        try:
            cov = increment_covariance(weight, sigma, n, k)
        except QuadratureError as exc:
            raise QuadratureError(f"increment covariance at n={n}: {exc}", exc.estimate) from exc
        keep = np.flatnonzero(np.all(cov.indices <= retained_corners(s_eval, t_eval, eps),
                                     axis=1))
        mat = cov.matrix[np.ix_(keep, keep)]
        diag = np.diag(mat)
        cn = cov.c_n
        scale = eps / cn ** (0.5 * p)
        expected_v = mp * float(np.sum(diag ** (0.5 * p)))

        draws = sample_increments_exact(cov, seed, reps)[:, keep]
        exact_var = 2.0 * float(np.sum((eps * mat / cn) ** 2)) if p == 2.0 else None
        if exact_var is None and n == n_schedule[0]:
            flags.append(f"exact finite-n variance in closed form needs p=2, got p={p}")
        entry = {
            "k": k, "eps": eps, "c_n": float(cn), "dim": int(keep.size),
            "rho_bar": float(rho_bar(cov)) if cov.dim >= 2 else 0.0,
            "asymptotic_variance": asymptotic,
            "exact_variance": exact_var,
        }

        # |increment|^p overflowing, or its spread rounding away, is refused below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z = scale * (np.sum(np.abs(draws) ** p, axis=1) - expected_v)
            if reps > 1:
                entry["sample_variance"] = float(np.var(z, ddof=1))
                base = exact_var if exact_var is not None else entry["sample_variance"]
                entry["variance_se"] = float(base * math.sqrt(2.0 / (reps - 1)))
                entry["skewness"], entry["excess_kurtosis"] = _shape_moments(z)
                entry["kolmogorov_distance"] = _kolmogorov_distance(z)
            else:
                for key in ("sample_variance", "variance_se", "skewness",
                            "excess_kurtosis", "kolmogorov_distance"):
                    entry[key] = None
            # batches of 2 or 3 draws give constant shape statistics
            if reps >= 4 * _TREND_BATCHES:
                batches = np.array_split(z[: reps - reps % _TREND_BATCHES],
                                         _TREND_BATCHES)
                shapes = np.abs([_shape_moments(b) for b in batches])
                entry["abs_skewness_median"] = float(_median(shapes[:, 0]))
                entry["abs_excess_kurtosis_median"] = float(_median(shapes[:, 1]))
            else:
                entry["abs_skewness_median"] = None
                entry["abs_excess_kurtosis_median"] = None
        bad = [key for key, v in entry.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise FloatRangeError(f"clt statistic {bad[0]} at n={n} is {entry[bad[0]]!r}: "
                                  f"|increment|^{p:g} exceeds what double precision resolves")
        per_n[str(n)] = entry

    if reps == 1:
        flags.append("single replication: sample variance undefined")
    return {
        "kind": "clt", "n_schedule": n_schedule, "reps": reps,
        "seed": seed, "runtime_s": time.perf_counter() - t_start,
        "flags": flags, "per_n": per_n,
    }
