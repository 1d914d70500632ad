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

Both experiments derive every random stream from one master seed and refuse
thinning exponents outside the kernel's admissible range unless explicitly
overridden.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .asymptotics import kappa_refusal
from .errors import AdmissibilityError
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
    retained_corners,
    scaled_power_variation,
    variation_field,
)
from .volatility import sample_volatility

__all__ = [
    "CLTConfig",
    "LLNConfig",
    "clt_experiment",
    "clt_variance",
    "lln_experiment",
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
        return np.unique(np.concatenate(cs))

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
    _check_shifted_domain(atoms, s, t)
    if s == 0.0 or t == 0.0:
        return 0.0
    return float(_functional_on_grid(sigma, p, atoms, [s], [t])[0, 0])


def clt_variance(sigma, p, z0, s, t):
    """Variance of the Gaussian fluctuation limit at (s, t).

    (m_2p - m_p^2) times the integral of sigma^(2p) over the window shifted
    by z0; monotone nondecreasing in s and t since the integrand is positive.
    """
    spread = abs_moment(2.0 * p) - abs_moment(p) ** 2
    return spread * sigma_functional(sigma, 2.0 * p, ((1.0, z0),), s, t)


# ---------------------------------------------------------------------------
# experiment configuration and reports
# ---------------------------------------------------------------------------

def _require(cond, message):
    if not cond:
        raise ValueError(message)


def _integer(value, name):
    _require(math.isfinite(value) and value == int(value),
             f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_schedule_and_sizes(config, sizes):
    """The checks both configs share.  The schedule and each named size that is
    set become ints: a fractional value is refused, not truncated (8.0 passes)."""
    object.__setattr__(config, "n_schedule",
                       tuple(_integer(n, "each resolution") for n in config.n_schedule))
    for name in sizes:
        if getattr(config, name) is not None:
            object.__setattr__(config, name, _integer(getattr(config, name), name))
    _require(config.seed >= 0, f"seed must be a non-negative integer, got {config.seed}")
    _require(len(config.n_schedule) > 0, "need a nonempty n schedule")
    _require(all(n >= 2 for n in config.n_schedule),
             f"resolutions must be >= 2, got {config.n_schedule}")
    _require(all(a < b for a, b in zip(config.n_schedule, config.n_schedule[1:])),
             "n schedule must be strictly increasing")
    _require(config.reps >= 1, f"need at least one replication, got {config.reps}")


@dataclass(frozen=True)
class LLNConfig:
    """Settings for the convolution-path mean-convergence experiment."""

    weight: object
    volatility: object
    p_values: tuple = (2.0,)
    n_schedule: tuple = (64, 128, 256)
    k: int | None = None
    kappa: float | None = None
    reps: int = 200
    grid_size: int = 5
    oversample: int = 1
    seed: int = 0
    override_admissibility: bool = False

    def __post_init__(self):
        object.__setattr__(self, "p_values", tuple(float(p) for p in self.p_values))
        _require_schedule_and_sizes(self, ("k", "reps", "grid_size", "oversample", "seed"))
        _require(len(self.p_values) > 0, "need at least one power p")
        _require(all(p > 0.0 and math.isfinite(p) for p in self.p_values),
                 f"powers must be positive and finite, got {self.p_values}")
        _require(len(set(self.p_values)) == len(self.p_values),
                 f"powers must not repeat, got {self.p_values}")
        _require((self.k is None) != (self.kappa is None),
                 "thinning rule must set exactly one of k and kappa")
        _require(self.kappa is None or 0.0 < self.kappa < 1.0,
                 f"thinning exponent must lie in (0,1), got {self.kappa}")
        if self.k is not None:
            _require(self.k >= 1, f"constant thinning k must be >= 1, got {self.k}")
        _require(self.grid_size >= 1, f"grid size must be >= 1, got {self.grid_size}")
        _require(self.oversample >= 1, f"oversample must be >= 1, got {self.oversample}")


@dataclass(frozen=True)
class CLTConfig:
    """Settings for the exact-covariance fluctuation experiment."""

    weight: object
    volatility: object
    p: float = 2.0
    n_schedule: tuple = (200, 400, 600)
    kappa: float = 0.4
    reps: int = 2000
    eval_point: tuple = (1.0, 1.0)
    seed: int = 0
    sigma_resolution: int = 64
    override_admissibility: bool = False

    def __post_init__(self):
        _require_schedule_and_sizes(self, ("reps", "seed", "sigma_resolution"))
        object.__setattr__(self, "eval_point", tuple(float(x) for x in self.eval_point))
        _require(self.p > 0.0 and math.isfinite(self.p),
                 f"power must be positive and finite, got {self.p}")
        _require(0.0 < self.kappa < 1.0,
                 f"thinning exponent must lie in (0,1), got {self.kappa}")
        s, t = self.eval_point
        _require(0.0 < s <= 1.0 and 0.0 < t <= 1.0,
                 f"evaluation point {self.eval_point} outside (0,1]^2")
        _require(self.sigma_resolution >= 2,
                 f"volatility resolution must be >= 2, got {self.sigma_resolution}")


def _quartile_stats(name, xs):
    """The quartiles of xs under name_q1, name_median and name_q3; None if xs is empty."""
    keys = (f"{name}_q1", f"{name}_median", f"{name}_q3")
    if not xs:
        return dict.fromkeys(keys)
    return dict(zip(keys, np.percentile(xs, [25.0, 50.0, 75.0]).tolist()))


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

def lln_experiment(config):
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
    """
    t_start = time.perf_counter()
    flags = []
    weight, vol = config.weight, config.volatility
    if config.kappa is not None:
        _gate_kappa(weight, config.kappa, config.override_admissibility, flags)

    atoms = require_weight(weight).limit_atoms()
    grid = [i / config.grid_size for i in range(1, config.grid_size + 1)]
    exact_mean = vol.constant or weight.has_strips
    if not exact_mean:
        flags.append(
            f"mean/stochastic split skipped: the {weight.variant} weight has no exact "
            f"conditional expectation under {vol.variant} volatility"
        )

    per_n = {}
    for n in config.n_schedule:
        k = config.k if config.k is not None else thinning_count(n, config.kappa)
        if k > n:
            raise ValueError(f"thinning k={k} exceeds n={n}")
        eps = k / n
        cn = compute_cn(weight, n)
        M = 2 * n * config.oversample

        def limit_and_mean(sigma, p):
            """m_p Sigma^(p,pi) on the grid, and E_W[scaled V_n | sigma] where exact."""
            target = abs_moment(p) * _functional_on_grid(sigma, p, atoms, grid, grid)
            if not exact_mean:
                return target, None
            return target, np.array([[expected_scaled_pv(weight, sigma, n, k, p, s, t)
                                      for t in grid] for s in grid])

        if not vol.redrawn:
            sigma = sample_volatility(vol, M, seed=config.seed)
            shared = {p: limit_and_mean(sigma, p) for p in config.p_values}

        sup_err, mean_part, stoch_part, raw_v = ({p: [] for p in config.p_values}
                                                 for _ in range(4))
        for rep in range(config.reps):
            if vol.redrawn:
                sigma = sample_volatility(vol, M, seed=_redraw_seed(config.seed, rep))
            fld = simulate_lattice(weight, sigma, n, M, seed=config.seed, rep=rep)
            inc = increments(fld, k)
            for p in config.p_values:
                V = variation_field(inc, p)
                scaled = scaled_power_variation(V, p, eps, cn)
                svals = np.array([[scaled[retained_corners(s, t, eps)] for t in grid]
                                  for s in grid])
                target, mean = limit_and_mean(sigma, p) if vol.redrawn else shared[p]
                sup_err[p].append(float(np.max(np.abs(svals - target))))
                raw_v[p].append(float(V[retained_corners(1.0, 1.0, eps)]))
                if mean is not None:
                    mean_part[p].append(float(np.max(np.abs(mean - target))))
                    stoch_part[p].append(float(np.max(np.abs(svals - mean))))

        per_n[str(n)] = {repr(p): {
            "k": k, "eps": eps, "c_n": float(cn),
            **_quartile_stats("sup_error", sup_err[p]),
            "raw_v_mean": float(np.mean(raw_v[p])),
            "raw_v_se": float(np.std(raw_v[p], ddof=1) / math.sqrt(config.reps))
            if config.reps > 1 else None,
            **_quartile_stats("mean_part", mean_part[p]),
            **_quartile_stats("stoch_part", stoch_part[p]),
        } for p in config.p_values}

    if config.reps == 1:
        flags.append("single replication: dispersion statistics degenerate")
    return {
        "kind": "lln", "n_schedule": list(config.n_schedule), "reps": config.reps,
        "seed": config.seed, "runtime_s": time.perf_counter() - t_start,
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


def clt_experiment(config):
    """Exact-covariance fluctuations of the thinned variation.

    Per resolution: draw the thinned increment vector from its exact
    covariance, center the variation at the exact conditional expectation,
    rescale, and compare the sample variance against (a) the exact finite-n
    value -- in closed form for p=2 -- and (b) the asymptotic limit variance.
    Skewness, excess kurtosis and the Kolmogorov distance to a fitted normal
    quantify the distributional trend; batch medians of the absolute moment
    diagnostics give a robust monotone-trend statistic.

    Returns the dict ``lln_experiment`` describes, with kind "clt" and
    ``per_n`` mapping ``str(n)`` to one flat table of statistics.
    """
    t_start = time.perf_counter()
    flags = []
    weight, vol = config.weight, config.volatility
    p = float(config.p)
    _gate_kappa(weight, config.kappa, config.override_admissibility, flags)
    sigma = sample_volatility(vol, config.sigma_resolution, seed=config.seed)
    s_eval, t_eval = config.eval_point

    if weight.concentration_point is not None:
        asymptotic = clt_variance(sigma, p, weight.concentration_point, s_eval, t_eval)
    else:
        asymptotic = None
        flags.append(
            "no single concentration point: asymptotic variance target omitted"
        )

    mp = abs_moment(p)
    per_n = {}
    for n in config.n_schedule:
        k = thinning_count(n, config.kappa)
        eps = k / n
        cov = increment_covariance(weight, sigma, n, k)
        keep = np.flatnonzero(np.all(cov.indices <= retained_corners(s_eval, t_eval, eps),
                                     axis=1))
        if keep.size == 0:
            raise ValueError(
                f"evaluation point {config.eval_point} excludes every retained "
                f"increment at n={n} (eps={eps:g})"
            )
        mat = cov.matrix[np.ix_(keep, keep)]
        diag = np.diag(mat)
        cn = cov.c_n
        scale = eps / cn ** (0.5 * p)
        expected_v = mp * float(np.sum(diag ** (0.5 * p)))

        draws = sample_increments_exact(cov, config.seed, config.reps)[:, keep]
        z = scale * (np.sum(np.abs(draws) ** p, axis=1) - expected_v)

        exact_var = 2.0 * float(np.sum((eps * mat / cn) ** 2)) if p == 2.0 else None
        if exact_var is None and n == config.n_schedule[0]:
            flags.append(f"exact finite-n variance in closed form needs p=2, got p={p}")
        entry = {
            "k": k, "eps": eps, "c_n": float(cn), "dim": int(keep.size),
            "rho_bar": float(rho_bar(cov)) if cov.dim >= 2 else 0.0,
            "asymptotic_variance": asymptotic,
            "exact_variance": exact_var,
        }

        if config.reps > 1:
            entry["sample_variance"] = float(np.var(z, ddof=1))
            base = exact_var if exact_var is not None else entry["sample_variance"]
            entry["variance_se"] = float(base * math.sqrt(2.0 / (config.reps - 1)))
            entry["skewness"], entry["excess_kurtosis"] = _shape_moments(z)
            entry["kolmogorov_distance"] = _kolmogorov_distance(z)
        else:
            for key in ("sample_variance", "variance_se", "skewness",
                        "excess_kurtosis", "kolmogorov_distance"):
                entry[key] = None
        if config.reps >= 2 * _TREND_BATCHES:
            batches = np.array_split(z[: config.reps - config.reps % _TREND_BATCHES],
                                     _TREND_BATCHES)
            shapes = np.abs([_shape_moments(b) for b in batches])
            entry["abs_skewness_median"] = float(np.median(shapes[:, 0]))
            entry["abs_excess_kurtosis_median"] = float(np.median(shapes[:, 1]))
        else:
            entry["abs_skewness_median"] = None
            entry["abs_excess_kurtosis_median"] = None
        per_n[str(n)] = entry

    if config.reps == 1:
        flags.append("single replication: sample variance undefined")
    return {
        "kind": "clt", "n_schedule": list(config.n_schedule), "reps": config.reps,
        "seed": config.seed, "runtime_s": time.perf_counter() - t_start,
        "flags": flags, "per_n": per_n,
    }
