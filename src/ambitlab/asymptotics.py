"""Decay diagnostics for the squared-increment concentration measures.

The limit theory implemented by this package rests on two numbered
hypotheses about the concentration measures pi_n = h_n^2 dx / c_n:

1. pi_n converges weakly to a fixed purely atomic probability measure pi
   supported on finitely many points (checked by ``kernel-report``'s
   ``near_mass`` and corner-cell columns);
2. for the Gaussian fluctuation result, the pi_n-mass outside a window E_n
   of diameter ~eps_n around the concentration point must vanish faster
   than eps_n^2 (checked here as a ratio that should trend to zero).

For the two kernels that concentrate at a single point -- the corner-singular
profile and the cone profile -- the differenced kernel h_n is piecewise
explicit, and its squared mass splits over a small catalog of named regions:
a window ``E`` around the concentration point, a core ``Etilde`` where the
fresh kernel value stands alone, and edge bands ``B1``..``B4`` where shifted
copies overlap or cancel.  Each band's mass decays polynomially in n with a
known exponent, and the admissible thinning exponents fall out of comparing
those rates.  This module builds the catalogs, measures the regions, fits
the decay slopes, and gates thinning exponents on each weight's admissible
range.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import QuadratureError

__all__ = [
    "PARTITION",
    "SlopeFit",
    "assumption2_ratio",
    "kappa_refusal",
    "region_catalog",
    "region_measures",
    "slope_fit",
]


# ---------------------------------------------------------------------------
# admissible thinning ranges
# ---------------------------------------------------------------------------

def kappa_refusal(spec, kappa):
    """Why kappa fails the admissibility gate for this kernel; None if it passes.

    The gate is the weight's ``kappa_range()``, the thinning exponents for
    which both hypotheses are known to hold.  It is the one gate behind both
    ``cli.validate`` and the experiment harnesses; each caller appends its
    own override hint.
    """
    rng = kernels.require_weight(spec).kappa_range()
    if rng.contains(kappa):
        return None
    if rng.empty:
        return f"no thinning exponent is admissible for this kernel ({rng.note})"
    return f"kappa {kappa:g} outside the admissible range {rng} for this kernel"


# ---------------------------------------------------------------------------
# region catalogs
# ---------------------------------------------------------------------------

#: The catalog regions whose masses add up to c_n: the window once plus the bands.
PARTITION = ("E", "B1", "B2", "B3", "B4")


def region_catalog(spec, n, kappa):
    """Named regions splitting the squared differenced kernel's support.

    The weight's ``catalog(n, eps)`` at the realized eps = k_n/n, a dict
    from names to geometric region descriptions:

    * ``"E"`` -- the window of diameter ~eps around the concentration point;
    * ``"Etilde"`` -- the core below height 1/n where the fresh kernel value
      stands alone (contained in ``E``);
    * ``"B1"``..``"B4"`` -- edge bands where shifted kernel copies overlap;
    * ``"T"`` (corner-singular only) -- the lower half {t < s}, which carries
      exactly half the total mass by the swap symmetry of that kernel.

    For the corner-singular kernel the band anatomy lives in the lower half
    and each ``Bi`` is stored together with its mirror image across t = s,
    so that the ``PARTITION`` regions add up to c_n exactly.  ``Etilde`` and
    ``T`` stay one-sided: their masses match the exact one-dimensional
    formulas without a mirror factor.
    """
    if n < 2:
        raise ValueError(f"lattice resolution must be >= 2, got {n}")
    return kernels.require_weight(spec).catalog(n, kernels.thinning_count(n, kappa) / n)


def region_measures(spec, n, regions, names=None, quadcfg=None):
    """Squared-kernel mass of each region of a catalog built at n, by name.

    A quadrature failure is re-raised with the offending region's name so a
    long measurement run identifies which integral broke.
    """
    names = tuple(regions) if names is None else tuple(names)
    out = {}
    for name in names:
        try:
            out[name] = float(kernels.mu_mass(spec, n, regions[name], quadcfg))
        except QuadratureError as exc:
            raise QuadratureError(
                f"region {name!r} at n={n}: {exc}", estimate=exc.estimate
            ) from exc
    return out


# ---------------------------------------------------------------------------
# decay-slope fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of log(value) against log(n).

    ``intercept`` is the fitted log-value at n = 1 (natural log); the
    coefficient of determination is reported alongside, never hidden,
    so a poor fit cannot masquerade as a measured exponent.
    """

    exponent: float
    intercept: float
    r_squared: float
    n_range: tuple


def slope_fit(values):
    """Fit a decay exponent to a map {n: positive value}.

    Requires at least four points spanning at least two octaves in n;
    refuses nonpositive or non-finite values outright rather than dropping
    them silently.
    """
    items = sorted((int(n), float(v)) for n, v in values.items())
    if len(items) < 4:
        raise ValueError(f"need at least 4 points for a slope fit, got {len(items)}")
    ns = np.array([n for n, _ in items], dtype=float)
    vs = np.array([v for _, v in items], dtype=float)
    if np.any(ns < 1.0):
        raise ValueError("resolutions must be >= 1")
    if not np.all(np.isfinite(vs)) or np.any(vs <= 0.0):
        bad = [n for (n, v) in items if not (math.isfinite(v) and v > 0.0)]
        raise ValueError(f"slope fit needs positive finite values; offending n: {bad}")
    if ns[-1] / ns[0] < 4.0:
        raise ValueError(
            f"n range [{items[0][0]}, {items[-1][0]}] spans fewer than two octaves"
        )
    x = np.log(ns)
    y = np.log(vs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    ss_tot = float(total @ total)
    ss_res = float(resid @ resid)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(
        exponent=float(slope),
        intercept=float(intercept),
        r_squared=float(r_squared),
        n_range=(items[0][0], items[-1][0]),
    )


# ---------------------------------------------------------------------------
# window decay
# ---------------------------------------------------------------------------

def assumption2_ratio(spec, n, kappa, quadcfg=None):
    """Mass outside the shrinking window, relative to eps_n^2.

    The thinning exponent kappa is realized as k_n = ceil(n^(1-kappa)) and
    eps_n = k_n/n; the reported ratio uses the realized eps_n.  A sequence of
    these ratios trending to zero over an n schedule supports the Gaussian
    fluctuation scaling at this kappa; a flat or growing tail is evidence
    against it (the known ranges are sufficient conditions, so a failure
    outside them is an observation, not a contradiction).
    """
    eps = kernels.thinning_count(n, kappa) / n
    window = kernels.near_region(spec, eps)
    inside = kernels.concentration_mass(spec, n, window, quadcfg)
    return float((1.0 - inside) / eps**2)

