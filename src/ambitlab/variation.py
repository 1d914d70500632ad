"""Power-variation statistics of thinned increment arrays.

Every statistic is a plain read-only array.  ``simulate.increments`` gives
the m x m increments, one per retained corner (eps i, eps j), eps = k / n.
``variation_field`` sums |increment|^p cumulatively into the (m + 1) x
(m + 1) array V, whose entry at ``retained_corners(s, t, eps)`` is the raw
statistic at (s, t).  ``scaled_power_variation`` multiplies V by
eps^2 / c_n^(p/2), so that a law-of-large-numbers limit of order one emerges.

The exact conditional expectation given the volatility path reads one
table: the pi_n-average of sigma^2 seen from every retained corner.  It is
sigma0^2 throughout for constant volatility (any weight); for the uniform
window weight the concentration measure is four rectangles and the
volatility integrates in closed form cell by cell.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .gaussian import abs_moment
from .kernels import compute_cn
from .simulate import strip_covariances

__all__ = [
    "retained_corners",
    "power_variation",
    "variation_field",
    "scaled_power_variation",
    "expected_scaled_pv",
]


def retained_corners(s, t, eps):
    """Counts (i, j) of the retained corners (eps a, eps b), a, b >= 1, in [0, s] x [0, t].

    The one counting rule for every statistic, expectation and check on the
    eps-lattice.  The quotient is floored with a slack, so a corner that lies
    on the evaluation point counts even when s / eps rounds below it
    (0.6 / 0.1 is 5.999...).  Points outside the unit square raise.
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError(f"evaluation point ({s}, {t}) outside the unit square")
    return math.floor(float(s) / eps + 1e-9), math.floor(float(t) / eps + 1e-9)


def power_variation(inc, p, eps, s, t):
    """Sum of |increment|^p over the retained cells with corners in [0,s] x [0,t]."""
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"power must be positive, got {p}")
    i, j = retained_corners(s, t, eps)
    return float(np.sum(np.abs(inc[:i, :j]) ** p))


def variation_field(inc, p):
    """Read-only (m + 1) x (m + 1) cumulative sums of |inc|^p over an m x m array.

    Entry [i, j] is ``power_variation`` at the corner (eps i, eps j); row and
    column 0 are the empty sums.
    """
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"power must be positive, got {p}")
    if inc.ndim != 2 or inc.shape[0] != inc.shape[1]:
        raise ValueError(f"increments must be a square 2-D array, got shape {inc.shape}")
    absp = np.abs(inc) ** p
    m = absp.shape[0]
    vals = np.zeros((m + 1, m + 1))
    vals[1:, 1:] = np.cumsum(np.cumsum(absp, axis=0), axis=1)
    vals.setflags(write=False)
    return vals


def scaled_power_variation(V, p, eps, c_n):
    """Read-only eps^2 / c_n^(p/2) * V, for the kernel normalization c_n."""
    p, c_n = float(p), float(c_n)
    if not (c_n > 0.0 and math.isfinite(c_n)):
        raise ValueError(f"the kernel normalization c_n must be positive and finite, got {c_n}")
    scaled = eps**2 / c_n ** (p / 2.0) * V
    scaled.setflags(write=False)
    return scaled


# lln_experiment asks for every grid point of one (sigma, n) before it moves
# on, so one entry serves all of them.  SigmaField hashes by identity, and
# the cache keeps its key alive, so the identity cannot be reused.
@lru_cache(maxsize=1)
def _pi_averages(spec, sigma, n, k):
    """(m, m) read-only table of int sigma^2 d pi_n seen from each retained corner.

    Entry [i - 1, j - 1] belongs to the corner (eps i, eps j), m = n // k:
    the conditional variance of that increment divided by c_n.
    """
    m, eps = n // k, k / n
    if sigma.is_constant:
        avg = np.full((m, m), float(sigma.values.flat[0]) ** 2)
    elif spec.has_strips:
        idx = np.indices((m, m)).reshape(2, -1).T + 1  # row-major (i, j)
        diag = np.arange(m * m)
        avg = strip_covariances(spec, sigma, n, eps, idx, diag, diag) / compute_cn(spec, n)
        avg = avg.reshape(m, m)
    else:
        raise ValueError(
            "exact conditional expectation is available for constant volatility "
            "(any weight) or the uniform window weight (any volatility); use the "
            "simulation route for other combinations"
        )
    avg.setflags(write=False)
    return avg


def expected_scaled_pv(spec, sigma, n, k, p, s, t):
    """Exact conditional expectation of the scaled variation given sigma.

    eps^2 sum_ij m_p (int sigma^2(eps i - xi, eps j - tau) pi_n)^{p/2} over
    the retained corners in [0,s] x [0,t]; for constant volatility that is
    m_p sigma^p eps^2 times the number of corners, for every weight.
    """
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"power must be positive, got {p}")
    if n != int(n) or k != int(k) or not 1 <= k <= n:
        raise ValueError(f"n and the thinning k must be integers with 1 <= k <= n, "
                         f"got n={n}, k={k}")
    n, k = int(n), int(k)
    eps = k / n
    ci, cj = retained_corners(s, t, eps)
    avg = _pi_averages(spec, sigma, n, k)
    return float(eps**2 * abs_moment(p) * np.sum(avg[:ci, :cj].ravel() ** (p / 2.0)))
