"""Power-variation statistics of increment fields.

The raw statistic at (s, t) sums |increment|^p over the retained lattice
cells whose upper corners fall inside [0, s] x [0, t]; the scaled version
multiplies by eps_n^2 / c_n^(p/2) so that a law-of-large-numbers limit of
order one emerges.

The exact conditional expectation given the volatility path reads one
table: the pi_n-average of sigma^2 seen from every retained corner.  It is
sigma0^2 throughout for constant volatility (any weight); for the uniform
window weight the concentration measure is four rectangles and the
volatility integrates in closed form cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gaussian import abs_moment
from .kernels import compute_cn
from .simulate import strip_covariances

__all__ = [
    "PowerVariationField",
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


@dataclass(frozen=True, eq=False)
class PowerVariationField:
    """Cumulative |increment|^p sums at the retained lattice corners.

    values[i, j] is the statistic at (ki/n, kj/n); row and column 0 are the
    empty sums.  c_n is attached when known so the scaled field can be formed
    later without the weight spec at hand.
    """

    p: float
    k: int
    n: int
    values: np.ndarray
    c_n: float | None = None

    def __post_init__(self):
        m = self.n // self.k
        if self.values.shape != (m + 1, m + 1):
            raise ValueError(
                f"variation field shape {self.values.shape} != ({m + 1}, {m + 1})"
            )
        if np.any(self.values[0, :] != 0.0) or np.any(self.values[:, 0] != 0.0):
            raise ValueError("variation field must vanish on the axes")
        if np.any(self.values < 0.0):
            raise ValueError("variation field must be nonnegative")
        if np.any(np.diff(self.values, axis=0) < 0.0) or np.any(
            np.diff(self.values, axis=1) < 0.0
        ):
            raise ValueError("variation field must be monotone in each coordinate")
        self.values.setflags(write=False)

    @property
    def eps(self):
        return self.k / self.n

    def at(self, s, t):
        """Step-field evaluation: the value at the last corner inside [0,s]x[0,t]."""
        i, j = retained_corners(s, t, self.eps)
        return float(self.values[i, j])


def power_variation(inc, p, s, t):
    """Sum of |increment|^p over retained cells with corners in [0,s] x [0,t]."""
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"power must be positive, got {p}")
    i, j = retained_corners(s, t, inc.k / inc.n)
    return float(np.sum(np.abs(inc.values[:i, :j]) ** p))


def variation_field(inc, p, c_n=None):
    """The whole variation field at once, by cumulative sums."""
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"power must be positive, got {p}")
    absp = np.abs(inc.values) ** p
    m = absp.shape[0]
    vals = np.zeros((m + 1, m + 1))
    vals[1:, 1:] = np.cumsum(np.cumsum(absp, axis=0), axis=1)
    return PowerVariationField(
        p=p, k=inc.k, n=inc.n, values=vals,
        c_n=None if c_n is None else float(c_n),
    )


def scaled_power_variation(V):
    """Multiply by eps^2 / c_n^(p/2); requires c_n attached."""
    if V.c_n is None:
        raise ValueError(
            "scaling needs the kernel normalization c_n; build the field with "
            "c_n=compute_cn(spec, n)"
        )
    factor = V.eps**2 / V.c_n ** (V.p / 2.0)
    return PowerVariationField(
        p=V.p, k=V.k, n=V.n, values=factor * V.values, c_n=V.c_n
    )


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
    n, k, p = int(n), int(k), float(p)
    if p <= 0.0:
        raise ValueError(f"power must be positive, got {p}")
    if not 1 <= k <= n:
        raise ValueError(f"thinning k must satisfy 1 <= k <= n, got {k}")
    eps = k / n
    ci, cj = retained_corners(s, t, eps)
    avg = _pi_averages(spec, sigma, n, k)
    return float(eps**2 * abs_moment(p) * np.sum(avg[:ci, :cj].ravel() ** (p / 2.0)))
