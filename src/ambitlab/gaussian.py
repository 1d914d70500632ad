r"""Absolute moments and Hermite expansions of powers of a standard Gaussian.

Everything downstream normalizes power variations through the absolute moments

.. math:: m_q = \mathbf{E}|X|^q = 2^{q/2}\Gamma((q+1)/2)/\sqrt{\pi}, \qquad X\sim N(0,1),

and through the expansion of :math:`|x|^p - m_p` in the Hermite system
:math:`H_k(x) = He_k(x)/k!` (``He_k`` the probabilists' polynomials), whose
coefficients control the covariance decay of powered Gaussian increments:

.. math:: |x|^p - m_p = \sum_{k\ge 2} \alpha_k H_k(x), \qquad
          \alpha_k = \mathbf{E}\big[(|X|^p - m_p)\,He_k(X)\big],

with Parseval identity :math:`\sum_{k\ge 2}\alpha_k^2/k! = m_{2p} - m_p^2`.
The expansion starts at k = 2 (Hermite rank two): alpha_0 and alpha_1 vanish,
and the module computes them rather than hard-coding zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .quadrature import gl

__all__ = [
    "HermiteExpansion",
    "abs_moment",
    "abs_moment_quadrature",
    "up_hermite_coeffs",
    "power_cov_probe",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)


# Polynomial coefficients of the cephes ``lgam`` approximations, highest first.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_A_BIG = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178


def _polevl(x, coefs):
    """The polynomial with ``coefs`` (highest first) at x, by Horner's rule."""
    acc = 0.0
    for c in coefs:
        acc = acc * x + c
    return acc


def _lgam(x):
    """log Gamma(x) for x > 0: the cephes ``lgam`` algorithm, step for step.

    It rounds exactly as ``scipy.special.gammaln`` does, so the moments built
    on it are the same floats; ``math.lgamma`` is an ulp or two away.
    """
    if x < 13.0:
        # shift into [2, 3) by the recurrence, then a rational approximation
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI  # Stirling's series
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    return q + _polevl(p, _LGAM_A_BIG if x >= 1000.0 else _LGAM_A) / x


def abs_moment(q):
    """Absolute moment m_q = E|X|^q of a standard Gaussian, closed form.

    Parameters
    ----------
    q : float
        Power, must be positive and finite (m_q diverges as q -> -1 and the
        callers never need q <= 0).

    Returns
    -------
    float
    """
    if not (q > 0.0 and math.isfinite(q)):
        raise ValueError(f"absolute-moment power must be positive and finite, got q={q}")
    return float(np.exp(0.5 * q * np.log(2.0) + _lgam(0.5 * (q + 1.0)) - 0.5 * np.log(np.pi)))


def _halfline_nodes(q, npts):
    """Nodes/weights turning sum(w*G(x)) into int_0^inf x^q G(x) phi(x) dx.

    Substituting u = x^2/2 gives the generalized Gauss-Laguerre weight
    u^{(q-1)/2} e^{-u}; the rule is exact whenever G(sqrt(2u)) is a
    polynomial in u of degree < npts.
    """
    from scipy.special import roots_genlaguerre  # only the hermite kind gets here

    u, w = roots_genlaguerre(npts, 0.5 * (q - 1.0))
    x = np.sqrt(2.0 * u)
    scale = 2.0 ** (0.5 * (q - 1.0)) / _SQRT_2PI
    return x, w * scale


def abs_moment_quadrature(q, rtol=1e-10):
    """m_q by the half-line Gauss rule with a node-doubling agreement check."""
    if q <= 0.0:
        raise ValueError(f"absolute-moment power must be positive, got q={q}")
    vals = []
    for npts in (24, 48):
        x, w = _halfline_nodes(q, npts)
        vals.append(2.0 * float(w.sum()))
    if abs(vals[0] - vals[1]) > rtol * max(abs(vals[0]), abs(vals[1])):
        raise QuadratureError(
            f"half-line moment rule did not stabilize for q={q}: "
            f"{vals[0]!r} vs {vals[1]!r}",
            estimate=vals[1],
        )
    return vals[1]


def _he_values(kmax, x):
    """He_0..He_kmax evaluated at x, shape (kmax+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for j in range(1, kmax):
        out[j + 1] = x * out[j] - j * out[j - 1]
    return out


def _abs_power_hermite_moment(q, m, rtol):
    """E[|X|^q He_m(X)] for q > 0, by exact reduction plus half-line quadrature.

    Integration by parts against phi^{(m)} lowers both indices exactly:

        E[|x|^q He_m] = q(q-1) E[|x|^{q-2} He_{m-2}]      (q > 1, m >= 2),

    valid because the boundary terms vanish and d/dx sgn(x)|x|^{q-1} has no
    atom at 0 for q > 1.  The chain either reaches a base with q <= 1 (then a
    generalized Gauss-Laguerre rule is numerically benign: no catastrophic
    cancellation remains) or reaches q = 0 with m >= 1, where one more
    derivative acts on a constant and the remaining integral is of the zero
    function.  The reduction is what lets structural zeros (even integer
    powers) come out at machine scale instead of drowning in the ~sqrt(k!)
    magnitude of the raw integrand.
    """
    factor = 1.0
    while q > 1.0 and m >= 2:
        factor *= q * (q - 1.0)
        q -= 2.0
        m -= 2
    if factor == 0.0:
        return 0.0
    if q == 0.0:
        # E[He_m] for m >= 1 reduces once more through a vanishing derivative.
        return factor * (1.0 if m == 0 else 0.0)

    base_npts = max(12, m // 2 + 6)
    vals = []
    for npts in (base_npts, 2 * base_npts):
        x, w = _halfline_nodes(q, npts)
        he = _he_values(m, np.concatenate([x, -x]))[m]
        sym = he[: x.size] + he[x.size:]  # vanishes in floating point for odd m
        vals.append(float(np.dot(w, sym)))
    scale = max(abs(vals[0]), abs(vals[1]), 1e-300)
    if abs(vals[0] - vals[1]) > max(rtol * scale, 1e-14):
        raise QuadratureError(
            f"Hermite-moment rule did not stabilize for q={q}, m={m}: "
            f"{vals[0]!r} vs {vals[1]!r}",
            estimate=factor * vals[1],
        )
    return factor * vals[1]


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients alpha_0..alpha_K of |x|^p - m_p against H_k = He_k/k!.

    ``partial_sums()[K]`` is sum_{k<=K} alpha_k^2/k!, nondecreasing and bounded
    by the Parseval target m_2p - m_p^2.
    """

    p: float
    alpha: np.ndarray

    def parseval_target(self):
        return abs_moment(2.0 * self.p) - abs_moment(self.p) ** 2

    def partial_sums(self):
        log_fact = np.array([_lgam(k + 1.0) for k in range(self.alpha.size)])
        terms = np.exp(2.0 * np.log(np.maximum(np.abs(self.alpha), 1e-300)) - log_fact)
        terms[self.alpha == 0.0] = 0.0
        terms[0] = 0.0  # alpha_0 is a ~1e-16 residual; k=0 is not part of the expansion
        return np.cumsum(terms)

    def parseval_gap(self):
        return float(self.parseval_target() - self.partial_sums()[-1])


def up_hermite_coeffs(p, max_order=60, rtol=1e-10):
    """Hermite coefficients of |x|^p - m_p up to ``max_order``.

    alpha_0 and alpha_1 are computed (quadrature residuals ~1e-16), not set to
    zero; their smallness is asserted by the caller's tests, making the
    Hermite-rank-two structure an output of the computation.
    """
    if p <= 0.0:
        raise ValueError(f"power must be positive, got p={p}")
    if max_order < 2:
        raise ValueError(f"max_order must be at least 2, got {max_order}")
    mp = abs_moment(p)
    alpha = np.empty(max_order + 1)
    for k in range(max_order + 1):
        val = _abs_power_hermite_moment(p, k, rtol)
        if k == 0:
            val -= mp
        alpha[k] = val
    return HermiteExpansion(p=float(p), alpha=alpha)


def _panel_nodes(edges, npts):
    """Composite Gauss-Legendre nodes/weights over consecutive panel edges."""
    xi, wi = gl(npts)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return (mid + half * xi).ravel(), (half * wi).ravel()


_OUTER_EDGES = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0, 13.0])
_INNER_FRACTIONS = np.array([0.0, 1e-4, 1e-3, 0.01, 0.05, 0.15, 0.3, 0.5, 0.7, 1.0])


def _power_cov_quad(rho, p, npts):
    """E[|X|^p |Y|^p] for corr(X, Y) = rho by kink-split tensor quadrature.

    Writes Y = rho X + c Z and integrates over (x, z).  The integrand is
    smooth except along z = -rho x / c; for each outer x-node the inner line
    is split exactly at that kink, so both sides are analytic and composite
    Gauss-Legendre converges spectrally.
    """
    c = np.sqrt(1.0 - rho * rho)
    x, wx = _panel_nodes(_OUTER_EDGES, npts)  # half-line; symmetry gives factor 2
    zstar = -rho * x / c
    R = 13.0

    total = np.zeros_like(x)
    for side in (+1.0, -1.0):
        length = side * R - zstar  # signed distance from kink to box edge
        frac = _INNER_FRACTIONS if npts <= 24 else np.unique(np.concatenate([_INNER_FRACTIONS, 0.5 * (_INNER_FRACTIONS[:-1] + _INNER_FRACTIONS[1:])]))
        xi, wi = gl(npts)
        a = zstar[:, None] + length[:, None] * frac[None, :-1]
        b = zstar[:, None] + length[:, None] * frac[None, 1:]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        z = mid[:, :, None] + half[:, :, None] * xi  # (nx, panels, npts)
        wz = np.abs(half)[:, :, None] * wi
        y = rho * x[:, None, None] + c * z
        fz = np.abs(y) ** p * np.exp(-0.5 * z * z) / _SQRT_2PI
        total += np.sum(fz * wz, axis=(1, 2))

    fx = x ** p * np.exp(-0.5 * x * x) / _SQRT_2PI
    return 2.0 * float(np.dot(wx, fx * total))


def power_cov_probe(rho, p, q=2.0):
    """Covariance of |X|^p and |Y|^p under correlation rho, plus |cov|/|rho|^q.

    Returns
    -------
    (cov, bound_ratio) : tuple of float
        ``bound_ratio`` probes the Hermite-rank-two bound: for q=2 it should
        stay bounded by a single constant over all rho in [-1, 1].
        ``rho = 0`` returns (~0, 0) by convention.

    Notes
    -----
    Computed by genuine 2-D quadrature (not the Hermite series), so the
    series sum_k alpha_k^2 rho^k / k! is available as an independent check.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if p <= 0.0:
        raise ValueError(f"power must be positive, got p={p}")
    mp = abs_moment(p)
    if abs(rho) == 1.0:
        cov = abs_moment(2.0 * p) - mp * mp
    else:
        vals = [_power_cov_quad(rho, p, n) - mp * mp for n in (24, 48)]
        scale = max(abs(vals[0]), abs(vals[1]), 1.0)
        if abs(vals[0] - vals[1]) > 1e-9 * scale:
            raise QuadratureError(
                f"power-covariance rule did not stabilize for rho={rho}, p={p}: "
                f"{vals[0]!r} vs {vals[1]!r}",
                estimate=vals[1],
            )
        cov = vals[1]
    if rho == 0.0:
        return cov, 0.0
    return cov, abs(cov) / abs(rho) ** q
