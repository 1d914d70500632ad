"""Reference implementations that only the tests call.

Each one computes, by a plain route of its own, something the package
computes another way, so a test can check the package against it.
"""

import warnings

import numpy as np

from ambitlab.kernels import eval_g
from ambitlab.regions import Intersection, Region, Union
from ambitlab.variation import retained_corners


def Difference(left, right):
    """left minus right: cut left by the complement of each piece of right."""
    for piece in Union((right,)).pieces:
        left = Intersection((left, Region(tuple(((-a, -b, -c),) for a, b, c in piece))))
    return left


def unclipped(pieces, support):
    """Every piece, ``support`` ignored: patched over ``kernels._within``, it
    gives the full-range layouts, the outer mass jobs over all of
    (0, 1 + 1/n) and the autocorrelation wedges over their whole windows."""
    return pieces


def eval_h(spec, n, s, t):
    """Differenced kernel h_n(s,t), supported in [0, 1+1/n]^2: the four-term
    combination of ``eval_g`` at the corners of the cell below-left of (s, t)."""
    if n < 1:
        raise ValueError(f"lattice resolution must be >= 1, got {n}")
    d = 1.0 / n
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    return eval_g(spec, s, t) - eval_g(spec, s - d, t) - eval_g(spec, s, t - d) + eval_g(spec, s - d, t - d)


def singular_g(spec, s, t):
    """The singular kernel with its profile taken at every point, then masked
    to the closed quadrant; +inf at the corner."""
    r = np.maximum(s, t)
    quadrant = (s >= 0.0) & (t >= 0.0)
    out = np.where(quadrant, spec.profile(r), 0.0)
    out[quadrant & (r == 0.0)] = np.inf
    return out


def triangle_g(spec, s, t):
    """The cone kernel with its profile taken at every height, then masked to the open cone."""
    return np.where(np.abs(2.0 * s - 1.0) < t, spec.profile(t), 0.0)


def uniform_mass(spec, n, rect):
    """mu_n of the rectangle ``rect`` = (a, b, c, d) for the uniform weight, in
    closed form.

    h_n^2 = scale^2 D_s(s)^2 D_t(t)^2 with D(x) = 1_W(x) - 1_W(x - 1/n) on each
    axis's window W, and (A - B)^2 = A + B - 2AB for indicators, so each
    axis's factor is |I & W| + |I & (W + 1/n)| - 2 |I & W & (W + 1/n)| for
    the rectangle's side I: the overlap of I with the axis's two strips.
    """
    def length(lo, hi):
        return max(0.0, hi - lo)

    def factor(a, b, lo, hi):
        d = 1.0 / n
        both = length(max(a, lo + d), min(b, hi))
        return length(max(a, lo), min(b, hi)) + length(max(a, lo + d), min(b, hi + d)) - 2.0 * both

    a, b, c, d = rect
    return spec.scale**2 * factor(a, b, spec.s1, spec.s2) * factor(c, d, spec.t1, spec.t2)


def contains(region, s, t):
    """Strict-interior membership; broadcasts over array arguments."""
    out = np.zeros(np.broadcast_shapes(np.shape(s), np.shape(t)), dtype=bool)
    for piece in Union((region,)).pieces:
        inside = True
        for a, b, c in piece:
            inside = inside & (a * s + b * t < c)
        out = out | inside
    return out[()]


def power_variation(inc, p, eps, s, t):
    """Sum of |increment|^p over the retained cells with corners in [0,s] x [0,t]."""
    p = float(p)
    if p <= 0.0:
        raise ValueError(f"power must be positive, got {p}")
    i, j = retained_corners(s, t, eps)
    return float(np.sum(np.abs(inc[:i, :j]) ** p))


def integrated_power(sigma, p, rect=(0.0, 1.0, 0.0, 1.0)):
    """integral of sigma(u,v)^p over [a,b] x [c,d], rect inside [-1,1]^2.

    Reads the realized grid cell-constantly, as the simulation does: partial
    edge cells count by their overlap, so the value is exact for that
    reading.  Zero-area rectangles integrate to 0 and emit a warning.
    """
    if not (p > 0.0 and np.isfinite(p)):
        raise ValueError(f"integrated power requires p > 0, got {p}")
    a, b, c, d = (float(x) for x in rect)
    tol = 1e-12
    if not (a <= b and c <= d):
        raise ValueError(f"rectangle has inverted sides: {rect}")
    if a < -1.0 - tol or b > 1.0 + tol or c < -1.0 - tol or d > 1.0 + tol:
        raise ValueError(f"rectangle {rect} leaves the sampled domain [-1,1]^2")
    if a == b or c == d:
        warnings.warn("integrated_power over a zero-area rectangle", stacklevel=2)
        return 0.0
    m = sigma.resolution
    edges = -1.0 + 2.0 * np.arange(m + 1) / m
    wu = np.clip(np.minimum(b, edges[1:]) - np.maximum(a, edges[:-1]), 0.0, None)
    wv = np.clip(np.minimum(d, edges[1:]) - np.maximum(c, edges[:-1]), 0.0, None)
    return float(wu @ (sigma.values**p) @ wv)
