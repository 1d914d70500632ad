"""Planar regions as unions of convex half-plane pieces.

Every region the package measures (windows, cores, diagonal and slanted
bands, their mirror images, probe balls) is a finite union of convex pieces,
each an intersection of open half-planes ``{a*s + b*t < c}``.  So one type,
:class:`Region`, holds a tuple of pieces, each a tuple of ``(a, b, c)``; the
empty piece is the whole plane.  Every constructor returns it and every
operation is one loop over the pieces.  Integrators never rasterize a region;
they ask for its cross-sections at many heights ``t`` at once
(``row_sections_array``) as disjoint open intervals, which keeps the 1-D
reductions of the kernel integrals exact: each half-plane cuts the row at
``(c - b*t)/a``, and a piece's interval is the max of its lower and the min
of its upper cuts.  Columns are the rows of the ``transpose``.
``boundary_lines`` lists the lines bounding a region so integrators can place
outer breakpoints where a moving section endpoint passes a structural line of
the integrand.

Conventions: coordinates are (s, t); all regions are open, a difference
included; measure-zero boundary choices are irrelevant to every consumer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Region",
    "Rect",
    "HalfPlane",
    "Union",
    "Intersection",
    "Difference",
    "Everything",
    "band",
    "row_sections_array",
    "transpose",
    "transpose_invariant",
    "contains",
    "t_breakpoints",
    "boundary_lines",
]

@dataclass(frozen=True)
class Region:
    """Union of convex pieces; each piece is a tuple of open half-planes (a, b, c)."""

    pieces: tuple


def _pieces(region):
    try:
        return region.pieces
    except AttributeError:
        raise TypeError(f"not a region: {region!r}") from None


def Rect(x0, x1, y0, y1):
    """Open axis-aligned rectangle {x0 < s < x1, y0 < t < y1}."""
    if not (x0 <= x1 and y0 <= y1):
        raise ValueError(f"degenerate rectangle bounds Rect(x0={x0!r}, x1={x1!r}, y0={y0!r}, y1={y1!r})")
    x0, x1, y0, y1 = float(x0), float(x1), float(y0), float(y1)
    return Region((((-1.0, 0.0, -x0), (1.0, 0.0, x1), (0.0, -1.0, -y0), (0.0, 1.0, y1)),))


def HalfPlane(a, b, c):
    """Open half-plane {a*s + b*t < c}."""
    if a == 0.0 and b == 0.0:
        raise ValueError("half-plane needs a nonzero normal")
    return Region((((float(a), float(b), float(c)),),))


def Everything():
    """The whole plane: one piece with no constraint."""
    return Region(((),))


def Union(parts):
    return Region(tuple(piece for part in parts for piece in _pieces(part)))


def Intersection(parts):
    """One piece per part, in every combination, concatenated."""
    combos = itertools.product(*(_pieces(part) for part in parts))
    return Region(tuple(tuple(h for piece in combo for h in piece) for combo in combos))


def Difference(left, right):
    """left minus right: cut left by the complement of each piece of right."""
    for piece in _pieces(right):
        left = Intersection((left, Region(tuple(((-a, -b, -c),) for a, b, c in piece))))
    return left


def band(lo, hi):
    """Diagonal band {lo < s - t < hi}."""
    return Intersection((HalfPlane(-1.0, 1.0, -lo), HalfPlane(1.0, -1.0, hi)))


def row_sections_array(region, ts):
    """The slices {s : (s, t) in region} at every height t of ``ts`` at once.

    Returns ``(lo, hi)`` of shape (pieces, len(ts)): column i holds the slice
    at ``ts[i]`` as disjoint open intervals (lo, hi), ascending, and (0, 0)
    in unused entries.  A piece's interval is the max of its lower and the
    min of its upper cuts.  One sort on the lower cut and a sweep merge the
    pieces: a piece opens an interval where its lower cut passes the running
    maximum of the upper cuts before it; the interval ends at that maximum
    before the next opening.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    pieces = _pieces(region)
    lo = np.full((len(pieces), ts.size), -math.inf)
    hi = np.full((len(pieces), ts.size), math.inf)
    for p, piece in enumerate(pieces):
        for a, b, c in piece:
            rhs = c - b * ts
            if a > 0.0:
                np.minimum(hi[p], rhs / a, out=hi[p])
            elif a < 0.0:
                np.maximum(lo[p], rhs / a, out=lo[p])
            else:
                hi[p][rhs <= 0.0] = -math.inf  # rows outside a horizontal half-plane
    empty = hi <= lo
    if len(pieces) == 1:  # a lone piece's interval needs no merging
        return np.where(empty, 0.0, lo), np.where(empty, 0.0, hi)
    lo[empty], hi[empty] = math.inf, -math.inf  # sort last, never raise the maximum
    order = np.argsort(lo, axis=0, kind="stable")
    lo, hi = np.take_along_axis(lo, order, 0), np.take_along_axis(hi, order, 0)
    reach = np.maximum.accumulate(hi, axis=0)
    opens = np.ones(lo.shape, dtype=bool)
    opens[1:] = lo[1:] > reach[:-1]
    rows = np.where(opens, np.arange(len(pieces))[:, None], len(pieces))
    last = np.full(lo.shape, len(pieces) - 1)
    last[:-1] = np.minimum.accumulate(rows[::-1], axis=0)[::-1][1:] - 1
    hi = np.take_along_axis(reach, last, 0)
    keep = opens & (hi > lo)
    return np.where(keep, lo, 0.0), np.where(keep, hi, 0.0)


def transpose(region):
    """Region with the roles of s and t swapped."""
    return Region(tuple(tuple((b, a, c) for a, b, c in piece) for piece in _pieces(region)))


def transpose_invariant(region):
    """True when the transpose has the same pieces, each compared as a set.

    Equal sets of pieces are equal regions, so True is never wrong; a
    symmetric region cut into different pieces reads False.
    """
    def as_set(r):
        return frozenset(frozenset(piece) for piece in _pieces(r))
    return as_set(region) == as_set(transpose(region))


def contains(region, s, t):
    """Strict-interior membership; broadcasts over array arguments."""
    out = np.zeros(np.broadcast_shapes(np.shape(s), np.shape(t)), dtype=bool)
    for piece in _pieces(region):
        inside = True
        for a, b, c in piece:
            inside = inside & (a * s + b * t < c)
        out = out | inside
    return out[()]


def t_breakpoints(region):
    """Heights where the row-section structure can change discontinuously.

    Half-plane rows vary smoothly (linear endpoints), so only the on/off
    switch of a horizontal half-plane contributes.
    """
    return [c / b for piece in _pieces(region) for a, b, c in piece if a == 0.0]


def boundary_lines(region):
    """All straight lines (a, b, c), meaning {a*s + b*t = c}, bounding the region.

    Cross-section endpoints move along these lines; an integrator slicing the
    plane needs an outer breakpoint wherever one of them crosses a structural
    line of its integrand, and computes those crossings from this list.
    """
    return list(dict.fromkeys(h for piece in _pieces(region) for h in piece))
