"""Planar region algebra with per-row interval extraction.

Regions are small ASTs built from rectangles and open half-planes
``{a*s + b*t < c}`` — enough for every triangle and diagonal band — combined
by union / intersection / difference.  The integrators never rasterize a
region; they ask for its cross-section at a fixed height ``t``
(``row_sections``) or fixed abscissa ``s`` (``col_sections``) as a list of
disjoint open intervals, which keeps one-dimensional reductions of the
kernel integrals exact.  ``boundary_lines`` exposes the straight lines
bounding a region so integrators can place outer breakpoints wherever a
moving cross-section endpoint passes a structural line of the integrand.

Conventions: coordinates are (s, t); all regions are open; measure-zero
boundary choices are irrelevant to every consumer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Rect",
    "HalfPlane",
    "Union",
    "Intersection",
    "Difference",
    "Everything",
    "band",
    "row_sections",
    "col_sections",
    "transpose",
    "reflect_translate",
    "contains",
    "t_breakpoints",
    "s_breakpoints",
    "boundary_lines",
]

_INF = math.inf
_FULL = [(-_INF, _INF)]


@dataclass(frozen=True)
class Rect:
    """Open axis-aligned rectangle {x0 < s < x1, y0 < t < y1}."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 <= self.x1 and self.y0 <= self.y1):
            raise ValueError(f"degenerate rectangle bounds {self!r}")


@dataclass(frozen=True)
class HalfPlane:
    """Open half-plane {a*s + b*t < c}."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("half-plane needs a nonzero normal")


@dataclass(frozen=True)
class Union:
    parts: tuple


@dataclass(frozen=True)
class Intersection:
    parts: tuple


@dataclass(frozen=True)
class Difference:
    left: object
    right: object


@dataclass(frozen=True)
class Everything:
    pass


def band(lo, hi):
    """Diagonal band {lo < s - t < hi}."""
    return Intersection((HalfPlane(-1.0, 1.0, -lo), HalfPlane(1.0, -1.0, hi)))


# ------------------------------------------------------------- interval algebra

def _normalize(iv):
    iv = [(a, b) for a, b in iv if b > a]
    iv.sort()
    out = []
    for a, b in iv:
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _intersect_two(u, v):
    out = []
    i = j = 0
    while i < len(u) and j < len(v):
        a = max(u[i][0], v[j][0])
        b = min(u[i][1], v[j][1])
        if b > a:
            out.append((a, b))
        if u[i][1] < v[j][1]:
            i += 1
        else:
            j += 1
    return out


def _union_two(u, v):
    return _normalize(list(u) + list(v))


def _difference_two(u, v):
    out = []
    for a, b in u:
        lo = a
        for c, d in v:
            if d <= lo or c >= b:
                continue
            if c > lo:
                out.append((lo, c))
            lo = max(lo, d)
            if lo >= b:
                break
        if lo < b:
            out.append((lo, b))
    return out


def clip_intervals(iv, lo, hi):
    return _intersect_two(iv, [(lo, hi)])


# ------------------------------------------------------------- cross-sections

def row_sections(region, t):
    """Disjoint open s-intervals of the slice {s : (s, t) in region}."""
    if isinstance(region, Everything):
        return list(_FULL)
    if isinstance(region, Rect):
        return [(region.x0, region.x1)] if region.y0 < t < region.y1 else []
    if isinstance(region, HalfPlane):
        rhs = region.c - region.b * t
        if region.a > 0.0:
            return [(-_INF, rhs / region.a)]
        if region.a < 0.0:
            return [(rhs / region.a, _INF)]
        return list(_FULL) if rhs > 0.0 else []
    if isinstance(region, Union):
        out = []
        for p in region.parts:
            out = _union_two(out, row_sections(p, t))
        return out
    if isinstance(region, Intersection):
        out = list(_FULL)
        for p in region.parts:
            out = _intersect_two(out, row_sections(p, t))
            if not out:
                return []
        return out
    if isinstance(region, Difference):
        return _difference_two(row_sections(region.left, t), row_sections(region.right, t))
    raise TypeError(f"not a region: {region!r}")


def col_sections(region, s):
    """Disjoint open t-intervals of the slice {t : (s, t) in region}."""
    return row_sections(transpose(region), s)


def transpose(region):
    """Region with the roles of s and t swapped."""
    if isinstance(region, Everything):
        return region
    if isinstance(region, Rect):
        return Rect(region.y0, region.y1, region.x0, region.x1)
    if isinstance(region, HalfPlane):
        return HalfPlane(region.b, region.a, region.c)
    if isinstance(region, Union):
        return Union(tuple(transpose(p) for p in region.parts))
    if isinstance(region, Intersection):
        return Intersection(tuple(transpose(p) for p in region.parts))
    if isinstance(region, Difference):
        return Difference(transpose(region.left), transpose(region.right))
    raise TypeError(f"not a region: {region!r}")


def reflect_translate(region, s, t):
    """Image of the region under (x, y) -> (s - x, t - y)."""
    if isinstance(region, Everything):
        return region
    if isinstance(region, Rect):
        return Rect(s - region.x1, s - region.x0, t - region.y1, t - region.y0)
    if isinstance(region, HalfPlane):
        # a*x + b*y < c  with x = s - u, y = t - v  =>  -a*u - b*v < c - a*s - b*t
        return HalfPlane(-region.a, -region.b, region.c - region.a * s - region.b * t)
    if isinstance(region, Union):
        return Union(tuple(reflect_translate(p, s, t) for p in region.parts))
    if isinstance(region, Intersection):
        return Intersection(tuple(reflect_translate(p, s, t) for p in region.parts))
    if isinstance(region, Difference):
        return Difference(reflect_translate(region.left, s, t), reflect_translate(region.right, s, t))
    raise TypeError(f"not a region: {region!r}")


def contains(region, s, t):
    """Strict-interior membership; broadcasts over array arguments."""
    if isinstance(region, Everything):
        return np.broadcast_to(True, np.broadcast_shapes(np.shape(s), np.shape(t)))[()]
    if isinstance(region, Rect):
        return (region.x0 < s) & (s < region.x1) & (region.y0 < t) & (t < region.y1)
    if isinstance(region, HalfPlane):
        return region.a * s + region.b * t < region.c
    if isinstance(region, Union):
        out = contains(region.parts[0], s, t)
        for p in region.parts[1:]:
            out = out | contains(p, s, t)
        return out
    if isinstance(region, Intersection):
        out = contains(region.parts[0], s, t)
        for p in region.parts[1:]:
            out = out & contains(p, s, t)
        return out
    if isinstance(region, Difference):
        return contains(region.left, s, t) & ~contains(region.right, s, t)
    raise TypeError(f"not a region: {region!r}")


def t_breakpoints(region):
    """Heights where the row-section structure can change discontinuously.

    Half-plane rows vary smoothly (linear endpoints), so only the on/off
    switch of a horizontal half-plane contributes.
    """
    if isinstance(region, Rect):
        return [region.y0, region.y1]
    if isinstance(region, HalfPlane):
        return [region.c / region.b] if region.a == 0.0 and region.b != 0.0 else []
    if isinstance(region, Union) or isinstance(region, Intersection):
        out = []
        for p in region.parts:
            out.extend(t_breakpoints(p))
        return out
    if isinstance(region, Difference):
        return t_breakpoints(region.left) + t_breakpoints(region.right)
    return []


def s_breakpoints(region):
    return t_breakpoints(transpose(region))


def boundary_lines(region):
    """All straight lines (a, b, c), meaning {a*s + b*t = c}, bounding the region.

    Cross-section endpoints move along these lines; an integrator slicing the
    plane needs an outer breakpoint wherever one of them crosses a structural
    line of its integrand, and computes those crossings from this list.
    """
    if isinstance(region, Rect):
        return [
            (1.0, 0.0, region.x0),
            (1.0, 0.0, region.x1),
            (0.0, 1.0, region.y0),
            (0.0, 1.0, region.y1),
        ]
    if isinstance(region, HalfPlane):
        return [(region.a, region.b, region.c)]
    if isinstance(region, Union) or isinstance(region, Intersection):
        out = []
        for p in region.parts:
            out.extend(boundary_lines(p))
        return out
    if isinstance(region, Difference):
        return boundary_lines(region.left) + boundary_lines(region.right)
    if isinstance(region, Everything):
        return []
    raise TypeError(f"not a region: {region!r}")
