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
of its upper cuts.  A height may come as a base and an exact offset from it;
the section ends then come the same way, so a graded integrator keeps
sections far narrower than the rounding of the base.  Columns are the rows
of the ``transpose``.
``boundary_lines`` lists the lines bounding a region so integrators can place
outer breakpoints where a moving section endpoint passes a structural line of
the integrand.
``row_sections_array`` also takes a sequence of regions and, for each
height, the index of the one it reads: so a batch of mass integrals reads
each job's own region.

Conventions: coordinates are (s, t); all regions are open; measure-zero
boundary choices are irrelevant to every consumer.
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
    "Everything",
    "band",
    "before",
    "row_sections_array",
    "transpose",
    "transpose_invariant",
    "in_upper_half",
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


def band(lo, hi):
    """Diagonal band {lo < s - t < hi}."""
    return Intersection((HalfPlane(-1.0, 1.0, -lo), HalfPlane(1.0, -1.0, hi)))


def before(x, x_off, y, y_off):
    """Is the end x + x_off strictly left of y + y_off?

    Ends come as a base and an offset from it (see ``row_sections_array``).
    The test is the sign of (y - x) + (y_off - x_off): two ends on one base
    compare by their offsets alone, exactly, where their rounded sums may
    tie.  Broadcasts.
    """
    return (y - x) + (y_off - x_off) > 0.0


def row_sections_array(region, ts, offsets=0.0, job=None):
    """The slices {s : (s, t) in region} at every height t = ts + offsets at once.

    ``offsets`` holds each height's exact offset u from ``ts`` (0.0 for
    heights given outright).  An integrator grading toward a height t0 passes
    t0 and u, which it knows to full relative precision even where t0 + u
    rounds back to t0.  A half-plane then cuts the row at base + off, with
    base = (c - b*t0)/a and off = -(b/a)*u: the offset never joins the base,
    so a slice as narrow as u, such as the cone's near its apex, keeps its
    width however small u is.

    ``region`` is one region, or, where ``job`` is given, a sequence of them:
    height i then reads region ``job[i]``, and the heights of each region go
    through it together.  ``offsets`` broadcasts against ``ts``.  Returns
    ``(lo, lo_off, hi, hi_off)``, each of shape (pieces, heights), pieces the
    most any region has: column i holds the slice at height i as disjoint
    open intervals (lo + lo_off, hi + hi_off), ascending, and zeros in unused
    entries.  Ends compare by :func:`before`.  A column's values depend on
    its own height and region alone.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    us = np.asarray(offsets, dtype=float)
    if job is not None and len(region) == 1:  # every height reads the one region
        region, job = region[0], None
    if job is None:
        return tuple(_sections(_pieces(region), ts, us))
    parts = [_pieces(part) for part in region]
    us = np.broadcast_to(us, ts.shape)
    out = np.zeros((4, max(map(len, parts)), ts.size))
    for j, pieces in enumerate(parts):
        at = np.flatnonzero(job == j)
        if at.size:
            out[:, :len(pieces), at] = _sections(pieces, ts[at], us[at])
    return tuple(out)


@np.errstate(invalid="ignore")  # open sides are infinite: inf - inf reads as no order
def _sections(pieces, ts, us):
    """``row_sections_array`` of one region's pieces, as one (4, pieces, heights) array.

    A piece's interval runs from the greatest of its lower cuts to the least
    of its upper cuts.  A ranking by lower end and two sweeps merge the
    pieces: a piece opens an interval where its lower end passes the running
    greatest upper end before it; the interval ends at that greatest end
    before the next opening.
    """
    count, size = len(pieces), ts.size
    # rows lo, lo_off, hi, hi_off of every piece, so one call moves all four
    ends = np.zeros((4, count, size))
    ends[0], ends[2] = -math.inf, math.inf
    lo, lo_off, hi, hi_off = ends
    for p, piece in enumerate(pieces):
        for a, b, c in piece:
            if a == 0.0:
                hi[p][c - b * ts <= b * us] = -math.inf  # rows outside a horizontal half-plane
                continue
            end, end_off = (hi[p], hi_off[p]) if a > 0.0 else (lo[p], lo_off[p])
            cut, off = (c - b * ts) / a, us * (-b / a)
            tighter = before(cut, off, end, end_off) if a > 0.0 else before(end, end_off, cut, off)
            np.copyto(end, cut, where=tighter)
            np.copyto(end_off, off, where=tighter)
    # empty pieces sort last and never raise the running greatest end
    empty = ~before(lo, lo_off, hi, hi_off)
    np.copyto(ends, np.array([math.inf, 0.0, -math.inf, 0.0])[:, None, None], where=empty)
    # each piece's place in its column, by end, then offset, then piece order:
    # pairwise counts, as few pieces and many heights make a sort per column slow
    key, place = lo + lo_off, np.zeros((count, size), dtype=np.intp)
    for p in range(count):
        for q in range(p):
            ahead = (key[p] < key[q]) | ((key[p] == key[q]) & (lo_off[p] < lo_off[q]))
            place[q] += ahead
            place[p] += ~ahead
    order = np.empty(count * size, dtype=np.intp)
    order[(place * size + np.arange(size)).ravel()] = np.arange(count * size)
    ends = np.take(ends.reshape(4, -1), order, axis=1).reshape(4, count, size)
    lo, lo_off, hi, hi_off = ends
    # sweep up: a piece opens an interval where its lower end passes the
    # running greatest upper end, which its own upper end may then raise
    opens = np.ones((count, size), dtype=bool)
    for p in range(1, count):
        opens[p] = before(hi[p - 1], hi_off[p - 1], lo[p], lo_off[p])
        held = before(hi[p], hi_off[p], hi[p - 1], hi_off[p - 1])
        np.copyto(ends[2:, p], ends[2:, p - 1], where=held)
    # sweep down: an interval the next piece continues ends where that one does
    for p in range(count - 2, -1, -1):
        np.copyto(ends[2:, p], ends[2:, p + 1], where=~opens[p + 1])
    np.copyto(ends, 0.0, where=~(opens & before(lo, lo_off, hi, hi_off)))
    return ends


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


def in_upper_half(region):
    """True when every piece holds a half-plane {a*s - a*t < c} with a > 0
    and c <= 0, so the region lies in {s < t}.

    Such a piece lies in that half-plane, so True is never wrong; a region
    in {s < t} whose pieces bound it otherwise reads False.
    """
    return all(any(a > 0.0 and b == -a and c <= 0.0 for a, b, c in piece)
               for piece in _pieces(region))


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
