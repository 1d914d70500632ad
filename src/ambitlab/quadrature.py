r"""One batched quadrature engine for the kernel integrals.

Every mass and autocorrelation in the package reduces to 1-D integrals of
piecewise smooth integrands with algebraic singularities at known points.
:func:`integrate_pieces` integrates many of them in one pass.

Jobs
----
A *job* is one integral: a list of pieces ``(a, b, kind)`` built by
:func:`make_pieces`.  ``kind`` is ``"graded"`` when the integrand is
singular as x falls to a toward the piece's left end, else ``"smooth"``.
One integrand ``f(x, delta, origin, job)`` serves every job of a call.  It
gets 1-D node arrays: the nodes ``x`` and ``job``, the index of the job each
node belongs to.  On graded pieces it also gets ``origin``, the piece's left
end a for each node, and ``delta``, the exact offset x - a of each node,
which a profile singular at a needs at full relative precision.  On smooth
pieces ``delta`` and ``origin`` are None.

Each resolution makes, for all jobs together:

* one scale pass: one Gauss-Legendre panel on each smooth piece, which sets
  each job's tolerance and seeds its adaptive pieces;
* one graded pass: every graded piece split into ``levels`` panels
  shrinking geometrically toward its left end;
* one adaptive pass: every smooth piece bisected, with one integrand call per
  bisection level for the open panels of all jobs.

Per-job checks
--------------
Batching changes no decision.  Each job has its own tolerance,
``rel_tol * scale / 8 + abs_tol``, where ``scale`` is the sum of its own
span estimates.  Each graded piece must show decaying inner panels.  Each
adaptive panel must converge before ``max_depth``.  Each job's two
resolutions must agree.  A :class:`~ambitlab.errors.QuadratureError` names
the job that failed, by the label the caller gave it.

Summation order
---------------
Each panel's Gauss sum is one fixed-order sum: its weighted node values add
up one node at a time, in node order.  A panel's estimate thus depends on
its own integrand values alone, and any split of a batch into integrand
calls gives the same values.  Converged panels add up in bisection order,
and piece totals add up in piece order.  A job's result is therefore
independent of the jobs batched with it, bit for bit, when its integrand is
pointwise: its value at a node depends on that node alone.
``SingularWeight._column`` is not pointwise, as its inner panel count
follows the largest one the nodes of a call ask for.

Node cap
--------
No integrand call gets more than ``_NODE_CAP`` nodes.  Larger batches are
split at panel boundaries by :func:`node_slices`.  This bounds the
temporaries an integrand makes at a fixed size, whatever the number of jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import regions
from .errors import QuadratureError

__all__ = [
    "QuadratureConfig",
    "gl",
    "integrate_pieces",
    "make_pieces",
    "crossing_edges",
    "node_slices",
]

_NODE_CAP = 1 << 15  # most nodes per integrand call


@dataclass(frozen=True)
class QuadratureConfig:
    """Engine settings; the constructor refuses those the engine cannot run."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14
    levels: int = 40          # dyadic grading levels toward a singular endpoint
    nodes: int = 10           # Gauss-Legendre nodes per graded panel
    smooth_nodes: int = 16    # Gauss-Legendre nodes per adaptive panel
    max_depth: int = 48

    def __post_init__(self):
        for name, low in (("levels", 1), ("nodes", 1), ("smooth_nodes", 1), ("max_depth", 0)):
            value = getattr(self, name)
            if not (np.isfinite(value) and value == int(value) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite tolerance >= 0, got {value!r}")


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (p0 - x * p1) / ((1 - x) * (1 + x))


@lru_cache(maxsize=64)
def gl(nodes):
    """Gauss-Legendre nodes and weights on [-1, 1], by Golub and Welsch.

    The nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence, whose off-diagonal is k/sqrt(4k^2 - 1).  One Newton step on
    P_n polishes them, and the weights are 2/((1 - x^2) P_n'(x)^2) at the
    polished nodes.  Both steps run in ``np.longdouble`` (80-bit on x86-64),
    so nodes and weights come out correctly rounded at the node counts the
    package uses; where ``longdouble`` is double they are within a few ulp.
    The rule is then made exactly symmetric and its weights sum to 2.
    """
    k = np.arange(1.0, nodes)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1)).astype(np.longdouble)
    p, dp = _legendre(nodes, x)
    x = x - p / dp
    _, dp = _legendre(nodes, x)
    w = (2 / ((1 - x) * (1 + x) * dp * dp)).astype(float)
    x = x.astype(float)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w * (2.0 / w.sum())


# Build in set-up, not in a run, the rules that runs use: the uniform rows'
# midpoint rule, and both resolutions of the default config and of the
# covariance config in ``simulate``.
for _nodes in (1, 10, 14, 16, 18, 20, 24, 28):
    gl(_nodes)


def _gauss_sums(f, lo, hi, job, nodes, origin=None):
    """Gauss-Legendre estimate of each panel (lo, hi).

    Each panel adds its weighted node values one node at a time, in node
    order, so its estimate depends on its own integrand values alone.  The
    integrand gets at most ``_NODE_CAP`` nodes a call.
    """
    xi, wi = gl(nodes)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    sums = np.empty(lo.size)
    for part in node_slices(lo.size, nodes):
        pts = mid[part, None] + half[part, None] * xi
        ids = np.repeat(job[part], nodes)
        if origin is None:
            vals = f(pts.ravel(), None, None, ids)
        else:
            at = origin[part, None]
            vals = f((at + pts).ravel(), pts.ravel(), np.repeat(origin[part], nodes), ids)
        vals = vals.reshape(-1, nodes)
        acc = vals[:, 0] * wi[0]
        for k in range(1, nodes):
            acc += vals[:, k] * wi[k]
        sums[part] = acc
    return half * sums


def _graded_pass(f, job, a, b, levels, nodes, labels):
    """Each graded piece's integral, panels shrinking geometrically toward a.

    The sliver of relative width 2^-levels next to the singular end is
    estimated by geometric extrapolation of the innermost panel ratio: for an
    algebraic singularity the panel masses decay geometrically and the slowly
    varying factor is flat at that scale, so the extrapolated tail stays far
    below the layout-agreement tolerance even when the sliver's true mass
    (which can exceed float resolution to a small power) is not negligible.
    """
    offs = (b - a)[:, None] * 2.0 ** (-np.arange(levels, -1.0, -1.0))  # ascending
    panels = _gauss_sums(f, offs[:, :-1].ravel(), offs[:, 1:].ravel(), np.repeat(job, levels),
                         nodes, origin=np.repeat(a, levels)).reshape(a.size, levels)
    totals = np.sum(panels, axis=1)
    inner0, inner1 = panels[:, 0], panels[:, 1]
    both = (inner0 > 0.0) & (inner1 > 0.0)
    ratio = np.zeros(a.size)
    ratio[both] = inner0[both] / inner1[both]
    rising = np.flatnonzero(both & (ratio >= 1.0))
    if rising.size:
        i = rising[0]
        raise QuadratureError(
            f"{labels[job[i]]}: graded panels toward the left end of ({a[i]!r}, {b[i]!r}) "
            f"do not decay (ratio {ratio[i]:.4g}); integrand looks non-integrable",
            estimate=float(totals[i]),
        )
    tail = both & (ratio > 1e-3)
    totals[tail] += inner0[tail] * ratio[tail] / (1.0 - ratio[tail])
    return totals


def _adaptive_pass(f, job, a, b, est, tol, nodes, max_depth, labels):
    """Each smooth piece's integral by bisecting Gauss-Legendre panels.

    Panels whose two halves disagree with the parent estimate are split; a
    panel still disagreeing at the depth cap raises.  Integrands here are
    piecewise smooth (kinks where moving region sections cross kernel
    breakpoints), which bisection localizes quickly.  The open panels of
    all pieces are kept grouped by piece, in bisection order.
    """
    totals = [0.0] * a.size
    lo, hi, depth, piece = a, b, np.zeros(a.size, dtype=np.intp), np.arange(a.size)
    while lo.size:
        mid = 0.5 * (lo + hi)
        sums = _gauss_sums(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                           np.tile(job[piece], 2), nodes)
        lv, rv = sums[:lo.size], sums[lo.size:]
        refined = lv + rv
        err = np.abs(refined - est)
        done = err <= tol[piece] + 1e-15 * np.abs(refined)
        for p, value in zip(piece[done].tolist(), refined[done].tolist()):
            totals[p] += value
        stuck = np.flatnonzero(~done & (depth >= max_depth))
        if stuck.size:
            i = stuck[0]
            raise QuadratureError(
                f"{labels[job[piece[i]]]}: adaptive panel ({lo[i]!r}, {hi[i]!r}) failed "
                f"to converge (residual {err[i]:.3g} at depth {depth[i]})",
                estimate=totals[piece[i]] + float(refined[i]),
            )
        split = ~done
        lo = np.stack([lo[split], mid[split]], axis=1).ravel()
        hi = np.stack([mid[split], hi[split]], axis=1).ravel()
        est = np.stack([lv[split], rv[split]], axis=1).ravel()
        depth = np.repeat(depth[split] + 1, 2)
        piece = np.repeat(piece[split], 2)
    return totals


def _integrate_once(f, jobs, quadcfg, levels, nodes, smooth_nodes, labels):
    """Every job's integral at one resolution."""
    c = quadcfg
    pieces = [(k, a, b, kind) for k, job in enumerate(jobs) for a, b, kind in job if b > a]
    owner = np.array([p[0] for p in pieces], dtype=np.intp)
    a = np.array([p[1] for p in pieces], dtype=float)
    b = np.array([p[2] for p in pieces], dtype=float)
    smooth = np.array([p[3] == "smooth" for p in pieces], dtype=bool)
    value = np.empty(len(pieces))

    # scale pass: each job's span estimates set its tolerance; each span's
    # estimate alone seeds its bisection
    sm = np.flatnonzero(smooth)
    seeds = _gauss_sums(f, a[sm], b[sm], owner[sm], smooth_nodes)
    scale = np.bincount(owner[sm], weights=np.abs(seeds), minlength=len(jobs))
    tol = c.rel_tol * np.maximum(scale, c.abs_tol) / 8.0 + c.abs_tol

    gr = np.flatnonzero(~smooth)
    value[gr] = _graded_pass(f, owner[gr], a[gr], b[gr], levels, nodes, labels)
    value[sm] = _adaptive_pass(f, owner[sm], a[sm], b[sm], seeds, tol[owner[sm]],
                               smooth_nodes, c.max_depth, labels)
    return np.bincount(owner, weights=value, minlength=len(jobs))


def integrate_pieces(f, jobs, quadcfg, labels=None, f_check=None):
    """Every job's integral at two resolutions; each job's two must agree.

    ``jobs`` is a list of piece lists from :func:`make_pieces`; ``f`` is
    the integrand ``f(x, delta, origin, job)`` described in the module
    docstring.  ``labels`` names each job in error messages (default
    ``job <index>``).  ``f_check`` substitutes a higher-accuracy integrand
    for the second run (used when the integrand itself embeds a fixed inner
    quadrature layout).  Returns the second-resolution values as an array.
    """
    c = quadcfg
    labels = labels or [f"job {k}" for k in range(len(jobs))]
    first = _integrate_once(f, jobs, c, c.levels, c.nodes, c.smooth_nodes, labels)
    second = _integrate_once(f_check or f, jobs, c, c.levels + 6, c.nodes + 4,
                             c.smooth_nodes + 8, labels)
    for label, v1, v2 in zip(labels, first.tolist(), second.tolist()):
        if abs(v1 - v2) > c.rel_tol * max(abs(v1), abs(v2)) + c.abs_tol:
            raise QuadratureError(
                f"{label}: quadrature did not stabilize: {v1!r} vs {v2!r}", estimate=v2)
    return second


def make_pieces(edges, singular_points, lo, hi):
    """Panels between sorted edges clipped to (lo, hi), tagged by singularity.

    A panel whose left end is a singular point is ``"graded"`` toward it:
    every integrand here is singular only as its argument falls to a
    singular point from the right (the profile r^-alpha as r -> 0+), so the
    panel to the left of that point stays ``"smooth"``.
    """
    pts = sorted({lo, hi, *(e for e in edges if lo < e < hi)})
    return [(a, b, "graded" if any(abs(a - sp) < 1e-15 for sp in singular_points) else "smooth")
            for a, b in zip(pts[:-1], pts[1:])]


def crossing_edges(region, struct_lines, axis):
    """Outer-axis values where a region boundary meets a structural line.

    The inner 1-D reductions are only piecewise smooth in the outer variable:
    a kink appears whenever a moving cross-section endpoint (traveling along a
    region boundary line) passes a line where the integrand itself changes
    formula.  Returns the s-coordinates (``axis=0``) or t-coordinates
    (``axis=1``) of all such intersection points so they can join the outer
    panel edges.
    """
    out = []
    for a1, b1, c1 in regions.boundary_lines(region):
        for a2, b2, c2 in struct_lines:
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            s = (c1 * b2 - c2 * b1) / det
            t = (a1 * c2 - a2 * c1) / det
            out.append(s if axis == 0 else t)
    return out


def node_slices(count, width):
    """Slices of range(count) for items of ``width`` nodes each, at most
    ``_NODE_CAP`` nodes a slice (one item where a single item is larger).

    The engine evaluates its panels one slice at a time.  Integrands that
    expand each outer node into an inner layout of their own do the same, so
    their temporaries stay bounded too.
    """
    step = max(1, _NODE_CAP // width)
    return [slice(at, at + step) for at in range(0, count, step)]
