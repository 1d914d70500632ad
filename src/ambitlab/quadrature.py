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

Each resolution makes, for all jobs together, with the counts
:class:`QuadratureConfig` derives from ``rel_tol``:

* one scale pass: one Gauss-Legendre panel on each smooth piece, which sets
  each job's tolerance and seeds its adaptive pieces;
* one graded pass: every graded piece split into ``levels`` panels, each a
  quarter of the width of the one to its right, so the innermost panel
  reaches 4^-levels of the piece from its left end; each panel takes
  ``nodes`` Gauss nodes;
* one adaptive pass: every smooth piece bisected, with one integrand call per
  bisection level for the open panels of all jobs.

Per-job checks
--------------
Batching changes no decision.  Each job has its own tolerance,
``rel_tol * scale / 8 + abs_tol``, where ``scale`` is the sum of its own
span estimates.  Each graded piece must show decaying inner panels.  Each
adaptive panel must converge within 48 bisections.  Every estimate must be
finite: a non-finite graded piece, seed or adaptive panel fails its job,
rather than come back as NaN or bisect until memory runs out.  Each job's
two resolutions must agree.  A job keeps its first failure in the order a
lone run meets them (each resolution's graded pass, seeds and bisection
levels, then the agreement), and its panels go no further.  The call raises
the :class:`~ambitlab.errors.QuadratureError` of the lowest-index failed
job, named by its label and with its index as ``job``: the error, estimate
and all, that the job raises alone.

Summation order
---------------
Nodes go to the integrand node-major: node 0 of every panel in the call,
then node 1, and so on, so that each step of a Gauss sum reads one
contiguous row of values.  Each panel's Gauss sum is one fixed-order sum:
its weighted node values add up one node at a time, in node order.  A
panel's estimate thus depends on its own integrand values alone, and any
split of a batch into integrand calls gives the same values.  Converged
panels add up in bisection order, and piece totals add up in piece order.
A job's result is therefore independent of the jobs batched with it, bit
for bit, when its integrand is pointwise: its value at a node depends on
that node alone.  Every integrand in the package is.

Node cap
--------
No integrand call gets more than ``_NODE_CAP`` nodes.  Larger batches are
split at panel boundaries by :func:`node_slices`, and each slice is laid out
node-major on its own.  This bounds the temporaries an integrand makes at a
fixed size, whatever the number of jobs.
"""

from __future__ import annotations

import math
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
_MAX_DEPTH = 48  # most bisections of an adaptive panel


@dataclass(frozen=True)
class QuadratureConfig:
    """The engine's two tolerances, refused where it cannot run; the layout follows ``rel_tol``."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-14

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite tolerance >= 0, got {value!r}")

    @property
    def nodes(self):
        """Gauss-Legendre nodes per graded panel: the least n >= 10 with 9^-(n-1) <= ``rel_tol``.

        A graded panel (r, 4r) has the singular end 0 on its Bernstein ellipse
        of radius 3, so an n-node rule misses 9^-n of the panel's mass, times
        0.2, 0.7 and 1.2 for x^-0.5, x^-0.8 and x^-0.95.  A piece's relative
        error is about its panels' (Schwab, Computing 53, 1994), so this n
        keeps it below a seventh of the two-resolution tolerance: 10 at 1e-8,
        14 at 1e-12, and 18 at the float resolution, where it is clamped.
        """
        tol = max(self.rel_tol, np.finfo(float).eps)
        return max(10, 1 + math.ceil(math.log(1.0 / tol) / math.log(9.0)))

    @property
    def levels(self):
        """Ratio-4 grading levels, ``nodes + 10``: reach 4^-20 at 1e-8, a level further a node."""
        return self.nodes + 10

    @property
    def smooth_nodes(self):
        """Gauss-Legendre nodes per adaptive panel, ``nodes + 6``: 16 at 1e-8."""
        return self.nodes + 6


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


# Build in set-up, not in a run, the rules that runs use: both resolutions
# of the default config and of the covariance config in ``simulate``.
for _nodes in (10, 14, 16, 18, 20, 24, 28):
    gl(_nodes)


def _gauss_sums(f, lo, hi, job, nodes, origin=None):
    """Gauss-Legendre estimate of each panel (lo, hi).

    Nodes are laid out node-major, one row of panels per Gauss node, so the
    integrand gets node 0 of every panel first.  Each panel adds its weighted
    node values one node at a time, in node order, so its estimate depends
    on its own integrand values alone.  The integrand gets at most
    ``_NODE_CAP`` nodes a call.
    """
    xi, wi = gl(nodes)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    sums = np.empty(lo.size)
    for part in node_slices(lo.size, nodes):
        pts = mid[part] + half[part] * xi[:, None]
        ids = np.tile(job[part], nodes)
        if origin is None:
            vals = f(pts.ravel(), None, None, ids)
        else:
            at = origin[part]
            vals = f((at + pts).ravel(), pts.ravel(), np.tile(at, nodes), ids)
        vals = vals.reshape(nodes, -1)
        acc = vals[0] * wi[0]
        for k in range(1, nodes):
            acc += vals[k] * wi[k]
        sums[part] = acc
    return half * sums


def _graded_pass(f, job, a, b, levels, nodes, failed):
    """Each graded piece's integral, panels shrinking geometrically toward a.

    Panel edges sit at a + (b - a) 4^-j for j = 0, ..., levels: each panel is
    a quarter of the next one out, so the same reach takes half the levels
    (and half the nodes) that halving would.  The sliver of relative width
    4^-levels next to the singular end is estimated by geometric
    extrapolation of the innermost panel ratio: for an algebraic singularity
    the panel masses decay geometrically and the slowly varying factor is
    flat at that scale, so the extrapolated tail stays far below the
    layout-agreement tolerance even when the sliver's true mass (which can
    exceed float resolution to a small power) is not negligible.
    """
    offs = (b - a)[:, None] * 4.0 ** (-np.arange(levels, -1.0, -1.0))  # ascending
    panels = _gauss_sums(f, offs[:, :-1].ravel(), offs[:, 1:].ravel(), np.repeat(job, levels),
                         nodes, origin=np.repeat(a, levels)).reshape(a.size, levels)
    totals = np.sum(panels, axis=1)
    inner0, inner1 = panels[:, 0], panels[:, 1]
    both = (inner0 > 0.0) & (inner1 > 0.0)
    ratio = np.zeros(a.size)
    ratio[both] = inner0[both] / inner1[both]
    rising = both & (ratio >= 1.0)
    _fail(failed, rising, job, lambda i: (
        f"graded panels toward the left end of ({float(a[i])!r}, {float(b[i])!r}) do not "
        f"decay (ratio {ratio[i]:.4g}); integrand looks non-integrable", float(totals[i])))
    tail = both & (ratio > 1e-3) & ~rising
    totals[tail] += inner0[tail] * ratio[tail] / (1.0 - ratio[tail])
    _refuse_non_finite(failed, totals, job, a, b, "graded piece")
    return totals


def _fail(failed, flagged, job, describe):
    """Keep ``describe(i)``, a message and estimate, as the failure of the job of
    each flagged row i that has none; rows come grouped by job, in piece order."""
    for i in np.flatnonzero(flagged).tolist():
        failed.setdefault(int(job[i]), describe(i))


def _refuse_non_finite(failed, values, job, lo, hi, what):
    """Fail the job of each non-finite value, naming its piece or panel (lo, hi)."""
    _fail(failed, ~np.isfinite(values), job, lambda i: (
        f"{what} ({float(lo[i])!r}, {float(hi[i])!r}) has the non-finite estimate "
        f"{float(values[i])!r}", float(values[i])))


def _adaptive_pass(f, job, a, b, est, tol, nodes, failed):
    """Each smooth piece's integral by bisecting Gauss-Legendre panels.

    Panels whose two halves disagree with the parent estimate are split; a
    panel still disagreeing at the depth cap fails its job, as does a
    non-finite seed or panel estimate, which could never agree.  Integrands
    here are piecewise smooth (kinks where moving region sections cross
    kernel breakpoints), which bisection localizes quickly.  The open panels
    of all pieces are kept grouped by piece, in bisection order.
    """
    _refuse_non_finite(failed, est, job, a, b, "smooth piece")
    totals = [0.0] * a.size
    lo, hi, depth, piece = a, b, np.zeros(a.size, dtype=np.intp), np.arange(a.size)
    while lo.size:
        if failed:  # a failed job's panels go no further
            keep = ~np.isin(job[piece], list(failed))
            lo, hi, est, depth, piece = lo[keep], hi[keep], est[keep], depth[keep], piece[keep]
        mid = 0.5 * (lo + hi)
        owner = job[piece]
        sums = _gauss_sums(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                           np.tile(owner, 2), nodes)
        lv, rv = sums[:lo.size], sums[lo.size:]
        refined = lv + rv
        _refuse_non_finite(failed, refined, owner, lo, hi, "adaptive panel")
        err = np.abs(refined - est)
        done = err <= tol[piece] + 1e-15 * np.abs(refined)
        for p, value in zip(piece[done].tolist(), refined[done].tolist()):
            totals[p] += value
        _fail(failed, ~done & (depth >= _MAX_DEPTH), owner, lambda i: (
            f"adaptive panel ({float(lo[i])!r}, {float(hi[i])!r}) failed to converge "
            f"(residual {err[i]:.3g} at depth {depth[i]})", totals[piece[i]] + float(refined[i])))
        split = ~done
        lo = np.stack([lo[split], mid[split]], axis=1).ravel()
        hi = np.stack([mid[split], hi[split]], axis=1).ravel()
        est = np.stack([lv[split], rv[split]], axis=1).ravel()
        depth = np.repeat(depth[split] + 1, 2)
        piece = np.repeat(piece[split], 2)
    return totals


def _integrate_once(f, jobs, quadcfg, levels, nodes, smooth_nodes, failed):
    """The integral of every job not in ``failed`` at one resolution; 0 for the others."""
    c = quadcfg
    pieces = [(k, a, b, kind) for k, job in enumerate(jobs) if k not in failed
              for a, b, kind in job if b > a]
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
    value[gr] = _graded_pass(f, owner[gr], a[gr], b[gr], levels, nodes, failed)
    value[sm] = _adaptive_pass(f, owner[sm], a[sm], b[sm], seeds, tol[owner[sm]],
                               smooth_nodes, failed)
    # as float64: over no piece at all, bincount gives int64 zeros
    return np.bincount(owner, weights=value, minlength=len(jobs)).astype(float, copy=False)


def integrate_pieces(f, jobs, quadcfg, labels=None, f_check=None):
    """Every job's integral at two resolutions; each job's two must agree.

    ``jobs`` is a list of piece lists from :func:`make_pieces`; ``f`` is
    the integrand ``f(x, delta, origin, job)`` described in the module
    docstring.  ``labels`` names each job in error messages (default
    ``job <index>``).  ``f_check`` substitutes a higher-accuracy integrand
    for the second run (used when the integrand itself embeds a fixed inner
    quadrature layout).  Returns the second-resolution values as an array;
    if a job fails, raises the error of the first that does.
    """
    c = quadcfg
    failed = {}  # job index -> the message and estimate of its first failure
    first = _integrate_once(f, jobs, c, c.levels, c.nodes, c.smooth_nodes, failed)
    # the check layout reaches 4^-3 = 1/64 further toward each singular end
    second = _integrate_once(f_check or f, jobs, c, c.levels + 3, c.nodes + 4,
                             c.smooth_nodes + 8, failed)
    for k, (v1, v2) in enumerate(zip(first.tolist(), second.tolist())):
        if k not in failed and abs(v1 - v2) > c.rel_tol * max(abs(v1), abs(v2)) + c.abs_tol:
            failed[k] = f"quadrature did not stabilize: {v1!r} vs {v2!r}", v2
    if failed:
        k = min(failed)
        label = labels[k] if labels else f"job {k}"
        raise QuadratureError(f"{label}: {failed[k][0]}", estimate=failed[k][1], job=k)
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


def crossing_edges(region, struct_lines):
    """Heights t where a region boundary meets a structural line.

    The inner 1-D reductions are only piecewise smooth in the outer variable:
    a kink appears whenever a moving cross-section endpoint (traveling along a
    region boundary line) passes a line where the integrand itself changes
    formula.  Returns the t-coordinates of all such intersection points so
    they can join the outer panel edges; an integrator whose outer variable
    is s passes the transposed region and lines.
    """
    out = []
    for a1, b1, c1 in regions.boundary_lines(region):
        for a2, b2, c2 in struct_lines:
            det = a1 * b2 - a2 * b1
            if abs(det) >= 1e-12:
                out.append((a1 * c2 - a2 * c1) / det)
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
