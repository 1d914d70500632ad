r"""Weight kernels, differenced kernels, and their concentration measures.

A weight kernel g lives on a bounded support inside the unit square.  The
lattice at resolution n differences it across one cell in each direction:

.. math:: h_n(s,t) = g(s,t) - g(s-1/n,\,t) - g(s,\,t-1/n) + g(s-1/n,\,t-1/n),

supported in [0, 1+1/n]^2.  The squared mass c_n = \int h_n^2 normalizes the
concentration measure pi_n = h_n^2 / c_n, whose localization as n grows is
what the limit theory runs on.

Variants
--------
``UniformWeight``   indicator of a rectangle; h_n is +-scale on the products
                    of its signed ``strips``, each as wide as the smaller of
                    1/n and the side w: c_n = 4 scale^2 w_s w_t.
``SingularWeight``  g(s,t) = (s \vee t)^{-alpha} ell(s \vee t) on the unit
                    square, algebraically singular along the axes' corner.
``TriangleWeight``  g(s,t) = t^{-alpha} ell(t) on the cone
                    {(1-t)/2 < s < (1+t)/2}, singular at the apex (1/2, 0).

Each variant's facts live on its class; the module-level functions and the
other modules only read them.  The class holds the config name ``variant``
(its key in ``VARIANTS``), its parameters as dataclass fields, ``evaluate``
and the batched mass reduction ``masses``, the concentration geometry
(``concentration_point``, ``window``, ``corner_cells``, ``limit_atoms``), the
admissible ``kappa_range``, the region ``catalog`` and the exact routes
(``signed_strips`` where ``has_strips``, ``lattice_autocorrelation`` where
``has_autocorrelation``).
``WeightSpec`` holds the defaults for the facts a variant lacks: its ``window``
and ``catalog`` refuse a kernel without a single concentration point.

Integration strategy: never brute-force 2-D quadrature.  Rows of the Uniform
and Triangle kernels are piecewise constant in s for fixed t, so masses reduce
to an outer 1-D integral of exact row integrals.  The Singular kernel is
symmetric, h(s,t) = h(t,s), and below the diagonal its only t-dependence sits
in a single band, so masses reduce to column integrals over the lower
triangle, the rows of the transposed regions.  One builder, ``_outer_jobs``,
lays out every variant's outer integrals, which go through the batched engine of
:mod:`ambitlab.quadrature` (graded Gauss-Legendre layouts toward algebraic
singularities, adaptive bisection elsewhere, two resolutions); a failed check
raises :class:`~ambitlab.errors.QuadratureError` naming the integral.  Every
job, outer or autocorrelation wedge, keeps only the pieces where its integrand
can be nonzero (``_within``).  Each end of that support is a panel edge
already, so a kept piece is a piece of the full range, and a dropped one
would add exactly 0.0 unless it is a few ulps wide and its Gauss nodes round
out of it: a clipped job keeps its bits, or loses that rounding error.  The
masses of many regions are one engine call: each region, or each nonempty
half of a singular one, is a job, and one integrand reads each node's region
by the node's job index.  The integrands are pointwise, so a region's mass is
the same, bit for bit, in any batch, and so is a failing region's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import regions
from .errors import QuadratureError
from .quadrature import (
    QuadratureConfig,
    crossing_edges,
    gl,
    integrate_pieces,
    make_pieces,
    node_slices,
)
from .regions import (
    Everything,
    HalfPlane,
    Intersection,
    Rect,
    Union,
    band,
)

__all__ = [
    "VARIANTS",
    "SlowFunction",
    "WeightSpec",
    "UniformWeight",
    "SingularWeight",
    "TriangleWeight",
    "KappaRange",
    "require_weight",
    "eval_g",
    "compute_cn",
    "mu_mass",
    "mu_masses",
    "concentration_mass",
    "near_region",
    "thinning_count",
]


# ---------------------------------------------------------------------------
# slowly varying factors
# ---------------------------------------------------------------------------

def _ell_one_minus_s(x):
    return 1.0 - x


def _ell_one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _ell_cos_quarter(x):
    return np.cos(0.5 * np.pi * np.asarray(x, dtype=float))


def _ell_smooth_cutoff(x):
    # (1 - x)^2: derivative vanishes at 1, useful for widened thinning ranges
    return (1.0 - np.asarray(x, dtype=float)) ** 2


# name -> (factor, its polynomial coefficients c_j of x^j or None, flags)
_ELL_CATALOG = {
    "one_minus_s": (_ell_one_minus_s, (1.0, -1.0), dict(ell0_nonzero=True, ell1_zero=True, derivative_bound=1.0, derivative1_zero=False)),
    "one": (_ell_one, (1.0,), dict(ell0_nonzero=True, ell1_zero=False, derivative_bound=0.0, derivative1_zero=True)),
    "cos_quarter": (_ell_cos_quarter, None, dict(ell0_nonzero=True, ell1_zero=True, derivative_bound=0.5 * np.pi, derivative1_zero=False)),
    "smooth_cutoff": (_ell_smooth_cutoff, (1.0, -2.0, 1.0), dict(ell0_nonzero=True, ell1_zero=True, derivative_bound=2.0, derivative1_zero=True)),
}


@dataclass(frozen=True)
class SlowFunction:
    """A named slowly-varying factor on [0, 1] and its boundary flags.

    ``name`` picks the factor from the catalog, which also fixes the flags:
    whether it is nonzero at 0 and zero at 1, a bound on its slope, and
    ``derivative1_zero``, the optional extra smoothness at 1 that widens the
    admissible thinning range (off for the default factor 1 - s).  The flags
    stay fields so that the weight's repr, which ``field.csv`` headers carry,
    lists them.
    """

    name: str = "one_minus_s"
    ell0_nonzero: bool = field(init=False)
    ell1_zero: bool = field(init=False)
    derivative_bound: float = field(init=False)
    derivative1_zero: bool = field(init=False)

    def __post_init__(self):
        if self.name not in _ELL_CATALOG:
            raise ValueError(f"unknown slow-function name {self.name!r}; catalog: {sorted(_ELL_CATALOG)}")
        for flag, value in _ELL_CATALOG[self.name][2].items():
            object.__setattr__(self, flag, value)

    def __call__(self, x):
        return _ELL_CATALOG[self.name][0](x)


# ---------------------------------------------------------------------------
# admissible thinning ranges
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KappaRange:
    """Interval (0, upper) or (0, upper] of valid thinning exponents.

    ``upper <= 0`` encodes the empty range; ``note`` carries the reason
    (which kernels admit no single-point concentration at all).
    """

    upper: float
    upper_inclusive: bool = False
    note: str = ""

    @property
    def empty(self):
        return self.upper <= 0.0

    def contains(self, kappa):
        kappa = float(kappa)
        if kappa <= 0.0 or self.empty:
            return False
        if self.upper_inclusive:
            return kappa <= self.upper
        return kappa < self.upper

    def __str__(self):
        if self.empty:
            return "empty"
        bracket = "]" if self.upper_inclusive else ")"
        return f"(0, {self.upper:g}{bracket}"


# ---------------------------------------------------------------------------
# weight specifications
# ---------------------------------------------------------------------------

class WeightSpec:
    """Base of the weight variants: the defaults for facts a variant lacks.

    A variant is a frozen dataclass whose fields are its parameters, each
    read from the config key ``weight.<field>``.  Every variant also defines
    ``evaluate``, ``masses``, ``kappa_range`` and ``limit_atoms``; ``window``
    and ``catalog`` refuse one without a single concentration point.
    """

    variant = None               # config name and registry key
    concentration_point = None   # single limit point of pi_n, if any
    has_strips = False           # strips() and signed_strips() exist
    has_autocorrelation = False  # lattice_autocorrelation() works

    def window(self, eps):
        """The shrinking neighborhood E carrying the concentration mass."""
        raise ValueError(
            f"{type(self).__name__} has no single concentration point, so "
            "there is no shrinking window around one"
        )

    def catalog(self, n, eps):
        """Named regions splitting the squared differenced kernel's support."""
        raise ValueError(
            "region catalogs exist for the corner-singular and cone kernels only; "
            f"got {type(self).__name__}"
        )

    def corner_cells(self, n):
        """Named cells carrying a multi-atom concentration limit."""
        return {}

    def _check_scale(self):
        """Refuse a ``scale`` that is not finite and positive (every variant's check)."""
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


def _within(pieces, support):
    """The ``pieces`` that meet an open interval of ``support``, outside
    which the integrand is exactly 0: a dropped piece would add 0.0."""
    return [piece for piece in pieces
            if any(piece[0] < top and bottom < piece[1] for bottom, top in support)]


def _outer_jobs(n, fixed, parts, struct, singular=(), support=((-math.inf, math.inf),)):
    """One job per region of ``parts``: the outer integral of its rows over
    heights in (0, 1 + 1/n), graded toward the heights ``singular``.

    The panels end at the ``fixed`` heights, at the region's
    ``t_breakpoints`` and where its boundary crosses a line (a, b, c) of
    ``struct``, a line on which the rows' formula changes.  A job keeps only
    the panels inside ``support``, the heights where rows can be nonzero,
    and inside the heights that some piece of its region lets through its
    horizontal half-planes, c/b < t for b < 0 and t < c/b for b > 0: any
    other row of the region is empty.  Those ends are ``fixed`` heights or
    breakpoints, so each kept panel is a panel of the full range.
    """
    jobs = []
    for region in parts:
        edges = fixed + regions.t_breakpoints(region) + crossing_edges(region, struct)
        heights = [(max([lo] + [c / b for a, b, c in piece if a == 0.0 and b < 0.0]),
                    min([hi] + [c / b for a, b, c in piece if a == 0.0 and b > 0.0]))
                   for piece in region.pieces for lo, hi in support]
        jobs.append(_within(make_pieces(edges, singular, 0.0, 1.0 + 1.0 / n), heights))
    return jobs


@dataclass(frozen=True)
class _ProfileWeight(WeightSpec):
    """The variants built on the profile r^(-alpha) ell(r): singular and cone."""

    alpha: float
    ell: SlowFunction = field(default_factory=SlowFunction)
    scale: float = 1.0

    def profile(self, r):
        """The radial/height profile r^(-alpha) ell(r) on (0,1), zero elsewhere.

        Zero at r = 0 too, where the profile diverges; accepts scalars or arrays.
        The product is formed in place as r^(-alpha) * scale * ell(r), over
        the points in (0, 1) alone where some lie outside, and skips ell where
        it is identically one (x * 1.0 is x).  Float multiplication is
        commutative, so the bits are those of scale * r^(-alpha) * ell(r).
        """
        r = np.asarray(r, dtype=float)
        inside = (r > 0.0) & (r < 1.0)
        every = inside.all()
        ri = r if every else r[inside]
        vals = ri ** (-self.alpha)
        vals *= self.scale
        if self.ell.name != "one":
            vals *= self.ell(ri)
        if every:
            out = vals
        else:
            out = np.zeros_like(r)
            out[inside] = vals
        return out if out.ndim else float(out)

    def limit_atoms(self):
        """A unit point mass at the concentration point."""
        return ((1.0, self.concentration_point),)


@dataclass(frozen=True)
class UniformWeight(WeightSpec):
    """Indicator of the rectangle [s1, s2] x [t1, t2], optionally scaled.

    ``masses``, ``corner_cells`` and ``signed_strips`` read h_n off ``strips``."""

    s1: float = 0.25
    s2: float = 0.75
    t1: float = 0.25
    t2: float = 0.75
    scale: float = 1.0

    variant = "uniform"
    has_strips = True
    has_autocorrelation = True

    def __post_init__(self):
        if not (0.0 <= self.s1 < self.s2 <= 1.0 and 0.0 <= self.t1 < self.t2 <= 1.0):
            raise ValueError(f"rectangle corners must satisfy 0 <= lo < hi <= 1, got {self!r}")
        self._check_scale()

    def evaluate(self, s, t):
        return np.where(
            (self.s1 <= s) & (s <= self.s2) & (self.t1 <= t) & (t <= self.t2),
            self.scale,
            0.0,
        )

    def strips(self, n):
        """``(s_strips, t_strips)``, each ``((plus_lo, plus_hi), (minus_lo, minus_hi))``.

        On an axis with window (lo, hi), 1(lo, hi)(x) - 1(lo, hi)(x - 1/n) is +1
        on (lo, min(hi, lo + 1/n)), -1 on (max(hi, lo + 1/n), hi + 1/n) and 0
        elsewhere; h_n is scale times the s-sign times the t-sign."""
        d = 1.0 / n
        return tuple(((lo, min(hi, lo + d)), (max(hi, lo + d), hi + d))
                     for lo, hi in ((self.s1, self.s2), (self.t1, self.t2)))

    def masses(self, n, parts, quadcfg):
        """Integral of h_n^2 over each region of ``parts``, one job each: an
        outer t-integral of exact row integrals.

        h_n^2 is scale^2 on the four strip products and 0 elsewhere, so at a
        height inside a t-strip a row's integral is scale^2 times its
        section's overlap with the two s-strips, and 0 at any other height:
        so the outer t-integrals, adaptive and all in one engine call, run
        over the t-strips alone.
        """
        s_strips, t_strips = self.strips(n)
        sq = self.scale * self.scale

        def rows(ts, deltas, origin, job):
            plus, minus = ((lo < ts) & (ts < hi) for lo, hi in t_strips)
            at, out = np.flatnonzero(plus | minus), np.zeros(ts.size)
            lo, _, hi, _ = regions.row_sections_array(parts, ts[at], job=job[at])
            # section by section, its overlap with the plus strip, then the minus strip
            over = np.stack([np.maximum(np.minimum(hi, b) - np.maximum(lo, a), 0.0)
                             for a, b in s_strips], axis=1)
            out[at] = (over * sq).reshape(2 * len(lo), at.size).sum(axis=0)
            return out

        # rows change formula where a section end passes an s-strip end
        lines = [(1.0, 0.0, end) for strip in s_strips for end in strip]
        jobs = _outer_jobs(n, [end for strip in t_strips for end in strip], parts, lines,
                           support=t_strips)
        return integrate_pieces(rows, jobs, quadcfg, [f"uniform mass at n={n}"] * len(parts))

    def corner_cells(self, n):
        """The four strip products, which carry the concentration mass."""
        (s_plus, s_minus), (t_plus, t_minus) = self.strips(n)
        return {f"corner_{i}{j}": Rect(*s, *t) for j, t in ((1, t_plus), (2, t_minus))
                for i, s in ((1, s_plus), (2, s_minus))}

    def limit_atoms(self):
        """The mass splits evenly over the four window corners."""
        return (
            (0.25, (self.s1, self.t1)), (0.25, (self.s1, self.t2)),
            (0.25, (self.s2, self.t1)), (0.25, (self.s2, self.t2)),
        )

    def kappa_range(self):
        """Empty: four separated corners, so no single shrinking window fits."""
        return KappaRange(
            upper=0.0,
            note=(
                "the rectangle indicator concentrates on four separated "
                "corner cells, so the single-window decay hypothesis cannot "
                "hold for any thinning exponent"
            ),
        )

    def lattice_autocorrelation(self, n, quadcfg, offsets):
        """int g(x) g(x + (i, j)/n) dx at each row (i, j) of ``offsets``: the
        overlap of two shifted windows, a product of the two axes' overlaps."""
        d = 1.0 / n
        i, j = np.asarray(offsets).T
        ov1 = np.maximum(0.0, (self.s2 - self.s1) - np.abs(i * d))
        ov2 = np.maximum(0.0, (self.t2 - self.t1) - np.abs(j * d))
        return self.scale**2 * ov1 * ov2

    def signed_strips(self, n, eps, idx):
        """The ``strips`` in the lag variables, per lattice index.

        The increment at index (i, j) reads h_n(eps i - u, eps j - v), so a
        strip (lo, hi) of an axis becomes (eps i - hi, eps i - lo) in u, or
        the same in v with j.  ``idx`` is a (N, 2) array of lattice indices.
        Returns ``((u_plus, 1.0), (u_minus, -1.0), (v_plus, 1.0), (v_minus,
        -1.0))`` where each strip is a pair ``(lo, hi)`` of length-N arrays:
        element a is the strip of index ``idx[a]``.
        """
        return tuple(((eps * idx[:, axis] - hi, eps * idx[:, axis] - lo), sign)
                     for axis, strips in enumerate(self.strips(n))
                     for (lo, hi), sign in zip(strips, (1.0, -1.0)))


@dataclass(frozen=True)
class SingularWeight(_ProfileWeight):
    """g(s,t) = (s v t)^(-alpha) ell(s v t) on the unit square, alpha in (0,1)."""

    variant = "singular"
    concentration_point = (0.0, 0.0)

    @property
    def has_autocorrelation(self):
        """Only a polynomial slow factor has the antiderivative it needs."""
        return _ELL_CATALOG[self.ell.name][1] is not None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"singularity exponent must lie in (0,1), got {self.alpha}")
        self._check_scale()

    def evaluate(self, s, t):
        """The profile at s v t on the closed quadrant, +inf at its corner.

        r is set to 0 off the quadrant, where the profile is 0, so the
        profile's power and slow factor run on quadrant points alone."""
        r = np.maximum(s, t)
        quadrant = (s >= 0.0) & (t >= 0.0)
        r[~quadrant] = 0.0
        out = self.profile(r)
        out[quadrant & (r == 0.0)] = np.inf
        return out

    def masses(self, n, parts, quadcfg):
        """Each region's lower half's mass plus its upper half's, the lower
        half of the transposed region; a transpose-invariant region's halves
        are the same integral, done once, and a half in {s < t}
        (``regions.in_upper_half``) is 0.0, with no job.

        Every other half is one job of one engine call, labelled with its
        half: the first failing half raises, with ``job`` its region's index.
        """
        halves, owner, spans = [], [], []
        for k, region in enumerate(parts):
            span = []
            for half, part in (("lower half {t < s}", region),
                               ("upper half {t > s}", regions.transpose(region))):
                if regions.in_upper_half(part):
                    continue
                span.append(len(halves))
                halves.append((half, part))
                owner.append(k)
                if regions.transpose_invariant(region):
                    span.append(span[0])
                    break
            spans.append(span)
        try:
            values = self._lower_masses(n, halves, quadcfg).tolist()
        except QuadratureError as exc:
            exc.job = owner[exc.job]
            raise
        return np.array([sum((values[i] for i in span), 0.0) for span in spans])

    def _lower_masses(self, n, halves, quadcfg):
        """Integral of h_n^2 over each region of the (label, region) pairs
        ``halves`` intersected with the lower triangle {t < s}, one job each.

        Below the diagonal the differenced kernel at fixed s > 1/n is built from
        three profile values: with sig = s - 1/n,

        ========================  =======================
        t in (0, min(1/n, sig))   f(s) - f(sig)
        t in (1/n, sig)           0
        t in (sig, 1/n)           f(s) - f(t)
        t in (max(1/n, sig), 1)   f(sig) - f(t)
        t in (1, s)               f(sig)
        ========================  =======================

        (for s <= 1/n the whole column is the constant f(s)).  The outer
        integral over s grades toward 0 and 1/n and has edges at 2/n, 4/n,
        ... below 1, so that each smooth piece, at most about twice as wide
        as its distance from 1/n, converges at its first bisection.  It
        calls the column integrand (``_column``) on all its nodes at once.
        The columns' t-sections come from ``row_sections_array`` as segments
        of shape (pieces, nodes), clipped to (0, min(s, 1 + 1/n)), and split
        against the table's cuts by clipping: constant pieces sum in closed
        form; pieces varying through f(t) join one batch of panels growing by
        4 in absolute t from their lower end (each piece integrates only its
        own nonzero panels, at most 32), so the per-panel relative variation
        stays bounded however close that end sits to the origin: a panel
        (r, 4r), like a graded panel, has 0 on its Bernstein ellipse of radius 3.

        Exact offsets: where the layout grades toward 1/n, sig is its offset,
        never s - 1/n.  For 0 < sig < 1/n the top band (1/n, s), where f is
        smooth, is one Gauss panel per segment in offsets from 1/n (exact by
        Sterbenz), of true width sig even where s rounds back to 1/n; such a
        column counts the band when its section, read at height 1/n with the
        exact offset sig, holds 1/n: a boundary through (1/n, 1/n), such as
        the diagonal, keeps the band that the rounded point would lose.
        """
        d = 1.0 / n
        # the transposes' rows are the halves' columns, whose formula changes
        # on t in {0, 1/n, 1} and on the moving cuts t = s and t = s - 1/n:
        # transposed, on s in {0, 1/n, 1}, s = t and s = t - 1/n
        flipped = [regions.transpose(region) for _, region in halves]
        struct = [(1.0, 0.0, 0.0), (1.0, 0.0, d), (1.0, 0.0, 1.0),
                  (-1.0, 1.0, 0.0), (-1.0, 1.0, d)]
        geometric = [d * 2.0**k for k in range(1, int(n).bit_length())]
        jobs = _outer_jobs(n, [0.0, d, *geometric, 1.0, 1.0 + d], flipped, struct, [0.0, d])
        labels = [f"{half}: singular mass at n={n}" for half, _ in halves]
        return integrate_pieces(self._column(n, flipped, quadcfg.nodes), jobs, quadcfg, labels,
                                f_check=self._column(n, flipped, quadcfg.nodes + 4))

    def _column(self, n, flipped, nodes):
        """The column integrand of ``_lower_masses`` over the transposed
        regions ``flipped``, whose rows are the regions' columns, ``nodes``
        Gauss nodes per panel; a node of job j reads region j."""
        d = 1.0 / n
        xi, wi = gl(nodes)

        def col(ss, deltas, origin, job):
            ss = np.atleast_1d(np.asarray(ss, dtype=float))
            sig = ss - d if origin is None else np.where(origin == d, deltas, ss - d)
            top = np.minimum(ss, 1.0 + d)
            lo, _, hi, _ = regions.row_sections_array(flipped, ss, job=job)
            lo, hi = np.maximum(lo, 0.0), np.minimum(hi, top)
            fs, fsig = self.profile(ss), self.profile(sig)
            flat = sig <= 0.0  # shifted copies fall outside: f(s) throughout
            low = ~flat & (sig < d)
            v = fs - fsig  # f(s) where flat, as f(sig) = 0 there
            below = np.minimum(hi, np.where(low, sig, d)) - lo
            beyond = hi - np.maximum(lo, 1.0)
            with np.errstate(over="ignore"):  # a branch np.where drops may overflow
                out = (np.where(below > 0.0, below * v * v, 0.0)
                       + np.where(beyond > 0.0, beyond * fsig * fsig, 0.0)).sum(axis=0)

            # top band for low columns, in offsets from 1/n; the last row holds
            # the columns where s rounded back to 1/n, each read at 1/n + sig
            collapsed = low & (top <= d)
            at = np.flatnonzero(collapsed)
            if at.size:
                a, a_off, b, b_off = regions.row_sections_array(
                    flipped, np.full(at.size, d), sig[at], job[at])
                inside = regions.before(a, a_off, d, 0.0) & regions.before(d, 0.0, b, b_off)
                collapsed[at] = inside.any(axis=0)
            above = np.maximum(lo, d)
            off_lo = np.vstack([above - d, np.zeros_like(ss)])
            off_hi = np.vstack([np.where(hi >= top, sig, hi - d), sig])
            tops = np.vstack([low & (hi > above), collapsed]) & (off_hi > off_lo)
            own = np.nonzero(tops)[1]
            w = (off_hi - off_lo)[tops]
            tq = d + (off_lo[tops][:, None] + 0.5 * w[:, None] * (1.0 + xi))
            vals = (fsig[own][:, None] - self.profile(tq)) ** 2
            out += np.bincount(own, 0.5 * w * np.sum(vals * wi, axis=1), minlength=ss.size)

            # pieces varying through f(t)
            vlo = np.maximum(lo, sig)
            vhi = np.minimum(hi, np.where(low, d, 1.0))
            vary = ~flat & (vhi > vlo)
            if np.any(vary):
                own = np.nonzero(vary)[1]
                vlo, vhi = vlo[vary], vhi[vary]
                amp = np.where(low, fs, fsig)[own]
                _, most = np.frexp(np.max(vhi / vlo))
                growth = 4.0 ** np.arange(min(32, int(most + 1) // 2 + 1), dtype=float)
                contrib = np.empty(own.size)
                for part in node_slices(own.size, growth.size * xi.size):
                    edges = np.minimum(vlo[part, None] * growth, vhi[part, None])
                    edges = np.concatenate([edges, vhi[part, None]], axis=1)
                    # panels past a piece's own vhi have zero width: skip them
                    live = edges[:, 1:] > edges[:, :-1]
                    row = np.nonzero(live)[0]
                    a, b = edges[:, :-1][live], edges[:, 1:][live]
                    x = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * xi
                    hv = (amp[part][row, None] - self.profile(x)) ** 2
                    panel = np.sum(0.5 * (b - a)[:, None] * wi * hv, axis=1)
                    contrib[part] = np.bincount(row, panel, minlength=edges.shape[0])
                out += np.bincount(own, contrib, minlength=ss.size)
            return out

        return col

    def window(self, eps):
        return Rect(0.0, eps, 0.0, eps)

    def kappa_range(self):
        """(0, alpha] for alpha < 1/2, else (0, (2 alpha + 1)/(2 alpha + 3)).

        The range depends on how fast the singularity spreads mass away from
        the concentration point; the two formulas meet at alpha = 1/2.
        """
        a = self.alpha
        if a < 0.5:
            return KappaRange(upper=a, upper_inclusive=True)
        return KappaRange(upper=(2.0 * a + 1.0) / (2.0 * a + 3.0))

    def catalog(self, n, eps):
        """The anatomy of the lower half {t < s}.

        A strip ``B1`` just above the s-axis, a diagonal band ``B2`` hugging
        t = s, the interior ``B3`` between them (where the four kernel copies
        cancel exactly), and the leftovers ``B4`` beyond s = 1, each band
        with its mirror image across t = s.
        """
        d = 1.0 / n
        lower_half = HalfPlane(-1.0, 1.0, 0.0)          # {t < s}
        below_diag = HalfPlane(-1.0, 1.0, -d)           # {t < s - 1/n}

        def mirrored(reg):
            return Union((reg, regions.transpose(reg)))

        return {
            "E": self.window(eps),
            "Etilde": Intersection((Rect(0.0, d, 0.0, d), lower_half)),
            "T": Intersection((Rect(0.0, 1.0 + d, 0.0, 1.0 + d), lower_half)),
            "B1": mirrored(Rect(eps, 1.0, 0.0, d)),
            "B2": mirrored(Intersection((Rect(eps, 1.0, 0.0, 1.0), band(0.0, d)))),
            "B3": mirrored(Intersection((Rect(eps, 1.0 + d, d, 1.0 + d), below_diag))),
            "B4": mirrored(Union((
                Rect(1.0, 1.0 + d, 0.0, d),
                Intersection((Rect(1.0, 1.0 + d, 0.0, 1.0 + d), band(0.0, d))),
            ))),
        }

    def _profile_antiderivative(self):
        """Stable increment y -> F(y + w) - F(y) of the antiderivative F = int f.

        Only polynomial slow factors sum_j c_j x^j admit one: the profile then
        integrates to the power sum sum_j c_j x^(j+1-alpha) / (j+1-alpha).
        Anything else raises ValueError; ``has_autocorrelation`` is False for
        it, so the exact routes never get here.
        """
        al, sc, name = self.alpha, self.scale, self.ell.name
        poly = _ELL_CATALOG[name][1]
        if poly is None:
            raise ValueError(
                f"exact covariance needs a closed-form antiderivative; slow factor "
                f"{name!r} has none (use the simulation route instead)"
            )
        coef = [(c, j + 1.0 - al) for j, c in enumerate(poly)]

        def fdiff(y, w):
            """F(y + w) - F(y) for y >= 0, zero where w <= 0.

            Formed per power term as y**e * expm1(e * log1p(w/y)), never as a
            difference of two antiderivative values: the graded quadrature feeds
            widths w down to ~1e-17 next to a pinch of the wedge, where
            F(y + w) - F(y) computed literally is pure rounding staircase.
            """
            y, w = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(w, dtype=float))
            live = w > 0.0
            at0 = np.flatnonzero(live & (y <= 0.0))
            w0 = w.ravel()[at0]  # F(w) - F(0) = sum_j c_j w^e / e there
            safe_y = np.where(y > 0.0, y, 1.0)
            grow = np.log1p(np.where(live, w, 0.0) / safe_y)
            out = np.zeros(y.shape, dtype=float)
            for c, e in coef:
                term = safe_y**e * np.expm1(e * grow)
                term.flat[at0] = w0**e
                out += (c / e) * term
            return sc * np.where(live, out, 0.0)

        return fdiff

    def autocorrelation(self, w1, w2, quadcfg):
        """Autocorrelation of the singular weight: int g(x) g(x + w) dx, w = (w1, w2).

        ``w1`` and ``w2`` broadcast against each other and the result has
        their shape; two scalars give a 0-d result.

        Splitting along the two max-diagonals x2 = x1 and x2 = x1 + (w1 - w2)
        leaves wedges where the integrand is constant in one coordinate or a
        separable product, so everything collapses to 1-D integrals of
        f(x)f(x+w)*linear and f(x)*(F-difference) with F the profile
        antiderivative.  Wedges a and b are the products, over the windows
        of x1 and x2; wedge c (w1 < w2) or d (w1 > w2) is the F-difference.

        Each wedge of each offset is one job over the part of its window
        where its integrand can be nonzero: x > base for a and b, where the
        clipped length is positive, and base < x < far for c and d, where
        the F-difference's width is.  Both ends are panel edges, so the clip
        keeps the bits; a wedge left empty gets no job.  The jobs go through
        two :func:`~ambitlab.quadrature.integrate_pieces` calls, one batch of
        the product wedges a and b and one of the F-difference wedges c and
        d, each with a straight-line integrand that reads its job's window
        ends, wedge and singular abscissas {0, -w1, -w2} per node by job
        index.  The integrands are pointwise, so a job's value does not
        depend on its batch.  An offset's value adds its wedges in the order
        a, b, c/d.  Offsets from the singular abscissas arrive exact from the
        graded layout.  A quadrature failure names the offset and the wedge:
        the first failing offset in order raises, its product wedges first.
        """
        w1, w2 = np.broadcast_arrays(np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))
        fdiff = self._profile_antiderivative()
        # per batch, products then F-differences: jobs, labels, offsets, parameters
        batches = ([], [], [], []), ([], [], [], [])
        for k, (x1, x2) in enumerate(zip(w1.ravel().tolist(), w2.ravel().tolist())):
            a1, b1 = max(0.0, -x1), min(1.0, 1.0 - x1)
            a2, b2 = max(0.0, -x2), min(1.0, 1.0 - x2)
            if b1 <= a1 or b2 <= a2:
                continue
            c = x1 - x2
            # (name, window, batch, (shift, base, cap[, far, floor])): see the integrands
            wedges = [("a", a1, b1, 0, (-x1, a2 - min(0.0, c), b2 - a2)),
                      ("b", a2, b2, 0, (-x2, a1 + max(0.0, c), b1 - a1))]
            if c < 0.0:
                wedges.append(("c", a1, b1, 1, (-x1, a2, min(-c, b2 - a2), b2 - c, a2 + x2)))
            elif c > 0.0:
                wedges.append(("d", a2, b2, 1, (-x2, a1, min(c, b1 - a1), b1 + c, a1 + x1)))
            brks = [a1, b1, a2, b2, a2 - c, b2 - c, a1 + c, b1 + c,
                    -x1, -x2, 1.0 - x1, 1.0 - x2, 0.0, 1.0]
            sing = [0.0, -x1, -x2]
            for name, lo, hi, batch, params in wedges:
                # nonzero only for x > base, and x < far on c and d
                pieces = _within(make_pieces(brks + sing, sing, lo, hi),
                                 [(params[1], params[3] if batch else math.inf)])
                if not pieces:
                    continue
                jobs, labels, owner, rows = batches[batch]
                jobs.append(pieces)
                labels.append(f"autocorrelation at w = ({x1!r}, {x2!r}), wedge {name}")
                owner.append(k)
                rows.append(params)

        # Every length/width below is a min over pairwise differences of the
        # window endpoints, each difference formed at its own best precision
        # (constants cancel symbolically, moving endpoints go through offs so a
        # graded origin keeps full relative accuracy).  Subtracting two clipped
        # endpoint values instead goes to rounding noise exactly where the
        # grading dives deepest.

        def offsets(x, delta, origin):
            """point -> x - point, exact where the layout grades toward point."""
            def offs(point):
                moved = x - point
                if origin is not None:
                    np.copyto(moved, delta, where=origin == point)
                return moved
            return offs

        def products(shift, base, cap):
            # a, b: f(x) f(x + shift) times the clipped length of the other window
            def integrand(x, delta, origin, job):
                offs = offsets(x, delta, origin)
                return (self.profile(offs(0.0)) * self.profile(offs(shift[job]))
                        * np.clip(offs(base[job]), 0.0, cap[job]))
            return integrand

        def differences(shift, base, cap, far, floor):
            # c, d: f(x) times F over the other window from its moving floor
            def integrand(x, delta, origin, job):
                offs = offsets(x, delta, origin)
                width = np.minimum(cap[job], np.minimum(offs(base[job]), -offs(far[job])))
                low = np.maximum(offs(shift[job]), floor[job])
                return self.profile(offs(0.0)) * fdiff(low, width)
            return integrand

        total, failures = [0.0] * w1.size, {}  # offset -> its first failure
        for make, (jobs, labels, owner, rows) in zip((products, differences), batches):
            if jobs:
                try:
                    values = integrate_pieces(make(*(np.array(col) for col in zip(*rows))),
                                              jobs, quadcfg, labels)
                except QuadratureError as exc:
                    failures.setdefault(owner[exc.job], exc)
                    continue
                for k, value in zip(owner, values.tolist()):
                    total[k] += value
        if failures:
            raise failures[min(failures)]
        return np.array(total).reshape(w1.shape)[()]

    def lattice_autocorrelation(self, n, quadcfg, offsets):
        """Autocorrelation at each lattice offset (i/n, j/n), one row (i, j) of ``offsets``.

        G2(w) = G2(-w) and G2 is swap-symmetric, so each offset maps to the
        canonical key (smaller magnitude, larger magnitude, same-sign flag).
        Each distinct key is integrated once, all of them in one
        ``autocorrelation`` call.
        """
        d = 1.0 / n
        i, j = np.asarray(offsets).T
        same = (i == 0) | (j == 0) | ((i > 0) == (j > 0))
        keys = np.stack([np.minimum(abs(i), abs(j)), np.maximum(abs(i), abs(j)), same])
        keys, inverse = np.unique(keys, axis=1, return_inverse=True)
        w2 = np.where(keys[2] == 1, keys[1] * d, -keys[1] * d)
        return self.autocorrelation(keys[0] * d, w2, quadcfg)[inverse.ravel()]


@dataclass(frozen=True)
class TriangleWeight(_ProfileWeight):
    """g(s,t) = t^(-alpha) ell(t) on the cone {(1-t)/2 < s < (1+t)/2}, alpha in (1/2,1)."""

    variant = "triangle"
    concentration_point = (0.5, 0.0)

    def __post_init__(self):
        if not 0.5 < self.alpha < 1.0:
            raise ValueError(f"cone exponent must lie in (1/2,1), got {self.alpha}")
        self._check_scale()

    def evaluate(self, s, t):
        """The profile at t inside the open cone, called there alone."""
        cone = np.abs(2.0 * s - 1.0) < t
        out = np.zeros(cone.shape)
        out[cone] = self.profile(np.broadcast_to(t, cone.shape)[cone])
        return out

    def _rows(self, n, parts):
        """The row integral of h_n^2 at each height t, over region j of
        ``parts`` for a node of job j.

        For fixed t the differenced kernel is piecewise constant in s: a signed
        combination of the cone cross-section I(t), its 1/n-shift, and the same
        pair one lattice row down.  In the centered coordinate y = 2s - 1 the
        eight ends of those cross-sections sit at base + coeff*u, where u is
        the exact offset of t from the active singular height (0 or 1/n) and
        base a multiple of 1/n; keeping u apart keeps piece lengths of order u
        exact however deep the outer grading goes.  The region's section ends
        come the same way, as a base and an exact offset from the graded
        height (``regions.row_sections_array``), so a region cut through the
        apex, where the cone is far narrower than the rounding of 1/2, keeps
        its width too.  A plain height, given outright, has no exact offset
        to keep: each of its ends is one float, base + coeff*u rounded once,
        as its region ends are.  Each row section is cut at the kernel ends
        strictly inside it, all ends sorted by position (ties by offset), and
        each piece's value read off at its midpoint, kept as a base and an
        offset: all nodes and sections in one array pass.
        """
        d = 1.0 / n
        coeff = np.array([-1.0, 1.0] * 4)
        # t = d + u: (-t, t), (2d - t, 2d + t), and one row down (-tau, tau),
        # (2d - tau, 2d + tau) with tau = u
        above = np.array([-d, d, d, 3.0 * d, 0.0, 0.0, 2.0 * d, 2.0 * d])
        # t = u < 1/n: tau < 0, so the lower pair is empty and never cuts
        below = np.array([0.0, 0.0, 2.0 * d, 2.0 * d, 0.0, 0.0, 2.0 * d, 2.0 * d])
        before = regions.before
        clip = (HalfPlane(-1.0, 0.0, 0.0), HalfPlane(1.0, 0.0, 1.0 + d))  # 0 < s < 1 + 1/n
        strips = [Intersection((region, *clip)) for region in parts]

        def rows(ts, deltas, origin, job):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            if origin is None:
                us, zero = ts - d, np.zeros(ts.size, dtype=bool)
                heights, offsets = ts, 0.0
            else:
                # graded toward 0: u == t, exact near zero; toward d: u == t - d
                zero = origin == 0.0
                us = np.where(zero | (origin == d), deltas, ts - d)
                heights, offsets = origin, deltas
            ft, ftau = self.profile(ts), self.profile(np.where(zero, ts - d, us))
            # the nonempty slices, flat: rows in order and each row's ascending
            ends = [x.T for x in regions.row_sections_array(strips, heights, offsets, job)]
            keep = before(*ends)
            row, a, a_off, b, b_off = np.nonzero(keep)[0], *(x[keep] for x in ends)
            ft, ftau = ft[row, None], ftau[row, None]

            ya, yb = 2.0 * a[:, None] - 1.0, 2.0 * b[:, None] - 1.0
            ya_off, yb_off = 2.0 * a_off[:, None], 2.0 * b_off[:, None]
            base, off = np.where(zero[row, None], below, above), coeff * us[row, None]
            if origin is None:  # no exact offset to keep: each end is one float
                base, off = base + off, np.zeros_like(off)
            cut = before(ya, ya_off, base, off) & before(base, off, yb, yb_off)
            cut[:, 4:] &= ftau != 0.0  # a zero lower pair changes no piece's value
            cb = np.concatenate([ya, np.where(cut, base, ya), yb], axis=1)
            co = np.concatenate([ya_off, np.where(cut, off, ya_off), yb_off], axis=1)
            order = np.lexsort((co, cb + co), axis=1)
            cb, co = np.take_along_axis(cb, order, 1), np.take_along_axis(co, order, 1)
            length = (cb[:, 1:] - cb[:, :-1]) + (co[:, 1:] - co[:, :-1])
            m0, m1 = 0.5 * (cb[:, :-1] + cb[:, 1:]), 0.5 * (co[:, :-1] + co[:, 1:])
            inside = [(before(base[:, [k]], off[:, [k]], m0, m1)
                       & before(m0, m1, base[:, [k + 1]], off[:, [k + 1]])).astype(float)
                      for k in range(0, 8, 2)]
            v = ft * (inside[0] - inside[1]) - ftau * (inside[2] - inside[3])
            pieces = np.where(length > 0.0, length * v * v, 0.0)
            owner = np.repeat(row, length.shape[1])
            return 0.5 * np.bincount(owner, weights=pieces.ravel(), minlength=ts.size)  # ds = dy / 2

        return rows

    def masses(self, n, parts, quadcfg):
        """Integral of h_n^2 over each region of ``parts`` for the cone kernel,
        one job each: an outer t-integral of the exact row integrals of
        ``_rows``, all of them in one engine call."""
        d = 1.0 / n
        # cone edges 2s -+ t = 1 of all four shifted kernel copies
        struct = [(2.0, -1.0, v) for v in (1.0, 1.0 + 2.0 * d, 1.0 - d, 1.0 + d)]
        struct += [(2.0, 1.0, v) for v in (1.0, 1.0 + 2.0 * d, 1.0 + d, 1.0 + 3.0 * d)]
        # opposite-family cone edges cross each other at multiples of d/2;
        # rows kink there even without a region cut, and no panel edge of
        # the ratio-4 grading from 0 or d falls on those heights
        fixed = [0.0, 0.5 * d, d, 1.5 * d, 2.0 * d, 2.5 * d, 3.0 * d, 1.0, 1.0 + d]
        jobs = _outer_jobs(n, fixed, parts, struct, [0.0, d])
        return integrate_pieces(self._rows(n, parts), jobs, quadcfg,
                                [f"triangle mass at n={n}"] * len(parts))

    def window(self, eps):
        return Rect(0.5 - 0.5 * eps, 0.5 + 0.5 * eps, 0.0, 0.5 * eps)

    def kappa_range(self):
        """(0, (2 alpha - 1)/(2 alpha + 1)), open."""
        a = self.alpha
        return KappaRange(upper=(2.0 * a - 1.0) / (2.0 * a + 1.0))

    def catalog(self, n, eps):
        """The edge anatomy of the differenced cone.

        At each height the four shifted copies cut six slanted slivers of
        width (1/n)/2 into the two cone edges -- the fresh edge pair ``B1``,
        the differenced pair ``B2``, the stale pair ``B3`` -- plus the top
        band ``B4`` above height 1.  This anatomy needs the cone at the
        window edge to be wider than the sliver stack, i.e. eps/2 >= 2/n.
        """
        d = 1.0 / n
        if 0.5 * eps < 2.0 * d:
            raise ValueError(
                f"cone cross-section at the window edge (height {0.5 * eps:g}) "
                f"is narrower than the differenced edge bands (depth {2.0 * d:g}); "
                "increase n or lower kappa"
            )
        heights = Rect(0.0, 2.0, 0.5 * eps, 1.0)
        cone = Intersection((HalfPlane(-2.0, -1.0, -1.0), HalfPlane(2.0, -1.0, 1.0)))
        return {
            "E": self.window(eps),
            "Etilde": Intersection((cone, Rect(0.0, 1.0, 0.0, d))),
            # left slivers indexed by 2s+t-1, right slivers by 2s-t-1
            "B1": Intersection((heights, Union((
                _slant_band(1.0, 0.0, d), _slant_band(-1.0, d, 2.0 * d))))),
            "B2": Intersection((heights, Union((
                _slant_band(1.0, d, 2.0 * d), _slant_band(-1.0, 0.0, d))))),
            "B3": Intersection((heights, Union((
                _slant_band(1.0, 2.0 * d, 3.0 * d), _slant_band(-1.0, -d, 0.0))))),
            "B4": Intersection((Rect(0.0, 2.0, 1.0, 1.0 + d), Union((
                _slant_band(1.0, d, 3.0 * d), _slant_band(-1.0, -d, d))))),
        }


def _slant_band(b, lo, hi):
    """{lo < 2*s + b*t - 1 < hi}: a band along one edge of the cone."""
    return Intersection((
        HalfPlane(-2.0, -b, -(1.0 + lo)),
        HalfPlane(2.0, b, 1.0 + hi),
    ))


VARIANTS = {cls.variant: cls for cls in (UniformWeight, SingularWeight, TriangleWeight)}


def require_weight(spec):
    """Return ``spec`` if it is a weight variant; raise TypeError otherwise."""
    if not isinstance(spec, WeightSpec):
        raise TypeError(f"not a weight spec: {spec!r}")
    return spec


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def eval_g(spec, s, t):
    """Weight kernel value(s) at (s, t); zero outside the support.

    Points where the kernel diverges (the singular corner of the Singular
    variant) return +inf -- the value is flagged rather than clamped, and no
    quadrature rule in this module ever places a node there.
    """
    require_weight(spec)
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    t = np.atleast_1d(t)
    out = spec.evaluate(s, t)
    return float(out[0]) if scalar else out


def thinning_count(n, kappa):
    """Realized thinning k_n = ceil(n^(1-kappa))."""
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"thinning exponent must lie in (0,1), got {kappa}")
    if n < 1:
        raise ValueError(f"lattice resolution must be >= 1, got {n}")
    return int(math.ceil(n ** (1.0 - kappa) - 1e-12))


# ---------------------------------------------------------------------------
# squared-kernel masses
# ---------------------------------------------------------------------------

_DEFAULT_QUAD = QuadratureConfig()


_MASSES = {}  # (spec, n, region, quadcfg) -> mass, oldest first
_MASSES_KEPT = 4096


def mu_masses(spec, n, parts, quadcfg=None):
    """mu_n of each region of ``parts`` (None is the whole plane), as an array.

    The regions not in the mass cache go to the variant's ``masses`` as one
    batch: one engine call, with a job per region, or per half of a singular
    one.  The integrands are pointwise, so each mass equals its one-region
    value bit for bit.  Every mass is cached by (spec, n, region, quadcfg),
    so a region asked for again is not integrated again;
    ``mu_masses.cache_clear()`` empties the cache.  A failed batch raises the
    error of the first failing region in ``parts``, as that region raises it
    alone, with ``job`` the region's first position in ``parts``.
    """
    if n < 2:
        raise ValueError(f"lattice resolution must be >= 2 for mass integrals, got {n}")
    quadcfg = quadcfg or _DEFAULT_QUAD
    require_weight(spec)
    keys = [(spec, n, Everything() if region is None else region, quadcfg) for region in parts]
    found = {key: _MASSES[key] for key in keys if key in _MASSES}
    todo = [key for key in dict.fromkeys(keys) if key not in found]
    if todo:
        try:
            for key, value in zip(todo, spec.masses(n, [key[2] for key in todo], quadcfg).tolist()):
                found[key] = _MASSES[key] = value
        except QuadratureError as exc:
            exc.job = keys.index(todo[exc.job])
            raise
        while len(_MASSES) > _MASSES_KEPT:
            del _MASSES[next(iter(_MASSES))]
    return np.array([found[key] for key in keys])


mu_masses.cache_clear = _MASSES.clear  # as an ``lru_cache``'s


def mu_mass(spec, n, region=None, quadcfg=None):
    """mu_n(region) = integral of h_n^2 over the region (whole plane if None).

    The batch of one of :func:`mu_masses`, cached as every mass is.
    """
    return mu_masses(spec, n, (region,), quadcfg)[0]


def compute_cn(spec, n, quadcfg=None):
    """Squared mass c_n = integral of h_n^2, the whole plane's ``mu_mass``."""
    return mu_mass(spec, n, None, quadcfg)


def concentration_mass(spec, n, region, quadcfg=None):
    """pi_n(region) = mu_n(region) / c_n."""
    return mu_mass(spec, n, region, quadcfg) / compute_cn(spec, n, quadcfg)


# ---------------------------------------------------------------------------
# concentration geometry
# ---------------------------------------------------------------------------

def near_region(spec, eps):
    """The shrinking neighborhood E carrying the concentration mass."""
    if eps <= 0.0:
        raise ValueError(f"neighborhood size must be positive, got {eps}")
    return require_weight(spec).window(eps)
