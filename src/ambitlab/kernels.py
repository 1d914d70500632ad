r"""Weight kernels, differenced kernels, and their concentration measures.

A weight kernel g lives on a bounded support inside the unit square.  The
lattice at resolution n differences it across one cell in each direction:

.. math:: h_n(s,t) = g(s,t) - g(s-1/n,\,t) - g(s,\,t-1/n) + g(s-1/n,\,t-1/n),

supported in [0, 1+1/n]^2.  The squared mass c_n = \int h_n^2 normalizes the
concentration measure pi_n = h_n^2 / c_n, whose localization as n grows is
what the limit theory runs on.

Variants
--------
``UniformWeight``   indicator of a rectangle; h_n is a separable product of
                    signed strips, so c_n = 4 w_s w_t with w the smaller of
                    1/n and the side: 4/n^2 once both sides are >= 1/n.
``SingularWeight``  g(s,t) = (s \vee t)^{-alpha} ell(s \vee t) on the unit
                    square, algebraically singular along the axes' corner.
``TriangleWeight``  g(s,t) = t^{-alpha} ell(t) on the cone
                    {(1-t)/2 < s < (1+t)/2}, singular at the apex (1/2, 0).

Each variant's facts live on its class; the module-level functions and the
other modules only read them.  The class holds the config name ``variant``
(the registry key), ``evaluate`` and the mass reduction ``mass``, the
concentration geometry (``concentration_point``, ``window``,
``corner_cells``, ``limit_atoms``), the admissible ``kappa_range``, the
region ``catalog``, the exact routes (``signed_strips`` where
``has_strips``, ``lattice_autocorrelation`` where ``has_autocorrelation``)
and the config keys (``config_keys``, ``config_names``, ``from_config``).
``WeightSpec`` holds the defaults for the facts a variant lacks: its ``window``
and ``catalog`` refuse a kernel without a single concentration point.

Integration strategy: never brute-force 2-D quadrature.  Rows of the Uniform
and Triangle kernels are piecewise constant in s for fixed t, so masses reduce
to an outer 1-D integral of exact row integrals.  The Singular kernel is
symmetric, h(s,t) = h(t,s), and below the diagonal its only t-dependence sits
in a single band, so masses reduce to column integrals over the lower
triangle.  Outer integrals go through the batched engine of
:mod:`ambitlab.quadrature` (graded Gauss-Legendre layouts toward algebraic
singularities, adaptive bisection elsewhere, two resolutions); a failed check
raises :class:`~ambitlab.errors.QuadratureError` naming the integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

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
    "SlowFunction",
    "WeightSpec",
    "UniformWeight",
    "SingularWeight",
    "TriangleWeight",
    "KappaRange",
    "require_weight",
    "eval_g",
    "eval_h",
    "compute_cn",
    "mu_mass",
    "concentration_mass",
    "near_region",
    "thinning_count",
    "weight_to_config",
    "weight_from_config",
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

    Every variant also defines ``evaluate``, ``mass``, ``kappa_range``,
    ``limit_atoms``, ``config_keys`` and ``from_config``; ``window`` and
    ``catalog`` refuse one without a single concentration point.
    """

    variant = None               # config name and registry key
    concentration_point = None   # single limit point of pi_n, if any
    has_strips = False           # signed_strips() exists
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

    def config_names(self):
        """Every ``weight.*`` key ``from_config`` reads for this variant."""
        return {"weight.variant", "weight.scale", *self.config_keys()}


def _row_sections(region, ts, top):
    """The nonempty slices of ``region`` at heights ``ts``, clipped to (0, top).

    Returns flat arrays ``(row, lo, hi)``, one entry per slice: rows in
    order and each row's slices ascending, the order a per-row loop visits.
    """
    lo, hi = regions.row_sections_array(region, ts)
    lo, hi = np.maximum(lo.T, 0.0), np.minimum(hi.T, top)
    keep = hi > lo
    return np.nonzero(keep)[0], lo[keep], hi[keep]


@dataclass(frozen=True)
class _ProfileWeight(WeightSpec):
    """The variants built on the profile r^(-alpha) ell(r): singular and cone."""

    alpha: float
    ell: SlowFunction = field(default_factory=SlowFunction)
    scale: float = 1.0

    def profile(self, r):
        """The radial/height profile r^(-alpha) ell(r) on (0,1), zero elsewhere.

        Zero at r = 0 too, where the profile diverges; accepts scalars or arrays.
        """
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r > 0.0) & (r < 1.0)
        ri = r[inside]
        out[inside] = self.scale * ri ** (-self.alpha) * self.ell(ri)
        return out if out.ndim else float(out)

    def limit_atoms(self):
        """A unit point mass at the concentration point."""
        return ((1.0, self.concentration_point),)

    def config_keys(self):
        return {"weight.alpha": repr(self.alpha), "weight.ell": self.ell.name}

    @classmethod
    def from_config(cls, mapping, scale):
        if "weight.alpha" not in mapping:
            raise ValueError(f"missing key weight.alpha for the {cls.variant} variant")
        ell = SlowFunction(mapping.get("weight.ell", "one_minus_s"))
        return cls(alpha=float(mapping["weight.alpha"]), ell=ell, scale=scale)


@dataclass(frozen=True)
class UniformWeight(WeightSpec):
    """Indicator of the rectangle [s1, s2] x [t1, t2], optionally scaled."""

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
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def evaluate(self, s, t):
        return np.where(
            (self.s1 <= s) & (s <= self.s2) & (self.t1 <= t) & (t <= self.t2),
            self.scale,
            0.0,
        )

    def mass(self, n, region, quadcfg):
        """Integral of h_n^2 over a region: an outer t-integral of exact row integrals.

        Each row of h_n is constant in s between the sorted breakpoints s1,
        s1 + 1/n, s2, s2 + 1/n.  Every row section is cut at those breakpoints
        and each nonempty piece integrated exactly by the one-node Gauss rule,
        the midpoint rule.  The outer t-integral is adaptive.
        """
        d = 1.0 / n
        sbreaks = np.sort(np.array([self.s1, self.s1 + d, self.s2, self.s2 + d]))
        xi, wi = gl(1)

        def rows(ts, deltas, origin, job):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            row, a, b = _row_sections(region, ts, 1.0 + d)
            a, b = a[:, None], b[:, None]
            cuts = np.concatenate([a, np.clip(sbreaks, a, b), b], axis=1)
            lo, hi = cuts[:, :-1], cuts[:, 1:]
            keep = hi > lo
            lo, hi, row = lo[keep], hi[keep], np.broadcast_to(row[:, None], keep.shape)[keep]
            x = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * xi
            vals = eval_h(self, n, x.ravel(), ts[row]) ** 2
            contrib = 0.5 * (hi - lo) * (vals.reshape(x.shape) @ wi)
            return np.bincount(row, weights=contrib, minlength=ts.size)

        struct = [(1.0, 0.0, float(sv)) for sv in sbreaks]
        edges = [self.t1, self.t1 + d, self.t2, self.t2 + d] + regions.t_breakpoints(region)
        edges += crossing_edges(region, struct, axis=1)
        pieces = make_pieces(edges, [], 0.0, 1.0 + d)
        return integrate_pieces(rows, [pieces], quadcfg, [f"uniform mass at n={n}"])[0]

    def corner_cells(self, n):
        """The four corner cells carrying the concentration mass."""
        d = 1.0 / n
        return {
            "corner_11": Rect(self.s1, self.s1 + d, self.t1, self.t1 + d),
            "corner_21": Rect(self.s2, self.s2 + d, self.t1, self.t1 + d),
            "corner_12": Rect(self.s1, self.s1 + d, self.t2, self.t2 + d),
            "corner_22": Rect(self.s2, self.s2 + d, self.t2, self.t2 + d),
        }

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
        """Signed u- and v-intervals carrying the difference factors, per index.

        The one-axis difference 1[s1,s2](x) - 1[s1,s2](x-d) is +1 on
        [s1, s1+w) and -1 on [s2+d-w, s2+d) with w = min(d, s2-s1); in the u
        variable (u = lattice coordinate minus x) both flip and translate.
        ``idx`` is a (N, 2) array of lattice indices (i, j).  Returns
        ``((u_plus, 1.0), (u_minus, -1.0), (v_plus, 1.0), (v_minus, -1.0))``
        where each strip is a pair ``(lo, hi)`` of length-N arrays: element
        a is the strip of index ``idx[a]``.
        """
        d = 1.0 / n
        wid_s = min(d, self.s2 - self.s1)
        wid_t = min(d, self.t2 - self.t1)
        ei = eps * idx[:, 0]
        ej = eps * idx[:, 1]
        u_plus = (ei - self.s1 - wid_s, ei - self.s1)
        u_minus = (ei - self.s2 - d, ei - self.s2 - d + wid_s)
        v_plus = (ej - self.t1 - wid_t, ej - self.t1)
        v_minus = (ej - self.t2 - d, ej - self.t2 - d + wid_t)
        return (u_plus, 1.0), (u_minus, -1.0), (v_plus, 1.0), (v_minus, -1.0)

    def config_keys(self):
        return {
            "weight.s1": repr(self.s1),
            "weight.s2": repr(self.s2),
            "weight.t1": repr(self.t1),
            "weight.t2": repr(self.t2),
        }

    @classmethod
    def from_config(cls, mapping, scale):
        return cls(
            s1=float(mapping.get("weight.s1", 0.25)),
            s2=float(mapping.get("weight.s2", 0.75)),
            t1=float(mapping.get("weight.t1", 0.25)),
            t2=float(mapping.get("weight.t2", 0.75)),
            scale=scale,
        )


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
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def evaluate(self, s, t):
        r = np.maximum(s, t)
        quadrant = (s >= 0.0) & (t >= 0.0)
        out = np.where(quadrant, self.profile(r), 0.0)
        out[quadrant & (r == 0.0)] = np.inf
        return out

    def mass(self, n, region, quadcfg):
        """The lower half's mass plus the upper half's, the lower half of the
        transposed region; a transpose-invariant region's halves are the same
        integral, done once.  A quadrature failure names its half."""
        halves = [("lower half {t < s}", region)]
        if not regions.transpose_invariant(region):
            halves.append(("upper half {t > s}", regions.transpose(region)))
        masses = []
        for name, part in halves:
            try:
                masses.append(self._mass_lower(n, part, quadcfg))
            except QuadratureError as exc:
                raise QuadratureError(f"{name}: {exc}", estimate=exc.estimate) from exc
        return masses[0] + masses[-1]

    def _mass_lower(self, n, region, quadcfg):
        """Integral of h_n^2 over region intersected with the lower triangle {t < s}.

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
        integral over s calls the column integrand (``_column``) on all its
        nodes at once.  The columns' t-sections come from
        ``row_sections_array`` as segments of shape (pieces, nodes), clipped
        to (0, min(s, 1 + 1/n)), and split against the table's cuts by
        clipping: constant pieces sum in closed form; pieces varying through
        f(t) join one batch of panels doubling geometrically in absolute t
        from their lower end (as many doublings as the batch's largest hi/lo
        needs, at most 64), so the per-panel relative variation stays bounded
        however close that end sits to the origin.

        Exact offsets: where the layout grades toward 1/n, sig is its offset,
        never s - 1/n.  For 0 < sig < 1/n the top band (1/n, s), where f is
        smooth, is one Gauss panel per segment in offsets from 1/n (exact by
        Sterbenz), of true width sig even where s rounds back to 1/n; such a
        column counts the band when (s, 1/n) lies in the region.
        """
        d = 1.0 / n
        # inner formula changes on t in {0, 1/n, 1} and on the moving cuts
        # t = s and t = s - 1/n
        struct = [(0.0, 1.0, 0.0), (0.0, 1.0, d), (0.0, 1.0, 1.0),
                  (1.0, -1.0, 0.0), (1.0, -1.0, d)]
        edges = [0.0, d, 2.0 * d, 1.0, 1.0 + d] + regions.t_breakpoints(regions.transpose(region))
        edges += crossing_edges(region, struct, axis=0)
        pieces = make_pieces(edges, [0.0, d], 0.0, 1.0 + d)
        return integrate_pieces(self._column(n, region, quadcfg.nodes), [pieces], quadcfg,
                                [f"singular mass at n={n}"],
                                f_check=self._column(n, region, quadcfg.nodes + 4))[0]

    def _column(self, n, region, nodes):
        """The column integrand of ``_mass_lower``, ``nodes`` Gauss nodes per panel."""
        d = 1.0 / n
        xi, wi = gl(nodes)
        flipped = regions.transpose(region)  # its rows are the region's columns

        def col(ss, deltas, origin, job=None):
            ss = np.atleast_1d(np.asarray(ss, dtype=float))
            sig = ss - d if origin is None else np.where(origin == d, deltas, ss - d)
            top = np.minimum(ss, 1.0 + d)
            lo, hi = regions.row_sections_array(flipped, ss)
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
            # the columns where s rounded back to 1/n
            collapsed = low & (top <= d)
            collapsed[collapsed] = regions.contains(region, ss[collapsed], d)
            above = np.maximum(lo, d)
            off_lo = np.vstack([above - d, np.zeros_like(ss)])
            off_hi = np.vstack([np.where(hi >= top, sig, hi - d), sig])
            tops = np.vstack([low & (hi > above), collapsed]) & (off_hi > off_lo)
            own = np.nonzero(tops)[1]
            w = (off_hi - off_lo)[tops]
            tq = d + (off_lo[tops][:, None] + 0.5 * w[:, None] * (1.0 + xi))
            vals = (fsig[own][:, None] - self.profile(tq)) ** 2
            out += np.bincount(own, 0.5 * w * (vals @ wi), minlength=ss.size)

            # pieces varying through f(t)
            vlo = np.maximum(lo, sig)
            vhi = np.minimum(hi, np.where(low, d, 1.0))
            vary = ~flat & (vhi > vlo)
            if np.any(vary):
                own = np.nonzero(vary)[1]
                vlo, vhi = vlo[vary], vhi[vary]
                amp = np.where(low, fs, fsig)[own]
                _, most = np.frexp(np.max(vhi / vlo))
                growth = 2.0 ** np.arange(min(64, int(most) + 1), dtype=float)
                contrib = np.empty(own.size)
                for part in node_slices(own.size, growth.size * xi.size):
                    edges = np.minimum(vlo[part, None] * growth, vhi[part, None])
                    edges = np.concatenate([edges, vhi[part, None]], axis=1)
                    a, b = edges[:, :-1], edges[:, 1:]
                    x = 0.5 * (a + b)[:, :, None] + 0.5 * (b - a)[:, :, None] * xi
                    hv = (amp[part, None, None] - self.profile(x.ravel()).reshape(x.shape)) ** 2
                    contrib[part] = np.sum(0.5 * (b - a)[:, :, None] * wi * hv, axis=(1, 2))
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
            y = np.asarray(y, dtype=float)
            w = np.asarray(w, dtype=float)
            live = w > 0.0
            at0 = live & (y <= 0.0)
            safe_y = np.where(y > 0.0, y, 1.0)
            safe_w = np.where(live, w, 1.0)
            grow = np.log1p(np.where(live, w, 0.0) / safe_y)
            out = np.zeros(np.broadcast(y, w).shape, dtype=float)
            for c, e in coef:
                term = np.where(at0, safe_w**e, safe_y**e * np.expm1(e * grow))
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

        Each wedge of each offset is one job, and all of them go through one
        :func:`~ambitlab.quadrature.integrate_pieces` call: a job's window
        ends, wedge and singular abscissas {0, -w1, -w2} are read per node
        from its job index.  An offset's value adds its wedges in the order
        a, b, c/d.  Offsets from the singular abscissas arrive exact from the
        graded layout.  A quadrature failure names the offset and the wedge.
        """
        w1, w2 = np.broadcast_arrays(np.asarray(w1, dtype=float), np.asarray(w2, dtype=float))
        fdiff = self._profile_antiderivative()
        jobs, labels, owner, params = [], [], [], []
        for k, (x1, x2) in enumerate(zip(w1.ravel().tolist(), w2.ravel().tolist())):
            a1, b1 = max(0.0, -x1), min(1.0, 1.0 - x1)
            a2, b2 = max(0.0, -x2), min(1.0, 1.0 - x2)
            if b1 <= a1 or b2 <= a2:
                continue
            c = x1 - x2
            # (name, window, product?, shift, base, cap, far, floor): see the integrand
            wedges = [("a", a1, b1, True, -x1, a2 - min(0.0, c), b2 - a2, 0.0, 0.0),
                      ("b", a2, b2, True, -x2, a1 + max(0.0, c), b1 - a1, 0.0, 0.0)]
            if c < 0.0:
                wedges.append(("c", a1, b1, False, -x1, a2, min(-c, b2 - a2), b2 - c, a2 + x2))
            elif c > 0.0:
                wedges.append(("d", a2, b2, False, -x2, a1, min(c, b1 - a1), b1 + c, a1 + x1))
            brks = [a1, b1, a2, b2, a2 - c, b2 - c, a1 + c, b1 + c,
                    -x1, -x2, 1.0 - x1, 1.0 - x2, 0.0, 1.0]
            sing = [0.0, -x1, -x2]
            for name, lo, hi, *rest in wedges:
                jobs.append(make_pieces(brks + sing, sing, lo, hi))
                labels.append(f"autocorrelation at w = ({x1!r}, {x2!r}), wedge {name}")
                owner.append(k)
                params.append(rest)
        if not jobs:
            return np.zeros(w1.shape)[()]
        product, shift, base, cap, far, floor = (np.array(col) for col in zip(*params))

        # Every length/width below is a min over pairwise differences of the
        # window endpoints, each difference formed at its own best precision
        # (constants cancel symbolically, moving endpoints go through offs so a
        # graded origin keeps full relative accuracy).  Subtracting two clipped
        # endpoint values instead goes to rounding noise exactly where the
        # grading dives deepest.

        def integrand(x, delta, origin, job):
            def offs(at, point):
                """x - point at the nodes ``at``, exact where the layout grades toward point."""
                moved = x[at] - point
                return moved if origin is None else np.where(origin[at] == point, delta[at], moved)

            out = self.profile(offs(slice(None), 0.0))  # f(x)
            # a, b: f(x) f(x + shift) times the clipped length of the other window
            at = np.flatnonzero(product[job])
            j = job[at]
            out[at] = (out[at] * self.profile(offs(at, shift[j]))
                       * np.clip(offs(at, base[j]), 0.0, cap[j]))
            # c, d: f(x) times F over the other window from its moving floor
            at = np.flatnonzero(~product[job])
            j = job[at]
            width = np.minimum(cap[j], np.minimum(offs(at, base[j]), -offs(at, far[j])))
            low = np.maximum(offs(at, shift[j]), floor[j])
            out[at] = out[at] * fdiff(low, width)
            return out

        total = [0.0] * w1.size
        for k, value in zip(owner, integrate_pieces(integrand, jobs, quadcfg, labels).tolist()):
            total[k] += value
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
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def evaluate(self, s, t):
        return np.where(np.abs(2.0 * s - 1.0) < t, self.profile(t), 0.0)

    def _rows(self, n, region):
        """The row integral of h_n^2 over ``region`` at each height t.

        For fixed t the differenced kernel is piecewise constant in s: a signed
        combination of the cone cross-section I(t), its 1/n-shift, and the same
        pair one lattice row down.  In the centered coordinate y = 2s - 1 the
        eight ends of those cross-sections sit at base + coeff*u, where u is
        the exact offset of t from the active singular height (0 or 1/n) and
        base a multiple of 1/n; keeping u apart keeps piece lengths of order u
        exact however deep the outer grading goes.  Each row section is cut at
        the ends strictly inside it, the cuts sorted by position (ties by
        coeff*u), and each piece's value read off at its symbolic midpoint:
        all nodes and sections in one array pass.
        """
        d = 1.0 / n
        coeff = np.array([-1.0, 1.0] * 4)
        # t = d + u: (-t, t), (2d - t, 2d + t), and one row down (-tau, tau),
        # (2d - tau, 2d + tau) with tau = u
        above = np.array([-d, d, d, 3.0 * d, 0.0, 0.0, 2.0 * d, 2.0 * d])
        # t = u < 1/n: tau < 0, so the lower pair is empty and never cuts
        below = np.array([0.0, 0.0, 2.0 * d, 2.0 * d, 0.0, 0.0, 2.0 * d, 2.0 * d])

        def rows(ts, deltas, origin, job):
            ts = np.atleast_1d(np.asarray(ts, dtype=float))
            if origin is None:
                us, zero = ts - d, np.zeros(ts.size, dtype=bool)
            else:
                # graded toward 0: u == t, exact near zero; toward d: u == t - d
                zero = origin == 0.0
                us = np.where(zero | (origin == d), deltas, ts - d)
            ft, ftau = self.profile(ts), self.profile(np.where(zero, ts - d, us))
            row, a, b = _row_sections(region, ts, 1.0 + d)
            u, ft, ftau = us[row, None], ft[row, None], ftau[row, None]

            def before(x0, x1, y0, y1):
                # is x0 + x1*u strictly left of y0 + y1*u?
                return np.where(x0 == y0, (x1 - y1) * u < 0.0, x0 + x1 * u < y0 + y1 * u)

            ya, yb = 2.0 * a[:, None] - 1.0, 2.0 * b[:, None] - 1.0
            base = np.where(zero[row, None], below, above)
            cut = before(ya, 0.0, base, coeff) & before(base, coeff, yb, 0.0)
            cut[:, 4:] &= ftau != 0.0  # a zero lower pair changes no piece's value
            fixed = np.zeros_like(ya)  # the section ends do not move with u
            cb = np.concatenate([ya, np.where(cut, base, ya), yb], axis=1)
            cc = np.concatenate([fixed, np.where(cut, coeff, 0.0), fixed], axis=1)
            order = np.lexsort((cc * u, cb + cc * u), axis=1)
            cb, cc = np.take_along_axis(cb, order, 1), np.take_along_axis(cc, order, 1)
            length = (cb[:, 1:] - cb[:, :-1]) + (cc[:, 1:] - cc[:, :-1]) * u
            m0, m1 = 0.5 * (cb[:, :-1] + cb[:, 1:]), 0.5 * (cc[:, :-1] + cc[:, 1:])
            inside = [(before(base[:, [k]], coeff[k], m0, m1)
                       & before(m0, m1, base[:, [k + 1]], coeff[k + 1])).astype(float)
                      for k in range(0, 8, 2)]
            v = ft * (inside[0] - inside[1]) - ftau * (inside[2] - inside[3])
            pieces = np.where(length > 0.0, length * v * v, 0.0)
            owner = np.repeat(row, length.shape[1])
            return 0.5 * np.bincount(owner, weights=pieces.ravel(), minlength=ts.size)  # ds = dy / 2

        return rows

    def mass(self, n, region, quadcfg):
        """Integral of h_n^2 over a region for the cone kernel: an outer
        t-integral of the exact row integrals of ``_rows``."""
        d = 1.0 / n
        # cone edges 2s -+ t = 1 of all four shifted kernel copies
        struct = [(2.0, -1.0, v) for v in (1.0, 1.0 + 2.0 * d, 1.0 - d, 1.0 + d)]
        struct += [(2.0, 1.0, v) for v in (1.0, 1.0 + 2.0 * d, 1.0 + d, 1.0 + 3.0 * d)]
        edges = [0.0, d, 2.0 * d, 3.0 * d, 1.0, 1.0 + d] + regions.t_breakpoints(region)
        edges += crossing_edges(region, struct, axis=1)
        # opposite-family cone edges cross each other at multiples of d/2; rows
        # kink there even without a region cut (the full-mass pieces happen to
        # put dyadic panel edges on those heights, arbitrary regions do not)
        edges += [0.5 * d, 1.5 * d, 2.5 * d]
        pieces = make_pieces(edges, [0.0, d], 0.0, 1.0 + d)
        return integrate_pieces(self._rows(n, region), [pieces], quadcfg,
                                [f"triangle mass at n={n}"])[0]

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


_VARIANTS = {cls.variant: cls for cls in (UniformWeight, SingularWeight, TriangleWeight)}


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


def eval_h(spec, n, s, t):
    """Differenced kernel h_n(s,t), supported in [0, 1+1/n]^2."""
    if n < 1:
        raise ValueError(f"lattice resolution must be >= 1, got {n}")
    d = 1.0 / n
    return (
        eval_g(spec, s, t)
        - eval_g(spec, np.asarray(s, dtype=float) - d, t)
        - eval_g(spec, s, np.asarray(t, dtype=float) - d)
        + eval_g(spec, np.asarray(s, dtype=float) - d, np.asarray(t, dtype=float) - d)
    )


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


def mu_mass(spec, n, region=None, quadcfg=None):
    """mu_n(region) = integral of h_n^2 over the region (whole plane if None)."""
    if n < 2:
        raise ValueError(f"lattice resolution must be >= 2 for mass integrals, got {n}")
    region = Everything() if region is None else region
    quadcfg = quadcfg or _DEFAULT_QUAD
    return require_weight(spec).mass(n, region, quadcfg)


@lru_cache(maxsize=4096)
def _cn_cached(spec, n, quadcfg):
    return mu_mass(spec, n, None, quadcfg)


def compute_cn(spec, n, quadcfg=None):
    """Squared mass c_n = integral of h_n^2 (cached per spec instance)."""
    return _cn_cached(spec, n, quadcfg or _DEFAULT_QUAD)


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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def weight_to_config(spec):
    """Flat key-value representation (values already stringified)."""
    out = {"weight.variant": require_weight(spec).variant, **spec.config_keys()}
    if spec.scale != 1.0:
        out["weight.scale"] = repr(spec.scale)
    return out


def weight_from_config(mapping):
    """Inverse of :func:`weight_to_config`."""
    variant = mapping.get("weight.variant")
    if variant is None:
        raise ValueError("missing key weight.variant")
    scale = float(mapping.get("weight.scale", 1.0))
    if variant not in _VARIANTS:
        raise ValueError(f"unknown weight variant {variant!r}")
    return _VARIANTS[variant].from_config(mapping, scale)
