"""Volatility fields on [-1,1]^2 and integrated powers of their realizations.

Three models: a constant, a named deterministic closure, and a smoothed
log-Gaussian draw.  Each variant's facts live on its class, and the other
modules only read them: the config name ``variant`` (the registry key), the
flags ``constant`` and ``redrawn``, and ``realize``, its grid, continuous by
construction and so not checked again.  Realizations are cell-midpoint grids
that stay immutable once sampled; the random stream is derived from the
caller's seed with a substream tag reserved for volatility, so fields never
share randomness with the driving noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "VolatilityModel",
    "ConstantVol",
    "DeterministicVol",
    "LogGaussianVol",
    "SigmaField",
    "midpoints",
    "sample_volatility",
    "integrated_power",
    "squared_prefix_integral",
    "rect_integral",
    "vol_to_config",
    "vol_from_config",
]

_VOL_STREAM = 1  # substream tag: volatility draws (driving noise uses its own)


def midpoints(m):
    """Midpoints of the m cells per axis of [-1,1]."""
    return -1.0 + (2.0 * np.arange(m) + 1.0) / m


def _sine_product(u, v):
    return 1.0 + 0.5 * np.sin(2.0 * np.pi * u) * np.sin(2.0 * np.pi * v)


def _gentle_slope(u, v):
    return 1.0 + (u + v) / 8.0


def _bowl(u, v):
    return 0.75 + 0.125 * (u * u + v * v)


# name -> closure; each is smooth on [-1,1]^2
_DET_CATALOG = {
    "sine_product": _sine_product,
    "gentle_slope": _gentle_slope,
    "bowl": _bowl,
}


def _bump_kernel(radius_cells):
    """Quartic bump weights on integer offsets, unit Euclidean norm."""
    r = max(int(np.ceil(radius_cells - 1e-12)) - 1, 0)
    off = np.arange(-r, r + 1, dtype=float)
    rr = np.hypot(off[:, None], off[None, :]) / radius_cells
    w = np.where(rr < 1.0, (1.0 - rr**2) ** 2, 0.0)
    return w / np.sqrt(np.sum(w * w))


class VolatilityModel:
    """Base of the volatility variants: the defaults for facts a variant lacks.

    A variant is a frozen dataclass whose fields are its parameters, each
    read from the config key ``volatility.<field>``.  It also defines
    ``realize(m, seed)``: its m x m grid at the cell midpoints.
    """

    variant = None    # config name and registry key
    constant = False  # every realization is one constant grid
    redrawn = False   # random: each replication draws its own realization

    def config_keys(self):
        """``volatility.<field>`` -> value as text, for every parameter."""
        return {f"volatility.{f.name}": str(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_config(cls, mapping):
        """Rebuild from ``volatility.*`` keys; an unset key keeps its default."""
        return cls(**{f.name: type(f.default)(mapping[f"volatility.{f.name}"])
                      for f in fields(cls) if f"volatility.{f.name}" in mapping})


@dataclass(frozen=True)
class ConstantVol(VolatilityModel):
    """Constant field sigma(u, v) = sigma0."""

    variant = "constant"
    constant = True

    sigma0: float = 1.0

    def __post_init__(self):
        if not (self.sigma0 > 0.0 and np.isfinite(self.sigma0)):
            raise ValueError(f"constant volatility must be positive, got {self.sigma0}")

    def realize(self, m, seed):
        """sigma0 in every cell."""
        return np.full((m, m), self.sigma0)


@dataclass(frozen=True)
class DeterministicVol(VolatilityModel):
    """Catalog closure selected by name; see keys of the module catalog."""

    variant = "deterministic"

    name: str = "sine_product"

    def __post_init__(self):
        if self.name not in _DET_CATALOG:
            raise ValueError(
                f"unknown deterministic volatility {self.name!r}; "
                f"catalog has {sorted(_DET_CATALOG)}"
            )

    def __call__(self, u, v):
        return _DET_CATALOG[self.name](u, v)

    def realize(self, m, seed):
        """The closure at the cell midpoints."""
        u = midpoints(m)
        return self(u[:, None], u[None, :])


@dataclass(frozen=True)
class LogGaussianVol(VolatilityModel):
    """exp of a stationary Gaussian field: i.i.d. grid draws convolved with a
    compact bump of the given radius (domain units), rescaled to unit pointwise
    variance before applying mean/variance.  The radius is at most 1, half the
    width of the domain, so the bump fits the grid at every resolution.
    """

    variant = "log_gaussian"
    redrawn = True

    mean: float = 0.0
    variance: float = 0.25
    smooth_length: float = 0.25

    def __post_init__(self):
        if not (self.variance > 0.0 and np.isfinite(self.variance)):
            raise ValueError(f"log-field variance must be positive, got {self.variance}")
        if not 0.0 < self.smooth_length <= 1.0:
            raise ValueError(
                f"smoothing length must lie in (0, 1], got {self.smooth_length}"
            )

    def realize(self, m, seed):
        """Draw an i.i.d. standard-normal grid from the volatility substream of
        ``seed``, convolve it (periodically) with the unit-norm bump so every
        point keeps exactly unit variance, then shift, scale and exponentiate.
        The difference of adjacent log-values is Gaussian with variance
        ``2 * (1 - rho1) * variance``, rho1 the bump's lag-one autocorrelation.
        """
        bump = _bump_kernel(max(self.smooth_length * m / 2.0, 1.0))
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), _VOL_STREAM)))
        z = rng.standard_normal((m, m))
        pad = np.zeros((m, m))
        r = bump.shape[0] // 2
        pad[: bump.shape[0], : bump.shape[1]] = bump
        pad = np.roll(pad, (-r, -r), axis=(0, 1))
        smooth = np.fft.irfft2(np.fft.rfft2(z) * np.fft.rfft2(pad), s=(m, m))
        return np.exp(self.mean + np.sqrt(self.variance) * smooth)


_VARIANTS = {cls.variant: cls for cls in (ConstantVol, DeterministicVol, LogGaussianVol)}


@dataclass(frozen=True, eq=False)
class SigmaField:
    """Realized volatility values at the midpoints of an M x M cell grid.

    values[i, j] = sigma(u_i, v_j) with u = v = ``midpoints(M)``; immutable
    and safe to share.  A grid that is not square, finite and strictly
    positive is refused; M is read off it as ``resolution``.
    """

    values: np.ndarray
    model: object = None
    seed: int | None = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"volatility grid must be square, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)) or not np.all(vals > 0.0):
            raise ValueError("volatility values must be finite and strictly positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def resolution(self):
        return self.values.shape[0]

    @property
    def is_constant(self):
        """Whether every cell holds the same value."""
        return bool(np.all(self.values == self.values.flat[0]))

    def at(self, u, v):
        """Value of the covering cell (grids are cell-constant by convention)."""
        m = self.resolution
        i = np.clip(((np.asarray(u) + 1.0) * 0.5 * m).astype(int), 0, m - 1)
        j = np.clip(((np.asarray(v) + 1.0) * 0.5 * m).astype(int), 0, m - 1)
        out = self.values[i, j]
        return float(out) if np.isscalar(u) and np.isscalar(v) else out

    def scaled(self, c):
        """Field with values c*sigma; grid-backed, so powers scale exactly."""
        return SigmaField(values=c * self.values)


def sample_volatility(model, resolution, seed=0):
    """Realize a volatility model on the M x M midpoint grid of [-1,1]^2.

    Deterministic in (model, resolution, seed); the model's ``realize`` draws
    the grid, which is continuous by construction.
    """
    m = int(resolution)
    if m < 2 or m != resolution:
        raise ValueError(f"volatility grid resolution must be an integer >= 2, got {resolution}")
    if not hasattr(model, "realize"):
        raise TypeError(f"not a volatility model: {model!r}")
    return SigmaField(values=model.realize(m, seed), model=model, seed=int(seed))


def _validate_rect(rect):
    a, b, c, d = (float(x) for x in rect)
    tol = 1e-12
    if not (a <= b and c <= d):
        raise ValueError(f"rectangle has inverted sides: {rect}")
    if a < -1.0 - tol or b > 1.0 + tol or c < -1.0 - tol or d > 1.0 + tol:
        raise ValueError(f"rectangle {rect} leaves the sampled domain [-1,1]^2")
    return a, b, c, d


def integrated_power(sigma, p, rect=(0.0, 1.0, 0.0, 1.0)):
    """integral of sigma(u,v)^p over [a,b] x [c,d], rect inside [-1,1]^2.

    Reads the realized grid cell-constantly, as the simulation does: partial
    edge cells count by their overlap, so the value is exact for that
    reading.  Zero-area rectangles integrate to 0 and emit a warning.
    """
    if not (p > 0.0 and np.isfinite(p)):
        raise ValueError(f"integrated power requires p > 0, got {p}")
    a, b, c, d = _validate_rect(rect)
    if a == b or c == d:
        warnings.warn("integrated_power over a zero-area rectangle", stacklevel=2)
        return 0.0
    m = sigma.resolution
    edges = -1.0 + 2.0 * np.arange(m + 1) / m
    wu = np.clip(np.minimum(b, edges[1:]) - np.maximum(a, edges[:-1]), 0.0, None)
    wv = np.clip(np.minimum(d, edges[1:]) - np.maximum(c, edges[:-1]), 0.0, None)
    return float(wu @ (sigma.values**p) @ wv)


def squared_prefix_integral(sigma):
    """Exact integral of the cell-constant sigma^2 over [-1,x] x [-1,y], vectorized.

    Returns the function (x, y) -> integral; ``rect_integral`` turns it into
    integrals over rectangles.
    """
    values = sigma.values**2
    m = values.shape[0]
    cell = 2.0 / m
    pref = np.zeros((m + 1, m + 1))
    pref[1:, 1:] = np.cumsum(np.cumsum(values, axis=0), axis=1)
    row_pref = np.concatenate([np.zeros((m, 1)), np.cumsum(values, axis=1)], axis=1)
    col_pref = np.concatenate([np.zeros((1, m)), np.cumsum(values, axis=0)], axis=0)

    def at(x, y):
        x = np.clip((np.asarray(x, dtype=float) + 1.0) / cell, 0.0, m)
        y = np.clip((np.asarray(y, dtype=float) + 1.0) / cell, 0.0, m)
        i = np.minimum(x.astype(int), m - 1)
        j = np.minimum(y.astype(int), m - 1)
        fx, fy = x - i, y - j
        # full cell block + partial strip of row i + partial strip of column j
        # + the fractional corner cell
        acc = pref[i, j] + fx * row_pref[i, j] + fy * col_pref[i, j] \
            + fx * fy * values[i, j]
        return acc * cell * cell

    return at


def rect_integral(pref, u_iv, v_iv):
    """Integrals under a prefix function over rectangles, clipped to [-1,1]^2.

    ``u_iv = (ua, ub)`` and ``v_iv = (va, vb)`` hold scalars or equal-length
    arrays, one rectangle [ua, ub] x [va, vb] per element; the result has
    their shape.  A rectangle that is empty once clipped integrates to 0.
    Each element is the four-corner difference v0 - v1 - v2 + v3 of the
    prefix values, the same operations in the same order for every batch.
    """
    ua, ub = np.maximum(u_iv[0], -1.0), np.minimum(u_iv[1], 1.0)
    va, vb = np.maximum(v_iv[0], -1.0), np.minimum(v_iv[1], 1.0)
    vals = pref(ub, vb) - pref(ub, va) - pref(ua, vb) + pref(ua, va)
    return np.where((ub <= ua) | (vb <= va), 0.0, vals)


def vol_to_config(model):
    """Flatten a model into dotted config keys."""
    return {"volatility.variant": model.variant, **model.config_keys()}


def vol_from_config(entries):
    """Rebuild a model from dotted config keys (inverse of vol_to_config)."""
    variant = entries.get("volatility.variant")
    if variant is None:
        raise ValueError("missing key volatility.variant")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown volatility variant {variant!r}")
    return _VARIANTS[variant].from_config(entries)
