"""Volatility fields on [-1,1]^2 and exact integrals of their squared realizations.

Three models: a constant, a named deterministic closure, and a smoothed
log-Gaussian draw.  Each variant's facts live on its class, and the other
modules only read them: the config name ``variant`` (its key in ``VARIANTS``),
its parameters as dataclass fields, the flags ``constant`` and ``redrawn``,
and ``realize``, its grid, continuous by construction and so not checked
again.  Realizations are cell-midpoint grids that stay immutable once sampled;
the random stream is derived from the caller's seed with a substream tag
reserved for volatility, so fields never share randomness with the driving
noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FloatRangeError

__all__ = [
    "VARIANTS",
    "VolatilityModel",
    "ConstantVol",
    "DeterministicVol",
    "LogGaussianVol",
    "SigmaField",
    "midpoints",
    "sample_volatility",
    "squared_prefix_integral",
    "rect_integral",
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
        """sigma0 in every cell, as a read-only broadcast of the one value:
        the m x m grid takes no memory of its own."""
        return np.broadcast_to(float(self.sigma0), (m, m))


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
        if not np.isfinite(self.mean):
            raise ValueError(f"log-field mean must be finite, got {self.mean}")
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
        A draw whose exponential overflows to inf or underflows to 0 raises
        ``FloatRangeError``.
        """
        bump = _bump_kernel(max(self.smooth_length * m / 2.0, 1.0))
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), _VOL_STREAM)))
        z = rng.standard_normal((m, m))
        pad = np.zeros((m, m))
        r = bump.shape[0] // 2
        pad[: bump.shape[0], : bump.shape[1]] = bump
        pad = np.roll(pad, (-r, -r), axis=(0, 1))
        smooth = np.fft.irfft2(np.fft.rfft2(z) * np.fft.rfft2(pad), s=(m, m))
        with np.errstate(over="ignore"):
            vals = np.exp(self.mean + np.sqrt(self.variance) * smooth)
        if not (vals.min() > 0.0 and vals.max() < np.inf):
            raise FloatRangeError(
                f"log-Gaussian volatility (mean {self.mean}, variance {self.variance}) drew "
                f"a value outside float range on the {m} x {m} grid at seed {seed}")
        return vals


VARIANTS = {cls.variant: cls for cls in (ConstantVol, DeterministicVol, LogGaussianVol)}


@dataclass(frozen=True, eq=False)
class SigmaField:
    """Realized volatility values at the midpoints of an M x M cell grid.

    values[i, j] = sigma(u_i, v_j) with u = v = ``midpoints(M)``; immutable
    and safe to share.  A grid that is not square, finite and strictly
    positive is refused; M is read off it as ``resolution``.  The input is
    copied, except a grid whose strides are all zero (one value repeated, as
    ``ConstantVol.realize`` broadcasts it): only its value is copied, and
    ``values`` is a read-only broadcast of that copy, with no M x M memory.
    """

    values: np.ndarray
    model: object = None
    seed: int | None = None

    def __post_init__(self):
        vals = self.values
        if isinstance(vals, np.ndarray) and vals.ndim == 2 and not any(vals.strides):
            vals = np.broadcast_to(float(vals.flat[0]), vals.shape)
        else:
            vals = np.array(vals, dtype=float)
            vals.setflags(write=False)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"volatility grid must be square, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)) or not np.all(vals > 0.0):
            raise ValueError("volatility values must be finite and strictly positive")
        object.__setattr__(self, "values", vals)

    @property
    def resolution(self):
        return self.values.shape[0]

    @property
    def is_constant(self):
        """Whether every cell holds the same value: at once for a broadcast
        of one value (``ConstantVol.realize``), else by scanning the cells."""
        return not any(self.values.strides) or bool(np.all(self.values == self.values.flat[0]))

    def at(self, u, v):
        """Value of the covering cell (grids are cell-constant by convention)."""
        m = self.resolution
        i = np.clip(((np.asarray(u) + 1.0) * 0.5 * m).astype(int), 0, m - 1)
        j = np.clip(((np.asarray(v) + 1.0) * 0.5 * m).astype(int), 0, m - 1)
        out = self.values[i, j]
        return float(out) if np.isscalar(u) and np.isscalar(v) else out


def sample_volatility(model, resolution, seed=0):
    """Realize a volatility model on the M x M midpoint grid of [-1,1]^2.

    Deterministic in (model, resolution, seed); the model's ``realize`` draws
    the grid, which is continuous by construction.
    """
    m = int(resolution)
    if m < 2 or m != resolution:
        raise ValueError(f"volatility grid resolution must be an integer >= 2, got {resolution}")
    return SigmaField(values=model.realize(m, seed), model=model, seed=int(seed))


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
