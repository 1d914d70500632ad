"""Volatility fields on [-1,1]^2 and integrated powers of their realizations.

Three models: a constant, a named deterministic closure, and a smoothed
log-Gaussian draw.  Realizations are cell-midpoint grids that stay immutable
once sampled; the random stream is derived from the caller's seed with a
substream tag reserved for volatility, so fields never share randomness with
the driving noise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "ConstantVol",
    "DeterministicVol",
    "LogGaussianVol",
    "SigmaField",
    "sample_volatility",
    "integrated_power",
    "squared_prefix_integral",
    "rect_integral",
    "save_sigma_csv",
    "vol_to_config",
    "vol_from_config",
]

_VOL_STREAM = 1  # substream tag: volatility draws (driving noise uses its own)


def _sine_product(u, v):
    return 1.0 + 0.5 * np.sin(2.0 * np.pi * u) * np.sin(2.0 * np.pi * v)


def _gentle_slope(u, v):
    return 1.0 + (u + v) / 8.0


def _bowl(u, v):
    return 0.75 + 0.125 * (u * u + v * v)


# name -> (closure, per-coordinate Lipschitz bound on [-1,1]^2)
_DET_CATALOG = {
    "sine_product": (_sine_product, np.pi),
    "gentle_slope": (_gentle_slope, 0.125),
    "bowl": (_bowl, 0.25),
}


@dataclass(frozen=True)
class ConstantVol:
    """Constant field sigma(u, v) = sigma0."""

    sigma0: float = 1.0

    def __post_init__(self):
        if not (self.sigma0 > 0.0 and np.isfinite(self.sigma0)):
            raise ValueError(f"constant volatility must be positive, got {self.sigma0}")


@dataclass(frozen=True)
class DeterministicVol:
    """Catalog closure selected by name; see keys of the module catalog."""

    name: str = "sine_product"

    def __post_init__(self):
        if self.name not in _DET_CATALOG:
            raise ValueError(
                f"unknown deterministic volatility {self.name!r}; "
                f"catalog has {sorted(_DET_CATALOG)}"
            )

    def __call__(self, u, v):
        return _DET_CATALOG[self.name][0](u, v)


@dataclass(frozen=True)
class LogGaussianVol:
    """exp of a stationary Gaussian field: i.i.d. grid draws convolved with a
    compact bump of the given radius (domain units), rescaled to unit pointwise
    variance before applying mean/variance.
    """

    mean: float = 0.0
    variance: float = 0.25
    smooth_length: float = 0.25

    def __post_init__(self):
        if not (self.variance > 0.0 and np.isfinite(self.variance)):
            raise ValueError(f"log-field variance must be positive, got {self.variance}")
        if not (self.smooth_length > 0.0 and np.isfinite(self.smooth_length)):
            raise ValueError(
                f"smoothing length must be positive, got {self.smooth_length}"
            )


@dataclass(frozen=True, eq=False)
class SigmaField:
    """Realized volatility values at the midpoints of an M x M cell grid.

    values[i, j] = sigma(u_i, v_j) with u_i = -1 + (2i+1)/M; immutable and
    safe to share.
    """

    values: np.ndarray
    resolution: int
    model: object = None
    seed: int | None = None

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise ValueError(f"volatility grid must be square, got shape {vals.shape}")
        if vals.shape[0] != self.resolution:
            raise ValueError(
                f"grid shape {vals.shape} does not match resolution {self.resolution}"
            )
        if not np.all(np.isfinite(vals)) or not np.all(vals > 0.0):
            raise ValueError("volatility values must be finite and strictly positive")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def midpoints(self):
        u = -1.0 + (2.0 * np.arange(self.resolution) + 1.0) / self.resolution
        return u, u.copy()

    def at(self, u, v):
        """Value of the covering cell (grids are cell-constant by convention)."""
        m = self.resolution
        i = np.clip(((np.asarray(u) + 1.0) * 0.5 * m).astype(int), 0, m - 1)
        j = np.clip(((np.asarray(v) + 1.0) * 0.5 * m).astype(int), 0, m - 1)
        out = self.values[i, j]
        return float(out) if np.isscalar(u) and np.isscalar(v) else out

    def scaled(self, c):
        """Field with values c*sigma; grid-backed, so powers scale exactly."""
        if not (c > 0.0 and np.isfinite(c)):
            raise ValueError(f"volatility scale factor must be positive, got {c}")
        return SigmaField(values=c * self.values, resolution=self.resolution)


def _bump_kernel(radius_cells):
    """Quartic bump weights on integer offsets, unit Euclidean norm."""
    r = max(int(np.ceil(radius_cells - 1e-12)) - 1, 0)
    off = np.arange(-r, r + 1, dtype=float)
    rr = np.hypot(off[:, None], off[None, :]) / radius_cells
    w = np.where(rr < 1.0, (1.0 - rr**2) ** 2, 0.0)
    return w / np.sqrt(np.sum(w * w))


def _lag_one_correlation(w):
    return float(np.sum(w[1:, :] * w[:-1, :]))


def _check_realization(model, values, resolution):
    """Continuity tripwire: adjacent cells must not jump past the model's modulus."""
    du = np.abs(np.diff(values, axis=0))
    dv = np.abs(np.diff(values, axis=1))
    jump = max(du.max() if du.size else 0.0, dv.max() if dv.size else 0.0)
    pitch = 2.0 / resolution
    if isinstance(model, ConstantVol):
        bound = 1e-12
    elif isinstance(model, DeterministicVol):
        bound = _DET_CATALOG[model.name][1] * pitch * (1.0 + 1e-6) + 1e-12
    else:
        # bound the log-field increments instead: Gaussian with known lag-one
        # correlation, ten standard deviations clears any honest draw
        radius = max(model.smooth_length * resolution / 2.0, 1.0)
        rho1 = _lag_one_correlation(_bump_kernel(radius))
        sd = np.sqrt(max(2.0 * (1.0 - rho1), 0.0) * model.variance)
        dlog = np.log(values)
        du = np.abs(np.diff(dlog, axis=0))
        dv = np.abs(np.diff(dlog, axis=1))
        jump = max(du.max() if du.size else 0.0, dv.max() if dv.size else 0.0)
        bound = 10.0 * sd + 1e-9
    if jump > bound:
        raise ValueError(
            f"realized volatility violates its continuity modulus: "
            f"max adjacent jump {jump:.3e} > declared {bound:.3e}"
        )


def sample_volatility(model, resolution, seed=0):
    """Realize a volatility model on the M x M midpoint grid of [-1,1]^2.

    Deterministic in (model, resolution, seed).  The log-Gaussian model draws
    an i.i.d. standard-normal grid from the volatility substream of ``seed``,
    convolves it (periodically) with a unit-norm bump of the declared radius
    so every point keeps exactly unit variance, then shifts, scales and
    exponentiates.
    """
    m = int(resolution)
    if m < 2 or m != resolution:
        raise ValueError(f"volatility grid resolution must be an integer >= 2, got {resolution}")
    u = -1.0 + (2.0 * np.arange(m) + 1.0) / m
    if isinstance(model, ConstantVol):
        vals = np.full((m, m), model.sigma0)
    elif isinstance(model, DeterministicVol):
        vals = model(u[:, None], u[None, :])
    elif isinstance(model, LogGaussianVol):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), _VOL_STREAM)))
        z = rng.standard_normal((m, m))
        radius = max(model.smooth_length * m / 2.0, 1.0)
        w = _bump_kernel(radius)
        pad = np.zeros((m, m))
        r = w.shape[0] // 2
        if w.shape[0] > m:
            raise ValueError(
                f"smoothing length {model.smooth_length} too large for resolution {m}"
            )
        pad[: w.shape[0], : w.shape[1]] = w
        pad = np.roll(pad, (-r, -r), axis=(0, 1))
        smooth = np.fft.irfft2(np.fft.rfft2(z) * np.fft.rfft2(pad), s=(m, m))
        vals = np.exp(model.mean + np.sqrt(model.variance) * smooth)
    else:
        raise TypeError(f"not a volatility model: {model!r}")
    _check_realization(model, vals, m)
    return SigmaField(values=vals, resolution=m, model=model, seed=int(seed))


def _validate_rect(rect):
    a, b, c, d = (float(x) for x in rect)
    tol = 1e-12
    if not (a <= b and c <= d):
        raise ValueError(f"rectangle has inverted sides: {rect}")
    if a < -1.0 - tol or b > 1.0 + tol or c < -1.0 - tol or d > 1.0 + tol:
        raise ValueError(f"rectangle {rect} leaves the sampled domain [-1,1]^2")
    return a, b, c, d


def _grid_rect_sum(fieldvals, m, p, rect):
    """Midpoint sum of sigma^p over rect, partial edge cells weighted by overlap."""
    a, b, c, d = rect
    edges = -1.0 + 2.0 * np.arange(m + 1) / m
    wu = np.clip(np.minimum(b, edges[1:]) - np.maximum(a, edges[:-1]), 0.0, None)
    wv = np.clip(np.minimum(d, edges[1:]) - np.maximum(c, edges[:-1]), 0.0, None)
    return float(wu @ (fieldvals**p) @ wv)


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
    return _grid_rect_sum(sigma.values, sigma.resolution, p, (a, b, c, d))


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


def save_sigma_csv(sigma, path):
    """Write the realized grid row-major with a provenance header."""
    model = sigma.model
    tag = type(model).__name__ if model is not None else "scaled"
    with open(path, "w") as fh:
        fh.write(f"# volatility grid: resolution={sigma.resolution} model={tag} "
                 f"seed={sigma.seed}\n")
        np.savetxt(fh, sigma.values, delimiter=",", fmt="%.17g")


def vol_to_config(model, prefix="volatility"):
    """Flatten a model into dotted config keys."""
    if isinstance(model, ConstantVol):
        return {f"{prefix}.variant": "constant", f"{prefix}.sigma0": repr(model.sigma0)}
    if isinstance(model, DeterministicVol):
        return {f"{prefix}.variant": "deterministic", f"{prefix}.name": model.name}
    if isinstance(model, LogGaussianVol):
        return {
            f"{prefix}.variant": "log_gaussian",
            f"{prefix}.mean": repr(model.mean),
            f"{prefix}.variance": repr(model.variance),
            f"{prefix}.smooth_length": repr(model.smooth_length),
        }
    raise TypeError(f"not a volatility model: {model!r}")


def vol_from_config(entries, prefix="volatility"):
    """Rebuild a model from dotted config keys (inverse of vol_to_config)."""
    def get(key, default=None):
        return entries.get(f"{prefix}.{key}", default)

    variant = get("variant")
    if variant is None:
        raise ConfigError(f"missing {prefix}.variant")
    try:
        if variant == "constant":
            return ConstantVol(sigma0=float(get("sigma0", 1.0)))
        if variant == "deterministic":
            return DeterministicVol(name=get("name", "sine_product"))
        if variant == "log_gaussian":
            return LogGaussianVol(
                mean=float(get("mean", 0.0)),
                variance=float(get("variance", 0.25)),
                smooth_length=float(get("smooth_length", 0.25)),
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad volatility parameters: {exc}") from exc
    raise ConfigError(f"unknown volatility variant {variant!r}")
