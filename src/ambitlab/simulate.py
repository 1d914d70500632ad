"""Lattice fields driven by planar white noise, and exact increment statistics.

Two routes to the thinned increments:

* end-to-end: draw a noise grid on [-1,1]^2, convolve with the weight, read
  the field off the lattice and difference it (``simulate_lattice`` and
  ``increments`` return the field and its m x m increments, m = n // k, as
  plain read-only arrays);
* exact-in-law: build the Gaussian covariance of the thinned increment vector
  by quadrature and draw from it directly (``increment_covariance`` +
  ``sample_increments_exact``).  The second route has no discretization bias,
  which matters when the effect under study is of the same order as that bias.

The end-to-end route convolves at M x M, not 2M x 2M: every weight vanishes
outside [0,1]^2, so the lattice rows never meet the wrap-around (see
``simulate_lattice``).  Its kernel spectrum and spot-check kernels, each cut
to the box of its nonzero entries, are cached, read-only, per (weight, n, M).
The spectrum is taken from the table's M/2 rows, transformed in place.
Each replication draws and weights its noise in place in one buffer, and
transforms it into a second; the two are one scratch pair per M that every
call reuses, so a replication allocates no M x M array.  Only the n + 1
lattice rows are inverted, read as a basic slice, and the lattice is copied
out contiguous, so no result shares memory with the scratch.

Random streams are tagged per purpose (volatility=1, noise=2, exact draws=3,
and 4 for the per-replication volatility re-draws of ``limits``) so no two
overlap for a shared master seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotPSDError, QuadratureError
from .kernels import compute_cn, eval_g
from .quadrature import QuadratureConfig
from .volatility import midpoints, rect_integral, squared_prefix_integral

__all__ = [
    "DENSE_CAP",
    "IncrementCovariance",
    "sample_noise",
    "simulate_lattice",
    "increments",
    "strip_covariances",
    "covariance_refusal",
    "increment_covariance",
    "sample_increments_exact",
    "rho_bar",
]

DENSE_CAP = 32  # largest thinned side m = n // k of increment_covariance's dense matrix
_NOISE_STREAM = 2
_EXACT_STREAM = 3

# autocorrelation stencil of the four-corner difference: the 16 signed
# products of shifted copies collapse onto a 3x3 grid of lattice offsets
_DIFF_STENCIL = np.outer([-1.0, 2.0, -1.0], [-1.0, 2.0, -1.0])


def sample_noise(resolution, seed, rep=0, out=None):
    """White-noise cell sums on [-1,1]^2, as an m x m array.

    Entry [c1, c2] is the noise mass of cell (c1, c2) of the m x m grid:
    independent N(0, (2/m)^2), the cell's area.  Deterministic in
    (resolution, seed, rep); each (seed, rep) pair draws its own substream.
    Without ``out`` the grid is a fresh read-only array; with it, the grid
    is drawn into ``out`` (float64, m x m) and ``out`` is returned, with the
    same bits as the fresh draw.
    """
    m = int(resolution)
    if m < 2 or m != resolution:
        raise ValueError(f"noise resolution must be an integer >= 2, got {resolution}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _NOISE_STREAM, int(rep))))
    noise = rng.standard_normal((m, m), out=out)
    noise *= 2.0 / m
    if out is None:
        noise.setflags(write=False)
    return noise


# lln_experiment runs every replication of one n before the next n, so one
# entry serves all of them, and a finished n's arrays are released.
@lru_cache(maxsize=1)
def _lattice_plan(spec, n, M):
    """Read-only (kernel spectrum, spot checks) shared by every replication.

    The spectrum is of g at the offsets ((2j+1)/M, (2l+1)/M), j, l < M/2,
    padded to M x M: the ``rfft`` of the M/2 table rows at length M fills
    the top half of a zeroed array, and a column ``fft`` runs on it in place.
    That is ``rfft2(table, (M, M))`` bit for bit, without the padded copy.
    Each spot check pairs a lattice point with g at its offsets from every
    noise-cell midpoint, evaluated apart from the table at all M x M
    offsets, so that a weight reaching past the unit square still shows,
    and kept cut to its nonzero entries (``_spot_check``).
    Table and checks form offsets as integers over M, so both read an edge alike.
    A table that is zero throughout (a support between the midpoints) would
    simulate the field as identically 0, so it raises QuadratureError.
    """
    offs = (2.0 * np.arange(M // 2) + 1.0) / M
    table = eval_g(spec, offs[:, None], offs[None, :])
    if not np.any(table):
        raise QuadratureError(
            f"the kernel is zero at every noise-cell midpoint offset at n={n}, M={M}, "
            "so the simulated field would be identically 0; raise oversample")
    spectrum = np.zeros((M, M // 2 + 1), dtype=complex)
    np.fft.rfft(table, M, axis=1, out=spectrum[:M // 2])
    del table  # peak memory: not held while the spot-check kernels are built
    np.fft.fft(spectrum, axis=0, out=spectrum)
    spectrum.setflags(write=False)
    return spectrum, tuple(_spot_check(spec, n, M, i) for i in sorted({0, n // 2, n}))


def _spot_check(spec, n, M, i):
    """``((i, i), box, block)``: the spot-check kernel of lattice point (i, i)
    inside ``box``, the pair of slices that bounds its nonzero entries.

    The box is never empty: every check's offsets include the table's, where
    g is not all zero.  The full M x M kernel is gone on return, so a plan
    holds one at a time.
    """
    offsets = (i * (M // n) + M - 1 - 2 * np.arange(M)) / M
    g = eval_g(spec, offsets[:, None], offsets[None, :])
    box = tuple(slice(idx[0], idx[-1] + 1)
                for idx in (np.flatnonzero(g.any(axis=1)), np.flatnonzero(g.any(axis=0))))
    block = g[box].copy()
    block.setflags(write=False)
    return (i, i), box, block


# Scratch for one replication, overwritten by the next; kept apart from the
# plan so that the plan's arrays stay read-only.
@lru_cache(maxsize=1)
def _workspace(M):
    """(noise, transform) buffers: one real M x M, weighted in place, one complex M x (M/2+1)."""
    return np.empty((M, M)), np.empty((M, M // 2 + 1), dtype=complex)


def simulate_lattice(spec, sigma, n, M, seed=0, rep=0):
    """Moving-average field on the lattice by discrete convolution.

    Y(i/n, j/n) = sum over noise cells of g(i/n - u_c, j/n - v_c) sigma(u_c, v_c) W_c
    with (u_c, v_c) the cell midpoints.  Evaluated with one FFT convolution at
    M x M and spot-checked against the direct sum (three lattice points, 1e-10).
    Returns ``(values, direct_check_error)``: the fresh, read-only
    (n+1) x (n+1) array with values[i, j] = Y(i/n, j/n), and the largest
    relative gap the spot check saw.  A non-finite value is refused.

    The linear convolution of the M/2 x M/2 kernel table with the M x M
    weighted noise spans indices [0, 3M/2 - 2]; the lattice reads indices
    [M/2 - 1, M - 1], whose aliases modulo M fall outside that span, so the
    circular convolution at M is exact there.  That rests on g vanishing at
    offsets above 1; a weight that breaks it fails the spot check at (n, n),
    whose direct sum reaches offsets up to 2.  The table's spectrum and the
    spot-check kernels are cached per (spec, n, M).

    The noise, weighted in place, and its transform are written into one
    scratch pair per M (``_workspace``) that every replication reuses: a
    fresh M x M array page-faults on first touch, which costs more than the
    transform.  The forward transform is ``rfft2`` into the scratch; the
    inverse runs one axis at a time in ``irfft2``'s order (``ifft`` on
    axis 0, then ``irfft`` on axis 1), so each 1-D transform sees the data
    ``irfft2`` would give it, but the last stage inverts only the n + 1
    lattice rows, read with the basic slice M/2 - 1, M/2 - 1 + M/(2n), ...,
    M - 1 of the scratch.  The lattice columns of the inverse are copied
    out contiguous, so no result shares memory with the scratch.
    The product is ``conv *= spectrum`` because complex multiplication with
    fused multiply-adds is not bit-commutative, and that is the order
    numpy's temporary elision gave ``spectrum * rfft2(weighted)`` on grids
    of 256 KiB and up.  Once the lattice rows are copied out, the transform
    buffer, viewed as a contiguous M x M real array, holds each spot check's
    product: zero, and the kernel's block times the weighted noise in its
    box: it is zeroed in full once a replication, and each check zeroes its
    own box again after its sum.  That is the full kernel's product up to
    the sign of its zeros, and ``np.sum`` over the whole M x M array adds
    it in the same pairwise order, so the direct sum keeps its bits; a sum
    over the box alone would not.
    """
    if n != int(n) or n < 1:
        raise ValueError(f"lattice resolution must be an integer >= 1, got {n}")
    n = int(n)
    if M != int(M) or M < 1 or M % (2 * n) != 0:
        raise ValueError(
            f"noise resolution {M} must be a positive multiple of 2n = {2 * n} so "
            "lattice points sit on cell corners"
        )
    M = int(M)
    if sigma.resolution < M:
        raise ValueError(
            f"volatility grid (resolution {sigma.resolution}) is coarser than the "
            f"noise grid (resolution {M})"
        )
    # the plan's build sets the peak memory, so it runs before the scratch is touched
    spectrum, checks = _lattice_plan(spec, n, M)
    weighted, conv = _workspace(M)
    sample_noise(M, seed, rep, out=weighted)

    if sigma.resolution == M:
        sig = sigma.values
    else:
        mid = midpoints(M)
        sig = sigma.at(mid[:, None], mid[None, :])
    np.multiply(sig, weighted, out=weighted)

    np.fft.rfft2(weighted, out=conv)
    conv *= spectrum
    np.fft.ifft(conv, axis=0, out=conv)
    lattice = slice(M // 2 - 1, M, M // (2 * n))
    vals = np.fft.irfft(conv[lattice], M, axis=1)[:, lattice].copy()

    # the transform is spent: its first M^2 doubles hold each check's product
    product = conv.view(np.float64).reshape(-1)[:M * M].reshape(M, M)
    product.fill(0.0)
    err = 0.0
    for (i, j), box, block in checks:
        np.multiply(block, weighted[box], out=product[box])
        direct = float(np.sum(product))
        product[box] = 0.0
        err = max(err, abs(direct - vals[i, j]) / (1.0 + abs(direct)))
    if err > 1e-10:
        raise QuadratureError(
            f"FFT convolution disagrees with direct summation by {err:.3e}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("lattice field contains non-finite values")
    vals.setflags(write=False)
    return vals, err


def increments(values, k):
    """Read-only m x m four-corner differences at lattice spacing, m = n // k.

    ``values`` holds the field at the (n+1)^2 lattice points, as
    ``simulate_lattice`` returns it; n is read off its shape.  Entry
    [i - 1, j - 1] is the difference over the single 1/n-cell whose upper
    corner is (ik/n, jk/n); thinning drops the cells in between, it does not
    widen them.  That keeps one normalization c_n valid for every k.
    """
    v = values
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"lattice values must be square 2-D, got shape {v.shape}")
    n = v.shape[0] - 1
    if k != int(k) or not 1 <= k <= n:
        raise ValueError(f"thinning k must be an integer with 1 <= k <= n = {n}, got {k}")
    k = int(k)
    m = n // k
    idx = np.arange(1, m + 1) * k
    vals = (v[np.ix_(idx, idx)] - v[np.ix_(idx - 1, idx)]
            - v[np.ix_(idx, idx - 1)] + v[np.ix_(idx - 1, idx - 1)])
    vals.setflags(write=False)
    return vals


# ------------------------------------------------------ exact covariance path

# tighter than the default; its rel_tol grades to 4^-24 = 2^-48 of a graded
# piece (2^-54 at the check resolution), 14 and 18 nodes a graded panel
_G2_QUAD = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16)


def _stationary_gamma(spec, n, k, m, quadcfg):
    """Gamma[di, dj] = int h(x) h(x + eps*(di-m+1, dj-m+1)) dx on the offset grid.

    Uses Gamma(w) = sum of the 3x3 difference stencil applied to the plain
    weight autocorrelation at lattice points, every argument an exact multiple
    of 1/n.  The lattice offsets of every stencil term of the half-grid
    di > 0 or (di = 0, dj >= 0) go to one ``lattice_autocorrelation`` call,
    which integrates each distinct one once; the stencil then adds the nine
    terms in a fixed order, and Gamma(-w) = Gamma(w) fills the other half.
    The zero offset is replaced by the independently computed c_n and
    cross-checked against the stencil value.
    """
    di, dj = np.meshgrid(np.arange(m), np.arange(-(m - 1), m), indexing="ij")
    half = (di > 0) | (dj >= 0)
    di, dj = di[half], dj[half]
    shift = np.arange(-1, 2)
    i = np.broadcast_to((k * di)[:, None, None] + shift[:, None], (di.size, 3, 3))
    j = np.broadcast_to((k * dj)[:, None, None] + shift, (di.size, 3, 3))
    g2 = spec.lattice_autocorrelation(n, quadcfg, np.stack([i.ravel(), j.ravel()], axis=1))
    g2 = g2.reshape(di.size, 3, 3)
    acc = np.zeros(di.size)
    for k1 in range(3):
        for k2 in range(3):
            acc += _DIFF_STENCIL[k1, k2] * g2[:, k1, k2]
    gam = np.zeros((2 * m - 1, 2 * m - 1))
    gam[di + m - 1, dj + m - 1] = acc
    gam[m - 1 - di, m - 1 - dj] = acc
    cn = compute_cn(spec, n)
    stencil_cn = gam[m - 1, m - 1]
    if abs(stencil_cn - cn) > 1e-6 * cn:
        raise QuadratureError(
            f"autocorrelation stencil c_n {stencil_cn!r} disagrees with the "
            f"direct value {cn!r}"
        )
    gam[m - 1, m - 1] = cn
    return gam


@dataclass(frozen=True, eq=False)
class IncrementCovariance:
    """Dense covariance of the thinned increment vector, row-major indices.

    Built by ``increment_covariance``: symmetric, positive diagonal, own read-only arrays."""

    matrix: np.ndarray
    indices: np.ndarray  # (dim, 2) of 1-based (i, j)
    c_n: float

    @property
    def dim(self):
        return self.indices.shape[0]


def strip_covariances(spec, sigma, n, eps, idx, a, b):
    """C_ab of the uniform weight for each index pair (idx[a], idx[b]).

    The differenced window is +1 or -1 on two strips per axis, so C_ab is
    a signed sum over the overlaps of the strips at a with those at b, each
    the exact cell-wise integral of sigma^2 over a rectangle.  Each pair's
    16 signed terms add up in a fixed order, empty overlaps left out; for
    a = b only the four rectangles of the squared kernel are non-empty.
    """
    strips = spec.signed_strips(n, eps, idx)
    # (axis, strip, lo/hi, index): u+ and u- on axis 0, v+ and v- on axis 1
    ends = np.array([iv for iv, _ in strips]).reshape(2, 2, 2, -1)
    sign = np.array([s for _, s in strips]).reshape(2, 2)
    at_a, at_b = ends[..., a], ends[..., b]
    # overlap of each strip at a with each at b: (axis, 4 strip pairs, pairs)
    lo = np.maximum(at_a[:, :, None, 0], at_b[:, None, :, 0]).reshape(2, 4, -1)
    hi = np.minimum(at_a[:, :, None, 1], at_b[:, None, :, 1]).reshape(2, 4, -1)
    su, sv = (sign[:, :, None] * sign[:, None, :]).reshape(2, 4)
    # the non-empty terms (ku, kv) of each pair, term by term
    ku, kv, pair = np.nonzero((hi[0] > lo[0])[:, None] & (hi[1] > lo[1])[None])
    rects = rect_integral(squared_prefix_integral(sigma), (lo[0, ku, pair], hi[0, ku, pair]),
                          (lo[1, kv, pair], hi[1, kv, pair]))
    # bincount adds the terms of each pair in that order
    return spec.scale**2 * np.bincount(pair, weights=su[ku] * sv[kv] * rects, minlength=len(a))


def covariance_refusal(spec, constant, m):
    """Why ``increment_covariance`` cannot build the covariance of the m x m
    thinned increments of ``spec`` under a volatility that is ``constant`` or
    not; None when it can."""
    if not (spec.has_strips or (constant and spec.has_autocorrelation)):
        return (f"no exact increment covariance for the {spec.variant} weight under "
                f"{'constant' if constant else 'non-constant'} volatility: it needs the "
                "uniform weight, or constant volatility and a closed-form lattice "
                "autocorrelation (singular weights with a polynomial slow factor); use the "
                "simulation route instead")
    if m > DENSE_CAP:
        return f"thinned lattice {m} x {m} exceeds the dense-covariance cap {DENSE_CAP}"
    return None


def increment_covariance(spec, sigma, n, k):
    """Covariance C_ab = int h(eps*i_a - u, eps*j_a - v) h(...b...) sigma^2(u,v).

    Engines: uniform weight with any volatility grid
    (:func:`strip_covariances`, batched over the pairs a <= b), or
    constant volatility with a weight that has a closed-form lattice
    autocorrelation (stationary autocorrelation on the 1/n lattice).  Other
    combinations and lattices past the cap are refused (:func:`covariance_refusal`).
    """
    if n != int(n) or k != int(k) or not 1 <= k <= n:
        raise ValueError(f"n and the thinning k must be integers with 1 <= k <= n, "
                         f"got n={n}, k={k}")
    n, k = int(n), int(k)
    m = n // k
    reason = covariance_refusal(spec, sigma.is_constant, m)
    if reason is not None:
        raise ValueError(reason)
    eps = k / n
    idx = np.indices((m, m)).reshape(2, -1).T + 1  # row-major (i, j)
    cn = compute_cn(spec, n)

    if spec.has_strips:
        a, b = np.triu_indices(len(idx))
        mat = np.zeros((len(idx), len(idx)))
        mat[a, b] = mat[b, a] = strip_covariances(spec, sigma, n, eps, idx, a, b)
    else:
        s0sq = float(sigma.values.flat[0]) ** 2
        gam = _stationary_gamma(spec, n, k, m, _G2_QUAD)
        di = idx[:, None, 0] - idx[None, :, 0]
        dj = idx[:, None, 1] - idx[None, :, 1]
        mat = s0sq * gam[di + m - 1, dj + m - 1]
    mat.setflags(write=False)
    idx.setflags(write=False)
    return IncrementCovariance(matrix=mat, indices=idx, c_n=cn)


def sample_increments_exact(cov, seed, reps):
    """reps x dim Gaussian draws with covariance cov, symmetric square root."""
    if reps != int(reps) or reps < 1:
        raise ValueError(f"need an integer number of replications >= 1, got {reps}")
    reps = int(reps)
    mat = cov.matrix
    w, v = np.linalg.eigh(mat)
    floor = 1e-12 * float(np.trace(mat)) / cov.dim
    if w.min() < -floor:
        raise NotPSDError(
            f"covariance is not PSD beyond the eigenvalue floor: min eig {w.min():.3e}"
        )
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T  # symmetric square root
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _EXACT_STREAM)))
    z = rng.standard_normal((reps, cov.dim))
    return z @ root


def rho_bar(cov):
    """Largest off-diagonal correlation magnitude."""
    if cov.dim < 2:
        raise ValueError("correlation extremum needs at least two increments")
    sd = np.sqrt(np.diag(cov.matrix))
    corr = np.abs(cov.matrix / np.outer(sd, sd))
    np.fill_diagonal(corr, 0.0)
    return float(corr.max())
