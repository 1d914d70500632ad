import tracemalloc

import numpy as np
import pytest

from ambitlab import simulate
from ambitlab.errors import QuadratureError
from ambitlab.kernels import (
    SingularWeight,
    SlowFunction,
    TriangleWeight,
    UniformWeight,
    compute_cn,
    eval_g,
)
from ambitlab.simulate import (
    IncrementCovariance,
    increment_covariance,
    increments,
    rho_bar,
    sample_increments_exact,
    sample_noise,
    simulate_lattice,
)
from ambitlab.volatility import ConstantVol, DeterministicVol, LogGaussianVol, sample_volatility


# --------------------------------------------------------------------- noise

def test_noise_is_deterministic_per_seed_and_rep():
    a = sample_noise(32, seed=5, rep=0)
    b = sample_noise(32, seed=5, rep=0)
    c = sample_noise(32, seed=5, rep=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_rejects_tiny_resolution():
    with pytest.raises(ValueError, match="resolution"):
        sample_noise(1, seed=0)
    with pytest.raises(ValueError, match="integer"):
        sample_noise(32.7, seed=0)


def test_noise_cells_carry_the_cell_area_as_variance():
    # each grid's sample variance of m^2 iid draws lies within 5 standard
    # errors of the cell area, and the 50 grids pooled within 1%
    m, cell = 64, (2.0 / 64) ** 2
    grids = [sample_noise(m, seed=s) for s in range(50)]
    for g in grids:
        assert g.shape == (m, m)
        assert abs(float(g.var()) - cell) < 5.0 * cell * np.sqrt(2.0) / m
    assert abs(float(np.var(grids)) - cell) < 0.01 * cell


def test_random_stream_tags_are_pairwise_distinct():
    from ambitlab.limits import _REDRAW_STREAM
    from ambitlab.volatility import _VOL_STREAM

    tags = (_VOL_STREAM, simulate._NOISE_STREAM, simulate._EXACT_STREAM, _REDRAW_STREAM)
    assert len(set(tags)) == len(tags), tags


def test_noise_grid_is_read_only():
    g = sample_noise(16, seed=3)
    with pytest.raises(ValueError):
        g[0, 0] = 1.0


def test_noise_drawn_into_a_buffer_has_the_fresh_bits():
    buf = np.empty((32, 32))
    got = sample_noise(32, seed=4, rep=2, out=buf)
    assert got is buf
    assert np.array_equal(buf, sample_noise(32, seed=4, rep=2))
    with pytest.raises(ValueError):
        sample_noise(32, seed=4, out=np.empty((32, 33)))


# ---------------------------------------------------------------- simulation

def test_simulate_requires_aligned_resolutions():
    sig = sample_volatility(ConstantVol(1.0), 64, seed=0)
    with pytest.raises(ValueError, match="multiple of 2n"):
        simulate_lattice(UniformWeight(), sig, 6, 64)
    with pytest.raises(ValueError, match="coarser"):
        simulate_lattice(UniformWeight(), sig, 4, 128)
    with pytest.raises(ValueError, match="integer"):
        simulate_lattice(UniformWeight(), sig, 4.9, 32.0)
    with pytest.raises(ValueError, match="multiple of 2n"):
        simulate_lattice(UniformWeight(), sig, 4, 32.5)
    whole, _ = simulate_lattice(UniformWeight(), sig, 4.0, 32.0, seed=1)
    assert np.array_equal(whole, simulate_lattice(UniformWeight(), sig, 4, 32, seed=1)[0])


def test_simulate_is_deterministic_and_returns_its_check_error():
    simulate._lattice_plan.cache_clear()
    sig = sample_volatility(ConstantVol(1.0), 32, seed=0)
    a, a_err = simulate_lattice(UniformWeight(), sig, 4, 32, seed=9)  # builds the plan
    b, b_err = simulate_lattice(UniformWeight(), sig, 4, 32, seed=9)  # reuses it
    assert simulate._lattice_plan.cache_info().hits == 1
    assert type(a) is np.ndarray and a.shape == (5, 5) and not a.flags.writeable
    assert np.array_equal(a, b) and a_err == b_err
    assert a_err < 1e-10


def test_simulate_spot_checks_the_convolution():
    # the FFT path and the direct sum are the same numbers by construction;
    # a finer sigma grid than the noise grid exercises the resampling branch
    sig = sample_volatility(LogGaussianVol(0.0, 0.25, 0.25), 128, seed=9)
    _, err = simulate_lattice(UniformWeight(), sig, 4, 64, seed=7)
    assert err < 1e-12


def test_simulate_variance_at_center_matches_window_area():
    # Y(1/2,1/2) integrates white noise over a 1/2 x 1/2 window: variance 1/4.
    # Window edges sit on noise-cell edges, so the lattice law is exact here.
    sig = sample_volatility(ConstantVol(1.0), 16, seed=0)
    reps = 400
    vals = [
        simulate_lattice(UniformWeight(), sig, 2, 16, seed=21, rep=r)[0][1, 1]
        for r in range(reps)
    ]
    second = np.mean(np.square(vals))
    assert abs(second - 0.25) < 5 * 0.25 * np.sqrt(2 / reps)


@pytest.mark.parametrize("n", [7, 11, 17, 21, 29, 35, 39])
def test_the_spot_check_reads_an_offset_on_the_edge_as_the_table_does(n):
    # at M = 4n with n odd a midpoint offset lands on the rectangle's edge 0.25
    sig = sample_volatility(ConstantVol(1.0), 4 * n, seed=0)
    _, err = simulate_lattice(UniformWeight(), sig, n, 4 * n, seed=0)
    assert err < 1e-12


_ONE = SlowFunction("one")
_WEIGHTS = {
    "uniform": UniformWeight(s1=0.25, s2=1.0, t1=0.0, t2=0.75),
    "singular": SingularWeight(alpha=0.75, ell=_ONE),
    "triangle": TriangleWeight(alpha=0.6, ell=_ONE),
}


@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("name", list(_WEIGHTS))
def test_every_lattice_value_equals_the_direct_sum(name, oversample):
    spec, n = _WEIGHTS[name], 4
    M = 2 * n * oversample
    sig = sample_volatility(LogGaussianVol(0.0, 0.25, 0.25), 4 * M, seed=2)
    values, _ = simulate_lattice(spec, sig, n, M, seed=5, rep=3)
    mid = -1.0 + (2.0 * np.arange(M) + 1.0) / M
    weighted = sig.at(mid[:, None], mid[None, :]) * sample_noise(M, seed=5, rep=3)
    x = np.arange(n + 1) / n
    g = eval_g(spec, (x[:, None] - mid[None, :])[:, None, :, None],
               (x[:, None] - mid[None, :])[None, :, None, :])
    direct = np.einsum("ijuv,uv->ij", g, weighted)
    assert np.all(np.abs(values - direct) <= 1e-12 * (1.0 + np.abs(direct)))


@pytest.mark.parametrize("spec, n, M", [(_WEIGHTS["triangle"], 4, 16), (_WEIGHTS["singular"], 8, 16),
                                        (_WEIGHTS["singular"], 4, 32)], ids=["spec", "n", "M"])
def test_a_different_key_builds_its_own_plan(spec, n, M):
    sig = sample_volatility(ConstantVol(1.0), 32, seed=0)
    simulate._lattice_plan.cache_clear()
    cold, _ = simulate_lattice(spec, sig, n, M)
    simulate._lattice_plan.cache_clear()
    simulate_lattice(_WEIGHTS["singular"], sig, 4, 16)
    after_another, _ = simulate_lattice(spec, sig, n, M)
    assert simulate._lattice_plan.cache_info().misses == 2
    assert np.array_equal(after_another, cold)


@pytest.mark.parametrize("M", [64, 512])
@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("vol", [ConstantVol(1.0), LogGaussianVol(0.0, 0.25, 0.25)],
                         ids=["constant", "log_gaussian"])
def test_staged_transform_equals_the_whole_grid_one(vol, q, M):
    # one axis at a time and only the lattice rows inverted, bit for bit
    spec, n = _WEIGHTS["singular"], M // (2 * q)
    sig = sample_volatility(vol, M, seed=6)
    values, _ = simulate_lattice(spec, sig, n, M, seed=8, rep=1)
    spectrum, _ = simulate._lattice_plan(spec, n, M)
    weighted = sig.values * sample_noise(M, seed=8, rep=1)
    pick = np.arange(n + 1) * q + M // 2 - 1
    whole = np.fft.irfft2(np.fft.rfft2(weighted) * spectrum, (M, M))[np.ix_(pick, pick)]
    assert np.array_equal(values, whole)


def test_fields_do_not_share_the_scratch():
    sig = sample_volatility(ConstantVol(1.0), 64, seed=0)
    spec = _WEIGHTS["singular"]
    first, _ = simulate_lattice(spec, sig, 8, 32, seed=2, rep=0)
    kept = first.copy()
    simulate_lattice(spec, sig, 8, 32, seed=2, rep=1)
    assert np.array_equal(first, kept)
    simulate_lattice(spec, sig, 16, 64, seed=2, rep=0)
    assert np.array_equal(first, kept)
    for buf in simulate._workspace(64):
        assert not np.shares_memory(first, buf)


def test_a_warm_replication_allocates_no_grid_sized_temporaries():
    # the scratch is reused, so a warm call allocates only the n + 1 lattice
    # rows of the spectrum and their inverse, about M^2 / 2 doubles each at
    # n = M / 2; an M x M temporary for the noise, a product or a transform
    # stage would add M^2 more
    spec, n, M = SingularWeight(alpha=0.75), 128, 256
    sig = sample_volatility(ConstantVol(1.0), M, seed=0)
    simulate_lattice(spec, sig, n, M, rep=0)
    tracemalloc.start()
    try:
        simulate_lattice(spec, sig, n, M, rep=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * M * M * 8


def test_cached_plan_arrays_are_read_only():
    spectrum, checks = simulate._lattice_plan(_WEIGHTS["uniform"], 4, 16)
    assert spectrum.shape == (16, 9)
    assert [point for point, _, _ in checks] == [(0, 0), (2, 2), (4, 4)]
    for arr in [spectrum] + [block for _, _, block in checks]:
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    # each block is its full kernel inside the box, and the kernel is 0 outside it
    for spec in _WEIGHTS.values():
        for n, M in ((4, 16), (5, 20)):
            for (i, _), box, block in simulate._lattice_plan(spec, n, M)[1]:
                offsets = (i * (M // n) + M - 1 - 2 * np.arange(M)) / M
                full = eval_g(spec, offsets[:, None], offsets[None, :])
                assert np.array_equal(block, full[box])
                full[box] = 0.0
                assert not np.any(full)


def _full_kernel_spot_check_error(spec, sig, values, n, M, seed, rep):
    """The spot-check error as the full M x M kernel times sigma * noise gives it."""
    weighted = sig.values * sample_noise(M, seed=seed, rep=rep)
    err = 0.0
    for i in sorted({0, n // 2, n}):
        offsets = (i * (M // n) + M - 1 - 2 * np.arange(M)) / M
        direct = float(np.sum(eval_g(spec, offsets[:, None], offsets[None, :]) * weighted))
        err = max(err, abs(direct - values[i, i]) / (1.0 + abs(direct)))
    return err


@pytest.mark.parametrize("n", [5, 7, 12, 32])
@pytest.mark.parametrize("oversample", [1, 2])
@pytest.mark.parametrize("name", list(_WEIGHTS))
def test_the_boxed_spot_check_has_the_full_kernels_bits(name, oversample, n):
    # odd and non-power-of-two M too, where a sum over the box alone would
    # add in another order
    spec, M = _WEIGHTS[name], 2 * n * oversample
    sig = sample_volatility(LogGaussianVol(0.0, 0.25, 0.25), M, seed=3)
    values, err = simulate_lattice(spec, sig, n, M, seed=4, rep=1)
    assert err == _full_kernel_spot_check_error(spec, sig, values, n, M, 4, 1)


def test_a_cold_call_under_constant_volatility_fits_its_memory_budget():
    # the plan keeps the spectrum (M^2 doubles) and three kernel blocks of at
    # most (M/2)^2, the workspace M^2 real and M (M/2 + 1) complex, and the
    # constant sigma grid is one broadcast value
    spec, n, M = SingularWeight(alpha=0.75), 128, 256
    grid = M * M * 8
    simulate_lattice(spec, sample_volatility(ConstantVol(1.0), 16, seed=0), 4, 16)  # lazy imports
    simulate._lattice_plan.cache_clear()
    simulate._workspace.cache_clear()
    tracemalloc.start()
    try:
        simulate_lattice(spec, sample_volatility(ConstantVol(1.0), M, seed=0), n, M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * grid  # 4.8 measured
    spectrum, checks = simulate._lattice_plan(spec, n, M)
    held = spectrum.nbytes + sum(block.nbytes for _, _, block in checks)
    assert held + sum(buf.nbytes for buf in simulate._workspace(M)) <= 4 * grid


class _Overhanging(UniformWeight):
    """An indicator reaching past the unit square, which no weight variant does."""

    def evaluate(self, s, t):
        return np.where((0.0 <= s) & (s <= 1.5) & (0.0 <= t) & (t <= 1.5), 1.0, 0.0)


def test_a_kernel_past_the_unit_square_fails_the_spot_check():
    sig = sample_volatility(ConstantVol(1.0), 16, seed=0)
    with pytest.raises(QuadratureError, match="direct summation"):
        simulate_lattice(_Overhanging(), sig, 4, 16)


class _NotANumber(UniformWeight):
    """An indicator whose value is NaN, which the spot check cannot see."""

    def evaluate(self, s, t):
        return np.where(super().evaluate(s, t) != 0.0, np.nan, 0.0)


def test_lattice_values_are_refused_unless_square_and_finite():
    for shape in ((4, 5), (5,), (2, 2, 2)):
        with pytest.raises(ValueError, match="square 2-D"):
            increments(np.zeros(shape), 1)
    assert increments(np.zeros((5, 5)), 4).shape == (1, 1)  # n = 4 is read off the array
    sig = sample_volatility(ConstantVol(1.0), 16, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        simulate_lattice(_NotANumber(), sig, 4, 16)


# ---------------------------------------------------------------- increments

def test_increments_of_product_field_are_cellwise_products():
    # Y(s,t) = s*t has four-corner difference (1/n)^2 over every lattice cell,
    # whichever k-th cells the thinning keeps
    n = 4
    s = np.arange(n + 1) / n
    for k in (1, 2, 4):
        inc = increments(np.outer(s, s), k)
        assert type(inc) is np.ndarray and not inc.flags.writeable
        assert inc.shape == (n // k, n // k)
        assert np.allclose(inc, 1.0 / n**2, rtol=0, atol=1e-16)


def test_increments_kill_affine_fields():
    n = 6
    s = np.arange(n + 1) / n
    vals = 2.0 - 3.0 * s[:, None] + 0.5 * s[None, :]
    got = increments(vals, 2)
    assert np.allclose(got, 0.0, rtol=0, atol=1e-15)  # 1/6 is not dyadic


def test_increments_validate_the_thinning():
    values = np.zeros((5, 5))
    with pytest.raises(ValueError, match="thinning"):
        increments(values, 0)
    with pytest.raises(ValueError, match="thinning"):
        increments(values, 5)
    with pytest.raises(ValueError, match="integer"):
        increments(values, 1.5)


# ---------------------------------------------------- exact covariance engine

def test_uniform_covariance_matches_hand_derivation():
    # n=8, k=4: one-axis difference of the window indicator is +1 / -1 on two
    # strips of width 1/n; neighbours k/n = window width apart share one strip,
    # giving axis covariance -(1/n)(2/n) against variance (2/n)^2 per axis:
    # correlation -1/2 on one axis, +1/4 on both, times sigma0^2 c_n = 0.25.
    sig = sample_volatility(ConstantVol(2.0), 16, seed=0)
    cov = increment_covariance(UniformWeight(), sig, 8, 4)
    expected = np.array(
        [
            [0.25, -0.125, -0.125, 0.0625],
            [-0.125, 0.25, 0.0625, -0.125],
            [-0.125, 0.0625, 0.25, -0.125],
            [0.0625, -0.125, -0.125, 0.25],
        ]
    )
    assert np.allclose(cov.matrix, expected, rtol=0, atol=1e-15)
    assert rho_bar(cov) == pytest.approx(0.5, abs=1e-14)
    assert cov.c_n == pytest.approx(4.0 / 64, rel=1e-12)


@pytest.mark.parametrize("weight, vol", [
    (UniformWeight(), DeterministicVol("sine_product")),
    (SingularWeight(alpha=0.75), ConstantVol(1.5)),
])
def test_both_engines_build_a_symmetric_matrix_with_a_positive_diagonal(weight, vol):
    # what IncrementCovariance relies on instead of checking it
    cov = increment_covariance(weight, sample_volatility(vol, 16, seed=0), 8, 2)
    assert cov.matrix.shape == (cov.dim, cov.dim) == (16, 16)
    assert np.array_equal(cov.matrix, cov.matrix.T)
    assert np.all(np.diag(cov.matrix) > 0.0)


def test_the_container_leaves_the_callers_arrays_writeable():
    matrix, indices = np.eye(2), np.array([[1, 1], [1, 2]])
    cov = IncrementCovariance(matrix=matrix, indices=indices, c_n=1.0)
    assert matrix.flags.writeable and indices.flags.writeable
    assert cov.matrix is matrix and cov.dim == 2
    # increment_covariance marks the arrays it builds itself
    built = increment_covariance(UniformWeight(), sample_volatility(ConstantVol(1.0), 16, seed=0),
                                 8, 4)
    assert not built.matrix.flags.writeable and not built.indices.flags.writeable


def test_strips_engine_agrees_with_stationary_engine():
    from ambitlab.simulate import _G2_QUAD, _stationary_gamma

    sig = sample_volatility(ConstantVol(1.5), 16, seed=0)
    cov = increment_covariance(UniformWeight(), sig, 8, 2)
    gam = _stationary_gamma(UniformWeight(), 8, 2, 4, _G2_QUAD)
    idx = cov.indices
    di = idx[:, None, 0] - idx[None, :, 0]
    dj = idx[:, None, 1] - idx[None, :, 1]
    alt = 1.5**2 * gam[di + 3, dj + 3]
    assert np.allclose(cov.matrix, alt, rtol=1e-13, atol=1e-16)


def test_strips_engine_with_varying_volatility_against_cell_sums():
    # independent reference: loop over volatility cells and accumulate the
    # exact overlap area of each signed strip rectangle (all strip edges sit
    # on cell edges for these resolutions, so both routes are exact)
    sig = sample_volatility(DeterministicVol("sine_product"), 16, seed=0)
    edges = np.linspace(-1.0, 1.0, 17)
    sq = sig.values**2
    cell = (edges[1] - edges[0]) ** 2

    def overlap(iv, lo, hi):
        return max(0.0, min(iv[1], hi) - max(iv[0], lo))

    for k in (4, 1):  # dim 4 and dim 64
        cov = increment_covariance(UniformWeight(), sig, 8, k)
        arrays = UniformWeight().signed_strips(8, k / 8, cov.indices)
        # one (up, um, vp, vm) tuple of ((lo, hi), sign) per index
        strips = [tuple(((lo[a], hi[a]), sign) for (lo, hi), sign in arrays)
                  for a in range(cov.dim)]
        ref = np.zeros_like(cov.matrix)
        for a, (upa, uma, vpa, vma) in enumerate(strips):
            for b, (upb, umb, vpb, vmb) in enumerate(strips):
                acc = 0.0
                for i in range(16):
                    for j in range(16):
                        us = sum(
                            s1 * s2 * overlap(
                                (max(iv1[0], iv2[0]), min(iv1[1], iv2[1])),
                                edges[i],
                                edges[i + 1],
                            )
                            for iv1, s1 in (upa, uma)
                            for iv2, s2 in (upb, umb)
                            if min(iv1[1], iv2[1]) > max(iv1[0], iv2[0])
                        )
                        if us == 0.0:
                            continue
                        vs = sum(
                            s1 * s2 * overlap(
                                (max(iv1[0], iv2[0]), min(iv1[1], iv2[1])),
                                edges[j],
                                edges[j + 1],
                            )
                            for iv1, s1 in (vpa, vma)
                            for iv2, s2 in (vpb, vmb)
                            if min(iv1[1], iv2[1]) > max(iv1[0], iv2[0])
                        )
                        acc += sq[i, j] * us * vs
                ref[a, b] = acc
        assert cov.dim == (8 // k) ** 2
        assert np.allclose(cov.matrix, ref, rtol=1e-12, atol=1e-16)
    assert cell > 0  # silence linters: cell area folds into the overlaps


def test_singular_covariance_diagonal_is_cn():
    sig = sample_volatility(ConstantVol(1.0), 16, seed=0)
    sw = SingularWeight(alpha=0.75)
    cov = increment_covariance(sw, sig, 8, 4)
    assert np.allclose(np.diag(cov.matrix), compute_cn(sw, 8), rtol=1e-12)
    # negative dependence dominates among thinned neighbours of this kernel
    assert rho_bar(cov) < 0.2


def test_covariance_rejects_unsupported_combinations():
    sine = sample_volatility(DeterministicVol("sine_product"), 16, seed=0)
    const = sample_volatility(ConstantVol(1.0), 16, seed=0)
    with pytest.raises(ValueError, match="simulation route"):
        increment_covariance(SingularWeight(alpha=0.75), sine, 8, 4)
    with pytest.raises(ValueError, match="closed-form lattice autocorrelation"):
        increment_covariance(
            SingularWeight(alpha=0.75, ell=SlowFunction("cos_quarter")),
            const,
            8,
            4,
        )
    with pytest.raises(ValueError, match="cap"):
        increment_covariance(UniformWeight(), const, 256, 4)
    with pytest.raises(ValueError, match="thinning"):
        increment_covariance(UniformWeight(), const, 8, 0)
    # fractional sizes are refused, not truncated; integer-valued floats pass
    with pytest.raises(ValueError, match="integers"):
        increment_covariance(UniformWeight(), const, 8.7, 2)
    with pytest.raises(ValueError, match="integers"):
        increment_covariance(UniformWeight(), const, 8, 2.5)
    assert increment_covariance(UniformWeight(), const, 8.0, 2.0).dim == 16
    with pytest.raises(ValueError, match="simulation route"):
        increment_covariance(TriangleWeight(alpha=0.75), const, 8, 4)


def test_covariance_container_validation():
    with pytest.raises(ValueError, match="needs at least two"):
        rho_bar(
            IncrementCovariance(
                matrix=np.array([[1.0]]), indices=np.array([[1, 1]]),
                c_n=0.0625,
            )
        )


# ----------------------------------------------------- kernel autocorrelation

def test_singular_autocorrelation_frozen_values():
    # frozen from this engine; cross-checked against scipy.integrate.nquad
    # with singular 'points' hints, which agrees within its own reported
    # error estimate at every offset (tightest cases to ~4e-10)
    from ambitlab.simulate import _G2_QUAD

    sw = SingularWeight(alpha=0.75)
    d = 1.0 / 128.0
    assert sw.autocorrelation(37 * d, 39 * d, _G2_QUAD) == pytest.approx(
        0.398325244617, rel=1e-9
    )
    assert sw.autocorrelation(37 * d, -39 * d, _G2_QUAD) == pytest.approx(
        0.169111397608, rel=1e-9
    )
    assert sw.autocorrelation(5 * d, 0.0, _G2_QUAD) == pytest.approx(
        1.41186467062, rel=1e-9
    )
    assert sw.autocorrelation(3 * d, 3 * d, _G2_QUAD) == pytest.approx(
        1.44353545125, rel=1e-9
    )


def test_singular_autocorrelation_symmetries():
    from ambitlab.simulate import _G2_QUAD

    sw = SingularWeight(alpha=0.6)
    base = sw.autocorrelation(0.1, 0.275, _G2_QUAD)
    # swapping the axes mirrors the kernel across the diagonal; negating the
    # offset is a change of variable in the integral
    assert sw.autocorrelation(0.275, 0.1, _G2_QUAD) == pytest.approx(base, rel=1e-11)
    assert sw.autocorrelation(-0.1, -0.275, _G2_QUAD) == pytest.approx(base, rel=1e-11)
    assert sw.autocorrelation(1.0, 0.5, _G2_QUAD) == 0.0


# ------------------------------------------------------------- exact sampling

def test_exact_sampler_reproduces_the_covariance():
    sig = sample_volatility(ConstantVol(1.0), 16, seed=0)
    cov = increment_covariance(SingularWeight(alpha=0.75), sig, 8, 4)
    draws = sample_increments_exact(cov, seed=3, reps=40_000)
    emp = draws.T @ draws / len(draws)
    scale = np.max(np.abs(cov.matrix))
    assert np.max(np.abs(emp - cov.matrix)) < 5 * scale * np.sqrt(2 / 40_000)
    again = sample_increments_exact(cov, seed=3, reps=40_000.0)  # an integer-valued float
    assert np.array_equal(draws, again)


def test_exact_sampler_rejects_indefinite_matrices():
    cov = IncrementCovariance(
        matrix=np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues 3 and -1
        indices=np.array([[1, 1], [1, 2]]),
        c_n=0.0625,
    )
    with pytest.raises(ValueError, match="PSD"):
        sample_increments_exact(cov, seed=0, reps=10)
    with pytest.raises(ValueError, match="replication"):
        sample_increments_exact(cov, seed=0, reps=0)
    with pytest.raises(ValueError, match="integer number of replications"):
        sample_increments_exact(cov, seed=0, reps=2.9)
