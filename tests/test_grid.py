"""Mesh, cell values, and the discrete gradient/divergence calculus."""

import math
import tracemalloc

import numpy as np
import pytest

from crossdiff.exprs import parse
from crossdiff.grid import (MAX_CELLS, FaceData, Grid, divergence_arrays,
                            face_average_arrays, grad_sq_sum, gradient_arrays,
                            member_sums)
from crossdiff.coeffs import build_preset
from crossdiff.solver import SimConfig, Simulation


def laplacian(grid, a):
    return divergence_arrays(grid, gradient_arrays(grid, a)).reshape(a.shape)


def integral(grid, a):
    return float(np.sum(a)) * grid.cell_volume


def centers(grid):
    """The cell-centre coordinates, each a read-only view of its axis in
    grid.axes broadcast to the grid shape."""
    return tuple(np.broadcast_to(a, grid.shape) for a in grid.axes.values())


# The face layout the kernels used before the flat one, as a reference: per
# axis an array of the cell data's shape with n + 1 entries along the axis,
# [lower boundary, interior, upper boundary].  Cell data of N flat cells is
# read as (N / (n s), n, s) for an axis of n cells and stride s, so that
# the axis is the middle one.

def shaped_faces(grid, shape, axis, faces):
    """faces, of shape (N / (n s), n + 1, s), in the old layout."""
    k = len(shape) - grid.dim + axis
    return faces.reshape(shape[:k] + (shape[k] + 1,) + shape[k + 1:])


def reference_gradients(grid, a):
    """The face gradients in the old layout, boundary faces 0."""
    out = []
    for axis, (n, s, h) in enumerate(zip(grid.shape, grid.strides,
                                         grid.spacing)):
        x = a.reshape(-1, n, s)
        g = np.zeros((len(x), n + 1, s))
        g[:, 1:-1] = (x[:, 1:] - x[:, :-1]) / h
        out.append(shaped_faces(grid, a.shape, axis, g))
    return tuple(out)


def reference_averages(grid, a):
    """The face means in the old layout, each boundary face the value of
    its cell."""
    out = []
    for axis, (n, s) in enumerate(zip(grid.shape, grid.strides)):
        x = a.reshape(-1, n, s)
        m = np.concatenate([x[:, :1], 0.5 * (x[:, 1:] + x[:, :-1]),
                            x[:, -1:]], axis=1)
        out.append(shaped_faces(grid, a.shape, axis, m))
    return tuple(out)


def padded(grid, axis, faces):
    """Face data of one axis in the old layout as the flat padded vector:
    s zeros, then each cell's upper face in the flat order of the cells."""
    n, s = grid.shape[axis], grid.strides[axis]
    upper = faces.reshape(-1, n + 1, s)[:, 1:]
    return np.concatenate([np.zeros(s), upper.reshape(-1)])

# ---------------------------------------------------------------------------
# grid geometry


def test_grid_1d_geometry():
    g = Grid((8,), (1.0,))
    assert g.dim == 1
    assert g.spacing == (0.125,)
    assert g.cell_volume == 0.125
    assert g.cell_count == 8
    assert np.allclose(g.axes["x"], (np.arange(8) + 0.5) * 0.125)


def test_grid_2d_geometry():
    g = Grid((3, 4), (1.0, 2.0))
    assert g.dim == 2
    assert g.spacing == (1.0 / 3.0, 0.5)
    assert g.cell_volume == pytest.approx((1.0 / 3.0) * 0.5, rel=1e-15)
    assert g.cell_count == 12
    x, y = g.axes["x"], g.axes["y"]
    assert x.shape == (3, 1) and y.shape == (1, 4)
    assert np.array_equal(x[:, 0], (np.arange(3) + 0.5) * g.spacing[0])
    assert np.array_equal(y[0], (np.arange(4) + 0.5) * 0.5)
    assert y[0, 1] == pytest.approx(0.75)
    assert not x.flags.writeable and not y.flags.writeable


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Grid((0,), (1.0,))
    with pytest.raises(ValueError):
        Grid((4, 4, 4), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Grid((4,), (-1.0,))
    with pytest.raises(ValueError):
        Grid((4, 4), (1.0,))


def test_the_cell_bound_admits_exactly_max_cells():
    # a Grid allocates nothing until its axes are read, so the bound is
    # checked at its edge without a cell array; 10^400 cells overflowed
    # the spacing's division before the bound
    for shape in ((MAX_CELLS,), (2, MAX_CELLS // 2), (2048, 2048)):
        assert Grid(shape, (1.0,) * len(shape)).cell_count <= MAX_CELLS
    for shape in ((MAX_CELLS + 1,), (2, MAX_CELLS // 2 + 1), (2049, 2048),
                  (10 ** 400,), (2, 10 ** 400)):
        with pytest.raises(ValueError, match=f"MAX_CELLS = {MAX_CELLS}"):
            Grid(shape, (1.0,) * len(shape))


def test_field_from_expression_and_validation():
    g = Grid((16,), (1.0,))
    f = g.cell_values(parse("cos(pi*x)"))
    assert f.shape == (16,)
    assert f[0] == pytest.approx(math.cos(math.pi * 0.03125))
    assert g.cell_values(parse("x*t"), 2.0)[0] == 2.0 * 0.03125
    ones = np.ones(16)
    cfg = SimConfig(grid=g, model=build_preset(1, {"chi": 1.0}), dt=1.0,
                    t_end=1.0)
    with pytest.raises(ValueError, match="grid shape"):
        Simulation(cfg, members=[(np.zeros(7), np.ones(7))])
    assert SimConfig.data_problems(ones, ones) == []
    for bad in (np.full(16, math.nan), np.full(16, math.inf)):
        assert SimConfig.data_problems(bad, ones) \
            == ["field values must be finite"]
        assert SimConfig.data_problems(ones, bad) \
            == ["field values must be finite"]


def test_a_one_axis_field_on_a_2d_grid_is_a_view_of_its_axis():
    # x is bound as a column of n0 centres, so cos(pi*x) is evaluated on
    # n0 cells and broadcast along y, read-only, not copied
    g = Grid((4, 5), (1.0, 1.0))
    f = g.cell_values(parse("cos(pi*x)"))
    assert f.shape == (4, 5) and f.strides == (8, 0)
    assert not f.flags.writeable
    assert np.array_equal(f[:, 0], np.cos(np.pi * g.axes["x"][:, 0]))


def test_field_from_constant_expression_broadcasts():
    g = Grid((4, 5), (1.0, 1.0))
    f = g.cell_values(parse("2"))
    assert np.array_equal(f, np.full((4, 5), 2.0))
    assert not f.flags.writeable


# ---------------------------------------------------------------------------
# face gradient


def test_gradient_of_constant_is_zero_everywhere():
    g = Grid((9,), (2.0,))
    (gf,) = gradient_arrays(g, np.full(g.shape, 3.7))
    assert np.array_equal(gf, np.zeros(10))


def test_gradient_of_linear_data_is_exact():
    g = Grid((8,), (1.0,))
    (gf,) = gradient_arrays(g, g.axes["x"])
    assert np.array_equal(gf[1:-1], np.ones(7))
    assert gf[0] == 0.0 and gf[-1] == 0.0  # no-flux encoding


def test_boundary_faces_zero_regardless_of_data():
    g = Grid((6, 5), (1.0, 1.0))
    rng = np.random.default_rng(0)
    gx, gy = gradient_arrays(g, rng.standard_normal(g.shape))
    # x: the lead, the lower faces of row 0, and the upper faces of row 5
    assert np.array_equal(gx[:5], np.zeros(5))
    assert np.array_equal(gx[30:], np.zeros(5))
    # y: the lead, and the upper face of each row's last cell, which is
    # also the lower face of the next row's first cell
    assert gy[0] == 0.0
    assert np.array_equal(gy[5::5], np.zeros(6))


def test_gradient_2d_linear_in_each_axis():
    g = Grid((4, 6), (1.0, 3.0))
    x, y = centers(g)
    gx, gy = gradient_arrays(g, 2.0 * x + 5.0 * y)
    assert np.allclose(gx[6:24], 2.0, atol=1e-13)  # rows 0 to 2
    assert np.allclose(gy[1:].reshape(4, 6)[:, :5], 5.0, atol=1e-13)


# ---------------------------------------------------------------------------
# divergence


def test_divergence_of_zero_flux():
    g = Grid((5,), (1.0,))
    out = divergence_arrays(g, (np.zeros(6),))
    assert np.array_equal(out, np.zeros(5))


def test_laplacian_matches_hand_stencil():
    # constant plus a single spike on 4 cells, h = 1/4: the three-point
    # stencil gives (0, 16, -32, 16)
    g = Grid((4,), (1.0,))
    for c in (0.0, 2.5):
        lap = laplacian(g, np.array([c, c, c + 1.0, c]))
        assert np.array_equal(lap, np.array([0.0, 16.0, -32.0, 16.0]))


def test_divergence_integral_vanishes_for_interior_flux():
    rng = np.random.default_rng(3)
    g1 = Grid((17,), (1.5,))
    flux = np.zeros(18)
    flux[1:-1] = rng.standard_normal(16)
    total = integral(g1, divergence_arrays(g1, (flux,)))
    assert abs(total) <= 1e-14

    g2 = Grid((6, 9), (1.0, 2.0))
    fx = np.zeros(9 + 54)
    fy = np.zeros(1 + 54)
    fx[9:54] = rng.standard_normal(45)  # upper faces of rows 0 to 4
    fy[1:].reshape(6, 9)[:, :8] = rng.standard_normal((6, 8))
    total = integral(g2, divergence_arrays(g2, (fx, fy)))
    assert abs(total) <= 1e-14


@pytest.mark.parametrize("grid", [Grid((23,), (1.0,)),
                                  Grid((7, 11), (2.0, 1.0))])
def test_summation_by_parts(grid):
    # sum div(flux) f vol = -sum_faces flux * grad(f) vol, zero-boundary flux
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.shape)
    fluxes = []
    for gf in gradient_arrays(grid, rng.standard_normal(grid.shape)):
        fluxes.append(rng.standard_normal(gf.shape) * (gf != 0.0))
    vol = grid.cell_volume
    div = divergence_arrays(grid, tuple(fluxes)).reshape(f.shape)
    lhs = float(np.sum(div * f)) * vol
    rhs = -sum(float(np.sum(fl * gf)) for fl, gf
               in zip(fluxes, gradient_arrays(grid, f))) * vol
    assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs))


@pytest.mark.parametrize("grid", [Grid((19,), (1.0,)),
                                  Grid((8, 5), (1.0, 3.0))])
def test_laplacian_symmetry(grid):
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.shape)
    h = rng.standard_normal(grid.shape)
    lhs = float(np.sum(laplacian(grid, f) * h))
    rhs = float(np.sum(f * laplacian(grid, h)))
    assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# quadrature and norms


def test_integral_of_constant_is_measure_times_value():
    g = Grid((6, 4), (2.0, 3.0))
    f = np.full(g.shape, 2.5)
    assert integral(g, f) == pytest.approx(2.5 * 6.0, rel=1e-15)
    assert float(np.mean(f)) == pytest.approx(2.5, rel=1e-15)


def test_integral_of_cosine_mode_vanishes():
    g = Grid((256,), (1.0,))
    f = g.cell_values(parse("cos(pi*x)"))
    assert abs(integral(g, f)) <= 1e-3  # midpoint rule; actually far smaller


def test_l2_norm_of_cosine_mode():
    g = Grid((256,), (1.0,))
    f = g.cell_values(parse("cos(pi*x)"))
    assert math.sqrt(integral(g, f * f)) == pytest.approx(math.sqrt(0.5),
                                                          rel=1e-3)


def test_grad_l2_norm_of_constant_is_zero():
    g = Grid((12,), (1.0,))
    assert grad_sq_sum(g, np.full(g.shape, 4.2)) == 0.0


def test_grad_sq_sum_equals_summation_by_parts():
    # the discrete H^1 seminorm squared is <-lap a, a> by summation by parts
    g = Grid((9, 7), (1.0, 2.0))
    rng = np.random.default_rng(2)
    a = rng.standard_normal(g.shape)
    assert grad_sq_sum(g, a) == pytest.approx(-integral(g, laplacian(g, a) * a),
                                              rel=1e-13)


def test_grad_l2_norm_of_cosine_mode():
    # |d/dx cos(pi x)|_L2 = pi/sqrt(2); face gradients are second order
    g = Grid((256,), (1.0,))
    f = g.cell_values(parse("cos(pi*x)"))
    assert math.sqrt(grad_sq_sum(g, f)) == pytest.approx(
        math.pi / math.sqrt(2.0), rel=1e-3)


# ---------------------------------------------------------------------------
# face averaging


def test_face_average_interior_and_boundary():
    # the lead stays 0; the last cell gives its boundary face its value
    g = Grid((4,), (1.0,))
    (m,) = face_average_arrays(g, np.array([1.0, 3.0, 5.0, 7.0]))
    assert np.array_equal(m, np.array([0.0, 2.0, 4.0, 6.0, 7.0]))


def test_face_average_2d_shapes():
    g = Grid((3, 4), (1.0, 1.0))
    a = np.arange(12.0).reshape(3, 4)
    mx, my = face_average_arrays(g, a)
    assert mx.shape == (4 + 12,) and my.shape == (1 + 12,)
    assert mx[4] == pytest.approx(2.0)  # mean of 0 and 4
    assert my[1] == pytest.approx(0.5)  # mean of 0 and 1
    assert np.array_equal(mx[12:], a[-1])  # the last row's upper faces
    assert np.array_equal(my[4::4], a[:, -1])  # each row's last cell


# ---------------------------------------------------------------------------
# a leading member axis


@pytest.mark.parametrize("grid", [Grid((37,), (1.3,)),
                                  Grid((9, 14), (0.7, 2.1))])
def test_batched_kernels_equal_member_kernels_bitwise(grid):
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((3,) + grid.shape) + 2.0
    cells = grid.cell_count
    faces = gradient_arrays(grid, batch)
    flux = tuple(rng.standard_normal(f.shape) for f in faces)
    averages = face_average_arrays(grid, batch)
    div = divergence_arrays(grid, flux)
    sums = member_sums(batch)
    assert div.shape == (batch.size,) and len(sums) == 3
    for i, a in enumerate(batch):
        # member i's faces are the batch's at its cells, and its flux the
        # batch's s + cells entries from its first cell on
        rows = slice(i * cells, (i + 1) * cells)
        for got, want in zip(faces.data, gradient_arrays(grid, a).data):
            assert np.array_equal(got[rows], want)
        for got, want in zip(averages.data,
                             face_average_arrays(grid, a).data):
            assert np.array_equal(got[rows], want)
        member_flux = tuple(f[i * cells:(i + 1) * cells + s]
                            for f, s in zip(flux, grid.strides))
        assert np.array_equal(div[rows], divergence_arrays(grid, member_flux))
        assert sums[i] == float(np.sum(a))


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("grid", [Grid((37,), (1.3,)),
                                  Grid((9, 14), (0.7, 2.1))])
def test_kernels_equal_written_out_axis_formulas_bitwise(grid, batch):
    # the reference spells out each axis; the divergence sums x, then y
    rng = np.random.default_rng(11)
    a = rng.standard_normal(batch + grid.shape) + 2.0
    h = grid.spacing
    # in the old layout; padded() moves each to the flat one
    if grid.dim == 1:
        hi, lo = np.s_[..., 1:], np.s_[..., :-1]
        pads = ([(0, 0)] * len(batch) + [(1, 1)],)
        want_grad = (np.pad((a[hi] - a[lo]) / h[0], pads[0]),)
        mean = np.concatenate([a[..., :1], 0.5 * (a[hi] + a[lo]),
                               a[..., -1:]], axis=-1)
        want_avg = (mean,)
    else:
        xhi, xlo = np.s_[..., 1:, :], np.s_[..., :-1, :]
        yhi, ylo = np.s_[..., 1:], np.s_[..., :-1]
        none = [(0, 0)] * len(batch)
        pads = (none + [(1, 1), (0, 0)], none + [(0, 0), (1, 1)])
        want_grad = (np.pad((a[xhi] - a[xlo]) / h[0], pads[0]),
                     np.pad((a[yhi] - a[ylo]) / h[1], pads[1]))
        want_avg = (
            np.concatenate([a[..., :1, :], 0.5 * (a[xhi] + a[xlo]),
                            a[..., -1:, :]], axis=-2),
            np.concatenate([a[..., :1], 0.5 * (a[yhi] + a[ylo]),
                            a[..., -1:]], axis=-1))
    for axis, (got, want) in enumerate(zip(gradient_arrays(grid, a),
                                           want_grad, strict=True)):
        assert np.array_equal(got, padded(grid, axis, want))
    for axis, (got, want) in enumerate(zip(face_average_arrays(grid, a),
                                           want_avg, strict=True)):
        assert np.array_equal(got, padded(grid, axis, want))
    # a flux that vanishes on the boundary faces, as a gradient does
    flux = tuple(np.pad(rng.standard_normal(
        [m - sum(p) for m, p in zip(f.shape, pad)]), pad)
        for f, pad in zip(want_grad, pads))
    if grid.dim == 1:
        want_div = (flux[0][..., 1:] - flux[0][..., :-1]) / h[0]
    else:
        fx, fy = flux
        want_div = ((fx[..., 1:, :] - fx[..., :-1, :]) / h[0]
                    + (fy[..., 1:] - fy[..., :-1]) / h[1])
    got = divergence_arrays(grid, tuple(padded(grid, axis, f)
                                        for axis, f in enumerate(flux)))
    assert np.array_equal(got, want_div.reshape(-1))


@pytest.mark.parametrize("n", [7, 33, 128, 257, 1000, 4097])
def test_member_sums_equal_separate_sums_bitwise(n):
    grid = Grid((n,), (1.0,))
    rng = np.random.default_rng(n)
    batch = rng.standard_normal((4, n)) * rng.uniform(0.1, 10.0, (4, 1))
    assert np.array_equal(member_sums(batch),
                          [float(np.sum(a)) for a in batch])
    faces = reference_gradients(grid, batch)[0]
    assert np.array_equal(member_sums(faces * faces),
                          [float(np.sum(f * f)) for f in faces])


@pytest.mark.parametrize("grid", [Grid((256,), (1.0,)),
                                  Grid((64, 48), (1.0, 2.0))])
def test_batched_grad_sq_sum_equals_member_sums_bitwise(grid):
    rng = np.random.default_rng(17)
    batch = rng.standard_normal((3,) + grid.shape) \
        * rng.uniform(0.1, 10.0, (3,) + (1,) * grid.dim)
    faces = FaceData(grid, batch.shape)
    sums = grad_sq_sum(grid, batch, out=faces)
    assert sums.dtype == np.float64 and sums.shape == (3,)
    assert np.array_equal(sums, [grad_sq_sum(grid, a) for a in batch])
    # out holds the squared gradients
    for f, g in zip(faces, gradient_arrays(grid, batch)):
        assert np.array_equal(f, g * g)


@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("shape", [(7,), (256,), (1000,), (2, 3), (33, 17),
                                   (128, 128)])
def test_grad_sq_sum_is_member_sums_of_its_squared_faces_bitwise(shape,
                                                                 members):
    # per axis, each member's N entries g[s:] of the flat layout, squared
    grid = Grid(shape, (1.0,) * len(shape))
    rng = np.random.default_rng(math.prod(shape) + members)
    batch = rng.standard_normal((members,) + shape) \
        * rng.uniform(0.1, 10.0, (members,) + (1,) * grid.dim)
    want = 0.0
    for s, g in zip(grid.strides, gradient_arrays(grid, batch)):
        want = want + member_sums((g[s:] * g[s:]).reshape(members, -1)) \
            * grid.cell_volume
    assert np.array_equal(grad_sq_sum(grid, batch), want)
    assert np.array_equal(grad_sq_sum(grid, batch, out=FaceData(
        grid, batch.shape)), want)
    for a, member_want in zip(batch, want):
        assert grad_sq_sum(grid, a) == member_want


def traced_peak(call) -> int:
    """The peak of tracemalloc's traced memory over one call, above what
    was traced before it; after a first, untraced call."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_grad_sq_sum_into_out_allocates_nothing_face_sized():
    # summing in the old layout's order copied the 2-D y faces into one
    # run per row, n0 (n1 + 1) doubles (65 KiB here) per call
    grid = Grid((128, 64), (1.0, 1.0))
    a = np.random.default_rng(8).standard_normal((1,) + grid.shape)
    faces = FaceData(grid, a.shape)
    assert traced_peak(lambda: grad_sq_sum(grid, a, out=faces)) < 4096


@pytest.mark.parametrize("shape", [(1, 128, 128), (4, 256)])
def test_kernels_allocate_no_iterator_buffers(shape):
    # each pass is one contiguous ufunc; a strided one made numpy buffer it,
    # 133 to 197 KB per call at 128^2 and 18 to 26 KB at 4 x 256
    grid = Grid(shape[1:], (1.0,) * (len(shape) - 1))
    rng = np.random.default_rng(len(shape))
    a = rng.uniform(0.5, 2.0, shape)
    faces = FaceData(grid, shape)
    out, scratch = np.empty(shape), np.empty(shape)
    for call in (lambda: gradient_arrays(grid, a, out=faces),
                 lambda: face_average_arrays(grid, a, out=faces),
                 lambda: divergence_arrays(grid, faces, out=out,
                                           scratch=scratch)):
        assert traced_peak(call) < 1024
