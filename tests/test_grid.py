"""Mesh, fields, and the discrete gradient/divergence calculus."""

import math

import numpy as np
import pytest

from crossdiff.exprs import parse
from crossdiff.grid import (Field, Grid, divergence, divergence_arrays,
                            face_average_arrays, face_gradient,
                            grad_l2_norm, grad_sq_sum, gradient_arrays,
                            integral, l2_norm, laplacian, mean, member_sums)

# ---------------------------------------------------------------------------
# grid geometry


def test_grid_1d_geometry():
    g = Grid((8,), (1.0,))
    assert g.dim == 1
    assert g.spacing == (0.125,)
    assert g.cell_volume == 0.125
    assert g.cell_count == 8
    assert np.allclose(g.axis_centers(0), (np.arange(8) + 0.5) * 0.125)


def test_grid_2d_geometry():
    g = Grid((3, 4), (1.0, 2.0))
    assert g.dim == 2
    assert g.spacing == (1.0 / 3.0, 0.5)
    assert g.cell_volume == pytest.approx((1.0 / 3.0) * 0.5, rel=1e-15)
    assert g.cell_count == 12
    x, y = g.centers()
    assert x.shape == (3, 4) and y.shape == (3, 4)
    assert y[0, 1] == pytest.approx(0.75)


def test_grid_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Grid((0,), (1.0,))
    with pytest.raises(ValueError):
        Grid((4, 4, 4), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Grid((4,), (-1.0,))
    with pytest.raises(ValueError):
        Grid((4, 4), (1.0,))


def test_field_from_expression_and_validation():
    g = Grid((16,), (1.0,))
    f = Field.from_expr(g, parse("cos(pi*x)"))
    assert f.values.shape == (16,)
    assert f.values[0] == pytest.approx(math.cos(math.pi * 0.03125))
    with pytest.raises(ValueError):
        Field(g, np.zeros(7))
    with pytest.raises(ValueError):
        Field(g, np.full(16, math.nan))


def test_field_from_constant_expression_broadcasts():
    g = Grid((4, 5), (1.0, 1.0))
    f = Field.from_expr(g, parse("2"))
    assert np.array_equal(f.values, np.full((4, 5), 2.0))


# ---------------------------------------------------------------------------
# face gradient


def test_gradient_of_constant_is_zero_everywhere():
    g = Grid((9,), (2.0,))
    (gf,) = face_gradient(Field.full(g, 3.7))
    assert np.array_equal(gf, np.zeros(10))


def test_gradient_of_linear_data_is_exact():
    g = Grid((8,), (1.0,))
    f = Field(g, g.axis_centers(0).copy())
    (gf,) = face_gradient(f)
    assert np.array_equal(gf[1:-1], np.ones(7))
    assert gf[0] == 0.0 and gf[-1] == 0.0  # no-flux encoding


def test_boundary_faces_zero_regardless_of_data():
    g = Grid((6, 5), (1.0, 1.0))
    rng = np.random.default_rng(0)
    gx, gy = gradient_arrays(g, rng.standard_normal(g.shape))
    assert np.array_equal(gx[0, :], np.zeros(5))
    assert np.array_equal(gx[-1, :], np.zeros(5))
    assert np.array_equal(gy[:, 0], np.zeros(6))
    assert np.array_equal(gy[:, -1], np.zeros(6))


def test_gradient_2d_linear_in_each_axis():
    g = Grid((4, 6), (1.0, 3.0))
    x, y = g.centers()
    gx, gy = gradient_arrays(g, 2.0 * x + 5.0 * y)
    assert np.allclose(gx[1:-1, :], 2.0, atol=1e-13)
    assert np.allclose(gy[:, 1:-1], 5.0, atol=1e-13)


# ---------------------------------------------------------------------------
# divergence


def test_divergence_of_zero_flux():
    g = Grid((5,), (1.0,))
    out = divergence(g, (np.zeros(6),))
    assert np.array_equal(out.values, np.zeros(5))


def test_laplacian_matches_hand_stencil():
    # constant plus a single spike on 4 cells, h = 1/4: the three-point
    # stencil gives (0, 16, -32, 16)
    g = Grid((4,), (1.0,))
    for c in (0.0, 2.5):
        f = Field(g, np.array([c, c, c + 1.0, c]))
        lap = laplacian(f)
        assert np.array_equal(lap.values, np.array([0.0, 16.0, -32.0, 16.0]))


def test_divergence_integral_vanishes_for_interior_flux():
    rng = np.random.default_rng(3)
    g1 = Grid((17,), (1.5,))
    flux = np.zeros(18)
    flux[1:-1] = rng.standard_normal(16)
    total = integral(divergence(g1, (flux,)))
    assert abs(total) <= 1e-14

    g2 = Grid((6, 9), (1.0, 2.0))
    fx = np.zeros((7, 9))
    fy = np.zeros((6, 10))
    fx[1:-1, :] = rng.standard_normal((5, 9))
    fy[:, 1:-1] = rng.standard_normal((6, 8))
    total = integral(divergence(g2, (fx, fy)))
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
    lhs = float(np.sum(divergence_arrays(grid, tuple(fluxes)) * f)) * vol
    rhs = -sum(float(np.sum(fl * gf)) for fl, gf
               in zip(fluxes, gradient_arrays(grid, f))) * vol
    assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs))


@pytest.mark.parametrize("grid", [Grid((19,), (1.0,)),
                                  Grid((8, 5), (1.0, 3.0))])
def test_laplacian_symmetry(grid):
    rng = np.random.default_rng(5)
    f = Field(grid, rng.standard_normal(grid.shape))
    h = Field(grid, rng.standard_normal(grid.shape))
    lhs = float(np.sum(laplacian(f).values * h.values))
    rhs = float(np.sum(f.values * laplacian(h).values))
    assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# quadrature and norms


def test_integral_of_constant_is_measure_times_value():
    g = Grid((6, 4), (2.0, 3.0))
    assert integral(Field.full(g, 2.5)) == pytest.approx(2.5 * 6.0, rel=1e-15)
    assert mean(Field.full(g, 2.5)) == pytest.approx(2.5, rel=1e-15)


def test_integral_of_cosine_mode_vanishes():
    g = Grid((256,), (1.0,))
    f = Field.from_expr(g, parse("cos(pi*x)"))
    assert abs(integral(f)) <= 1e-3  # midpoint rule; actually far smaller


def test_l2_norm_of_cosine_mode():
    g = Grid((256,), (1.0,))
    f = Field.from_expr(g, parse("cos(pi*x)"))
    assert l2_norm(f) == pytest.approx(math.sqrt(0.5), rel=1e-3)


def test_grad_l2_norm_of_constant_is_zero():
    g = Grid((12,), (1.0,))
    assert grad_l2_norm(Field.full(g, 4.2)) == 0.0


def test_grad_l2_norm_matches_grad_sq_sum():
    g = Grid((9, 7), (1.0, 2.0))
    rng = np.random.default_rng(2)
    a = rng.standard_normal(g.shape)
    assert grad_l2_norm(Field(g, a)) == pytest.approx(
        math.sqrt(grad_sq_sum(g, a)), rel=1e-15)


def test_grad_l2_norm_of_cosine_mode():
    # |d/dx cos(pi x)|_L2 = pi/sqrt(2); face gradients are second order
    g = Grid((256,), (1.0,))
    f = Field.from_expr(g, parse("cos(pi*x)"))
    assert grad_l2_norm(f) == pytest.approx(math.pi / math.sqrt(2.0),
                                            rel=1e-3)


# ---------------------------------------------------------------------------
# face averaging


def test_face_average_interior_and_boundary():
    g = Grid((4,), (1.0,))
    (m,) = face_average_arrays(g, np.array([1.0, 3.0, 5.0, 7.0]))
    assert np.array_equal(m, np.array([1.0, 2.0, 4.0, 6.0, 7.0]))


def test_face_average_2d_shapes():
    g = Grid((3, 4), (1.0, 1.0))
    mx, my = face_average_arrays(g, np.arange(12.0).reshape(3, 4))
    assert mx.shape == (4, 4) and my.shape == (3, 5)
    assert mx[1, 0] == pytest.approx(2.0)  # mean of 0 and 4
    assert my[0, 1] == pytest.approx(0.5)  # mean of 0 and 1


# ---------------------------------------------------------------------------
# a leading member axis


@pytest.mark.parametrize("grid", [Grid((37,), (1.3,)),
                                  Grid((9, 14), (0.7, 2.1))])
def test_batched_kernels_equal_member_kernels_bitwise(grid):
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((3,) + grid.shape) + 2.0
    faces = gradient_arrays(grid, batch)
    flux = tuple(rng.standard_normal(f.shape) for f in faces)
    averages = face_average_arrays(grid, batch)
    div = divergence_arrays(grid, flux)
    sums = member_sums(batch)
    assert div.shape == batch.shape and len(sums) == 3
    for i, a in enumerate(batch):
        for got, want in zip(faces, gradient_arrays(grid, a)):
            assert np.array_equal(got[i], want)
        for got, want in zip(averages, face_average_arrays(grid, a)):
            assert np.array_equal(got[i], want)
        member_flux = tuple(f[i] for f in flux)
        assert np.array_equal(div[i], divergence_arrays(grid, member_flux))
        assert sums[i] == float(np.sum(a))


@pytest.mark.parametrize("n", [7, 33, 128, 257, 1000, 4097])
def test_member_sums_equal_separate_sums_bitwise(n):
    grid = Grid((n,), (1.0,))
    rng = np.random.default_rng(n)
    batch = rng.standard_normal((4, n)) * rng.uniform(0.1, 10.0, (4, 1))
    assert member_sums(batch) == [float(np.sum(a)) for a in batch]
    faces = gradient_arrays(grid, batch)[0]
    assert member_sums(faces * faces) == [float(np.sum(f * f))
                                          for f in faces]
