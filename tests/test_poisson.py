"""Zero-mean Neumann Poisson solve, its H^-1 cross-check, Poincare ratio."""

import math

import numpy as np
import pytest

from crossdiff import poisson
from crossdiff.exprs import parse
from crossdiff.grid import (Grid, divergence_arrays, grad_sq_sum,
                            gradient_arrays)
from crossdiff.poisson import poincare_ratio, solve_neumann_zero_mean
from test_grid import centers


def laplacian(grid: Grid, a: np.ndarray) -> np.ndarray:
    return divergence_arrays(grid, gradient_arrays(grid, a)).reshape(a.shape)


def dense_neg_laplacian(grid: Grid) -> np.ndarray:
    """The negative Neumann Laplacian assembled column by column."""
    n = grid.cell_count
    a = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        a[:, j] = -laplacian(grid, e.reshape(grid.shape)).ravel()
    return a


def dense_pinned_solve(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Oracle: direct solve of the KKT system [[A, 1], [1^T, 0]] where A is
    the dense negative Neumann Laplacian, forcing a zero-mean solution."""
    n = grid.cell_count
    a = dense_neg_laplacian(grid)
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = a
    kkt[:n, n] = 1.0
    kkt[n, :n] = 1.0
    rhs = np.concatenate([(w - w.mean()).ravel(), [0.0]])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n].reshape(grid.shape)


SMALL_GRIDS = [Grid((2,), (1.0,)), Grid((5,), (1.0,)), Grid((16,), (2.5,)),
               Grid((32,), (1.0,)), Grid((4, 4), (1.0, 1.0)),
               Grid((8, 7), (1.0, 2.0)), Grid((16, 12), (2.0, 1.5)),
               Grid((32, 32), (1.0, 1.0))]


@pytest.mark.parametrize("grid", SMALL_GRIDS)
def test_cg_matches_dense_pinned_oracle(grid):
    rng = np.random.default_rng(grid.cell_count)
    w = rng.standard_normal(grid.shape)
    expected = dense_pinned_solve(grid, w)
    sol = solve_neumann_zero_mean(grid, w)
    assert float(np.max(np.abs(sol.psi - expected))) <= 1e-10
    assert sol.grad_sq == grad_sq_sum(grid, sol.psi)


def test_constant_rhs_gives_zero_solution_without_iterations():
    g = Grid((24,), (1.0,))
    sol = solve_neumann_zero_mean(g, np.full(24, 5.0))
    assert np.array_equal(sol.psi, np.zeros(24))
    assert sol.iterations == 0
    assert sol.residual_norm == 0.0


def _near_constant(grid: Grid) -> np.ndarray:
    """A constant produced by cancellation: ~1e-16 noise per cell."""
    x = centers(grid)[0]
    return (1.01 + 0.5 * np.cos(np.pi * x)) - (1.0 + 0.5 * np.cos(np.pi * x))


def test_constant_rhs_up_to_roundoff_takes_the_zero_path():
    # a constant produced by cancellation carries ~1e-16 noise per cell;
    # its projection is not solvable to a relative tolerance and the exact
    # answer is zero
    g = Grid((48,), (1.0,))
    w = _near_constant(g)
    assert np.ptp(w) != 0.0  # the noise is really there
    sol = solve_neumann_zero_mean(g, w)
    assert np.array_equal(sol.psi, np.zeros(48))
    assert sol.iterations == 0


def test_solution_mean_is_zero():
    g = Grid((40,), (1.0,))
    rng = np.random.default_rng(1)
    sol = solve_neumann_zero_mean(g, rng.standard_normal(40))
    assert abs(float(np.mean(sol.psi))) <= 1e-12


def test_residual_contract_holds_on_return():
    # the reported residual is the true one, at roundoff level
    g = Grid((11, 13), (1.0, 1.0))
    rng = np.random.default_rng(9)
    w = rng.standard_normal(g.shape)
    sol = solve_neumann_zero_mean(g, w)
    b = w - w.mean()
    residual = b + laplacian(g, sol.psi)
    rel = float(np.linalg.norm(residual.ravel())
                / np.linalg.norm(b.ravel()))
    assert sol.residual_norm == rel
    assert rel <= 1e-13
    assert sol.iterations == 0


def _eigen_error(n: int) -> tuple:
    g = Grid((n,), (1.0,))
    w = g.cell_values(parse("cos(pi*x)"))
    sol = solve_neumann_zero_mean(g, w)
    exact = np.cos(math.pi * g.axes["x"]) / math.pi ** 2
    return float(np.max(np.abs(sol.psi - exact))), sol.iterations


def test_eigenfunction_error_and_order():
    errors = {}
    for n in (64, 128, 256):
        errors[n], iterations = _eigen_error(n)
        assert iterations == 0  # the solve is direct
    assert errors[256] <= 5e-4
    order1 = math.log2(errors[64] / errors[128])
    order2 = math.log2(errors[128] / errors[256])
    assert 1.8 <= order1 <= 2.2
    assert 1.8 <= order2 <= 2.2


def test_solve_is_deterministic_and_linear():
    # repeated solves of one right-hand side agree bitwise, and the solve of
    # a combination is the combination of the solves
    g = Grid((64, 24), (1.0, 0.5))
    rng = np.random.default_rng(4)
    w1, w2 = rng.standard_normal((2,) + g.shape)
    first = solve_neumann_zero_mean(g, w1).psi
    again = solve_neumann_zero_mean(g, w1.copy()).psi
    assert np.array_equal(first, again)
    second = solve_neumann_zero_mean(g, w2).psi
    mixed = solve_neumann_zero_mean(g, 3.0 * w1 - 0.5 * w2)
    expected = 3.0 * first - 0.5 * second
    assert np.allclose(mixed.psi, expected,
                       atol=1e-12 * float(np.max(np.abs(expected))))


def test_solver_linearity():
    g = Grid((48,), (1.0,))
    rng = np.random.default_rng(6)
    w = rng.standard_normal(48)
    one = solve_neumann_zero_mean(g, w).psi
    two = solve_neumann_zero_mean(g, 2.0 * w).psi
    assert np.allclose(two, 2.0 * one, atol=1e-10)


def test_eigenfunction_order_up_to_n_4096():
    errors = [_eigen_error(n)[0] for n in (1024, 2048, 4096)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.8 <= math.log2(coarse / fine) <= 2.2


@pytest.mark.parametrize("grid", [Grid((256,), (1.0,)),
                                  Grid((64, 48), (1.0, 2.0))])
@pytest.mark.parametrize("members", ["random", "zero and near-constant"])
def test_batched_solve_equals_single_solves_bitwise(grid, members):
    rng = np.random.default_rng(12)
    batch = rng.standard_normal((3,) + grid.shape) \
        * np.array([1.0, 1e-6, 1e3]).reshape((3,) + (1,) * grid.dim)
    if members != "random":
        batch[1] = 0.0
        batch[2] = _near_constant(grid)
        assert np.ptp(batch[2]) != 0.0
    sol = solve_neumann_zero_mean(grid, batch)
    assert sol.psi.shape == batch.shape and sol.iterations == 0
    assert sol.grad_sq.shape == sol.residual_norm.shape == (3,)
    for i, w in enumerate(batch):
        alone = solve_neumann_zero_mean(grid, w)
        assert np.array_equal(sol.psi[i], alone.psi)
        assert sol.grad_sq[i] == alone.grad_sq
        assert sol.residual_norm[i] == alone.residual_norm
    if members != "random":
        assert not np.any(sol.psi[1:])
        assert np.array_equal(sol.grad_sq[1:], [0.0, 0.0])
        assert np.array_equal(sol.residual_norm[1:], [0.0, 0.0])


# ---------------------------------------------------------------------------
# H^-1 seminorm: every solve returns ||grad psi||^2, cross-checked against
# the duality <w - mean(w), psi>


def hminus1_seminorm(grid: Grid, w: np.ndarray) -> float:
    return math.sqrt(solve_neumann_zero_mean(grid, w).grad_sq)


def test_seminorm_of_constant_is_zero():
    g = Grid((20,), (1.0,))
    assert hminus1_seminorm(g, np.full(20, 3.0)) == 0.0


def test_seminorm_of_cosine_mode():
    g = Grid((256,), (1.0,))
    w = g.cell_values(parse("cos(pi*x)"))
    # psi = cos(pi x)/pi^2, |grad psi| = |sin(pi x)/pi|_L2 = 1/(pi sqrt 2)
    assert hminus1_seminorm(g, w) == pytest.approx(
        1.0 / (math.pi * math.sqrt(2.0)), abs=1e-3)


def test_seminorm_is_homogeneous():
    g = Grid((40,), (1.0,))
    rng = np.random.default_rng(8)
    w = rng.standard_normal(40)
    a = hminus1_seminorm(g, w)
    b = hminus1_seminorm(g, 2.0 * w)
    assert b == pytest.approx(2.0 * a, rel=1e-10)


def test_seminorm_duality_identity():
    g = Grid((9, 6), (1.0, 1.0))
    rng = np.random.default_rng(10)
    w = rng.standard_normal(g.shape)
    norm = hminus1_seminorm(g, w)
    sol = solve_neumann_zero_mean(g, w)
    duality = float(np.sum((w - w.mean()) * sol.psi)) * g.cell_volume
    assert norm ** 2 == pytest.approx(duality, rel=1e-9)


@pytest.mark.parametrize("grid", [Grid((4096,), (1.0,)),
                                  Grid((256, 256), (1.0, 1.0))])
def test_seminorm_cross_check_passes_at_large_sizes(grid):
    rng = np.random.default_rng(11)
    x = centers(grid)[0]
    for w in (rng.standard_normal(grid.shape), np.cos(math.pi * x)):
        norm = hminus1_seminorm(grid, w)
        assert math.isfinite(norm) and norm > 0.0


def off_spectrum(monkeypatch, rel=1e-7):
    """Make every solve divide by eigenvalues off by a relative rel."""
    exact = poisson._spectrum

    def inexact(grid):
        lam, twiddles = exact(grid)
        return lam * (1.0 + rel), twiddles
    monkeypatch.setattr(poisson, "_spectrum", inexact)


def test_seminorm_cross_check_catches_an_inexact_solve(monkeypatch):
    # a psi off by 1e-7 relative breaks the duality far beyond roundoff
    off_spectrum(monkeypatch)
    g = Grid((4096,), (1.0,))
    w = g.cell_values(parse("cos(pi*x)"))
    with pytest.raises(RuntimeError, match="H\\^-1 cross-check failed"):
        solve_neumann_zero_mean(g, w)
    # in a batch, one failing member fails the solve
    batch = np.stack([np.zeros(g.shape), _near_constant(g), w])
    with pytest.raises(RuntimeError, match="H\\^-1 cross-check failed"):
        solve_neumann_zero_mean(g, batch)



# ---------------------------------------------------------------------------
# Poincare ratio


def test_poincare_ratio_unit_interval():
    g = Grid((128,), (1.0,))
    k = poincare_ratio(g)
    assert abs(k - 1.0 / math.pi ** 2) <= 0.02 / math.pi ** 2


def test_poincare_ratio_h_stable():
    k1 = poincare_ratio(Grid((64,), (1.0,)))
    k2 = poincare_ratio(Grid((128,), (1.0,)))
    assert abs(k1 - k2) / k1 <= 0.02


def test_poincare_ratio_quadratic_in_length():
    k1 = poincare_ratio(Grid((128,), (1.0,)))
    k2 = poincare_ratio(Grid((128,), (2.0,)))
    assert k2 / k1 == pytest.approx(4.0, rel=0.02)


def test_poincare_ratio_unit_square():
    g = Grid((24, 24), (1.0, 1.0))
    k = poincare_ratio(g)
    # first nonzero Neumann eigenvalue of the unit square is pi^2
    assert k == pytest.approx(1.0 / math.pi ** 2, rel=0.02)


def test_poincare_ratio_matches_dense_eigenvalues():
    # an independent value: 1/lambda_1 from the assembled operator
    g = Grid((6, 10), (1.0, 2.5))
    eigenvalues = np.linalg.eigvalsh(dense_neg_laplacian(g))
    assert abs(eigenvalues[0]) <= 1e-12 * eigenvalues[-1]  # the constants
    assert poincare_ratio(g) == pytest.approx(1.0 / eigenvalues[1],
                                              rel=1e-10, abs=0.0)
