"""Zero-mean Neumann Poisson solves and the discrete H^-1 machinery.

Solves -lap(psi) = w - mean(w) with no-flux boundaries and the gauge
integral(psi) = 0 directly.  The cell-centred Neumann Laplacian of the grid
calculus is diagonalised exactly by the DCT-II along each axis: mode k of an
axis with n cells of width h is cos(pi k (i + 1/2) / n), with eigenvalue
(2 - 2 cos(pi k / n)) / h^2, and the eigenvalues of a 2-D grid are the sums
of the axis ones.  So the solve is a forward DCT, a division by the
eigenvalues (the constant mode, the kernel, is set to zero) and an inverse
DCT, computed with numpy.fft through the even extension of the data
(Strang, SIAM Rev. 41, 1999; Makhoul, IEEE TASSP 28, 1980).  There is no
iteration and no tolerance: the forward error is at roundoff level, and the
relative residual is a small multiple of eps times the condition number of
the Laplacian.

Axes of w before the grid axes are members, all solved in one set of array
operations.  Every solve also returns ||grad psi||^2, the square of the
discrete H^-1 seminorm of w.  By summation by parts it equals
<w - mean(w), psi>, and each nonconstant member computes both routes and
cross-checks them against a roundoff model, so every caller gets a checked
value.  poincare_ratio is the best constant K with ||f||^2 <= K ||grad f||^2
over mean-zero fields, 1/lambda_1 for the smallest nonzero eigenvalue
lambda_1 of the same spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (Grid, divergence_arrays, grad_sq_sum, gradient_arrays,
                   member_sums)

EPS = float(np.finfo(float).eps)


@dataclass
class PoissonSolution:
    psi: np.ndarray
    residual_norm: np.ndarray  # true ||b + lap(psi)|| / ||b||, b = w - mean(w)
    iterations: int            # always 0: the solve is direct
    grad_sq: np.ndarray        # ||grad psi||^2 = <b, psi>, cross-checked


@functools.lru_cache(maxsize=8)
def _spectrum(grid: Grid) -> tuple:
    """Per-grid constants of the DCT solve: the eigenvalues of -lap on the
    grid shape, with the constant mode set to inf so that dividing by it
    gives zero, and for each axis the twiddle factors exp(-i pi k / (2n))
    shaped to broadcast along that axis.  Read-only, shared by all callers.
    """
    lam = np.zeros(grid.shape)
    twiddles = []
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        k = np.arange(n)
        shape = [1] * grid.dim
        shape[axis] = n
        lam = lam + ((2.0 - 2.0 * np.cos(math.pi * k / n)) / (h * h)
                     ).reshape(shape)
        twiddle = np.exp(-0.5j * math.pi * k / n).reshape(shape)
        twiddle.flags.writeable = False
        twiddles.append(twiddle)
    lam[(0,) * grid.dim] = math.inf
    lam.flags.writeable = False
    return lam, tuple(twiddles)


def _dct(x: np.ndarray, axis: int, twiddle: np.ndarray) -> np.ndarray:
    """2 sum_i x_i cos(pi k (2i + 1) / (2n)) along `axis`, k < n.

    axis counts back over the grid axes and moves to the first of them, so
    each member is laid out as it would be alone.  The even extension
    y = (x, reversed x) of length 2n has the FFT Y_k = exp(i pi k / (2n))
    times that sum.
    """
    k = x.ndim - twiddle.ndim
    x = np.moveaxis(x, axis, k)
    y = np.fft.rfft(np.concatenate((x, np.flip(x, k)), axis=k), axis=k)
    y = np.split(y, [x.shape[k]], axis=k)[0]
    return np.moveaxis((y * np.moveaxis(twiddle, axis, 0)).real, k, axis)


def _idct(c: np.ndarray, axis: int, twiddle: np.ndarray) -> np.ndarray:
    """Inverse of _dct along `axis`: undo the twiddle (Y_n = 0) and take the
    first half of the inverse FFT of the even extension."""
    k = c.ndim - twiddle.ndim
    c = np.moveaxis(c, axis, k)
    n = c.shape[k]
    y = np.fft.irfft(np.conj(np.moveaxis(twiddle, axis, 0)) * c, 2 * n,
                     axis=k)
    return np.moveaxis(np.split(y, [n], axis=k)[0], k, axis)


def solve_neumann_zero_mean(grid: Grid, w: np.ndarray) -> PoissonSolution:
    """Solve -lap(psi) = w - mean(w), no-flux, integral(psi) = 0, directly.

    Any axes of w before the grid axes are members, each solved bitwise as
    it would be alone; residual_norm and grad_sq have their shape (numpy
    floats for a grid-shaped w).  The compatible right-hand side makes the
    singular Neumann problem well-posed on the mean-zero subspace; a member
    constant up to rounding noise (the projected part falls below roundoff
    relative to w) yields psi = 0 with a zero residual.  The reported
    residual is the true relative residual of the returned psi, from one
    application of the 5-point operator.

    The gradient route G = ||grad psi||^2 is cross-checked against the
    duality route P = <b, psi>, b = w - mean(w), and a RuntimeError is
    raised when they disagree, for any member, by more than this roundoff
    model allows.  For the computed psi, summation by parts gives
    G - P = -<r, psi> exactly, r = b + lap(psi).  The DCT solve is backward
    stable: ||r|| <= c eps (lambda_max ||psi|| + ||b||) with
    lambda_max <= sum 4/h^2 and c growing like log2 N for N terms.  Since
    lambda_1 ||psi||^2 <= G, the lambda_max ||psi||^2 part is at most
    eps cond(-lap) G.  Forming G and P rounds each by at most
    (5 + log2 N) eps times G and ||b|| ||psi||.
    """
    lead = w.ndim - grid.dim
    cells = tuple(range(-grid.dim, 0))
    b = w - w.mean(axis=cells, keepdims=True)
    norm_b, norm_w = (_norms(a, lead) for a in (b, w))
    flat = norm_b <= 1e-13 * norm_w
    lam, twiddles = _spectrum(grid)
    coeffs = b
    for axis, twiddle in enumerate(twiddles, start=-grid.dim):
        coeffs = _dct(coeffs, axis, twiddle)
    psi = coeffs / lam
    for axis, twiddle in enumerate(twiddles, start=-grid.dim):
        psi = _idct(psi, axis, twiddle)
    psi -= psi.mean(axis=cells, keepdims=True)
    psi[flat] = 0.0
    residual = b + divergence_arrays(
        grid, gradient_arrays(grid, psi)).reshape(psi.shape)
    rel = np.divide(_norms(residual, lead), norm_b,
                    out=np.zeros(norm_b.shape), where=~flat)

    grad_sq = grad_sq_sum(grid, psi)
    vol = grid.cell_volume
    duality_sq = member_sums(b * psi, lead) * vol
    norm_psi_sq = member_sums(psi * psi, lead) * vol
    lam_max = sum(4.0 / (h * h) for h in grid.spacing)
    c = 5.0 + math.log2(grid.cell_count * (grid.dim + 1))
    slack = c * EPS * (lam_max * norm_psi_sq + grad_sq
                       + norm_b * np.sqrt(vol * norm_psi_sq))
    failed = np.abs(grad_sq - duality_sq) > slack
    if np.any(failed):
        i = np.argmax(failed)  # the first failing member
        raise RuntimeError(f"H^-1 cross-check failed: gradient route "
                           f"{np.ravel(grad_sq)[i]:.15e} vs duality route "
                           f"{np.ravel(duality_sq)[i]:.15e}")
    return PoissonSolution(psi, rel[()], 0, grad_sq)


def _norms(a: np.ndarray, lead: int) -> np.ndarray:
    """Per member, bitwise np.linalg.norm: BLAS's dot of the flat cells."""
    flat = a.reshape(a.shape[:lead] + (-1,))
    return np.sqrt(np.vecdot(flat, flat))


def poincare_ratio(grid: Grid) -> float:
    """Best discrete constant K in ||f||^2 <= K ||grad f||^2 over mean-zero
    f: 1/lambda_1 for the smallest nonzero eigenvalue of -lap."""
    return 1.0 / float(np.min(_spectrum(grid)[0]))
