"""Uniform cell-centered grids on 1D/2D boxes and their no-flux calculus.

Cells are uniform boxes; degrees of freedom live at cell centers, fluxes on
faces.  Gradients are two-point differences on interior faces and zero on
boundary faces, which encodes homogeneous Neumann data.  divergence and
face_gradient are exact negative adjoints of each other (summation by
parts), so the discrete operators conserve mass and the Neumann Laplacian
divergence(face_gradient(.)) is symmetric with kernel = constants.

Face data is a tuple with one array per axis; the array for axis i has
shape[i] + 1 entries along that axis.  Integrals use midpoint quadrature,
i.e. plain cell sums times the cell volume.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import exprs

FaceData = tuple  # one ndarray per axis


@dataclass(frozen=True)
class Grid:
    shape: tuple
    lengths: tuple

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        lengths = tuple(float(l) for l in self.lengths)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        if len(shape) not in (1, 2) or len(lengths) != len(shape):
            raise ValueError("grids are 1D or 2D boxes")
        if any(n < 2 for n in shape):
            raise ValueError("need at least two cells per axis")
        if any(not (l > 0.0 and math.isfinite(l)) for l in lengths):
            raise ValueError("box lengths must be positive")
        object.__setattr__(self, "_spacing", tuple(
            l / n for l, n in zip(lengths, shape)))

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple:
        return self._spacing

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @property
    def cell_count(self) -> int:
        return math.prod(self.shape)

    def axis_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.shape[axis]) + 0.5) * h

    @functools.cached_property
    def _centers(self) -> tuple:
        axes = [self.axis_centers(a) for a in range(self.dim)]
        if self.dim == 2:
            axes = np.meshgrid(axes[0], axes[1], indexing="ij")
        for a in axes:
            a.flags.writeable = False
        return tuple(axes)

    def centers(self) -> tuple:
        """Cell-center coordinate arrays, each broadcast to the grid shape;
        computed once per grid and read-only."""
        return self._centers

    def coordinate_bindings(self, t: float = 0.0) -> dict:
        return {"t": t, **dict(zip(("x", "y"), self.centers()))}


@dataclass
class Field:
    """One double per cell, row-major, same shape as its grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.values = values

    @classmethod
    def from_expr(cls, grid: Grid, e: exprs.Expr, t: float = 0.0) -> "Field":
        vals = exprs.evaluate(e, grid.coordinate_bindings(t))
        return cls(grid, np.broadcast_to(vals, grid.shape).copy())

    @classmethod
    def full(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


# ---------------------------------------------------------------------------
# array kernels (hot paths work on raw arrays; the Field API wraps them)
#
# The kernels index from the last axis, so an array of shape grid.shape and a
# batch of shape (B, *grid.shape) both work: the leading member axis passes
# through and the output shape follows the input.


def _along(dim: int, axis: int, s) -> tuple:
    return (Ellipsis, s) + (slice(None),) * (dim - 1 - axis)


# per grid dimension, per axis: the index tuples of the upper and the lower
# cell of each interior face, of the interior faces, and of the first and the
# last cell (or face) along that axis
FACE_SLICES = {
    dim: tuple(tuple(_along(dim, axis, s) for s in (
        slice(1, None), slice(None, -1), slice(1, -1), 0, -1))
        for axis in range(dim))
    for dim in (1, 2)
}


def gradient_arrays(grid: Grid, a: np.ndarray) -> FaceData:
    h, s = grid.spacing, a.shape
    if grid.dim == 1:
        ((hi, lo, inner, _, _),) = FACE_SLICES[1]
        g = np.zeros(s[:-1] + (s[-1] + 1,))
        g[inner] = (a[hi] - a[lo]) / h[0]
        return (g,)
    (xhi, xlo, xin, _, _), (yhi, ylo, yin, _, _) = FACE_SLICES[2]
    gx = np.zeros(s[:-2] + (s[-2] + 1, s[-1]))
    gx[xin] = (a[xhi] - a[xlo]) / h[0]
    gy = np.zeros(s[:-1] + (s[-1] + 1,))
    gy[yin] = (a[yhi] - a[ylo]) / h[1]
    return (gx, gy)


def divergence_arrays(grid: Grid, fluxes: FaceData) -> np.ndarray:
    h = grid.spacing
    if grid.dim == 1:
        ((hi, lo, _, _, _),) = FACE_SLICES[1]
        f = fluxes[0]
        return (f[hi] - f[lo]) / h[0]
    (xhi, xlo, _, _, _), (yhi, ylo, _, _, _) = FACE_SLICES[2]
    fx, fy = fluxes
    return (fx[xhi] - fx[xlo]) / h[0] + (fy[yhi] - fy[ylo]) / h[1]


def face_average_arrays(grid: Grid, a: np.ndarray) -> FaceData:
    """Arithmetic mean onto faces; boundary faces copy the adjacent cell."""
    s = a.shape
    if grid.dim == 1:
        ((hi, lo, inner, first, last),) = FACE_SLICES[1]
        m = np.empty(s[:-1] + (s[-1] + 1,))
        m[inner] = 0.5 * (a[hi] + a[lo])
        m[first], m[last] = a[first], a[last]
        return (m,)
    (xhi, xlo, xin, xfirst, xlast), (yhi, ylo, yin, yfirst, ylast) = \
        FACE_SLICES[2]
    mx = np.empty(s[:-2] + (s[-2] + 1, s[-1]))
    mx[xin] = 0.5 * (a[xhi] + a[xlo])
    mx[xfirst], mx[xlast] = a[xfirst], a[xlast]
    my = np.empty(s[:-1] + (s[-1] + 1,))
    my[yin] = 0.5 * (a[yhi] + a[ylo])
    my[yfirst], my[ylast] = a[yfirst], a[ylast]
    return (mx, my)


def member_sums(x: np.ndarray) -> list:
    """Sums over all but the leading (member) axis of a batch, as floats.

    Each member's sum is bitwise np.sum of its own cells (checked from
    1-D n = 7 to 4097 and on 2-D shapes): a contiguous row is reduced by
    the same pairwise summation either way.
    """
    return x.reshape(len(x), -1).sum(axis=1).tolist()


def grad_sq_sum(grid: Grid, a: np.ndarray) -> float:
    """Sum of squared face gradients times the cell volume."""
    vol = grid.cell_volume
    total = 0.0
    for g in gradient_arrays(grid, a):
        total += float(np.sum(g * g)) * vol
    return total


# ---------------------------------------------------------------------------
# Field API

def face_gradient(f: Field) -> FaceData:
    """Two-point gradient on interior faces; boundary faces are zero."""
    return gradient_arrays(f.grid, f.values)


def divergence(grid: Grid, fluxes: FaceData) -> Field:
    """Discrete divergence of face fluxes; integrates to zero when boundary
    fluxes vanish (no-flux conservation)."""
    return Field(grid, divergence_arrays(grid, fluxes))


def laplacian(f: Field) -> Field:
    return divergence(f.grid, face_gradient(f))


def integral(f: Field) -> float:
    return float(np.sum(f.values)) * f.grid.cell_volume


def mean(f: Field) -> float:
    return float(np.mean(f.values))


def l2_norm(f: Field) -> float:
    return math.sqrt(float(np.sum(f.values * f.values)) * f.grid.cell_volume)


def grad_l2_norm(f: Field) -> float:
    """Discrete H^1 seminorm; by summation by parts its square equals
    <-laplacian(f), f> exactly."""
    return math.sqrt(grad_sq_sum(f.grid, f.values))
