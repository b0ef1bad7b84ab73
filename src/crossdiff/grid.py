"""Uniform cell-centered grids on 1D/2D boxes and their no-flux calculus.

Cells are uniform boxes; degrees of freedom live at cell centers, one
double per cell in a plain array of the grid shape, and fluxes on faces.
Gradients are two-point differences on interior faces and zero on boundary
faces, which encodes homogeneous Neumann data.  divergence_arrays and
gradient_arrays are exact negative adjoints of each other (summation by
parts), so the discrete operators conserve mass and the Neumann Laplacian
divergence_arrays(gradient_arrays(.)) is symmetric with kernel = constants.

Face data is a tuple with one array per axis; the array for axis i has
shape[i] + 1 entries along that axis.  Integrals use midpoint quadrature,
i.e. plain cell sums times the cell volume.

Expressions meet the cells through Grid.axes, each coordinate along its
own axis: a term in x alone costs n0 evaluations, not n0 * n1, and
cell_values returns a value constant along an axis as a read-only
broadcast view.  A grid has at most MAX_CELLS cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import exprs

FaceData = tuple  # one ndarray per axis
# most cells a grid may have: 2^22, 64 times a 256 x 256 grid
MAX_CELLS = 2 ** 22


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
        if math.prod(shape) > MAX_CELLS:
            raise ValueError(f"a grid may have at most MAX_CELLS = "
                             f"{MAX_CELLS} cells")
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

    @functools.cached_property  # cached: each step reads it
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @functools.cached_property
    def cell_count(self) -> int:
        return math.prod(self.shape)

    @functools.cached_property
    def axes(self) -> dict:
        """The cell-centre coordinates by name, each varying along its own
        axis only: x of shape (n0,) in 1D; x of shape (n0, 1) and y of
        shape (1, n1) in 2D, which broadcast against each other and against
        cell data.  Computed once per grid and read-only."""
        axes = {}
        for a, (name, n, h) in enumerate(zip("xy", self.shape, self.spacing)):
            c = ((np.arange(n) + 0.5) * h).reshape(
                [n if b == a else 1 for b in range(self.dim)])
            c.flags.writeable = False
            axes[name] = c
        return axes

    @property
    def coordinates(self) -> frozenset:
        """The names of the spatial coordinates: x, and y in 2D."""
        return frozenset("xy"[:self.dim])

    def cell_values(self, e: exprs.Expr | exprs.Program,
                    t: float = 0.0) -> np.ndarray:
        """e, an expression or its compiled Program, evaluated on the axes
        at time t, as an array of the grid shape; a value that does not
        vary along an axis is broadcast along it, read-only, not copied."""
        values = exprs.compile(e)({"t": t, **self.axes})
        if isinstance(values, np.ndarray) and values.shape == self.shape:
            return values
        return np.broadcast_to(np.asarray(values, dtype=float), self.shape)


# ---------------------------------------------------------------------------
# array kernels
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


def face_shape(shape: tuple, dim: int, axis: int) -> tuple:
    """The shape of the faces normal to `axis` of cell data of `shape`."""
    k = len(shape) - dim + axis
    return shape[:k] + (shape[k] + 1,) + shape[k + 1:]


def face_arrays(grid: Grid, shape: tuple) -> FaceData:
    """Uninitialised face data for cell data of `shape`, one array per axis."""
    return tuple(np.empty(face_shape(shape, grid.dim, axis))
                 for axis in range(grid.dim))


def gradient_arrays(grid: Grid, a: np.ndarray,
                    out: FaceData | None = None) -> FaceData:
    """Face differences over h, zero on boundary faces; into out if given."""
    faces = out or face_arrays(grid, a.shape)
    for h, g, (hi, lo, inner, first, last) in zip(
            grid.spacing, faces, FACE_SLICES[grid.dim]):
        g[first] = g[last] = 0.0
        d = np.subtract(a[hi], a[lo], out=g[inner])
        np.divide(d, h, out=d)
    return faces


def divergence_arrays(grid: Grid, fluxes: FaceData,
                      out: np.ndarray | None = None,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """Sum over the axes, left to right, of the flux differences over h;
    into out if given, each later axis's term formed in scratch (allocated
    if None)."""
    total = None
    for h, f, (hi, lo, _, _, _) in zip(grid.spacing, fluxes,
                                       FACE_SLICES[grid.dim]):
        term = np.subtract(f[hi], f[lo], out=scratch if total is not None
                           else out)
        np.divide(term, h, out=term)
        total = term if total is None else np.add(total, term, out=total)
    return total


def face_average_arrays(grid: Grid, a: np.ndarray,
                        out: FaceData | None = None) -> FaceData:
    """Arithmetic mean onto faces; boundary faces copy the adjacent cell.
    Into out if given."""
    faces = out or face_arrays(grid, a.shape)
    for m, (hi, lo, inner, first, last) in zip(faces, FACE_SLICES[grid.dim]):
        mean = np.add(a[hi], a[lo], out=m[inner])
        np.multiply(0.5, mean, out=mean)
        m[first], m[last] = a[first], a[last]
    return faces


def member_sums(x: np.ndarray, lead: int = 1) -> np.ndarray:
    """Sums over all but the first `lead` (member) axes, as float64 (a numpy
    float when lead is 0).  Each member's sum is bitwise np.sum of its own
    cells (checked from 1-D n = 7 to 4097 and on 2-D shapes): a contiguous
    row is reduced by the same pairwise summation either way.  The reduce
    is the one ndarray.sum calls, without its Python wrapper."""
    return np.add.reduce(x.reshape(x.shape[:lead] + (-1,)), axis=-1)


def grad_sq_sum(grid: Grid, a: np.ndarray, out: FaceData | None = None):
    """Sum of squared face gradients times the cell volume, per member of a
    batch (a numpy float for grid-shaped a).  The gradients are formed,
    and squared, in out if given."""
    vol = grid.cell_volume
    total = 0.0
    for g in gradient_arrays(grid, a, out=out):
        np.multiply(g, g, out=g)
        total = total + member_sums(g, a.ndim - grid.dim) * vol
    return total
