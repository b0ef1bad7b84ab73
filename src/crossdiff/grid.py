"""Uniform cell-centered grids on 1D/2D boxes and their no-flux calculus.

Cells are uniform boxes; degrees of freedom live at cell centers, one
double per cell in a plain array of the grid shape, and fluxes on faces.
Gradients are two-point differences on interior faces and zero on boundary
faces, which encodes homogeneous Neumann data.  divergence_arrays and
gradient_arrays are exact negative adjoints of each other (summation by
parts), so the discrete operators conserve mass and the Neumann Laplacian
divergence_arrays(gradient_arrays(.)) is symmetric with kernel = constants.

Face data is one flat float64 vector per axis.  For N flat cells (B * cells
for a batch of B) and an axis of stride s (Grid.strides), f has s + N
entries: s zeros, then at s + k the face between cells k and k + s.  Where
k is last along the axis, that is its boundary face: 0 for a gradient or a
flux, the cell's value for a mean; the next row's lower boundary shares
it.  So cell k's faces are f[k] and f[s + k], and each kernel pass is one
contiguous ufunc.  Integrals are cell sums times the cell volume.

Expressions meet the cells through Grid.axes, each coordinate along its
own axis: a term in x alone costs n0 evaluations, not n0 * n1, and
cell_values returns a value constant along an axis as a read-only
broadcast view.  A grid has at most MAX_CELLS cells.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprs

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

    @functools.cached_property  # in the cells' flat order: n1, 1 in 2D
    def strides(self) -> tuple:
        return tuple(math.prod(self.shape[a + 1:]) for a in range(self.dim))

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
        at time t, as an array of the grid shape (see as_cells)."""
        return as_cells(exprs.compile(e)({"t": t, **self.axes}), self.shape)


def as_cells(values, shape: tuple) -> np.ndarray:
    """values as an array of `shape`: one of that shape as it is, a scalar
    or a value constant along an axis broadcast, read-only, not copied."""
    if isinstance(values, np.ndarray) and values.shape == shape:
        return values
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


# ---------------------------------------------------------------------------
# array kernels, on cell data of shape grid.shape or (B, *grid.shape)


def last_positions(x: np.ndarray, n: int, s: int) -> np.ndarray:
    """The view of flat x at the cells last along an axis of n cells."""
    return x.reshape(-1, n * s)[:, (n - 1) * s:]


class FaceData(tuple):
    """Face data for cells of `shape`, the vectors given or fresh ones, and
    its views: data, the N entries f[s:] that coefficients are evaluated
    on, and cuts, what a kernel writes: f[s:N] and the last positions."""

    def __new__(cls, grid: Grid, shape: tuple, vectors: Sequence = ()):
        faces = super().__new__(cls, vectors or [
            np.empty(s + math.prod(shape)) for s in grid.strides])
        for f, s in zip(faces, grid.strides):
            f[:s] = 0.0  # the s leading zeros, which no kernel writes
        faces.data = tuple(f[s:] for f, s in zip(faces, grid.strides))
        faces.cuts = tuple((d[:-s], last_positions(d, n, s)) for d, n, s
                           in zip(faces.data, grid.shape, grid.strides))
        return faces


def gradient_arrays(grid: Grid, a: np.ndarray,
                    out: FaceData | None = None) -> FaceData:
    """Face differences over h, zero on boundary faces; into out if given."""
    x = a.ravel()
    faces = out or FaceData(grid, x.shape)
    for h, s, (inner, last) in zip(grid.spacing, grid.strides, faces.cuts):
        d = np.subtract(x[s:], x[:-s], out=inner)
        np.divide(d, h, out=d)
        last.fill(0.0)
    return faces


def divergence_arrays(grid: Grid, fluxes: Sequence,
                      out: np.ndarray | None = None,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """Sum over the axes, left to right, of (f[s:] - f[:-s]) / h: flat, or
    into out (any shape of N cells), each later axis's term formed in
    scratch (allocated if None)."""
    total = None
    for h, s, f in zip(grid.spacing, grid.strides, fluxes):
        into = out if total is None else scratch
        term = np.subtract(f[s:], f[:-s],
                           out=None if into is None else into.ravel())
        np.divide(term, h, out=term)
        total = term if total is None else np.add(total, term, out=total)
    return total if out is None else out


def face_average_arrays(grid: Grid, a: np.ndarray,
                        out: FaceData | None = None) -> FaceData:
    """Arithmetic mean onto faces; a cell last along an axis gives its
    boundary face its own value.  Into out if given."""
    x = a.ravel()
    faces = out or FaceData(grid, x.shape)
    for n, s, (inner, last) in zip(grid.shape, grid.strides, faces.cuts):
        mean = np.add(x[s:], x[:-s], out=inner)
        np.multiply(0.5, mean, out=mean)
        last[...] = last_positions(x, n, s)
    return faces


def member_sums(x: np.ndarray, lead: int = 1) -> np.ndarray:
    """Sums over all but the first `lead` (member) axes, as float64 (a numpy
    float when lead is 0).  Each member's sum is bitwise np.sum of its own
    cells (checked from 1-D n = 7 to 4097 and on 2-D shapes): a contiguous
    row is reduced by the same pairwise summation either way.  The reduce
    is the one ndarray.sum calls, without its Python wrapper.  This is the
    one reduction of per-member cell and face data, so a batch's sums are
    its members' alone; CG's inner products stay BLAS dots."""
    return np.add.reduce(x.reshape(x.shape[:lead] + (-1,)), axis=-1)


def grad_sq_sum(grid: Grid, a: np.ndarray, out: FaceData | None = None):
    """Sum of squared face gradients times the cell volume, per member of a
    batch (a numpy float for grid-shaped a): per axis, member_sums of the
    N squared entries g[s:].  The gradients are formed, and squared, in
    out if given."""
    members = a.shape[:a.ndim - grid.dim]
    total = 0.0
    for d in gradient_arrays(grid, a, out=out).data:
        np.multiply(d, d, out=d)
        total = total + member_sums(d.reshape(members + (-1,)),
                                    len(members)) * grid.cell_volume
    return total
