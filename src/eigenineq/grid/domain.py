"""Analytic planar shapes and their rasterization onto a square lattice.

Nodes sit on the global lattice x = i h, y = j h (so refining h -> h/2
nests the grids); the mask holds exactly the nodes strictly inside the
shape. Every shape carries an exact area; `rasterize` rejects a mask
whose node-count area misses it by more than a bound set by the mask's
own boundary.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components


class RasterizeError(ValueError):
    """Shape and mesh width produce an unusable mask."""


def _finite_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _require_positive(shape):
    """Raise ValueError unless every field of `shape` is a finite positive real number (not a bool)."""
    for f in fields(shape):
        value = getattr(shape, f.name)
        if not (_finite_real(value) and value > 0.0):
            raise ValueError(f"{f.name} must be a finite positive real number, got {value!r}")


@dataclass(frozen=True)
class Disk:
    radius: float = 1.0

    def __post_init__(self):
        _require_positive(self)

    def contains(self, x, y):
        return x * x + y * y < self.radius**2

    @property
    def area(self):
        return math.pi * self.radius**2

    @property
    def bbox(self):
        r = self.radius
        return (-r, r, -r, r)

    @property
    def label(self):
        return f"disk(r={self.radius:g})"


@dataclass(frozen=True)
class Ellipse:
    a: float  # semi-axis along x
    b: float  # semi-axis along y

    def __post_init__(self):
        _require_positive(self)

    def contains(self, x, y):
        return (x / self.a) ** 2 + (y / self.b) ** 2 < 1.0

    @property
    def area(self):
        return math.pi * self.a * self.b

    @property
    def bbox(self):
        return (-self.a, self.a, -self.b, self.b)

    @property
    def label(self):
        return f"ellipse({self.a:g}x{self.b:g})"


@dataclass(frozen=True)
class Rectangle:
    width: float
    height: float

    def __post_init__(self):
        _require_positive(self)

    def contains(self, x, y):
        return (0.0 < x) & (x < self.width) & (0.0 < y) & (y < self.height)

    @property
    def area(self):
        return self.width * self.height

    @property
    def bbox(self):
        return (0.0, self.width, 0.0, self.height)

    @property
    def label(self):
        return f"rectangle({self.width:g}x{self.height:g})"


@dataclass(frozen=True)
class LShape:
    """Unit bounding box minus the open upper-right block: x < w1 or y < w2."""

    w1: float = 0.5
    w2: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.w1 < 1.0 and 0.0 < self.w2 < 1.0):
            raise ValueError(f"arm widths must lie in (0, 1), got {self.w1}, {self.w2}")

    def contains(self, x, y):
        inside_box = (0.0 < x) & (x < 1.0) & (0.0 < y) & (y < 1.0)
        return inside_box & ((x < self.w1) | (y < self.w2))

    @property
    def area(self):
        return self.w1 + self.w2 - self.w1 * self.w2

    @property
    def bbox(self):
        return (0.0, 1.0, 0.0, 1.0)

    @property
    def label(self):
        return f"l_shape({self.w1:g},{self.w2:g})"


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float

    def __post_init__(self):
        _require_positive(self)
        if not self.r_inner < self.r_outer:
            raise ValueError(f"need r_inner < r_outer, got {self.r_inner}, {self.r_outer}")

    def contains(self, x, y):
        r2 = x * x + y * y
        return (self.r_inner**2 < r2) & (r2 < self.r_outer**2)

    @property
    def area(self):
        return math.pi * (self.r_outer**2 - self.r_inner**2)

    @property
    def bbox(self):
        r = self.r_outer
        return (-r, r, -r, r)

    @property
    def label(self):
        return f"annulus({self.r_inner:g},{self.r_outer:g})"


@dataclass(frozen=True)
class Polygon:
    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not all(_finite_real(c) for x, y in self.vertices for c in (x, y)):
            raise ValueError(f"vertex coordinates must be finite real numbers, got {self.vertices}")
        object.__setattr__(self, "vertices", tuple((float(x), float(y)) for x, y in self.vertices))
        if not self.area > 0.0:
            raise ValueError(f"polygon must enclose a positive area, got vertices {self.vertices}")

    def contains(self, x, y):
        # crossing-number parity with points on an edge explicitly excluded
        # (the crossing test alone is half-open and would count left/bottom
        # boundary lattice points as interior)
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        inside = np.zeros(x.shape, dtype=bool)
        on_edge = np.zeros(x.shape, dtype=bool)
        verts = self.vertices
        scale = max(max(abs(c) for v in verts for c in v), 1.0)
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            if x1 == x2 and y1 == y2:  # a repeated vertex (say, a closed ring) adds no edge
                continue
            crosses = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < xint)
            ex, ey = x2 - x1, y2 - y1
            cross = ex * (y - y1) - ey * (x - x1)
            t = (ex * (x - x1) + ey * (y - y1)) / (ex * ex + ey * ey)
            on_edge |= (np.abs(cross) <= 1e-12 * scale * scale) & (t >= -1e-12) & (t <= 1.0 + 1e-12)
        return inside & ~on_edge

    @property
    def area(self):
        verts = self.vertices
        s = 0.0
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            s += x1 * y2 - x2 * y1
        return abs(s) / 2.0

    @property
    def bbox(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), max(xs), min(ys), max(ys))

    @property
    def label(self):
        return f"polygon({len(self.vertices)} vertices)"


Shape = Disk | Ellipse | Rectangle | LShape | Annulus | Polygon


class GridDomain:
    """Rasterized planar domain: interior-node mask, mesh width, exact area.

    ``links`` holds the x- and y-link matrices (adjacency along each axis)
    of the mask's lattice box padded by one exterior ring, and ``padded``
    the flat padded mask, in row-major order. Every grid matrix is a
    padded-box matrix restricted to the interior nodes by `restrict`;
    ``adjacency``, the restricted sum of the links, is the mask's
    4-neighbour graph.
    """

    def __init__(self, mask, h, area_exact, label, x0, y0):
        self.mask = np.asarray(mask, dtype=bool)
        self.h = float(h)
        self.area_exact = float(area_exact)
        self.label = str(label)
        self.x0 = float(x0)
        self.y0 = float(y0)
        self.node_count = int(self.mask.sum())
        padded = np.pad(self.mask, 1)
        self.padded = padded.ravel()
        nx, ny = padded.shape
        self.links = (sparse.kron(_path(nx), sparse.identity(ny), format="csr"),
                      sparse.kron(sparse.identity(nx), _path(ny), format="csr"))
        self.adjacency = self.restrict(sum(self.links))

    def restrict(self, matrix):
        """Rows and columns of a padded-box matrix at the interior nodes, in mask order."""
        return matrix[self.padded][:, self.padded]

    def node_coordinates(self):
        """ (x, y) arrays of the interior nodes, in mask (row-major) order."""
        ii, jj = np.nonzero(self.mask)
        return self.x0 + ii * self.h, self.y0 + jj * self.h

    @property
    def area_discrete(self):
        return self.node_count * self.h**2


def _path(k):
    """Adjacency of k nodes in a row."""
    return sparse.diags([1.0, 1.0], [-1, 1], shape=(k, k))


def rasterize(shape: Shape, h: float) -> GridDomain:
    """Mask of lattice nodes strictly inside the shape.

    Nodes with no interior 4-neighbour are dropped first: they couple to
    nothing, and in a Neumann problem each would add a zero mode.
    Raises RasterizeError for an empty or 4-disconnected mask, or when the
    node-count area disagrees with the exact area by more than 2 cut h^2,
    where cut = 4 node_count - adjacency.nnz counts the lattice links from
    an interior node to an exterior one. Each cut link stands for a
    boundary stretch of about h, so the bound is O(perimeter h) without
    asking the shape for its perimeter.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise RasterizeError(f"mesh width must be positive, got {h}")
    xmin, xmax, ymin, ymax = shape.bbox
    i_lo, i_hi = math.floor(xmin / h) - 1, math.ceil(xmax / h) + 1
    j_lo, j_hi = math.floor(ymin / h) - 1, math.ceil(ymax / h) + 1
    ii = np.arange(i_lo, i_hi + 1)
    jj = np.arange(j_lo, j_hi + 1)
    x = (ii * h)[:, None]
    y = (jj * h)[None, :]
    mask = shape.contains(x, y)
    pad = np.pad(mask, 1)  # a node with no interior 4-neighbour carries no stencil: drop it
    mask &= pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:]
    if not mask.any():
        raise RasterizeError(f"empty mask for {shape.label} at h={h}")
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    mask = mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
    x0 = (i_lo + rows[0]) * h
    y0 = (j_lo + cols[0]) * h
    domain = GridDomain(mask, h, shape.area, shape.label, x0, y0)
    ncomp = connected_components(domain.adjacency, directed=False)[0]
    if ncomp != 1:
        raise RasterizeError(f"mask for {shape.label} at h={h} has {ncomp} components")
    cut = 4 * domain.node_count - domain.adjacency.nnz
    if abs(domain.area_discrete - shape.area) > 2.0 * cut * h * h:
        raise RasterizeError(
            f"area mismatch for {shape.label} at h={h}: {domain.area_discrete} vs {shape.area}"
        )
    return domain
