"""Analytic planar shapes and their rasterization onto a square lattice.

Nodes sit on the global lattice x = i h, y = j h (so refining h -> h/2
nests the grids); the mask holds exactly the nodes strictly inside the
shape. Every shape carries an exact area; `rasterize` rejects a mask
whose node-count area misses it by more than a bound set by the mask's
own boundary.

A rasterized domain also locates the boundary along every link from a
mask node to a node outside the shape: the boundary cuts that link at
theta h, 0 < theta <= 1, found by bisection on `contains`, so no shape
needs more than its `contains`. Each node's Dirichlet diagonal, the sum over
its four links of 1 (or 1/theta for a cut link), is the symmetric
ghost-fluid closure (Gibou, Fedkiw, Cheng & Kang, J. Comput. Phys. 176,
2002), second order in h where the staircase mask alone is first order.

The Neumann problem lives on cut cells instead (`CellGeometry`): every
node whose dual cell [x +- h/2] x [y +- h/2] meets the shape, with the
cell's inside area fraction and the inside fraction (aperture) of each
dual edge, found by the same bisection along the dual edges. This
geometry, like the Dirichlet diagonal, is computed on first use
(`GridDomain.cells`, `GridDomain.dirichlet_diagonal`), so a run pays
only for the problems it solves.
"""

import functools
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
    """A shape's interior-node mask on the lattice box whose first node is (i0, j0), at mesh width h.

    `rasterize` is the only builder: ``mask`` is the box it sampled, and
    everything else comes from ``shape`` (``label``, ``area_exact``, and
    the lazy geometry below).

    ``links`` holds the x- and y-link matrices (adjacency along each axis)
    of the mask's lattice box padded by one exterior ring, and ``padded``
    the flat padded mask, in row-major order. Every grid matrix is a
    padded-box matrix restricted to the interior nodes by `restrict`;
    ``adjacency``, the restricted sum of the links, is the mask's
    4-neighbour graph.

    ``dirichlet_diagonal`` holds, per interior node in mask order, the sum
    over its four lattice links of 1, or 1/theta for a link that the
    boundary cuts at theta h. ``cells`` is the Neumann cut-cell geometry
    on the padded box (`CellGeometry`). Both are computed from ``shape``
    on first use, so a domain pays only for the operators it assembles.
    """

    def __init__(self, shape, h, mask, i0, j0):
        self.shape = shape
        self.h = float(h)
        self.mask = np.asarray(mask, dtype=bool)
        self.i0, self.j0 = int(i0), int(j0)
        self.node_count = int(self.mask.sum())
        padded = np.pad(self.mask, 1)
        self.padded = padded.ravel()
        nx, ny = padded.shape
        self.links = (sparse.kron(_path(nx), sparse.identity(ny), format="csr"),
                      sparse.kron(sparse.identity(nx), _path(ny), format="csr"))
        self.adjacency = self.restrict(sum(self.links))

    @property
    def label(self):
        return self.shape.label

    @property
    def area_exact(self):
        return float(self.shape.area)

    def restrict(self, matrix):
        """Rows and columns of a padded-box matrix at the interior nodes, in mask order."""
        return matrix[self.padded][:, self.padded]

    @functools.cached_property
    def dirichlet_diagonal(self):
        return _dirichlet_diagonal(self.shape, self.mask, self.i0, self.j0, self.h)

    @functools.cached_property
    def cells(self):
        """The `CellGeometry` of the padded box."""
        rows, cols = self.mask.shape
        return _cell_geometry(self.shape, self.i0 - 1, self.j0 - 1, (rows + 2, cols + 2), self.h)

    def node_coordinates(self):
        """ (x, y) arrays of the interior nodes, in mask (row-major) order: the points `rasterize` sampled."""
        ii, jj = np.nonzero(self.mask)
        return (self.i0 + ii) * self.h, (self.j0 + jj) * self.h

    @property
    def area_discrete(self):
        return self.node_count * self.h**2


def _path(k):
    """Adjacency of k nodes in a row."""
    return sparse.diags([1.0, 1.0], [-1, 1], shape=(k, k))


_LINKS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# 60 halvings pin the crossing to 2^-60 < 1e-18 of a link, within 1e-15
# relative of any theta above the floor
_BISECTIONS = 60
# theta's floor caps a cut link's 1/theta at 1000, so a boundary passing
# within float noise of a node cannot wreck the conditioning. The
# smallest theta on the test corpus at h = 1/16 .. 1/192 is 0.0083
# (ellipse 2:1, h = 1/128), eight times the floor.
_THETA_MIN = 1e-3


def _cut_fractions(shape, i, j, di, dj, h):
    """Fraction theta in (0, 1] at which the boundary cuts each link by bisection on `shape.contains`.

    Link k runs from the lattice node (i[k], j[k]), inside the shape, to
    its neighbour (i[k] + di[k], j[k] + dj[k]), outside it. theta is the
    nearest sampled fraction found outside, so it is exactly 1 when every
    sample short of the neighbour is inside: a boundary through the
    neighbour, as on a lattice-aligned edge. A sample that rounds onto
    the neighbour's coordinates counts as inside, since it is the
    neighbour itself.
    """
    xb, yb = (i + di) * h, (j + dj) * h
    lo, hi = np.zeros(i.size), np.ones(i.size)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        x, y = (i + mid * di) * h, (j + mid * dj) * h
        inner = shape.contains(x, y) | ((x == xb) & (y == yb))
        lo, hi = np.where(inner, mid, lo), np.where(inner, hi, mid)
    return np.maximum(hi, _THETA_MIN)


def _dirichlet_diagonal(shape, mask, i_lo, j_lo, h):
    """Per mask node, the sum over its four links of 1, or 1/theta where the boundary cuts the link at theta h.

    ``mask`` holds the nodes kept on the lattice box whose first node is
    (i_lo, j_lo). A neighbour inside the shape is a mask node too (only a
    node with no 4-neighbour inside is dropped), so the links to the
    other neighbours are exactly the cut ones.

    Each node sums its terms as 4 + ((+x + -x) + (+y + -y)), an order
    that the lattice's flips and transpose only permute, so a domain
    that is mirror- or transpose-symmetric on the lattice gets a
    diagonal that is too, bit for bit (`grid.solve._flips` tests that).
    """
    pad = np.pad(mask, 1)
    rows, cols = mask.shape
    ends = [np.nonzero(mask & ~pad[1 + di : rows + 1 + di, 1 + dj : cols + 1 + dj]) for di, dj in _LINKS]
    i, j = (np.concatenate(x) for x in zip(*ends))
    sizes = [e[0].size for e in ends]
    di, dj = (np.repeat(d, sizes) for d in zip(*_LINKS))
    theta = _cut_fractions(shape, i_lo + i, j_lo + j, di, dj, h)
    terms = np.zeros((len(_LINKS), rows, cols))
    terms[np.repeat(np.arange(len(_LINKS)), sizes), i, j] = 1.0 / theta - 1.0
    diagonal = 4.0 + ((terms[0] + terms[1]) + (terms[2] + terms[3]))
    return diagonal[mask]


@dataclass(frozen=True)
class CellGeometry:
    """Cut-cell finite-volume data on a lattice box, in units of h.

    ``fraction[p, q]`` is the inside area fraction of node (p, q)'s dual
    cell [x - h/2, x + h/2] x [y - h/2, y + h/2]; the Neumann nodes are
    those with fraction > 0. ``aperture_x[p, q]`` is the inside fraction
    of the dual edge that the link (p, q) - (p + 1, q) crosses, and
    ``aperture_y[p, q]`` that of the link (p, q) - (p, q + 1).
    """

    fraction: np.ndarray
    aperture_x: np.ndarray
    aperture_y: np.ndarray


def _dual_edges(shape, lo, hi, i, j, di, dj, h):
    """Each dual edge's inside fraction, corner (i, j) to (i + di, j + dj), and its crossing's offset from the midpoint.

    ``lo`` and ``hi`` say which ends are inside the shape. Where they
    differ, `_cut_fractions` bisects from the inside end toward the
    outside one, and the crossing sits theta - 1/2 past the midpoint
    toward (i + di, j + dj) when (i, j) is inside, 1/2 - theta when it is
    outside: a mirror image reverses the edge and negates the offset
    exactly. The offset is meaningful only where the ends differ. The
    samples (i + t di) h resolve a crossing only to the float spacing
    at its coordinate, about 4e-15 of an edge near x = 1 at h = 1/32,
    so theta is rounded to 12 decimals: a boundary halfway along an
    edge, as on a lattice-aligned side, then gives exactly 1/2.
    """
    cut = lo != hi
    flip = hi[cut]  # the inside end is (i + di, j + dj): bisect backwards from it
    theta = np.round(_cut_fractions(shape, i[cut] + flip * di, j[cut] + flip * dj,
                                    np.where(flip, -di, di), np.where(flip, -dj, dj), h), 12)
    aperture = (lo & hi).astype(float)
    aperture[cut] = theta
    offset = np.zeros(cut.shape)
    offset[cut] = np.where(flip, 0.5 - theta, theta - 0.5)
    return aperture, offset


def _cell_geometry(shape, i0, j0, box, h):
    """`CellGeometry` of the nodes of the lattice box of shape ``box`` whose first node is (i0, j0).

    `shape.contains` is sampled at the dual-cell corners ((i0 + a - 1/2) h,
    (j0 + b - 1/2) h), and the boundary is located on every dual edge
    whose two corners differ (`_dual_edges`). A cell's fraction is its
    inside area by Green's theorem, 1/2 the closed integral of
    x dy - y dx in the cell's own coordinates, [-1/2, 1/2]^2: each side
    adds 1/4 of its aperture, and each chord of the boundary adds 1/2
    the cross product of its ends. A chord runs from the crossing where
    a counter-clockwise walk of the sides leaves the shape to the one on
    the next cut side, where it comes back in; a cell cut by a curve
    loses the segment between the curve and its chord. The sides are
    summed as (bottom + top) + (left + right), an order that the
    lattice's flips and transpose only permute, and they map a chord
    onto its image walked backwards, whose cross product has the same
    bits. So a shape that is mirror- or transpose-symmetric on the
    lattice gets fractions that are too, bit for bit.
    """
    nx, ny = box
    ci = np.arange(nx + 1)[:, None] + (i0 - 0.5)  # half-integers, exact in floating point
    cj = np.arange(ny + 1)[None, :] + (j0 - 0.5)
    ci, cj = np.broadcast_arrays(ci, cj)
    corner = shape.contains(ci * h, cj * h)
    # dual edges along x (corner (a, b) to (a + 1, b)) and along y ((a, b) to (a, b + 1))
    ap_h, off_h = _dual_edges(shape, corner[:-1], corner[1:], ci[:-1], cj[:-1], 1, 0, h)
    ap_v, off_v = _dual_edges(shape, corner[:, :-1], corner[:, 1:], ci[:, :-1], cj[:, :-1], 0, 1, h)
    # each cell's corners, and the crossings on the sides that follow them, counter-clockwise from the lower left
    quad = (corner[:-1, :-1], corner[1:, :-1], corner[1:, 1:], corner[:-1, 1:])
    x, y = (off_h[:, :-1], 0.5, off_h[:, 1:], -0.5), (-0.5, off_v[1:], 0.5, off_v[:-1])
    chords = 0.0
    for s in range(4):
        a, b, c = (s + 1) % 4, (s + 2) % 4, (s + 3) % 4
        # where side s leaves the shape, the walk comes back in on the first side after it whose end corner is inside
        xe, ye = (np.where(quad[b], u[a], np.where(quad[c], u[b], u[c])) for u in (x, y))
        chords += np.where(quad[s] & ~quad[a], x[s] * ye - y[s] * xe, 0.0)
    fraction = 0.25 * ((ap_h[:, :-1] + ap_h[:, 1:]) + (ap_v[:-1] + ap_v[1:])) + 0.5 * chords
    return CellGeometry(fraction, ap_v[1:-1], ap_h[:, 1:-1])


def rasterize(shape: Shape, h: float) -> GridDomain:
    """Mask of lattice nodes strictly inside the shape, on the lattice box sampled around its bbox.

    Nodes with no interior 4-neighbour are dropped first: they couple to
    nothing, so each would be a mask component of its own (an acute
    corner holds one at h = 1/96) carrying a decoupled Dirichlet
    eigenvalue of at least 4/h^2. The Neumann problem does not use the
    mask: a cut cell at such a node keeps its links to its neighbours'
    cells.
    Raises RasterizeError for an empty or 4-disconnected mask, or when the
    node-count area disagrees with the exact area by more than 2 cut h^2,
    where cut = 4 node_count - adjacency.nnz counts the lattice links from
    an interior node to an exterior one. Each cut link stands for a
    boundary stretch of about h, so the bound is O(perimeter h) without
    asking the shape for its perimeter.

    The sampled box reaches one node past the bbox on every side, so,
    padded by one more ring, it holds every mask node's four neighbours
    and every node whose dual cell meets the shape. The domain's
    `dirichlet_diagonal` and cut cells are computed on first use; a
    lattice-aligned edge passes through the exterior nodes, so theta = 1
    there and the diagonal is exactly 4.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise RasterizeError(f"mesh width must be positive, got {h}")
    xmin, xmax, ymin, ymax = shape.bbox
    i0, j0 = math.floor(xmin / h) - 1, math.floor(ymin / h) - 1
    ii = np.arange(i0, math.ceil(xmax / h) + 2)
    jj = np.arange(j0, math.ceil(ymax / h) + 2)
    mask = shape.contains((ii * h)[:, None], (jj * h)[None, :])
    pad = np.pad(mask, 1)  # a node with no interior 4-neighbour carries no stencil: drop it
    mask &= pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:]
    if not mask.any():
        raise RasterizeError(f"empty mask for {shape.label} at h={h}")
    domain = GridDomain(shape, h, mask, i0, j0)
    ncomp = connected_components(domain.adjacency, directed=False)[0]
    if ncomp != 1:
        raise RasterizeError(f"mask for {shape.label} at h={h} has {ncomp} components")
    cut = 4 * domain.node_count - domain.adjacency.nnz
    if abs(domain.area_discrete - shape.area) > 2.0 * cut * h * h:
        raise RasterizeError(
            f"area mismatch for {shape.label} at h={h}: {domain.area_discrete} vs {shape.area}"
        )
    return domain
