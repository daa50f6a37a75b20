"""Simplicial-complex geometry for piecewise-homogeneous domains.

A domain is a finite n-dimensional simplicial complex given by a shared
vertex coordinate list and a set of n-simplices (vertex-index tuples).
Compartments are the n-simplices.  Facets ((n-1)-simplices) incident to two
n-simplices are interfaces between compartments; facets incident to exactly
one are the boundary.  Facet identity is the sorted vertex-index tuple, so
orientation is never tracked.  Facets are paired once, by sorting: cofaces
of a facet become adjacent rows.  build_complex also builds the per-simplex
arrays that ray marching reads (barycentric inverses, facet normals and the
neighbour across each facet), so a complex is one record.  Input is checked
in arrays; input that fails a check is read again vertex by vertex and
simplex by simplex, so that an error names the first bad one in input order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

Simplex = tuple[int, ...]


class GeometryError(Exception):
    """Invalid simplicial-complex input or query."""


class DimensionalInhomogeneity(GeometryError):
    """A listed vertex is contained in no n-simplex."""


class FacetOvercount(GeometryError):
    """An (n-1)-simplex is shared by more than two n-simplices."""


class DegenerateSimplex(GeometryError):
    """An n-simplex with zero n-volume."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Validated complex; construct with :func:`build_complex`.

    The arrays hold one row per simplex s (S in all) and local vertex j.
    Row j of ``inverse[s]`` maps (1, x) to the barycentric coordinate of
    vertex j at point x, so it is also the gradient of that coordinate:
    ``normal[s, j]`` is its unit length version, normal to the facet
    opposite vertex j.  ``neighbour[s, j]`` is the simplex across that
    facet, or -1 where the facet lies on the boundary.  Equality compares
    the tuples and the media map only.
    """

    dimension: int
    vertices: tuple[tuple[float, ...], ...]
    simplices: tuple[Simplex, ...]
    # simplex index -> medium id; empty when the complex is purely geometric
    media: dict
    inverse: np.ndarray = field(compare=False, repr=False)    # (S, n+1, n+1)
    normal: np.ndarray = field(compare=False, repr=False)     # (S, n+1, n)
    neighbour: np.ndarray = field(compare=False, repr=False)  # (S, n+1), int


def _scaled(a: np.ndarray, axes) -> np.ndarray:
    """`a` divided by the power of two that brings max |a| over `axes` into
    [0.5, 1): exact, and it keeps norms and determinants in range."""
    exponent = np.frexp(np.max(np.abs(a), axis=axes, keepdims=True))[1]
    return np.ldexp(a, -exponent)


def _neighbours(simplices) -> np.ndarray:
    """(S, n+1) table: the simplex across the facet opposite local vertex j
    of each (sorted) simplex, or -1 where that facet is on the boundary.

    Raises FacetOvercount for a facet with more than two cofaces, naming
    the lexicographically smallest one when there are several.
    """
    s = np.asarray(simplices, dtype=int)
    k = s.shape[1]
    drop = [[i for i in range(k) if i != j] for j in range(k)]
    rows = s[:, drop].reshape(-1, k - 1)  # row s*k + j: facet opposite vertex j
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    same = np.all(rows[1:] == rows[:-1], axis=1)
    over = np.flatnonzero(same[:-1] & same[1:])
    if over.size:
        facet = rows[over[0]]
        shared = np.count_nonzero(np.all(rows == facet, axis=1))
        raise FacetOvercount(f"facet {tuple(facet.tolist())} is shared by {shared} simplices")
    a, b = order[:-1][same], order[1:][same]
    neighbour = np.full(s.size, -1, dtype=int)
    neighbour[a] = b // k
    neighbour[b] = a // k
    return neighbour.reshape(s.shape)


@dataclass(frozen=True)
class FacetClassification:
    # (facet, lower simplex index, higher simplex index), ascending facet order
    interfaces: tuple[tuple[Simplex, int, int], ...]
    # (facet, owning simplex index), ascending facet order
    boundary: tuple[tuple[Simplex, int], ...]


def _facet_incidence(simplices: tuple[Simplex, ...]) -> dict[Simplex, list[int]]:
    incidence: dict[Simplex, list[int]] = {}
    for idx, simplex in enumerate(simplices):
        for facet in itertools.combinations(simplex, len(simplex) - 1):
            incidence.setdefault(facet, []).append(idx)
    return incidence


def _checked_arrays(dimension: int, vertices, simplices):
    """(points, table) for input that passes every check of _checked_loop:
    the vertex coordinates and each simplex's sorted vertex indices, checked
    in arrays.  None where a conversion raises (ragged rows, an index past
    int64) or a check fails, for the loop to name the first error."""
    try:
        points = np.array(vertices, dtype=float)
        table = np.array(simplices, dtype=np.int64)
    except (OverflowError, TypeError, ValueError, RuntimeWarning):  # NaN cast to int warns
        return None
    if (points.ndim != 2 or points.shape[1] != dimension or not len(points)
            or not np.isfinite(points).all()
            or table.ndim != 2 or table.shape[1] != dimension + 1 or not len(table)):
        return None
    table.sort(axis=1)
    rows = table[np.lexsort(table.T[::-1])]
    if (np.any(table[:, 1:] == table[:, :-1]) or table[:, 0].min() < 0
            or table[:, -1].max() >= len(points) or np.all(rows[1:] == rows[:-1], axis=1).any()):
        return None
    return points, table


def _checked_loop(dimension: int, vertices, simplices):
    """_checked_arrays' result, read vertex by vertex and simplex by simplex:
    raises for the first bad vertex or simplex in input order, checking
    indices as Python ints."""
    verts = tuple(tuple(float(x) for x in v) for v in vertices)
    if not verts:
        raise GeometryError("empty vertex list")
    for i, v in enumerate(verts):
        if len(v) != dimension:
            raise GeometryError(
                f"vertex {i} has {len(v)} coordinates, expected {dimension}"
            )
    points = np.asarray(verts, dtype=float)
    nonfinite = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if nonfinite.size:
        raise GeometryError(f"vertex {nonfinite[0]} has a non-finite coordinate")

    raw = [tuple(int(i) for i in s) for s in simplices]
    if not raw:
        raise GeometryError("empty simplex list")
    canonical: list[Simplex] = []
    for s in raw:
        if len(s) != dimension + 1:
            raise GeometryError(f"simplex {s} has {len(s)} vertices, expected {dimension + 1}")
        if len(set(s)) != len(s):
            raise GeometryError(f"simplex {s} repeats a vertex index")
        for i in s:
            if not 0 <= i < len(verts):
                raise GeometryError(f"simplex {s} references unknown vertex {i}")
        canonical.append(tuple(sorted(s)))
    if len(set(canonical)) != len(canonical):
        raise GeometryError("duplicate simplex (same vertex set listed twice)")
    return points, np.array(canonical, dtype=np.int64)


def build_complex(
    dimension: int,
    vertices,
    simplices,
    media: dict | None = None,
) -> SimplicialComplex:
    """Validate and canonicalize a complex.

    Vertex-index tuples are stored sorted.  Raises DegenerateSimplex for a
    zero-volume simplex, FacetOvercount when a facet has more than two
    cofaces, DimensionalInhomogeneity for a vertex used by no simplex, and
    GeometryError for a non-finite coordinate, malformed indices,
    duplicates, a simplex wider than the float range, an incomplete media
    map, or two simplices that fold over their shared facet.
    """
    if dimension < 1:
        raise GeometryError(f"dimension must be >= 1, got {dimension}")
    points, table = (_checked_arrays(dimension, vertices, simplices)
                     or _checked_loop(dimension, vertices, simplices))
    verts = tuple(map(tuple, points.tolist()))
    canonical = list(map(tuple, table.tolist()))

    corners = points[table]  # (S, n+1, n)
    with np.errstate(over="ignore"):
        edges = corners[:, 1:] - corners[:, :1]
    wide = np.flatnonzero(~np.isfinite(edges).all(axis=(1, 2)))
    if wide.size:
        raise GeometryError(f"simplex {canonical[wide[0]]} spans more than the float range")
    edges = _scaled(edges, (1, 2))
    scale = np.max(np.linalg.norm(edges, axis=2), axis=1)
    det = np.abs(np.linalg.det(edges))
    flat = np.flatnonzero((scale == 0.0) | (det <= 1e-12 * scale**dimension))
    if len(flat):
        raise DegenerateSimplex(f"simplex {canonical[flat[0]]} has zero volume")

    neighbour = _neighbours(table)

    orphans = np.flatnonzero(np.bincount(table.ravel(), minlength=len(verts)) == 0).tolist()
    if orphans:
        raise DimensionalInhomogeneity(
            f"vertices {orphans} belong to no {dimension}-simplex"
        )

    if media is None:
        media_map: dict = {}
    else:
        media_map = dict(media)
        expected = set(range(len(canonical)))
        if set(media_map) != expected:
            raise GeometryError(
                "media map must cover every simplex index exactly; "
                f"got keys {sorted(media_map)}"
            )

    m = np.ones((len(canonical), dimension + 1, dimension + 1))
    m[:, 1:, :] = corners.transpose(0, 2, 1)
    inverse = np.linalg.inv(m)
    beyond = np.flatnonzero(~np.isfinite(inverse).all(axis=(1, 2)))
    if beyond.size:  # narrower than about 1e-308, or too small for its distance from 0
        raise GeometryError(f"simplex {canonical[beyond[0]]} has barycentrics past the float range")
    grad = _scaled(inverse[:, :, 1:], 2)
    normal = grad / np.linalg.norm(grad, axis=2, keepdims=True)

    # across interior facet (s, j), the apex of t = neighbour[s, j] (its
    # vertex off the facet) must lie strictly outside s: lambda_j < 0.
    # lambda_j is taken from corner 0 of s, where it is 1 or 0, so that a
    # mesh far from the origin loses no digits
    s, j = np.nonzero(neighbour >= 0)
    t = neighbour[s, j]
    apex = table[t, np.argmax(neighbour[t] == s[:, None], axis=1)]
    offset = points[apex] - corners[s, 0]
    with np.errstate(over="ignore"):  # an apex far out gives inf, folded or not
        lam = (j == 0) + np.sum(inverse[s, j, 1:] * offset, axis=1)
    folded = np.flatnonzero(lam >= 0.0)
    if folded.size:
        k = folded[0]
        a, b = sorted((s[k], t[k]))
        simplex = canonical[s[k]]
        facet = simplex[:j[k]] + simplex[j[k] + 1:]
        raise GeometryError(f"simplices {a} and {b} fold over facet {facet}")
    return SimplicialComplex(
        dimension, verts, tuple(canonical), media_map, inverse, normal, neighbour
    )


def classify_facets(c: SimplicialComplex) -> FacetClassification:
    """Split facets into interfaces (two cofaces) and boundary (one)."""
    interfaces = []
    boundary = []
    for facet, owners in sorted(_facet_incidence(c.simplices).items()):
        if len(owners) == 2:
            a, b = sorted(owners)
            interfaces.append((facet, a, b))
        else:
            boundary.append((facet, owners[0]))
    return FacetClassification(tuple(interfaces), tuple(boundary))

