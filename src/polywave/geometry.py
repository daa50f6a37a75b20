"""Simplicial-complex geometry for piecewise-homogeneous domains.

A domain is a finite n-dimensional simplicial complex given by a shared
vertex coordinate list and a set of n-simplices (vertex-index tuples).
Compartments are the n-simplices.  Facets ((n-1)-simplices) incident to two
n-simplices are interfaces between compartments; facets incident to exactly
one are the boundary.  Facet identity is the sorted vertex-index tuple, so
orientation is never tracked.  A complex compiles, once and on first use,
into the per-simplex arrays that ray marching reads (barycentric inverses,
facet normals and the neighbour across each facet).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

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


class KOutOfRange(GeometryError):
    pass


class UnknownVertex(GeometryError):
    pass


@dataclass(frozen=True)
class SimplicialComplex:
    """Validated complex; construct with :func:`build_complex`."""

    dimension: int
    vertices: tuple[tuple[float, ...], ...]
    simplices: tuple[Simplex, ...]
    # simplex index -> medium id; empty when the complex is purely geometric
    media: dict = field(default_factory=dict)

    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    @cached_property
    def compiled(self) -> CompiledComplex:
        """The complex's marching tables, built on first use and kept."""
        return _compile(self)


@dataclass(frozen=True)
class CompiledComplex:
    """Per-simplex arrays for ray marching; S simplices, local vertex j.

    Row j of ``inverse[s]`` maps (1, x) to the barycentric coordinate of
    vertex j at point x, so it is also the gradient of that coordinate:
    ``normal[s, j]`` is its unit length version, normal to the facet
    opposite vertex j.  ``neighbour[s, j]`` is the simplex across that
    facet, or -1 where the facet lies on the boundary.
    """

    inverse: np.ndarray    # (S, n+1, n+1)
    normal: np.ndarray     # (S, n+1, n)
    neighbour: np.ndarray  # (S, n+1), int


def _compile(c: SimplicialComplex) -> CompiledComplex:
    corners = c.vertex_array()[np.array(c.simplices)]  # (S, n+1, n)
    m = np.ones((len(c.simplices), c.dimension + 1, c.dimension + 1))
    m[:, 1:, :] = corners.transpose(0, 2, 1)
    inverse = np.linalg.inv(m)
    grad = inverse[:, :, 1:]
    normal = grad / np.linalg.norm(grad, axis=2, keepdims=True)
    incidence = _facet_incidence(c.simplices)
    neighbour = []
    for idx, simplex in enumerate(c.simplices):
        facets = (simplex[:j] + simplex[j + 1:] for j in range(len(simplex)))
        neighbour.append([next((o for o in incidence[f] if o != idx), -1) for f in facets])
    return CompiledComplex(inverse, normal, np.array(neighbour, dtype=int))


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
    GeometryError for malformed indices, duplicates, or an incomplete media
    map.
    """
    if dimension < 1:
        raise GeometryError(f"dimension must be >= 1, got {dimension}")
    verts = tuple(tuple(float(x) for x in v) for v in vertices)
    if not verts:
        raise GeometryError("empty vertex list")
    for i, v in enumerate(verts):
        if len(v) != dimension:
            raise GeometryError(
                f"vertex {i} has {len(v)} coordinates, expected {dimension}"
            )

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

    corners = np.asarray(verts, dtype=float)[np.array(canonical)]
    edges = corners[:, 1:] - corners[:, :1]
    scale = np.max(np.linalg.norm(edges, axis=2), axis=1)
    det = np.abs(np.linalg.det(edges))
    flat = np.flatnonzero((scale == 0.0) | (det <= 1e-12 * scale**dimension))
    if len(flat):
        raise DegenerateSimplex(f"simplex {canonical[flat[0]]} has zero volume")

    for facet, owners in _facet_incidence(tuple(canonical)).items():
        if len(owners) > 2:
            raise FacetOvercount(
                f"facet {facet} is shared by {len(owners)} simplices"
            )

    used = set(itertools.chain.from_iterable(canonical))
    orphans = sorted(set(range(len(verts))) - used)
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
    return SimplicialComplex(dimension, verts, tuple(canonical), media_map)


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


def k_skeleton(c: SimplicialComplex, k: int) -> list[Simplex]:
    """All distinct k-faces, each listed once, ascending order."""
    if not 0 <= k <= c.dimension:
        raise KOutOfRange(f"k must be in [0, {c.dimension}], got {k}")
    faces = set()
    for s in c.simplices:
        faces.update(itertools.combinations(s, k + 1))
    return sorted(faces)


def vertex_star_interfaces(
    c: SimplicialComplex, classification: FacetClassification, vertex: int
) -> list[Simplex]:
    """Interface facets containing `vertex`, ascending facet order."""
    if not 0 <= vertex < len(c.vertices):
        raise UnknownVertex(f"vertex {vertex} not in complex")
    return [facet for facet, _, _ in classification.interfaces if vertex in facet]
