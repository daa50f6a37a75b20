"""Simplicial-complex construction, facet classification, and skeletons."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polywave.geometry import (
    DegenerateSimplex,
    DimensionalInhomogeneity,
    FacetOvercount,
    GeometryError,
    KOutOfRange,
    UnknownVertex,
    build_complex,
    classify_facets,
    k_skeleton,
    vertex_star_interfaces,
)

ROD_VERTICES = [(0.0,), (0.25,), (0.55,), (1.0,)]
ROD_SEGMENTS = [(0, 1), (1, 2), (2, 3)]


@pytest.fixture
def rod():
    return build_complex(1, ROD_VERTICES, ROD_SEGMENTS)


@pytest.fixture
def glued_triangles():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    return build_complex(2, verts, [(0, 1, 2), (1, 2, 3)])


def test_rod_builds_three_segments(rod):
    assert rod.dimension == 1
    assert rod.simplices == ((0, 1), (1, 2), (2, 3))


def test_two_triangles_valid(glued_triangles):
    cls = classify_facets(glued_triangles)
    assert len(cls.interfaces) == 1
    assert len(cls.boundary) == 4
    assert cls.interfaces[0][0] == (1, 2)


def test_three_triangles_sharing_edge_overcount():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 1.0)]
    with pytest.raises(FacetOvercount):
        build_complex(2, verts, [(0, 1, 2), (1, 2, 3), (1, 2, 4)])


def test_degenerate_simplex_rejected():
    verts = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
    with pytest.raises(DegenerateSimplex):
        build_complex(2, verts, [(0, 1, 2)])


def test_zero_length_segment_rejected():
    with pytest.raises(DegenerateSimplex):
        build_complex(1, [(0.0,), (0.0,), (1.0,)], [(0, 1), (1, 2)])


def test_degenerate_simplex_error_names_the_first_bad_simplex():
    verts = [(0.0,), (1.0,), (1.0,), (2.0,), (2.0,)]
    with pytest.raises(DegenerateSimplex, match=r"^simplex \(3, 4\) has zero volume$"):
        build_complex(1, verts, [(3, 4), (2, 3), (1, 2), (0, 1)])


def test_unused_vertex_is_dimensional_inhomogeneity():
    with pytest.raises(DimensionalInhomogeneity):
        build_complex(1, [(0.0,), (1.0,), (5.0,)], [(0, 1)])


def test_duplicate_simplex_rejected():
    with pytest.raises(GeometryError):
        build_complex(1, [(0.0,), (1.0,)], [(0, 1), (1, 0)])


def test_bad_vertex_index_rejected():
    with pytest.raises(GeometryError):
        build_complex(1, [(0.0,), (1.0,)], [(0, 2)])


def test_repeated_vertex_in_simplex_rejected():
    with pytest.raises(GeometryError):
        build_complex(1, [(0.0,), (1.0,)], [(0, 0)])


def test_wrong_coordinate_count_rejected():
    with pytest.raises(GeometryError):
        build_complex(2, [(0.0,), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


def test_media_map_must_cover_every_simplex():
    with pytest.raises(GeometryError):
        build_complex(1, ROD_VERTICES, ROD_SEGMENTS, media={0: "a", 1: "b"})
    c = build_complex(1, ROD_VERTICES, ROD_SEGMENTS, media={0: "a", 1: "b", 2: "c"})
    assert c.media == {0: "a", 1: "b", 2: "c"}


def test_rod_classification(rod):
    cls = classify_facets(rod)
    assert [f for f, _, _ in cls.interfaces] == [(1,), (2,)]
    assert [f for f, _ in cls.boundary] == [(0,), (3,)]
    assert cls.interfaces[0][1:] == (0, 1)
    assert cls.interfaces[1][1:] == (1, 2)


def test_single_simplex_all_boundary():
    c = build_complex(2, [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    cls = classify_facets(c)
    assert cls.interfaces == ()
    assert len(cls.boundary) == 3


def test_k_skeleton_top_is_simplex_list(rod, glued_triangles):
    assert k_skeleton(rod, 1) == list(rod.simplices)
    assert k_skeleton(glued_triangles, 2) == list(glued_triangles.simplices)


def test_k_skeleton_vertices(rod):
    assert k_skeleton(rod, 0) == [(0,), (1,), (2,), (3,)]


def test_k_skeleton_edges_of_glued_triangles(glued_triangles):
    assert len(k_skeleton(glued_triangles, 1)) == 5


def test_k_skeleton_out_of_range(rod):
    with pytest.raises(KOutOfRange):
        k_skeleton(rod, 2)
    with pytest.raises(KOutOfRange):
        k_skeleton(rod, -1)


def test_vertex_star_rod(rod):
    cls = classify_facets(rod)
    assert vertex_star_interfaces(rod, cls, 1) == [(1,)]
    assert vertex_star_interfaces(rod, cls, 0) == []
    with pytest.raises(UnknownVertex):
        vertex_star_interfaces(rod, cls, 9)


def test_vertex_star_triangle_fan():
    # four triangles around a hub: interfaces are the three interior spokes
    hub = (0.0, 0.0)
    rim = [(np.cos(a), np.sin(a)) for a in np.linspace(0.0, np.pi, 5)]
    verts = [hub] + rim
    tris = [(0, i, i + 1) for i in range(1, 5)]
    c = build_complex(2, verts, tris)
    cls = classify_facets(c)
    star = vertex_star_interfaces(c, cls, 0)
    assert len(star) == 3
    assert all(0 in f for f in star)


@st.composite
def rods(draw):
    n_seg = draw(st.integers(min_value=1, max_value=12))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=3.0, allow_nan=False),
            min_size=n_seg,
            max_size=n_seg,
        )
    )
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    return build_complex(
        1, [(float(x),) for x in xs], [(i, i + 1) for i in range(n_seg)]
    )


@given(rods())
def test_facets_partition(c):
    cls = classify_facets(c)
    facets = k_skeleton(c, c.dimension - 1)
    assert len(cls.interfaces) + len(cls.boundary) == len(facets)
    seen = [f for f, _, _ in cls.interfaces] + [f for f, _ in cls.boundary]
    assert sorted(seen) == facets


@given(rods())
def test_rebuild_from_skeleton_idempotent(c):
    again = build_complex(c.dimension, c.vertices, k_skeleton(c, c.dimension))
    assert again.vertices == c.vertices
    assert again.simplices == c.simplices


def test_simplices_stored_sorted():
    c = build_complex(
        2,
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        [(2, 0, 1), (3, 1, 2)],
    )
    assert c.simplices == ((0, 1, 2), (1, 2, 3))


def test_vertex_array_shape(glued_triangles):
    arr = glued_triangles.vertex_array()
    assert arr.shape == (4, 2)
    assert arr.dtype == float


def triangle_grid(xs, ys, rising, media=None):
    """Rectilinear grid on nodes xs x ys, cell k cut along its rising
    diagonal when rising[k], else along the falling one."""
    verts = [(x, y) for y in ys for x in xs]
    tris = []
    for j in range(len(ys) - 1):
        for i in range(len(xs) - 1):
            a, b = j * len(xs) + i, j * len(xs) + i + 1
            c, d = a + len(xs), b + len(xs)
            if rising[j * (len(xs) - 1) + i]:
                tris += [(a, b, d), (a, c, d)]
            else:
                tris += [(a, b, c), (b, c, d)]
    return build_complex(2, verts, tris, media=media)


@st.composite
def triangle_grids(draw):
    nx = draw(st.integers(min_value=1, max_value=5))
    ny = draw(st.integers(min_value=1, max_value=5))
    gaps = st.floats(min_value=0.05, max_value=3.0, allow_nan=False)
    xs = np.concatenate([[0.0], np.cumsum(draw(st.lists(gaps, min_size=nx, max_size=nx)))])
    ys = np.concatenate([[0.0], np.cumsum(draw(st.lists(gaps, min_size=ny, max_size=ny)))])
    rising = draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny))
    return triangle_grid(xs.tolist(), ys.tolist(), rising)


@given(st.one_of(rods(), triangle_grids()))
def test_compiled_view_matches_per_simplex_reference(c):
    view = c.compiled
    assert c.compiled is view
    coords = c.vertex_array()
    n = c.dimension
    for idx, simplex in enumerate(c.simplices):
        m = np.ones((n + 1, n + 1))
        m[1:, :] = coords[list(simplex)].T
        assert np.array_equal(view.inverse[idx], np.linalg.inv(m))
        for j in range(n + 1):
            normal = view.normal[idx, j]
            assert abs(np.linalg.norm(normal) - 1.0) <= 1e-12
            facet = coords[[v for k, v in enumerate(simplex) if k != j]]
            edges = facet[1:] - facet[0]
            assert np.all(np.abs(edges @ normal) <= 1e-9 * np.linalg.norm(edges, axis=1))

    def local(s, facet):
        (j,) = [j for j, v in enumerate(c.simplices[s]) if v not in facet]
        return j

    cls = classify_facets(c)
    expected = np.full((len(c.simplices), n + 1), -2)
    for facet, a, b in cls.interfaces:
        expected[a, local(a, facet)] = b
        expected[b, local(b, facet)] = a
    for facet, s in cls.boundary:
        expected[s, local(s, facet)] = -1
    assert np.array_equal(view.neighbour, expected)
