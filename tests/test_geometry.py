"""Simplicial-complex construction, facet classification and pairing."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polywave import geometry
from polywave.geometry import (
    DegenerateSimplex,
    DimensionalInhomogeneity,
    FacetOvercount,
    GeometryError,
    build_complex,
    classify_facets,
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


def test_facet_overcount_message_counts_every_coface():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-1.0, 1.0), (0.5, -1.0)]
    tris = [(0, 1, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5)]
    with pytest.raises(FacetOvercount, match=r"^facet \(1, 2\) is shared by 3 simplices$"):
        build_complex(2, verts[:5], tris[:3])
    with pytest.raises(FacetOvercount, match=r"^facet \(1, 2\) is shared by 4 simplices$"):
        build_complex(2, verts, tris)


def test_facet_overcount_names_the_smallest_facet():
    # vertices 3 and 1 both end three segments; the (3,) fan is listed first
    verts = [(float(x),) for x in range(8)]
    segments = [(3, 4), (3, 5), (3, 6), (0, 1), (1, 2), (1, 7)]
    with pytest.raises(FacetOvercount, match=r"^facet \(1,\) is shared by 3 simplices$"):
        build_complex(1, verts, segments)


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


TRIANGLE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
LINE = [(0.0,), (1.0,)]


@pytest.mark.parametrize("dimension, vertices, simplices, error, message", [
    (2, [(0.0,), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)], GeometryError,
     "vertex 0 has 1 coordinates, expected 2"),
    (2, TRIANGLE, [(0, 1)], GeometryError, "simplex (0, 1) has 2 vertices, expected 3"),
    (1, LINE, [(0, 0)], GeometryError, "simplex (0, 0) repeats a vertex index"),
    (1, LINE, [(0, 2)], GeometryError, "simplex (0, 2) references unknown vertex 2"),
    (1, LINE, [(0, 1), (0, 2), (1, 1)], GeometryError,
     "simplex (0, 2) references unknown vertex 2"),
    (1, LINE, [(0, 1), (1, 10**23)], GeometryError,
     f"simplex (1, {10**23}) references unknown vertex {10**23}"),
    (1, LINE, [(0, 1), (1, 0)], GeometryError, "duplicate simplex (same vertex set listed twice)"),
    (1, LINE + [(5.0,)], [(0, 1)], DimensionalInhomogeneity,
     "vertices [2] belong to no 1-simplex"),
    (1, [(0.0,), (float("nan"),), (2.0,)], [(0, 1), (1, 2)], GeometryError,
     "vertex 1 has a non-finite coordinate"),
    (2, TRIANGLE + [(0.2, 0.2)], [(0, 1, 2), (1, 2, 3)], GeometryError,
     "simplices 0 and 1 fold over facet (1, 2)"),
    (1, [(0.0,), (999.0,), (0.55,), (1.0,)], [(0, 1), (1, 2), (2, 3)], GeometryError,
     "simplices 0 and 1 fold over facet (1,)"),
    # the edge of simplex (0, 1) overflows; numpy's overflow warning would
    # be an error here, and the old text called the simplex flat
    (1, [(-1e308,), (1e308,), (1.5e308,)], [(0, 1), (1, 2)], GeometryError,
     "simplex (0, 1) spans more than the float range"),
    (1, [], [(0, 1)], GeometryError, "empty vertex list"),
    (1, LINE, [], GeometryError, "empty simplex list"),
])
def test_build_complex_error_texts(dimension, vertices, simplices, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build_complex(dimension, vertices, simplices)


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
    facets = sorted({f for s in c.simplices for f in itertools.combinations(s, c.dimension)})
    assert len(cls.interfaces) + len(cls.boundary) == len(facets)
    seen = [f for f, _, _ in cls.interfaces] + [f for f, _ in cls.boundary]
    assert sorted(seen) == facets


@given(rods())
def test_rebuild_from_skeleton_idempotent(c):
    top = sorted({f for s in c.simplices for f in itertools.combinations(s, c.dimension + 1)})
    again = build_complex(c.dimension, c.vertices, top)
    assert again.vertices == c.vertices
    assert again.simplices == c.simplices


def test_simplices_stored_sorted():
    c = build_complex(
        2,
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        [(2, 0, 1), (3, 1, 2)],
    )
    assert c.simplices == ((0, 1, 2), (1, 2, 3))


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
    view = c
    coords = np.asarray(c.vertices, dtype=float)
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


def kuhn_cube(m):
    """m x m x m unit cubes, each cut into the six tetrahedra that share its
    main diagonal (Kuhn's triangulation, consistent across cube faces)."""
    def vid(x, y, z):
        return (z * (m + 1) + y) * (m + 1) + x

    verts = [(float(x), float(y), float(z))
             for z in range(m + 1) for y in range(m + 1) for x in range(m + 1)]
    tets = []
    for corner in itertools.product(range(m), repeat=3):
        for axes in itertools.permutations(range(3)):
            p = list(corner)
            path = [vid(*p)]
            for axis in axes:
                p[axis] += 1
                path.append(vid(*p))
            tets.append(tuple(path))
    return build_complex(3, verts, tets)


@pytest.mark.parametrize("m", [1, 2])
def test_compiled_view_matches_reference_on_kuhn_cube(m):
    c = kuhn_cube(m)
    assert len(c.simplices) == 6 * m**3
    test_compiled_view_matches_per_simplex_reference.hypothesis.inner_test(c)
    # the cube's surface: 6 sides of m^2 squares, two triangles each
    assert np.count_nonzero(c.neighbour == -1) == 12 * m**2


@given(st.one_of(rods(), triangle_grids(), st.just(1).map(kuhn_cube)),
       st.integers(min_value=-1000, max_value=1000))
def test_power_of_two_scaling_keeps_the_marching_arrays(c, k):
    """Scaling by 2**k is exact, so the build neither overflows nor
    underflows and pairs the same facets.  inv's partial pivoting on the
    column (1, x) of a vertex picks another row once |x| passes 1, so a
    triangle's normals may move in their last bits; within the tolerance
    the per-simplex reference test grants them."""
    with np.errstate(all="raise"):
        d = build_complex(c.dimension, [tuple(x * 2.0**k for x in v) for v in c.vertices],
                          c.simplices)
    assert np.array_equal(d.neighbour, c.neighbour)
    if c.dimension == 2:
        assert np.all(np.abs(d.normal - c.normal) <= 1e-9)
    else:
        assert np.array_equal(d.normal, c.normal)


@st.composite
def simplex_lists(draw):
    """(dimension, vertices, simplices) of a rod or a triangle grid, shuffled
    and then edited: a repeated or out-of-range index (past int64 too), a
    duplicate, an orphan vertex, a ragged row, or a bad coordinate."""
    dimension = draw(st.integers(1, 2))
    n = draw(st.integers(1, 4))
    if dimension == 1:
        vertices = [[float(i)] for i in range(n + 1)]
        simplices = [[i, i + 1] for i in range(n)]
    else:
        vertices = [[float(i), float(j)] for j in range(n + 1) for i in range(n + 1)]
        simplices = []
        for j in range(n):
            for i in range(n):
                a = j * (n + 1) + i
                simplices += [[a, a + 1, a + n + 2], [a, a + n + 1, a + n + 2]]
    simplices = [draw(st.permutations(s)) for s in draw(st.permutations(simplices))]
    for _ in range(draw(st.integers(0, 2))):
        s = draw(st.sampled_from(simplices))
        k = draw(st.integers(0, len(s) - 1))
        edit = draw(st.sampled_from(
            ["repeat", "range", "duplicate", "orphan", "ragged", "drop", "coordinate"]
        ))
        if edit == "repeat":
            s[k] = s[(k + 1) % len(s)]
        elif edit == "range":
            s[k] = draw(st.sampled_from([-1, len(vertices), 2**63, 10**23, -(10**23)]))
        elif edit == "duplicate":
            simplices.insert(draw(st.integers(0, len(simplices))), list(reversed(s)))
        elif edit == "orphan":
            vertices.append([0.5] * dimension)
        elif edit == "ragged":
            s.append(0) if draw(st.booleans()) else s.pop()
        elif edit == "drop" and len(simplices) > 1:
            simplices.remove(s)
        elif edit == "coordinate":
            vertex = draw(st.sampled_from(vertices))
            vertex.append(1.0) if draw(st.booleans()) else vertex.__setitem__(0, float("inf"))
    return dimension, [tuple(v) for v in vertices], [tuple(s) for s in simplices]


def built(dimension, vertices, simplices):
    """build_complex's complex with its arrays, or its error's type and text."""
    try:
        c = build_complex(dimension, vertices, simplices)
    except GeometryError as exc:
        return type(exc), str(exc)
    return c, c.inverse.tolist(), c.normal.tolist(), c.neighbour.tolist()


@given(simplex_lists())
def test_array_validation_equals_the_per_simplex_loop(case):
    """Where the array checks pass, the complex is the loop's; where a
    conversion raises or a check fails, the loop names the first bad
    vertex or simplex in input order, with the same type and text."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_checked_arrays", lambda *args: None)
        expected = built(*case)
    assert built(*case) == expected
