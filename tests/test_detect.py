"""Trace synthesis along rays and interface/vertex detection."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polywave import detect as detect_module
from polywave.acoustic import AcousticMedium
from polywave.coupled_mode import (
    MAX_GRID_STEPS,
    CascadeSpec,
    CoupledModeParams,
    CouplerStage,
    DelayStage,
    MalformedSpec,
    coupler_matrix,
    delay_matrix,
    integrate_coupled_modes,
)
from polywave.detect import (
    FIT_BUDGET,
    STALL_FACTOR,
    DetectionReport,
    FieldTrace,
    InterfaceHit,
    InterfaceHits,
    ObliqueCrossing,
    Ray,
    RayOutsideComplex,
    TooFewTraces,
    WindowTooSmall,
    WrongWaveKind,
    detect_interfaces_acoustic,
    detect_interfaces_em,
    detect_vertex_cascade,
    detect_vertex_coupled_mode,
    detect_vertex_fwm,
    synthesize_ray_trace,
    _levenberg_marquardt,
    _march,
    _step_coefficients,
)
from polywave.fresnel import EmMedium
from polywave.fwm import GainModel, degenerate_gain
from polywave.geometry import GeometryError, build_complex
from polywave.scenario import Scenario, VertexCheck, run_detect
from polywave.traceio import fmt_float, sidecar_path, write_report

ROD_MEDIA = {0: EmMedium(1.0), 1: EmMedium(1.5), 2: EmMedium(2.0)}
ROD_RAY = Ray(origin=(0.0005,), direction=(1.0,), length=0.999, grid_step=0.001)
ROD_CANDIDATES = [(1.0, 1.5), (1.5, 2.0), (1.0, 2.0)]


def rod_complex():
    return build_complex(
        1,
        [(0.0,), (0.25,), (0.55,), (1.0,)],
        [(0, 1), (1, 2), (2, 3)],
        media={0: 0, 1: 1, 2: 2},
    )


def homogeneous_rod():
    return build_complex(
        1, [(0.0,), (0.5,), (1.0,)], [(0, 1), (1, 2)], media={0: 0, 1: 0}
    )


def acoustic_rod():
    return build_complex(
        1, [(0.0,), (0.5,), (1.0,)], [(0, 1), (1, 2)], media={0: 0, 1: 1}
    )


ACOUSTIC_MEDIA = {
    0: AcousticMedium(impedance=1.0, sound_speed=1.0),
    1: AcousticMedium(impedance=4.0, sound_speed=1.0),
}


def em_trace(z, incident, reflected=None, ray=None, ray_id=0):
    z = np.asarray(z, dtype=float)
    if ray is None:
        step = float(z[1] - z[0]) if len(z) > 1 else 1.0
        ray = Ray(
            origin=(0.0,), direction=(1.0,),
            length=float(z[-1]) if z[-1] > 0 else step, grid_step=step,
        )
    incident = np.asarray(incident, dtype=complex)
    if reflected is None:
        reflected = np.zeros_like(incident)
    return FieldTrace(
        ray=ray, z=z, incident=incident, reflected=np.asarray(reflected, dtype=complex),
        medium_ids=tuple(0 for _ in z), wave_kind="em", ray_id=ray_id,
    )


# ---------------------------------------------------------------------------
# synthesis

def test_homogeneous_rod_constant_trace():
    tr = synthesize_ray_trace(
        homogeneous_rod(), {0: EmMedium(1.0)},
        Ray(origin=(0.01,), direction=(1.0,), length=0.98, grid_step=0.01),
    )
    assert np.all(tr.incident == 1.0 + 0j)
    assert np.all(tr.reflected == 0j)
    assert tr.wave_kind == "em"


def test_rod_amplitude_steps():
    tr = synthesize_ray_trace(rod_complex(), ROD_MEDIA, ROD_RAY)
    assert tr.n_samples == 1000
    levels = sorted(set(np.round(tr.incident.real, 15)))
    t1 = 2 * 1.0 / 2.5
    t2 = t1 * 2 * 1.5 / 3.5
    assert levels == pytest.approx(sorted([1.0, t1, t2]), abs=1e-15)
    # sample exactly on a crossing belongs to the downstream compartment
    assert tr.incident[249] == pytest.approx(1.0)
    assert tr.incident[250] == pytest.approx(t1)
    assert tr.medium_ids[249] == 0
    assert tr.medium_ids[250] == 1


def test_rod_reflected_samples():
    tr = synthesize_ray_trace(rod_complex(), ROD_MEDIA, ROD_RAY)
    nz = np.flatnonzero(tr.reflected)
    assert list(nz) == [249, 549]
    assert tr.reflected[249] == pytest.approx(-0.2, abs=1e-15)
    assert tr.reflected[549] == pytest.approx(0.8 * (1.5 - 2.0) / 3.5, abs=1e-15)


def test_synthesis_deterministic_per_seed():
    c = rod_complex()
    a = synthesize_ray_trace(c, ROD_MEDIA, ROD_RAY, noise_sigma=0.01, seed=42)
    b = synthesize_ray_trace(c, ROD_MEDIA, ROD_RAY, noise_sigma=0.01, seed=42)
    assert np.array_equal(a.incident, b.incident)
    assert np.array_equal(a.reflected, b.reflected)
    other = synthesize_ray_trace(c, ROD_MEDIA, ROD_RAY, noise_sigma=0.01, seed=43)
    assert not np.array_equal(a.incident, other.incident)


def test_zero_sigma_ignores_seed():
    c = rod_complex()
    a = synthesize_ray_trace(c, ROD_MEDIA, ROD_RAY, noise_sigma=0.0, seed=1)
    b = synthesize_ray_trace(c, ROD_MEDIA, ROD_RAY, noise_sigma=0.0, seed=2)
    assert np.array_equal(a.incident, b.incident)


def test_acoustic_rod_intensity_steps():
    tr = synthesize_ray_trace(
        acoustic_rod(), ACOUSTIC_MEDIA,
        Ray(origin=(0.0005,), direction=(1.0,), length=0.999, grid_step=0.001),
    )
    assert tr.wave_kind == "acoustic"
    assert tr.incident[-1] == pytest.approx(0.64, abs=1e-15)
    nz = np.flatnonzero(tr.reflected)
    assert len(nz) == 1
    assert tr.reflected[nz[0]] == pytest.approx(0.36, abs=1e-15)


def reference_segment_values(wave_kind, values):
    """The per-crossing loop before the product form, kept as an oracle:
    one complex product per crossing, (t, r) cached per pair of values."""
    coeffs = {}
    seg_value = [1.0 + 0j]
    refl_at_crossing = []
    for pair in zip(values, values[1:]):
        if pair not in coeffs:
            coeffs[pair] = _step_coefficients(wave_kind, *pair)
        t_c, r_c = coeffs[pair]
        cur = seg_value[-1]
        refl_at_crossing.append(r_c * cur)
        seg_value.append(t_c * cur)
    return np.asarray(seg_value, dtype=complex), np.asarray(refl_at_crossing, dtype=complex)


# media values of either kind, with contrasts far past the float range's
# square root, where two crossings underflow the amplitude or intensity
SEGMENT_MEDIA = (1.0, 1.5, 2.0, 4.0, 0.3, 1e-150, 1e150, 5e-324, 1.7976931348623157e308)


@st.composite
def rods_of_media(draw):
    """A wave kind and the media values of a rod's segments, in order."""
    wave_kind = draw(st.sampled_from(["em", "acoustic"]))
    palette = draw(st.lists(st.sampled_from(SEGMENT_MEDIA), min_size=1, max_size=4, unique=True))
    return wave_kind, draw(st.lists(st.sampled_from(palette), min_size=1, max_size=300))


def bits(a):
    return np.asarray(a, dtype=complex).view(np.uint64)


@settings(deadline=None, max_examples=60)
@given(rods_of_media())
# 2,000 crossings between impedances 1 and 4 (T_I = 0.64 each) take the
# intensity down through the subnormals; an EM index falling by equal
# ratios from the top of the float range to the bottom takes the amplitude
# past it, where the complex products give inf + nan j, then nan + nan j
@example(("acoustic", [1.0, 4.0] * 1000))
@example(("em", np.exp(np.linspace(math.log(1e308), math.log(1e-323), 30000)).tolist()))
def test_segment_values_equal_the_per_crossing_loop_bit_for_bit(case):
    """On a rod of half-unit segments sampled every 0.1, each segment's
    samples carry its value and the sample before each crossing its
    reflected value, bit for bit those of the per-crossing loop."""
    wave_kind, values = case
    n = len(values)
    c = build_complex(1, [(0.5 * i,) for i in range(n + 1)], [(i, i + 1) for i in range(n)],
                      media={i: i for i in range(n)})
    medium = EmMedium if wave_kind == "em" else (lambda v: AcousticMedium(v, 1.0))
    ray = Ray(origin=(0.0,), direction=(1.0,), length=0.5 * n - 0.05, grid_step=0.1)
    tr = synthesize_ray_trace(c, {i: medium(v) for i, v in enumerate(values)}, ray)
    cross_z, path = _march(c, ray)
    assert path == list(range(n))
    seg_value, refl_at_crossing = reference_segment_values(wave_kind, values)
    seg_of = np.searchsorted(cross_z, tr.z, side="right")
    assert set(seg_of.tolist()) == set(range(n))  # every segment is sampled
    assert np.array_equal(bits(tr.incident), bits(seg_value[seg_of]))
    reflected = np.zeros(len(tr.z), dtype=complex)
    np.add.at(reflected, np.searchsorted(tr.z, cross_z, side="left") - 1, refl_at_crossing)
    assert np.array_equal(bits(tr.reflected), bits(reflected))


def test_ray_outside_complex():
    with pytest.raises(RayOutsideComplex):
        synthesize_ray_trace(
            rod_complex(), ROD_MEDIA,
            Ray(origin=(-0.5,), direction=(1.0,), length=0.3, grid_step=0.01),
        )


def test_ray_exits_through_boundary():
    with pytest.raises(RayOutsideComplex):
        synthesize_ray_trace(
            rod_complex(), ROD_MEDIA,
            Ray(origin=(0.5,), direction=(1.0,), length=2.0, grid_step=0.01),
        )


def test_normal_2d_crossing_allowed():
    c = build_complex(
        2,
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 0.0)],
        [(0, 1, 2), (1, 2, 3)],
        media={0: 0, 1: 1},
    )
    tr = synthesize_ray_trace(
        c, {0: EmMedium(1.0), 1: EmMedium(1.5)},
        Ray(origin=(0.6, 0.5), direction=(1.0, 0.0), length=0.7, grid_step=0.01),
    )
    assert tr.incident[-1] == pytest.approx(0.8)


def test_oblique_crossing_rejected():
    c = build_complex(
        2,
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        [(0, 1, 2), (1, 2, 3)],
        media={0: 0, 1: 1},
    )
    with pytest.raises(ObliqueCrossing):
        synthesize_ray_trace(
            c, {0: EmMedium(1.0), 1: EmMedium(1.5)},
            Ray(origin=(0.1, 0.1), direction=(1.0, 0.0), length=0.85, grid_step=0.01),
        )


def unit_grid(n, medium_of):
    """n x n grid on the unit square, each cell cut along its rising
    diagonal; medium_of(x, y) gives the medium at a triangle's centroid."""
    verts = [(i / n, j / n) for j in range(n + 1) for i in range(n + 1)]
    tris = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            tris += [(a, a + 1, a + n + 2), (a, a + n + 1, a + n + 2)]
    media = {
        k: medium_of(*np.mean([verts[v] for v in tri], axis=0)) for k, tri in enumerate(tris)
    }
    return build_complex(2, verts, tris, media=media)


GRID_RAY = Ray(origin=(0.005, 0.5123), direction=(1.0, 0.0), length=0.99, grid_step=0.01)


def test_same_medium_facets_are_transparent():
    # every cell diagonal is oblique to the ray; one medium makes them moot
    c = unit_grid(40, lambda x, y: 0)
    tr = synthesize_ray_trace(c, {0: EmMedium(1.5)}, GRID_RAY)
    assert tr.n_samples == 100
    assert np.all(tr.incident == 1.0 + 0j)
    assert np.all(tr.reflected == 0j)
    assert set(tr.medium_ids) == {0}


def test_grid_records_only_the_media_change():
    c = unit_grid(40, lambda x, y: int(x > 0.5))
    (z,), (before, after) = _march(c, GRID_RAY)
    assert z == pytest.approx(0.495, abs=1e-12)
    # entered across its facet on x = 0.5
    assert [c.vertices[v][0] for v in c.simplices[after]].count(0.5) == 2
    assert (c.media[before], c.media[after]) == (0, 1)
    tr = synthesize_ray_trace(c, {0: EmMedium(1.0), 1: EmMedium(1.5)}, GRID_RAY)
    assert tr.incident[49] == 1.0 and tr.incident[50] == pytest.approx(0.8)
    assert np.flatnonzero(tr.reflected).tolist() == [49]


def test_march_crosses_a_rod_at_its_vertices():
    rng = np.random.default_rng(5)
    x = np.concatenate([[0.0], np.cumsum(0.5 + rng.random(30))])
    c = build_complex(
        1, [(float(v),) for v in x], [(i, i + 1) for i in range(30)],
        media={i: i for i in range(30)},
    )
    origin = 0.3 * float(x[1])
    ray = Ray(origin=(origin,), direction=(1.0,), length=float(x[-1]) - 0.1 - origin, grid_step=0.01)
    z, path = _march(c, ray)
    assert path == list(range(30))
    assert np.max(np.abs(np.array(z) - (x[1:-1] - origin))) <= 1e-12


def test_ray_through_codimension_two_face_rejected():
    c = build_complex(
        2,
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        [(0, 1, 2)],
        media={0: 0},
    )
    d = np.array([0.5, -0.25])
    d /= np.linalg.norm(d)
    with pytest.raises(RayOutsideComplex):
        synthesize_ray_trace(
            c, {0: EmMedium(1.0)},
            Ray(origin=(0.5, 0.25), direction=tuple(d), length=0.7, grid_step=0.01),
        )


def reference_march(c, ray):
    """The walk before the exit table, kept as an oracle: exit_of at every
    step, over (S, n+1) lists of every simplex's coordinates.  Returns the
    z of every crossing and the simplex of every segment, as _march does."""
    origin = np.asarray(ray.origin, dtype=float)
    direction = np.asarray(ray.direction, dtype=float)
    eps_t = 1e-12 * ray.length

    lam0_all = c.inverse @ np.concatenate(([1.0], origin))
    containing = np.flatnonzero(np.min(lam0_all, axis=1) >= -1e-9).tolist()
    if not containing:
        raise RayOutsideComplex(f"ray origin {ray.origin} lies outside the complex")
    lam0 = lam0_all.tolist()
    lam_d = (c.inverse @ np.concatenate(([0.0], direction))).tolist()
    cosine = (c.normal @ direction).tolist()
    neighbour = c.neighbour.tolist()

    def exit_of(idx, t_enter):
        l0, ld = lam0[idx], lam_d[idx]
        t_exit, j_exit = math.inf, -1
        for j in range(len(l0)):
            if ld[j] < -1e-300:
                t_j = -l0[j] / ld[j]
                if t_j > t_enter + eps_t and t_j < t_exit - eps_t:
                    t_exit, j_exit = t_j, j
                elif t_j > t_enter + eps_t and abs(t_j - t_exit) <= eps_t:
                    j_exit = -2
        return t_exit, j_exit

    current = None
    for idx in containing:
        t_exit, j_exit = exit_of(idx, 0.0)
        if j_exit >= 0 and t_exit > eps_t:
            current = idx
            break
    if current is None:
        raise RayOutsideComplex("ray cannot advance from its origin")

    cross_z, path = [], [current]
    t = 0.0
    for _ in range(len(c.simplices) + 1):
        t_exit, j_exit = exit_of(current, t)
        if j_exit == -2:
            raise RayOutsideComplex(
                "ray exits through a face of codimension >= 2 (ambiguous)"
            )
        if t_exit >= ray.length - eps_t:
            return cross_z, path
        nxt = neighbour[current][j_exit]
        if nxt >= 0 and c.media[nxt] == c.media[current]:
            current, t = nxt, t_exit
            continue
        simplex = c.simplices[current]
        facet = simplex[:j_exit] + simplex[j_exit + 1:]
        if abs(cosine[current][j_exit]) <= 1.0 - 1e-9:
            raise ObliqueCrossing(
                f"ray crosses facet {facet} at z={t_exit:.6g} away from normal"
            )
        if nxt < 0:
            raise RayOutsideComplex(
                f"ray leaves the complex through boundary facet {facet} at z={t_exit:.6g}"
            )
        cross_z.append(t_exit)
        path.append(nxt)
        current, t = nxt, t_exit
    raise RayOutsideComplex("ray marching did not terminate")


def outcome(march, c, ray):
    """What a march returns, or the type and text of what it raises."""
    try:
        return march(c, ray)
    except GeometryError as exc:
        return type(exc), str(exc)


@st.composite
def rods_with_runs(draw):
    """A 1-D rod of random segment lengths whose media come in runs, and a
    ray along it that may start on a vertex and may leave the rod."""
    n = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n))
    x = np.concatenate([[0.0], np.cumsum(gaps)]).tolist()
    runs = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    c = build_complex(1, [(v,) for v in x], [(i, i + 1) for i in range(n)],
                      media=dict(enumerate(runs)))
    if draw(st.booleans()):
        origin = x[draw(st.integers(0, n))]
    else:
        origin = draw(st.floats(-0.5, x[-1] + 0.5))
    direction = draw(st.sampled_from([1.0, -1.0]))
    length = draw(st.floats(0.02, x[-1] + 1.0))
    return c, Ray(origin=(origin,), direction=(direction,), length=length, grid_step=0.01)


@st.composite
def grids_with_blocks(draw):
    """An n x m grid of right triangles (each cell cut along its rising
    diagonal) with media in axis-aligned blocks, and a ray whose origin may
    lie on a vertex, an edge or a diagonal.  The ray is axis-parallel, or
    runs along falling diagonals through the vertices, where it leaves a
    triangle through a corner (a graze) or crosses a block edge obliquely."""
    n = draw(st.integers(1, 5))
    m = n if draw(st.booleans()) else draw(st.integers(1, 5))
    x_cuts = draw(st.lists(st.integers(1, n), min_size=1, max_size=2))
    y_cuts = draw(st.lists(st.integers(1, m), min_size=1, max_size=2))
    # nine blocks in k media: neighbouring blocks mostly differ, some share
    k = draw(st.integers(2, 9))
    palette = [b % k for b in draw(st.permutations(range(9)))]
    verts = [(i / n, j / m) for j in range(m + 1) for i in range(n + 1)]
    tris, media = [], {}
    for j in range(m):
        for i in range(n):
            a = j * (n + 1) + i
            block = sum(i >= cut for cut in x_cuts) + 3 * sum(j >= cut for cut in y_cuts)
            for tri in ((a, a + 1, a + n + 2), (a, a + n + 1, a + n + 2)):
                media[len(tris)] = palette[block]
                tris.append(tri)
    c = build_complex(2, verts, tris, media=media)
    # half-cell positions: even ones lie on grid lines
    origin = (draw(st.integers(0, 2 * n)) / (2 * n), draw(st.integers(0, 2 * m)) / (2 * m))
    h = math.sqrt(0.5)
    direction = draw(st.sampled_from(
        [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (h, -h), (-h, h)]
    ))
    length = draw(st.sampled_from([1.01, 0.51, 0.26, 0.135, 1.51, 0.76]))
    return c, Ray(origin=origin, direction=direction, length=length, grid_step=0.01)


@settings(max_examples=300)
@given(st.one_of(rods_with_runs(), grids_with_blocks()))
# degenerate walks on a 2 x 2 grid: a ray along the edge y = 0.5 with medium
# 1 where x >= 0.5, which today ends at the vertex (0.5, 0.5) without a
# crossing, and a falling diagonal through the vertices of a uniform grid,
# which today raises the codimension-2 graze
@example((unit_grid(2, lambda x, y: int(x >= 0.5)),
          Ray(origin=(0.25, 0.5), direction=(1.0, 0.0), length=0.6, grid_step=0.01)))
@example((unit_grid(2, lambda x, y: 0),
          Ray(origin=(0.0, 1.0), direction=(math.sqrt(0.5), -math.sqrt(0.5)), length=1.2, grid_step=0.01)))
def test_march_equals_the_walk_that_calls_exit_of_at_every_step(case):
    """The exit table answers only where every leaving facet lies past the
    entry time, and the scan of the simplex's row everywhere else: the
    crossing z list, the path and raised errors equal those of a walk that
    scans at every step."""
    c, ray = case
    assert outcome(_march, c, ray) == outcome(reference_march, c, ray)


def test_media_validation():
    with pytest.raises(GeometryError):
        synthesize_ray_trace(
            build_complex(1, [(0.0,), (1.0,)], [(0, 1)]), {0: EmMedium(1.0)}, ROD_RAY
        )
    with pytest.raises(ValueError):
        synthesize_ray_trace(
            rod_complex(),
            {0: EmMedium(1.0), 1: AcousticMedium(1.0, 1.0), 2: EmMedium(2.0)},
            ROD_RAY,
        )
    with pytest.raises(ValueError):
        synthesize_ray_trace(rod_complex(), {0: EmMedium(1.0)}, ROD_RAY)
    with pytest.raises(ValueError, match="^media must be EmMedium or AcousticMedium records$"):
        synthesize_ray_trace(
            rod_complex(),
            {0: AcousticMedium(1.0, 1.0), 1: AcousticMedium(4.0, 1.0), 2: 4.0},
            ROD_RAY,
        )


def test_ray_validation():
    with pytest.raises(ValueError):
        Ray(origin=(0.0,), direction=(2.0,), length=1.0, grid_step=0.1)
    with pytest.raises(ValueError):
        Ray(origin=(0.0,), direction=(1.0,), length=1.0, grid_step=0.0)
    with pytest.raises(ValueError):
        Ray(origin=(0.0,), direction=(1.0,), length=0.05, grid_step=0.1)
    with pytest.raises(ValueError):
        Ray(origin=(0.0, 0.0), direction=(1.0,), length=1.0, grid_step=0.1)


@pytest.mark.parametrize("length, step", [(1.0, 1e-12), (1.0, 1e-320), (1e6 + 1, 1.0)])
def test_ray_of_more_than_max_steps_rejected(length, step):
    with pytest.raises(ValueError, match=f"length / grid_step must be <= {MAX_GRID_STEPS}"):
        Ray(origin=(0.0,), direction=(1.0,), length=length, grid_step=step)
    assert Ray(origin=(0.0,), direction=(1.0,), length=1e6, grid_step=1.0).length == MAX_GRID_STEPS


# ---------------------------------------------------------------------------
# interface detection

def test_rod_roundtrip_finds_both_interfaces():
    tr = synthesize_ray_trace(rod_complex(), ROD_MEDIA, ROD_RAY)
    hits = detect_interfaces_em(tr, ROD_CANDIDATES, tol=1e-6)
    assert len(hits) == 2
    assert hits[0].media_pair == (1.0, 1.5)
    assert hits[1].media_pair == (1.5, 2.0)
    assert abs(hits[0].position[0] - 0.25) <= ROD_RAY.grid_step
    assert abs(hits[1].position[0] - 0.55) <= ROD_RAY.grid_step
    for h in hits:
        assert h.residual <= 1e-12


def test_homogeneous_trace_no_hits():
    tr = synthesize_ray_trace(
        homogeneous_rod(), {0: EmMedium(1.0)},
        Ray(origin=(0.01,), direction=(1.0,), length=0.98, grid_step=0.01),
    )
    assert detect_interfaces_em(tr, ROD_CANDIDATES, tol=1e-6) == []


def test_wave_kind_enforced():
    em = synthesize_ray_trace(rod_complex(), ROD_MEDIA, ROD_RAY)
    ac = synthesize_ray_trace(
        acoustic_rod(), ACOUSTIC_MEDIA,
        Ray(origin=(0.0005,), direction=(1.0,), length=0.999, grid_step=0.001),
    )
    with pytest.raises(WrongWaveKind):
        detect_interfaces_em(ac, ROD_CANDIDATES, tol=1e-6)
    with pytest.raises(WrongWaveKind):
        detect_interfaces_acoustic(em, [(1.0, 4.0)], tol=1e-6)


def test_detection_scale_invariant():
    tr = synthesize_ray_trace(rod_complex(), ROD_MEDIA, ROD_RAY)
    scaled = FieldTrace(
        ray=tr.ray, z=tr.z, incident=tr.incident * 7.3, reflected=tr.reflected * 7.3,
        medium_ids=tr.medium_ids, wave_kind=tr.wave_kind, ray_id=tr.ray_id,
    )
    a = detect_interfaces_em(tr, ROD_CANDIDATES, tol=1e-6)
    b = detect_interfaces_em(scaled, ROD_CANDIDATES, tol=1e-6)
    assert [(h.z, h.media_pair) for h in a] == [(h.z, h.media_pair) for h in b]


def test_acoustic_roundtrip_and_reciprocity():
    fwd = synthesize_ray_trace(
        acoustic_rod(), ACOUSTIC_MEDIA,
        Ray(origin=(0.0005,), direction=(1.0,), length=0.999, grid_step=0.001),
    )
    hits = detect_interfaces_acoustic(fwd, [(1.0, 4.0)], tol=1e-6)
    assert len(hits) == 1
    assert hits[0].measured_t.real == pytest.approx(0.64, abs=1e-12)
    assert hits[0].measured_r.real == pytest.approx(0.36, abs=1e-12)

    # reversed propagation crosses 4 -> 1; T and R are symmetric in the ratio
    bwd = synthesize_ray_trace(
        acoustic_rod(), ACOUSTIC_MEDIA,
        Ray(origin=(0.9995,), direction=(-1.0,), length=0.999, grid_step=0.001),
    )
    hits_b = detect_interfaces_acoustic(bwd, [(1.0, 4.0)], tol=1e-6)
    assert len(hits_b) == 1
    assert hits_b[0].measured_t.real == pytest.approx(0.64, abs=1e-12)
    assert abs(hits_b[0].position[0] - 0.5) <= 0.001

    # so a swapped pair matches as well: each is reported as listed, and of
    # the two the ascending pair wins the tie
    assert detect_interfaces_acoustic(fwd, [(4.0, 1.0)], tol=1e-6)[0].media_pair == (4.0, 1.0)
    hits = detect_interfaces_acoustic(fwd, [(4.0, 1.0), (1.0, 4.0)], tol=1e-6)
    assert hits[0].media_pair == (1.0, 4.0)


def test_consecutive_flags_merge_to_first_z():
    # a near-unity candidate matches every homogeneous sample pair at loose
    # tol; the whole run must merge into a single hit at the first z
    tr = synthesize_ray_trace(
        homogeneous_rod(), {0: EmMedium(1.0)},
        Ray(origin=(0.01,), direction=(1.0,), length=0.98, grid_step=0.01),
    )
    hits = detect_interfaces_em(tr, [(1.0, 1.0001)], tol=0.05)
    assert len(hits) == 1
    assert hits[0].z == 0.0


def test_tie_breaking_prefers_smallest_residual():
    tr = synthesize_ray_trace(rod_complex(), ROD_MEDIA, ROD_RAY)
    # a loose tolerance lets both (1.0, 1.5) and a slightly-off pair match;
    # the reported pair must be the better (smaller-residual) one
    hits = detect_interfaces_em(tr, [(1.0, 1.5), (1.0, 1.51)], tol=0.05)
    assert hits[0].media_pair == (1.0, 1.5)


def test_noise_monotonicity_of_false_positives():
    c = homogeneous_rod()
    ray = Ray(origin=(0.01,), direction=(1.0,), length=0.98, grid_step=0.001)
    totals = []
    for sigma in (0.005, 0.01, 0.02):
        count = 0
        for seed in range(100):
            tr = synthesize_ray_trace(c, {0: EmMedium(1.0)}, ray, sigma, seed)
            count += len(detect_interfaces_em(tr, [(1.0, 1.0001)], tol=0.05))
        totals.append(count)
    assert totals[0] <= totals[1] <= totals[2]


def test_candidate_whose_t_rounds_to_zero_never_matches():
    """n1 = 1e-320 into 1.5 gives t = 1 + r = 0.0: skipped, not divided by."""
    trace = synthesize_ray_trace(rod_complex(), ROD_MEDIA, ROD_RAY, noise_sigma=0.0, seed=0)
    hits = detect_interfaces_em(trace, ROD_CANDIDATES, tol=1e-6)
    assert detect_interfaces_em(trace, [(1e-320, 1.5)] + ROD_CANDIDATES, tol=1e-6) == hits
    assert len(detect_interfaces_em(trace, [(1e-320, 1.5)], tol=1e-6)) == 0


def test_short_trace_no_hits():
    tr = em_trace([0.0], [1.0])
    assert detect_interfaces_em(tr, ROD_CANDIDATES, tol=1e-6) == []


def test_interface_hits_are_a_sequence_of_views():
    tr = synthesize_ray_trace(rod_complex(), ROD_MEDIA, ROD_RAY)
    hits = detect_interfaces_em(tr, ROD_CANDIDATES, tol=1e-6)
    assert isinstance(hits, InterfaceHits)
    views = list(hits)
    assert len(views) == 2 and all(type(h) is InterfaceHit for h in views)
    assert [hits[0], hits[1]] == views and hits[-1] == views[1] and hits[-2] == views[0]
    with pytest.raises(IndexError):
        hits[2]
    assert isinstance(hits[1:], InterfaceHits) and hits[1:] == views[1:]
    assert hits == views and hits == tuple(views) and hits == InterfaceHits.from_hits(views)
    assert hits != views[:1] and hits != views[::-1]
    assert InterfaceHits.concatenate([hits, hits[:0], hits[:1]]) == views + views[:1]
    assert InterfaceHits.concatenate([]) == []


MEDIUM_VALUES = (1.0, 1.25, 1.5, 1.75, 2.0)


def reference_rows(hits) -> str:
    """Interface report rows rendered hit by hit, each float through
    fmt_float and the position's coordinates joined by ';'."""
    return "".join(
        f"interface,{h.ray_id},{fmt_float(h.z)},{';'.join(map(fmt_float, h.position))},"
        f"{fmt_float(h.measured_t.real)},{fmt_float(h.measured_t.imag)},"
        f"{fmt_float(h.measured_r.real)},{fmt_float(h.measured_r.imag)},"
        f"{fmt_float(h.media_pair[0])},{fmt_float(h.media_pair[1])},,{fmt_float(h.residual)},\n"
        for h in hits
    )


def test_report_of_many_hits_matches_the_per_hit_rows(tmp_path):
    """More hits than one write renders: every row, in order, once."""
    rng = np.random.default_rng(3)
    k = 3 * 4096 + 5
    hits = InterfaceHits(
        ray_id=rng.integers(0, 9, k), z=rng.random(k), position=rng.standard_normal((k, 2)),
        t=rng.standard_normal(k) + 1j * rng.standard_normal(k), r=rng.standard_normal(k) + 0j,
        pair=rng.choice(MEDIUM_VALUES, (k, 2)), residual=rng.random(k) * 1e-3,
    )
    path = tmp_path / "report.csv"
    write_report(path, DetectionReport(interface_hits=hits))
    assert path.read_text().split("\n", 1)[1] == reference_rows(hits)


@settings(deadline=None, max_examples=40)
@given(
    wave_kind=st.sampled_from(["em", "acoustic"]),
    paper_exact=st.booleans(),
    values=st.lists(st.sampled_from(MEDIUM_VALUES), min_size=2, max_size=7),
    extra=st.lists(st.tuples(st.sampled_from(MEDIUM_VALUES), st.sampled_from(MEDIUM_VALUES)),
                   max_size=3),
    sigma=st.floats(0.0, 0.03),
    seed=st.integers(0, 2**16),
    step=st.floats(0.002, 0.02),
    tol=st.floats(1e-6, 0.3),
    ray_id=st.integers(0, 40),
    origin=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    dim=st.integers(1, 3),
)
def test_interface_hit_columns_match_the_per_hit_formula(
    tmp_path_factory, wave_kind, paper_exact, values, extra, sigma, seed, step, tol, ray_id,
    origin, direction, dim,
):
    m = len(values)
    cpx = build_complex(
        1, [(i / m,) for i in range(m + 1)], [(i, i + 1) for i in range(m)],
        media={i: i for i in range(m)},
    )
    if wave_kind == "em":
        media = {i: EmMedium(v) for i, v in enumerate(values)}
        detect = detect_interfaces_em
    else:
        media = {i: AcousticMedium(impedance=v, sound_speed=1.0) for i, v in enumerate(values)}
        detect = lambda *args: detect_interfaces_acoustic(*args, paper_exact=paper_exact)  # noqa: E731
    rod_ray = Ray(origin=(0.0005,), direction=(1.0,), length=0.998, grid_step=step)
    trace = synthesize_ray_trace(cpx, media, rod_ray, sigma, seed, ray_id)
    # the same samples, read as taken along a ray in 1-3 dimensions
    norm = math.sqrt(sum(d * d for d in direction[:dim]))
    if norm < 0.1:
        direction, norm = [1.0, 0.0, 0.0], 1.0
    ray = Ray(tuple(origin[:dim]), tuple(d / norm for d in direction[:dim]), 0.998, step)
    trace = dataclasses.replace(trace, ray=ray)
    candidates = list(zip(values, values[1:])) + extra
    if wave_kind == "acoustic" and paper_exact:  # its transmittance is singular for Z1 == Z2
        candidates = [(a, b) for a, b in candidates if a != b]

    hits = detect(trace, candidates, tol)
    expected = [
        InterfaceHit(rid, z, ray.point_at(z), t, r, tuple(pair), residual)
        for rid, z, t, r, pair, residual in zip(
            hits.ray_id.tolist(), hits.z.tolist(), hits.t.tolist(), hits.r.tolist(),
            hits.pair.tolist(), hits.residual.tolist(),
        )
    ]
    assert list(hits) == expected
    assert [hits[i] for i in range(len(hits))] == expected
    assert set(hits.z.tolist()) <= set(trace.z.tolist())
    assert all(h.ray_id == ray_id and h.residual <= tol for h in expected)
    assert {h.media_pair for h in expected} <= {(float(a), float(b)) for a, b in candidates}

    directory = tmp_path_factory.mktemp("report")
    columnar, plain = directory / "columnar.csv", directory / "plain.csv"
    write_report(columnar, DetectionReport(interface_hits=hits))
    write_report(plain, DetectionReport(interface_hits=expected))
    assert columnar.read_bytes() == plain.read_bytes()
    assert columnar.read_text().split("\n", 1)[1] == reference_rows(expected)


# ---------------------------------------------------------------------------
# vertex detection: coupled-mode fit

def coupled_traces(p, z_max=1.0, step=0.05, a0=1.0 + 0j, b0=0j):
    traj = integrate_coupled_modes(p, z_max, step=step, a0=a0, b0=b0)
    ta = em_trace(traj.z_grid, traj.a, ray_id=0)
    tb = em_trace(traj.z_grid, traj.b, ray_id=1)
    return ta, tb


def test_coupled_fit_recovers_generating_params():
    p = CoupledModeParams(beta1=2.0, beta2=2.0, kappa12=0.7, kappa21=0.7)
    ta, tb = coupled_traces(p)
    v = detect_vertex_coupled_mode(ta, tb, corner_window=2.0, tol=1e-6)
    assert v.is_vertex
    assert v.residual < 1e-8
    assert not v.degenerate
    assert v.params["beta1"] == pytest.approx(2.0, rel=1e-6)
    assert v.params["beta2"] == pytest.approx(2.0, rel=1e-6)
    assert v.params["kappa12"] == pytest.approx(0.7, rel=1e-6)
    assert v.params["kappa21"] == pytest.approx(0.7, rel=1e-6)


def test_coupled_fit_detuned_asymmetric_coupling():
    p = CoupledModeParams(beta1=2.4, beta2=1.7, kappa12=0.5, kappa21=0.9)
    ta, tb = coupled_traces(p, b0=0.3 + 0j)
    v = detect_vertex_coupled_mode(ta, tb, corner_window=2.0, tol=1e-6)
    assert v.is_vertex
    assert v.params["kappa12"] == pytest.approx(0.5, rel=1e-5)
    assert v.params["kappa21"] == pytest.approx(0.9, rel=1e-5)


def test_decoupled_traces_fail_kappa_threshold():
    p = CoupledModeParams(beta1=2.0, beta2=3.0)
    ta, tb = coupled_traces(p, b0=0.6 + 0.2j)
    v = detect_vertex_coupled_mode(ta, tb, corner_window=2.0, tol=1e-6)
    assert not v.is_vertex
    assert max(abs(v.params["kappa12"]), abs(v.params["kappa21"])) < 1e-6


def test_constant_traces_degenerate():
    z = np.linspace(0.0, 1.0, 21)
    ta = em_trace(z, np.full(21, 0.5 + 0j))
    tb = em_trace(z, np.full(21, 0.5 + 0j))
    v = detect_vertex_coupled_mode(ta, tb, corner_window=2.0, tol=1e-6)
    assert not v.is_vertex
    assert v.degenerate


def test_coupled_fit_uses_window_tail():
    p = CoupledModeParams(beta1=2.0, beta2=2.0, kappa12=0.7, kappa21=0.7)
    ta, tb = coupled_traces(p, z_max=2.0, step=0.05)
    v = detect_vertex_coupled_mode(ta, tb, corner_window=0.5, tol=1e-6)
    assert v.is_vertex
    # only the ~0.5-long tail of the 2.0-long trace is fit
    assert 8 <= v.params["window_samples"] <= 12
    assert v.params["window_samples"] < ta.n_samples


def test_coupled_fit_without_window_fits_the_whole_trace():
    accepted = coupled_traces(CoupledModeParams(beta1=2.4, beta2=1.7, kappa12=0.5, kappa21=0.9))
    for ta, tb in (accepted, random_walk_pair(3)):
        full_span = float(ta.z[-1] - ta.z[0]) + ta.ray.grid_step
        v = detect_vertex_coupled_mode(ta, tb, corner_window=None, tol=1e-6)
        assert v == detect_vertex_coupled_mode(ta, tb, corner_window=full_span, tol=1e-6)
        assert v.params["window_samples"] == ta.n_samples
    assert detect_vertex_coupled_mode(*accepted, corner_window=None, tol=1e-6).is_vertex


def test_coupled_fit_scale_invariant():
    p = CoupledModeParams(beta1=2.0, beta2=2.0, kappa12=0.7, kappa21=0.7)
    ta, tb = coupled_traces(p)
    ta2 = em_trace(ta.z, ta.incident * 31.4)
    tb2 = em_trace(tb.z, tb.incident * 31.4)
    v = detect_vertex_coupled_mode(ta2, tb2, corner_window=2.0, tol=1e-6)
    assert v.is_vertex
    assert v.params["kappa12"] == pytest.approx(0.7, rel=1e-6)


coupling = st.one_of(st.floats(min_value=-5.0, max_value=-0.1),
                     st.floats(min_value=0.1, max_value=5.0))


@settings(deadline=None, max_examples=60)
@given(
    beta1=st.floats(min_value=-5.0, max_value=5.0),
    beta2=st.floats(min_value=-5.0, max_value=5.0),
    k12=coupling,
    k21=coupling,
    n=st.integers(min_value=13, max_value=41),
)
def test_coupled_fit_recovers_random_params(beta1, beta2, k12, k21, n):
    p = CoupledModeParams(beta1=beta1, beta2=beta2, kappa12=k12, kappa21=k21)
    ta, tb = coupled_traces(p, z_max=(n - 1) * 0.05, step=0.05)
    assert ta.n_samples == n
    v = detect_vertex_coupled_mode(ta, tb, corner_window=3.0, tol=1e-6)
    assert v.is_vertex
    assert v.residual < 1e-8
    assert v.params["stop"] == "converged"
    for key, true in (("beta1", beta1), ("beta2", beta2), ("kappa12", k12), ("kappa21", k21)):
        assert v.params[key] == pytest.approx(true, rel=1e-5, abs=1e-6)


def random_walk_pair(seed, n=13):
    rng = np.random.default_rng(seed)
    steps_a = 1.0 + 0.08 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    steps_b = 1.0 + 0.08 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    z = np.arange(n) * 0.05
    a = np.concatenate([[1.0], np.cumprod(steps_a)])
    b = np.concatenate([[0.7], 0.7 * np.cumprod(steps_b)])
    return em_trace(z, a, ray_id=0), em_trace(z, b, ray_id=1)


def test_coupled_fit_reports_why_it_stopped():
    p = CoupledModeParams(beta1=2.4, beta2=1.7, kappa12=0.5, kappa21=0.9)
    ta, tb = coupled_traces(p, b0=0.3 + 0j)
    accept = detect_vertex_coupled_mode(ta, tb, corner_window=2.0, tol=1e-6)
    assert accept.is_vertex
    assert accept.params["stop"] == "converged"
    assert accept.params["evaluations"] < 50

    # the walk's fit creeps at an rms residual near 0.13, far above
    # STALL_FACTOR * tol = 0.1, so it stops as stalled
    reject = detect_vertex_coupled_mode(*random_walk_pair(100), corner_window=2.0, tol=1e-3)
    assert not reject.is_vertex
    assert reject.residual > STALL_FACTOR * 1e-3
    assert reject.params["stop"] == "stalled"
    assert reject.params["evaluations"] < 100


@pytest.mark.parametrize("beta", [5.0, 20.0, 40.0])
def test_coupled_fit_with_a_zero_mode_starts_from_the_phase_rate(beta):
    # One mode identically zero makes the sample pairs rank 1: the start
    # takes each mode's phase rate instead of zeros, so a fast rotation no
    # longer strands the polish in a local minimum.
    z = np.arange(21) * 0.05
    ta = em_trace(z, np.exp(-1j * beta * z), ray_id=0)
    tb = em_trace(z, np.zeros(21, dtype=complex), ray_id=1)
    v = detect_vertex_coupled_mode(ta, tb, corner_window=2.0, tol=1e-6)
    assert not v.is_vertex
    # beta = 5 ends at an rms residual near 1.4e-5, under the stall floor
    # STALL_FACTOR * tol = 1e-4; the faster rotations end far above it
    assert v.params["stop"] == ("converged" if beta == 5.0 else "stalled")
    assert v.params["evaluations"] < 50


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=9, max_value=30),
       log_tol=st.floats(min_value=-7.0, max_value=-2.0))
def test_coupled_fit_stalls_only_far_above_tol(seed, n, log_tol):
    tol = 10.0 ** log_tol
    v = detect_vertex_coupled_mode(*random_walk_pair(seed, n), None, tol)
    assert v.params["stop"] in ("converged", "stalled", "budget")
    if v.params["stop"] == "stalled":
        assert v.residual > STALL_FACTOR * tol
        assert not v.is_vertex


# the vertex-fit benchmark's coupled-mode rejects, without the phase and
# amplitude its seed gives each family
VERTEX_FIT_REJECT_SAMPLES = (13, 14, 15, 16, 17, 18, 19, 21)


def test_vertex_fit_rejects_take_at_most_560_evaluations():
    # 1,026 evaluations before fits could stop as stalled
    verdicts = [detect_vertex_coupled_mode(*random_walk_pair(100 + k, n), None, 1e-3)
                for k, n in enumerate(VERTEX_FIT_REJECT_SAMPLES)]
    assert not any(v.is_vertex for v in verdicts)
    assert sum(v.params["evaluations"] for v in verdicts) <= 560


def test_coupled_fit_residual_rows_match_one_point_calls(monkeypatch):
    # the fit's residual function maps a (k, 4) stack of points to (k, 4N)
    # rows; a batched row must carry the bits of its point evaluated alone
    fits = []
    fit = _levenberg_marquardt

    def capture(residuals, p0, delta, stall_floor, budget=FIT_BUDGET):
        fits.append((residuals, p0, delta))
        return fit(residuals, p0, delta, stall_floor, budget)

    monkeypatch.setattr(detect_module, "_levenberg_marquardt", capture)
    accepted = coupled_traces(CoupledModeParams(beta1=2.4, beta2=1.7, kappa12=0.5, kappa21=0.9))
    for pair in (accepted, random_walk_pair(100, 17)):
        detect_vertex_coupled_mode(*pair, None, 1e-3)
    rng = np.random.default_rng(5)
    for residuals, p0, delta in fits:
        points = np.vstack([p0 + np.diag(delta), p0 + rng.uniform(-3.0, 3.0, (12, 4))])
        rows = residuals(points)
        assert rows.shape == (16, len(residuals(points[:1])[0]))
        for point, row in zip(points, rows):
            assert np.array_equal(row, residuals(point[None])[0])


def test_levenberg_marquardt_stops_on_budget_or_convergence():
    def rosenbrock(points):
        return np.array([[10.0 * (q[1] - q[0] ** 2), 1.0 - q[0]] for q in points])

    delta = [1e-8, 1e-8]
    p, r, evals, stop = _levenberg_marquardt(rosenbrock, [-1.2, 1.0], delta, 0.0, budget=12)
    assert stop == "budget" and evals <= 12
    p, r, evals, stop = _levenberg_marquardt(rosenbrock, [-1.2, 1.0], delta, 0.0)
    assert stop == "converged" and evals <= FIT_BUDGET
    assert p == pytest.approx([1.0, 1.0], abs=1e-6)
    assert float(r @ r) < 1e-12


def test_non_finite_samples_rejected_without_fit():
    p = CoupledModeParams(beta1=2.0, beta2=2.0, kappa12=0.7, kappa21=0.7)
    ta, tb = coupled_traces(p)
    tb.incident[5] = complex(math.nan, 0.0)
    v = detect_vertex_coupled_mode(ta, tb, corner_window=2.0, tol=1e-6)
    assert not v.is_vertex
    assert v.degenerate


@pytest.mark.parametrize("index", [0, 10, 20])
def test_coupled_fit_of_a_sample_near_the_float_range_is_a_reject(index):
    """A sample of 1e308 overflows |r|^2: a reject whose fit stops as
    "overflow", or, as the first sample, one rejected before any fit."""
    p = CoupledModeParams(beta1=2.0, beta2=2.0, kappa12=0.7, kappa21=0.7)
    ta, tb = coupled_traces(p)
    ta.incident[index] = 1e308
    v = detect_vertex_coupled_mode(ta, tb, corner_window=None, tol=1e-6)
    assert not v.is_vertex
    assert v.residual == math.inf
    if index == 0:
        assert v.params == {} and v.degenerate
    else:
        assert v.params["stop"] == "overflow" and v.params["evaluations"] <= 5


def test_window_too_small():
    z = np.linspace(0.0, 1.0, 21)
    ta = em_trace(z, np.ones(21, dtype=complex))
    tb = em_trace(z, np.ones(21, dtype=complex))
    with pytest.raises(WindowTooSmall):
        detect_vertex_coupled_mode(ta, tb, corner_window=0.2, tol=1e-6)


def test_mismatched_grids_rejected():
    ta = em_trace(np.linspace(0.0, 1.0, 21), np.ones(21, dtype=complex))
    tb = em_trace(np.linspace(0.0, 2.0, 21), np.ones(21, dtype=complex))
    with pytest.raises(ValueError):
        detect_vertex_coupled_mode(ta, tb, corner_window=2.0, tol=1e-6)


# ---------------------------------------------------------------------------
# vertex detection: coupler cascade

def cascade_traces(thetas, s0=(1.0 + 0j, 0.0j), delays=None):
    """Chain of 2-sample traces whose endpoint pairs follow the cascade."""
    states = [np.array(s0, dtype=complex)]
    for j, th in enumerate(thetas):
        s = states[-1]
        if delays is not None and j > 0:
            s = delays[j - 1] @ s
        states.append(coupler_matrix(th, 1.0) @ s)
    return [
        em_trace([0.0, 1.0], [s[0], s[1]], ray_id=j) for j, s in enumerate(states)
    ]


def test_cascade_two_traces_single_stage():
    traces = cascade_traces([0.8])
    v = detect_vertex_cascade(traces, vertex_candidate=(0.0,), tol=1e-6)
    assert v.is_vertex
    assert v.residual < 1e-12
    assert v.params["thetas"][0] == pytest.approx(0.8, rel=1e-9)
    assert v.position == (0.0,)


def test_cascade_three_traces_roundtrip():
    traces = cascade_traces([0.4, 1.1], s0=(0.6 + 0.3j, 0.2 - 0.5j))
    v = detect_vertex_cascade(traces, tol=1e-6)
    assert v.is_vertex
    assert v.residual < 1e-8
    assert v.params["thetas"] == pytest.approx([0.4, 1.1], rel=1e-6)
    assert v.params["ray_ids"] == (0, 1, 2)


def test_cascade_with_known_delays():
    beta, l1, l2 = 1.3, 0.6, 0.2
    traces = cascade_traces([0.7, 0.3], delays=[delay_matrix(beta, l1, l2)])
    v = detect_vertex_cascade(traces, delays=[DelayStage(beta, l1, l2)], tol=1e-6)
    assert v.is_vertex
    assert v.params["thetas"] == pytest.approx([0.7, 0.3], rel=1e-6)


delay_stages = st.builds(
    DelayStage,
    beta=st.floats(min_value=0.0, max_value=5.0),
    length1=st.floats(min_value=0.0, max_value=2.0),
    length2=st.floats(min_value=0.0, max_value=2.0),
)


@settings(deadline=None, max_examples=100)
@given(
    thetas=st.lists(
        st.floats(min_value=0.0, max_value=math.pi / 2, exclude_min=True, exclude_max=True),
        min_size=1, max_size=4,
    ),
    delays=st.lists(delay_stages, min_size=3, max_size=3),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    split=st.floats(min_value=0.1, max_value=0.9),
)
def test_cascade_recovers_angles_between_random_delays(thetas, delays, phase, split):
    delays = delays[:len(thetas) - 1]
    s0 = (math.sqrt(split), math.sqrt(1.0 - split) * complex(math.cos(phase), math.sin(phase)))
    mats = [delay_matrix(d.beta, d.length1, d.length2) for d in delays]
    traces = cascade_traces(thetas, s0=s0, delays=mats)
    v = detect_vertex_cascade(traces, delays=delays, tol=1e-6)
    assert v.is_vertex
    assert v.params["thetas"] == pytest.approx(thetas, abs=1e-9)


def test_cascade_rejects_unrelated_traces():
    rejected = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        traces = [
            em_trace([0.0, 1.0], rng.normal(size=2) + 1j * rng.normal(size=2), ray_id=j)
            for j in range(3)
        ]
        v = detect_vertex_cascade(traces, tol=1e-3)
        rejected += not v.is_vertex
    assert rejected == 20


def test_cascade_input_validation():
    with pytest.raises(TooFewTraces):
        detect_vertex_cascade([em_trace([0.0, 1.0], [1.0, 1.0])], tol=1e-6)
    with pytest.raises(ValueError):
        detect_vertex_cascade(
            [em_trace([0.0], [1.0]), em_trace([0.0], [1.0])], tol=1e-6
        )


def test_cascade_rejects_wrong_delay_count():
    traces = cascade_traces([0.4, 1.1])
    for delays in ([], [DelayStage(0.0, 0.0, 0.0)] * 2):
        with pytest.raises(MalformedSpec, match="3 traces need 1 delay stages"):
            detect_vertex_cascade(traces, delays=delays, tol=1e-6)
    with pytest.raises(MalformedSpec, match="2 traces need 0 delay stages, got 1"):
        detect_vertex_cascade(traces[:2], delays=[DelayStage(0.0, 0.0, 0.0)], tol=1e-6)


def test_zero_amplitude_cascade_degenerate():
    traces = [em_trace([0.0, 1.0], [0.0, 0.0], ray_id=j) for j in range(2)]
    v = detect_vertex_cascade(traces, tol=1e-6)
    assert not v.is_vertex
    assert v.degenerate


def golden_chain(thetas=(0.4, 1.1)):
    """The endpoint states of the golden report's cascade chain."""
    states = [np.array([0.6 + 0.3j, 0.2 - 0.5j])]
    for th in thetas:
        states.append(coupler_matrix(th, 1.0) @ states[-1])
    return states


@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
@pytest.mark.parametrize("thetas, bad", [((0.4, 1.1), 2), ((0.4, 1.1, 0.7), 2), ((0.4, 1.1), 0)])
def test_cascade_non_finite_endpoint_is_a_degenerate_reject(value, thetas, bad):
    """A non-finite endpoint used to leave one stage error nan, which max()
    skipped, so the chain was accepted with a residual of 1.9e-16."""
    states = golden_chain(thetas)
    states[bad][0] = value
    traces = [em_trace([0.0, 1.0], s, ray_id=j) for j, s in enumerate(states)]
    v = detect_vertex_cascade(traces, tol=1e-6)
    assert (v.is_vertex, v.residual, v.params, v.degenerate) == (False, math.inf, {}, True)


@pytest.mark.parametrize("value", [1e160, 1e308, -1e308])
@pytest.mark.parametrize("bad", [0, 1, 2])
def test_cascade_overflowing_endpoint_is_a_quiet_reject(value, bad):
    """A huge finite endpoint overflows the first state's norm (a degenerate
    reject with empty params, where a norm of inf used to scale every state
    to 0 and accept) or an error (an infinite residual), without a numpy
    warning."""
    states = golden_chain()
    states[bad][0] = value
    traces = [em_trace([0.0, 1.0], s, ray_id=j) for j, s in enumerate(states)]
    v = detect_vertex_cascade(traces, tol=1e-6)
    assert not v.is_vertex
    assert v.residual == math.inf
    assert v.degenerate == (bad == 0) == (v.params == {})


def test_cascade_state_that_overflows_when_scaled_is_a_quiet_reject():
    # the first state's norm is 1.4e-150, so the second scales to 7e309
    states = [np.array([1e-150, 1e-150]), np.array([1e160, 0.0]), np.array([1.0, 1.0])]
    traces = [em_trace([0.0, 1.0], s, ray_id=j) for j, s in enumerate(states)]
    v = detect_vertex_cascade(traces, tol=1e-6)
    assert (v.is_vertex, v.residual, v.degenerate) == (False, math.inf, False)


# ---------------------------------------------------------------------------
# vertex detection: exponential gain

def test_fwm_exponential_trace_accepted():
    z = np.linspace(0.0, 2.0, 41)
    m = GainModel(e_s0=0.2 + 0j, g_s=0.4)
    tr = em_trace(z, [degenerate_gain(m, zz) for zz in z])
    v = detect_vertex_fwm(tr, chi3=1e-20, pump_amps=(1.0, 1.0, 1.0), tol=1e-6)
    assert v.is_vertex
    assert not v.degenerate
    assert v.params["g_s"] == pytest.approx(0.4, abs=1e-10)
    assert v.params["chi3"] == 1e-20
    assert v.params["pump_amps"] == (1.0, 1.0, 1.0)


def test_fwm_linear_trace_rejected():
    z = np.linspace(0.0, 2.0, 41)
    tr = em_trace(z, 1.0 + 1.0 * z)
    v = detect_vertex_fwm(tr, chi3=0.0, pump_amps=(1, 1, 1), tol=1e-4)
    assert not v.is_vertex
    assert v.residual > 1e-4


def test_fwm_constant_trace_degenerate_vertex():
    z = np.linspace(0.0, 2.0, 41)
    tr = em_trace(z, np.full(41, 1.7 + 0j))
    v = detect_vertex_fwm(tr, chi3=0.0, pump_amps=(1, 1, 1), tol=1e-6)
    assert v.is_vertex
    assert v.degenerate
    assert v.params["g_s"] == pytest.approx(0.0, abs=1e-12)


def test_fwm_window_restricts_fit():
    # exponential tail after a non-exponential head: windowed fit accepts
    z = np.linspace(0.0, 4.0, 81)
    m = GainModel(e_s0=0.2 + 0j, g_s=0.5)
    head = 1.0 + 0.3 * np.sin(z[:40])
    tail = np.array([abs(degenerate_gain(m, zz)) for zz in z[40:]])
    tr = em_trace(z, np.concatenate([head, tail]))
    full = detect_vertex_fwm(tr, 0.0, (1, 1, 1), tol=1e-6)
    windowed = detect_vertex_fwm(tr, 0.0, (1, 1, 1), tol=1e-6, window=1.9)
    assert not full.is_vertex
    assert windowed.is_vertex
    assert windowed.params["g_s"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
@pytest.mark.parametrize("index", [0, 20, 40])
def test_fwm_sample_without_a_log_is_a_degenerate_reject(value, index):
    """A zero sample used to raise NonPositiveAmplitude out of fit_gain (exit 5
    for trace data) and a non-finite one gave a nan residual."""
    z = np.linspace(0.0, 2.0, 41)
    incident = np.array([degenerate_gain(GainModel(0.2 + 0j, 0.4), zz) for zz in z])
    incident[index] = value
    v = detect_vertex_fwm(em_trace(z, incident), 0.0, (1, 1, 1), tol=1e-6)
    assert (v.is_vertex, v.residual, v.params, v.degenerate) == (False, math.inf, {}, True)
    assert v.position == (2.0,)


def test_fwm_wave_kind_enforced():
    tr = synthesize_ray_trace(
        acoustic_rod(), ACOUSTIC_MEDIA,
        Ray(origin=(0.0005,), direction=(1.0,), length=0.999, grid_step=0.001),
    )
    with pytest.raises(WrongWaveKind):
        detect_vertex_fwm(tr, 0.0, (1, 1, 1), tol=1e-6)


def test_run_detect_reports_accepted_vertices_only():
    z = np.linspace(0.0, 2.0, 41)
    m = GainModel(e_s0=0.2 + 0j, g_s=0.4)
    bad = em_trace(z, 1.0 + z, ray_id=0)
    good = em_trace(z, [degenerate_gain(m, zz) for zz in z], ray_id=1)
    scenario = Scenario(
        complex=rod_complex(), wave_kind="em", media=ROD_MEDIA, rays=[bad.ray, good.ray],
        vertex_checks=[VertexCheck("fwm", (0,), tol=1e-6), VertexCheck("fwm", (1,), tol=1e-6)],
    )
    hits = run_detect(scenario, [bad, good]).vertex_hits
    assert len(hits) == 1
    assert hits[0].criterion == "fwm"
    assert hits[0].residual == detect_vertex_fwm(good, 0.0, (1, 1, 1), tol=1e-6).residual
    assert hits[0].ray_ids == (1,)


# The report of one accepted check per criterion, pinned byte for byte: the
# residuals are written with 17 digits, so a detector that reorders a
# product or a fit that moves changes these bytes.
GOLDEN_VERTEX_REPORT = """\
kind,ray,z,position,t_re,t_im,r_re,r_im,pair_a,pair_b,criterion,residual,degenerate
vertex,0;1,,1.0000000000000002,,,,,,,coupled_mode,3.5487583742773351e-16,0
vertex,2;3;4,,0.5,,,,,,,cascade,3.0404709722440588e-16,0
vertex,5,,2,,,,,,,fwm,2.4885817484527262e-16,0
"""


def test_vertex_report_golden_bytes(tmp_path):
    p = CoupledModeParams(beta1=2.4, beta2=1.7, kappa12=0.5, kappa21=0.9)
    ta, tb = coupled_traces(p, b0=0.3 + 0j)
    states = [np.array([0.6 + 0.3j, 0.2 - 0.5j])]
    for th in (0.4, 1.1):
        states.append(coupler_matrix(th, 1.0) @ states[-1])
    chain = [em_trace([0.0, 1.0], s, ray_id=2 + j) for j, s in enumerate(states)]
    z = np.linspace(0.0, 2.0, 41)
    model = GainModel(e_s0=0.2 + 0j, g_s=0.4)
    gain = em_trace(z, [degenerate_gain(model, zz) for zz in z], ray_id=5)
    traces = [ta, tb, *chain, gain]
    scenario = Scenario(
        complex=rod_complex(), wave_kind="em", media=ROD_MEDIA, rays=[tr.ray for tr in traces],
        vertex_checks=[
            VertexCheck("coupled_mode", (0, 1), tol=1e-6),
            VertexCheck("cascade", (2, 3, 4), tol=1e-6, position=(0.5,)),
            VertexCheck("fwm", (5,), tol=1e-6),
        ],
    )
    path = tmp_path / "report.csv"
    write_report(path, run_detect(scenario, traces))
    assert path.read_bytes() == GOLDEN_VERTEX_REPORT.encode()
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["counts"] == {"interface_hits": 0, "vertex_hits": 3}
