"""Trace synthesis along rays and interface/vertex detection."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywave.acoustic import AcousticMedium
from polywave.coupled_mode import (
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
    FieldTrace,
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
)
from polywave.fresnel import EmMedium
from polywave.fwm import GainModel, degenerate_gain
from polywave.geometry import GeometryError, build_complex
from polywave.scenario import Scenario, VertexCheck, run_detect
from polywave.traceio import sidecar_path, write_report

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
    crossings, segments = _march(c, GRID_RAY)
    assert len(crossings) == 1
    z, facet, before, after = crossings[0]
    assert z == pytest.approx(0.495, abs=1e-12)
    assert [c.vertices[v][0] for v in facet] == [0.5, 0.5]
    assert (c.media[before], c.media[after]) == (0, 1)
    assert len(segments) == 2 and segments[1] == after
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
    crossings, segments = _march(c, ray)
    assert segments == list(range(30))
    assert [(f, a, b) for _, f, a, b in crossings] == [((i + 1,), i, i + 1) for i in range(29)]
    z = np.array([cz for cz, _, _, _ in crossings])
    assert np.max(np.abs(z - (x[1:-1] - origin))) <= 1e-12


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


def test_ray_validation():
    with pytest.raises(ValueError):
        Ray(origin=(0.0,), direction=(2.0,), length=1.0, grid_step=0.1)
    with pytest.raises(ValueError):
        Ray(origin=(0.0,), direction=(1.0,), length=1.0, grid_step=0.0)
    with pytest.raises(ValueError):
        Ray(origin=(0.0,), direction=(1.0,), length=0.05, grid_step=0.1)
    with pytest.raises(ValueError):
        Ray(origin=(0.0, 0.0), direction=(1.0,), length=1.0, grid_step=0.1)


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


def test_short_trace_no_hits():
    tr = em_trace([0.0], [1.0])
    assert detect_interfaces_em(tr, ROD_CANDIDATES, tol=1e-6) == []


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

    reject = detect_vertex_coupled_mode(*random_walk_pair(100), corner_window=2.0, tol=1e-3)
    assert not reject.is_vertex
    assert reject.residual > 1e-3
    assert reject.params["stop"] == "converged"
    assert reject.params["evaluations"] <= FIT_BUDGET


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
    assert v.params["stop"] == "converged"
    assert v.params["evaluations"] < 100


def test_levenberg_marquardt_stops_on_budget_or_convergence():
    def rosenbrock(q):
        return np.array([10.0 * (q[1] - q[0] ** 2), 1.0 - q[0]])

    delta = [1e-8, 1e-8]
    p, r, evals, stop = _levenberg_marquardt(rosenbrock, [-1.2, 1.0], delta, budget=12)
    assert stop == "budget" and evals <= 12
    p, r, evals, stop = _levenberg_marquardt(rosenbrock, [-1.2, 1.0], delta)
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
