"""Scenario config parsing and trace/report file round trips."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polywave.acoustic import AcousticMedium
from polywave.detect import (
    DetectionReport,
    FieldTrace,
    InterfaceHit,
    Ray,
    VertexHit,
)
from polywave.fresnel import EmMedium
from polywave.geometry import GeometryError
from polywave.scenario import (
    ConfigParseError,
    load_scenario_text,
    parse_blocks,
    run_detect,
    run_simulate,
)
from polywave.traceio import (
    SchemaMismatch,
    read_report,
    read_traces,
    sidecar_path,
    write_report,
    write_traces,
)

ROD_CONFIG = """\
# three-segment rod
[geometry]
dimension = 1
vertices = 0.0 | 0.25 | 0.55 | 1.0
simplices = 0 1 | 1 2 | 2 3

[media]
wave_kind = em
medium.0 = n=1.0
medium.1 = n=1.5
medium.2 = n=2.0

[rays]
ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001

[detection]
tol = 1e-6
noise_sigma = 0.0
seed = 1234
candidates = 1.0,1.5 | 1.5,2.0 | 1.0,2.0
"""

ACOUSTIC_CONFIG = """\
[geometry]
dimension = 1
vertices = 0.0 | 0.5 | 1.0
simplices = 0 1 | 1 2

[media]
wave_kind = acoustic
medium.0 = z=1.0 c=1.0
medium.1 = z=4.0 c=2.0 rho=2.0

[rays]
ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001

[detection]
candidates = 1.0,4.0
"""


def parse_error(text: str) -> ConfigParseError:
    with pytest.raises(ConfigParseError) as exc:
        load_scenario_text(text)
    return exc.value


# ---------------------------------------------------------------------------
# config parsing

def test_parse_blocks_positions():
    blocks = parse_blocks("[a]\nx = 1\n\n[b]\ny = 2,3\n")
    assert set(blocks) == {"a", "b"}
    value, line, col = blocks["a"]["x"]
    assert (value, line) == ("1", 2)
    assert col > len("x")
    assert blocks["b"]["y"][0] == "2,3"
    assert blocks["b"]["y"][1] == 5


def test_error_message_format():
    err = parse_error("dimension = 1\n")
    assert err.line == 1
    assert err.col == 1
    assert re.fullmatch(r"line \d+, col \d+: .+", str(err))
    assert "outside any" in err.message


def test_malformed_section_header():
    err = parse_error("[geometry\ndimension = 1\n")
    assert err.line == 1
    assert "section header" in err.message


def test_duplicate_section_and_key():
    err = parse_error("[a]\nx = 1\n[a]\n")
    assert (err.line, err.message) == (3, "duplicate section [a]")
    err = parse_error("[a]\nx = 1\nx = 2\n")
    assert err.line == 3
    assert "duplicate key" in err.message


def test_missing_equals_and_empty_key():
    err = parse_error("[a]\nnovalue\n")
    assert err.line == 2
    assert "key = value" in err.message
    err = parse_error("[a]\n= 5\n")
    assert err.line == 2
    assert "empty key" in err.message


def test_bad_number_reports_value_position():
    text = ROD_CONFIG.replace("dimension = 1", "dimension = one")
    err = parse_error(text)
    assert err.line == text.splitlines().index("dimension = one") + 1
    assert err.col > len("dimension")
    assert "expected an integer" in err.message


def test_bad_candidate_pair():
    err = parse_error(ROD_CONFIG.replace("1.0,2.0", "1.0,abc"))
    assert "bad entry" in err.message
    err = parse_error(ROD_CONFIG.replace("1.0,2.0", "1.0,1.5,2.0"))
    assert "need pairs" in err.message


def test_missing_section_and_media_mismatch():
    err = parse_error("[geometry]\ndimension = 1\nvertices = 0.|1.\nsimplices = 0 1\n")
    assert "missing required section" in err.message
    err = parse_error(ROD_CONFIG.replace("medium.2 = n=2.0\n", ""))
    assert "every simplex needs one" in err.message


def test_noncontiguous_indices():
    err = parse_error(ROD_CONFIG.replace("medium.2", "medium.3"))
    assert "contiguous" in err.message
    err = parse_error(ROD_CONFIG.replace("medium.2", "medium.x"))
    assert "bad index" in err.message


def test_wave_kind_validated():
    err = parse_error(ROD_CONFIG.replace("wave_kind = em", "wave_kind = sonic"))
    assert "wave_kind" in err.message


def test_em_medium_requires_index():
    err = parse_error(ROD_CONFIG.replace("medium.1 = n=1.5", "medium.1 = eps=2.25"))
    assert "needs n=" in err.message


def test_acoustic_medium_requires_impedance_and_speed():
    err = parse_error(ACOUSTIC_CONFIG.replace("medium.1 = z=4.0 c=2.0 rho=2.0",
                                              "medium.1 = z=4.0"))
    assert "needs z=" in err.message


def test_ray_validation_in_config():
    err = parse_error(ROD_CONFIG.replace("grid_step=0.001", ""))
    assert "missing grid_step=" in err.message
    err = parse_error(ROD_CONFIG.replace("direction=1", "direction=0"))
    assert "zero direction" in err.message
    err = parse_error(ROD_CONFIG.replace("direction=1", "direction=1,0"))
    assert "components" in err.message


def test_geometry_errors_pass_through():
    text = ROD_CONFIG.replace("0.0 | 0.25 | 0.55 | 1.0", "0.0 | 0.0 | 0.55 | 1.0")
    with pytest.raises(GeometryError):
        load_scenario_text(text)


def test_rod_scenario_fields():
    sc = load_scenario_text(ROD_CONFIG)
    assert sc.wave_kind == "em"
    assert sc.complex.dimension == 1
    assert sc.media == {0: EmMedium(1.0), 1: EmMedium(1.5), 2: EmMedium(2.0)}
    assert sc.chi3_by_medium == {}
    assert len(sc.rays) == 1
    assert sc.rays[0].origin == (0.0005,)
    assert sc.tol == 1e-6
    assert sc.seed == 1234
    assert sc.candidates == [(1.0, 1.5), (1.5, 2.0), (1.0, 2.0)]
    assert sc.paper_exact is False


def test_acoustic_scenario_fields():
    sc = load_scenario_text(ACOUSTIC_CONFIG)
    assert sc.wave_kind == "acoustic"
    assert sc.media[0] == AcousticMedium(impedance=1.0, sound_speed=1.0)
    assert sc.media[1].density == 2.0


def test_direction_normalized():
    text = """\
[geometry]
dimension = 2
vertices = 0.0 0.0 | 1.0 0.0 | 1.0 1.0 | 2.0 0.0
simplices = 0 1 2 | 1 2 3

[media]
wave_kind = em
medium.0 = n=1.0
medium.1 = n=1.5

[rays]
ray.0 = origin=0.6,0.5 direction=3,0 length=0.7 grid_step=0.01
"""
    sc = load_scenario_text(text)
    assert sc.rays[0].direction == (1.0, 0.0)


def test_chi3_and_vertex_checks():
    text = ROD_CONFIG + """
[vertices]
check.0 = criterion=fwm ray=0 tol=1e-3 window=0.5 chi3=1e-22 pumps=1,2,3
"""
    text = text.replace("medium.1 = n=1.5", "medium.1 = n=1.5 chi3=1e-22")
    sc = load_scenario_text(text)
    assert sc.chi3_by_medium == {1: 1e-22}
    assert len(sc.vertex_checks) == 1
    chk = sc.vertex_checks[0]
    assert chk.criterion == "fwm"
    assert chk.ray_ids == (0,)
    assert chk.tol == 1e-3
    assert chk.window == 0.5
    assert chk.chi3 == 1e-22
    assert chk.pumps == (1.0, 2.0, 3.0)


def test_vertex_check_validation():
    base = ROD_CONFIG + "\n[vertices]\n{}\n"
    err = parse_error(base.format("check.0 = ray=0"))
    assert "missing criterion=" in err.message
    err = parse_error(base.format("check.0 = criterion=psychic ray=0"))
    assert "unknown criterion" in err.message
    err = parse_error(base.format("check.0 = criterion=fwm"))
    assert "missing ray=" in err.message
    err = parse_error(base.format("check.0 = criterion=fwm ray=7"))
    assert "no ray 7" in err.message


def test_vertex_check_ray_counts():
    text = ROD_CONFIG.replace(
        "grid_step=0.001\n",
        "grid_step=0.001\nray.1 = origin=0.0005 direction=1 length=0.5 grid_step=0.001\n",
    ) + "\n[vertices]\n{}\n"
    for check, message in (
        ("criterion=coupled_mode ray=0", "coupled_mode takes exactly 2 rays, got 1"),
        ("criterion=coupled_mode rays=0,1,0", "coupled_mode takes exactly 2 rays, got 3"),
        ("criterion=cascade ray=1", "cascade takes at least 2 rays, got 1"),
        ("criterion=fwm rays=0,1", "fwm takes exactly 1 ray, got 2"),
    ):
        err = parse_error(text.format(f"check.0 = {check}"))
        assert message in err.message
        assert err.line > 0 and err.col > 0
    sc = load_scenario_text(text.format("check.0 = criterion=cascade rays=0,1,0"))
    assert sc.vertex_checks[0].ray_ids == (0, 1, 0)


def test_empty_rays_block_allowed():
    text = ROD_CONFIG.replace(
        "ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001\n", ""
    )
    sc = load_scenario_text(text)
    assert sc.rays == []
    assert run_simulate(sc) == []


def test_run_simulate_and_detect_roundtrip():
    sc = load_scenario_text(ROD_CONFIG)
    traces = run_simulate(sc)
    assert len(traces) == 1
    assert traces[0].wave_kind == "em"
    report = run_detect(sc, traces)
    assert len(report.interface_hits) == 2
    assert report.vertex_hits == []
    assert report.params_used["seed"] == 1234
    assert report.params_used["coefficient_variant"] == "energy_conserving"


def test_run_simulate_seed_offsets_per_ray():
    text = ROD_CONFIG.replace(
        "ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001",
        "ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001\n"
        "ray.1 = origin=0.0005 direction=1 length=0.998 grid_step=0.001",
    ).replace("noise_sigma = 0.0", "noise_sigma = 0.01")
    sc = load_scenario_text(text)
    t0, t1 = run_simulate(sc)
    assert not np.array_equal(t0.incident, t1.incident)


# ---------------------------------------------------------------------------
# trace files

def rod_traces():
    sc = load_scenario_text(ROD_CONFIG)
    return run_simulate(sc), sc


def test_trace_file_roundtrip(tmp_path):
    traces, sc = rod_traces()
    path = tmp_path / "traces.csv"
    write_traces(path, traces, extra_meta={"seed": sc.seed})
    back, meta = read_traces(path)
    assert len(back) == 1
    tr, orig = back[0], traces[0]
    assert np.array_equal(tr.z, orig.z)
    assert np.array_equal(tr.incident, orig.incident)
    assert np.array_equal(tr.reflected, orig.reflected)
    assert tr.medium_ids == orig.medium_ids
    assert tr.ray == orig.ray
    assert tr.wave_kind == "em"
    assert meta["wave_kind"] == "em"
    assert meta["seed"] == 1234
    assert meta["version"] == 1


def test_trace_file_byte_determinism(tmp_path):
    traces, _ = rod_traces()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_traces(p1, traces)
    write_traces(p2, traces)
    assert p1.read_bytes() == p2.read_bytes()
    assert sidecar_path(p1).read_bytes() == sidecar_path(p2).read_bytes()


def test_empty_trace_file(tmp_path):
    path = tmp_path / "empty.csv"
    write_traces(path, [], extra_meta={"wave_kind": "em"})
    back, meta = read_traces(path)
    assert back == []
    assert meta["wave_kind"] == "em"
    with pytest.raises(ValueError):
        write_traces(tmp_path / "nokind.csv", [])


def test_mixed_wave_kinds_rejected(tmp_path):
    traces, _ = rod_traces()
    other = FieldTrace(
        ray=traces[0].ray, z=traces[0].z, incident=traces[0].incident,
        reflected=traces[0].reflected, medium_ids=traces[0].medium_ids,
        wave_kind="acoustic", ray_id=1,
    )
    with pytest.raises(ValueError):
        write_traces(tmp_path / "mix.csv", traces + [other])


def test_trace_schema_mismatches(tmp_path):
    traces, _ = rod_traces()
    path = tmp_path / "traces.csv"
    write_traces(path, traces)

    missing = tmp_path / "missing.csv"
    missing.write_text(path.read_text())
    with pytest.raises(SchemaMismatch):
        read_traces(missing)

    bad_header = tmp_path / "hdr.csv"
    bad_header.write_text(path.read_text().replace("incident_re", "inc_re", 1))
    sidecar_path(bad_header).write_text(sidecar_path(path).read_text())
    with pytest.raises(SchemaMismatch):
        read_traces(bad_header)

    short_row = tmp_path / "row.csv"
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:-1])
    short_row.write_text("\n".join(lines) + "\n")
    sidecar_path(short_row).write_text(sidecar_path(path).read_text())
    with pytest.raises(SchemaMismatch):
        read_traces(short_row)

    wrong_kind = tmp_path / "kind.csv"
    wrong_kind.write_text(path.read_text())
    sidecar_path(wrong_kind).write_text(
        sidecar_path(path).read_text().replace('"kind": "traces"', '"kind": "report"')
    )
    with pytest.raises(SchemaMismatch):
        read_traces(wrong_kind)

    no_ray = tmp_path / "noray.csv"
    no_ray.write_text(path.read_text())
    sidecar_path(no_ray).write_text(
        sidecar_path(path).read_text().replace('"0":', '"9":')
    )
    with pytest.raises(SchemaMismatch):
        read_traces(no_ray)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(values=st.lists(st.tuples(finite, finite), min_size=3, max_size=3))
def test_float_serialization_exact(values):
    ray = Ray(origin=(0.0,), direction=(1.0,), length=2.0, grid_step=1.0)
    tr = FieldTrace(
        ray=ray,
        z=np.array([0.0, 1.0, 2.0]),
        incident=np.array([complex(re_, im) for re_, im in values]),
        reflected=np.zeros(3, dtype=complex),
        medium_ids=(0, 0, 0),
        wave_kind="em",
    )
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.csv"
        write_traces(path, [tr])
        back, _ = read_traces(path)
    assert np.array_equal(back[0].incident, tr.incident)


UNIT_RAY = Ray(origin=(0.0,), direction=(1.0,), length=1.0, grid_step=0.1)


def em_traces_from_rows(rows):
    """FieldTraces from (ray, z, inc_re, inc_im, ref_re, ref_im, medium)
    rows, each ray's rows in the given order."""
    by_ray: dict = {}
    for ray_id, *fields in rows:
        by_ray.setdefault(ray_id, []).append(fields)
    traces = []
    for ray_id, fields in by_ray.items():
        z, inc_re, inc_im, ref_re, ref_im, medium = zip(*fields)
        traces.append(FieldTrace(
            ray=UNIT_RAY,
            z=np.array(z),
            incident=np.array([complex(r, i) for r, i in zip(inc_re, inc_im)]),
            reflected=np.array([complex(r, i) for r, i in zip(ref_re, ref_im)]),
            medium_ids=medium,
            wave_kind="em",
            ray_id=ray_id,
        ))
    return traces


any_float = st.floats(width=64)  # nan, +-inf and signed zeros included
medium_id = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.sampled_from(["", "core", "a,b", 'x"y', "#m"]),
)


@example(rows=[(0, -0.0, -0.0, 0.0, 0.0, math.inf, 0)])
@given(rows=st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), *[any_float] * 5, medium_id),
    min_size=1, max_size=12,
))
def test_trace_write_read_write_is_byte_identical(rows):
    traces = em_traces_from_rows(rows)
    with tempfile.TemporaryDirectory() as d:
        first, second = Path(d) / "first.csv", Path(d) / "second.csv"
        write_traces(first, traces)
        back, _ = read_traces(first)
        write_traces(second, back)
        assert first.read_bytes() == second.read_bytes()
    by_id = {tr.ray_id: tr for tr in traces}
    for tr in back:
        assert tr.medium_ids == by_id[tr.ray_id].medium_ids


def test_quoted_medium_ids_roundtrip(tmp_path):
    medium = ("a,b", 'x"y', "#m", 4)
    traces = em_traces_from_rows(
        [(0, 0.1 * k, 1.0, 0.0, 0.0, 0.0, m) for k, m in enumerate(medium)]
    )
    path = tmp_path / "quoted.csv"
    write_traces(path, traces)
    assert path.read_text().splitlines()[1:] == [
        '0,0,1,0,0,0,"a,b"',
        '0,0.10000000000000001,1,0,0,0,"x""y"',
        "0,0.20000000000000001,1,0,0,0,#m",
        "0,0.30000000000000004,1,0,0,0,4",
    ]
    back, _ = read_traces(path)
    assert back[0].medium_ids == medium


def test_interleaved_rays_come_back_grouped_in_file_order(tmp_path):
    path = tmp_path / "interleaved.csv"
    write_traces(path, em_traces_from_rows(
        [(0, 0.0, 1.0, 0.0, 0.0, 0.0, 0), (1, 0.0, 1.0, 0.0, 0.0, 0.0, 0)]
    ))
    path.write_text(
        "ray,z,incident_re,incident_im,reflected_re,reflected_im,medium\n"
        "1,0.5,1,0,0,0,7\n"
        "0,0.1,2,0,0,0,8\n"
        "1,0.2,3,0,0,0,9\n"
        "0,0.3,4,0,0,0,10\n"
    )
    back, _ = read_traces(path)
    assert [tr.ray_id for tr in back] == [0, 1]
    assert back[0].z.tolist() == [0.1, 0.3]
    assert back[0].incident.tolist() == [2 + 0j, 4 + 0j]
    assert back[0].medium_ids == (8, 10)
    assert back[1].z.tolist() == [0.5, 0.2]
    assert back[1].incident.tolist() == [1 + 0j, 3 + 0j]
    assert back[1].medium_ids == (7, 9)


@pytest.mark.parametrize("row", [
    "1.5,0,1,0,0,0,0",  # ray id not an integer
    "0,0,1,x0,0,0,0",  # garbled float
    "0,0,1,0,0,0",  # short row
])
def test_bad_trace_rows_are_schema_mismatches(tmp_path, row):
    path = tmp_path / "bad.csv"
    write_traces(path, em_traces_from_rows([(0, 0.0, 1.0, 0.0, 0.0, 0.0, 0)]))
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(SchemaMismatch, match="garbled trace row"):
        read_traces(path)


def test_field_count_error_names_row_and_counts_only(tmp_path):
    path = tmp_path / "bad.csv"
    write_traces(path, em_traces_from_rows([(0, 0.0, 1.0, 0.0, 0.0, 0.0, 0)] * 2))
    lines = path.read_text().splitlines()
    lines[2] += ",7"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch) as err:
        read_traces(path)
    message = str(err.value)
    assert message.startswith("garbled trace row: ")
    assert "7 columns but 8 were found at row 2" in message
    assert "usecols" not in message


def test_trace_file_golden_bytes(tmp_path):
    path = tmp_path / "golden.csv"
    write_traces(path, em_traces_from_rows([
        (3, 0.25, 1e-300, -2.5, -math.inf, 1 / 3, 'x"y'),
        (0, 0.0, 1.0, 0.0, 0.0, 0.0, 0),
        (0, 0.1, -0.0, math.inf, 0.5, -0.0, "a,b"),
    ]))
    assert path.read_bytes() == (
        b"ray,z,incident_re,incident_im,reflected_re,reflected_im,medium\n"
        b"0,0,1,0,0,0,0\n"
        b'0,0.10000000000000001,-0,inf,0.5,-0,"a,b"\n'
        b'3,0.25,1e-300,-2.5,-inf,0.33333333333333331,"x""y"\n'
    )


# ---------------------------------------------------------------------------
# report files

def sample_report():
    return DetectionReport(
        interface_hits=[
            InterfaceHit(
                ray_id=0, z=0.249, position=(0.2495,),
                measured_t=0.8 + 0j, measured_r=-0.2 + 0j,
                media_pair=(1.0, 1.5), residual=0.0,
            )
        ],
        vertex_hits=[
            VertexHit(
                position=None, criterion="cascade",
                residual=3.5e-9, ray_ids=(0, 1, 2), degenerate=False,
            ),
            VertexHit(
                position=(0.25, 0.5), criterion="fwm",
                residual=1e-12, ray_ids=(), degenerate=True,
            ),
        ],
        params_used={"tol": 1e-6, "seed": 7},
    )


def test_report_roundtrip(tmp_path):
    report = sample_report()
    path = tmp_path / "report.csv"
    write_report(path, report)
    back, meta = read_report(path)
    assert back.interface_hits == report.interface_hits
    assert back.vertex_hits == report.vertex_hits
    assert back.params_used == report.params_used
    assert meta["counts"] == {"interface_hits": 1, "vertex_hits": 2}


def test_report_byte_determinism(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(p1, sample_report())
    write_report(p2, sample_report())
    assert p1.read_bytes() == p2.read_bytes()
    assert sidecar_path(p1).read_bytes() == sidecar_path(p2).read_bytes()


def test_report_golden_bytes(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, sample_report())
    assert path.read_bytes() == (
        b"kind,ray,z,position,t_re,t_im,r_re,r_im,pair_a,pair_b,criterion,residual,degenerate\n"
        b"interface,0,0.249,0.2495,0.80000000000000004,0,-0.20000000000000001,0,1,1.5,,0,\n"
        b"vertex,0;1;2,,,,,,,,,cascade,3.4999999999999999e-09,0\n"
        b"vertex,,,0.25;0.5,,,,,,,fwm,9.9999999999999998e-13,1\n"
    )


def test_report_schema_mismatches(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, sample_report())
    bad = tmp_path / "bad.csv"
    bad.write_text(path.read_text().replace("criterion", "rule", 1))
    sidecar_path(bad).write_text(sidecar_path(path).read_text())
    with pytest.raises(SchemaMismatch):
        read_report(bad)
    with pytest.raises(SchemaMismatch):
        read_report(tmp_path / "never_written.csv")
