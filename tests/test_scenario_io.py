"""Scenario config parsing and trace/report file round trips."""

import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polywave import traceio
from polywave.acoustic import AcousticMedium
from polywave.detect import (
    DetectionReport,
    FieldTrace,
    InterfaceHit,
    InterfaceHits,
    Ray,
    VertexHit,
)
from polywave.fresnel import EmMedium
from polywave.geometry import GeometryError
from polywave.scenario import (
    CRITERIA,
    MEDIA,
    SECTIONS,
    ConfigParseError,
    _integer,
    _integers,
    load_scenario_text,
    parse_blocks,
    run_detect,
    run_simulate,
)
from polywave.traceio import (
    _BLOCK_ROWS,
    TRACE_COLUMNS,
    SchemaMismatch,
    fmt_float,
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
    sc = load_scenario_text(text)
    assert len(sc.vertex_checks) == 1
    chk = sc.vertex_checks[0]
    assert chk.criterion == "fwm"
    assert chk.ray_ids == (0,)
    assert chk.tol == 1e-3
    assert chk.window == 0.5
    assert chk.chi3 == 1e-22
    assert chk.pumps == (1.0, 2.0, 3.0)


def test_medium_chi3_is_rejected():
    err = parse_error(ROD_CONFIG.replace("medium.1 = n=1.5", "medium.1 = n=1.5 chi3=1e-22"))
    assert "unknown token chi3=" in err.message
    assert err.line == 10 and err.col > len("medium.1")


MEDIUM_TEXTS = ["n=1.0", "n=1.5", "n=2.0", "n=-1.5", "n=1.5 chi3=2", "n=x", "n=2.0  "]


@given(st.lists(st.sampled_from(MEDIUM_TEXTS), min_size=1, max_size=8))
def test_media_entries_of_one_text_share_the_first_ones_record(texts):
    """Each distinct medium text is read once, at its first entry: a bad
    text fails at the line and column of its first entry, and entries with
    the same text hold one record."""
    lines = ROD_CONFIG.splitlines()
    first = lines.index("medium.0 = n=1.0")
    vertices = " | ".join(str(float(i)) for i in range(len(texts) + 1))
    simplices = " | ".join(f"{i} {i + 1}" for i in range(len(texts)))
    lines[first:first + 3] = [f"medium.{i} = {text}" for i, text in enumerate(texts)]
    text = "\n".join(lines).replace("0.0 | 0.25 | 0.55 | 1.0", vertices).replace(
        "0 1 | 1 2 | 2 3", simplices)
    bad = [i for i, t in enumerate(texts) if t.strip() not in ("n=1.0", "n=1.5", "n=2.0")]
    if bad:
        err = parse_error(text)
        assert (err.line, err.col) == (first + 1 + bad[0], len(f"medium.{bad[0]} =") + 1)
        assert err.message.startswith(f"medium.{bad[0]}")
        return
    media = load_scenario_text(text).media
    for i, t in enumerate(texts):
        assert media[i] == EmMedium(float(t.strip()[2:]))
        for j, u in enumerate(texts):
            assert (media[i] is media[j]) == (t.strip() == u.strip())


@pytest.mark.parametrize("base, old, new, message", [
    (ROD_CONFIG, "n=1.5", "n=1.5 eps=2.25", "medium.1: unknown token eps= (accepted: n)"),
    (ROD_CONFIG, "n=1.5", "n=1.5 mu=1.0", "medium.1: unknown token mu="),
    (ACOUSTIC_CONFIG, "rho=2.0", "rho=2.0 n=1.5", "medium.1: unknown token n= (accepted: c, rho, z)"),
    (ROD_CONFIG, "grid_step=0.001", "grid_step=0.001 step=2", "ray.0: unknown token step="),
    (ROD_CONFIG + "\n[vertices]\ncheck.0 = criterion=fwm ray=0\n", "ray=0", "ray=0 tl=5",
     "check.0: unknown token tl="),
    (ROD_CONFIG, "seed = 1234", "seed = 1234\nnoise = 0.01", "unknown key 'noise' in [detection]"),
    (ROD_CONFIG, "dimension = 1", "dimension = 1\ndim = 2", "unknown key 'dim' in [geometry]"),
    (ROD_CONFIG, "wave_kind = em", "wave_kind = em\nmedia.0 = n=1.0", "unknown key 'media.0' in [media]"),
    (ROD_CONFIG, "[rays]", "[rays]\norigin = 0.5", "unknown key 'origin' in [rays]"),
    (ROD_CONFIG + "\n[vertices]\ncheck.0 = criterion=fwm ray=0\n", "check.0 = criterion=fwm ray=0",
     "check = criterion=fwm ray=0", "unknown key 'check' in [vertices]"),
    (ROD_CONFIG, "[detection]", "[detect]", "unknown section [detect]"),
])
def test_unknown_input_is_a_parse_error(base, old, new, message):
    err = parse_error(base.replace(old, new))
    assert message in err.message
    assert err.line > 0 and err.col > 0


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


# ---------------------------------------------------------------------------
# the parser's token tables, walked entry kind by entry kind

def token_tables() -> dict:
    """{entry kind: token table} for every `key.i` entry the parser accepts:
    one kind per wave kind and per criterion.  A criterion's table here also
    holds the criterion= token that picks it."""
    tables = {}
    for section, (_, keys) in SECTIONS.items():
        for key, value in keys.items():
            if value is MEDIA:
                tables.update({kind: tokens for kind, (_, tokens) in value.items()})
            elif value is CRITERIA:
                tables.update({
                    criterion: {"criterion": ("criterion", None, True), **tokens}
                    for criterion, (*_, tokens) in value.items()
                })
            elif key.endswith(".i"):
                tables[key[:-2]] = value
    return tables


def check_kind(criterion: str, samples: dict) -> tuple:
    """The ENTRY_KINDS value of a criterion's check, on ROD_CONFIG's one ray
    (rays= names it as often as the criterion takes rays)."""
    return (
        ROD_CONFIG + "\n[vertices]\ncheck.0 = {}\n",
        lambda sc: sc.vertex_checks[0],
        {"criterion": (criterion, criterion), "ray": ("0", (0,)), "tol": ("1e-3", 1e-3), **samples},
    )


# entry kind -> (config with the entry as '{}', the loaded object, and
# token -> (value as written, value as loaded))
ENTRY_KINDS = {
    "em": (ROD_CONFIG.replace("medium.1 = n=1.5", "medium.1 = {}"), lambda sc: sc.media[1],
           {"n": ("1.5", 1.5)}),
    "acoustic": (
        ACOUSTIC_CONFIG.replace("medium.1 = z=4.0 c=2.0 rho=2.0", "medium.1 = {}"),
        lambda sc: sc.media[1],
        {"z": ("4.0", 4.0), "c": ("2.0", 2.0), "rho": ("2.0", 2.0)},
    ),
    "ray": (
        ROD_CONFIG.replace("ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001",
                           "ray.0 = {}"),
        lambda sc: sc.rays[0],
        {"origin": ("0.25", (0.25,)), "direction": ("-2", (-1.0,)), "length": ("0.2", 0.2),
         "grid_step": ("0.01", 0.01)},
    ),
    "coupled_mode": check_kind("coupled_mode", {
        "rays": ("0,+0", (0, 0)), "window": ("0.5", 0.5), "kappa_min": ("1e-5", 1e-5),
    }),
    "cascade": check_kind("cascade", {"rays": ("+0,0,0", (0, 0, 0)), "position": ("0.5", (0.5,))}),
    "fwm": check_kind("fwm", {
        "rays": ("+0", (0,)), "window": ("0.5", 0.5), "chi3": ("1e-22", 1e-22),
        "pumps": ("1,2,3", (1.0, 2.0, 3.0)),
    }),
}
TOKENS = [(kind, token) for kind, table in token_tables().items() for token in table]


def render(kind: str, including: str, leaving_out: str | None = None) -> tuple[str, dict]:
    """A config whose `kind` entry gives one token per field of its table,
    preferring `including` among alternatives (else the last, rays= over
    ray=) and skipping `leaving_out`'s field; and the tokens it gave."""
    table, (config, _, samples) = token_tables()[kind], ENTRY_KINDS[kind]
    skipped = table[leaving_out][0] if leaving_out else None
    chosen = {}  # field -> token
    for token, (field, _, _) in table.items():
        if field != skipped and chosen.get(field) != including:
            chosen[field] = token
    tokens = {token: samples[token] for token in chosen.values()}
    return config.replace("{}", " ".join(f"{t}={text}" for t, (text, _) in tokens.items())), tokens


def test_entry_samples_cover_the_table():
    assert {kind: set(table) for kind, table in token_tables().items()} == {
        kind: set(samples) for kind, (_, _, samples) in ENTRY_KINDS.items()
    }


# ray= names one ray, fewer than coupled_mode and cascade take: that entry is
# an error, checked in test_vertex_check_ray_counts
@pytest.mark.parametrize("kind, token", [
    (k, t) for k, t in TOKENS if (k, t) not in {("coupled_mode", "ray"), ("cascade", "ray")}
])
def test_rendered_entry_loads_to_its_fields(kind, token):
    text, tokens = render(kind, including=token)
    loaded = ENTRY_KINDS[kind][1](load_scenario_text(text))
    table = token_tables()[kind]
    assert {table[t][0]: getattr(loaded, table[t][0]) for t in tokens} == {
        table[t][0]: value for t, (_, value) in tokens.items()
    }


@pytest.mark.parametrize("kind, token", TOKENS)
def test_token_given_twice_is_an_error(kind, token):
    text, tokens = render(kind, including=token)
    text = text.replace(f"{token}=", f"{token}={tokens[token][0]} {token}=", 1)
    assert f"repeated token {token}=" in parse_error(text).message


@pytest.mark.parametrize("kind, token", [(k, t) for k, t in TOKENS if token_tables()[k][t][2]])
def test_required_token_left_out_is_an_error_naming_it(kind, token):
    text, _ = render(kind, including=token, leaving_out=token)
    err = parse_error(text)
    assert "missing " in err.message and f"{token}=" in err.message.partition("(")[0]


CHECK_TOKENS = sorted(  # every criterion reads ray=/rays=, walked above
    {token for *_, table in CRITERIA.values() for token, (field, _, _) in table.items()
     if field != "ray_ids"}
)


@pytest.mark.parametrize("token", CHECK_TOKENS)
@pytest.mark.parametrize("criterion", CRITERIA)
def test_check_accepts_only_the_tokens_its_criterion_reads(criterion, token):
    """A check setting that its criterion's detector does not read is an
    unknown token, like any token its table lacks."""
    rays = "ray=0" if criterion == "fwm" else "rays=0,0"
    sample = next(samples[token][0] for *_, samples in ENTRY_KINDS.values() if token in samples)
    text = ROD_CONFIG + f"\n[vertices]\ncheck.0 = criterion={criterion} {rays} {token}={sample}\n"
    table = CRITERIA[criterion][3]
    if token in table:
        assert load_scenario_text(text).vertex_checks[0].criterion == criterion
    else:
        err = parse_error(text)
        accepted = ", ".join(sorted(table))
        assert err.message == f"check.0: unknown token {token}= (accepted: {accepted})"
        assert err.line == text.splitlines().index("[vertices]") + 2


@pytest.mark.parametrize("field", ["origin", "direction", "length", "grid_step"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ray_rejects_non_finite_fields(field, bad):
    good = {"origin": (0.5,), "direction": (1.0,), "length": 0.2, "grid_step": 0.01}
    value = (bad,) if isinstance(good[field], tuple) else bad
    with pytest.raises(ValueError, match="must be finite"):
        Ray(**{**good, field: value})


@pytest.mark.parametrize("field", ["origin", "length", "grid_step"])
def test_sidecar_with_non_finite_ray_geometry_is_schema_mismatch(field, tmp_path):
    traces, _ = rod_traces()
    path = tmp_path / "traces.csv"
    write_traces(path, traces)
    meta = json.loads(sidecar_path(path).read_text())
    meta["rays"]["0"][field] = [math.nan] if field == "origin" else math.nan
    sidecar_path(path).write_text(json.dumps(meta))
    with pytest.raises(SchemaMismatch, match="garbled sidecar geometry of ray 0"):
        read_traces(path)


id_text = st.text(alphabet="0123456789+-_ ,.é٣x", max_size=12)


@given(text=id_text)
def test_id_list_check_agrees_with_per_id_check(text):
    """The one-regex check of a whole id list accepts exactly the lists whose
    every id is an optional sign and ASCII digits."""
    try:
        expected = tuple(_integer(item) for item in text.split(","))
    except ValueError:
        expected = None
    try:
        got = _integers(",")(text)
    except ValueError:
        got = None
    assert got == expected
    assert expected is None or all(re.fullmatch(r"[+-]?[0-9]+", t) for t in text.split(","))


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


def test_loaded_scenario_is_frozen():
    sc = load_scenario_text(ROD_CONFIG + "\n[vertices]\ncheck.0 = criterion=fwm ray=0\n")
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.seed = 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.vertex_checks[0].tol = 0.01


def test_flags_replace_detection_keys():
    text = ROD_CONFIG + "\n[vertices]\ncheck.0 = criterion=fwm ray=0 tol=0.5\n"
    flags = {"seed": ("--seed", "8"), "noise_sigma": ("--noise", "0.25"), "tol": ("--tol", "0.01")}
    sc = load_scenario_text(text, flags)
    assert (sc.seed, sc.noise_sigma, sc.tol, sc.vertex_checks[0].tol) == (8, 0.25, 0.01, 0.01)
    assert load_scenario_text(text).vertex_checks[0].tol == 0.5
    assert load_scenario_text(ACOUSTIC_CONFIG, {"paper_exact": ("--paper-exact", "true")}).paper_exact


@pytest.mark.parametrize("flags, message", [
    ({"seed": ("--seed", "-5")}, "--seed: expected an integer >= 0, got '-5'"),
    ({"tol": ("--tol", "nan")}, "--tol: expected a finite number, got 'nan'"),
    ({"paper_exact": ("--paper-exact", "true")},
     "--paper-exact: acoustic scenarios only (wave_kind is em)"),
])
def test_bad_flag_is_a_config_error_without_a_line(flags, message):
    with pytest.raises(ConfigParseError) as exc:
        load_scenario_text(ROD_CONFIG, flags)
    assert (str(exc.value), exc.value.line) == (message, None)


def test_em_scenario_built_with_paper_exact_records_the_variant_it_uses():
    # EM detection never reads paper_exact, so a Scenario built in code with
    # it set records the energy-conserving coefficients it was detected with
    sc = load_scenario_text(ROD_CONFIG)
    flagged = dataclasses.replace(sc, paper_exact=True)
    traces = run_simulate(sc)
    report = run_detect(flagged, traces)
    assert report.params_used["coefficient_variant"] == "energy_conserving"
    assert report.interface_hits == run_detect(sc, traces).interface_hits


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


@pytest.mark.parametrize("extra_meta", [
    {"version": 2}, {"kind": "report"}, {"columns": ["z"]}, {"seed": 1, "rays": {}},
])
def test_extra_meta_may_not_replace_what_the_traces_say(extra_meta, tmp_path):
    """A sidecar key the traces set, or a wave_kind they contradict, would
    make the file read back as something else, or not at all."""
    traces, _ = rod_traces()
    for bad in (extra_meta, {"wave_kind": "acoustic"}):
        with pytest.raises(ValueError, match="extra_meta"):
            write_traces(tmp_path / "traces.csv", traces, extra_meta=bad)
    with pytest.raises(ValueError, match="extra_meta"):
        write_traces(tmp_path / "empty.csv", [], extra_meta={"wave_kind": "em", **extra_meta})
    path = tmp_path / "ok.csv"
    write_traces(path, traces, extra_meta={"wave_kind": "em", "seed": 1})
    assert read_traces(path)[1]["seed"] == 1


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


def test_trace_of_many_samples_matches_the_per_row_rendering(tmp_path):
    """One ray of more samples than one write renders: every row, in order,
    once, as csv.writer renders the fmt_float fields and the medium id."""
    rng = np.random.default_rng(5)
    k = 3 * 4096 + 5
    values = rng.standard_normal((5, k)) * 10.0 ** rng.integers(-300, 300, (5, k))
    values[:, ::97] = [[math.nan], [math.inf], [-0.0], [-math.inf], [1e-320]]
    media = [0, 1, "a,b", 'x"y', "core", -3]
    # (re, im) pairs viewed as complex: re + 1j*im would lose the sign of -0.0
    incident, reflected = (
        np.ascontiguousarray(values[i:i + 2].T).view(complex)[:, 0] for i in (1, 3)
    )
    trace = FieldTrace(
        ray=UNIT_RAY, z=values[0], incident=incident, reflected=reflected,
        medium_ids=tuple(media[i % 6] for i in range(k)), wave_kind="em", ray_id=7,
    )
    path = tmp_path / "traces.csv"
    write_traces(path, [trace])
    expected = io.StringIO()
    rows = csv.writer(expected, lineterminator="\n")
    for i in range(k):
        rows.writerow([7, *(fmt_float(v) for v in values[:, i]), trace.medium_ids[i]])
    assert path.read_text().split("\n", 1)[1] == expected.getvalue()


def long_trace(ray_id: int, k: int) -> FieldTrace:
    z = np.arange(k) * 0.001
    return FieldTrace(
        ray=UNIT_RAY, z=z, incident=np.exp(1j * z), reflected=-0.5 * np.exp(-1j * z),
        medium_ids=tuple(10 + i % 50 for i in range(k)), wave_kind="em", ray_id=ray_id,
    )


@pytest.mark.parametrize("garble, message", [
    (lambda line: line + ",7", "the dtype passed requires 7 columns but 8 were found at row 12293"),
    (lambda line: line.replace(",", ",x", 1),
     "could not convert string 'x12.292' to float64 at row 12292, column 2."),
])
def test_garbled_row_in_a_later_block_is_named_by_its_row_in_the_body(tmp_path, garble, message):
    """The body is parsed in blocks of _BLOCK_ROWS rows, and numpy counts the
    rows of each block from its start: a bad row in the 4th block must still
    be named by its row in the whole body, as a one-pass parse names it."""
    path = tmp_path / "traces.csv"
    write_traces(path, [long_trace(0, 4 * _BLOCK_ROWS)])
    lines = path.read_text().splitlines()
    lines[12293] = garble(lines[12293])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaMismatch) as err:
        read_traces(path)
    assert str(err.value) == f"garbled trace row: {message}"


TRACE_DTYPE = np.dtype(
    [("ray", "i8")] + [(name, "f8") for name in ("z", "ir", "ii", "rr", "ri")] + [("medium", "O")]
)


def parsed_medium_id(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def one_pass_read(path) -> dict:
    """{ray id: (z, incident_re, incident_im, reflected_re, reflected_im,
    medium ids)} from one np.loadtxt pass over the whole body, each ray's
    rows in file order."""
    with open(path) as fh:
        fh.readline()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(
                fh, dtype=TRACE_DTYPE, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
    out = {}
    for ray_id in np.unique(body["ray"]).tolist():
        rows = body[body["ray"] == ray_id]
        medium = tuple(map(parsed_medium_id, rows["medium"].tolist()))
        out[ray_id] = (*(rows[name] for name in TRACE_DTYPE.names[1:6]), medium)
    return out


def bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.uint64)


SPECIAL_FLOATS = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1.5])
MEDIUM_IDS = [0, 12, -3, "core", "", "a,b", 'x"y', "p\nq"]


@settings(deadline=None, max_examples=15)
@example(blocks=2, shift=0, seed=0, blank_at=None)  # exactly two full blocks
@example(blocks=0, shift=0, seed=0, blank_at=None)  # header only
@example(blocks=1, shift=1, seed=1, blank_at=_BLOCK_ROWS)  # blanks before the lone last row
@given(
    blocks=st.integers(min_value=0, max_value=2),
    shift=st.integers(min_value=-3, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    blank_at=st.none() | st.integers(min_value=0, max_value=3 * _BLOCK_ROWS),
)
def test_block_reader_reads_what_one_pass_reads(blocks, shift, seed, blank_at):
    """Row counts near multiples of the block size, three rays interleaved
    across every block border (one of them absent from the first block),
    quoted ids holding a comma, a quote and a newline on both sides of each
    border, and optionally a run of more than one block of blank lines:
    every ray comes back bit for bit as one np.loadtxt pass over the whole
    body reads it."""
    n = max(blocks * _BLOCK_ROWS + shift, 0)
    rng = np.random.default_rng(seed)
    values = np.where(
        rng.random((n, 5)) < 0.3,
        SPECIAL_FLOATS[rng.integers(0, len(SPECIAL_FLOATS), (n, 5))],
        rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-300, 300, (n, 5)),
    )
    # ray 0 first appears after the first block, so it must still come back first
    ray_ids = rng.integers(0, 3, n)
    ray_ids[:_BLOCK_ROWS] = ray_ids[:_BLOCK_ROWS] % 2 + 1
    medium = [MEDIUM_IDS[i] for i in rng.integers(0, len(MEDIUM_IDS), n)]
    for border in range(_BLOCK_ROWS, n + 1, _BLOCK_ROWS):
        medium[border - 2:border + 2] = ["a,b", "p\nq", 'x"y', "p\nq"]
    del medium[n:]
    records = io.StringIO()
    rows = csv.writer(records, lineterminator="\n")
    for ray_id, fields, medium_id in zip(ray_ids.tolist(), values.tolist(), medium):
        rows.writerow([ray_id, *map(repr, fields), medium_id])
    body = records.getvalue().splitlines(keepends=True)
    # splitlines also splits the quoted newlines; a record starts with a ray id
    starts = [i for i, line in enumerate(body) if line[:1].isdigit()] + [len(body)]
    if blank_at is not None:
        at = starts[min(blank_at, n)]
        body[at:at] = ["\n"] * (_BLOCK_ROWS + 3)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "traces.csv"
        write_traces(path, em_traces_from_rows([(r, 0.0, 1.0, 0.0, 0.0, 0.0, 0) for r in range(3)]))
        path.write_text(",".join(TRACE_COLUMNS) + "\n" + "".join(body))
        back, _ = read_traces(path)
        expected = one_pass_read(path)
    assert [tr.ray_id for tr in back] == sorted(expected)
    for tr in back:
        z, inc_re, inc_im, ref_re, ref_im, medium_ids = expected[tr.ray_id]
        for got, want in [(tr.z, z), (tr.incident.real, inc_re), (tr.incident.imag, inc_im),
                          (tr.reflected.real, ref_re), (tr.reflected.imag, ref_im)]:
            assert np.array_equal(bits(got), bits(want))
        assert tr.medium_ids == medium_ids
        assert list(map(type, tr.medium_ids)) == list(map(type, medium_ids))


def test_write_builds_no_column_of_medium_fields(tmp_path):
    """Medium ids become CSV fields one block at a time: the traced peak of
    one write of 4 rays x 100k rows stays under 3.5 MB, where a column of
    fields for every row, built before the body was cut into shares, took
    it to 5.1 MB."""
    traces = [long_trace(ray_id, 100_000) for ray_id in range(4)]
    path = tmp_path / "traces.csv"
    write_traces(path, traces)  # compile and cache what a first call builds
    expected = path.read_bytes()
    tracemalloc.start()
    try:
        write_traces(path, traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == expected
    assert peak < 3.5e6


def test_read_peak_memory_stays_within_twice_what_it_returns(tmp_path):
    """No object per row outlives its block: on two rays of four blocks
    and more, the traced peak of a read stays within twice the bytes it
    returns (a one-pass parse with one Python str per row peaked near 4x)."""
    path = tmp_path / "traces.csv"
    write_traces(path, [long_trace(ray_id, 4 * _BLOCK_ROWS + 100) for ray_id in (0, 1)])
    read_traces(path)  # compile and cache what a first call builds
    tracemalloc.start()
    try:
        back, _ = read_traces(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(
        tr.z.nbytes + tr.incident.nbytes + tr.reflected.nbytes + sys.getsizeof(tr.medium_ids)
        for tr in back
    )
    assert peak <= 2 * returned


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


HEADER = b"kind,ray,z,position,t_re,t_im,r_re,r_im,pair_a,pair_b,criterion,residual,degenerate\n"


def test_report_golden_bytes_2d_positions(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, DetectionReport(interface_hits=[
        InterfaceHit(1, 0.125, (0.1 + 0.125 * 0.6, 0.2 + 0.125 * 0.8), complex(0.8, -1e-17),
                     complex(-0.2, 0.0), (1.0, 1.5), 3.0e-16),
        InterfaceHit(4, 1.0 / 3.0, (-0.0, 1.0 / 3.0), complex(1.0 / 3.0, 2.5),
                     complex(-0.0, 1e300), (1.5, 2.0), 0.1),
    ]))
    assert path.read_bytes() == HEADER + (
        b"interface,1,0.125,0.17499999999999999;0.30000000000000004,0.80000000000000004,"
        b"-1.0000000000000001e-17,-0.20000000000000001,0,1,1.5,,2.9999999999999999e-16,\n"
        b"interface,4,0.33333333333333331,-0;0.33333333333333331,0.33333333333333331,2.5,"
        b"-0,1.0000000000000001e+300,1.5,2,,0.10000000000000001,\n"
    )
    assert json.loads(sidecar_path(path).read_text())["counts"]["interface_hits"] == 2


def test_report_golden_bytes_3d_positions(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, DetectionReport(
        interface_hits=[
            InterfaceHit(0, 2.0 / 3.0, (1e-300, -2.5, 7.0), complex(0.64, 0.0),
                         complex(0.36, -0.0), (1.0, 4.0), 2.220446049250313e-16),
        ],
        vertex_hits=[VertexHit((0.5, 0.25, 1.0), "fwm", 1e-9, (0,))],
    ))
    assert path.read_bytes() == HEADER + (
        b"interface,0,0.66666666666666663,1e-300;-2.5;7,0.64000000000000001,0,"
        b"0.35999999999999999,-0,1,4,,2.2204460492503131e-16,\n"
        b"vertex,0,,0.5;0.25;1,,,,,,,fwm,1.0000000000000001e-09,0\n"
    )


def test_report_golden_bytes_without_hits(tmp_path):
    path = tmp_path / "report.csv"
    write_report(path, DetectionReport(params_used={"tol": 0.05}))
    assert path.read_bytes() == HEADER
    meta = json.loads(sidecar_path(path).read_text())
    assert meta["counts"] == {"interface_hits": 0, "vertex_hits": 0}
    assert meta["params_used"] == {"tol": 0.05}


def test_report_golden_bytes_quoted_criteria(tmp_path):
    """Criteria quoted exactly as csv.writer quotes a field."""
    path = tmp_path / "report.csv"
    write_report(path, DetectionReport(vertex_hits=[
        VertexHit((0.5,), "a,b", 1e-7, (0, 1)),
        VertexHit(None, 'x"y', 0.0, (2,), degenerate=True),
        VertexHit((1.0 / 3.0, -0.0), "two\nlines", math.inf, ()),
        VertexHit((0.25,), "", 2.5e-300, (3, 4, 5)),
    ]))
    assert path.read_bytes() == HEADER + (
        b'vertex,0;1,,0.5,,,,,,,"a,b",9.9999999999999995e-08,0\n'
        b'vertex,2,,,,,,,,,"x""y",0,1\n'
        b'vertex,,,0.33333333333333331;-0,,,,,,,"two\nlines",inf,0\n'
        b"vertex,3;4;5,,0.25,,,,,,,,2.5e-300,0\n"
    )
    criteria = [v.criterion for v in read_report(path)[0].vertex_hits]
    assert criteria == ["a,b", 'x"y', "two\nlines", ""]


def test_report_rejects_hits_of_mixed_dimension(tmp_path):
    hit = sample_report().interface_hits[0]
    flat = InterfaceHit(1, hit.z, (0.5, 0.5), hit.measured_t, hit.measured_r, hit.media_pair, 0.0)
    with pytest.raises(ValueError, match="mix positions of \\[1, 2\\] coordinates"):
        write_report(tmp_path / "report.csv", DetectionReport(interface_hits=[hit, flat]))


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


# ---------------------------------------------------------------------------
# bodies in shares: forked children render and parse all shares but one


@contextmanager
def cpus(n: int):
    """The share rule sees n usable CPUs; yields the list of fork results
    seen by the calling process, one per child forked."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(real_fork())
        return forks[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        patch.setattr(os, "fork", fork)
        yield forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def expected_forks(rows: int, n: int) -> int:
    return min(n, 4) - 1 if rows >= 2 * _BLOCK_ROWS else 0


def random_columns(rng, n: int, k: int) -> np.ndarray:
    """(k, n) floats, about a third of them nan, infinities, signed zeros,
    a subnormal or extremes."""
    return np.where(
        rng.random((k, n)) < 0.3,
        SPECIAL_FLOATS[rng.integers(0, len(SPECIAL_FLOATS), (k, n))],
        rng.standard_normal((k, n)) * 10.0 ** rng.integers(-300, 300, (k, n)),
    )


def share_borders(n: int, cpus: int) -> list[int]:
    shares = min(cpus, 4)
    return [n * i // shares for i in range(1, shares)]


@settings(deadline=None, max_examples=8)
@example(n=2, shift=-4, seed=0)  # the report one row short of the share threshold
@example(n=4, shift=0, seed=1)  # exactly at the threshold, four shares
@given(
    n=st.integers(min_value=2, max_value=5),
    shift=st.integers(min_value=-5, max_value=2 * _BLOCK_ROWS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_writes_in_shares_give_the_one_share_bytes(n, shift, seed):
    """Row counts around the share threshold and rays that end next to the
    share borders, with quoted medium ids and criteria on both sides of each
    border: a trace file and a report written by n processes hold the bytes
    of one written by one."""
    rows = 2 * _BLOCK_ROWS + shift
    rng = np.random.default_rng(seed)
    values = random_columns(rng, rows, 5)
    medium = [MEDIUM_IDS[i] for i in rng.integers(0, len(MEDIUM_IDS), rows)]
    ends = {rows}
    for border in share_borders(rows, n):
        medium[border - 2:border + 2] = ["a,b", "p\nq", 'x"y', 12]
        ends.add(border + int(rng.integers(-1, 2)))
    ends = sorted(ends)
    # rays in descending id order: the writer sorts them
    traces = [
        FieldTrace(
            ray=UNIT_RAY, z=values[0, a:b],
            incident=traceio._complex(values[1, a:b], values[2, a:b]),
            reflected=traceio._complex(values[3, a:b], values[4, a:b]),
            medium_ids=tuple(medium[a:b]), wave_kind="em", ray_id=len(ends) - i,
        )
        for i, (a, b) in enumerate(zip([0] + ends, ends))
    ]
    columns = random_columns(rng, rows, 9)
    hits = InterfaceHits(
        ray_id=rng.integers(0, 5, rows), z=columns[0], position=columns[1:3].T,
        t=traceio._complex(columns[3], columns[4]), r=traceio._complex(columns[5], columns[6]),
        pair=columns[7:9].T, residual=np.abs(columns[0]),
    )
    vertices = [
        VertexHit(position=(0.5, -0.0), criterion=criterion, residual=1e-9, ray_ids=(0, 3),
                  degenerate=False)
        for criterion in ("fwm", "a,b", 'x"y')
    ]
    report = DetectionReport(interface_hits=hits, vertex_hits=vertices, params_used={"tol": 0.1})
    with tempfile.TemporaryDirectory() as d:
        one, many = Path(d) / "one.csv", Path(d) / "many.csv"
        with cpus(1) as forks:
            write_traces(one, traces)
            write_report(sidecar_path(one), report)
        assert forks == []
        with cpus(n) as forks:
            write_traces(many, traces)
            write_report(sidecar_path(many), report)
        assert len(forks) == expected_forks(rows, n) + expected_forks(rows + len(vertices), n)
        assert_no_child_left()
        assert many.read_bytes() == one.read_bytes()
        assert sidecar_path(many).read_bytes() == sidecar_path(one).read_bytes()


def trace_body(rng, rows: int, medium: list) -> str:
    """Rows of three rays interleaved in random order, ray 0 absent from
    the first block, rendered as csv.writer renders them."""
    values = random_columns(rng, rows, 5)
    ray_ids = rng.integers(0, 3, rows)
    ray_ids[:_BLOCK_ROWS] = ray_ids[:_BLOCK_ROWS] % 2 + 1
    records = io.StringIO()
    writer = csv.writer(records, lineterminator="\n")
    for ray_id, fields, medium_id in zip(ray_ids.tolist(), values.T.tolist(), medium):
        writer.writerow([ray_id, *map(repr, fields), medium_id])
    return ",".join(TRACE_COLUMNS) + "\n" + records.getvalue()


def read_with(path, n: int):
    with cpus(n) as forks:
        back, _ = read_traces(path)
    assert_no_child_left()
    return back, len(forks)


def assert_same_traces(got, want):
    assert [tr.ray_id for tr in got] == [tr.ray_id for tr in want]
    for a, b in zip(got, want):
        for name in ("z", "incident", "reflected"):
            assert np.array_equal(bits(getattr(a, name).view(float)),
                                  bits(getattr(b, name).view(float)))
        assert a.medium_ids == b.medium_ids
        assert list(map(type, a.medium_ids)) == list(map(type, b.medium_ids))


@settings(deadline=None, max_examples=10)
@example(n=2, shift=0, seed=0, quoted=False)
@example(n=4, shift=_BLOCK_ROWS, seed=1, quoted=True)
@given(
    n=st.integers(min_value=2, max_value=4),
    shift=st.integers(min_value=-3, max_value=2 * _BLOCK_ROWS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    quoted=st.booleans(),
)
def test_reads_in_shares_give_the_one_share_traces(n, shift, seed, quoted):
    """Interleaved rays, unquoted ids before the first cut and, optionally,
    ids holding a comma, a quote and a newline after it: n processes read
    the traces bit for bit as one does."""
    rows = 2 * _BLOCK_ROWS + shift
    rng = np.random.default_rng(seed)
    plain = [i for i in MEDIUM_IDS if not re.search('[,"\n]', str(i))]
    medium = [plain[i] for i in rng.integers(0, len(plain), rows)]
    if quoted:
        # before the second share border and in the last row: the first cut
        # comes before them all, and a cut after any of them is dropped
        for border in share_borders(rows, n)[1:] + [rows - 1]:
            medium[border - 1:border + 1] = ["a,b", "p\nq"]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "traces.csv"
        write_traces(path, em_traces_from_rows([(r, 0.0, 1.0, 0.0, 0.0, 0.0, 0) for r in range(3)]))
        path.write_text(trace_body(rng, rows, medium))
        one, forks = read_with(path, 1)
        assert forks == 0
        many, forks = read_with(path, n)
    if not quoted:
        assert forks == expected_forks(rows, n)
    elif rows >= 2 * _BLOCK_ROWS:
        assert 1 <= forks <= expected_forks(rows, n)
    assert_same_traces(many, one)


def test_quote_before_the_first_cut_reads_as_one_share(tmp_path):
    """A quoted id may hold a newline, so a cut after a quote could fall
    inside a row: a body with a quote before its first cut is one share."""
    rng = np.random.default_rng(3)
    rows = 4 * _BLOCK_ROWS
    medium = [int(i) for i in rng.integers(0, 40, rows)]
    medium[5:8] = ["p\nq", 'x"y', "a,b"]
    path = tmp_path / "traces.csv"
    write_traces(path, em_traces_from_rows([(r, 0.0, 1.0, 0.0, 0.0, 0.0, 0) for r in range(3)]))
    path.write_text(trace_body(rng, rows, medium))
    one, _ = read_with(path, 1)
    many, forks = read_with(path, 4)
    assert forks == 0
    assert_same_traces(many, one)
    assert sum(tr.medium_ids.count("p\nq") for tr in one) == 1


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("row", [5, 2 * _BLOCK_ROWS + 7])
def test_garbled_row_in_a_child_share_raises_the_one_share_text(tmp_path, n, row):
    """The first share is always a child's: its garbled row is named by its
    row in the whole body, as a one-share read names it."""
    path = tmp_path / "traces.csv"
    write_traces(path, [long_trace(0, 8 * _BLOCK_ROWS)])
    lines = path.read_text().splitlines()
    lines[row] = lines[row].replace(",", ",x", 1)
    path.write_text("\n".join(lines) + "\n")
    texts = []
    for cpus_seen in (1, n):
        with cpus(cpus_seen) as forks, pytest.raises(SchemaMismatch) as err:
            read_traces(path)
        assert len(forks) == expected_forks(8 * _BLOCK_ROWS, cpus_seen)
        assert_no_child_left()
        texts.append(str(err.value))
    assert texts[0] == texts[1]
    assert f"at row {row - 1}, column 2." in texts[0]


def test_failed_children_leave_the_one_share_bytes_and_traces(tmp_path):
    """A child whose rendering or parsing raises, and a fork that fails: the
    parent renders that share itself, or reads the body again alone."""
    traces = [long_trace(ray_id, 3 * _BLOCK_ROWS + 11 * ray_id) for ray_id in (4, 1)]
    one = tmp_path / "one.csv"
    with cpus(1):
        write_traces(one, traces)
        want, _ = read_traces(one)
    parent = os.getpid()

    def in_children_only(function):
        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("a child fails")
            return function(*args)
        return failing

    for name, function in [("_write_rows", traceio._write_rows),
                           ("_parse_share", traceio._parse_share)]:
        with pytest.MonkeyPatch.context() as patch, cpus(3) as forks:
            patch.setattr(traceio, name, in_children_only(function))
            many = tmp_path / f"{name}.csv"
            write_traces(many, traces)
            got, _ = read_traces(many)
        assert len(forks) == 4
        assert_no_child_left()
        assert many.read_bytes() == one.read_bytes()
        assert_same_traces(got, want)

    def no_fork():
        raise OSError("fork refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        patch.setattr(os, "fork", no_fork)
        many = tmp_path / "no-fork.csv"
        write_traces(many, traces)
        got, _ = read_traces(many)
    assert many.read_bytes() == one.read_bytes()
    assert_same_traces(got, want)


def test_without_fork_a_body_is_one_share_read_without_pread(tmp_path):
    """Where os.fork is missing (Windows), so is os.pread."""
    traces = [long_trace(0, 4 * _BLOCK_ROWS)]
    one = tmp_path / "one.csv"
    with cpus(1):
        write_traces(one, traces)
        want, _ = read_traces(one)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        patch.delattr(os, "fork")
        patch.delattr(os, "pread")
        path = tmp_path / "traces.csv"
        write_traces(path, traces)
        got, _ = read_traces(path)
    assert path.read_bytes() == one.read_bytes()
    assert_same_traces(got, want)


def test_interrupt_in_the_parent_kills_and_reaps_every_child(tmp_path):
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(*args)

    real = traceio._write_rows
    with pytest.MonkeyPatch.context() as patch, cpus(4) as forks:
        patch.setattr(traceio, "_write_rows", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_traces(tmp_path / "traces.csv", [long_trace(0, 4 * _BLOCK_ROWS)])
    assert len(forks) == 3
    assert_no_child_left()


def test_another_thread_keeps_one_share(tmp_path):
    """A forked child would inherit any lock another thread holds."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        with cpus(4) as forks:
            write_traces(tmp_path / "traces.csv", [long_trace(0, 4 * _BLOCK_ROWS)])
            read_traces(tmp_path / "traces.csv")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_forked_write_and_read_warn_nothing(tmp_path):
    """Python 3.12 warns on each fork of a process that runs a second OS
    thread, as numpy's BLAS pool is; the fork here warns the same way on
    every version."""
    real_fork = os.fork

    def fork():
        warnings.warn(
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
            "to deadlocks in the child.", DeprecationWarning, stacklevel=2,
        )
        return real_fork()

    path = tmp_path / "traces.csv"
    with warnings.catch_warnings(record=True) as caught, pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("always")
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        patch.setattr(os, "fork", fork)
        write_traces(path, [long_trace(0, 4 * _BLOCK_ROWS)])
        read_traces(path)
    assert [str(w.message) for w in caught] == []
    assert_no_child_left()
