"""End-to-end command-line behavior, driven in-process through main()."""

import hashlib
import io
import json
import math
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polywave import cli, detect, traceio
from polywave import fwm as fwm_mod
from polywave import scenario as sc
from polywave.coupled_mode import (
    MAX_GRID_STEPS,
    CascadeSpec,
    CouplerStage,
    DelayStage,
    cascade_transfer,
)
from polywave.fwm import FwmParams, closed_form_signal, integrate_signal
from polywave.traceio import (
    SchemaMismatch,
    read_report,
    read_traces,
    sidecar_path,
    write_report,
)
from polywave.waveguide import SlabSpec, solve_te_slab_modes

ROD_CONFIG = """\
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
seed = 7
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
medium.1 = z=4.0 c=1.0

[rays]
ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001

[detection]
candidates = 1.0,4.0
"""


@pytest.fixture
def rod(tmp_path):
    cfg = tmp_path / "rod.cfg"
    cfg.write_text(ROD_CONFIG)
    return cfg


@pytest.fixture
def acoustic(tmp_path):
    cfg = tmp_path / "acoustic.cfg"
    cfg.write_text(ACOUSTIC_CONFIG)
    return cfg


def table(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            k, _, v = line.partition("=")
            out[k.strip()] = v.strip()
    return out


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_traces(rod, tmp_path, capsys):
    out = tmp_path / "traces.csv"
    assert cli.main(["simulate", "--config", str(rod), "--out", str(out)]) == 0
    assert "wrote 1 trace(s)" in capsys.readouterr().err
    traces, meta = read_traces(out)
    assert len(traces) == 1
    assert traces[0].n_samples == 999
    assert meta["seed"] == 7
    assert meta["paper_exact"] is False


def test_simulate_empty_rays(rod, tmp_path):
    cfg = tmp_path / "norays.cfg"
    cfg.write_text(
        ROD_CONFIG.replace(
            "ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001\n", ""
        )
    )
    out = tmp_path / "empty.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    traces, meta = read_traces(out)
    assert traces == []
    assert meta["wave_kind"] == "em"


def test_readme_example_config_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    traces, report = tmp_path / "traces.csv", tmp_path / "report.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
    assert cli.main(
        ["detect", "--config", str(cfg), "--traces", str(traces), "--out", str(report)]
    ) == 0
    assert "wrote 2 trace(s)" in capsys.readouterr().err


def test_simulate_deterministic(rod, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--config", str(rod), "--noise", "0.01"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()

    c = tmp_path / "c.csv"
    assert cli.main(argv + ["--out", str(c), "--seed", "8"]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_simulate_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[geometry]\ndimension one\n")
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 2" in err


@pytest.mark.parametrize("old, new, bad", [
    ("| 2 3", "| 2 inf", "inf"),
    ("| 2 3", "| 2 nan", "nan"),
    ("| 2 3", "| 2 3.4", "3.4"),
    ("rays=0,1", "rays=0,inf", "inf"),
    ("rays=0,1", "rays=0,1.9", "1.9"),
])
def test_non_integer_id_exit_2(old, new, bad, tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert text.count(old) == 1
    cfg = tmp_path / "ids.cfg"
    cfg.write_text(text.replace(old, new))
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: line ")
    assert f"expected an integer, got {bad!r}" in err
    assert "Traceback" not in err


def simulate_edited_readme_config(old, new, tmp_path, capsys):
    """Run simulate on the README config with one edit; return (code, stderr)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert text.count(old) == 1
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(text.replace(old, new))
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("n=1.5", "n=1.5 n=3.0", "medium.1: repeated token n="),
    ("ray.0 = origin=0.0005", "ray.0 = origin=0.0005 origin=0.5", "ray.0: repeated token origin="),
    ("rays=0,1", "ray=0 rays=0,1", "check.0: give only one of ray= or rays="),
    ("| 2 3", "| 2 0_3", "expected an integer, got '0_3'"),
    ("medium.1 = n=1.5", "medium.01 = n=3.0\nmedium.1 = n=1.5", "bad index in key 'medium.01'"),
])
def test_silently_dropped_input_exit_2(old, new, message, tmp_path, capsys):
    code, err = simulate_edited_readme_config(old, new, tmp_path, capsys)
    assert code == 2
    assert err.startswith("config error: line ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, token", [
    ("length=0.999 grid_step=0.001\nray.1", "length=nan grid_step=0.001\nray.1", "ray.0 length"),
    ("origin=0.0005 direction=1", "origin=0.0005 direction=inf", "ray.0 direction"),
    ("origin=0.0005", "origin=nan", "ray.0 origin"),
    ("length=0.999 grid_step=0.001\nray.1", "length=0.999 grid_step=nan\nray.1", "ray.0 grid_step"),
    ("n=1.5", "n=nan", "medium.1 n"),
    ("n=1.5", "n=inf", "medium.1 n"),
    ("noise_sigma = 0.01", "noise_sigma = -inf", "noise_sigma"),
    ("1.0,2.0\n", "1.0,NaN\n", "candidates"),
])
def test_non_finite_number_exit_2(old, new, token, tmp_path, capsys):
    code, err = simulate_edited_readme_config(old, new, tmp_path, capsys)
    assert code == 2
    assert err.startswith("config error: line ")
    assert f"{token}: " in err and "expected a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, message", [
    ("seed = 99", "seed = -5", "seed: expected an integer >= 0, got '-5'"),
    ("tol = 1e-6", "tol = -1", "tol: expected a number > 0, got '-1'"),
    ("noise_sigma = 0.01", "noise_sigma = -0.5", "noise_sigma: expected a number >= 0, got '-0.5'"),
    ("rays=0,1 tol=1e-6", "rays=0,1 tol=-1", "check.0 tol: expected a number > 0, got '-1'"),
    ("rays=0,1 tol=1e-6", "rays=0,1 tol=1e-6 window=-1", "check.0 window: expected a number > 0"),
    ("rays=0,1 tol=1e-6", "rays=0,1 tol=1e-6 kappa_min=-1", "check.0 kappa_min: expected a number >= 0"),
    ("n=1.5", "n=-1.5", "medium.1: refractive index must be > 0, got -1.5"),
    ("length=0.999 grid_step=0.001\nray.1", "length=0.999 grid_step=-0.001\nray.1",
     "ray.0: grid_step must be > 0, got -0.001"),
    ("criterion=coupled_mode rays=0,1", "criterion=cascade rays=0,1 position=0.1,0.2,0.3",
     "check.0: position must have 1 components"),
    ("candidates =", "paper_exact = true\ncandidates =", "paper_exact: acoustic scenarios only"),
    ("candidates =", "paper_exact = maybe\ncandidates =", "paper_exact: expected true/false, got 'maybe'"),
    ("[vertices]", "[ ]", "empty section name"),
    ("0.0 | 0.25 | 0.55 | 1.0", "0.0 | | 0.55 | 1.0", "vertices: empty entry in list"),
    ("[media]\nwave_kind = em\n", "[media]\n", "missing required key 'wave_kind' in this section"),
    ("medium.0 = n=1.0", "medium.0 = n", "medium.0: malformed token 'n', expected key=value"),
])
def test_out_of_range_value_exit_2(old, new, message, tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    line = text[:text.index(old)].count("\n") + 1
    code, err = simulate_edited_readme_config(old, new, tmp_path, capsys)
    assert code == 2
    assert err.startswith(f"config error: line {line}, col ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--seed", "-5"], "--seed: expected an integer >= 0, got '-5'"),
    (["simulate", "--noise", "-0.5"], "--noise: expected a number >= 0, got '-0.5'"),
    (["detect", "--tol", "nan"], "--tol: expected a finite number, got 'nan'"),
    (["detect", "--paper-exact"], "--paper-exact: acoustic scenarios only (wave_kind is em)"),
])
def test_out_of_range_override_exit_2(argv, message, tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    traces, out = tmp_path / "traces.csv", tmp_path / "out.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
    capsys.readouterr()
    inputs = ["--traces", str(traces)] if argv[0] == "detect" else []
    code = cli.main(argv + ["--config", str(cfg), *inputs, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


EQUAL_IMPEDANCE_CONFIG = """\
[geometry]
dimension = 1
vertices = 0.0 | 0.5 | 1.0
simplices = 0 1 | 1 2

[media]
wave_kind = acoustic
medium.0 = z=1.5 c=1.0
medium.1 = z=3.0 c=1.0

[rays]
ray.0 = origin=0.0005 direction=1 length=0.998 grid_step=0.001

[detection]
candidates = 1.5,3.0 | 2.0,2.0
"""


@pytest.mark.parametrize("command, set_by", [
    ("simulate", "key"), ("detect", "key"), ("detect", "flag"), ("detect", "both"),
])
def test_paper_exact_with_an_equal_impedance_candidate_exit_2(command, set_by, tmp_path, capsys):
    """The as-published transmittance divides by (Z2/Z1 - 1)^2, so a candidate
    of equal impedances used to end detect in a PaperExactSingularity
    traceback.  The config key is reported at the candidates line (the
    config's value wins when the flag sets the same), the flag by its name."""
    plain, cfg = tmp_path / "plain.cfg", tmp_path / "exact.cfg"
    plain.write_text(EQUAL_IMPEDANCE_CONFIG)
    keyed = EQUAL_IMPEDANCE_CONFIG.replace("[detection]\n", "[detection]\npaper_exact = true\n")
    cfg.write_text(keyed if set_by != "flag" else EQUAL_IMPEDANCE_CONFIG)
    traces, out = tmp_path / "traces.csv", tmp_path / "out.csv"
    assert cli.main(["simulate", "--config", str(plain), "--out", str(traces)]) == 0
    capsys.readouterr()
    inputs = ["--traces", str(traces)] if command == "detect" else []
    flag = ["--paper-exact"] if set_by != "key" else []
    code = cli.main([command, "--config", str(cfg), *inputs, "--out", str(out), *flag])
    where = "--paper-exact: " if set_by == "flag" else "line 16, col 13: candidates: "
    message = "paper_exact needs two different impedances, got 2.0,2.0"
    assert (code, capsys.readouterr().err) == (2, f"config error: {where}{message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "detect"])
@pytest.mark.parametrize("entry", ["0,1.5", "-0,2.0", "1.0,-1"])
def test_non_positive_candidate_exit_2(command, entry, tmp_path, capsys):
    """A candidate index or impedance <= 0 is a config error at its line,
    for both commands, where it used to reach detection as exit 5."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    line = text[:text.index("candidates =")].count("\n") + 1
    good, bad = tmp_path / "readme.cfg", tmp_path / "bad.cfg"
    good.write_text(text)
    bad.write_text(text.replace("| 1.0,2.0\n", f"| {entry}\n"))
    traces, out = tmp_path / "traces.csv", tmp_path / "out.csv"
    assert cli.main(["simulate", "--config", str(good), "--out", str(traces)]) == 0
    capsys.readouterr()
    inputs = ["--traces", str(traces)] if command == "detect" else []
    code = cli.main([command, "--config", str(bad), *inputs, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}, col ")
    assert f"candidates: bad entry {entry!r}: expected two numbers > 0" in err
    assert "Traceback" not in err
    assert not out.exists()


def readme_config(tmp_path, old="", new=""):
    """The README config with one edit, written to a file; returns (path, text)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert text.count(old) >= 1
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(text.replace(old, new, 1))
    return cfg, text


@pytest.mark.parametrize("step, steps", [("1e-12", "9.99e+11"), ("1e-320", "inf")])
def test_ray_of_too_many_samples_exit_2(step, steps, tmp_path, capsys, monkeypatch):
    """A grid_step that puts more than MAX_GRID_STEPS steps on a ray is a config
    error at the ray's line, raised before synthesis allocates a sample."""
    def never(*args, **kwargs):
        raise AssertionError("synthesis ran")

    monkeypatch.setattr(sc, "synthesize_ray_trace", never)
    cfg, text = readme_config(tmp_path, "grid_step=0.001", f"grid_step={step}")  # ray.0
    line = text[:text.index("ray.0 =")].count("\n") + 1
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: line {line}, col 8: ray.0: length / grid_step must be <= "
        f"{MAX_GRID_STEPS}, got {steps}\n"
    )
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("step", [1e-12, 1e-320])
def test_sidecar_ray_of_too_many_samples_exit_4(step, tmp_path, capsys):
    cfg, _ = readme_config(tmp_path)
    traces = tmp_path / "traces.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
    meta = json.loads(sidecar_path(traces).read_text())
    meta["rays"]["1"]["grid_step"] = step
    sidecar_path(traces).write_text(json.dumps(meta))
    capsys.readouterr()
    code = cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                     "--out", str(tmp_path / "r.csv")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("schema error: garbled sidecar geometry of ray 1: length / grid_step")
    assert "Traceback" not in err


def test_candidate_whose_t_rounds_to_zero_matches_nothing_quietly(tmp_path, capsys):
    """n1 = 1e-320 against n2 = 1.5 gives t = 1 + r = 0: the ratio scan skips
    it instead of dividing by zero, and the verdicts stay those of the
    config without it."""
    outputs = []
    for old, new in [("", ""), ("candidates = ", "candidates = 1e-320,1.5 | ")]:
        cfg, _ = readme_config(tmp_path, old, new)
        traces = tmp_path / "traces.csv"
        assert cli.main(["simulate", "--config", str(cfg), "--noise", "0",
                         "--out", str(traces)]) == 0
        assert cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                         "--out", str(tmp_path / "r.csv")]) == 0
        outputs.append((capsys.readouterr(), (tmp_path / "r.csv").read_bytes()))
    (plain, report), (edited, edited_report) = outputs
    assert edited.out == plain.out == "interface_hits=2 vertex_hits=0\n"
    assert edited.err == plain.err == f"wrote 2 trace(s) to {traces}\n"
    assert edited_report == report


@pytest.mark.parametrize("value", ["1e308", "-1e308"])
@pytest.mark.parametrize("row", [1, 500, 1000])
def test_trace_value_near_the_float_range_is_a_quiet_reject(value, row, tmp_path, capsys):
    """A sample of 1e308 in ray 0 overflows the ratio scan and the coupled-mode
    fit (at row 1 its normalization, at row 1000 the fit's Jacobian, which
    used to end in exit 5): no hit there and a rejected vertex, with nothing
    on stderr."""
    cfg, _ = readme_config(tmp_path)
    traces = tmp_path / "traces.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--noise", "0", "--out", str(traces)]) == 0
    lines = traces.read_text().splitlines(keepends=True)
    fields = lines[row].split(",")
    assert fields[0] == "0"
    fields[2] = value
    lines[row] = ",".join(fields)
    traces.write_text("".join(lines))
    capsys.readouterr()
    code = cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                     "--out", str(tmp_path / "r.csv")])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.endswith(" vertex_hits=0\n")


@pytest.fixture(scope="module")
def readme_traces(tmp_path_factory):
    """The README config, and the text of the trace file and sidecar that
    simulate writes for it."""
    tmp = tmp_path_factory.mktemp("readme")
    cfg, _ = readme_config(tmp)
    traces = tmp / "traces.csv"
    with redirect_stderr(io.StringIO()):
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
    return cfg, traces.read_text().splitlines(keepends=True), sidecar_path(traces).read_text()


@settings(deadline=None, max_examples=25)
@given(
    row=st.integers(min_value=1),
    field=st.integers(min_value=0, max_value=7),
    value=st.sampled_from(
        ["inf", "-inf", "nan", "1e400", "-0", "", "x", '"a,b"', "1_0", "1e308", "-1"]
    ),
)
@example(row=10, field=1, value="1e308")  # an off-grid z in the coupled-mode window
def test_a_replaced_trace_field_exits_0_or_4_quietly(readme_traces, row, field, value):
    """One field of a README trace row replaced (field 7: one field added):
    detect exits 0 or 4 with no traceback, and an exit-0 run warns nothing.
    A z that leaves the grid the coupled-mode check needs exits 4; it
    exited 5 while the detectors' refusals of traces were spec errors."""
    cfg, lines, sidecar = readme_traces
    row = 1 + row % (len(lines) - 1)
    fields = lines[row].rstrip("\n").split(",")
    fields[field:field + 1] = [value]
    lines = lines[:row] + [",".join(fields) + "\n"] + lines[row + 1:]
    with tempfile.TemporaryDirectory() as d:
        traces = Path(d) / "traces.csv"
        traces.write_text("".join(lines))
        sidecar_path(traces).write_text(sidecar)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
                redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                             "--out", str(Path(d) / "report.csv")])
    assert code in (0, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert (err.getvalue(), [str(w.message) for w in caught]) == ("", [])


def readme_value_spans(text: str) -> list:
    """(start, stop) of each value token of a config text: each entry, or
    each component of one, after a key's ` = `, but not the names in its
    name=value tokens."""
    spans = []
    for line in re.finditer(r"^\w[^=\n]*= (.*)$", text, re.M):
        for token in re.finditer(r"[^\s|,=]+=?", line.group(1)):
            if not token.group().endswith("="):
                spans.append((line.start(1) + token.start(), line.start(1) + token.end()))
    return spans


README_EXIT_CODES = (0, 2, 3, 4)  # and 5, which no config value may give


@settings(deadline=None, max_examples=25)
@given(
    token=st.integers(min_value=0),
    value=st.sampled_from(
        ["", "nan", "inf", "-inf", "-1", "0", "-0", "1e309", "1e-320", "1e300", "1e-300",
         "1.5e308", "0_3", "x", '"', "|", "0.5", "2", "99999999999999999999"]
    ),
)
# the defects this guard found, by token of today's README config: a vertex
# at 1e-320 (a simplex whose inverse overflows), ray lengths and steps whose
# traces a coupled-mode check cannot fit (exit 5), a check tol whose stall
# floor overflows (a traceback), and a vertex, ray origin or noise sigma at
# 1.5e308 (overflow warnings)
@example(token=2, value="1e-320")
@example(token=17, value="0.5")
@example(token=18, value="0.5")
@example(token=22, value="0.5")
@example(token=35, value="1e300")
@example(token=1, value="1.5e308")
@example(token=15, value="1.5e308")
@example(token=24, value="1.5e308")
def test_a_replaced_config_value_keeps_the_exit_code_table(token, value):
    """One value token of the README config replaced: simulate, then detect
    when simulate succeeds, exit with a code of the README's table other
    than 5, print no traceback, and an exit-0 run says nothing beyond its
    `wrote N trace(s)` line and warns nothing."""
    with tempfile.TemporaryDirectory() as d:
        cfg, text = readme_config(Path(d))
        spans = readme_value_spans(text)
        start, stop = spans[token % len(spans)]
        cfg.write_text(text[:start] + value + text[stop:])
        traces = Path(d) / "traces.csv"
        runs = [["simulate", "--config", str(cfg), "--out", str(traces)],
                ["detect", "--config", str(cfg), "--traces", str(traces),
                 "--out", str(Path(d) / "report.csv")]]
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), \
                    redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli.main(argv)
            assert code in README_EXIT_CODES, err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert [str(w.message) for w in caught] == []
            if code != 0:
                assert len(err.getvalue().splitlines()) == 1
                break
            assert re.fullmatch(r"(wrote \d+ trace\(s\) to .*\n)?", err.getvalue())


def vertex_files(tmp_path, check: str, series, length: float):
    """A one-segment EM config whose ray i carries incident samples series[i]
    on a uniform grid over [0, length], with one [vertices] check; writes the
    config and the trace file and returns the paths (config, traces)."""
    rays, traces = [], []
    for i, values in enumerate(series):
        z = np.linspace(0.0, length, len(values))
        step = float(z[1])
        ray = detect.Ray(origin=(0.0,), direction=(1.0,), length=length, grid_step=step)
        rays.append(f"ray.{i} = origin=0 direction=1 length={length!r} grid_step={step!r}")
        traces.append(detect.FieldTrace(
            ray=ray, z=z, incident=np.asarray(values, dtype=complex),
            reflected=np.zeros(len(z), dtype=complex), medium_ids=(0,) * len(z),
            wave_kind="em", ray_id=i,
        ))
    cfg, path = tmp_path / "vertex.cfg", tmp_path / "vertex.csv"
    cfg.write_text(
        "[geometry]\ndimension = 1\nvertices = 0.0 | 2.0\nsimplices = 0 1\n\n"
        "[media]\nwave_kind = em\nmedium.0 = n=1.0\n\n"
        "[rays]\n" + "\n".join(rays) + f"\n\n[vertices]\ncheck.0 = {check}\n"
    )
    traceio.write_traces(path, traces, extra_meta={"wave_kind": "em"})
    return cfg, path


def edit_row(path, prefix: str, row: str):
    """Replace the one trace row that starts with prefix."""
    lines = path.read_text().splitlines(keepends=True)
    [index] = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    lines[index] = row + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("row", ["2,0,inf,0,0,0,0", "2,0,nan,0,0,0,0", "2,0,1e308,0,0,0,0"])
def test_cascade_check_rejects_a_sample_it_cannot_fit(row, tmp_path, capsys):
    """The golden cascade chain with a non-finite or overflowing first sample
    in its last trace: detect used to print a RuntimeWarning, accept the
    vertex and write a cascade row."""
    states = [np.array([0.6 + 0.3j, 0.2 - 0.5j])]
    for theta in (0.4, 1.1):
        states.append(cascade_transfer(CascadeSpec((CouplerStage(theta, 1.0),))) @ states[-1])
    cfg, traces = vertex_files(tmp_path, "criterion=cascade rays=0,1,2", states, 1.0)
    report = tmp_path / "report.csv"
    assert cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                     "--out", str(report)]) == 0
    assert capsys.readouterr() == ("interface_hits=0 vertex_hits=1\n", "")
    edit_row(traces, "2,0,", row)
    assert cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                     "--out", str(report)]) == 0
    assert capsys.readouterr() == ("interface_hits=0 vertex_hits=0\n", "")
    assert read_report(report)[0].vertex_hits == []


def test_fwm_check_rejects_a_zero_sample(tmp_path, capsys):
    """A zero sample in an fwm check's trace used to leave fit_gain's
    NonPositiveAmplitude as exit 5, a spec error for trace data."""
    z = np.linspace(0.0, 2.0, 41)
    cfg, traces = vertex_files(tmp_path, "criterion=fwm ray=0", [0.2 * np.exp(0.4 * z)], 2.0)
    report = tmp_path / "report.csv"
    assert cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                     "--out", str(report)]) == 0
    assert capsys.readouterr() == ("interface_hits=0 vertex_hits=1\n", "")
    edit_row(traces, "0,%.17g," % z[10], "0,%.17g,0,0,0,0,0" % z[10])
    assert cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                     "--out", str(report)]) == 0
    assert capsys.readouterr() == ("interface_hits=0 vertex_hits=0\n", "")


@pytest.mark.parametrize("argv, config, stderr", [
    (["--seed", "-5"], ROD_CONFIG, "config error: --seed: expected an integer >= 0, got '-5'\n"),
    ([], None, "config error: config file not found: {config}\n"),
    ([], ROD_CONFIG.partition("[media]")[0], "config error: missing required section [media]\n"),
], ids=["flag", "missing-file", "missing-section"])
def test_config_error_without_a_config_line_gives_no_position(
    argv, config, stderr, tmp_path, capsys
):
    """An error with no line in the config file reads `config error: message`."""
    cfg = tmp_path / "error.cfg"
    if config is not None:
        cfg.write_text(config)
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), *argv])
    assert code == 2
    assert capsys.readouterr().err == stderr.format(config=cfg)


def test_tol_flag_replaces_every_check_tol(tmp_path):
    """--tol replaces [detection] tol and the tol= of each check: the README's
    check.0 says tol=1e-6 and runs at 0.01."""
    cfg, _ = readme_config(tmp_path)
    args = cli.build_parser().parse_args(
        ["detect", "--config", str(cfg), "--traces", "t.csv", "--out", "r.csv", "--tol", "0.01"]
    )
    scenario = cli._load_scenario(args)
    assert scenario.tol == 0.01
    assert [check.tol for check in scenario.vertex_checks] == [0.01]
    assert sc.load_scenario(cfg).vertex_checks[0].tol == 1e-6


def test_bad_flag_is_reported_before_a_vertices_error(tmp_path, capsys):
    """The loader reads the flags with [detection], so a bad flag comes
    before an error in [vertices]."""
    cfg, _ = readme_config(tmp_path, "rays=0,1 tol=1e-6", "rays=0,7 tol=1e-6")
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"),
                     "--seed", "-5"])
    assert code == 2
    assert capsys.readouterr().err == "config error: --seed: expected an integer >= 0, got '-5'\n"


@pytest.mark.parametrize("make, message", [
    (lambda cfg: None, "config file not found: {cfg}"),
    (lambda cfg: cfg.mkdir(), "cannot read config file {cfg}: Is a directory"),
    (lambda cfg: cfg.write_bytes(b"\xff" + ROD_CONFIG.encode()),
     "cannot read config file {cfg}: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
], ids=["missing", "directory", "not-utf8"])
def test_simulate_missing_config_exit_2(make, message, tmp_path, capsys):
    """A config path that cannot be read as text is a config error naming it."""
    cfg = tmp_path / "nope.cfg"
    make(cfg)
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "config error: " + message.format(cfg=cfg) + "\n"


def test_simulate_degenerate_geometry_exit_3(tmp_path, capsys):
    cfg = tmp_path / "degen.cfg"
    cfg.write_text(ROD_CONFIG.replace("0.0 | 0.25", "0.25 | 0.25"))
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "geometry error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("0.0 | 0.25 | 0.55 | 1.0", "0.0 | 999 | 0.55 | 1.0", "simplices 0 and 1 fold over facet (1,)"),
    ("| 2 3", "| 2 99999999999999999999999",
     "simplex (2, 99999999999999999999999) references unknown vertex 99999999999999999999999"),
    ("dimension = 1", "dimension = 0", "dimension must be >= 1, got 0"),
])
def test_readme_geometry_edit_exit_3(old, new, message, tmp_path, capsys):
    """A folded rod used to simulate with exit 0."""
    code, err = simulate_edited_readme_config(old, new, tmp_path, capsys)
    assert (code, err) == (3, f"geometry error: {message}\n")


HUGE_ROD = """\
[geometry]
dimension = 1
vertices = 0.0 | 1e160 | 3e160
simplices = 0 1 | 1 2

[media]
wave_kind = em
medium.0 = n=1.0
medium.1 = n=1.5

[rays]
ray.0 = origin=1e159 direction=1 length=2e160 grid_step=1e158

[detection]
candidates = 1.0,1.5
"""


def test_rod_near_the_float_range_runs_quietly(tmp_path, capsys):
    """The degeneracy test squared 1e160 edges: it warned of an overflow
    and refused the rod as having zero volume (exit 3)."""
    cfg, traces = tmp_path / "huge.cfg", tmp_path / "traces.csv"
    cfg.write_text(HUGE_ROD)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
        assert cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                         "--out", str(tmp_path / "report.csv")]) == 0
    assert capsys.readouterr().out == "interface_hits=1 vertex_hits=0\n"


def test_acoustic_rod_whose_impedance_ratio_squares_past_the_float_range(
        acoustic, tmp_path, capsys):
    """(q + 1)^2 for q = 2e173 raised OverflowError in the media's T_I and
    in the candidate's: simulate and detect ended in a traceback."""
    acoustic.write_text(
        ACOUSTIC_CONFIG.replace("z=1.0", "z=5e-324").replace("z=4.0", "z=1e-150")
        .replace("candidates = 1.0,4.0", "candidates = 5e-324,1e-150")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert simulate_then_detect(acoustic, tmp_path) == 0
    assert capsys.readouterr().out == "interface_hits=1 vertex_hits=0\n"


def test_fwm_check_of_acoustic_media_exit_2(acoustic, tmp_path, capsys):
    """It exited 5 at detect with 'expected an EM trace'."""
    acoustic.write_text(ACOUSTIC_CONFIG + "\n[vertices]\ncheck.0 = criterion=fwm ray=0\n")
    code = cli.main(["simulate", "--config", str(acoustic), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: line 18, col 10: check.0: fwm tests EM traces, got wave_kind acoustic\n"
    )


TINY_ROD = (
    HUGE_ROD.replace("1e160 | 3e160", "1e-170 | 3e-170")
    .replace("origin=1e159", "origin=1e-171")
    .replace("length=2e160 grid_step=1e158", "length=2e-170 grid_step=1e-172")
)


def test_rod_far_below_unit_scale_marches(tmp_path, capsys):
    """The march's time threshold was 1e-12 of at least 1.0, so on a rod at
    1e-170 every exit lay within it and simulate exited 3 with 'ray cannot
    advance from its origin'; it is now 1e-12 of the ray's length."""
    assert "vertices = 0.0 | 1e-170 | 3e-170" in TINY_ROD
    cfg, traces = tmp_path / "tiny.cfg", tmp_path / "traces.csv"
    cfg.write_text(TINY_ROD)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
        assert cli.main(["detect", "--config", str(cfg), "--traces", str(traces),
                         "--out", str(tmp_path / "report.csv")]) == 0
    assert capsys.readouterr().out == "interface_hits=1 vertex_hits=0\n"


# ---------------------------------------------------------------------------
# detect

def test_detect_reports_hits(rod, tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    report = tmp_path / "report.csv"
    assert cli.main(["simulate", "--config", str(rod), "--out", str(traces)]) == 0
    capsys.readouterr()
    code = cli.main(
        ["detect", "--config", str(rod), "--traces", str(traces), "--out", str(report)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "interface_hits=2 vertex_hits=0"
    back, meta = read_report(report)
    assert len(back.interface_hits) == 2
    assert back.interface_hits[0].media_pair == (1.0, 1.5)
    assert abs(back.interface_hits[0].position[0] - 0.25) <= 0.001
    assert meta["counts"]["interface_hits"] == 2


NOISY_ACOUSTIC_ROD = """\
[geometry]
dimension = 1
vertices = 0.0 | 0.13 | 0.3 | 0.41 | 0.6 | 0.77 | 1.0
simplices = 0 1 | 1 2 | 2 3 | 3 4 | 4 5 | 5 6

[media]
wave_kind = acoustic
medium.0 = z=1.0 c=340.0
medium.1 = z=1.25 c=1500.0
medium.2 = z=1.75 c=5000.0
medium.3 = z=1.0 c=340.0
medium.4 = z=1.75 c=5000.0
medium.5 = z=1.25 c=1500.0

[rays]
ray.0 = origin=0.0005 direction=1 length=0.9985 grid_step=0.0007
ray.1 = origin=0.9993 direction=-1 length=0.998 grid_step=0.0011

[detection]
tol = 0.05
noise_sigma = 0.01
seed = 11
candidates = 1.0,1.25 | 1.0,1.75 | 1.25,1.75
"""


def test_noisy_acoustic_rod_report_digest(tmp_path, capsys):
    """simulate -> detect on a seeded noisy rod, both ray directions: the
    report and its sidecar keep these digests."""
    cfg, traces, report = tmp_path / "rod.cfg", tmp_path / "traces.csv", tmp_path / "report.csv"
    cfg.write_text(NOISY_ACOUSTIC_ROD)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
    assert cli.main(
        ["detect", "--config", str(cfg), "--traces", str(traces), "--out", str(report)]
    ) == 0
    assert capsys.readouterr().out == "interface_hits=10 vertex_hits=0\n"
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (report, sidecar_path(report))]
    assert digests == [
        "0c7410350eaecba86e006483ccc7dba1c8d4a40a5c56e0dcab68051f24739b20",
        "2819f1b50e79bbc94ba81e74eb19f837f9ed53c6253dc24233ba21196457e28f",
    ]


def test_simulate_detect_builds_no_hit_objects(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an InterfaceHit was built")

    monkeypatch.setattr(detect, "InterfaceHit", refuse)
    monkeypatch.setattr(traceio, "InterfaceHit", refuse)
    cfg, traces, report = tmp_path / "rod.cfg", tmp_path / "traces.csv", tmp_path / "report.csv"
    cfg.write_text(NOISY_ACOUSTIC_ROD)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
    assert cli.main(
        ["detect", "--config", str(cfg), "--traces", str(traces), "--out", str(report)]
    ) == 0
    assert capsys.readouterr().out == "interface_hits=10 vertex_hits=0\n"


def test_detect_trace_ray_of_other_dimension_exit_4(rod, tmp_path, capsys):
    def lift(path):
        meta = json.loads(sidecar_path(path).read_text())
        meta["rays"]["0"].update(origin=[0.0005, 0.0], direction=[1.0, 0.0])
        sidecar_path(path).write_text(json.dumps(meta))

    assert simulate_then_detect(rod, tmp_path, lift) == 4
    assert "ray 0 of the traces has 2 coordinates, the scenario's complex 1" in (
        capsys.readouterr().err
    )


def written_traces(rod, tmp_path):
    traces = tmp_path / "traces.csv"
    with redirect_stderr(io.StringIO()):
        assert cli.main(["simulate", "--config", str(rod), "--out", str(traces)]) == 0
    return traces


def no_files(rod, tmp_path):
    traces = tmp_path / "nope.csv"
    return ["--traces", str(traces)], f"missing sidecar metadata file {sidecar_path(traces)}"


def csv_gone(rod, tmp_path):
    """A sidecar whose CSV is missing."""
    traces = written_traces(rod, tmp_path)
    traces.unlink()
    return ["--traces", str(traces)], f"missing file {traces}"


def csv_a_directory(rod, tmp_path):
    """A directory D beside a sidecar D.meta.json."""
    traces = written_traces(rod, tmp_path)
    traces.unlink()
    traces.mkdir()
    return ["--traces", str(traces)], f"[Errno 21] Is a directory: '{traces}'"


def sidecar_a_directory(rod, tmp_path):
    traces = written_traces(rod, tmp_path)
    sidecar_path(traces).unlink()
    sidecar_path(traces).mkdir()
    return ["--traces", str(traces)], f"[Errno 21] Is a directory: '{sidecar_path(traces)}'"


def csv_not_utf8(rod, tmp_path):
    traces = written_traces(rod, tmp_path)
    traces.write_bytes(b"\xff" + traces.read_bytes())
    return ["--traces", str(traces)], (
        "garbled trace file: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"
    )


def out_a_directory(rod, tmp_path):
    return (["--traces", str(written_traces(rod, tmp_path)), "--out", str(tmp_path)],
            f"[Errno 21] Is a directory: '{tmp_path}'")


@pytest.mark.parametrize("make", [
    no_files, csv_gone, csv_a_directory, sidecar_a_directory, csv_not_utf8, out_a_directory,
])
def test_detect_missing_traces_exit_4(make, rod, tmp_path, capsys):
    """A trace path that cannot be read, or a report path that cannot be
    written, is one schema error line naming it."""
    argv, message = make(rod, tmp_path)
    code = cli.main(["detect", "--config", str(rod), "--out", str(tmp_path / "r.csv"), *argv])
    assert code == 4
    assert capsys.readouterr().err == f"schema error: {message}\n"


def test_simulate_to_a_directory_exit_4(rod, tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(rod), "--out", str(tmp_path)])
    assert code == 4
    assert capsys.readouterr().err == f"schema error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_detect_wave_kind_mismatch_exit_4(rod, acoustic, tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    assert cli.main(["simulate", "--config", str(rod), "--out", str(traces)]) == 0
    code = cli.main(
        ["detect", "--config", str(acoustic), "--traces", str(traces),
         "--out", str(tmp_path / "r.csv")]
    )
    assert code == 4
    assert "schema error" in capsys.readouterr().err


def simulate_then_detect(cfg, tmp_path, edit_traces=None):
    traces = tmp_path / "traces.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(traces)]) == 0
    if edit_traces is not None:
        edit_traces(traces)
    return cli.main(
        ["detect", "--config", str(cfg), "--traces", str(traces),
         "--out", str(tmp_path / "r.csv")]
    )


def test_detect_garbled_trace_number_exit_4(rod, tmp_path, capsys):
    def garble(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[5] = lines[5].replace(",", ",x", 1)
        path.write_text("".join(lines))

    assert simulate_then_detect(rod, tmp_path, garble) == 4
    assert "schema error: garbled trace row" in capsys.readouterr().err


@pytest.mark.parametrize("garble, message", [
    (lambda text: '{"kind": "traces", ', "is not valid JSON"),
    (lambda text: "[]", "does not hold a JSON object"),
    (lambda text: text.replace('"wave_kind": "em"', '"wave_kind": "light"'),
     "sidecar wave_kind 'light' is not em/acoustic"),
], ids=["not-json", "array", "wave-kind"])
def test_detect_garbled_sidecar_exit_4(garble, message, rod, tmp_path, capsys):
    def edit(path):
        sp = sidecar_path(path)
        sp.write_text(garble(sp.read_text()))

    assert simulate_then_detect(rod, tmp_path, edit) == 4
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("schema error: ") and message in err


def test_detect_sidecar_version_mismatch_exit_4(rod, tmp_path, capsys):
    def bump(path):
        sp = sidecar_path(path)
        sp.write_text(sp.read_text().replace('"version": 1', '"version": 2'))

    assert simulate_then_detect(rod, tmp_path, bump) == 4
    assert "sidecar version 2" in capsys.readouterr().err


def test_garbled_report_number_is_schema_mismatch(rod, tmp_path):
    traces, report = tmp_path / "traces.csv", tmp_path / "report.csv"
    assert cli.main(["simulate", "--config", str(rod), "--out", str(traces)]) == 0
    assert cli.main(
        ["detect", "--config", str(rod), "--traces", str(traces), "--out", str(report)]
    ) == 0
    back, _ = read_report(report)
    assert back.interface_hits
    text = report.read_text().splitlines(keepends=True)
    text[1] = text[1].replace("interface,0,", "interface,0,zz", 1)
    report.write_text("".join(text))
    with pytest.raises(SchemaMismatch, match="garbled report row"):
        read_report(report)


def test_detect_check_naming_absent_ray_exit_4(rod, tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    assert cli.main(["simulate", "--config", str(rod), "--out", str(traces)]) == 0
    two_rays = tmp_path / "two.cfg"
    two_rays.write_text(
        ROD_CONFIG.replace(
            "grid_step=0.001\n",
            "grid_step=0.001\nray.1 = origin=0.0005 direction=1 length=0.5 grid_step=0.001\n",
        )
        + "\n[vertices]\ncheck.0 = criterion=coupled_mode rays=0,1\n"
    )
    code = cli.main(
        ["detect", "--config", str(two_rays), "--traces", str(traces),
         "--out", str(tmp_path / "r.csv")]
    )
    assert code == 4
    assert "absent from the traces" in capsys.readouterr().err


def test_detect_one_ray_coupled_mode_check_exit_2(rod, tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    assert cli.main(["simulate", "--config", str(rod), "--out", str(traces)]) == 0
    cfg = tmp_path / "one.cfg"
    cfg.write_text(ROD_CONFIG + "\n[vertices]\ncheck.0 = criterion=coupled_mode ray=0\n")
    code = cli.main(
        ["detect", "--config", str(cfg), "--traces", str(traces),
         "--out", str(tmp_path / "r.csv")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 22" in err and "coupled_mode takes exactly 2 rays, got 1" in err


def test_detect_tol_override(rod, tmp_path):
    traces = tmp_path / "traces.csv"
    report = tmp_path / "report.csv"
    assert cli.main(["simulate", "--config", str(rod), "--out", str(traces)]) == 0
    assert cli.main(
        ["detect", "--config", str(rod), "--traces", str(traces),
         "--out", str(report), "--tol", "0.01"]
    ) == 0
    _, meta = read_report(report)
    assert meta["params_used"]["tol"] == 0.01


def test_detect_acoustic_and_paper_exact_variant(acoustic, tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    report = tmp_path / "report.csv"
    assert cli.main(["simulate", "--config", str(acoustic), "--out", str(traces)]) == 0
    capsys.readouterr()

    code = cli.main(
        ["detect", "--config", str(acoustic), "--traces", str(traces), "--out", str(report)]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "interface_hits=1 vertex_hits=0"
    back, _ = read_report(report)
    assert back.interface_hits[0].measured_t.real == pytest.approx(0.64, abs=1e-12)
    assert back.params_used["coefficient_variant"] == "energy_conserving"

    # the as-published transmittance (16/9 for a 4:1 step) no longer matches
    # energy-conserving synthetic data, so the same candidates yield no hits
    code = cli.main(
        ["detect", "--config", str(acoustic), "--traces", str(traces),
         "--out", str(report), "--paper-exact"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "interface_hits=0 vertex_hits=0"
    back, _ = read_report(report)
    assert back.params_used["coefficient_variant"] == "paper_exact"


# ---------------------------------------------------------------------------
# coupler

def test_coupler_3db(capsys):
    theta = math.pi / 4
    assert cli.main(["coupler", f"c:{theta},1.0"]) == 0
    vals = table(capsys.readouterr().out)
    assert float(vals["P1"]) == pytest.approx(0.5, rel=1e-12)
    assert float(vals["P2"]) == pytest.approx(0.5, rel=1e-12)
    assert float(vals["unitarity"]) < 1e-12
    assert complex(vals["T00"]) == pytest.approx(math.cos(theta))


def test_coupler_crossover(capsys):
    assert cli.main(["coupler", f"c:{math.pi / 2},1.0", "--input", "1,0"]) == 0
    vals = table(capsys.readouterr().out)
    assert float(vals["P1"]) == pytest.approx(0.0, abs=1e-30)
    assert float(vals["P2"]) == pytest.approx(1.0, rel=1e-12)
    assert complex(vals["T01"]) == pytest.approx(-1j)


def test_coupler_cascade_matches_library(capsys):
    spec = CascadeSpec(
        (CouplerStage(0.3, 1.0), DelayStage(2.0, 0.5, 0.25), CouplerStage(0.4, 1.0))
    )
    y = cascade_transfer(spec) @ np.array([1.0, 0.0], dtype=complex)
    assert cli.main(
        ["coupler", "c:0.3,1.0", "d:2.0,0.5,0.25", "c:0.4,1.0", "--input", "1,0"]
    ) == 0
    vals = table(capsys.readouterr().out)
    assert float(vals["P1"]) == pytest.approx(abs(y[0]) ** 2, rel=1e-12)
    assert float(vals["P2"]) == pytest.approx(abs(y[1]) ** 2, rel=1e-12)


def test_coupler_spec_errors_exit_5(capsys):
    assert cli.main(["coupler"]) == 5
    assert "spec error" in capsys.readouterr().err
    assert cli.main(["coupler", "c:1"]) == 5
    assert cli.main(["coupler", "x:1,2"]) == 5
    assert cli.main(["coupler", "d:1,2,3"]) == 5  # must start with a coupler
    assert cli.main(["coupler", "c:0.3,1.0", "--input", "1"]) == 5
    capsys.readouterr()
    # two delays in a row: the second stands where a coupler must
    assert cli.main(["coupler", "c:0.3,1", "d:1,0,0", "d:1,0,0", "c:0.3,1"]) == 5
    assert capsys.readouterr().err == (
        "spec error: expected a coupler stage, got "
        "DelayStage(beta=1.0, length1=0.0, length2=0.0)\n"
    )


# ---------------------------------------------------------------------------
# slab-modes

def test_slab_modes_table(capsys):
    code = cli.main(
        ["slab-modes", "--core", "1.5", "--clad", "1.0",
         "--thickness", "2e-6", "--wavelength", "1.55e-6"]
    )
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "# order parity beta kappa_t gamma residual"
    expected = solve_te_slab_modes(
        SlabSpec(n_core=1.5, n_clad=1.0, thickness=2e-6, k0=2 * math.pi / 1.55e-6)
    )
    assert len(lines) - 1 == len(expected)
    assert f"modes = {len(expected)}" in captured.err
    first = lines[1].split()
    assert first[0] == "0"
    assert first[1] == "even"
    assert float(first[2]) == pytest.approx(expected[0].beta, rel=1e-15)


def test_slab_modes_k0_equivalent(capsys):
    k0 = 2 * math.pi / 1.55e-6
    base = ["slab-modes", "--core", "1.5", "--clad", "1.0", "--thickness", "2e-6"]
    assert cli.main(base + ["--k0", f"{k0!r}"]) == 0
    via_k0 = capsys.readouterr().out
    assert cli.main(base + ["--wavelength", "1.55e-6"]) == 0
    via_wl = capsys.readouterr().out
    assert via_k0 == via_wl


def test_slab_modes_argument_errors_exit_5(capsys):
    base = ["slab-modes", "--core", "1.5", "--clad", "1.0", "--thickness", "2e-6"]
    assert cli.main(base) == 5
    assert cli.main(base + ["--k0", "1e6", "--wavelength", "1.55e-6"]) == 5
    bad = ["slab-modes", "--core", "-1.5", "--clad", "1.0",
           "--thickness", "2e-6", "--k0", "1e6"]
    assert cli.main(bad) == 5
    assert "spec error" in capsys.readouterr().err


def test_slab_modes_unguided_slab_is_empty_not_error(capsys):
    # cladding at least as dense as the core guides nothing: empty table,
    # exit 0
    code = cli.main(
        ["slab-modes", "--core", "1.0", "--clad", "1.5",
         "--thickness", "2e-6", "--k0", "1e6"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["# order parity beta kappa_t gamma residual"]
    assert "modes = 0" in captured.err


SLAB = ["slab-modes", "--core", "1.5", "--clad", "1.0", "--thickness", "2e-6"]
FWM = ["fwm", "--omega-s", "1", "--k-s", "1", "--chi3", "1"]


@pytest.mark.parametrize("argv, flag", [
    (SLAB + ["--wavelength", "nan"], "--wavelength"),
    (SLAB + ["--k0", "inf"], "--k0"),
    (["slab-modes", "--core", "nan", "--clad", "1.0", "--thickness", "2e-6", "--k0", "1e6"],
     "--core"),
    (FWM + ["--z-max", "inf", "--step", "1"], "--z-max"),
    (["fwm", "--omega-s", "nan", "--k-s", "1", "--chi3", "1", "--z-max", "1", "--step", "0.5"],
     "--omega-s"),
    (FWM + ["--delta-k=-inf", "--z-max", "1", "--step", "0.5"], "--delta-k"),
    (["slab-modes", "--core", "abc", "--clad", "1.0", "--thickness", "2e-6", "--k0", "1e6"],
     "--core"),
])
def test_non_finite_float_flag_exit_2(argv, flag, capsys):
    """A float flag that is not a finite number fails in argparse, naming the
    flag, as a non-number does: it used to print nan rows or a traceback."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: expected a finite number, got " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (SLAB + ["--wavelength", "0"], "wavelength must be > 0, got 0.0"),
    (["coupler", "c:inf,1"], "bad stage token 'c:inf,1'"),
    (["coupler", "c:0.3,1", "d:1,nan,0", "c:0.3,1"], "bad stage token 'd:1,nan,0'"),
    (["coupler", "c:0.3,1", "--input", "nan,0"], "bad --input amplitude 'nan'"),
    (FWM + ["--e1", "nan", "--z-max", "1", "--step", "0.5"], "bad --e1 amplitude 'nan'"),
    (FWM + ["--e3", "infj", "--z-max", "1", "--step", "0.5"], "bad --e3 amplitude 'infj'"),
])
def test_toolbox_input_that_cannot_be_computed_exit_5(argv, message, capsys):
    """A zero wavelength used to divide by zero, and a non-finite stage or
    amplitude token printed a nan matrix or nan powers."""
    assert cli.main(argv) == 5
    assert capsys.readouterr() == ("", f"spec error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["slab-modes", "--core", "1e200", "--clad", "1.0", "--thickness", "2e-6", "--k0", "1e6"],
     "slab overflows: (n_core k0)^2 and u_max must be finite"),
    (["fwm", "--omega-s", "1e300", "--k-s", "1e-300", "--chi3", "1e300", "--z-max", "1",
      "--step", "0.5"], "pump drive omega_s^2 mu0 eps0 chi3_eff E1 E2 E3 / (2 k_s) overflows"),
    (["coupler", "c:1e308,1e308"], "bad stage token 'c:1e308,1e308': its phase overflows"),
    (["coupler", "c:0.3,1", "--input", "1e308,1e308"],
     "--input 1e308,1e308 overflows the output power"),
    (["coupler", "c:0.3,1", "d:1e308,2,0", "c:0.3,1"],
     "bad stage token 'd:1e308,2,0': its phase overflows"),
    (["fwm", "--omega-s", "1e150", "--k-s", "1", "--chi3", "1", "--z-max", "1e300",
      "--step", "1e295"], "signal overflows: |drive| * z_max and delta_k * z_max must be finite"),
    (FWM + ["--delta-k", "1e10", "--z-max", "1e300", "--step", "1e295"],
     "signal overflows: |drive| * z_max and delta_k * z_max must be finite"),
    (["fwm", "--omega-s", "1e150", "--k-s", "1", "--chi3", "1", "--delta-k", "1e-300",
      "--z-max", "1", "--step", "0.5", "--closed-form"],
     "closed-form signal overflows: |drive| / delta_k must be finite"),
])
def test_toolbox_input_that_overflows_exit_5(argv, message, capsys):
    """Finite but huge toolbox input used to end in an OverflowError
    traceback (slab-modes, fwm drive), print a nan matrix (a coupler or delay
    stage), or warn and print P2 = inf (coupler input) or an inf or nan
    signal (fwm grid) or an inf closed form."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 5
    assert capsys.readouterr() == ("", f"spec error: {message}\n")


@pytest.mark.parametrize("z_max, step, steps", [
    ("1", "1e-12", "1e+12"), ("1e300", "1e-300", "inf"), ("2e6", "1", "2e+06"),
])
def test_fwm_grid_of_too_many_steps_exit_5(z_max, step, steps, capsys, monkeypatch):
    """A grid of more than 1,000,000 steps is refused before it is built:
    z_max / step = inf used to raise an OverflowError, and 1e12 steps would
    build a list of 1e12 samples."""
    def never(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(fwm_mod.np, "floor", never)
    assert cli.main(FWM + ["--z-max", z_max, "--step", step]) == 5
    assert capsys.readouterr() == ("", f"spec error: z_max / step must be <= 1000000, got {steps}\n")


# ---------------------------------------------------------------------------
# fwm

def test_fwm_phase_matched_table(capsys):
    code = cli.main(
        ["fwm", "--omega-s", "1.2e15", "--k-s", "6e6", "--chi3", "1e-22",
         "--z-max", "0.01", "--step", "0.001"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# z |E_s|"
    assert len(lines) == 12
    z_last, e_last = (float(x) for x in lines[-1].split())
    assert z_last == pytest.approx(0.01)
    drive = 1.2e15**2 / (299792458.0**2 * 2 * 6e6) * 1e-22
    assert e_last == pytest.approx(drive * 0.01, rel=1e-9)


def test_fwm_closed_form_column(capsys):
    code = cli.main(
        ["fwm", "--omega-s", "1.2e15", "--k-s", "6e6", "--chi3", "1e-22",
         "--delta-k", "200.0", "--z-max", "0.01", "--step", "0.001",
         "--closed-form"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# z |E_s| |E_closed|"
    params = FwmParams(
        omega_s=1.2e15, k_s=6e6, chi3_eff=1e-22,
        e1=1 + 0j, e2=1 + 0j, e3=1 + 0j, delta_k_z=200.0,
    )
    expected = dict(integrate_signal(params, 0.01, 0.001))
    for line in lines[2:]:
        z, e_num, e_closed = (float(x) for x in line.split())
        assert e_num == pytest.approx(abs(expected[z]), rel=1e-12)
        assert e_closed == pytest.approx(abs(closed_form_signal(params, z)), rel=1e-12)


def test_fwm_closed_form_zero_mismatch_exit_5(capsys):
    code = cli.main(
        ["fwm", "--omega-s", "1.2e15", "--k-s", "6e6", "--chi3", "1e-22",
         "--z-max", "0.01", "--step", "0.001", "--closed-form"]
    )
    assert code == 5
    assert "spec error" in capsys.readouterr().err


def test_fwm_bad_grid_exit_5(capsys):
    code = cli.main(
        ["fwm", "--omega-s", "1.2e15", "--k-s", "6e6", "--chi3", "1e-22",
         "--z-max", "0.01", "--step", "-1.0"]
    )
    assert code == 5
