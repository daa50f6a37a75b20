"""End-to-end command-line behavior, driven in-process through main()."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from polywave import cli
from polywave.coupled_mode import (
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


def test_simulate_missing_config_exit_2(tmp_path, capsys):
    code = cli.main(
        ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_simulate_degenerate_geometry_exit_3(tmp_path, capsys):
    cfg = tmp_path / "degen.cfg"
    cfg.write_text(ROD_CONFIG.replace("0.0 | 0.25", "0.25 | 0.25"))
    code = cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "geometry error" in capsys.readouterr().err


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


def test_detect_missing_traces_exit_4(rod, tmp_path, capsys):
    code = cli.main(
        ["detect", "--config", str(rod), "--traces", str(tmp_path / "nope.csv"),
         "--out", str(tmp_path / "r.csv")]
    )
    assert code == 4
    assert "schema error" in capsys.readouterr().err


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


def test_detect_garbled_sidecar_exit_4(rod, tmp_path, capsys):
    def garble(path):
        sidecar_path(path).write_text('{"kind": "traces", ')

    assert simulate_then_detect(rod, tmp_path, garble) == 4
    assert "is not valid JSON" in capsys.readouterr().err


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
