"""Self-tests of the benchmark: generators, span arithmetic, output checks.

    python3 -m pytest bench -q
"""

import run  # noqa: F401  (puts the program's sources on sys.path)
import tracing
import workloads
from polywave import cli, traceio
from polywave.detect import DetectionReport, InterfaceHit, VertexHit


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generators_are_deterministic_per_seed(tmp_path):
    for name, generate in workloads.GENERATORS.items():
        a, b, c = (tmp_path / name / d for d in "abc")
        for d in (a, b, c):
            d.mkdir(parents=True)
        generate(7, a)
        generate(7, b)
        generate(8, c)
        assert _files(a) == _files(b), name
        assert _files(a) != _files(c), name


def _span(i, parent, name, start, end):
    return tracing.Span(i, parent, name, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, "cycle", 0.0, 10.0),
        _span(1, 0, "cli.simulate", 1.0, 4.0),
        _span(2, 0, "cli.detect", 5.0, 9.0),
        _span(3, 2, "traceio.read_traces", 6.0, 8.0),
        _span(4, 3, "detect.interfaces", 6.5, 7.0),
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 1.5, 4: 0.5}
    metrics = run.layer_metrics(spans)
    assert metrics["cli.self_s"] == 5.0  # 3.0 of cli.simulate + 2.0 of cli.detect
    assert metrics["traceio.read_traces_s"] == 2.0
    assert metrics["traceio.share_of_pipeline"] == 20.0


def test_tracer_records_parents_and_restores_sites():
    tracer = tracing.Tracer()
    original = traceio.read_traces
    with tracing.instrumented(tracer), tracer.span("outer"):
        assert traceio.read_traces is not original
        with tracer.span("inner"):
            pass
    assert traceio.read_traces is original
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (None, outer.id)
    assert outer.start <= inner.start <= inner.end <= outer.end


def _rod_report(wl, path, corrupt=None):
    hits = []
    for ray_id, truth in wl.rays.items():
        for z, pair in zip(truth.crossings, truth.pairs):
            hits.append(InterfaceHit(ray_id, z - 0.5 * truth.step, (z,), 1 + 0j, 0j, pair, 0.0))
    if corrupt is not None:
        hits[3] = corrupt(hits[3])
    traceio.write_report(path, DetectionReport(interface_hits=hits))


def test_rod_check_flags_corrupted_reports(tmp_path):
    wl = workloads.rod_io(3, tmp_path)
    report = tmp_path / "report.csv"
    _rod_report(wl, report)
    good = workloads.check_report(wl, report)
    assert good["ok"] and good["recall"] == 1.0

    step = wl.rays[0].step
    corruptions = {
        "wrong pair": lambda h: InterfaceHit(h.ray_id, h.z, h.position, h.measured_t, h.measured_r,
                                             h.media_pair[::-1], h.residual),
        "two steps off": lambda h: InterfaceHit(h.ray_id, h.z - 2 * step, h.position, h.measured_t,
                                                h.measured_r, h.media_pair, h.residual),
        "unknown ray": lambda h: InterfaceHit(99, h.z, h.position, h.measured_t, h.measured_r,
                                              h.media_pair, h.residual),
    }
    for what, corrupt in corruptions.items():
        _rod_report(wl, report, corrupt)
        result = workloads.check_report(wl, report)
        assert not result["ok"] and result["bad_hits"] == 1, what

    _rod_report(wl, report)
    lines = report.read_text().splitlines()
    report.write_text("\n".join(lines[: int(len(lines) * 0.9)]) + "\n")  # recall 0.9
    result = workloads.check_report(wl, report)
    assert not result["ok"] and result["bad_hits"] == 0 and result["recall"] < workloads.MIN_RECALL


def test_vertex_check_flags_a_flipped_verdict(tmp_path):
    wl = workloads.vertex_fit(5, tmp_path)
    report = tmp_path / "report.csv"
    assert wl.sizes["accepts"] == 3 and wl.sizes["checks"] == 27

    # the program's own verdicts equal the ground truth
    assert cli.main(["detect", "--config", str(wl.config), "--traces", str(wl.traces),
                     "--out", str(report)]) == 0
    assert workloads.check_report(wl, report)["ok"]

    accepted = sorted(wl.accepted)
    hits = [VertexHit(position, criterion, 0.0, ()) for criterion, position in accepted]
    flips = {
        "accept turned reject": hits[1:],
        "reject turned accept": hits + [VertexHit((12345.0,), "fwm", 0.5, ())],
    }
    for what, rows in flips.items():
        traceio.write_report(report, DetectionReport(vertex_hits=rows))
        result = workloads.check_report(wl, report)
        assert not result["ok"] and result["wrong_verdicts"] == 1, what
