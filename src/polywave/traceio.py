"""Trace and report files: CSV with a one-line header plus a JSON sidecar.

Numbers are serialized with 17 significant digits so every float64
round-trips exactly; rows are written in a fixed order and the sidecar
with sorted keys, so identical inputs produce byte-identical files.  The
sidecar (path + ".meta.json") carries everything the CSV cannot: ray
geometry, wave kind, seed, tolerances, and variant flags.

Trace bodies move in bulk with the bytes unchanged: the writer renders each
ray's rows through one `%`-format row template and a single join, and the
reader parses the whole body in one `np.loadtxt` pass.  Medium ids follow
CSV quoting and are rendered or parsed once per distinct value.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .detect import DetectionReport, FieldTrace, InterfaceHit, Ray, VertexHit

TRACE_COLUMNS = ["ray", "z", "incident_re", "incident_im", "reflected_re", "reflected_im", "medium"]
REPORT_COLUMNS = [
    "kind", "ray", "z", "position", "t_re", "t_im", "r_re", "r_im",
    "pair_a", "pair_b", "criterion", "residual", "degenerate",
]
FORMAT_VERSION = 1
# One interface row of a report; its criterion and degenerate fields are empty.
_INTERFACE_ROW = "interface,%s,%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,,%.17g,\n"
# One trace row: ray id, five floats, medium id (a CSV field, rendered once).
_TRACE_ROW = ",%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
_TRACE_DTYPE = np.dtype(
    [("ray", "i8")] + [(name, "f8") for name in TRACE_COLUMNS[1:6]] + [("medium", "O")]
)


class SchemaMismatch(Exception):
    """File header or sidecar metadata does not match the expected schema."""


def fmt_float(x: float) -> str:
    """17 significant digits: every float64 round-trips exactly."""
    return f"{float(x):.17g}"


@contextmanager
def _garbled(what: str):
    """Report a value that fails to parse as a SchemaMismatch."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # numpy's field-count error ends in advice to pass `usecols`, an
        # argument of np.loadtxt that no caller of this module can set
        reason = str(exc).partition("; use `usecols`")[0]
        raise SchemaMismatch(f"garbled {what}: {reason}") from None


def sidecar_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def _write_sidecar(path, meta: dict) -> None:
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _read_sidecar(path, expected_kind: str) -> dict:
    sp = sidecar_path(path)
    if not sp.exists():
        raise SchemaMismatch(f"missing sidecar metadata file {sp}")
    try:
        meta = json.loads(sp.read_text())
    except ValueError as exc:
        raise SchemaMismatch(f"sidecar {sp} is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise SchemaMismatch(f"sidecar {sp} does not hold a JSON object")
    if meta.get("kind") != expected_kind:
        raise SchemaMismatch(
            f"sidecar kind {meta.get('kind')!r} != expected {expected_kind!r}"
        )
    if meta.get("version") != FORMAT_VERSION:
        raise SchemaMismatch(
            f"sidecar version {meta.get('version')!r} != supported {FORMAT_VERSION}"
        )
    return meta


def write_traces(path, traces, extra_meta: dict | None = None) -> None:
    """Write FieldTraces ordered by ray id, plus the sidecar.

    An empty trace list is allowed when extra_meta supplies the wave_kind
    (the header-only CSV still round-trips).
    """
    traces = sorted(traces, key=lambda tr: tr.ray_id)
    kinds = {tr.wave_kind for tr in traces}
    if len(kinds) > 1:
        raise ValueError(f"traces mix wave kinds {sorted(kinds)}")
    wave_kind = kinds.pop() if kinds else (extra_meta or {}).get("wave_kind")
    if wave_kind not in ("em", "acoustic"):
        raise ValueError(
            "wave_kind must be 'em' or 'acoustic'; an empty trace list needs "
            "it in extra_meta"
        )
    medium = {m: _csv_field(m) for m in set().union(*(tr.medium_ids for tr in traces))}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for tr in traces:
            rows = zip(
                tr.z.tolist(),
                tr.incident.real.tolist(),
                tr.incident.imag.tolist(),
                tr.reflected.real.tolist(),
                tr.reflected.imag.tolist(),
                map(medium.__getitem__, tr.medium_ids),
            )
            row = str(tr.ray_id) + _TRACE_ROW
            fh.write("".join(map(row.__mod__, rows)))
    meta = {
        "kind": "traces",
        "version": FORMAT_VERSION,
        "columns": TRACE_COLUMNS,
        "wave_kind": wave_kind,
        "rays": {
            str(tr.ray_id): {
                "origin": list(tr.ray.origin),
                "direction": list(tr.ray.direction),
                "length": tr.ray.length,
                "grid_step": tr.ray.grid_step,
            }
            for tr in traces
        },
    }
    meta.update(extra_meta or {})
    _write_sidecar(path, meta)


def read_traces(path) -> tuple[list[FieldTrace], dict]:
    """Read traces written by write_traces (or any file matching the
    schema), each ray's rows in file order; raises SchemaMismatch on header
    or sidecar disagreement and on a garbled row."""
    meta = _read_sidecar(path, "traces")
    wave_kind = meta.get("wave_kind")
    if wave_kind not in ("em", "acoustic"):
        raise SchemaMismatch(f"sidecar wave_kind {wave_kind!r} is not em/acoustic")
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header != TRACE_COLUMNS:
            raise SchemaMismatch(f"trace header {header} != {TRACE_COLUMNS}")
        with _garbled("trace row"), warnings.catch_warnings():
            # A header-only file is a valid empty trace list.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(
                fh, dtype=_TRACE_DTYPE, delimiter=",", quotechar='"', comments=None, ndmin=1
            )
    medium = {text: _parse_medium_id(text) for text in set(body["medium"].tolist())}
    traces = []
    for ray_id in np.unique(body["ray"]).tolist():
        rows = body[body["ray"] == ray_id]
        with _garbled(f"sidecar geometry of ray {ray_id}"):
            ray_meta = meta.get("rays", {}).get(str(ray_id))
            if ray_meta is None:
                raise SchemaMismatch(f"sidecar lacks ray geometry for ray {ray_id}")
            ray = Ray(
                origin=tuple(ray_meta["origin"]),
                direction=tuple(ray_meta["direction"]),
                length=float(ray_meta["length"]),
                grid_step=float(ray_meta["grid_step"]),
            )
        traces.append(
            FieldTrace(
                ray=ray,
                z=rows["z"].copy(),
                incident=_complex(rows["incident_re"], rows["incident_im"]),
                reflected=_complex(rows["reflected_re"], rows["reflected_im"]),
                medium_ids=tuple(map(medium.__getitem__, rows["medium"].tolist())),
                wave_kind=wave_kind,
                ray_id=ray_id,
            )
        )
    return traces, meta


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Parts assigned separately: re + 1j*im would turn -0.0 into 0.0 and
    an infinite imaginary part into a nan real part."""
    out = np.empty(len(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _csv_field(value) -> str:
    """`value` as one CSV field, quoted exactly as csv.writer quotes it
    inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def _parse_medium_id(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _join_position(position) -> str:
    if position is None:
        return ""
    return ";".join(fmt_float(x) for x in position)


def _split_position(text: str):
    if not text:
        return None
    return tuple(float(x) for x in text.split(";"))


def write_report(path, report: DetectionReport) -> None:
    """Write a detection report plus its sidecar (tolerances, seed, and
    variant flags ride in report.params_used)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(REPORT_COLUMNS)
        fh.write("".join(
            _INTERFACE_ROW % (
                h.ray_id,
                h.z,
                _join_position(h.position),
                h.measured_t.real,
                h.measured_t.imag,
                h.measured_r.real,
                h.measured_r.imag,
                h.media_pair[0],
                h.media_pair[1],
                h.residual,
            )
            for h in report.interface_hits
        ))
        for v in report.vertex_hits:
            w.writerow(
                [
                    "vertex",
                    ";".join(str(i) for i in v.ray_ids),
                    "",
                    _join_position(v.position),
                    "", "", "", "", "", "",
                    v.criterion,
                    fmt_float(v.residual),
                    "1" if v.degenerate else "0",
                ]
            )
    meta = {
        "kind": "report",
        "version": FORMAT_VERSION,
        "columns": REPORT_COLUMNS,
        "params_used": report.params_used,
        "counts": {
            "interface_hits": len(report.interface_hits),
            "vertex_hits": len(report.vertex_hits),
        },
    }
    _write_sidecar(path, meta)


def read_report(path) -> tuple[DetectionReport, dict]:
    """Round-trip reader for write_report output."""
    meta = _read_sidecar(path, "report")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != REPORT_COLUMNS:
        raise SchemaMismatch(
            f"report header {rows[0] if rows else None} != {REPORT_COLUMNS}"
        )
    with _garbled("sidecar params_used"):
        report = DetectionReport(params_used=dict(meta.get("params_used", {})))
    with _garbled("report row"):
        for row in rows[1:]:
            if len(row) != len(REPORT_COLUMNS):
                raise SchemaMismatch(f"report row has {len(row)} fields: {row}")
            kind = row[0]
            if kind == "interface":
                report.interface_hits.append(
                    InterfaceHit(
                        ray_id=int(row[1]),
                        z=float(row[2]),
                        position=_split_position(row[3]),
                        measured_t=complex(float(row[4]), float(row[5])),
                        measured_r=complex(float(row[6]), float(row[7])),
                        media_pair=(float(row[8]), float(row[9])),
                        residual=float(row[11]),
                    )
                )
            elif kind == "vertex":
                ray_ids = tuple(int(x) for x in row[1].split(";")) if row[1] else ()
                report.vertex_hits.append(
                    VertexHit(
                        position=_split_position(row[3]),
                        criterion=row[10],
                        residual=float(row[11]),
                        ray_ids=ray_ids,
                        degenerate=row[12] == "1",
                    )
                )
            else:
                raise SchemaMismatch(f"unknown report row kind {kind!r}")
    return report, meta
