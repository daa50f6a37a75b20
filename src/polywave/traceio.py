"""Trace and report files: CSV with a one-line header plus a JSON sidecar.

Numbers are serialized with 17 significant digits so every float64
round-trips exactly; rows are written in a fixed order and the sidecar
with sorted keys, so identical inputs produce byte-identical files.  The
sidecar (path + ".meta.json") carries everything the CSV cannot: ray
geometry, wave kind, seed, tolerances, and variant flags.

Every body row, of a trace or of a report, goes through one row writer:
`_write_rows` renders numpy columns through a `%`-format row template,
_ROWS_PER_WRITE rows per write, so the Python floats and row strings alive
at once stay a few MB however long a ray or report is.  The reader parses
a trace body in one `np.loadtxt` pass.  Medium ids and vertex criteria
follow CSV quoting; medium ids are rendered or parsed once per distinct
value.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .detect import DetectionReport, FieldTrace, InterfaceHit, InterfaceHits, Ray, VertexHit

TRACE_COLUMNS = ["ray", "z", "incident_re", "incident_im", "reflected_re", "reflected_im", "medium"]
REPORT_COLUMNS = [
    "kind", "ray", "z", "position", "t_re", "t_im", "r_re", "r_im",
    "pair_a", "pair_b", "criterion", "residual", "degenerate",
]
FORMAT_VERSION = 1
# One interface row of a report; {position} becomes one %.17g per position
# coordinate, joined by ';', and the criterion and degenerate fields are empty.
_INTERFACE_ROW = "interface,%d,%.17g,{position},%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,,%.17g,\n"
# One vertex row of a report: ray ids and position joined by ';', the
# criterion as a CSV field, the residual and the degenerate flag.
_VERTEX_ROW = "vertex,%s,,%s,,,,,,,%s,%.17g,%d\n"
# One trace row: ray id, five floats, medium id (a CSV field, rendered once).
_TRACE_ROW = ",%.17g,%.17g,%.17g,%.17g,%.17g,%s\n"
# Rows rendered per write: bounds the Python floats and row strings alive at
# once to a few MB however many rows a ray or report holds.
_ROWS_PER_WRITE = 4096
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


def _write_rows(fh, template: str, *columns: np.ndarray) -> None:
    """Write `template % row` for each row of the equal-length 1-D columns,
    converting and rendering _ROWS_PER_WRITE rows per write."""
    for start in range(0, len(columns[0]), _ROWS_PER_WRITE):
        chunk = [column[start:start + _ROWS_PER_WRITE].tolist() for column in columns]
        fh.write("".join(map(template.__mod__, zip(*chunk))))


def write_traces(path, traces, extra_meta: dict | None = None) -> None:
    """Write FieldTraces ordered by ray id, plus the sidecar.

    extra_meta adds sidecar keys; it may not replace kind, version, columns
    or rays, nor give a wave_kind other than the traces'.  An empty trace
    list is allowed when extra_meta supplies the wave_kind (the header-only
    CSV still round-trips).
    """
    extra_meta = extra_meta or {}
    if {"kind", "version", "columns", "rays"} & extra_meta.keys():
        raise ValueError("extra_meta may not replace the sidecar's kind, version, columns or rays")
    traces = sorted(traces, key=lambda tr: tr.ray_id)
    kinds = {tr.wave_kind for tr in traces}
    if "wave_kind" in extra_meta:
        kinds.add(extra_meta["wave_kind"])
    if len(kinds) > 1:
        raise ValueError(f"traces and extra_meta mix wave kinds {sorted(kinds, key=str)}")
    wave_kind = kinds.pop() if kinds else None
    if wave_kind not in ("em", "acoustic"):
        raise ValueError(
            "wave_kind must be 'em' or 'acoustic'; an empty trace list needs "
            "it in extra_meta"
        )
    medium = {m: _csv_field(m) for m in set().union(*(tr.medium_ids for tr in traces))}
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for tr in traces:
            _write_rows(
                fh, str(tr.ray_id) + _TRACE_ROW, tr.z, tr.incident.real, tr.incident.imag,
                tr.reflected.real, tr.reflected.imag,
                np.array([medium[m] for m in tr.medium_ids], dtype=object),
            )
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
    meta.update(extra_meta)
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
    hits = report.interface_hits
    if not isinstance(hits, InterfaceHits):
        hits = InterfaceHits.from_hits(hits)
    # one object column per field of _VERTEX_ROW, also when there are no rows
    vertex = np.array([
        (";".join(map(str, v.ray_ids)), _join_position(v.position), _csv_field(v.criterion),
         v.residual, v.degenerate)
        for v in report.vertex_hits
    ], dtype=object).reshape(-1, 5).T
    with open(path, "w", newline="") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        position = ";".join(["%.17g"] * hits.position.shape[1])
        _write_rows(
            fh, _INTERFACE_ROW.format(position=position), hits.ray_id, hits.z, *hits.position.T,
            hits.t.real, hits.t.imag, hits.r.real, hits.r.imag, *hits.pair.T, hits.residual,
        )
        _write_rows(fh, _VERTEX_ROW, *vertex)
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
