"""Trace and report files: CSV with a one-line header plus a JSON sidecar.

Numbers are serialized with 17 significant digits so every float64
round-trips exactly; rows are written in a fixed order and the sidecar
with sorted keys, so identical inputs produce byte-identical files.  The
sidecar (path + ".meta.json") carries everything the CSV cannot: ray
geometry, wave kind, seed, tolerances, and variant flags.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

import numpy as np

from .detect import DetectionReport, FieldTrace, InterfaceHit, Ray, VertexHit

TRACE_COLUMNS = ["ray", "z", "incident_re", "incident_im", "reflected_re", "reflected_im", "medium"]
REPORT_COLUMNS = [
    "kind", "ray", "z", "position", "t_re", "t_im", "r_re", "r_im",
    "pair_a", "pair_b", "criterion", "residual", "degenerate",
]
FORMAT_VERSION = 1


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
        raise SchemaMismatch(f"garbled {what}: {exc}") from None


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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        for tr in traces:
            w.writerows(
                zip(
                    repeat(tr.ray_id, tr.n_samples),
                    map(fmt_float, tr.z.tolist()),
                    map(fmt_float, tr.incident.real.tolist()),
                    map(fmt_float, tr.incident.imag.tolist()),
                    map(fmt_float, tr.reflected.real.tolist()),
                    map(fmt_float, tr.reflected.imag.tolist()),
                    tr.medium_ids,
                )
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
    meta.update(extra_meta or {})
    _write_sidecar(path, meta)


def read_traces(path) -> tuple[list[FieldTrace], dict]:
    """Read traces written by write_traces (or any file matching the
    schema); raises SchemaMismatch on header or sidecar disagreement."""
    meta = _read_sidecar(path, "traces")
    wave_kind = meta.get("wave_kind")
    if wave_kind not in ("em", "acoustic"):
        raise SchemaMismatch(f"sidecar wave_kind {wave_kind!r} is not em/acoustic")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TRACE_COLUMNS:
        raise SchemaMismatch(
            f"trace header {rows[0] if rows else None} != {TRACE_COLUMNS}"
        )
    grouped: dict[int, list] = {}
    with _garbled("trace row ray id"):
        for row in rows[1:]:
            if len(row) != len(TRACE_COLUMNS):
                raise SchemaMismatch(f"trace row has {len(row)} fields: {row}")
            grouped.setdefault(int(row[0]), []).append(row)
    traces = []
    for ray_id in sorted(grouped):
        rows_r = grouped[ray_id]
        with _garbled(f"trace rows or sidecar geometry of ray {ray_id}"):
            ray_meta = meta.get("rays", {}).get(str(ray_id))
            if ray_meta is None:
                raise SchemaMismatch(f"sidecar lacks ray geometry for ray {ray_id}")
            ray = Ray(
                origin=tuple(ray_meta["origin"]),
                direction=tuple(ray_meta["direction"]),
                length=float(ray_meta["length"]),
                grid_step=float(ray_meta["grid_step"]),
            )
            z = np.array([float(r[1]) for r in rows_r])
            incident = np.array([complex(float(r[2]), float(r[3])) for r in rows_r])
            reflected = np.array([complex(float(r[4]), float(r[5])) for r in rows_r])
        medium_ids = tuple(_parse_medium_id(r[6]) for r in rows_r)
        traces.append(
            FieldTrace(
                ray=ray,
                z=z,
                incident=incident,
                reflected=reflected,
                medium_ids=medium_ids,
                wave_kind=wave_kind,
                ray_id=ray_id,
            )
        )
    return traces, meta


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


def write_report(path, report: DetectionReport, extra_meta: dict | None = None) -> None:
    """Write a detection report plus its sidecar (tolerances, seed, and
    variant flags ride in report.params_used)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(REPORT_COLUMNS)
        for h in report.interface_hits:
            w.writerow(
                [
                    "interface",
                    h.ray_id,
                    fmt_float(h.z),
                    _join_position(h.position),
                    fmt_float(h.measured_t.real),
                    fmt_float(h.measured_t.imag),
                    fmt_float(h.measured_r.real),
                    fmt_float(h.measured_r.imag),
                    fmt_float(h.media_pair[0]),
                    fmt_float(h.media_pair[1]),
                    "",
                    fmt_float(h.residual),
                    "",
                ]
            )
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
    meta.update(extra_meta or {})
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
