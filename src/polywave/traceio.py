"""Trace and report files: CSV with a one-line header plus a JSON sidecar.

Numbers are serialized with 17 significant digits so every float64
round-trips exactly; rows are written in a fixed order and the sidecar
with sorted keys, so identical inputs produce byte-identical files.  The
sidecar (path + ".meta.json") carries everything the CSV cannot: ray
geometry, wave kind, seed, tolerances, and variant flags.

Every body row, of a trace or of a report, goes through one row writer:
`_write_rows` renders numpy columns through a `%`-format row template,
_BLOCK_ROWS rows per write, so the Python floats and row strings alive at
once stay a few MB however long a ray or report is.  The reader parses a
trace body in blocks of as many rows with `np.loadtxt` and keeps only each
block's numeric columns and references to shared medium ids, so no Python
object per row outlives its block.  Medium ids and vertex criteria follow
CSV quoting; medium ids are rendered or parsed once per distinct value.

A body is written and read in shares: contiguous runs of whole rows, one
per usable CPU up to _MAX_SHARES.  Forked children render or parse every
share but one while the parent handles the remaining one; the serial case
is the same code with one share.  One share is used for a body of fewer
than 2 * _BLOCK_ROWS rows, where `os.fork` or `os.sched_getaffinity` is
missing, and while a second Python thread runs.  A writing child renders
its rows into memory, then sends the encoded bytes down a pipe, which the
parent copies into the file in order; a reading child parses its byte range
with the same block loop and pickles its pieces down a pipe.  A read cuts
only where no quote precedes the cut in the body, as a quoted medium id may
hold a newline.  A share whose child fails is rendered again in the parent,
and a read of which any share fails is read again serially, so errors and
their row numbers come from one code path.  A child ends with `os._exit`,
running no exception handler, atexit hook or stdio flush; it calls no BLAS,
so the fork warning that Python 3.12 gives for numpy's BLAS thread is
ignored.  Every child is reaped before the call returns or raises, and one
still running when an exception leaves is killed first.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import pickle
import re
import shutil
import threading
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
# Rows rendered per write and parsed per read: bounds the Python objects
# alive at once to a few MB however many rows a ray or report holds.
_BLOCK_ROWS = 4096
# Most shares a body is cut into, each rendered or parsed by one process.
_MAX_SHARES = 4
# Bytes per copy from a child's pipe and per read of a body scan.
_COPY_BYTES = 1 << 20
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
    converting and rendering _BLOCK_ROWS rows per write."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        chunk = [column[start:start + _BLOCK_ROWS].tolist() for column in columns]
        fh.write("".join(map(template.__mod__, zip(*chunk))))


class _Fields:
    """A column of CSV fields, fields[v] for each v of values[span], looked
    up by tolist() alone: _write_rows asks for one block's list at a time,
    so no column of fields is built before the rows are rendered."""

    def __init__(self, values, fields: dict, span: range | None = None):
        self.values = values
        self.fields = fields
        self.span = range(len(values)) if span is None else span

    def __getitem__(self, index: slice) -> _Fields:
        return _Fields(self.values, self.fields, self.span[index])

    def tolist(self) -> list:
        span = self.span
        return list(map(self.fields.__getitem__, self.values[span.start:span.stop]))


def _share_count(rows: int) -> int:
    """Shares for a body of at least `rows` rows (see the module docstring)."""
    if (rows < 2 * _BLOCK_ROWS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_SHARES)


class _Child:
    """A forked child and the read end of the pipe it writes its result to;
    pid None stands for a fork that failed, whose pipe is empty."""

    def __init__(self, pid: int | None, pipe):
        self.pid = pid
        self.pipe = pipe

    def wait(self) -> bool:
        """Close the pipe and reap the child: True when it exited with 0."""
        self.pipe.close()
        pid, self.pid = self.pid, None
        return pid is not None and os.waitpid(pid, 0)[1] == 0


@contextmanager
def _forked(tasks):
    """Run each task(out) in a forked child, `out` being the write end of a
    pipe, and yield one _Child per task in order.  A child exits with 0 once
    its task returned and with 1 otherwise.  On leaving, every child not yet
    reaped is reaped, and killed first when an exception leaves."""
    children = []
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded")
            for task in tasks:
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    pid = None  # the caller then handles the share itself
                if pid == 0:
                    code = 1
                    try:
                        # no read end stays open here, so a child whose
                        # parent is gone gets EPIPE instead of blocking
                        os.close(read)
                        for child in children:
                            child.pipe.close()
                        with open(write, "wb") as out:
                            task(out)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(write)
                children.append(_Child(pid, open(read, "rb")))
        yield children
    except BaseException:
        import signal  # needed on this path alone

        for child in children:
            if child.pid is not None:
                os.kill(child.pid, signal.SIGKILL)
        raise
    finally:
        for child in children:
            child.wait()


def _write_body(fh, segments) -> None:
    """Write the rows of `segments`, (row template, columns) pairs in file
    order, to the text file fh in shares of whole rows cut across segments."""
    sizes = [len(columns[0]) for _, columns in segments]
    shares = _share_count(sum(sizes))
    cuts = [sum(sizes) * i // shares for i in range(shares + 1)]

    def render(out, start: int, stop: int) -> None:
        offset = 0
        for (template, columns), size in zip(segments, sizes):
            lo, hi = max(start - offset, 0), min(stop - offset, size)
            if lo < hi:
                _write_rows(out, template, *(column[lo:hi] for column in columns))
            offset += size

    def task(start: int, stop: int):
        def rendered(out) -> None:
            text = io.StringIO()
            render(text, start, stop)
            out.write(text.getvalue().encode(fh.encoding, fh.errors))
        return rendered

    later = list(zip(cuts[1:-1], cuts[2:]))
    fh.flush()  # a child must not inherit the header in fh's buffer
    with _forked([task(*share) for share in later]) as children:
        render(fh, 0, cuts[1])
        for child, share in zip(children, later):
            fh.flush()
            end = fh.tell()
            shutil.copyfileobj(child.pipe, fh.buffer, _COPY_BYTES)
            if not child.wait():
                fh.seek(end)
                fh.truncate()
                render(fh, *share)


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
        _write_body(fh, [
            (str(tr.ray_id) + _TRACE_ROW, (
                tr.z, tr.incident.real, tr.incident.imag, tr.reflected.real, tr.reflected.imag,
                _Fields(tr.medium_ids, medium),
            ))
            for tr in traces
        ])
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
        with _garbled("trace file"):  # text that does not decode
            header = next(csv.reader([fh.readline()]), None)
        if header != TRACE_COLUMNS:
            raise SchemaMismatch(f"trace header {header} != {TRACE_COLUMNS}")
        with _garbled("trace row"):
            parts = _read_body(fh)
    traces = []
    for ray_id in sorted(parts):
        z, incident, reflected, medium_ids = parts.pop(ray_id)
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
                z=np.concatenate(z),
                incident=np.concatenate(incident),
                reflected=np.concatenate(reflected),
                medium_ids=tuple(itertools.chain.from_iterable(medium_ids)),
                wave_kind=wave_kind,
                ray_id=ray_id,
            )
        )
    return traces, meta


def _read_body(fh) -> dict:
    """Parse the trace body left in the text file fh in shares: ray id ->
    its z, incident, reflected and medium id pieces, in file order."""
    start = fh.tell()
    cuts = _body_cuts(fh.fileno(), start)

    def task(lo: int, hi: int):
        def parsed(out) -> None:
            share = os.pread(fh.fileno(), hi - lo, lo)
            text = io.TextIOWrapper(io.BytesIO(share), encoding=fh.encoding, errors=fh.errors)
            pickle.dump(_parse_share(text, _MediumIds()), out, pickle.HIGHEST_PROTOCOL)
        return parsed

    medium = _MediumIds()
    try:
        with _forked([task(*share) for share in zip(cuts, cuts[1:])]) as children:
            fh.seek(cuts[-1])
            last = _parse_share(fh, medium)
            # a child that failed leaves a pipe that ends before its pickle does
            shares = [pickle.load(child.pipe) for child in children]
    except (EOFError, pickle.UnpicklingError, ValueError):
        fh.seek(start)
        return _parse_share(fh, medium)
    for share in shares:
        for pieces in share.values():
            # ids a child parsed become references to the parent's (parsing
            # a parsed id gives it back), not one int object per row
            pieces[3][:] = [list(map(medium.__getitem__, ids)) for ids in pieces[3]]
    parts: dict = {}
    for share in shares + [last]:
        for ray_id, pieces in share.items():
            for whole, piece in zip(parts.setdefault(ray_id, ([], [], [], [])), pieces):
                whole.extend(piece)
    return parts


def _body_cuts(fd: int, start: int) -> list[int]:
    """Byte offsets where the shares of the body from `start` to the end of
    file fd start: `start`, then each line end past an equally spaced
    offset that no quote in the body precedes."""
    size = os.fstat(fd).st_size
    if _share_count(size - start) == 1:  # a body holds no more rows than bytes
        return [start]
    rows, at = 0, start  # rows are counted only as far as the share rule needs
    while rows < 2 * _BLOCK_ROWS and at < size:
        rows += os.pread(fd, _COPY_BYTES, at).count(b"\n")
        at += _COPY_BYTES
    shares = _share_count(rows)
    cuts = [start]
    for i in range(1, shares):
        cut = _line_end(fd, start + (size - start) * i // shares)
        if cuts[-1] < cut < size:
            cuts.append(cut)
    at = start
    for i, cut in enumerate(cuts[1:], 1):
        while at < cut:
            chunk = os.pread(fd, min(_COPY_BYTES, cut - at), at)
            if not chunk or b'"' in chunk:
                return cuts[:i]
            at += len(chunk)
    return cuts


def _line_end(fd: int, at: int) -> int:
    """Offset just past the first newline at or after `at`, or of the end."""
    while chunk := os.pread(fd, _COPY_BYTES, at):
        newline = chunk.find(b"\n")
        if newline >= 0:
            return at + newline + 1
        at += len(chunk)
    return at


def _parse_share(fh, medium: _MediumIds) -> dict:
    """Ray id -> its z, incident, reflected and medium id pieces, one per
    block of the body left in fh; each is a copy, so no piece keeps a
    block's strings alive."""
    parts: dict = {}
    with warnings.catch_warnings():
        # A header-only file is a valid empty trace list, and a blank line is
        # skipped without counting towards a block.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
        for block in _read_blocks(fh):
            for ray_id in np.unique(block["ray"]).tolist():
                rows = block[block["ray"] == ray_id]
                z, incident, reflected, medium_ids = parts.setdefault(ray_id, ([], [], [], []))
                z.append(rows["z"].copy())
                incident.append(_complex(rows["incident_re"], rows["incident_im"]))
                reflected.append(_complex(rows["reflected_re"], rows["reflected_im"]))
                medium_ids.append(list(map(medium.__getitem__, rows["medium"].tolist())))
    return parts


def _read_blocks(fh):
    """Yield the trace body left in fh as structured arrays of _BLOCK_ROWS
    rows (the last one shorter, possibly empty).  A parse error names its
    row counted from the first row of the body, as one pass would."""
    rows = 0
    while True:
        try:
            block = np.loadtxt(
                fh, dtype=_TRACE_DTYPE, delimiter=",", quotechar='"', comments=None, ndmin=1,
                max_rows=_BLOCK_ROWS,
            )
        except ValueError as exc:
            raise ValueError(re.sub(
                r"(?<=at row )\d+", lambda m: str(int(m[0]) + rows), str(exc), count=1
            )) from None
        yield block
        if len(block) < _BLOCK_ROWS:
            return
        rows += _BLOCK_ROWS


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Parts assigned separately: real + 1j*imag would turn -0.0 into 0.0
    and an infinite imaginary part into a nan real part."""
    out = np.empty(len(real), dtype=complex)
    out.real = real
    out.imag = imag
    return out


def _csv_field(value) -> str:
    """`value` as one CSV field, quoted exactly as csv.writer quotes it
    inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


class _MediumIds(dict):
    """Medium id text -> parsed id (an int where the text is one), each
    distinct text parsed once."""

    def __missing__(self, text: str):
        try:
            self[text] = medium_id = int(text)
        except ValueError:
            self[text] = medium_id = text
        return medium_id


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
        _write_body(fh, [
            (_INTERFACE_ROW.format(position=position), (
                hits.ray_id, hits.z, *hits.position.T, hits.t.real, hits.t.imag,
                hits.r.real, hits.r.imag, *hits.pair.T, hits.residual,
            )),
            (_VERTEX_ROW, tuple(vertex)),
        ])
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
