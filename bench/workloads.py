"""Seeded inputs, ground truth and output checks for the benchmark workloads.

Each generator turns a seed into the files the program reads (a scenario
config, and for ``vertex-fit`` a trace file) plus the ground truth the
outputs are checked against.  The program sees only the files.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from polywave import traceio
from polywave.coupled_mode import CoupledModeParams, coupler_matrix, integrate_coupled_modes
from polywave.detect import FieldTrace, Ray
from polywave.fwm import GainModel, degenerate_gain

EM_INDICES = (1.0, 1.5, 2.0)
EM_CANDIDATES = ((1.0, 1.5), (1.5, 2.0), (2.0, 1.0))
# Acoustic intensity coefficients are symmetric in Z1 <-> Z2, so a pair is
# only identified up to order.  Impedance ratios 1.25, 1.4 and 1.75 give
# R_I = 0.012, 0.028 and 0.074: far enough apart to tell the pairs apart at
# INTERFACE_TOL, and T_I = 1 - R_I close enough to 1 that the intensity
# after 5000 crossings (about 1e-85) stays a normal float.
ACOUSTIC_MEDIA = ((1.0, 340.0), (1.25, 1500.0), (1.75, 5000.0))
ACOUSTIC_CANDIDATES = ((1.0, 1.25), (1.0, 1.75), (1.25, 1.75))

NOISE_SIGMA = 0.01
INTERFACE_TOL = 0.05
MIN_RECALL = 0.99


@dataclass
class RayTruth:
    step: float
    crossings: list  # ray-local z of every crossing the generator placed
    pairs: list  # expected reported media pair at each crossing


@dataclass
class Workload:
    name: str
    config: Path
    trace_samples: int
    sizes: dict
    traces: Path | None = None  # pre-written trace file of a detect-only workload
    rays: dict = field(default_factory=dict)  # ray id -> RayTruth (rod workloads)
    accepted: set = field(default_factory=set)  # (criterion, position) (vertex-fit)

    @property
    def simulate(self) -> bool:
        return self.traces is None


def _f(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# rods: simulate -> detect on a 1-D rod of cycling media


def _rod(name, seed, work: Path, *, segments, wave_kind, n_rays, spread, samples_per_ray=None,
         steps_per_min_segment=None) -> Workload:
    rng = np.random.default_rng(seed)
    lengths = 1.0 + spread * rng.random(segments)
    x = [float(v) for v in np.concatenate([[0.0], np.cumsum(lengths)]) / float(np.sum(lengths))]
    x[-1] = 1.0
    first, last = x[1] - x[0], x[-1] - x[-2]
    phase = int(rng.integers(3))
    if wave_kind == "em":
        values = [EM_INDICES[(i + phase) % 3] for i in range(segments)]
        media = [f"medium.{i} = n={_f(n)}" for i, n in enumerate(values)]
        candidates = EM_CANDIDATES
        pair_of = lambda a, b: (a, b)  # noqa: E731
    else:
        chosen = [ACOUSTIC_MEDIA[(i + phase) % 3] for i in range(segments)]
        values = [z for z, _ in chosen]
        media = [f"medium.{i} = z={_f(z)} c={_f(c)}" for i, (z, c) in enumerate(chosen)]
        candidates = ACOUSTIC_CANDIDATES
        pair_of = lambda a, b: tuple(sorted((a, b)))  # noqa: E731

    ray_lines, truth, samples = [], {}, 0
    for k in range(n_rays):
        origin = x[0] + first * (0.1 + 0.8 * (k + rng.random()) / n_rays)
        end = x[-1] - last * (0.2 + 0.6 * rng.random())
        length = end - origin
        if samples_per_ray is not None:
            step = length / (samples_per_ray - 1)
        else:
            step = float(np.min(lengths)) / float(np.sum(lengths)) / steps_per_min_segment
        samples += int(math.floor(length / step + 1e-9)) + 1
        ray_lines.append(
            f"ray.{k} = origin={_f(origin)} direction=1 length={_f(length)} grid_step={_f(step)}"
        )
        truth[k] = RayTruth(
            step=step,
            crossings=[xj - origin for xj in x[1:-1]],
            pairs=[pair_of(values[j], values[j + 1]) for j in range(segments - 1)],
        )

    text = "\n".join(
        [
            f"# {name} workload, seed {seed}",
            "[geometry]",
            "dimension = 1",
            "vertices = " + " | ".join(_f(v) for v in x),
            "simplices = " + " | ".join(f"{i} {i + 1}" for i in range(segments)),
            "",
            "[media]",
            f"wave_kind = {wave_kind}",
            *media,
            "",
            "[rays]",
            *ray_lines,
            "",
            "[detection]",
            f"tol = {_f(INTERFACE_TOL)}",
            f"noise_sigma = {_f(NOISE_SIGMA)}",
            f"seed = {seed}",
            "candidates = " + " | ".join(f"{_f(a)},{_f(b)}" for a, b in candidates),
            "",
        ]
    )
    config = work / f"{name}.cfg"
    config.write_text(text)
    return Workload(
        name=name,
        config=config,
        trace_samples=samples,
        sizes={"segments": segments, "rays": n_rays, "samples": samples,
               "crossings": n_rays * (segments - 1), "candidates": len(candidates)},
        rays=truth,
    )


def rod_io(seed: int, work: Path) -> Workload:
    return _rod("rod-io", seed, work, segments=200, wave_kind="em", n_rays=4, spread=0.5,
                samples_per_ray=99_999)


def rod_march(seed: int, work: Path) -> Workload:
    # every segment spans more than two grid steps, so no two crossings
    # flag adjacent samples (adjacent flags merge into one hit)
    return _rod("rod-march", seed, work, segments=5000, wave_kind="acoustic", n_rays=8,
                spread=0.05, steps_per_min_segment=2.05)


# ---------------------------------------------------------------------------
# vertex-fit: detect only, on the acceptance-9 vertex families
#
# The shape of each family comes from a fixed bank; the seed draws a global
# phase and amplitude per family and where the families sit.  A coupled-mode
# fit's evaluation count depends on the walk's shape (866 to 10001 across
# walks), so drawing shapes from the seed would make the workload's cost vary
# several-fold between seeds; phase and amplitude leave every fit's verdict and
# residual unchanged and its evaluation count within a few percent.

CM_ACCEPT = CoupledModeParams(beta1=2.4, beta2=1.7, kappa12=0.5, kappa21=0.9)
CM_REJECT_SAMPLES = (13, 14, 15, 16, 17, 18, 19, 21)  # bank walk k uses rng(100 + k)
REJECTS_PER_CRITERION = 8
ACCEPT_TOL = 1e-6
REJECT_TOL = 1e-3


def _random_walk_pair(k: int, n: int):
    rng = np.random.default_rng(100 + k)
    steps_a = 1.0 + 0.08 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    steps_b = 1.0 + 0.08 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    a = np.concatenate([[1.0], np.cumprod(steps_a)])
    b = np.concatenate([[0.7], 0.7 * np.cumprod(steps_b)])
    return np.arange(n) * 0.05, [a, b]


def _families():
    """(criterion, z grid, [incident arrays], is_vertex), bank order."""
    traj = integrate_coupled_modes(CM_ACCEPT, 1.0, step=0.05, b0=0.3 + 0j)
    out = [("coupled_mode", np.asarray(traj.z_grid), [traj.a, traj.b], True)]
    out += [("coupled_mode", *_random_walk_pair(k, n), False) for k, n in enumerate(CM_REJECT_SAMPLES)]

    states = [np.array([0.6 + 0.3j, 0.2 - 0.5j])]
    for theta in (0.4, 1.1):
        states.append(coupler_matrix(theta, 1.0) @ states[-1])
    out.append(("cascade", np.array([0.0, 1.0]), states, True))
    for k in range(REJECTS_PER_CRITERION):
        rng = np.random.default_rng(200 + k)
        out.append(("cascade", np.array([0.0, 1.0]),
                    [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)], False))

    zs = np.linspace(0.0, 2.0, 41)
    model = GainModel(e_s0=0.2 + 0j, g_s=0.4)
    out.append(("fwm", zs, [np.array([degenerate_gain(model, z) for z in zs])], True))
    for k in range(REJECTS_PER_CRITERION):
        rng = np.random.default_rng(300 + k)
        out.append(("fwm", zs, [np.exp(0.4 * zs + np.cumsum(0.05 * rng.standard_normal(41)))], False))
    return out


def vertex_fit(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    traces, ray_lines, checks, accepted = [], [], [], set()
    for f, (criterion, z, series, is_vertex) in enumerate(_families()):
        factor = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        origin = 10.0 * f + rng.random()
        ray = Ray(origin=(origin,), direction=(1.0,), length=float(z[-1]), grid_step=float(z[1] - z[0]))
        ids = []
        for values in series:
            rid = len(traces)
            ids.append(rid)
            traces.append(FieldTrace(
                ray=ray, z=np.asarray(z, dtype=float),
                incident=np.asarray(values, dtype=complex) * factor,
                reflected=np.zeros(len(z), dtype=complex),
                medium_ids=(0,) * len(z), wave_kind="em", ray_id=rid,
            ))
            ray_lines.append(f"ray.{rid} = origin={_f(origin)} direction=1 "
                             f"length={_f(ray.length)} grid_step={_f(ray.grid_step)}")
        tol = ACCEPT_TOL if is_vertex else REJECT_TOL
        position = ray.point_at(ray.length)
        line = f"check.{len(checks)} = criterion={criterion} rays={','.join(map(str, ids))} tol={_f(tol)}"
        if criterion == "cascade":
            line += f" position={_f(position[0])}"
        elif criterion == "fwm":
            line += " chi3=0 pumps=1,1,1"
        checks.append(line)
        if is_vertex:
            accepted.add((criterion, position))

    text = "\n".join(
        [
            f"# vertex-fit workload, seed {seed}",
            "[geometry]",
            "dimension = 1",
            f"vertices = 0.0 | {_f(10.0 * len(checks) + 10.0)}",
            "simplices = 0 1",
            "",
            "[media]",
            "wave_kind = em",
            "medium.0 = n=1.0",
            "",
            "[rays]",
            *ray_lines,
            "",
            "[detection]",
            f"tol = {_f(REJECT_TOL)}",
            "noise_sigma = 0.0",
            f"seed = {seed}",
            "",
            "[vertices]",
            *checks,
            "",
        ]
    )
    config = work / "vertex-fit.cfg"
    config.write_text(text)
    trace_path = work / "vertex-fit-traces.csv"
    traceio.write_traces(trace_path, traces, extra_meta={
        "wave_kind": "em", "seed": seed, "noise_sigma": 0.0, "tol": REJECT_TOL, "paper_exact": False,
    })
    samples = sum(tr.n_samples for tr in traces)
    return Workload(
        name="vertex-fit",
        config=config,
        trace_samples=samples,
        sizes={"checks": len(checks), "accepts": len(accepted), "rays": len(traces),
               "samples": samples},
        traces=trace_path,
        accepted=accepted,
    )


GENERATORS = {"rod-io": rod_io, "rod-march": rod_march, "vertex-fit": vertex_fit}


# ---------------------------------------------------------------------------
# output checks


def _report_rows(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != traceio.REPORT_COLUMNS:
        raise ValueError(f"report header {rows[0] if rows else None!r} is not the report schema")
    return rows[1:]


def check_report(workload: Workload, report: Path) -> dict:
    """Compare a detect report with the ground truth.

    Rod workloads: each interface hit must lie within one grid step of a
    distinct crossing the generator placed and name that crossing's media
    pair, no vertex rows may appear, and recall must reach MIN_RECALL.
    vertex-fit: the accepted (criterion, position) set must equal the truth.
    Returns a dict with "ok" and the evidence.
    """
    rows = _report_rows(report)
    interface = [r for r in rows if r[0] == "interface"]
    vertex = [r for r in rows if r[0] == "vertex"]
    if not workload.simulate:
        got = {(r[10], tuple(float(x) for x in r[3].split(";"))) for r in vertex}
        return {
            "ok": not interface and len(vertex) == len(got) and got == workload.accepted,
            "report_rows": len(rows),
            "vertex_hits": len(vertex),
            "wrong_verdicts": len(got ^ workload.accepted),
        }

    matched = {ray: set() for ray in workload.rays}
    bad = 0
    for r in interface:
        truth = workload.rays.get(int(r[1]))
        if truth is None:
            bad += 1
            continue
        z, pair = float(r[2]), (float(r[8]), float(r[9]))
        j = bisect.bisect_left(truth.crossings, z)
        near = [i for i in (j - 1, j) if 0 <= i < len(truth.crossings)
                and abs(truth.crossings[i] - z) <= truth.step * (1.0 + 1e-9)]
        hit = next((i for i in near if truth.pairs[i] == pair and i not in matched[int(r[1])]), None)
        if hit is None:
            bad += 1
        else:
            matched[int(r[1])].add(hit)
    total = sum(len(t.crossings) for t in workload.rays.values())
    recall = sum(len(m) for m in matched.values()) / total
    return {
        "ok": bad == 0 and not vertex and recall >= MIN_RECALL,
        "report_rows": len(rows),
        "interface_hits": len(interface),
        "bad_hits": bad,
        "recall": recall,
    }
