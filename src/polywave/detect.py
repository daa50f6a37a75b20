"""Trace synthesis along rays and interface/vertex detection.

A ray is marched through a simplicial complex by its precomputed
barycentric inverses and neighbour table.  Only facets where the medium
changes are interfaces: each crossing of one must be perpendicular (the
traces model normal-incidence propagation), while facets between
simplices of the same medium are transparent.  EM traces
carry field amplitudes stepped by the Fresnel t at each interface, with an
r-scaled reflected sample recorded on the incident side; acoustic traces
carry intensities stepped by T_I with an R_I sample recorded likewise.
Detection inverts this: interface detectors match measured sample ratios
against the same step coefficients of candidate media pairs and return
their hits as columns (InterfaceHits).  Vertex detectors test trace tails
(the last `window` of each trace, or all of it when the window is None)
against the two-mode coupling ODEs or exponential gain, and trace endpoints
against a coupler cascade whose angles are fitted in closed form between
given delay stages (zero-length when None).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import acoustic as _ac
from . import coupled_mode as _cm
from . import fresnel as _fr
from .fwm import fit_gain
# classify_facets is no longer called here; it stays a module attribute
# because the benchmark's tracer wraps it by this name.
from .geometry import GeometryError, SimplicialComplex, classify_facets  # noqa: F401


class RayOutsideComplex(GeometryError):
    pass


class ObliqueCrossing(GeometryError):
    """Ray crosses a facet away from normal incidence."""


class WrongWaveKind(ValueError):
    pass


class WindowTooSmall(ValueError):
    pass


class TooFewTraces(ValueError):
    pass


@dataclass(frozen=True)
class Ray:
    origin: tuple[float, ...]
    direction: tuple[float, ...]  # unit vector
    length: float
    grid_step: float

    def __post_init__(self):
        if len(self.origin) != len(self.direction):
            raise ValueError("origin and direction dimensions differ")
        # every comparison below is false for NaN, so finiteness is checked first
        numbers = (*self.origin, *self.direction, self.length, self.grid_step)
        if not all(map(math.isfinite, numbers)):
            raise ValueError("origin, direction, length and grid_step must be finite")
        norm = math.sqrt(sum(d * d for d in self.direction))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction must be unit length, |d| = {norm}")
        if self.grid_step <= 0:
            raise ValueError(f"grid_step must be > 0, got {self.grid_step}")
        if self.length < self.grid_step:
            raise ValueError("length must cover at least one grid step")
        # at most MAX_GRID_STEPS steps (1,000,001 samples): a finer grid is
        # refused before synthesis allocates it
        steps = self.length / self.grid_step
        if steps > _cm.MAX_GRID_STEPS:
            raise ValueError(
                f"length / grid_step must be <= {_cm.MAX_GRID_STEPS}, got {steps:.6g}"
            )

    def point_at(self, z: float) -> tuple[float, ...]:
        return tuple(o + z * d for o, d in zip(self.origin, self.direction))


@dataclass
class FieldTrace:
    ray: Ray
    z: np.ndarray
    incident: np.ndarray   # complex; EM amplitude or acoustic intensity
    reflected: np.ndarray  # complex; nonzero only beside crossings
    medium_ids: tuple
    wave_kind: str  # 'em' | 'acoustic'
    ray_id: int = 0

    @property
    def n_samples(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class InterfaceHit:
    ray_id: int
    z: float
    position: tuple[float, ...]
    measured_t: complex
    measured_r: complex
    media_pair: tuple[float, float]
    residual: float


@dataclass(frozen=True, eq=False)
class InterfaceHits(Sequence):
    """Interface hits as columns, one row per hit: ray_id and z (k,),
    position (k, dim), complex t and r (k,), pair (k, 2) and residual (k,).

    As a sequence it yields InterfaceHit views, built only when indexed or
    iterated, and it equals any list, tuple or InterfaceHits of equal hits.
    """

    ray_id: np.ndarray
    z: np.ndarray
    position: np.ndarray
    t: np.ndarray
    r: np.ndarray
    pair: np.ndarray
    residual: np.ndarray

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self.z)

    def __iter__(self):
        return map(
            InterfaceHit,
            self.ray_id.tolist(),
            self.z.tolist(),
            map(tuple, self.position.tolist()),
            self.t.tolist(),
            self.r.tolist(),
            map(tuple, self.pair.tolist()),
            self.residual.tolist(),
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return InterfaceHits(*(column[index] for column in self._columns()))
        i = range(len(self))[index]
        return next(iter(self[i:i + 1]))

    def __eq__(self, other):
        if not isinstance(other, (list, tuple, InterfaceHits)):
            return NotImplemented
        return list(self) == list(other)

    @classmethod
    def from_hits(cls, hits) -> InterfaceHits:
        """The columns of InterfaceHit records, which must share one position
        dimension (a None position has none)."""
        hits = list(hits)
        positions = [h.position or () for h in hits]
        dims = set(map(len, positions))
        if len(dims) > 1:
            raise ValueError(f"interface hits mix positions of {sorted(dims)} coordinates")
        k = len(hits)
        return cls(
            ray_id=np.array([h.ray_id for h in hits], dtype=int),
            z=np.array([h.z for h in hits], dtype=float),
            position=np.array(positions, dtype=float).reshape(k, dims.pop() if dims else 0),
            t=np.array([h.measured_t for h in hits], dtype=complex),
            r=np.array([h.measured_r for h in hits], dtype=complex),
            pair=np.array([h.media_pair for h in hits], dtype=float).reshape(k, 2),
            residual=np.array([h.residual for h in hits], dtype=float),
        )

    @classmethod
    def concatenate(cls, parts) -> InterfaceHits:
        """The hits of each part in turn; parts without hits are skipped, so
        only the parts that hold hits must share a position dimension."""
        parts = [part for part in parts if len(part)]
        if not parts:
            return cls.from_hits([])
        return cls(*map(np.concatenate, zip(*(part._columns() for part in parts))))


@dataclass(frozen=True)
class VertexVerdict:
    is_vertex: bool
    criterion: str
    residual: float
    position: tuple[float, ...] | None
    params: dict
    degenerate: bool = False


@dataclass(frozen=True)
class VertexHit:
    position: tuple[float, ...] | None
    criterion: str
    residual: float
    ray_ids: tuple[int, ...]
    degenerate: bool = False


@dataclass
class DetectionReport:
    interface_hits: Sequence[InterfaceHit] = field(default_factory=list)
    vertex_hits: list = field(default_factory=list)
    params_used: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# ray marching and trace synthesis

def _march(c: SimplicialComplex, ray: Ray):
    """Walk the ray through the complex.

    Returns (cross_z, path): cross_z lists the z of every facet crossed
    between different media, and path has one simplex index per segment
    between crossings, starting at z=0.  Facets between simplices of the
    same medium are crossed without a record or an incidence check.

    Every exit comes from `leave`, the t at which the ray leaves each
    simplex through each facet (inf where it does not).  exit_of(s, t) scans
    row s for the first facet left after t + eps_t, or a graze (-2) where
    two tie.  Where every leaving facet of s lies past t + eps_t, which the
    row's smallest t (t_low) says, the answer does not depend on t: the exit
    table, built once from the columns of `leave`, holds it.
    """
    origin = np.asarray(ray.origin, dtype=float)
    direction = np.asarray(ray.direction, dtype=float)
    eps_t = 1e-12 * ray.length

    # barycentric coordinates lam(t) = lam0 + t*lam_d along the ray, for
    # every simplex; a facet j is leaving where lam_d[j] < 0, at t_j
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan far out: not containing
        lam0_all = c.inverse @ np.concatenate(([1.0], origin))
    # containing simplices of the origin, lowest index first
    containing = np.flatnonzero(np.min(lam0_all, axis=1) >= -1e-9).tolist()
    if not containing:
        raise RayOutsideComplex(f"ray origin {ray.origin} lies outside the complex")
    lam_d_all = c.inverse @ np.concatenate(([0.0], direction))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        leave = np.where(lam_d_all < -1e-300, -lam0_all / lam_d_all, math.inf)
        # the scan's comparisons, as IEEE operations on whole columns
        table_t = np.full(len(leave), math.inf)
        table_j = np.full(len(leave), -1)
        for j, t_j in enumerate(leave.T):
            earlier = t_j < table_t - eps_t
            graze = ~earlier & (np.abs(t_j - table_t) <= eps_t)
            table_t = np.where(earlier, t_j, table_t)
            table_j = np.where(earlier, j, np.where(graze, -2, table_j))
    # a NaN in a row makes its t_low NaN, which sends s to the scan
    t_low, table_t, table_j = leave.min(axis=1).tolist(), table_t.tolist(), table_j.tolist()

    def exit_of(s: int, t_enter: float):
        if t_low[s] > t_enter + eps_t:
            return table_t[s], table_j[s]
        t_exit, j_exit = math.inf, -1
        for j, t_j in enumerate(leave[s].tolist()):
            if t_j > t_enter + eps_t and t_j < t_exit - eps_t:
                t_exit, j_exit = t_j, j
            elif t_j > t_enter + eps_t and abs(t_j - t_exit) <= eps_t:
                j_exit = -2  # simultaneous facet exit: codim-2 graze
        return t_exit, j_exit

    current = None
    for s in containing:
        t_exit, j_exit = exit_of(s, 0.0)
        if j_exit >= 0 and t_exit > eps_t:
            current = s
            break
    if current is None:
        raise RayOutsideComplex("ray cannot advance from its origin")

    # flat lists: entry s*width + j is the simplex across facet j of s, and
    # the cosine of the ray with that facet's normal
    width = leave.shape[1]
    media, neighbour = c.media, c.neighbour.ravel().tolist()
    cosine = (c.normal @ direction).ravel().tolist()
    cross_z, path = [], [current]
    t = 0.0
    for _ in range(len(leave) + 1):
        t_exit, j_exit = exit_of(current, t)
        if j_exit == -2:
            raise RayOutsideComplex(
                "ray exits through a face of codimension >= 2 (ambiguous)"
            )
        if t_exit >= ray.length - eps_t:
            return cross_z, path
        nxt = neighbour[current * width + j_exit]
        if nxt >= 0 and media[nxt] == media[current]:
            current, t = nxt, t_exit
            continue
        oblique = abs(cosine[current * width + j_exit]) <= 1.0 - 1e-9
        if oblique or nxt < 0:
            simplex = c.simplices[current]
            facet = simplex[:j_exit] + simplex[j_exit + 1:]
            if oblique:
                raise ObliqueCrossing(
                    f"ray crosses facet {facet} at z={t_exit:.6g} away from normal"
                )
            raise RayOutsideComplex(
                f"ray leaves the complex through boundary facet {facet} at z={t_exit:.6g}"
            )
        cross_z.append(t_exit)
        path.append(nxt)
        current, t = nxt, t_exit
    raise RayOutsideComplex("ray marching did not terminate")


def synthesize_ray_trace(
    c: SimplicialComplex,
    media: dict,
    ray: Ray,
    noise_sigma: float = 0.0,
    seed: int = 0,
    ray_id: int = 0,
) -> FieldTrace:
    """Piecewise plane-wave trace along a normal-incidence ray.

    `media` maps medium ids (the values of c.media) to EmMedium or
    AcousticMedium.  Samples sit at z = i*grid_step; the sample exactly on
    a crossing belongs to the downstream compartment, and the reflected
    sample lands on the last sample strictly before the crossing.
    Multiplicative noise (1 + sigma*N(0,1)) with the given seed is applied
    per sample and column; identical inputs give bitwise-identical traces.
    """
    if not c.media:
        raise GeometryError("complex carries no media map")
    # checked per record class, not per record: a config's media map holds
    # one entry per simplex
    classes = set(map(type, media.values()))
    kinds = {issubclass(cls, _fr.EmMedium) for cls in classes}
    if len(kinds) != 1:
        raise ValueError("media mix EM and acoustic records")
    is_em = kinds.pop()
    if not is_em and not all(issubclass(cls, _ac.AcousticMedium) for cls in classes):
        raise ValueError("media must be EmMedium or AcousticMedium records")

    wave_kind = "em" if is_em else "acoustic"
    cross_z, path = _march(c, ray)
    seg_media = [c.media[s] for s in path]
    for mid in seg_media:
        if mid not in media:
            raise ValueError(f"no physical medium for id {mid!r}")

    # amplitude (EM) or intensity (acoustic) per segment, a complex product
    # of step t's (past the float range inf * 0j is nan, as in one Python
    # complex product per step), and the r-scaled value at each crossing
    values = [media[mid].refractive_index if is_em else media[mid].impedance
              for mid in seg_media]
    pairs = list(zip(values, values[1:]))
    coeffs = {pair: _step_coefficients(wave_kind, *pair) for pair in dict.fromkeys(pairs)}
    t_step, r_step = (np.array([coeffs[pair][k] for pair in pairs], dtype=float) for k in (0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        seg_value = np.cumprod(np.concatenate(([1 + 0j], t_step)))
        refl_at_crossing = r_step * seg_value[:-1]

    n_samples = int(math.floor(ray.length / ray.grid_step + 1e-9)) + 1
    z = np.arange(n_samples, dtype=float) * ray.grid_step
    seg_of = np.searchsorted(cross_z, z, side="right")
    incident = seg_value[seg_of]
    medium_ids = tuple(map(seg_media.__getitem__, seg_of.tolist()))
    reflected = np.zeros(n_samples, dtype=complex)
    # the last sample strictly before each crossing, in crossing order
    before_idx = np.searchsorted(z, cross_z, side="left") - 1
    kept = before_idx >= 0
    np.add.at(reflected, before_idx[kept], refl_at_crossing[kept])

    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan for a huge sigma
            factors = 1.0 + noise_sigma * rng.standard_normal((n_samples, 2))
            incident = incident * factors[:, 0]
            reflected = reflected * factors[:, 1]

    return FieldTrace(
        ray=ray,
        z=z,
        incident=incident,
        reflected=reflected,
        medium_ids=medium_ids,
        wave_kind=wave_kind,
        ray_id=ray_id,
    )


# ---------------------------------------------------------------------------
# interface detection

def _step_coefficients(wave_kind: str, before: float, after: float, paper_exact: bool = False):
    """(t, r) of one step from medium value `before` to `after`: the Fresnel
    amplitude pair between refractive indices for EM, the intensity pair
    (T_I, R_I) between impedances for acoustic (paper_exact picks the
    as-published transmittance)."""
    if wave_kind == "em":
        coeff = _fr.amplitude_coefficients_normal(before, after)
        return coeff.t, coeff.r
    return _ac.intensity_coefficients(before, after, paper_exact=paper_exact)


def _require_kind(trace: FieldTrace, wave_kind: str) -> None:
    if trace.wave_kind != wave_kind:
        name = {"em": "an EM", "acoustic": "an acoustic"}[wave_kind]
        raise WrongWaveKind(f"expected {name} trace, got {trace.wave_kind!r}")


def _detect_interfaces(
    trace: FieldTrace, wave_kind: str, candidates, tol: float, paper_exact: bool = False
) -> InterfaceHits:
    """Match adjacent-sample ratios against the step coefficients (t, r) of
    each candidate pair of media values.

    A sample i is flagged when, for some candidate, both
    |t_hat - t| <= tol*|t| and |r_hat - r| <= tol*max(|r|, tol); the
    recorded residual is the larger normalized deviation.  Runs of
    consecutive flagged samples merge into one hit at the first flagged z,
    whose position is origin + z*direction (the arithmetic of Ray.point_at).
    """
    _require_kind(trace, wave_kind)
    coeff_table = [
        ((float(a), float(b)), *_step_coefficients(wave_kind, a, b, paper_exact))
        for a, b in sorted(candidates)
    ]
    z, inc, refl = trace.z, trace.incident, trace.reflected
    n = len(z) - 1
    if n < 1:
        return InterfaceHits.from_hits([])
    best_res = np.full(n, np.inf)
    best_pair = np.full(n, -1, dtype=int)
    # a ratio or residual that overflows or divides by zero (a sample near the
    # float range, a candidate whose t rounds to 0) is inf or nan: no hit
    with np.errstate(all="ignore"):
        t_hat = inc[1:] / inc[:-1]
        r_hat = refl[:-1] / inc[:-1]
        valid = np.abs(inc[:-1]) > 0.0
        for p_idx, (_, t_exp, r_exp) in enumerate(coeff_table):
            rel_t = np.abs(t_hat - t_exp) / abs(t_exp)
            rel_r = np.abs(r_hat - r_exp) / max(abs(r_exp), tol)
            res = np.maximum(rel_t, rel_r)
            res[~valid] = np.inf
            better = (res <= tol) & (res < best_res)
            best_res[better] = res[better]
            best_pair[better] = p_idx

    flagged = best_pair >= 0
    firsts = np.flatnonzero(flagged & ~np.concatenate(([False], flagged[:-1])))
    z_hits = z[firsts]
    pairs = np.array([pair for pair, _, _ in coeff_table], dtype=float).reshape(-1, 2)
    return InterfaceHits(
        ray_id=np.full(len(firsts), trace.ray_id),
        z=z_hits,
        position=np.asarray(trace.ray.origin) + z_hits[:, None] * np.asarray(trace.ray.direction),
        t=t_hat[firsts],
        r=r_hat[firsts],
        pair=pairs[best_pair[firsts]],
        residual=best_res[firsts],
    )


def detect_interfaces_em(trace: FieldTrace, candidates, tol: float) -> InterfaceHits:
    """Flag sample positions whose amplitude ratios match a candidate
    refractive-index pair (n1, n2) within tol.  Candidates are tried in
    ascending order, so ties report the lexicographically smallest pair."""
    return _detect_interfaces(trace, "em", candidates, tol)


def detect_interfaces_acoustic(
    trace: FieldTrace, candidates, tol: float, paper_exact: bool = False
) -> InterfaceHits:
    """Acoustic analog of detect_interfaces_em over impedance pairs
    (Z1, Z2), matching intensity ratios against the energy-conserving
    coefficients (or the as-published variant when paper_exact)."""
    return _detect_interfaces(trace, "acoustic", candidates, tol, paper_exact)


# ---------------------------------------------------------------------------
# vertex detection: coupled-mode fit

def _window_tail(trace: FieldTrace, window: float | None):
    """(z, incident) of the samples in the last `window` of the trace; all
    of them when window is None."""
    if window is None:
        return trace.z, trace.incident
    mask = trace.z >= trace.z[-1] - window
    return trace.z[mask], trace.incident[mask]


FIT_BUDGET = 500  # residual evaluations per coupled-mode fit, Jacobians included
# A fit stalls after STALL_STEPS accepted steps in a row that each lower |r|^2
# by less than STALL_GAIN of itself, above a floor the caller sets.  The
# coupled-mode fit sets it at an rms residual of STALL_FACTOR * tol: a fit
# creeping that far above tol is a reject, and one under it never stalls.
STALL_STEPS = 3
STALL_GAIN = 1e-3
STALL_FACTOR = 100.0


def _levenberg_marquardt(residuals, p0, delta, stall_floor, budget=FIT_BUDGET):
    """Minimize |r|^2 by Levenberg-Marquardt with Marquardt's diagonal
    scaling, Nielsen's damping update, and a forward-difference Jacobian
    (parameter j perturbed by delta[j]).

    `residuals` is batched: it maps a (k, n_params) stack of points to the
    (k, m) stack of their residual rows, so the Jacobian's n_params
    perturbed points are one call.  Returns (p, r, evaluations, stop), where
    stop is one of
      "converged"  a proposed step is below 1e-12 of |p| + |delta|;
      "stalled"    STALL_STEPS accepted steps in a row each lowered |r|^2 by
                   less than STALL_GAIN of itself, with |r|^2 still above
                   stall_floor;
      "budget"     the evaluations ran out first;
      "overflow"   |r|^2 or the Jacobian's products are not finite.
    """
    p = np.asarray(p0, dtype=float)
    r = residuals(p[None])[0]
    f = float(r @ r)
    evals, lam, nu, jac, slow = 1, 1e-3, 2.0, None, 0
    step_floor = 1e-12 * np.linalg.norm(delta)
    while evals < budget:
        if jac is None:
            if evals + len(p) >= budget:
                break
            rows = residuals(p + np.diag(delta))
            jac = np.column_stack([(row - r) / d for row, d in zip(rows, delta)])
            evals += len(p)
            jtj, grad = jac.T @ jac, jac.T @ r
            if not (math.isfinite(f) and np.isfinite(jtj).all() and np.isfinite(grad).all()):
                return p, r, evals, "overflow"
            scale = np.diag(np.diag(jtj))
        step = np.linalg.lstsq(jtj + lam * scale, -grad, rcond=None)[0]
        trial = p + step
        rt = residuals(trial[None])[0]
        evals += 1
        ft = float(rt @ rt)
        if ft < f:
            predicted = -(2.0 * float(step @ grad) + float(step @ jtj @ step))
            rho = (f - ft) / predicted if predicted > 0.0 else 0.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            slow = slow + 1 if f - ft < STALL_GAIN * f and ft > stall_floor else 0
            p, r, f, nu, jac = trial, rt, ft, 2.0, None
        else:
            lam *= nu
            nu *= 2.0
        if np.linalg.norm(step) <= 1e-12 * np.linalg.norm(p) + step_floor:
            return p, r, evals, "converged"
        if slow == STALL_STEPS:
            return p, r, evals, "stalled"
    return p, r, evals, "budget"


def _closed_form_start(a: np.ndarray, b: np.ndarray, h: float) -> list[float]:
    """(beta1, beta2, kappa12, kappa21) from the least-squares one-step map
    x[k+1] = M x[k] of the samples (dynamic mode decomposition), as the real
    parts of gen = i log(M) / h.  When M or its logarithm is undefined (say,
    one mode is identically zero), each mode starts from its own phase rate
    with the couplings at zero.
    """
    x = np.column_stack([a, b])
    m_t, _, rank, _ = np.linalg.lstsq(x[:-1], x[1:], rcond=None)
    if rank == 2:
        with np.errstate(all="ignore"):
            w, v = np.linalg.eig(m_t.T)
            start = (1j * (v * np.log(w)) @ np.linalg.inv(v) / h)[[0, 1, 0, 1], [0, 1, 1, 0]].real
        if np.all(np.isfinite(start)):
            return list(start)
    return [_phase_rate(a, h), _phase_rate(b, h), 0.0, 0.0]


def _phase_rate(x: np.ndarray, h: float) -> float:
    """Least-squares phase rate Re(i log(r) / h) = -arg(r) / h of one mode,
    r = <x[:-1], x[1:]> / <x[:-1], x[:-1]>; 0 for a mode that is identically
    zero (arg 0 = 0)."""
    return -float(np.angle(np.vdot(x[:-1], x[1:]))) / h


def detect_vertex_coupled_mode(
    trace_a: FieldTrace,
    trace_b: FieldTrace,
    corner_window: float | None,
    tol: float,
    kappa_min: float = 1e-6,
) -> VertexVerdict:
    """Test two interface traces for two-mode coupling near their corner.

    The last `corner_window` of each trace (all of it when None; >= 8
    samples, shared uniform z grid) is fit to the coupling ODEs over real
    (beta1, beta2, kappa12, kappa21).  Traces are normalized by their joint initial magnitude
    first, so the verdict only sees ratios.  The model steps each sample
    to the next with one RK4 step matrix; the residual is the rms complex
    deviation of the N predicted samples of both modes.  The fit's residual
    function is batched: a (k, 4) stack of parameter points gives (k, 4N)
    rows, the real then the imaginary parts of each point's 2N complex
    deviations.  The fit starts from the closed form of `_closed_form_start`
    and is polished by Levenberg-Marquardt within FIT_BUDGET residual
    evaluations.  A vertex needs both residual <= tol and
    max(|kappa12|, |kappa21|) >= kappa_min on non-degenerate traces.
    `params`: the fit (beta1, beta2, kappa12, kappa21), evaluations, stop
    and window_samples; empty for traces that vanish or overflow at the window
    start or hold non-finite samples.  stop is one of
      "converged"  the last proposed step was negligible;
      "stalled"    STALL_STEPS accepted steps in a row each lowered the
                   squared residual by less than STALL_GAIN of itself,
                   with the residual still above STALL_FACTOR * tol: a
                   reject, ended early;
      "budget"     the FIT_BUDGET evaluations ran out;
      "overflow"   the squared residual or the Jacobian overflowed (samples
                   near the float range): the fit stops where it is.
    """
    za, a = _window_tail(trace_a, corner_window)
    zb, b = _window_tail(trace_b, corner_window)
    if len(za) < 8 or len(zb) < 8:
        raise WindowTooSmall(
            f"corner window holds {len(za)} and {len(zb)} samples, need >= 8"
        )
    if len(za) != len(zb) or np.max(np.abs(za - zb)) > 1e-12 * max(1.0, float(za[-1])):
        raise ValueError("traces must share the corner-window z grid")
    z = za - za[0]

    with np.errstate(over="ignore"):
        norm0 = math.sqrt(abs(a[0]) ** 2 + abs(b[0]) ** 2)
    position = trace_a.ray.point_at(trace_a.ray.length)
    if norm0 in (0.0, math.inf) or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return VertexVerdict(False, "coupled_mode", math.inf, position, {}, True)
    a = a / norm0
    b = b / norm0
    variation = max(float(np.max(np.abs(a - a[0]))), float(np.max(np.abs(b - b[0]))))
    degenerate = variation < 1e-12

    h = float(z[-1]) / (len(z) - 1)
    measured = np.column_stack([a[1:], b[1:]]).ravel()
    n, a0, b0 = len(a) - 1, complex(a[0]), complex(b[0])

    def residuals(points):
        # (k, 4n) rows of (k, 4) points; each point's recurrence runs in
        # Python complex arithmetic, whose products numpy's do not match
        gens = points[:, [0, 2, 3, 1]].reshape(-1, 2, 2)
        predicted = []
        for (p00, p01), (p10, p11) in _cm.rk4_step_matrix(gens, h).tolist():
            xa, xb = a0, b0
            for _ in range(n):
                xa, xb = p00 * xa + p01 * xb, p10 * xa + p11 * xb
                predicted += xa, xb
        d = np.array(predicted).reshape(len(points), -1) - measured
        return np.concatenate([d.real, d.imag], axis=1)

    p0 = _closed_form_start(a, b, h)
    delta = [1.5e-8 * max(abs(v), 1.0 / float(z[-1])) for v in p0]
    try:
        stall_floor = (STALL_FACTOR * tol) ** 2 * (2.0 * n)
    except OverflowError:  # a float power past the float range raises
        stall_floor = math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # overflow stops the fit as "overflow"
        fitted, r, evals, stop = _levenberg_marquardt(residuals, p0, delta, stall_floor)
        residual = math.sqrt(float(r @ r) / (2.0 * n))
    kappa_mag = max(abs(fitted[2]), abs(fitted[3]))
    return VertexVerdict(
        is_vertex=bool(residual <= tol and kappa_mag >= kappa_min and not degenerate),
        criterion="coupled_mode",
        residual=residual,
        position=position,
        params={
            "beta1": float(fitted[0]),
            "beta2": float(fitted[1]),
            "kappa12": float(fitted[2]),
            "kappa21": float(fitted[3]),
            "evaluations": evals,
            "stop": stop,
            "window_samples": len(z),
        },
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# vertex detection: coupler cascade

def _fit_coupler_angle(u: np.ndarray, v: np.ndarray) -> float:
    """argmin_theta || T_c(theta) u - v ||, in closed form."""
    p = (np.conj(v[0]) * u[0] + np.conj(v[1]) * u[1]).real
    q = (np.conj(v[0]) * (-1j * u[1]) + np.conj(v[1]) * (-1j * u[0])).real
    return float(math.atan2(q, p))


def _relative_error(predicted: np.ndarray, target: np.ndarray) -> float:
    return float(np.linalg.norm(predicted - target)) / max(float(np.linalg.norm(target)), 1e-30)


def detect_vertex_cascade(
    traces, vertex_candidate=None, delays=None, tol: float = 1e-6
) -> VertexVerdict:
    """Test m interface traces meeting at a candidate corner against an
    (m-1)-stage coupler cascade.

    Each trace contributes its endpoint pair s_j = (incident[0],
    incident[-1]), read as the 2-channel state at chain position j.
    `delays` lists the m-2 DelayStages between the couplers (zero-length
    stages when None).  Stage j is a unit-length coupler whose angle is
    fitted in closed form so that T_c(theta_j) . D_j maps s_j to s_{j+1},
    with D_j the delay before it (none before the first).  The verdict
    takes the worst of the m-1 per-stage relative prediction errors and the
    composite transfer error of the whole cascade, all scale-invariant; an
    error that overflows makes the residual inf.  Endpoints that are not
    finite, or a first state of norm 0 or inf, give a degenerate reject
    with empty params.
    """
    traces = list(traces)
    m = len(traces)
    if m < 2:
        raise TooFewTraces(f"need >= 2 traces, got {m}")
    for tr in traces:
        if tr.n_samples < 2:
            raise ValueError("each trace needs at least 2 samples")
    delays = [_cm.DelayStage(0.0, 0.0, 0.0)] * (m - 2) if delays is None else list(delays)
    if len(delays) != m - 2:
        raise _cm.MalformedSpec(f"{m} traces need {m - 2} delay stages, got {len(delays)}")
    delay_mats = [_cm.delay_matrix(d.beta, d.length1, d.length2) for d in delays]

    states = [np.array([tr.incident[0], tr.incident[-1]], dtype=complex) for tr in traces]
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(states[0]))
    ray_ids = tuple(tr.ray_id for tr in traces)
    if scale in (0.0, math.inf) or not np.all(np.isfinite(states)):
        return VertexVerdict(False, "cascade", math.inf, vertex_candidate, {}, True)

    thetas, errors, stages = [], [], []
    # a state far from the first one's scale overflows, and an error with it
    # to inf or nan: the residual is then inf, a reject
    with np.errstate(all="ignore"):
        states = [s / scale for s in states]
        for j in range(m - 1):
            s, target = states[j], states[j + 1]
            theta = _fit_coupler_angle(delay_mats[j - 1] @ s if j else s, target)
            transition = _cm.coupler_matrix(theta, 1.0)
            if j:
                transition = transition @ delay_mats[j - 1]
                stages.append(delays[j - 1])
            thetas.append(theta)
            stages.append(_cm.CouplerStage(kappa=theta, length=1.0))
            errors.append(_relative_error(transition @ s, target))
        total = _cm.cascade_transfer(_cm.CascadeSpec(tuple(stages)))
        composite = _relative_error(total @ states[0], states[-1])
    worst = errors + [composite]
    residual = max(worst) if all(map(math.isfinite, worst)) else math.inf
    return VertexVerdict(
        is_vertex=bool(residual <= tol),
        criterion="cascade",
        residual=residual,
        position=vertex_candidate,
        params={
            "thetas": thetas,
            "stage_errors": errors,
            "composite_error": composite,
            "ray_ids": ray_ids,
        },
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# vertex detection: exponential gain

def detect_vertex_fwm(
    trace: FieldTrace,
    chi3: float,
    pump_amps,
    tol: float,
    window: float | None = None,
) -> VertexVerdict:
    """Test an EM trace for exponential |E_s| growth along the geodesic.

    The last `window` of the trace (all of it when None) is fit.  chi3 and
    the pump amplitudes are recorded in the verdict for traceability; the
    criterion itself is a log-linear least-squares fit (the gain is a fit
    parameter, never derived from chi3).  A fit whose amplitude change over
    the window is below float noise (|g_s|*span < 1e-9) is flagged
    degenerate.  A window holding a zero or non-finite amplitude has no log
    to fit: a degenerate reject with empty params.
    """
    _require_kind(trace, "em")
    z, inc = _window_tail(trace, window)
    with np.errstate(over="ignore"):
        amplitudes = np.abs(inc)
    position = trace.ray.point_at(trace.ray.length)
    if not np.all((amplitudes > 0.0) & np.isfinite(amplitudes)):  # no log to fit
        return VertexVerdict(False, "fwm", math.inf, position, {}, True)
    fit = fit_gain(list(zip(z, amplitudes)))
    span = float(z[-1] - z[0])
    degenerate = abs(fit.model.g_s) * span < 1e-9
    return VertexVerdict(
        is_vertex=bool(fit.residual <= tol),
        criterion="fwm",
        residual=float(fit.residual),
        position=position,
        params={
            "g_s": fit.model.g_s,
            "e_s0": abs(fit.model.e_s0),
            "chi3": chi3,
            "pump_amps": tuple(pump_amps),
            "window_samples": len(z),
        },
        degenerate=degenerate,
    )
