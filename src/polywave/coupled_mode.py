"""Two-mode coupling: ODE integration, closed-form power exchange, and
transfer-matrix cascades of directional couplers with delay sections.

The propagation equations are

    da/dz = -i (beta1 + kappa11) a - i kappa12 b
    db/dz = -i (beta2 + kappa22) b - i kappa21 a

Power |a|^2 + |b|^2 is conserved when kappa21 = conj(kappa12) and the
self-coupling terms are real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A fixed-step grid (integrate_coupled_modes, fwm.integrate_signal) takes at
# most this many steps, the bound of a ray (detect.MAX_RAY_STEPS); a finer
# grid is refused before it is allocated
MAX_GRID_STEPS = 1_000_000


class NonPositiveStep(ValueError):
    pass


class BothZero(ValueError):
    pass


class NegativeLength(ValueError):
    pass


class MalformedSpec(ValueError):
    pass


@dataclass(frozen=True)
class CoupledModeParams:
    beta1: float
    beta2: float
    kappa11: complex = 0j
    kappa22: complex = 0j
    kappa12: complex = 0j
    kappa21: complex = 0j


@dataclass(frozen=True)
class ModeTrajectory:
    z_grid: np.ndarray
    a: np.ndarray
    b: np.ndarray


def default_step(p: CoupledModeParams, z_max: float) -> float:
    """1e-3 of the shortest beat period, with fallbacks for slow systems."""
    scale = max(abs(p.beta1), abs(p.beta2), abs(p.kappa11), abs(p.kappa22),
                abs(p.kappa12), abs(p.kappa21))
    if scale == 0.0:
        return z_max / 1000.0
    return 1e-3 * 2.0 * np.pi / scale


def check_grid(z_max: float, step: float) -> float:
    """z_max / step for a grid from 0 to z_max of at most MAX_GRID_STEPS
    steps of `step`; raises before anything is allocated otherwise (also for
    a non-finite z_max or step)."""
    if step <= 0.0:
        raise NonPositiveStep(f"step must be > 0, got {step}")
    if z_max < step:
        raise ValueError(f"z_max ({z_max}) must be >= step ({step})")
    steps = z_max / step
    if not steps <= MAX_GRID_STEPS:  # also a NaN
        raise ValueError(f"z_max / step must be <= {MAX_GRID_STEPS}, got {steps:.6g}")
    return steps


def rk4_step_matrix(gen, h: float) -> np.ndarray:
    """One classical RK4 step of dx/dz = -i gen x, as the matrix P with
    x(z + h) ~= P x(z).  `gen` is one (n, n) generator or a (k, n, n)
    stack of them, which gives the (k, n, n) stack of step matrices.

    For a linear system the four RK4 stages collapse into the degree-4
    Taylor polynomial of exp(-i h gen): P = I + m + m^2/2 + m^3/6 + m^4/24
    with m = -i h gen.
    """
    m = -1j * h * np.asarray(gen, dtype=complex)
    eye = np.eye(m.shape[-1], dtype=complex)
    return eye + m @ (eye + m @ (eye + m @ (eye + m / 4.0) / 3.0) / 2.0)


def integrate_coupled_modes(
    p: CoupledModeParams,
    z_max: float,
    step: float | None = None,
    a0: complex = 1.0 + 0j,
    b0: complex = 0j,
) -> ModeTrajectory:
    """Fixed-step 4th-order Runge-Kutta trajectory from z=0 to z=z_max.

    The grid starts at 0 and advances by `step`; a short final step lands
    exactly on z_max when it is not a multiple of `step`.
    """
    if step is None:
        step = default_step(p, z_max)
    n_full = int(np.floor(check_grid(z_max, step) + 1e-12))

    gen = np.array([[p.beta1 + p.kappa11, p.kappa12], [p.kappa21, p.beta2 + p.kappa22]])
    remainder = z_max - n_full * step
    steps = [step] * n_full
    if remainder > 1e-12 * z_max:
        steps.append(remainder)

    full = rk4_step_matrix(gen, step)
    z_list, states = [0.0], [np.array([a0, b0], dtype=complex)]
    for h in steps:
        states.append((full if h == step else rk4_step_matrix(gen, h)) @ states[-1])
        z_list.append(z_list[-1] + h)
    a, b = np.array(states).T
    return ModeTrajectory(z_grid=np.asarray(z_list), a=a, b=b)


def closed_form_power(delta_beta: float, kappa: float, z) -> tuple:
    """(Pa, Pb) for symmetric coupling kappa12 = kappa21 = kappa, zero
    self-coupling, unit input in mode a.

    Pb = kappa^2/(delta_beta^2/4 + kappa^2) * sin^2(sqrt(...)*z), Pa = 1 - Pb.
    Accepts scalar or array z.
    """
    if delta_beta == 0.0 and kappa == 0.0:
        raise BothZero("delta_beta and kappa cannot both be zero")
    s = np.sqrt(delta_beta**2 / 4.0 + kappa**2)
    pb = (kappa**2 / s**2) * np.sin(s * np.asarray(z, dtype=float)) ** 2
    pa = 1.0 - pb
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(pa), float(pb)
    return pa, pb


def coupler_matrix(kappa: float, length: float) -> np.ndarray:
    """2x2 transfer of one directional coupler with coupling angle kappa*L."""
    if length < 0:
        raise NegativeLength(f"coupler length must be >= 0, got {length}")
    th = kappa * length
    c, s = np.cos(th), np.sin(th)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def delay_matrix(beta: float, length1: float, length2: float) -> np.ndarray:
    """Diagonal phase section diag(e^{-i beta L1}, e^{-i beta L2})."""
    if length1 < 0 or length2 < 0:
        raise NegativeLength(
            f"delay lengths must be >= 0, got {length1}, {length2}"
        )
    return np.array(
        [[np.exp(-1j * beta * length1), 0.0], [0.0, np.exp(-1j * beta * length2)]],
        dtype=complex,
    )


@dataclass(frozen=True)
class CouplerStage:
    kappa: float
    length: float


@dataclass(frozen=True)
class DelayStage:
    beta: float
    length1: float
    length2: float


@dataclass(frozen=True)
class CascadeSpec:
    stages: tuple


def cascade_transfer(spec: CascadeSpec) -> np.ndarray:
    """Total 2x2 transfer of an alternating coupler/delay cascade.

    Stages are listed in propagation order; the first stage acts first, so
    the total is T = T_last @ ... @ T_first.  The cascade must begin and
    end with a CouplerStage and alternate stage kinds.
    """
    stages = tuple(spec.stages)
    if not stages:
        raise MalformedSpec("cascade has no stages")
    if not isinstance(stages[0], CouplerStage) or not isinstance(stages[-1], CouplerStage):
        raise MalformedSpec("cascade must begin and end with a coupler stage")
    total = np.eye(2, dtype=complex)
    expect_coupler = True
    for st in stages:
        if expect_coupler:
            if not isinstance(st, CouplerStage):
                raise MalformedSpec(f"expected a coupler stage, got {st!r}")
            m = coupler_matrix(st.kappa, st.length)
        else:
            if not isinstance(st, DelayStage):
                raise MalformedSpec(f"expected a delay stage, got {st!r}")
            m = delay_matrix(st.beta, st.length1, st.length2)
        total = m @ total
        expect_coupler = not expect_coupler
    return total
