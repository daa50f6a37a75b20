"""Four-wave-mixing signal growth with undepleted pumps.

The signal envelope obeys

    dE_s/dz = -(i omega_s^2 mu0*eps0 / 2 k_s) chi3_eff E1 E2 E3 e^{-i dk z}

with E_s(0) = 0 and constant pump amplitudes, so the integral is an exact
quadrature.  A second, as-published closed form with a squared sinc bracket
is kept verbatim in closed_form_signal; the two expressions agree only as
z -> 0 (at dk*z = pi their magnitudes differ by the factor pi^2/2).
Phase-matched degenerate mixing grows as E_s(z) = E_s(0) exp(g_s z); g_s is
a fit parameter, never derived from chi3.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coupled_mode import MAX_GRID_STEPS, check_grid

SPEED_OF_LIGHT = 299792458.0  # m/s, exact
MU0_EPS0 = 1.0 / SPEED_OF_LIGHT**2
# integrate_signal's bound on its grid, shared with integrate_coupled_modes
MAX_SIGNAL_STEPS = MAX_GRID_STEPS


class ZeroMismatch(ValueError):
    pass


class NonPositiveAmplitude(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


@dataclass(frozen=True)
class FwmParams:
    omega_s: float
    k_s: float
    chi3_eff: float
    e1: complex
    e2: complex
    e3: complex
    delta_k_z: float

    def __post_init__(self):
        if self.omega_s <= 0:
            raise ValueError(f"omega_s must be > 0, got {self.omega_s}")
        if self.k_s <= 0:
            raise ValueError(f"k_s must be > 0, got {self.k_s}")
        try:
            finite = cmath.isfinite(self.drive)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("pump drive omega_s^2 mu0 eps0 chi3_eff E1 E2 E3 / (2 k_s) overflows")

    @property
    def drive(self) -> complex:
        """omega_s^2 mu0 eps0 / (2 k_s) * chi3_eff * E1 E2 E3."""
        return (
            self.omega_s**2 * MU0_EPS0 / (2.0 * self.k_s)
            * self.chi3_eff * self.e1 * self.e2 * self.e3
        )


def integrate_signal(p: FwmParams, z_max: float, step: float) -> list[tuple[float, complex]]:
    """(z, E_s(z)) samples of the exact quadrature on a fixed grid.

    E_s(z) = -i A (1 - e^{-i dk z}) / (i dk) with A the pump drive, which
    reduces to -i A z when dk = 0 (linear growth).  |E_s(z)| <= |A| z, so
    the samples are finite when |A| z_max and dk z_max are.
    """
    n_full = int(np.floor(check_grid(z_max, step) + 1e-12))
    if not (math.isfinite(abs(p.drive) * z_max) and math.isfinite(p.delta_k_z * z_max)):
        raise ValueError("signal overflows: |drive| * z_max and delta_k * z_max must be finite")
    zs = [i * step for i in range(n_full + 1)]
    if z_max - zs[-1] > 1e-12 * z_max:
        zs.append(z_max)
    coef = -1j * p.drive
    dk = p.delta_k_z
    out = []
    for z in zs:
        if dk == 0.0:
            e = coef * z
        else:
            e = coef * (1.0 - np.exp(-1j * dk * z)) / (1j * dk)
        out.append((z, complex(e)))
    return out


def closed_form_signal(p: FwmParams, z: float) -> complex:
    """As-published phase-mismatched closed form, kept verbatim:

        E_s(z) = A / dk * [sin(dk z / 2) / (dk z / 2)]^2

    with A the pump drive.  Requires dk != 0; the bracket tends to 1 as
    z -> 0.  Note the square: the direct quadrature in integrate_signal
    carries a single sinc factor instead, so the two disagree away from
    z = 0.
    """
    dk = p.delta_k_z
    if dk == 0.0:
        raise ZeroMismatch("closed form requires delta_k_z != 0")
    half = 0.5 * dk * z
    bracket = 1.0 if half == 0.0 else math.sin(half) / half
    return p.drive / dk * bracket**2


@dataclass(frozen=True)
class GainModel:
    e_s0: complex
    g_s: float


@dataclass(frozen=True)
class GainFit:
    model: GainModel
    residual: float  # rms deviation of ln|E_s| from the fitted line


def degenerate_gain(m: GainModel, z: float) -> complex:
    """E_s(z) = E_s(0) exp(g_s z)."""
    return m.e_s0 * math.exp(m.g_s * z)


def fit_gain(samples) -> GainFit:
    """Least-squares line fit of ln|E_s| against z.

    `samples` is a sequence of (z, amplitude) pairs with amplitude > 0.
    Returns the fitted exponential model and the rms residual in log space.
    """
    pts = list(samples)
    if len(pts) < 3:
        raise TooFewSamples(f"need at least 3 samples, got {len(pts)}")
    z = np.array([float(p[0]) for p in pts])
    amp = np.array([abs(p[1]) for p in pts], dtype=float)
    if np.any(amp <= 0.0):
        raise NonPositiveAmplitude("all amplitudes must be > 0 for a log fit")
    ln = np.log(amp)
    g_s, ln_e0 = np.polyfit(z, ln, 1)
    resid = ln - (g_s * z + ln_e0)
    return GainFit(
        model=GainModel(e_s0=complex(math.exp(ln_e0)), g_s=float(g_s)),
        residual=float(np.sqrt(np.mean(resid**2))),
    )
