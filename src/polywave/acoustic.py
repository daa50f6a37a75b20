"""Acoustic line states and interface intensity coefficients.

A transmission-line section carries p(x, t) = Re[(p+ e^{-sx/c} +
p- e^{sx/c}) e^{st}] with characteristic impedance z0; velocity flips the
sign of the backward wave.  At a junction between impedances Z1 and Z2 the
intensity reflectance is R_I = ((Z2/Z1 - 1)/(Z2/Z1 + 1))^2 in both
variants; the default transmittance 4(Z2/Z1)/((Z2/Z1) + 1)^2 conserves
energy, while paper_exact=True keeps the as-published denominator
((Z2/Z1) - 1)^2 verbatim, which does not.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass


class NonPositiveImpedance(ValueError):
    pass


class PaperExactSingularity(ZeroDivisionError):
    """paper_exact transmittance is singular at Z1 == Z2."""


@dataclass(frozen=True)
class AcousticMedium:
    impedance: float
    sound_speed: float
    density: float | None = None

    def __post_init__(self):
        if self.impedance <= 0:
            raise NonPositiveImpedance(f"impedance must be > 0, got {self.impedance}")
        if self.sound_speed <= 0:
            raise ValueError(f"sound speed must be > 0, got {self.sound_speed}")
        if self.density is not None:
            zc = self.density * self.sound_speed
            if abs(zc - self.impedance) > 1e-9 * abs(self.impedance):
                raise ValueError(
                    f"impedance {self.impedance} != density*speed {zc}"
                )


@dataclass(frozen=True)
class LineState:
    p_plus: complex
    p_minus: complex
    s: complex  # generalized frequency; s = i*omega for steady oscillation


def line_state(state: LineState, medium: AcousticMedium, x: float, t: float) -> tuple[float, float]:
    """(pressure, velocity) at position x, time t."""
    z0 = medium.impedance
    c = medium.sound_speed
    fwd = state.p_plus * cmath.exp(-state.s * x / c)
    bwd = state.p_minus * cmath.exp(state.s * x / c)
    osc = cmath.exp(state.s * t)
    p = ((fwd + bwd) * osc).real
    u = (((fwd - bwd) / z0) * osc).real
    return p, u


def intensity_coefficients(
    z1: float, z2: float, paper_exact: bool = False
) -> tuple[float, float]:
    """(T_I, R_I) for intensity incident from impedance z1 onto z2."""
    if z1 <= 0 or z2 <= 0:
        raise NonPositiveImpedance(f"impedances must be > 0, got {z1}, {z2}")
    q = z2 / z1
    r_i = ((q - 1.0) / (q + 1.0)) ** 2
    if paper_exact and z1 == z2:
        raise PaperExactSingularity("as-published transmittance divides by (Z2/Z1 - 1)^2")
    d = q - 1.0 if paper_exact else q + 1.0
    try:
        t_i = 4.0 * q / d ** 2
    except OverflowError:  # a float power past the float range raises, a division does not
        t_i = 4.0 * q / d / d
    return t_i, r_i

