"""Normal-incidence amplitude reflection/transmission at a dielectric step.

Sign convention: r = (n1 - n2) / (n1 + n2), so r < 0 when entering the
denser medium.  Energy balance at normal incidence is
r**2 + (n2/n1) * t**2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass


class NonPositiveIndex(ValueError):
    pass


@dataclass(frozen=True)
class EmMedium:
    """Lossless dielectric; at normal incidence only its index matters."""

    refractive_index: float

    def __post_init__(self):
        if self.refractive_index <= 0:
            raise NonPositiveIndex(f"refractive index must be > 0, got {self.refractive_index}")


@dataclass(frozen=True)
class InterfaceCoefficients:
    r: float
    t: float


def amplitude_coefficients_normal(n1: float, n2: float) -> InterfaceCoefficients:
    """Field coefficients for a wave going from index n1 into n2.

    t is computed as 1 + r, which equals 2*n1/(n1 + n2) in real arithmetic
    and keeps the continuity identity 1 + r = t bit-exact in floats.
    """
    if n1 <= 0 or n2 <= 0:
        raise NonPositiveIndex(f"indices must be > 0, got n1={n1}, n2={n2}")
    r = (n1 - n2) / (n1 + n2)
    return InterfaceCoefficients(r=r, t=1.0 + r)


def energy_residual(c: InterfaceCoefficients, n1: float, n2: float) -> float:
    """r^2 + (n2/n1) t^2 - 1; zero for consistent coefficients."""
    if n1 <= 0 or n2 <= 0:
        raise NonPositiveIndex(f"indices must be > 0, got n1={n1}, n2={n2}")
    return c.r**2 + (n2 / n1) * c.t**2 - 1.0
