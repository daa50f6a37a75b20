"""Total internal reflection and guided TE modes of a symmetric slab.

The slab occupies |x| <= thickness/2 with index n_core inside and n_clad
outside.  Guided TE modes solve tan(kappa_t d/2) = gamma/kappa_t (even) or
tan(kappa_t d/2) = -kappa_t/gamma (odd), with
kappa_t^2 + gamma^2 = k0^2 (n_core^2 - n_clad^2) and
beta = sqrt(n_core^2 k0^2 - kappa_t^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class AngleOutOfRange(ValueError):
    pass


class ModeSlabMismatch(ValueError):
    pass


def tir_cos_theta2(n1: float, n2: float, theta1: float) -> complex:
    """cos(theta2) for refraction from n1 into n2 at incidence theta1.

    Past the critical angle the cosine is pure negative-imaginary,
    -i*sqrt(n1^2 sin^2(theta1)/n2^2 - 1), which selects the decaying
    evanescent branch.
    """
    if n1 <= 0 or n2 <= 0:
        raise ValueError(f"indices must be > 0, got n1={n1}, n2={n2}")
    if not 0.0 <= theta1 < math.pi / 2:
        raise AngleOutOfRange(f"theta1 must be in [0, pi/2), got {theta1}")
    s = n1 * math.sin(theta1) / n2
    if n1 * math.sin(theta1) > n2:
        return complex(0.0, -math.sqrt(s * s - 1.0))
    return complex(math.sqrt(1.0 - s * s), 0.0)


@dataclass(frozen=True)
class SlabSpec:
    n_core: float
    n_clad: float
    thickness: float
    k0: float

    def __post_init__(self):
        if self.n_core <= 0 or self.n_clad <= 0:
            raise ValueError("indices must be > 0")
        if self.thickness <= 0:
            raise ValueError(f"thickness must be > 0, got {self.thickness}")
        if self.k0 <= 0:
            raise ValueError(f"k0 must be > 0, got {self.k0}")
        # the mode solver squares n_core * k0 and works in units of u_max
        try:
            finite = math.isfinite((self.n_core * self.k0) ** 2) and math.isfinite(self.u_max)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("slab overflows: (n_core k0)^2 and u_max must be finite")

    @property
    def u_max(self) -> float:
        """Half-thickness normalized frequency, kappa_max * d/2."""
        nd = self.n_core**2 - self.n_clad**2
        return 0.5 * self.thickness * self.k0 * math.sqrt(nd) if nd > 0 else 0.0


@dataclass(frozen=True)
class GuidedMode:
    beta: float
    kappa_t: float
    gamma: float
    parity: str  # 'even' | 'odd'
    order: int
    residual: float


def _dispersion_residual(u: float, u_max: float, parity: str) -> float:
    """Normalized product form of the slab dispersion relations.

    tan(u) = g/u (even) and tan(u) = -u/g (odd) are restated as
    u sin(u) - g cos(u) = 0 and g sin(u) + u cos(u) = 0: identical roots,
    but bounded derivative, so bisection reaches ulp-level residuals even
    for barely-guided modes where the tan form is ill-conditioned.
    """
    g = math.sqrt(max(u_max * u_max - u * u, 0.0))
    if parity == "even":
        return (u * math.sin(u) - g * math.cos(u)) / u_max
    return (g * math.sin(u) + u * math.cos(u)) / u_max


def solve_te_slab_modes(slab: SlabSpec, max_modes: int = 64) -> list[GuidedMode]:
    """All guided TE modes with order < max_modes, sorted by decreasing beta.

    Order q lives in the tangent branch u in (q*pi/2, (q+1)*pi/2); each
    branch below u_max holds exactly one root, bisected on the literal
    dispersion residual.  Modes within ~1e-9*(1+u_max) of cutoff are
    omitted: their confinement is zero to float precision.
    """
    u_max = slab.u_max
    if u_max <= 0.0:
        return []
    eps = 1e-9 * (1.0 + u_max)
    modes: list[GuidedMode] = []
    q = 0
    while q < max_modes:
        lo = q * math.pi / 2 + eps
        hi = min((q + 1) * math.pi / 2 - eps, u_max - eps)
        if hi <= lo:
            break
        parity = "even" if q % 2 == 0 else "odd"
        # the residual increases through the root once reoriented by the
        # (branch-constant) sign of cos(u)
        orient = 1.0 if math.cos((q + 0.5) * math.pi / 2) > 0 else -1.0
        f_lo = orient * _dispersion_residual(lo, u_max, parity)
        f_hi = orient * _dispersion_residual(hi, u_max, parity)
        if f_lo >= 0.0 or f_hi <= 0.0:
            # grazing cutoff left no sign change in the shrunk bracket
            break
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            f_mid = orient * _dispersion_residual(mid, u_max, parity)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if f_mid < 0.0:
                lo = mid
            else:
                hi = mid
        u = 0.5 * (lo + hi)
        kappa_t = 2.0 * u / slab.thickness
        gamma = 2.0 * math.sqrt(max(u_max * u_max - u * u, 0.0)) / slab.thickness
        beta = math.sqrt(max((slab.n_core * slab.k0) ** 2 - kappa_t**2, 0.0))
        modes.append(
            GuidedMode(
                beta=beta,
                kappa_t=kappa_t,
                gamma=gamma,
                parity=parity,
                order=q,
                residual=_dispersion_residual(u, u_max, parity),
            )
        )
        q += 1
    return modes  # ascending order == descending beta


def mode_profile(mode: GuidedMode, slab: SlabSpec, x: float) -> float:
    """Transverse field at x with unit core oscillation amplitude:
    cos(kappa_t x) (even) or sin(kappa_t x) (odd) inside, continuous at the
    core edge, exponential decay exp(-gamma(|x| - d/2)) outside."""
    kmax_sq = (slab.k0**2) * (slab.n_core**2 - slab.n_clad**2)
    if kmax_sq <= 0:
        raise ModeSlabMismatch("slab guides no modes")
    closure = abs(mode.kappa_t**2 + mode.gamma**2 - kmax_sq)
    if closure > 1e-6 * max(kmax_sq, 1.0):
        raise ModeSlabMismatch("mode transverse wavenumbers do not close for this slab")
    if not slab.n_clad * slab.k0 < mode.beta < slab.n_core * slab.k0:
        raise ModeSlabMismatch("mode beta outside the guided range of this slab")
    half = slab.thickness / 2
    if abs(x) <= half:
        if mode.parity == "even":
            return math.cos(mode.kappa_t * x)
        return math.sin(mode.kappa_t * x)
    decay = math.exp(-mode.gamma * (abs(x) - half))
    if mode.parity == "even":
        return math.cos(mode.kappa_t * half) * decay
    # odd: antisymmetric continuation of the (possibly negative) edge value
    side = 1.0 if x > 0 else -1.0
    return side * math.sin(mode.kappa_t * half) * decay
