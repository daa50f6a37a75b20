"""Four-wave-mixing quadrature, the as-published closed form, and gain fits."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polywave.coupled_mode import NonPositiveStep
from polywave.fwm import (
    MU0_EPS0,
    SPEED_OF_LIGHT,
    FwmParams,
    GainModel,
    NonPositiveAmplitude,
    TooFewSamples,
    ZeroMismatch,
    closed_form_signal,
    degenerate_gain,
    fit_gain,
    integrate_signal,
)


def params(chi3=1e-20, dk=0.0, e1=1e6, e2=1e6, e3=1e6):
    return FwmParams(
        omega_s=1.2e15, k_s=6.0e6, chi3_eff=chi3,
        e1=complex(e1), e2=complex(e2), e3=complex(e3), delta_k_z=dk,
    )


def test_vacuum_constant_is_exact():
    assert SPEED_OF_LIGHT == 299792458.0
    assert MU0_EPS0 == 1.0 / 299792458.0**2


def test_zero_chi3_no_signal():
    out = integrate_signal(params(chi3=0.0), 1.0, 0.1)
    assert all(e == 0j for _, e in out)


def test_phase_matched_linear_growth():
    p = params(dk=0.0)
    rate = abs(p.drive)
    for z, e in integrate_signal(p, 2.0, 0.25):
        assert abs(e) == pytest.approx(rate * z, rel=1e-10, abs=1e-30)


def test_mismatched_growth_matches_symbolic_quadrature():
    dk = 3.0
    p = params(dk=dk)
    for z, e in integrate_signal(p, 5.0, 0.5):
        expected = abs(p.drive) * abs(2.0 * math.sin(dk * z / 2.0) / dk)
        assert abs(e) == pytest.approx(expected, rel=1e-12, abs=1e-30)


def test_mismatched_signal_is_periodic():
    dk = 2.0
    p = params(dk=dk)
    period = 2 * math.pi / dk
    out = dict(integrate_signal(p, 2 * period, period / 2))
    assert abs(out[period]) < 1e-12 * abs(p.drive)
    assert abs(out[2 * period]) < 1e-12 * abs(p.drive)


def test_integrate_signal_grid():
    out = integrate_signal(params(), 1.0, 0.3)
    zs = [z for z, _ in out]
    assert zs[0] == 0.0
    assert zs[-1] == pytest.approx(1.0)
    with pytest.raises(NonPositiveStep):
        integrate_signal(params(), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_signal(params(), 0.1, 0.3)


@pytest.mark.parametrize("z_max, step", [(1.0, 1e-12), (1e300, 1e-300), (math.inf, 1.0), (2e6, 1.0)])
def test_integrate_signal_refuses_too_many_steps_before_building_the_grid(
    z_max, step, monkeypatch
):
    """More than MAX_GRID_STEPS steps, the bound of a ray, is a ValueError
    before the grid is built: z_max / step = inf used to raise an
    OverflowError, and 1e12 steps would build a list of 1e12 samples."""
    def never(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(np, "floor", never)
    with pytest.raises(ValueError, match="z_max / step must be <= 1000000"):
        integrate_signal(params(), z_max, step)


def test_closed_form_bracket_tends_to_one():
    dk = 4.0
    p = params(dk=dk)
    tiny = closed_form_signal(p, 1e-12)
    assert tiny == pytest.approx(p.drive / dk, rel=1e-9)


def test_closed_form_zero_at_full_period():
    dk = 4.0
    p = params(dk=dk)
    # sin(pi) rounds to ~1.2e-16, and the bracket is squared
    assert abs(closed_form_signal(p, 2 * math.pi / dk)) < 1e-32 * abs(p.drive / dk)


def test_closed_form_requires_mismatch():
    with pytest.raises(ZeroMismatch):
        closed_form_signal(params(dk=0.0), 1.0)


def test_pump_trilinearity_times_eight():
    p1 = params(dk=1.0)
    p2 = params(dk=1.0, e1=2e6, e2=2e6, e3=2e6)
    z = 0.7
    assert closed_form_signal(p2, z) == pytest.approx(8 * closed_form_signal(p1, z))
    e1 = dict(integrate_signal(p1, 1.0, 0.5))[0.5]
    e2 = dict(integrate_signal(p2, 1.0, 0.5))[0.5]
    assert e2 == pytest.approx(8 * e1)


def test_quadrature_vs_closed_form_known_discrepancy():
    """At dk*z = pi the direct quadrature and the as-published closed form
    disagree in magnitude by exactly pi^2/2."""
    dk = 2.0
    z = math.pi / dk
    p = params(dk=dk)
    quad = abs(dict(integrate_signal(p, z, z / 2))[z])
    closed = abs(closed_form_signal(p, z))
    assert quad / closed == pytest.approx(math.pi**2 / 2.0, rel=1e-12)


@given(
    phi1=st.floats(min_value=-math.pi, max_value=math.pi),
    phi2=st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_zero_net_pump_phase_leaves_magnitude(phi1, phi2):
    base = params(dk=1.5)
    rotated = FwmParams(
        omega_s=base.omega_s, k_s=base.k_s, chi3_eff=base.chi3_eff,
        e1=base.e1 * cmath.exp(1j * phi1),
        e2=base.e2 * cmath.exp(1j * phi2),
        e3=base.e3 * cmath.exp(-1j * (phi1 + phi2)),
        delta_k_z=base.delta_k_z,
    )
    for (_, ea), (_, eb) in zip(
        integrate_signal(base, 1.0, 0.25), integrate_signal(rotated, 1.0, 0.25)
    ):
        assert abs(eb) == pytest.approx(abs(ea), rel=1e-12, abs=1e-30)


def test_fwm_params_validation():
    with pytest.raises(ValueError):
        FwmParams(omega_s=0.0, k_s=1.0, chi3_eff=0.0, e1=1, e2=1, e3=1, delta_k_z=0.0)
    with pytest.raises(ValueError):
        FwmParams(omega_s=1.0, k_s=-1.0, chi3_eff=0.0, e1=1, e2=1, e3=1, delta_k_z=0.0)


def test_degenerate_gain_values():
    flat = GainModel(e_s0=2.0 + 0j, g_s=0.0)
    assert degenerate_gain(flat, 3.7) == 2.0 + 0j
    m = GainModel(e_s0=1.0 + 0j, g_s=0.5)
    assert degenerate_gain(m, 2.0) == pytest.approx(math.e, rel=1e-15)
    lossy = GainModel(e_s0=1.0 + 0j, g_s=-0.8)
    values = [abs(degenerate_gain(lossy, z)) for z in np.linspace(0.0, 3.0, 10)]
    assert all(b < a for a, b in zip(values, values[1:]))


@given(
    g=st.floats(min_value=-1.0, max_value=1.0),
    z1=st.floats(min_value=0.0, max_value=5.0),
    z2=st.floats(min_value=0.0, max_value=5.0),
)
def test_degenerate_gain_semigroup(g, z1, z2):
    m = GainModel(e_s0=0.7 + 0.2j, g_s=g)
    direct = degenerate_gain(m, z1 + z2)
    stepped = degenerate_gain(GainModel(e_s0=degenerate_gain(m, z1), g_s=g), z2)
    assert stepped == pytest.approx(direct, rel=1e-12)


def test_fit_gain_recovers_exponential():
    m = GainModel(e_s0=0.3 + 0j, g_s=0.3)
    zs = np.linspace(0.0, 4.0, 40)
    fit = fit_gain([(z, degenerate_gain(m, z)) for z in zs])
    assert fit.model.g_s == pytest.approx(0.3, abs=1e-10)
    assert abs(fit.model.e_s0) == pytest.approx(0.3, rel=1e-10)
    assert fit.residual < 1e-10


def test_fit_gain_constant_trace_is_zero_gain():
    fit = fit_gain([(z, 2.5) for z in np.linspace(0.0, 1.0, 12)])
    assert fit.model.g_s == pytest.approx(0.0, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_gain_rejects_sinc_squared_profile():
    dk = 2.0
    p = params(dk=dk)
    zs = np.linspace(0.1, 0.9 * 2 * math.pi / dk, 30)
    fit = fit_gain([(z, abs(closed_form_signal(p, z))) for z in zs])
    assert fit.residual > 1e-2


def test_fit_gain_input_validation():
    with pytest.raises(TooFewSamples):
        fit_gain([(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(NonPositiveAmplitude):
        fit_gain([(0.0, 1.0), (1.0, 0.0), (2.0, 1.0)])
