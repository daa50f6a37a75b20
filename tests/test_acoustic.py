"""Acoustic line states and interface intensity coefficients."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polywave.acoustic import (
    AcousticMedium,
    LineState,
    NonPositiveImpedance,
    PaperExactSingularity,
    intensity_coefficients,
    line_state,
)

WATER = AcousticMedium(impedance=1.48e6, sound_speed=1480.0, density=1000.0)
impedances = st.floats(min_value=1e2, max_value=1e8)


def test_forward_wave_at_origin():
    st_ = LineState(p_plus=1.0, p_minus=0.0, s=1j * 100.0)
    p, u = line_state(st_, WATER, 0.0, 0.0)
    assert p == pytest.approx(1.0)
    assert u == pytest.approx(1.0 / WATER.impedance)


def test_pressure_antinode():
    st_ = LineState(p_plus=1.0, p_minus=1.0, s=1j * 100.0)
    p, u = line_state(st_, WATER, 0.0, 0.0)
    assert p == pytest.approx(2.0)
    assert u == pytest.approx(0.0, abs=1e-18)


def test_backward_wave_velocity_sign():
    st_ = LineState(p_plus=0.0, p_minus=1.0, s=1j * 100.0)
    p, u = line_state(st_, WATER, 0.1, 0.0)
    assert p != 0.0
    assert u * (p / WATER.impedance) < 0.0


@given(
    x=st.floats(min_value=-10.0, max_value=10.0),
    t=st.floats(min_value=0.0, max_value=1.0),
    omega=st.floats(min_value=1.0, max_value=1e4),
)
def test_forward_wave_impedance_relation(x, t, omega):
    st_ = LineState(p_plus=2.0 + 1.0j, p_minus=0.0, s=1j * omega)
    p, u = line_state(st_, WATER, x, t)
    if abs(u) > 1e-12:
        assert p / u == pytest.approx(WATER.impedance, rel=1e-9)


def test_medium_validation():
    with pytest.raises(NonPositiveImpedance):
        AcousticMedium(impedance=0.0, sound_speed=1480.0)
    with pytest.raises(ValueError):
        AcousticMedium(impedance=1.48e6, sound_speed=-1.0)
    with pytest.raises(ValueError):
        AcousticMedium(impedance=2e6, sound_speed=1480.0, density=1000.0)
    AcousticMedium(impedance=1000.0 * 1480.0, sound_speed=1480.0, density=1000.0)


def test_matched_impedances_default():
    t_i, r_i = intensity_coefficients(7.0, 7.0)
    assert t_i == 1.0
    assert r_i == 0.0


def test_ratio_four_default():
    t_i, r_i = intensity_coefficients(1.0, 4.0)
    assert t_i == pytest.approx(0.64, abs=1e-15)
    assert r_i == pytest.approx(0.36, abs=1e-15)
    assert t_i + r_i == pytest.approx(1.0, abs=1e-15)


def test_ratio_four_as_published_variant():
    t_i, r_i = intensity_coefficients(1.0, 4.0, paper_exact=True)
    assert t_i == pytest.approx(16.0 / 9.0, abs=1e-15)
    assert r_i == pytest.approx(0.36, abs=1e-15)
    assert t_i > 1.0  # the as-published denominator does not conserve energy


def test_as_published_variant_singular_when_matched():
    with pytest.raises(PaperExactSingularity):
        intensity_coefficients(3.0, 3.0, paper_exact=True)
    # the singularity is a ZeroDivisionError subclass
    with pytest.raises(ZeroDivisionError):
        intensity_coefficients(3.0, 3.0, paper_exact=True)


@pytest.mark.parametrize("paper_exact", [False, True])
@pytest.mark.parametrize("z1, z2", [(5e-324, 1e-150), (1e-160, 1.0), (1.0, 1e300)])
def test_ratio_whose_square_is_past_the_float_range(z1, z2, paper_exact):
    """(q +- 1)^2 overflows, where a float power raises OverflowError; T_I
    is 4q/(q +- 1)/(q +- 1), about 4/q, and R_I rounds to 1."""
    t_i, r_i = intensity_coefficients(z1, z2, paper_exact=paper_exact)
    q = z2 / z1
    assert t_i == pytest.approx(4.0 / q, rel=1e-12)
    assert t_i > 0.0
    assert r_i == 1.0


def test_nonpositive_impedance_rejected():
    with pytest.raises(NonPositiveImpedance):
        intensity_coefficients(0.0, 1.0)
    with pytest.raises(NonPositiveImpedance):
        intensity_coefficients(1.0, -1.0)


@given(q=st.floats(min_value=0.01, max_value=100.0))
def test_energy_partition(q):
    t_i, r_i = intensity_coefficients(1.0, q)
    assert abs(t_i + r_i - 1.0) <= 1e-12
    assert 0.0 <= r_i < 1.0
    assert 0.0 < t_i <= 1.0


@given(z1=impedances, z2=impedances)
def test_reciprocity(z1, z2):
    fwd = intensity_coefficients(z1, z2)
    bwd = intensity_coefficients(z2, z1)
    assert fwd[0] == pytest.approx(bwd[0], rel=1e-12)
    assert fwd[1] == pytest.approx(bwd[1], rel=1e-12, abs=1e-15)


def test_line_state_real_s_decays():
    # a positive-real generalized frequency gives exponential x-decay
    st_ = LineState(p_plus=1.0, p_minus=0.0, s=50.0)
    p0, _ = line_state(st_, WATER, 0.0, 0.0)
    p1, _ = line_state(st_, WATER, WATER.sound_speed * 0.1, 0.0)
    assert p1 == pytest.approx(p0 * math.exp(-5.0), rel=1e-12)
