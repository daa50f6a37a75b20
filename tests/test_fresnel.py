"""Normal-incidence amplitude coefficients and their exact identities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polywave.fresnel import (
    EmMedium,
    NonPositiveIndex,
    amplitude_coefficients_normal,
    energy_residual,
)

indices = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)


def test_identical_media():
    c = amplitude_coefficients_normal(1.0, 1.0)
    assert c.r == 0.0
    assert c.t == 1.0


def test_into_denser_medium():
    c = amplitude_coefficients_normal(1.0, 1.5)
    assert c.r == pytest.approx(-0.2, abs=1e-15)
    assert c.t == pytest.approx(0.8, abs=1e-15)


def test_into_rarer_medium_t_above_one():
    c = amplitude_coefficients_normal(1.5, 1.0)
    assert c.r == pytest.approx(0.2, abs=1e-15)
    assert c.t == pytest.approx(1.2, abs=1e-15)
    assert c.t > 1.0


def test_nonpositive_index_rejected():
    with pytest.raises(NonPositiveIndex):
        amplitude_coefficients_normal(0.0, 1.0)
    with pytest.raises(NonPositiveIndex):
        amplitude_coefficients_normal(1.0, -2.0)
    c = amplitude_coefficients_normal(1.0, 1.5)
    with pytest.raises(NonPositiveIndex, match=r"^indices must be > 0, got n1=0, n2=1.5$"):
        energy_residual(c, 0, 1.5)


def test_energy_residual_examples():
    c = amplitude_coefficients_normal(1.0, 1.5)
    assert abs(energy_residual(c, 1.0, 1.5)) < 1e-12
    c0 = amplitude_coefficients_normal(1.0, 1.0)
    assert energy_residual(c0, 1.0, 1.0) == 0.0


def test_energy_residual_flags_nonphysical_pair():
    from polywave.fresnel import InterfaceCoefficients

    bad = InterfaceCoefficients(r=0.5, t=0.5)
    assert energy_residual(bad, 2.0, 2.0) == pytest.approx(-0.5)


def test_em_medium_validation():
    with pytest.raises(NonPositiveIndex):
        EmMedium(refractive_index=0.0)


@given(indices, indices)
def test_continuity_identity_is_exact(n1, n2):
    c = amplitude_coefficients_normal(n1, n2)
    assert 1.0 + c.r == c.t


@given(indices, indices)
def test_energy_residual_tiny(n1, n2):
    c = amplitude_coefficients_normal(n1, n2)
    assert abs(energy_residual(c, n1, n2)) <= 1e-12


@given(indices, indices)
def test_swap_antisymmetry_exact(n1, n2):
    assert (
        amplitude_coefficients_normal(n1, n2).r
        == -amplitude_coefficients_normal(n2, n1).r
    )


@given(indices)
def test_matched_media_identity(n):
    c = amplitude_coefficients_normal(n, n)
    assert c.r == 0.0
    assert c.t == 1.0


@given(indices, indices)
def test_reflection_bounded(n1, n2):
    c = amplitude_coefficients_normal(n1, n2)
    assert -1.0 < c.r < 1.0
    assert 0.0 < c.t < 2.0
