"""Coupled-mode integration, closed-form power exchange, and cascades."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywave.coupled_mode import (
    MAX_GRID_STEPS,
    BothZero,
    CascadeSpec,
    CoupledModeParams,
    CouplerStage,
    DelayStage,
    MalformedSpec,
    NegativeLength,
    NonPositiveStep,
    cascade_transfer,
    closed_form_power,
    coupler_matrix,
    delay_matrix,
    integrate_coupled_modes,
    rk4_step_matrix,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_decoupled_pure_phase_rotation():
    p = CoupledModeParams(beta1=2.0, beta2=3.0)
    traj = integrate_coupled_modes(p, 1.0, step=1e-3)
    assert np.all(traj.b == 0j)
    assert np.max(np.abs(np.abs(traj.a) - 1.0)) < 1e-8
    # the phase advances as exp(-i beta1 z)
    assert traj.a[-1] == pytest.approx(np.exp(-2.0j), rel=1e-8)


def test_complete_transfer_at_quarter_beat():
    p = CoupledModeParams(beta1=1.0, beta2=1.0, kappa12=1.0 + 0j, kappa21=1.0 + 0j)
    traj = integrate_coupled_modes(p, math.pi / 2, step=1e-3)
    assert abs(traj.a[-1]) ** 2 < 1e-6
    assert abs(traj.b[-1]) ** 2 > 1.0 - 1e-6


def test_grid_starts_at_zero_with_initial_conditions():
    p = CoupledModeParams(beta1=1.0, beta2=1.0, kappa12=0.3 + 0j, kappa21=0.3 + 0j)
    traj = integrate_coupled_modes(p, 1.0, step=0.3, a0=0.5 + 0.1j, b0=0.2j)
    assert traj.z_grid[0] == 0.0
    assert traj.a[0] == 0.5 + 0.1j
    assert traj.b[0] == 0.2j
    # a short final step lands exactly on z_max
    assert traj.z_grid[-1] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(traj.z_grid) > 0)


def test_integrator_matches_closed_form():
    kappa, db = 0.9, 0.6
    p = CoupledModeParams(beta1=1.0 + db, beta2=1.0, kappa12=kappa, kappa21=kappa)
    traj = integrate_coupled_modes(p, 4 * math.pi / kappa, step=1e-3 / kappa)
    pa, pb = closed_form_power(db, kappa, traj.z_grid)
    assert np.max(np.abs(np.abs(traj.b) ** 2 - pb)) < 1e-6
    assert np.max(np.abs(np.abs(traj.a) ** 2 - pa)) < 1e-6


def test_step_validation():
    p = CoupledModeParams(beta1=1.0, beta2=1.0)
    with pytest.raises(NonPositiveStep):
        integrate_coupled_modes(p, 1.0, step=0.0)
    with pytest.raises(ValueError):
        integrate_coupled_modes(p, 0.5, step=1.0)


@pytest.mark.parametrize("z_max, step, steps", [
    (math.inf, 1.0, "inf"), (math.inf, None, "inf"), (1.0, 1e-12, "1e+12"),
    (math.nan, 1.0, "nan"), (1.0, math.nan, "nan"), (2e6, 1.0, "2e+06"),
])
def test_integrate_coupled_modes_refuses_too_many_steps_before_building_the_grid(
    z_max, step, steps, monkeypatch
):
    """More than MAX_GRID_STEPS steps, or a z_max or step that is not finite,
    is a ValueError before the grid is built: z_max = inf used to raise an
    OverflowError, and a step of 1e-12 would build a list of 1e12 steps."""
    def never(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(np, "floor", never)
    p = CoupledModeParams(beta1=1.0, beta2=1.0, kappa12=0.1, kappa21=0.1)
    with pytest.raises(ValueError, match=re.escape(f"z_max / step must be <= 1000000, got {steps}")):
        integrate_coupled_modes(p, z_max, step)


def test_default_step_used_when_omitted():
    p = CoupledModeParams(beta1=2.0, beta2=2.0, kappa12=0.1, kappa21=0.1)
    traj = integrate_coupled_modes(p, 1.0)
    assert traj.z_grid[1] == pytest.approx(1e-3 * 2 * math.pi / 2.0)
    # with every rate zero there is no beat period: 1000 steps of z_max / 1000
    traj = integrate_coupled_modes(CoupledModeParams(0.0, 0.0), 1.0)
    assert len(traj.z_grid) == 1001
    assert traj.z_grid[1] == 1.0 / 1000.0


def scalar_rk4_reference(p, z_max, step, a0, b0):
    """Textbook RK4 on the two coupled amplitudes, one scalar stage at a
    time, with the same step schedule as integrate_coupled_modes."""
    ca = -1j * (p.beta1 + p.kappa11)
    cb = -1j * (p.beta2 + p.kappa22)
    cab = -1j * p.kappa12
    cba = -1j * p.kappa21
    n_full = int(np.floor(z_max / step + 1e-12))
    steps = [step] * n_full
    if z_max - n_full * step > 1e-12 * z_max:
        steps.append(z_max - n_full * step)
    a, b = complex(a0), complex(b0)
    out_a, out_b = [a], [b]
    for h in steps:
        k1a = ca * a + cab * b
        k1b = cb * b + cba * a
        a2 = a + 0.5 * h * k1a
        b2 = b + 0.5 * h * k1b
        k2a = ca * a2 + cab * b2
        k2b = cb * b2 + cba * a2
        a3 = a + 0.5 * h * k2a
        b3 = b + 0.5 * h * k2b
        k3a = ca * a3 + cab * b3
        k3b = cb * b3 + cba * a3
        a4 = a + h * k3a
        b4 = b + h * k3b
        k4a = ca * a4 + cab * b4
        k4b = cb * b4 + cba * a4
        a = a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        b = b + (h / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
        out_a.append(a)
        out_b.append(b)
    return np.asarray(out_a), np.asarray(out_b)


@pytest.mark.parametrize(
    "p",
    [
        CoupledModeParams(beta1=2.4, beta2=1.7, kappa12=0.5, kappa21=0.9),
        CoupledModeParams(beta1=-3.0, beta2=4.5, kappa11=0.3, kappa22=-0.2,
                          kappa12=1.2 - 0.7j, kappa21=1.2 + 0.7j),
        CoupledModeParams(beta1=0.0, beta2=0.0, kappa12=2.0, kappa21=-1.5),
        CoupledModeParams(beta1=1.0, beta2=1.0),
    ],
)
def test_step_matrix_matches_scalar_rk4(p):
    # 200 full steps plus a short final one
    traj = integrate_coupled_modes(p, 2.003, step=0.01, a0=0.8, b0=0.6j)
    ref_a, ref_b = scalar_rk4_reference(p, 2.003, 0.01, 0.8, 0.6j)
    assert len(traj.a) == len(ref_a) == 202
    scale = max(np.max(np.abs(ref_a)), np.max(np.abs(ref_b)))
    assert np.max(np.abs(traj.a - ref_a)) <= 1e-13 * scale
    assert np.max(np.abs(traj.b - ref_b)) <= 1e-13 * scale


def test_step_matrix_is_degree_four_taylor_polynomial():
    gen = np.array([[0.4, 1.1 - 0.2j], [0.3j, -0.8]])
    h = 0.07
    m = -1j * h * gen
    expected = np.eye(2) + m + m @ m / 2 + m @ m @ m / 6 + m @ m @ m @ m / 24
    assert np.allclose(rk4_step_matrix(gen, h), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_step_matrix_of_a_stack_equals_the_per_matrix_calls(real):
    # the coupled-mode fit steps a (k, 2, 2) stack of real generators at
    # once; its accepted residuals are pinned to the per-matrix bits
    rng = np.random.default_rng(7)
    gens = rng.uniform(-20.0, 20.0, (2000, 2, 2))
    if not real:
        gens = gens + 1j * rng.uniform(-20.0, 20.0, (2000, 2, 2))
    for h in (0.05, 0.0123, 1.0 / 3.0):
        stack = rk4_step_matrix(gens, h)
        assert stack.shape == gens.shape
        assert all(np.array_equal(step, rk4_step_matrix(gen, h)) for step, gen in zip(stack, gens))


def test_closed_form_complete_transfer():
    pa, pb = closed_form_power(0.0, 1.0, math.pi / 2)
    assert pb == pytest.approx(1.0, abs=1e-15)
    assert pa == pytest.approx(0.0, abs=1e-15)


def test_closed_form_at_origin():
    assert closed_form_power(1.7, 0.4, 0.0) == (1.0, 0.0)


def test_closed_form_detuned_peak_is_half():
    kappa = 1.3
    z = np.linspace(0.0, 20.0, 200_001)
    _, pb = closed_form_power(2 * kappa, kappa, z)
    assert np.max(pb) == pytest.approx(0.5, abs=1e-8)


def test_closed_form_rejects_double_zero():
    with pytest.raises(BothZero):
        closed_form_power(0.0, 0.0, 1.0)


def test_closed_form_array_input():
    pa, pb = closed_form_power(0.3, 0.8, np.array([0.0, 0.5, 1.0]))
    assert pa.shape == pb.shape == (3,)


@given(
    db=st.floats(min_value=-4.0, max_value=4.0),
    kappa=st.floats(min_value=0.05, max_value=4.0),
    z=st.floats(min_value=0.0, max_value=50.0),
)
def test_closed_form_power_partition(db, kappa, z):
    pa, pb = closed_form_power(db, kappa, z)
    assert pa + pb == 1.0
    assert pb <= kappa**2 / (db**2 / 4 + kappa**2) + 1e-15


@settings(deadline=None, max_examples=25)
@given(
    beta1=finite,
    beta2=finite,
    k_re=st.floats(min_value=-2.0, max_value=2.0),
    k_im=st.floats(min_value=-2.0, max_value=2.0),
    k11=st.floats(min_value=-2.0, max_value=2.0),
    k22=st.floats(min_value=-2.0, max_value=2.0),
)
def test_hermitian_coupling_conserves_power(beta1, beta2, k_re, k_im, k11, k22):
    k12 = complex(k_re, k_im)
    p = CoupledModeParams(
        beta1=beta1, beta2=beta2, kappa11=k11, kappa22=k22,
        kappa12=k12, kappa21=k12.conjugate(),
    )
    traj = integrate_coupled_modes(p, 2.0, step=2e-3, a0=0.8, b0=0.6j)
    power = np.abs(traj.a) ** 2 + np.abs(traj.b) ** 2
    assert np.max(np.abs(power - 1.0)) < 1e-8


def test_coupler_matrix_identity_and_splits():
    assert np.array_equal(coupler_matrix(0.0, 1.0), np.eye(2, dtype=complex))
    y = coupler_matrix(math.pi / 4, 1.0) @ np.array([1.0, 0.0])
    assert abs(y[0]) ** 2 == pytest.approx(0.5, abs=1e-15)
    assert abs(y[1]) ** 2 == pytest.approx(0.5, abs=1e-15)
    y = coupler_matrix(math.pi / 2, 1.0) @ np.array([1.0, 0.0])
    assert y[0] == pytest.approx(0.0, abs=1e-15)
    assert y[1] == pytest.approx(-1j, abs=1e-15)


def test_coupler_matrix_rejects_negative_length():
    with pytest.raises(NegativeLength):
        coupler_matrix(1.0, -0.1)


def test_delay_matrix_basic():
    assert np.array_equal(delay_matrix(0.0, 1.0, 2.0), np.eye(2, dtype=complex))
    m = delay_matrix(2.0, 0.7, 0.7)
    assert m[0, 0] == m[1, 1]
    assert m[0, 1] == m[1, 0] == 0.0
    # beta * (L2 - L1) = pi gives a relative sign flip up to global phase
    m = delay_matrix(math.pi, 1.0, 2.0)
    assert m[1, 1] / m[0, 0] == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(NegativeLength):
        delay_matrix(1.0, -1.0, 0.0)


def test_cascade_single_stage_is_coupler():
    spec = CascadeSpec((CouplerStage(kappa=0.8, length=0.9),))
    assert np.array_equal(cascade_transfer(spec), coupler_matrix(0.8, 0.9))


def test_cascade_two_quarter_couplers_cross_over():
    spec = CascadeSpec(
        (
            CouplerStage(kappa=math.pi / 4, length=1.0),
            DelayStage(beta=0.0, length1=0.0, length2=0.0),
            CouplerStage(kappa=math.pi / 4, length=1.0),
        )
    )
    y = cascade_transfer(spec) @ np.array([1.0, 0.0])
    assert abs(y[0]) ** 2 < 1e-12
    assert abs(y[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_cascade_applies_first_stage_first():
    spec = CascadeSpec(
        (
            CouplerStage(kappa=0.3, length=1.0),
            DelayStage(beta=1.1, length1=0.4, length2=0.9),
            CouplerStage(kappa=0.7, length=1.0),
        )
    )
    expected = (
        coupler_matrix(0.7, 1.0) @ delay_matrix(1.1, 0.4, 0.9) @ coupler_matrix(0.3, 1.0)
    )
    assert np.allclose(cascade_transfer(spec), expected, atol=1e-15)


def test_cascade_malformed_specs_rejected():
    with pytest.raises(MalformedSpec):
        cascade_transfer(CascadeSpec(()))
    with pytest.raises(MalformedSpec):
        cascade_transfer(CascadeSpec((DelayStage(1.0, 0.1, 0.2),)))
    with pytest.raises(MalformedSpec):
        cascade_transfer(
            CascadeSpec((CouplerStage(1.0, 1.0), CouplerStage(1.0, 1.0)))
        )
    with pytest.raises(MalformedSpec):
        cascade_transfer(
            CascadeSpec((CouplerStage(1.0, 1.0), DelayStage(1.0, 0.1, 0.2)))
        )


@st.composite
def cascade_specs(draw):
    n_couplers = draw(st.integers(min_value=1, max_value=3))
    stages = []
    for j in range(n_couplers):
        if j:
            stages.append(
                DelayStage(
                    beta=draw(finite),
                    length1=draw(st.floats(min_value=0.0, max_value=3.0)),
                    length2=draw(st.floats(min_value=0.0, max_value=3.0)),
                )
            )
        stages.append(
            CouplerStage(
                kappa=draw(finite),
                length=draw(st.floats(min_value=0.0, max_value=3.0)),
            )
        )
    return CascadeSpec(tuple(stages))


@given(cascade_specs())
def test_cascade_unitary(spec):
    t = cascade_transfer(spec)
    assert np.max(np.abs(t.conj().T @ t - np.eye(2))) < 1e-12


@given(
    cascade_specs(),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_cascade_conserves_input_power(spec, xr, xi, yr, yi):
    x = np.array([complex(xr, xi), complex(yr, yi)])
    y = cascade_transfer(spec) @ x
    in_p = float(np.sum(np.abs(x) ** 2))
    out_p = float(np.sum(np.abs(y) ** 2))
    assert out_p == pytest.approx(in_p, abs=1e-12 * (1.0 + in_p))
