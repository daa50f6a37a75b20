"""Acceptance gate: ten pinned end-to-end guarantees.

Each test prints a one-line summary so a `pytest -s` run doubles as a
checklist.  Tolerances here are contractual; loosening them is a
regression, not a fix.
"""

import math
import time

import numpy as np
import pytest

from polywave import cli
from polywave.acoustic import intensity_coefficients
from polywave.coupled_mode import (
    CoupledModeParams,
    CouplerStage,
    DelayStage,
    CascadeSpec,
    cascade_transfer,
    closed_form_power,
    integrate_coupled_modes,
)
from polywave.detect import (
    FieldTrace,
    Ray,
    detect_interfaces_em,
    detect_vertex_cascade,
    detect_vertex_coupled_mode,
    detect_vertex_fwm,
    synthesize_ray_trace,
)
from polywave.fresnel import EmMedium, amplitude_coefficients_normal
from polywave.fwm import (
    FwmParams,
    GainModel,
    closed_form_signal,
    degenerate_gain,
    fit_gain,
    integrate_signal,
)
from polywave.geometry import build_complex
from polywave.traceio import sidecar_path
from polywave.waveguide import SlabSpec, solve_te_slab_modes

# --------------------------------------------------------------------------
# 1. normal-incidence coefficient identities


def test_acceptance_1_fresnel_identities():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n1, n2 = rng.uniform(0.1, 5.0, size=2)
        c = amplitude_coefficients_normal(n1, n2)
        assert c.t == 1.0 + c.r  # bit-exact continuity
        residual = abs(c.r**2 + (n2 / n1) * c.t**2 - 1.0)
        worst = max(worst, residual)
        assert residual < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"acceptance 1 ok: 1000 index pairs, worst energy residual {worst:.3e}, "
          f"{elapsed:.2f} s")


# --------------------------------------------------------------------------
# 2 + 3. coupled-mode integrator vs closed form, and power conservation


@pytest.fixture(scope="module")
def coupled_trajectories():
    rng = np.random.default_rng(23)
    runs = []
    for _ in range(20):
        kappa = rng.uniform(0.1, 5.0)
        delta = rng.uniform(-2.0 * kappa, 2.0 * kappa)
        p = CoupledModeParams(beta1=delta, beta2=0.0, kappa12=kappa, kappa21=kappa)
        traj = integrate_coupled_modes(p, 4.0 * math.pi / kappa, step=1e-3 / kappa)
        runs.append((delta, kappa, traj))
    return runs


def test_acceptance_2_closed_form_agreement(coupled_trajectories):
    t0 = time.perf_counter()
    worst = 0.0
    for delta, kappa, traj in coupled_trajectories:
        pa, pb = closed_form_power(delta, kappa, traj.z_grid)
        dev = max(
            float(np.max(np.abs(np.abs(traj.a) ** 2 - pa))),
            float(np.max(np.abs(np.abs(traj.b) ** 2 - pb))),
        )
        worst = max(worst, dev)
        assert dev < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"acceptance 2 ok: 20 trajectories, worst power deviation {worst:.3e}")


def test_acceptance_3_power_conservation(coupled_trajectories):
    worst = 0.0
    for _, _, traj in coupled_trajectories:
        total = np.abs(traj.a) ** 2 + np.abs(traj.b) ** 2
        drift = float(np.max(np.abs(total - 1.0)))
        worst = max(worst, drift)
        assert drift < 1e-8
    print(f"acceptance 3 ok: worst |a|^2+|b|^2 drift {worst:.3e}")


# --------------------------------------------------------------------------
# 4. cascade unitarity and the two-coupler cross-over


def test_acceptance_4_cascade_unitarity():
    rng = np.random.default_rng(4)
    eye = np.eye(2)
    worst = 0.0
    for _ in range(100):
        n_couplers = int(rng.integers(1, 4))  # 1..3 couplers -> <= 5 stages
        stages = []
        for j in range(n_couplers):
            if j:
                stages.append(
                    DelayStage(
                        beta=rng.uniform(0.0, 5.0),
                        length1=rng.uniform(0.0, 2.0),
                        length2=rng.uniform(0.0, 2.0),
                    )
                )
            stages.append(
                CouplerStage(kappa=rng.uniform(0.0, 3.0), length=rng.uniform(0.1, 2.0))
            )
        total = cascade_transfer(CascadeSpec(tuple(stages)))
        err = float(np.max(np.abs(total.conj().T @ total - eye)))
        worst = max(worst, err)
        assert err < 1e-12

    crossover = cascade_transfer(CascadeSpec((
        CouplerStage(kappa=math.pi / 4, length=1.0),
        DelayStage(0.0, 0.0, 0.0),
        CouplerStage(kappa=math.pi / 4, length=1.0),
    )))
    out = crossover @ np.array([1.0, 0.0], dtype=complex)
    assert abs(out[0]) ** 2 < 1e-12
    assert abs(abs(out[1]) ** 2 - 1.0) < 1e-12
    print(f"acceptance 4 ok: 100 cascades, worst unitarity defect {worst:.3e}; "
          f"cross-over powers ({abs(out[0])**2:.1e}, {abs(out[1])**2:.15f})")


# --------------------------------------------------------------------------
# 5. slab mode solver bounds, residuals, and monotone mode count


def test_acceptance_5_slab_sweep():
    k0 = 2.0 * math.pi / 1.55e-6
    counts = []
    worst = 0.0
    for d in np.linspace(0.05e-6, 5e-6, 50):
        slab = SlabSpec(n_core=1.5, n_clad=1.0, thickness=float(d), k0=k0)
        modes = solve_te_slab_modes(slab)
        counts.append(len(modes))
        for m in modes:
            assert 1.0 * k0 < m.beta < 1.5 * k0
            worst = max(worst, abs(m.residual))
            assert abs(m.residual) < 1e-10
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    print(f"acceptance 5 ok: thickness sweep counts {counts[0]}..{counts[-1]}, "
          f"worst dispersion residual {worst:.3e}")


# --------------------------------------------------------------------------
# 6. four-wave mixing: quadrature, gain fit, documented discrepancy


def test_acceptance_6_fwm():
    p = FwmParams(
        omega_s=1.2e15, k_s=6.0e6, chi3_eff=1e-22,
        e1=1 + 0j, e2=1 + 0j, e3=1 + 0j, delta_k_z=0.0,
    )
    samples = integrate_signal(p, 0.02, 0.001)
    worst = 0.0
    for z, e in samples[1:]:
        rel = abs(abs(e) - abs(p.drive) * z) / (abs(p.drive) * z)
        worst = max(worst, rel)
        assert rel < 1e-10

    model = GainModel(e_s0=0.3 + 0j, g_s=0.4)
    zs = np.linspace(0.0, 2.0, 50)
    fit = fit_gain([(z, abs(degenerate_gain(model, z))) for z in zs])
    assert abs(fit.model.g_s - 0.4) < 1e-10

    # the printed closed form squares the half-mismatch sinc, the plain
    # quadrature does not: at delta_k*z = pi they disagree by pi^2/2 exactly
    pm = FwmParams(
        omega_s=1.2e15, k_s=6.0e6, chi3_eff=1e-22,
        e1=1 + 0j, e2=1 + 0j, e3=1 + 0j, delta_k_z=math.pi / 0.01,
    )
    quad = [e for z, e in integrate_signal(pm, 0.01, 0.0025) if z == 0.01][0]
    ratio = abs(quad) / abs(closed_form_signal(pm, 0.01))
    assert ratio == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
    print(f"acceptance 6 ok: linear growth rel err {worst:.3e}, "
          f"g_s err {abs(fit.model.g_s - 0.4):.3e}, "
          f"quadrature/closed-form ratio {ratio:.15f}")


# --------------------------------------------------------------------------
# 7. acoustic coefficient identities


def test_acceptance_7_acoustic():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        ratio = rng.uniform(0.01, 100.0)
        t_i, r_i = intensity_coefficients(1.0, ratio)
        residual = abs(t_i + r_i - 1.0)
        worst = max(worst, residual)
        assert residual < 1e-12
    t_pe, _ = intensity_coefficients(1.0, 4.0, paper_exact=True)
    assert abs(t_pe - 16.0 / 9.0) < 1e-12
    print(f"acceptance 7 ok: 1000 impedance ratios, worst T+R-1 {worst:.3e}; "
          f"as-published variant at ratio 4 gives {t_pe:.15f}")


# --------------------------------------------------------------------------
# 8. end-to-end rod detection, noiseless and noisy


ROD = build_complex(
    1,
    [(0.0,), (0.25,), (0.55,), (1.0,)],
    [(0, 1), (1, 2), (2, 3)],
    media={0: 0, 1: 1, 2: 2},
)
ROD_MEDIA = {0: EmMedium(1.0), 1: EmMedium(1.5), 2: EmMedium(2.0)}
ROD_RAY = Ray(origin=(0.0005,), direction=(1.0,), length=0.999, grid_step=0.001)
CANDIDATES = [(1.0, 1.5), (1.5, 2.0), (1.0, 2.0)]
TRUE_INTERFACES = [((1.0, 1.5), 0.25), ((1.5, 2.0), 0.55)]


def classify_hits(hits, slack):
    found = [False, False]
    false_pos = 0
    for h in hits:
        for i, (pair, x) in enumerate(TRUE_INTERFACES):
            if h.media_pair == pair and abs(h.position[0] - x) <= slack:
                found[i] = True
                break
        else:
            false_pos += 1
    return found, false_pos


def test_acceptance_8_rod_detection():
    t0 = time.perf_counter()

    trace = synthesize_ray_trace(ROD, ROD_MEDIA, ROD_RAY)
    assert trace.n_samples == 1000
    hits = detect_interfaces_em(trace, CANDIDATES, tol=1e-6)
    assert len(hits) == 2
    found, false_pos = classify_hits(hits, slack=ROD_RAY.grid_step)
    assert found == [True, True] and false_pos == 0

    full_recall_runs = 0
    total_false_pos = 0
    for seed in range(100):
        noisy = synthesize_ray_trace(ROD, ROD_MEDIA, ROD_RAY, noise_sigma=0.01, seed=seed)
        hits = detect_interfaces_em(noisy, CANDIDATES, tol=0.05)
        found, false_pos = classify_hits(hits, slack=2 * ROD_RAY.grid_step)
        full_recall_runs += all(found)
        total_false_pos += false_pos
    elapsed = time.perf_counter() - t0
    assert full_recall_runs >= 99
    assert total_false_pos / 100.0 <= 1.0
    assert elapsed < 5.0
    print(f"acceptance 8 ok: noiseless exact; noisy recall {full_recall_runs}/100, "
          f"mean false positives {total_false_pos / 100.0:.2f}, {elapsed:.2f} s")


# --------------------------------------------------------------------------
# 9. vertex detectors: accept self-generated, reject mismatched


def _em_trace(z, values, ray_id=0):
    z = np.asarray(z, dtype=float)
    step = float(z[1] - z[0])
    ray = Ray(origin=(0.0,), direction=(1.0,), length=float(z[-1]), grid_step=step)
    return FieldTrace(
        ray=ray, z=z, incident=np.asarray(values, dtype=complex),
        reflected=np.zeros(len(z), dtype=complex),
        medium_ids=tuple(0 for _ in z), wave_kind="em", ray_id=ray_id,
    )


def test_acceptance_9_vertex_detectors():
    # --- self-generated data is accepted with residual < 1e-6
    p = CoupledModeParams(beta1=2.4, beta2=1.7, kappa12=0.5, kappa21=0.9)
    traj = integrate_coupled_modes(p, 1.0, step=0.05, b0=0.3 + 0j)
    v_cm = detect_vertex_coupled_mode(
        _em_trace(traj.z_grid, traj.a), _em_trace(traj.z_grid, traj.b, ray_id=1),
        corner_window=2.0, tol=1e-6,
    )
    assert v_cm.is_vertex and v_cm.residual < 1e-6

    from polywave.coupled_mode import coupler_matrix

    states = [np.array([0.6 + 0.3j, 0.2 - 0.5j])]
    for th in (0.4, 1.1):
        states.append(coupler_matrix(th, 1.0) @ states[-1])
    v_cs = detect_vertex_cascade(
        [_em_trace([0.0, 1.0], s, ray_id=j) for j, s in enumerate(states)], tol=1e-6
    )
    assert v_cs.is_vertex and v_cs.residual < 1e-6

    zs = np.linspace(0.0, 2.0, 41)
    model = GainModel(e_s0=0.2 + 0j, g_s=0.4)
    v_fw = detect_vertex_fwm(
        _em_trace(zs, [degenerate_gain(model, z) for z in zs]),
        chi3=0.0, pump_amps=(1, 1, 1), tol=1e-6,
    )
    assert v_fw.is_vertex and v_fw.residual < 1e-6

    # --- mismatched data is rejected at tol = 1e-3 (100 seeded runs total)
    false_accepts = 0
    z13 = np.arange(13) * 0.05

    for seed in range(34):  # multiplicative random walks, not the coupling ODEs
        rng = np.random.default_rng(100 + seed)
        steps_a = 1.0 + 0.08 * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
        steps_b = 1.0 + 0.08 * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
        a = np.concatenate([[1.0], np.cumprod(steps_a)])
        b = np.concatenate([[0.7], 0.7 * np.cumprod(steps_b)])
        v = detect_vertex_coupled_mode(
            _em_trace(z13, a), _em_trace(z13, b, ray_id=1), corner_window=2.0, tol=1e-3
        )
        false_accepts += v.is_vertex

    for seed in range(33):  # endpoint states with no transfer-matrix relation
        rng = np.random.default_rng(200 + seed)
        traces = [
            _em_trace(
                [0.0, 1.0], rng.standard_normal(2) + 1j * rng.standard_normal(2), ray_id=j
            )
            for j in range(3)
        ]
        false_accepts += detect_vertex_cascade(traces, tol=1e-3).is_vertex

    for seed in range(33):  # log-amplitude corrupted by a random walk
        rng = np.random.default_rng(300 + seed)
        walk = np.cumsum(0.05 * rng.standard_normal(41))
        values = np.exp(0.4 * zs + walk)
        false_accepts += detect_vertex_fwm(
            _em_trace(zs, values), chi3=0.0, pump_amps=(1, 1, 1), tol=1e-3
        ).is_vertex

    assert false_accepts / 100.0 < 0.01
    print(f"acceptance 9 ok: self-generated residuals "
          f"({v_cm.residual:.2e}, {v_cs.residual:.2e}, {v_fw.residual:.2e}); "
          f"false accepts {false_accepts}/100")


# --------------------------------------------------------------------------
# 10. byte-identical repeated simulation


ROD_CONFIG = """\
[geometry]
dimension = 1
vertices = 0.0 | 0.25 | 0.55 | 1.0
simplices = 0 1 | 1 2 | 2 3

[media]
wave_kind = em
medium.0 = n=1.0
medium.1 = n=1.5
medium.2 = n=2.0

[rays]
ray.0 = origin=0.0005 direction=1 length=0.999 grid_step=0.001

[detection]
tol = 1e-6
noise_sigma = 0.01
seed = 99
candidates = 1.0,1.5 | 1.5,2.0 | 1.0,2.0
"""


def test_acceptance_10_deterministic_files(tmp_path):
    cfg = tmp_path / "rod.cfg"
    cfg.write_text(ROD_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert sidecar_path(a).read_text() == sidecar_path(b).read_text()
    print("acceptance 10 ok: repeated simulation is byte-identical "
          f"({len(a.read_bytes())} bytes)")
