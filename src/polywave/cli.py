"""Command-line front end.

Subcommands: simulate, detect, coupler, slab-modes, fwm.  Diagnostics go
to stderr; summary lines and tables to stdout; bulk data to --out files.
Exit codes: 0 ok, 2 config parse error, 3 geometry error, 4 trace/report
schema mismatch, 5 malformed coupler or command spec.
"""

from __future__ import annotations

import argparse
import cmath
import sys

import numpy as np

from . import coupled_mode as cm
from . import fwm as fwm_mod
from . import scenario as sc
from . import traceio
from .geometry import GeometryError
from .traceio import fmt_float
from .waveguide import SlabSpec, solve_te_slab_modes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GEOMETRY = 3
EXIT_SCHEMA = 4
EXIT_SPEC = 5


def _fmt_c(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


# [detection] key -> the dest of the command-line flag that replaces it
FLAGS = {"seed": "seed", "noise_sigma": "noise", "tol": "tol", "paper_exact": "paper_exact"}


def _load_scenario(args) -> sc.Scenario:
    flags = {key: ("--" + dest.replace("_", "-"), getattr(args, dest))
             for key, dest in FLAGS.items() if getattr(args, dest, None) is not None}
    try:
        return sc.load_scenario(args.config, flags)
    except FileNotFoundError:
        raise sc.ConfigParseError(f"config file not found: {args.config}")


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    traces = sc.run_simulate(scenario)
    traceio.write_traces(
        args.out,
        traces,
        extra_meta={
            "wave_kind": scenario.wave_kind,
            "seed": scenario.seed,
            "noise_sigma": scenario.noise_sigma,
            "tol": scenario.tol,
            "paper_exact": scenario.paper_exact,
        },
    )
    print(f"wrote {len(traces)} trace(s) to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_detect(args) -> int:
    scenario = _load_scenario(args)
    traces, meta = traceio.read_traces(args.traces)
    if meta.get("wave_kind") != scenario.wave_kind:
        raise traceio.SchemaMismatch(
            f"traces are {meta.get('wave_kind')!r} but the scenario is {scenario.wave_kind!r}"
        )
    report = sc.run_detect(scenario, traces)
    traceio.write_report(args.out, report)
    print(
        f"interface_hits={len(report.interface_hits)} vertex_hits={len(report.vertex_hits)}"
    )
    return EXIT_OK


def _finite(text: str, convert=float):
    """text read by convert (float or complex), or None unless that is a
    finite number."""
    try:
        value = convert(text)
    except ValueError:
        return None
    return value if cmath.isfinite(value) else None


def _finite_flag(text: str) -> float:
    """The type of a float flag: argparse exits 2 naming the flag unless its
    value is a finite number."""
    value = _finite(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _amplitude(text: str, flag: str) -> complex:
    value = _finite(text, complex)
    if value is None:
        raise cm.MalformedSpec(f"bad {flag} amplitude {text!r}")
    return value


def _parse_stage(token: str):
    kind, _, rest = token.partition(":")
    values = [_finite(p) for p in rest.split(",")] if rest else []
    if None in values:
        raise cm.MalformedSpec(f"bad stage token {token!r}")
    if kind == "c" and len(values) == 2:
        stage = cm.CouplerStage(kappa=values[0], length=values[1])
    elif kind == "d" and len(values) == 3:
        stage = cm.DelayStage(beta=values[0], length1=values[1], length2=values[2])
    else:
        raise cm.MalformedSpec(
            f"bad stage token {token!r}; use c:KAPPA,L or d:BETA,L1,L2"
        )
    # its phases, KAPPA*L or BETA*L1 and BETA*L2, must be finite too
    if not all(cmath.isfinite(values[0] * length) for length in values[1:]):
        raise cm.MalformedSpec(f"bad stage token {token!r}: its phase overflows")
    return stage


def cmd_coupler(args) -> int:
    if not args.stage:
        raise cm.MalformedSpec("no stages given")
    spec = cm.CascadeSpec(tuple(_parse_stage(t) for t in args.stage))
    total = cm.cascade_transfer(spec)
    x = np.array([_amplitude(p, "--input") for p in args.input.split(",")], dtype=complex)
    if x.shape != (2,):
        raise cm.MalformedSpec("--input needs exactly two comma-separated amplitudes")
    with np.errstate(over="ignore"):
        power = np.abs(total @ x) ** 2
    if not np.isfinite(power).all():
        raise cm.MalformedSpec(f"--input {args.input} overflows the output power")
    unit = float(np.max(np.abs(total.conj().T @ total - np.eye(2))))
    for i in range(2):
        for j in range(2):
            print(f"T{i}{j} = {_fmt_c(total[i, j])}")
    print(f"unitarity = {fmt_float(unit)}")
    print(f"P1 = {fmt_float(power[0])}")
    print(f"P2 = {fmt_float(power[1])}")
    return EXIT_OK


def cmd_slab_modes(args) -> int:
    if (args.k0 is None) == (args.wavelength is None):
        raise ValueError("give exactly one of --k0 or --wavelength")
    if args.wavelength is not None and args.wavelength <= 0:
        raise ValueError(f"wavelength must be > 0, got {args.wavelength}")
    k0 = args.k0 if args.k0 is not None else 2.0 * np.pi / args.wavelength
    slab = SlabSpec(n_core=args.core, n_clad=args.clad, thickness=args.thickness, k0=k0)
    modes = solve_te_slab_modes(slab, max_modes=args.max_modes)
    print("# order parity beta kappa_t gamma residual")
    for m in modes:
        print(
            f"{m.order} {m.parity} {fmt_float(m.beta)} {fmt_float(m.kappa_t)} "
            f"{fmt_float(m.gamma)} {fmt_float(m.residual)}"
        )
    print(f"modes = {len(modes)}", file=sys.stderr)
    return EXIT_OK


def cmd_fwm(args) -> int:
    params = fwm_mod.FwmParams(
        omega_s=args.omega_s,
        k_s=args.k_s,
        chi3_eff=args.chi3,
        e1=_amplitude(args.e1, "--e1"),
        e2=_amplitude(args.e2, "--e2"),
        e3=_amplitude(args.e3, "--e3"),
        delta_k_z=args.delta_k,
    )
    samples = fwm_mod.integrate_signal(params, args.z_max, args.step)
    if args.closed_form:
        print("# z |E_s| |E_closed|")
        for z, e in samples:
            ec = fwm_mod.closed_form_signal(params, z)
            print(f"{fmt_float(z)} {fmt_float(abs(e))} {fmt_float(abs(ec))}")
    else:
        print("# z |E_s|")
        for z, e in samples:
            print(f"{fmt_float(z)} {fmt_float(abs(e))}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polywave",
        description="Wave-trace synthesis and interface/vertex detection on simplicial domains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize ray traces from a scenario config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", default=None, help="override config seed")
    p.add_argument("--noise", default=None, help="override config noise sigma")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="detect interfaces/vertices in trace files")
    p.add_argument("--config", required=True)
    p.add_argument("--traces", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", default=None, help="override config tolerance")
    p.add_argument("--paper-exact", action="store_const", const="true", dest="paper_exact",
                   help="match acoustic candidates with the as-published transmittance")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("coupler", help="evaluate a coupler/delay cascade")
    p.add_argument("stage", nargs="*", help="stages in order: c:KAPPA,L or d:BETA,L1,L2")
    p.add_argument("--input", default="1,0", help="input amplitudes X1,X2 (complex ok)")
    p.set_defaults(func=cmd_coupler)

    p = sub.add_parser("slab-modes", help="guided TE modes of a symmetric slab")
    p.add_argument("--core", type=_finite_flag, required=True)
    p.add_argument("--clad", type=_finite_flag, required=True)
    p.add_argument("--thickness", type=_finite_flag, required=True)
    p.add_argument("--k0", type=_finite_flag, default=None)
    p.add_argument("--wavelength", type=_finite_flag, default=None)
    p.add_argument("--max-modes", type=int, default=64)
    p.set_defaults(func=cmd_slab_modes)

    p = sub.add_parser("fwm", help="four-wave-mixing signal growth")
    p.add_argument("--omega-s", type=_finite_flag, required=True, dest="omega_s")
    p.add_argument("--k-s", type=_finite_flag, required=True, dest="k_s")
    p.add_argument("--chi3", type=_finite_flag, required=True)
    p.add_argument("--e1", default="1")
    p.add_argument("--e2", default="1")
    p.add_argument("--e3", default="1")
    p.add_argument("--delta-k", type=_finite_flag, default=0.0, dest="delta_k")
    p.add_argument("--z-max", type=_finite_flag, required=True, dest="z_max")
    p.add_argument("--step", type=_finite_flag, required=True)
    p.add_argument("--closed-form", action="store_true", dest="closed_form")
    p.set_defaults(func=cmd_fwm)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except sc.ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except FileNotFoundError as exc:
        print(f"schema error: missing file {exc.filename}", file=sys.stderr)
        return EXIT_SCHEMA
    except traceio.SchemaMismatch as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (cm.MalformedSpec, ValueError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
