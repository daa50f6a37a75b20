"""polywave benchmark: the CLI's simulate -> detect loop on seeded workloads.

    python3 bench/run.py --workload rod-io --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One closed-loop caller in one process: each cycle runs ``polywave.cli.main``
for ``simulate`` (rod workloads) and then ``detect``, one command at a time,
for about --seconds.  --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced cycles with cycles that record spans around the
program's public functions, and reports the per-layer metrics and the
tracing overhead.
Every cycle's outputs are checked.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "polywave" / "cli.py").is_file():
    sys.exit(f"error: program sources not found at {SRC / 'polywave'}")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from polywave import cli  # noqa: E402

WORKLOADS = tuple(workloads.GENERATORS)
SETUP_REPEATS = 5
MIN_CYCLES = 2  # two simulate runs per benchmark run, for the determinism check

SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
from polywave import cli, scenario
scenario.load_scenario(sys.argv[1])
print(time.perf_counter() - t0)
"""


def summary(values) -> dict:
    values = sorted(values)
    if len(values) == 1:
        return {"n": 1, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": med, "q1": q1, "q3": q3}


def digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def source_provenance() -> dict:
    """Git commit when the checkout is a git work tree with a loose ref, and
    always a digest of the program's sources (the benchmark may run in a
    plain export)."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            sha = ref
        elif (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    files = sorted((SRC / "polywave").glob("*.py"))
    return {"git_sha": sha, "source_sha256": digest(*files)}


def measure_setup(config: Path) -> list[float]:
    """Fresh-interpreter import of polywave.cli plus load_scenario, repeated."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(config)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Bench:
    """Runs cycles of one workload and checks every command's outputs."""

    def __init__(self, workload, work: Path):
        self.wl = workload
        self.trace_path = workload.traces or work / "traces.csv"
        self.report_path = work / "report.csv"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict = {}  # command -> digest of its validated outputs
        self.check: dict = {}

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # a traceback is a failed command, not a dead benchmark
                rc = f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue(), err.getvalue()

    def _verify(self, command, rc, stdout, stderr) -> str | None:
        if rc != 0:
            return f"{command} exited {rc}: {stderr.strip()[-300:]}"
        if command == "simulate":
            rows = self.trace_path.read_bytes().count(b"\n") - 1
            if rows != self.wl.trace_samples:
                return f"trace file has {rows} rows, expected {self.wl.trace_samples}"
            outputs = (self.trace_path, f"{self.trace_path}.meta.json")
        else:
            outputs = (self.report_path, f"{self.report_path}.meta.json")
        d = digest(*outputs)
        if command not in self.first:
            if command == "detect":
                self.check = workloads.check_report(self.wl, self.report_path)
                rows = self.check["report_rows"]
                vertex = self.check.get("vertex_hits", 0)
                if stdout.strip() != f"interface_hits={rows - vertex} vertex_hits={vertex}":
                    return f"detect summary {stdout.strip()!r} disagrees with the report"
                if not self.check["ok"]:
                    return f"report fails the ground-truth check: {self.check}"
            self.first[command] = d
        elif d != self.first[command]:
            return f"{command} outputs differ from the first cycle's (not byte-identical)"
        return None

    def cycle(self, tracer=None) -> dict:
        cfg = str(self.wl.config)
        commands = []
        if self.wl.simulate:
            commands.append(("simulate", ["simulate", "--config", cfg, "--out", str(self.trace_path)]))
        commands.append(("detect", ["detect", "--config", cfg, "--traces", str(self.trace_path),
                                    "--out", str(self.report_path)]))
        times, results = {}, []
        t_cycle = time.perf_counter()
        for command, argv in commands:
            t0 = time.perf_counter()
            if tracer is None:
                results.append((command, *self._cli(argv)))
            else:
                with tracer.span(f"cli.{command}"):
                    results.append((command, *self._cli(argv)))
            times[command] = time.perf_counter() - t0
        times["pipeline"] = time.perf_counter() - t_cycle
        for command, rc, stdout, stderr in results:
            self.attempted += 1
            problem = self._verify(command, rc, stdout, stderr)
            if problem:
                self.failed += 1
                self.errors.append(problem)
        return times

    def run(self, seconds: float, traced: bool):
        """Cycles until the next one would end after `seconds`.

        With `traced`, untraced and traced cycles alternate, so a drift in
        machine speed during the run shows in both and not in their
        difference.  Returns (untraced cycle times, traced cycle times,
        one tracer per traced cycle).
        """
        plain, spanned, tracers = [], [], []
        start = time.perf_counter()
        while (len(plain) < MIN_CYCLES or (traced and not spanned)
               or time.perf_counter() - start
               + statistics.median(c["pipeline"] for c in plain + spanned) <= seconds):
            if traced and len(spanned) < len(plain):
                tracer = tracing.Tracer()
                with tracing.instrumented(tracer), tracer.span("cycle"):
                    spanned.append(self.cycle(tracer))
                tracers.append(tracer)
            else:
                plain.append(self.cycle())
        return plain, spanned, tracers


# ---------------------------------------------------------------------------
# metrics

END_TO_END_UNITS = {"pipeline_s": "s", "detect_s": "s", "samples_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "traceio.write_traces_s": "s", "traceio.read_traces_s": "s", "traceio.trace_mb": "MB",
    "traceio.write_mb_per_s": "MB/s", "traceio.read_mb_per_s": "MB/s",
    "traceio.write_report_s": "s", "traceio.report_rows": "count",
    "traceio.share_of_pipeline": "%",
    "detect.synthesize_s": "s", "detect.synthesize_calls": "count", "detect.crossings": "count",
    "detect.synthesize_us_per_crossing": "us", "detect.synthesize_share_of_simulate": "%",
    "geometry.classify_facets_calls": "count", "geometry.classify_facets_s": "s",
    "scenario.load_s": "s", "geometry.build_complex_s": "s",
    "detect.interfaces_s": "s", "detect.interface_hits": "count",
    "detect.interfaces_ns_per_sample_candidate": "ns",
    "detect.coupled_mode_s": "s", "detect.coupled_mode_fits": "count",
    "detect.coupled_mode_evaluations": "count", "detect.coupled_mode_us_per_eval": "us",
    "detect.coupled_mode_accepts": "count", "detect.coupled_mode_rejects": "count",
    "detect.coupled_mode_share_of_detect": "%",
    "detect.cascade_s": "s", "detect.cascade_calls": "count",
    "detect.fwm_s": "s", "detect.fwm_calls": "count",
    "cli.simulate_s": "s", "cli.detect_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced cycle."""
    busy, calls, counts = defaultdict(float), Counter(), Counter()
    for s in spans:
        busy[s.name] += s.duration
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}.{key}"] += value
    own = tracing.self_times(spans)
    write_mb = counts["traceio.write_traces.bytes"] / 1e6
    read_mb = counts["traceio.read_traces.bytes"] / 1e6
    traceio_s = busy["traceio.write_traces"] + busy["traceio.read_traces"] + busy["traceio.write_report"]
    return {
        "traceio.write_traces_s": busy["traceio.write_traces"],
        "traceio.read_traces_s": busy["traceio.read_traces"],
        "traceio.trace_mb": read_mb,
        "traceio.write_mb_per_s": _ratio(write_mb, busy["traceio.write_traces"]),
        "traceio.read_mb_per_s": _ratio(read_mb, busy["traceio.read_traces"]),
        "traceio.write_report_s": busy["traceio.write_report"],
        "traceio.report_rows": counts["traceio.write_report.rows"],
        "traceio.share_of_pipeline": _ratio(traceio_s, busy["cycle"], 100.0),
        "detect.synthesize_s": busy["detect.synthesize"],
        "detect.synthesize_calls": calls["detect.synthesize"],
        "detect.crossings": counts["detect.synthesize.crossings"],
        "detect.synthesize_us_per_crossing": _ratio(
            busy["detect.synthesize"], counts["detect.synthesize.crossings"], 1e6),
        "detect.synthesize_share_of_simulate": _ratio(
            busy["detect.synthesize"], busy["cli.simulate"], 100.0),
        "geometry.classify_facets_calls": calls["geometry.classify_facets"],
        "geometry.classify_facets_s": busy["geometry.classify_facets"],
        "scenario.load_s": busy["scenario.load"],
        "geometry.build_complex_s": busy["geometry.build_complex"],
        "detect.interfaces_s": busy["detect.interfaces"],
        "detect.interface_hits": counts["detect.interfaces.hits"],
        "detect.interfaces_ns_per_sample_candidate": _ratio(
            busy["detect.interfaces"], counts["detect.interfaces.sample_candidates"], 1e9),
        "detect.coupled_mode_s": busy["detect.coupled_mode"],
        "detect.coupled_mode_fits": calls["detect.coupled_mode"],
        "detect.coupled_mode_evaluations": counts["detect.coupled_mode.evaluations"],
        "detect.coupled_mode_us_per_eval": _ratio(
            busy["detect.coupled_mode"], counts["detect.coupled_mode.evaluations"], 1e6),
        "detect.coupled_mode_accepts": counts["detect.coupled_mode.accepts"],
        "detect.coupled_mode_rejects": counts["detect.coupled_mode.rejects"],
        "detect.coupled_mode_share_of_detect": _ratio(
            busy["detect.coupled_mode"], busy["cli.detect"], 100.0),
        "detect.cascade_s": busy["detect.cascade"],
        "detect.cascade_calls": calls["detect.cascade"],
        "detect.fwm_s": busy["detect.fwm"],
        "detect.fwm_calls": calls["detect.fwm"],
        "cli.simulate_s": busy["cli.simulate"],
        "cli.detect_s": busy["cli.detect"],
        "cli.self_s": sum(own[s.id] for s in spans if s.name.startswith("cli.")),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        work = Path(tmp)
        wl = workloads.GENERATORS[name](seed, work)
        setup = [] if trace else measure_setup(wl.config)
        bench = Bench(wl, work)
        plain, traced, tracers = bench.run(seconds, trace)
        report_rows = bench.check.get("report_rows", 0)
        trace_bytes = bench.trace_path.stat().st_size if bench.trace_path.exists() else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timings = {f"{k}_s": summary([c[k] for c in plain]) for k in plain[0]}
    pipeline = timings["pipeline_s"]["median"]
    derived = {
        "samples_per_s": wl.trace_samples / pipeline,
        "error_rate": bench.failed / bench.attempted,
    }
    if not wl.simulate:
        derived["fits_per_s"] = wl.sizes["checks"] / pipeline
    if trace:
        per_cycle = [layer_metrics(t.spans) for t in tracers]
        values = {k: statistics.median(m[k] for m in per_cycle) for k in per_cycle[0]}
        traced_pipeline = summary([c["pipeline"] for c in traced])
        values["trace.overhead_s"] = traced_pipeline["median"] - pipeline
        metrics = {k: {"value": values[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}
        timings["traced_pipeline_s"] = traced_pipeline
    else:
        timings["setup_s"] = summary(setup)
        values = {"pipeline_s": pipeline, "detect_s": timings["detect_s"]["median"],
                  "samples_per_s": derived["samples_per_s"], "setup_s": timings["setup_s"]["median"],
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    correct = bench.failed == 0 and bool(bench.check.get("ok"))
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "closed_loop": "one caller, one command at a time, in-process",
        **source_provenance(),
        "python": platform.python_version(), "numpy": workloads.np.__version__,
        "nproc": os.cpu_count(),
        "repeats": {"cycles": len(plain), "traced_cycles": len(tracers), "setup": len(setup)},
        "sizes": {**wl.sizes, "trace_bytes": trace_bytes, "report_rows": report_rows},
        "check": bench.check, "timings": timings, **derived,
    }
    for k, s in timings.items():
        print(f"# {name:10s} {k:18s} median {s['median']:.6g} s  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    for k, v in derived.items():
        print(f"# {name:10s} {k:18s} {v:.6g} {'1/s' if k.endswith('per_s') else 'ratio'}")
    for k, m in metrics.items():
        print(f"# {name:10s} {k:40s} {m['value']:.6g} {m['unit']}")
    for e in bench.errors[:5]:
        print(f"# error: {e}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak memory is per process)."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
