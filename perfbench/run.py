"""qclock benchmark: one closed-loop client calling the library in-process.

    python3 perfbench/run.py --workload sweep_d16 --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off; with
``--trace 1`` it alternates untraced and traced passes of a fixed script and
reports per-layer metrics.  The last line of stdout is one JSON object;
diagnostics go to stderr.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tracing
import verify
from workloads import WORKLOADS, Outcome, random_state

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUP_REPS = 5
REFERENCE = Path(__file__).resolve().parent / "reference.json"
GROWTH_DIMS = {
    "channels.is_covariant": (8, 12, 16),
    "channels.covariant_twirl": (8, 12, 16),
    "channels.validate_cptp": (8, 12, 16),
    "distinguish.common_invariant_decomposition": (8, 12, 16),
    "fisher.qfi": (32, 64, 128),
    "states.DensityMatrix": (32, 64, 128),
}
GROWTH_REPS = 3


def import_qclock():
    """Import qclock afresh from ROOT/src; never from an installed copy."""
    src = ROOT / "src"
    if not (src / "qclock" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qclock sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "qclock" or m.startswith("qclock.")]:
        del sys.modules[name]
    qc = importlib.import_module("qclock")
    importlib.import_module("qclock.cli")
    if Path(qc.__file__).resolve().parent != (src / "qclock").resolve():
        raise SystemExit(f"perfbench: imported qclock from {qc.__file__}, not {src}")
    return qc


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """OpenBLAS's own default thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy < 1.25 has no machine-readable build info
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "machine": platform.machine(),
    }


class Runner:
    """Executes calls of one workload, verifies them and keeps the tallies."""

    def __init__(self, workload, reference):
        self.wl = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, k: int, tracer=None):
        """Run call k; return (kind, seconds in the call, seconds checking, outcome)."""
        call = self.wl.call(k)
        if tracer is not None:
            tracer.request = k
        start = perf_counter()
        try:
            result, error = call.run(), None
        except Exception as exc:  # a failing call is counted, and the run goes on
            result, error = None, exc
        elapsed = perf_counter() - start
        if error is None:
            try:
                outcome = call.check(result)
            except Exception as exc:  # output the checks cannot even read
                error = exc
        if error is not None:
            outcome = Outcome([f"{call.kind}: {type(error).__name__}: {error}"])
        elif self.reference is not None and k < len(self.reference):
            outcome.problems += verify.against_reference(outcome.fields, self.reference[k])
        checking = perf_counter() - start - elapsed
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems.extend(f"call {k}: {p}" for p in outcome.problems)
        return call.kind, elapsed, checking, outcome


def set_up(name: str, seed: int):
    """Import, generate inputs and warm up SETUP_REPS times; keep the last.

    The warm-up calls of the kept set-up are verified and counted as attempted.
    """
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[name]
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        qc = import_qclock()
        WORKDIR.mkdir(exist_ok=True)
        runner = Runner(WORKLOADS[name](qc, seed, str(WORKDIR)), reference)
        for k in runner.wl.warmup():
            runner.execute(k)
        times.append(perf_counter() - start)
    return qc, runner, statistics.median(times)


def measure(runner: Runner, seconds: float) -> dict:
    """Closed loop for ``seconds``: end-to-end metrics with tracing off."""
    latencies, kinds = [], {}
    rows = 0
    row_time = 0.0
    start = perf_counter()
    deadline = start + seconds
    k = 0
    while perf_counter() < deadline:
        kind, elapsed, _, outcome = runner.execute(k)
        latencies.append(elapsed)
        kinds.setdefault(kind, []).append(elapsed)
        if kind in runner.wl.row_kinds:
            rows += len(outcome.rows) + outcome.verdicts
            row_time += elapsed
        k += 1
    wall = perf_counter() - start
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    for kind, vals in sorted(kinds.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"# {kind:<14} n={len(vals):<5} median {1e3 * statistics.median(vals):9.3f} ms",
              file=sys.stderr)
    return {
        "calls_per_s": (k / wall, "1/s"),
        "rows_per_s": (rows / row_time if row_time else 0.0, "1/s"),
        "call_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "call_ms_p90": (1e3 * deciles[8], "ms"),
        "verified_frac": ((runner.attempted - runner.failed) / max(1, runner.attempted), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _pass(runner: Runner, tracer=None) -> dict:
    """One pass of the fixed traced script (calls 0 .. trace_calls-1)."""
    harness = 0.0
    rows, bytes_in, bytes_out = [], 0, 0
    start = perf_counter()
    for k in range(runner.wl.trace_calls):
        _, _, checking, outcome = runner.execute(k, tracer)
        harness += checking
        rows += outcome.rows
        bytes_in += outcome.bytes_in
        bytes_out += outcome.bytes_out
    return {"wall": perf_counter() - start, "harness": harness, "rows": rows,
            "bytes_in": bytes_in, "bytes_out": bytes_out}


def _probe_call(qc, label: str, d: int, rng):
    """A call of ``label`` on generic inputs of dimension d."""
    ch, st = qc.channels, qc.states
    m1, m2 = random_state(rng, d), random_state(rng, d)
    if label == "states.DensityMatrix":
        return lambda: st.DensityMatrix(m1)
    rho1, rho2 = st.DensityMatrix(m1), st.DensityMatrix(m2)
    h = st.ladder_hamiltonian(d, 1.0)
    if label == "fisher.qfi":
        clock = st.ClockSystem(rho1, h)
        return lambda: qc.fisher.qfi(clock)
    if label == "distinguish.common_invariant_decomposition":
        return lambda: qc.distinguish.common_invariant_decomposition(rho1, rho2)
    chan = ch.random_channel(d, d, 2, int(rng.integers(2**31)))
    if label == "channels.validate_cptp":
        return lambda: ch.validate_cptp(chan)
    if label == "channels.is_covariant":
        return lambda: ch.is_covariant(chan, h, h)
    return lambda: ch.covariant_twirl(chan, h, h)


def growth_probe(qc, tracer, seed: int) -> dict:
    """Log-log slope of time per call against dimension, from probe spans."""
    rng = np.random.default_rng([seed, 7])
    slopes = {}
    for label, dims in GROWTH_DIMS.items():
        medians = []
        for d in dims:
            probe = _probe_call(qc, label, d, rng)
            durations = []
            for _ in range(GROWTH_REPS):
                mark = len(tracer.spans)
                tracer.request = -2
                probe()
                _, _, _, span_label, t0, t1 = tracer.spans[mark]
                if span_label != label:
                    raise RuntimeError(f"probe of {label} recorded {span_label} first")
                durations.append((t1 - t0) / 1e6)
            medians.append(statistics.median(durations))
        slopes[label] = float(np.polyfit(np.log(dims), np.log(medians), 1)[0])
    return slopes


def trace(runner: Runner, qc, seconds: float, name: str, seed: int) -> dict:
    """Alternate untraced and traced passes for ``seconds``; per-layer metrics."""
    tracer = tracing.Tracer(qc)
    plain, traced, ranges = [], [], []
    deadline = perf_counter() + seconds
    while True:
        plain.append(_pass(runner))
        tracer.install()
        try:
            mark = len(tracer.spans)
            traced.append(_pass(runner, tracer))
            ranges.append((mark, len(tracer.spans)))
        finally:
            tracer.uninstall()
        if perf_counter() >= deadline:
            break
    per_pass = [tracing.layer_times(tracer.spans[a:b]) for a, b in ranges]
    tracer.install()
    try:
        slopes = growth_probe(qc, tracer, seed)
    finally:
        tracer.uninstall()

    metrics = {}
    for label in tracing.LABELS:
        stats = [p.get(label, (0, 0, 0)) for p in per_pass]
        calls = statistics.median(s[0] for s in stats)
        metrics[f"{label}.calls"] = (calls, "count")
        metrics[f"{label}.self_ms"] = (statistics.median(s[1] / 1e6 for s in stats), "ms")
        metrics[f"{label}.ms_per_call"] = (
            statistics.median(s[2] / 1e6 / s[0] if s[0] else 0.0 for s in stats), "ms")
    for label, slope in slopes.items():
        metrics[f"{label}.growth_exp"] = (slope, "slope")
    rows = [r for t in traced for r in t["rows"]]
    nontrivial = sum(1 for r in rows if max(_f(r.get("f1")), _f(r.get("f2"))) > verify.F_FLOOR)
    metrics["bounds.nontrivial_row_frac"] = (nontrivial / len(rows) if rows else 0.0, "ratio")
    metrics["fileio.bytes_out"] = (statistics.median(t["bytes_out"] for t in traced), "bytes")
    metrics["fileio.bytes_in"] = (statistics.median(t["bytes_in"] for t in traced), "bytes")
    wall = statistics.median(t["wall"] for t in traced)
    metrics["trace.wall_ms"] = (1e3 * wall, "ms")
    metrics["harness.self_ms"] = (1e3 * statistics.median(t["harness"] for t in traced), "ms")
    accounted = [
        (sum(v[1] for v in p.values()) / 1e9 + t["harness"]) / t["wall"]
        for p, t in zip(per_pass, traced)
    ]
    metrics["trace.accounted_frac"] = (statistics.median(accounted), "ratio")
    metrics["trace.overhead_frac"] = (
        wall / statistics.median(t["wall"] for t in plain) - 1.0, "ratio")

    path = WORKDIR / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(path, {"passes": ranges, "probe_request": -2})
    print(f"# {len(tracer.spans)} spans in {len(traced)} traced passes written to {path}",
          file=sys.stderr)
    return metrics


def _f(value) -> float:
    return 0.0 if value in (None, "") else verify.num(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qc, runner, setup_s = set_up(args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": environment()}))
    if args.trace:
        metrics = trace(runner, qc, args.seconds, args.workload, args.seed)
    else:
        metrics = measure(runner, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    for problem in runner.problems[:20]:
        print(f"# FAILED {problem}", file=sys.stderr)
    failed, attempted = runner.failed, runner.attempted
    print(f"# failed_frac {failed / attempted:.6f} ({failed} of {attempted})", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
