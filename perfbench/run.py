"""Seeded end-to-end benchmark of the frenetkit subcommands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload curve3d-long --seed 1 --seconds 25 --trace 0

baseline.json holds the figures of frenetkit before any optimisation, on
seeds 1-10.  Seed 7919 (workloads.HELD_OUT_SEED) was kept out of tuning:
check a claimed gain on it as well.

Each workload is a closed loop with one client: every op is one frenetkit
subcommand, called in-process through the ``frenetkit.cli.main`` click
group with an argv list, and starts only when the previous op has ended.
The fixed op list of a workload is one pass; passes repeat until
``--seconds`` have gone by.  Every op's output is checked after its pass,
outside the timed region.

Times are reported in reference seconds.  On a shared machine the speed of
a core drifts by up to 2x within minutes, and the drift slows the program
and any other code alike.  So an interval timer runs a fixed reference
kernel (pure Python, small numpy calls and json, like the program) every
SAMPLE_EVERY_S seconds, also in the middle of an op.  Each op's time, less
the time spent sampling, is scaled by REF_NOMINAL_S over the median
kernel time within WINDOW_S of the op: a reference second is the time the
op would take on a core where the kernel takes REF_NOMINAL_S.  The
wall-clock figures are printed next to them.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (see tracing.py), reports the per-layer metrics
and the tracing overhead, and fails unless every call count repeats exactly
from one traced pass to the next.  Lines before the last describe the run
and print every figure with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, which holds the
metrics that BENCHMARK.json declares.  Exit status: 0 when every check
passed, 1 when one failed, 2 when the checkout has no frenetkit sources.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
SETUP_REF_CALLS = 300
MIN_PASSES = 2
REF_NOMINAL_S = 8e-4
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.25
KINDS = ("analyze", "roundtrip", "discretize", "spline")
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# the end-to-end metrics that BENCHMARK.json declares: those large enough on
# every workload to repeat within their bound.  The other figures of a run
# (the other subcommands' times, latency, error rate, wall-clock values) are
# printed on the lines before the result.
GATED = ("setup_s", "analyze_s", "ops_per_s", "peak_rss_mb")
UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "error_rate": "ratio", "trace.overhead_ratio": "ratio", "trace.accounted_share": "ratio"}

_REF_POINTS = np.linspace(0.0, 1.0, 96).reshape(32, 3)


def unit(key):
    return UNITS.get(key) or ("s" if key.endswith("_s") else "count")


def reference_kernel() -> float:
    """Run the fixed reference work once; return its wall time."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += math.atan2(math.sin(i * 1e-3), 1.0 + float(_REF_POINTS[i % 32, i % 3]))
    for row in _REF_POINTS[:8]:
        acc += float(np.linalg.norm(np.cross(row, _REF_POINTS[0])))
    json.dumps({"points": _REF_POINTS.tolist(), "acc": acc})
    return time.perf_counter() - start


class Speedometer:
    """Times the reference kernel every SAMPLE_EVERY_S seconds, on a SIGALRM timer.

    The handler runs in the main thread between bytecodes, so it samples the
    speed of the core the ops run on while they run.
    """

    def __init__(self):
        self.samples = []  # (start, seconds spent in the handler)
        self.kernel = reference_kernel
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.kernel()
        finally:
            self.samples.append((start, time.perf_counter() - start))
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start, end):
        """Reference seconds per wall second around [start, end]."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t < end + WINDOW_S]
        if not near:  # a long call into C held the signal back
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return REF_NOMINAL_S / statistics.median(near)

    def spent(self, start, end):
        return sum(d for t, d in self.samples if start <= t < end)


@dataclass
class Pass:
    records: list  # (subcommand, wall seconds, reference seconds, output ok) per op
    scale: float  # reference seconds per wall second over the whole pass

    def op_times(self):
        return [ref for _, _, ref, _ in self.records]

    def ops_per_s(self, wall=False):
        return len(self.records) / sum(r[1] if wall else r[2] for r in self.records)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_op(main, argv, tracer=None):
    """Run one subcommand in-process; return (start, seconds, exit code, stdout, warnings)."""

    def call():
        try:
            main.main(args=argv, prog_name="frenetkit", standalone_mode=False)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            return f"{type(exc).__name__}: {exc}"
        return 0

    if tracer is not None:
        call = tracer.span(tracing.ROOT, call)
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        start = time.perf_counter()
        code = call()
        elapsed = time.perf_counter() - start
    return start, elapsed, code, out.getvalue(), caught


def run_pass(main, wl, meter, tracer=None) -> Pass:
    """One pass over the op list; checks run after the timed ops."""
    from frenetkit.errors import MultipleSolutionsWarning

    gc.collect()
    results = []
    for op in wl.ops:
        if tracer is not None:
            tracer.op_id += 1
        results.append(run_op(main, op.argv, tracer))
    # the samples after the last op of the pass cover its end
    time.sleep(WINDOW_S)
    records = []
    for op, (start, elapsed, code, stdout, caught) in zip(wl.ops, results):
        if code not in (0, None):
            failure = f"exit {code}"
        else:
            try:
                failure = op.check(stdout)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failure = f"unreadable output: {exc!r}"
        if failure:
            print(f"# FAILED {' '.join(op.argv)}: {failure}")
        if tracer is not None:
            tracer.warnings += sum(issubclass(w.category, MultipleSolutionsWarning) for w in caught)
            if code not in (0, None):
                tracer.errors["cli"] += 1
        end = start + elapsed
        wall = elapsed - meter.spent(start, end)
        records.append((op.kind, wall, wall * meter.scale(start, end), failure is None))
    first, last = results[0][0], results[-1][0] + results[-1][1]
    return Pass(records, meter.scale(first, last))


def setup(workload, seed, work: Path):
    """Generate and write the inputs, then run the untimed warm-up op."""
    import workloads
    from frenetkit.cli import main

    wl = workloads.build(workload, seed, work)
    work.mkdir(parents=True, exist_ok=True)
    wl.write(work)
    code = run_op(main, wl.warmup)[2]
    if code not in (0, None):
        raise RuntimeError(f"warm-up op {wl.warmup} exited {code}")
    return main, wl


def setup_samples(args):
    """Start SETUP_SAMPLES fresh processes; time each to its first timed op.

    Returns the raw times, the times in reference seconds (each process
    times the reference kernel right after its set-up) and input digests.
    """
    raw, scaled, digests = [], [], []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only"]
        cmd += ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            raw.append(time.perf_counter() - start)
            try:
                rest, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if proc.returncode != 0 or not ready.startswith("ready "):
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {err.strip()}")
        digests.append(ready.split()[1])
        scaled.append(raw[-1] * REF_NOMINAL_S / float(rest.split()[1]))
    return raw, scaled, digests


def environment():
    sha = None
    # only the checkout's own repository: git would otherwise search the parents
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.TimeoutExpired):
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import scipy

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def latency(times_s):
    """Median and the highest listed percentile with at least 10 samples beyond it."""
    xs = sorted(times_s)
    n = len(xs)
    tail = max((q for q in PERCENTILES if n - q / 100 * n >= 10), default=None)
    return {
        "op_p50_ms": 1e3 * statistics.median(xs),
        "op_tail_ms": None if tail is None else 1e3 * xs[max(0, math.ceil(tail / 100 * n) - 1)],
        "tail_percentile": tail,
        "samples": n,
    }


def summarize(passes):
    """End-to-end figures of the timed passes, in reference seconds.

    A subcommand's time is the sum over its ops of each op's median across
    passes, so a burst of machine noise during one op of one pass is dropped.
    """
    per_op = [statistics.median(times) for times in zip(*(p.op_times() for p in passes))]
    kinds = [r[0] for r in passes[0].records]
    metrics = {f"{k}_s": sum(t for kind, t in zip(kinds, per_op) if kind == k) for k in KINDS}
    metrics["ops_per_s"] = statistics.median(p.ops_per_s() for p in passes)
    lat = latency([t for p in passes for t in p.op_times()])
    return metrics, lat


def main_run(args, work: Path):
    setup_raw, setup_scaled, digests = setup_samples(args)
    main, wl = setup(args.workload, args.seed, work)
    digests.append(wl.digest())
    print(f"# env {json.dumps(environment())}")
    print(f"# workload {args.workload} seed {args.seed}: {len(wl.ops)} ops per pass, "
          f"{len(wl.files)} input files, sha256 {wl.digest()}")
    correct = len(set(digests)) == 1
    if not correct:
        print(f"# FAILED inputs differ between set-ups of one seed: {sorted(set(digests))}")

    tracer = tracing.Tracer() if args.trace else None
    passes, traced, counts = [], [], []
    with Speedometer() as meter:
        time.sleep(WINDOW_S)  # samples before the first op
        begin = time.perf_counter()
        while True:
            passes.append(run_pass(main, wl, meter))
            if tracer is not None:
                # traced passes alternate with untraced ones, so that machine
                # noise reaches both sides of the overhead ratio alike; the
                # sampling gets a span of its own, outside every layer's self time
                tracer.reset()
                patches = tracing.install(tracer)
                meter.kernel = tracer.span(tracing.SAMPLING, reference_kernel)
                try:
                    traced.append((run_pass(main, wl, meter, tracer), tracer.layer_metrics()))
                finally:
                    meter.kernel = reference_kernel
                    tracing.uninstall(patches)
                counts.append(tracer.repeatable_counts())
            if len(passes) >= MIN_PASSES and time.perf_counter() - begin >= args.seconds:
                break

    every = passes + [p for p, _ in traced]
    attempted = sum(len(p.records) for p in every)
    failed = sum(not r[3] for p in every for r in p.records)
    correct = correct and failed == 0

    if not args.trace:
        report, lat = summarize(passes)
        report["setup_s"] = statistics.median(setup_scaled)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["op_p50_ms"] = lat["op_p50_ms"]
        report["op_tail_ms"] = lat["op_tail_ms"]
        report["error_rate"] = failed / attempted
        tail = f"p{lat['tail_percentile']}" if lat["tail_percentile"] else "none (under 20 ops)"
        scale = statistics.median(p.scale for p in passes)
        print(f"# {len(passes)} passes; latency over {lat['samples']} ops, tail percentile {tail}")
        print(f"# reference seconds per wall second {scale:.4f}; in wall-clock units: "
              f"ops_per_s {statistics.median(p.ops_per_s(wall=True) for p in passes):.4f} 1/s, "
              f"setup_s {statistics.median(setup_raw):.4f} s "
              f"(samples {', '.join(f'{t:.4f}' for t in setup_raw)})")
        gated = GATED
    else:
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            print("# FAILED call counts differ between traced passes of the same inputs")
        report = {}
        for key in traced[0][1]:
            if key.endswith("_s"):
                report[key] = statistics.median(m[key] * p.scale for p, m in traced)
            else:
                report[key] = traced[0][1][key]
        report["trace.overhead_ratio"] = statistics.median(
            p.ops_per_s() for p in passes
        ) / statistics.median(p.ops_per_s() for p, _ in traced)
        op_time = sum(r[1] for p, _ in traced for r in p.records)
        report["trace.accounted_share"] = sum(
            s[4] for s in tracer.spans if s[1] != tracing.SAMPLING
        ) / op_time
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for op_id, name, start, end, own in tracer.spans:
                fh.write(json.dumps({"op": op_id, "name": name, "start": start, "end": end,
                                     "self": own}) + "\n")
        print(f"# {len(passes)} untraced and {len(traced)} traced passes; {len(tracer.spans)} spans "
              f"written to {spans_path.relative_to(ROOT)}; error_rate {failed / attempted}")
        gated = tuple(report)

    for key, value in report.items():
        print(f"# {key} = {'n/a' if value is None else value} {unit(key)}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": report[k], "unit": unit(k)} for k in gated},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "frenetkit" / "cli.py").is_file():
        print(f"error: no frenetkit sources at {SRC}; run from a frenetkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            _, wl = setup(args.workload, args.seed, work)
            print(f"ready {wl.digest()}", flush=True)
            refs = [reference_kernel() for _ in range(SETUP_REF_CALLS)]
            print(f"ref {statistics.median(refs)!r}", flush=True)
            return 0
        return main_run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
