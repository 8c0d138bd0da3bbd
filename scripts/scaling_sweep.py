"""Time the spline, render and discretize subcommands at growing sizes, and fail if one grows faster than linearly.

Usage, from the root of a checkout:

    python scripts/scaling_sweep.py [--sizes 100 1000 10000]

Runs in process, through ``frenetkit.cli.main``, at each size N:

* ``spline FILE --method M --out FILE.M.json --svg FILE.M.svg`` for each of
  the three methods, on the open unit-edge polyline of N vertices with turns
  0.25 sin(0.05 k), k = 0 .. N - 3, so that the G1 check, the spline writer,
  the spline's polyline sampler and its SVG path, as well as the solver, are
  under the growth check;
* ``render FILE --spline FILE.M.json --out FILE.M.render.svg`` on each spline
  file, so that the spline reader is too;
* the same two ops, named ``spline ngon M`` and ``render ngon M``, on the
  closed regular N-gon of unit edges, so that closed spline paths (every
  inscribed and circumscribed segment an arc, the first one included) are
  under the render-bytes and growth checks;
* ``discretize ellipse --method centered --density N``;
* ``analyze FILE --out FILE.analyze.json`` and ``roundtrip FILE`` on the open
  3D curve of N vertices that ``perfbench/workloads.py`` builds for
  ``curve3d-long`` (random turns and twists through ``curvature_torsion``,
  ``reconstruct`` and ``unrefine``), seeded by N.

Checks every report as ``perfbench/workloads.py`` does: both G1 gaps of a
spline at most ``G1_TOL``, the ``length_error`` of a discretization at most
``LENGTH_TOL``, ``residual_ok`` of an analysis and ``congruent`` of a
roundtrip; and checks that each render writes the bytes of the ``--svg`` of
the spline op before it.  Prints the least of 3 wall times at each size
and, from the second size on, the ratio to the time at the size before it,
per decade of size (10 for linear growth).  Exits 1 if an op exits non-zero,
a check fails or a ratio is above MAX_RATIO.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from output_digests import run_op  # noqa: E402
from workloads import G1_TOL, LENGTH_TOL, _open_curve  # noqa: E402

from frenetkit import Convention, curve_to_json, ngon_of_circle  # noqa: E402
from frenetkit.figures import _unit_step_polyline  # noqa: E402

MAX_RATIO = 15.0  # time ratio per decade of size; linear growth is 10
REPEATS = 3


def check(stdout):
    """A failure message for a report outside the benchmark's bounds, or None."""
    report = json.loads(stdout)
    if "congruent" in report:
        return None if report["congruent"] is True else f"not congruent: rms {report['rms']:.3e}"
    if "length_error" in report:
        err = report["length_error"]
        return None if err <= LENGTH_TOL else f"length error {err:.3e} over {LENGTH_TOL:.0e}"
    gaps = (report["g1_position_gap"], report["g1_tangent_gap"])
    return None if max(gaps) <= G1_TOL else f"G1 gaps {gaps} over {G1_TOL:.0e}"


def same_bytes(path, want):
    """A check that the op wrote the bytes of the file want to path."""
    return lambda stdout: None if Path(path).read_bytes() == Path(want).read_bytes() else f"{path} differs from {want}"


def residual_ok(path):
    """A check that the analyze report the op wrote to path has residual_ok true."""
    return lambda stdout: None if json.loads(Path(path).read_text())["residual_ok"] is True else "residual_ok is false"


def timed(argv, check):
    """The least wall time of REPEATS runs of one op, and a failure message or None."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        code, stdout = run_op(argv)
        best = min(best, time.perf_counter() - start)
        if code != 0:
            return best, f"exit {code}"
        if failure := check(stdout):
            return best, failure
    return best, None


def ops(work, n):
    """(name, argv, check) of each op at size n, in the order they run; the polyline, polygon and curve files
    are in work."""
    for shape, poly in (("", f"{work}/poly{n}"), ("ngon ", f"{work}/ngon{n}")):
        for method in ("inscribed", "circumscribed", "centered"):
            spline, svg, rendered = (f"{poly}.{method}{ext}" for ext in (".json", ".svg", ".render.svg"))
            argv = ["spline", f"{poly}.json", "--method", method, "--out", spline, "--svg", svg]
            yield f"spline {shape}{method}", argv, check
            argv = ["render", f"{poly}.json", "--spline", spline, "--out", rendered]
            yield f"render {shape}{method}", argv, same_bytes(rendered, svg)
    yield "discretize ellipse centered", ["discretize", "ellipse", "--method", "centered", "--density", str(n)], check
    curve = f"{work}/curve{n}"
    yield "analyze --out", ["analyze", f"{curve}.json", "--out", f"{curve}.analyze.json"], residual_ok(
        f"{curve}.analyze.json")
    yield "roundtrip", ["roundtrip", f"{curve}.json"], check


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sizes", type=int, nargs="+", default=[100, 1_000, 10_000])
    sizes = sorted(set(p.parse_args(argv).sizes))
    if sizes[0] < 3:
        p.error("a size is at least 3: a polyline of 3 vertices has one turn")
    times = {}  # op name -> [(size, seconds, failure)]
    with tempfile.TemporaryDirectory(prefix="frenetkit-scaling-") as work:
        for n in sizes:
            turns = 0.25 * np.sin(0.05 * np.arange(n - 2))
            Path(work, f"poly{n}.json").write_text(curve_to_json(_unit_step_polyline(turns)))
            ngon = ngon_of_circle(n / (2.0 * math.pi), n, Convention.CENTERED)  # edges of length 1
            Path(work, f"ngon{n}.json").write_text(curve_to_json(ngon))
            Path(work, f"curve{n}.json").write_text(curve_to_json(_open_curve(np.random.default_rng(n), n, False)[0]))
            for name, op, op_check in ops(work, n):
                times.setdefault(name, []).append((n, *timed(op, op_check)))
    ok = True
    print(f"{'op':<28} {'size':>7} {'seconds':>9} {'ratio/decade':>13}")
    for name, rows in times.items():
        for (n0, t0, _), (n, seconds, failure) in zip([(None, None, None), *rows], rows):
            rate = None if n0 is None else (seconds / t0) ** (1.0 / math.log10(n / n0))
            ratio = "" if rate is None else f"{rate:.2f}"
            if rate is not None and rate > MAX_RATIO:
                failure = failure or f"grows by {ratio} per decade, over {MAX_RATIO}"
            print(f"{name:<28} {n:>7} {seconds:>9.4f} {ratio:>13}" + (f"  FAILED: {failure}" if failure else ""))
            ok = ok and failure is None
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
