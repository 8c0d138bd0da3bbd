"""Print where the time of the long curve's analyze and roundtrip ops goes, stage by stage.

Usage, from the root of a checkout:

    python scripts/stage_times.py [--turns 10000] [--repeats 21] [--seed 1]

Builds the seeded open 3D curve of TURNS turns that ``perfbench/workloads.py``
builds for ``curve3d-long`` (``_open_curve`` with the workload's seed), writes
it to a temporary file and replays, in process, each stage of

* ``analyze FILE --out OUT``: ``load_curve``, ``refine``, ``edge_frames``,
  ``vertex_frames``, ``turn_twist_angles``, the bare angle record
  (``curvature_torsion`` with no convention), ``convention_table`` of every
  convention, the spelling of the one value of each transition and each
  convention's curvature (``spell_floats``), the layout of the report the
  CLI builds (``json_pieces``) and its write to OUT;
* ``roundtrip FILE``: ``reconstruct`` from the first edge frame and
  ``congruent`` of the rebuilt points (it shares the stages above up to the
  angle record);

and each whole op through ``frenetkit.cli.main``.  Prints the least wall time
of REPEATS calls of each, in ms.  The stages are timed one by one on the
results of the stages before them, so their sum can differ from the whole op
by what the CLI does around them.  Exits 1 if an op exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _io
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import LONG_TURNS, NAMES, _open_curve  # noqa: E402

from frenetkit import cli, io  # noqa: E402
from frenetkit.curve_core import refine  # noqa: E402
from frenetkit.frames import (  # noqa: E402
    _embed3,
    _one_value,
    convention_table,
    curvature_torsion,
    edge_frames,
    turn_twist_angles,
    vertex_frames,
)
from frenetkit.ngon_circle import Convention  # noqa: E402
from frenetkit.reconstruct import InitialPose, congruent, reconstruct  # noqa: E402


def least(repeats, fn, *args):
    """(the least wall time of repeats calls of fn(*args) in ms, the last call's result)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best, out


def run_op(argv):
    """Run one subcommand in process, its stdout discarded; return its exit code."""
    with contextlib.redirect_stdout(_io.StringIO()):
        try:
            cli.main(args=argv)
        except SystemExit as exc:
            return exc.code or 0
    return 0


def analyze_report(path, out):
    """The report object that ``analyze PATH --out OUT`` lays out and writes, as the CLI builds it."""
    reports = []
    with mock.patch.object(cli, "_write_json", lambda report, out_path: reports.append(report)):
        run_op(["analyze", str(path), "--out", str(out)])
    return reports[0]


def stages(path, out, repeats):
    """(name, ms) of each stage and whole op, in the order they run."""
    rows = []

    def stage(name, fn, *args):
        ms, result = least(repeats, fn, *args)
        rows.append((name, ms))
        return result

    dc = stage("load_curve", io.load_curve, path)
    rc = stage("refine", refine, dc)
    ff = stage("edge_frames", edge_frames, rc)
    ff = stage("vertex_frames", vertex_frames, ff)
    theta, phi = stage("turn_twist_angles", turn_twist_angles, ff)
    data = stage("angle record", curvature_torsion, theta, phi, rc.ell, None, (rc.vertex_parity + 1) % 2)
    _, at_edge = stage("convention_table", convention_table, ff, data, list(Convention))
    one = np.vstack([_one_value(data.theta, data.phi, data.turn_parity), at_edge])
    stage("spelling", io.spell_floats, one)
    report = analyze_report(path, out)
    pieces = stage("layout", lambda: [*io.json_pieces(report), "\n"])
    stage("write", cli._write, pieces, out)
    pts = _embed3(rc.points)
    pose = InitialPose(origin=pts[0], tangent=ff.Te[0], normal=ff.Ne[0], binormal=ff.Be[0])
    rebuilt = stage("reconstruct", reconstruct, data, pose, rc.n_edges())
    stage("congruent", congruent, pts, rebuilt.points[: len(pts)], 2e-9 * rc.ell)
    for name, argv in (("analyze --out (op)", ["analyze", str(path), "--out", str(out)]),
                       ("roundtrip (op)", ["roundtrip", str(path)])):
        code = stage(name, run_op, argv)
        if code != 0:
            raise SystemExit(f"{name} exited {code}")
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--turns", type=int, default=LONG_TURNS, help="turns of the curve (curve3d-long has %(default)s)")
    p.add_argument("--repeats", type=int, default=21, help="calls of each stage; the least time is printed")
    p.add_argument("--seed", type=int, default=1, help="the workload seed")
    args = p.parse_args(argv)
    if args.turns < 1 or args.repeats < 1:
        p.error("--turns and --repeats are at least 1")
    rng = np.random.default_rng([args.seed, NAMES.index("curve3d-long")])
    curve = _open_curve(rng, args.turns + 1, planar=False)[0]
    with tempfile.TemporaryDirectory(prefix="frenetkit-stages-") as work:
        path, out = Path(work, "long.json"), Path(work, "long.analyze.json")
        path.write_text(io.curve_to_json(curve))
        rows = stages(path, out, args.repeats)
    print(f"curve3d-long curve of {args.turns} turns, seed {args.seed}, least of {args.repeats} calls")
    print(f"{'stage':<22} {'ms':>9}")
    for name, ms in rows:
        print(f"{name:<22} {ms:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
