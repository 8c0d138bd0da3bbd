"""Search seeded polylines for centered splines that do not converge or miss G1.

Usage, from the root of a checkout:

    python scripts/elastica_search.py --count 1000 [--out outcomes.txt]

Runs ``spline_centered`` on COUNT polylines of each of three families, each
drawn from its own fixed seed, so that every run and every checkout sees the
same polylines:

* ``open``: unit-edge open polylines of 2-6 turns uniform in +-3.14
  (``default_rng(11)``);
* ``hairpin``: unit-edge open polylines of 2-6 turns, each a hairpin of
  2.2-3.13 rad either way with probability 0.8, else uniform in +-3.14
  (``default_rng(12)``);
* ``folded``: closed equilateral polygons of 5-12 edges, each a regular
  polygon folded 3n times by reflecting a run of 2 to n - 2 of its edges
  across the chord of the run (``default_rng(21)``); a fold that reverses an
  edge makes a turn of pi, which ``AngleOutOfRange`` rejects.

Prints per family the count of each outcome (``ok`` or the class name of the
frenetkit error raised) and the worst G1 gaps of the splines that fit: the
position gap over the edge length, and the tangent gap in radians.  With
``--out FILE`` it also writes one line per polyline, its family, index,
outcome and the bending energy of each span (``repr``; none for an error),
for ``diff`` between two checkouts.  Exits 1 on any ``NoConvergence`` or on
a gap above 1e-8.
"""

from __future__ import annotations

import argparse
import collections
import math
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from frenetkit import DiscreteCurve, refine  # noqa: E402
from frenetkit.errors import FrenetError, MultipleSolutionsWarning  # noqa: E402
from frenetkit.figures import _unit_step_polyline  # noqa: E402
from frenetkit.spline2d import g1_defects, spline_centered  # noqa: E402

GAP_LIMIT = 1e-8


def open_family(count):
    rng = np.random.default_rng(11)
    for _ in range(count):
        yield _unit_step_polyline(rng.uniform(-3.14, 3.14, rng.integers(2, 7)))


def hairpin_family(count):
    rng = np.random.default_rng(12)
    for _ in range(count):
        n = rng.integers(2, 7)
        hairpin = rng.random(n) < 0.8
        sign, size, other = rng.choice([-1.0, 1.0], n), rng.uniform(2.2, 3.13, n), rng.uniform(-3.14, 3.14, n)
        yield _unit_step_polyline(np.where(hairpin, sign * size, other))


def folded_family(count):
    rng = np.random.default_rng(21)
    for _ in range(count):
        n = int(rng.integers(5, 13))
        heading = np.arange(n) * 2.0 * math.pi / n
        for _ in range(3 * n):
            run = (rng.integers(n) + np.arange(rng.integers(2, n - 1))) % n
            heading[run] = 2.0 * math.atan2(np.sin(heading[run]).sum(), np.cos(heading[run]).sum()) - heading[run]
        steps = np.column_stack([np.cos(heading), np.sin(heading)])
        yield DiscreteCurve(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)[:-1]]), closed=True)


FAMILIES = {"open": open_family, "hairpin": hairpin_family, "folded": folded_family}


def outcome(dc: DiscreteCurve):
    """(outcome, span energies, relative position gap, tangent gap) of the centered spline of dc."""
    try:
        rc = refine(dc)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MultipleSolutionsWarning)
            sp = spline_centered(rc)
    except FrenetError as exc:
        return type(exc).__name__, [], 0.0, 0.0
    pos, ang = g1_defects(sp)
    return "ok", [seg.energy() for seg in sp.segments], pos / (2.0 * rc.ell), ang


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--count", type=int, default=1000, help="polylines per family (default 1000)")
    p.add_argument("--out", type=Path, default=None, help="write each polyline's outcome and span energies here")
    args = p.parse_args(argv)
    lines, failed = [], False
    for family, polylines in FAMILIES.items():
        counts, worst = collections.Counter(), [0.0, 0.0]
        for i, dc in enumerate(polylines(args.count)):
            name, energies, pos, ang = outcome(dc)
            counts[name] += 1
            worst = [max(worst[0], pos), max(worst[1], ang)]
            lines.append(" ".join([family, str(i), name, *map(repr, energies)]) + "\n")
        failed |= counts["NoConvergence"] > 0 or max(worst) > GAP_LIMIT
        told = ", ".join(f"{name} {n}" for name, n in sorted(counts.items()))
        print(f"{family}: {told}; worst G1 gap: position {worst[0]:.3g} (relative), tangent {worst[1]:.3g} rad")
    if args.out:
        args.out.write_text("".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
