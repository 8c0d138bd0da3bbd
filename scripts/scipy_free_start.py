"""Check that the CLI starts, and runs every subcommand that needs no scipy, without
loading scipy, and that no subcommand loads ``scipy.optimize``.

Usage, from the root of a checkout:

    python scripts/scipy_free_start.py

Run it in a fresh interpreter: it imports ``frenetkit`` and ``frenetkit.cli``,
then runs ``frenetkit.cli.main`` in process on ``analyze``, ``roundtrip``,
``reconstruct``, ``render --with-circles``, ``discretize`` of the circle, the
ellipse and the clothoid by all three methods, ``discretize sine --method
inscribed|circumscribed`` (the sine has an inflection to bracket), ``spline
--method inscribed|circumscribed --out FILE --svg FILE`` on a regular hexagon
and an open polyline, ``spline --method centered --out FILE`` on the hexagon
(its elastica spans need no scipy), and ``render HEX --spline FILE`` on the
hexagon's inscribed, circumscribed and centered spline files, so that the spline
reader is checked too; after the imports and after each of these ops it looks
for ``scipy`` in ``sys.modules``.  Last it runs ``spline --method centered`` on
the open polyline, on a hairpin polyline whose span 3 converges only from its
phase-1 clothoid start and on a polyline whose span 1 converges from no start,
its phase-2 ramp included, until its clothoid start is continued, which may
load ``scipy.linalg`` (for LAPACK's tridiagonal solver) and no other scipy
subpackage.  Prints one line per step; exits 1 if an op fails or a step loaded
scipy, or a subpackage other than ``scipy.linalg`` for the last centered ops,
naming the step.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import frenetkit  # noqa: E402
import frenetkit.cli  # noqa: E402


def scipy_modules() -> list[str]:
    """The loaded scipy package and its loaded subpackages, by their top two name parts."""
    return sorted({".".join(name.split(".")[:2]) for name in sys.modules if name.partition(".")[0] == "scipy"})


def scipy_subpackages() -> set[str]:
    """The loaded public scipy subpackages, such as scipy.linalg."""
    return {
        name for name in scipy_modules()
        if name.count(".") == 1 and not name.partition(".")[2].startswith("_") and hasattr(sys.modules[name], "__path__")
    }


def unit_step_polyline(turns):
    """The open polyline of unit edges with these turning angles, from the origin along x."""
    heading = np.cumsum([0.0, *turns])
    steps = np.column_stack([np.cos(heading), np.sin(heading)])
    return frenetkit.DiscreteCurve(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]))


def write_inputs(work: Path) -> dict:
    """A closed regular hexagon, three open polylines and the hexagon's angle record."""
    ang = np.arange(6) * math.pi / 3.0
    hexagon = frenetkit.DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True)
    open_curve = unit_step_polyline((0.3, -0.2, 0.5, -0.4))
    hairpin = unit_step_polyline((-0.28, -2.89, -2.43, 1.71, -1.31))
    continued = unit_step_polyline((1.13, -0.94, -0.96))
    intrinsic = {"ell": 0.5, "convention": "inscribed", "theta": [math.pi / 3.0, 0.0] * 5 + [math.pi / 3.0],
                 "phi": [0.0] * 11}
    curves = {"hex": hexagon, "open": open_curve, "hairpin": hairpin, "continued": continued}
    paths = {key: work / f"{key}.json" for key in (*curves, "angles")}
    for key, curve in curves.items():
        paths[key].write_text(frenetkit.curve_to_json(curve))
    paths["angles"].write_text(json.dumps(intrinsic))
    return {key: str(path) for key, path in paths.items()}


def ops(files: dict, work: Path):
    """(argv, the scipy subpackages the op may load) of each op, the scipy-free ones first."""
    yield ["analyze", files["hex"]], ()
    yield ["roundtrip", files["open"]], ()
    yield ["reconstruct", files["angles"]], ()
    yield ["render", files["hex"], "--with-circles", "--out", str(work / "circles.svg")], ()
    for curve in ("circle", "ellipse", "clothoid"):
        yield ["discretize", curve, "--method", "inscribed", "--samples", "16"], ()
        yield ["discretize", curve, "--method", "circumscribed", "--samples", "16"], ()
        yield ["discretize", curve, "--method", "centered", "--density", "8"], ()
    yield ["discretize", "sine", "--method", "inscribed", "--samples", "16"], ()
    yield ["discretize", "sine", "--method", "circumscribed", "--samples", "17"], ()
    for method in ("inscribed", "circumscribed"):
        for name in ("hex", "open"):
            out = ["--out", str(work / f"{name}-{method}.json"), "--svg", str(work / f"{name}-{method}.svg")]
            yield ["spline", files[name], "--method", method, *out], ()
    yield ["spline", files["hex"], "--method", "centered", "--out", str(work / "hex-centered.json")], ()
    for method in ("inscribed", "circumscribed", "centered"):
        spline = str(work / f"hex-{method}.json")
        yield ["render", files["hex"], "--spline", spline, "--out", str(work / f"hex-{method}.render.svg")], ()
    for name in ("open", "hairpin", "continued"):
        yield ["spline", files[name], "--method", "centered"], ("scipy.linalg",)


def run_op(argv) -> int:
    """Run one subcommand in process, its output discarded; return its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            frenetkit.cli.main(args=argv, prog_name="frenetkit", standalone_mode=False)
        except SystemExit as exc:
            return exc.code or 0
    return 0


def main() -> int:
    loaded = scipy_modules()
    print(f"import frenetkit.cli: {loaded or 'no scipy'}")
    if loaded:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files = write_inputs(work)
        for argv, allowed in ops(files, work):
            code = run_op(argv)
            loaded = scipy_modules()
            step = " ".join(argv).replace(f"{work}/", "")
            print(f"{step}: exit {code}, {loaded or 'no scipy'}")
            if code or (scipy_subpackages() - set(allowed) if allowed else loaded):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
