"""Check that the CLI starts, and runs every subcommand that needs no scipy, without loading scipy.

Usage, from the root of a checkout:

    python scripts/scipy_free_start.py

Run it in a fresh interpreter: it imports ``frenetkit`` and ``frenetkit.cli``,
then runs ``frenetkit.cli.main`` in process on ``analyze``, ``roundtrip``,
``reconstruct``, ``render --with-circles``, ``discretize`` of the circle, the
ellipse and the clothoid by all three methods, ``discretize sine --method
inscribed`` and ``spline --method inscribed|circumscribed --svg``, on a
regular hexagon and an open polyline.  After the imports and after each op it
looks for ``scipy`` in ``sys.modules``.  Prints one line per step; exits 1 if
an op fails or a step loaded scipy, naming the step.
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


def write_inputs(work: Path) -> dict:
    """A closed regular hexagon, an open polyline and the hexagon's angle record."""
    ang = np.arange(6) * math.pi / 3.0
    hexagon = frenetkit.DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True)
    heading = np.cumsum([0.0, 0.3, -0.2, 0.5, -0.4])
    steps = np.column_stack([np.cos(heading), np.sin(heading)])
    open_curve = frenetkit.DiscreteCurve(np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]))
    intrinsic = {"ell": 0.5, "convention": "inscribed", "theta": [math.pi / 3.0, 0.0] * 5 + [math.pi / 3.0],
                 "phi": [0.0] * 11}
    paths = {"hex": work / "hex.json", "open": work / "open.json", "angles": work / "angles.json"}
    paths["hex"].write_text(frenetkit.curve_to_json(hexagon))
    paths["open"].write_text(frenetkit.curve_to_json(open_curve))
    paths["angles"].write_text(json.dumps(intrinsic))
    return {key: str(path) for key, path in paths.items()}


def ops(files: dict, work: Path):
    yield ["analyze", files["hex"]]
    yield ["roundtrip", files["open"]]
    yield ["reconstruct", files["angles"]]
    yield ["render", files["hex"], "--with-circles", "--out", str(work / "circles.svg")]
    for curve in ("circle", "ellipse", "clothoid"):
        yield ["discretize", curve, "--method", "inscribed", "--samples", "16"]
        yield ["discretize", curve, "--method", "circumscribed", "--samples", "16"]
        yield ["discretize", curve, "--method", "centered", "--density", "8"]
    yield ["discretize", "sine", "--method", "inscribed", "--samples", "16"]
    for method in ("inscribed", "circumscribed"):
        for name in ("hex", "open"):
            yield ["spline", files[name], "--method", method, "--svg", str(work / f"{name}-{method}.svg")]


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
        for argv in ops(files, work):
            code = run_op(argv)
            loaded = scipy_modules()
            step = " ".join(argv).replace(f"{work}/", "")
            print(f"{step}: exit {code}, {loaded or 'no scipy'}")
            if code or loaded:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
