"""Seeded inputs, the fixed op list of each workload and the per-op output checks.

Inputs are built through the public frenetkit API only: a random intrinsic
record goes through ``curvature_torsion``, ``reconstruct`` and ``unrefine``
and is written with ``curve_to_json``; closed polygons come from
``ngon_of_circle``.  The seed changes the values, never the sizes, so every
seed asks for the same amount of work.

Every workload runs all four subcommands, so that each end-to-end and
per-layer metric is measured on each of them; the small planar ops of
``curve3d-long`` and ``curves-small`` (``_planar_probe``) are a few percent
of those workloads' time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from frenetkit import (
    Convention,
    DiscreteCurve,
    InitialPose,
    curvature_torsion,
    curve_to_json,
    ngon_of_circle,
    reconstruct,
    unrefine,
)

NAMES = ("curve3d-long", "curves-small", "planar-fit")
# a seed kept out of tuning, for checking a claimed gain
HELD_OUT_SEED = 7919

ANGLE_TOL = 1e-9  # generating theta/phi recovered by analyze
LENGTH_TOL = 1e-9  # centered discretization length error
G1_TOL = 1e-8  # spline position and tangent gaps

LONG_TURNS = 10_000
SMALL_SIZES = (16, 23, 32, 45, 64, 91, 128, 181, 256)
SMALL_CURVES = 90
POLYLINE_SIZES = (11, 21, 31)
CONVEX_ELL = 0.5
SAMPLES = 65
DENSITY = "8"
ALL_METHODS = ("inscribed", "circumscribed", "centered")


@dataclass
class Op:
    kind: str  # the subcommand
    argv: list
    check: Callable[[str], str | None]  # stdout -> failure message or None


@dataclass
class Workload:
    files: dict = field(default_factory=dict)  # file name -> text
    ops: list = field(default_factory=list)
    warmup: list = field(default_factory=list)  # argv of the untimed warm-up op

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name].encode() + b"\0")
        return h.hexdigest()

    def write(self, work: Path):
        for name, text in self.files.items():
            (work / name).write_text(text)


def _random_pose(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return InitialPose(
        origin=rng.normal(scale=3.0, size=3), tangent=q[:, 0], normal=q[:, 1], binormal=q[:, 2]
    )


def _open_curve(rng, n_vertices, planar, convex=False):
    """Open curve with n_vertices vertices and the angle record that built it.

    The record covers the refined curve whose odd points are the vertices;
    turns sit at even transitions, twists (3D only) at odd ones.  A convex
    curve turns left by 0.1 to 0.6 rad at every vertex and has a fixed edge
    length, like the splining demo polyline of frenetkit.figures.
    """
    n_tr = 2 * n_vertices - 1
    theta = np.zeros(n_tr)
    phi = np.zeros(n_tr)
    turn = np.arange(n_tr) % 2 == 0
    if convex:
        vals = rng.uniform(0.1, 0.6, int(turn.sum()))
    else:
        vals = rng.uniform(0.05, math.pi / 2, int(turn.sum()))
    if planar and not convex:
        vals = vals * rng.choice([-1.0, 1.0], size=len(vals))
    elif not planar:
        phi[~turn] = rng.uniform(-math.pi / 2, math.pi / 2, int((~turn).sum()))
    theta[turn] = vals
    ell = CONVEX_ELL if convex else float(rng.uniform(0.2, 2.0))
    data = curvature_torsion(theta, phi, ell, Convention.INSCRIBED)
    pose = InitialPose() if planar else _random_pose(rng)
    dc = unrefine(reconstruct(data, pose, n_steps=n_tr + 1))
    if planar:
        dc = DiscreteCurve(dc.points[:, :2])
    return dc, theta, phi


def _polygon(rng, n):
    dc = ngon_of_circle(
        float(rng.uniform(0.5, 2.0)), n, Convention.INSCRIBED, phase=float(rng.uniform(0, math.tau))
    )
    theta = np.zeros(2 * n)
    theta[0::2] = 2.0 * math.pi / n
    return dc, theta, np.zeros(2 * n)


def _angle_rows(path: Path):
    report = json.loads(path.read_text())
    if report["residual_ok"] is not True:
        return None, "residual_ok is false"
    rows = [block["per_index"] for block in report["conventions"].values()]
    if len(rows) != len(Convention):
        return None, f"{len(rows)} conventions reported"
    return rows, None


def _check_angles(path: Path, theta, phi, closed):
    """analyze must recover the generating angles at every interior transition.

    Refining an open curve starts at its first vertex, while the generating
    record starts half an edge earlier, so analyze's transition j is the
    record's transition j + 1; the first and last transition of an open
    curve lose a neighbouring vertex and are skipped.
    """

    def check(_stdout):
        rows, err = _angle_rows(path)
        if err:
            return err
        for per_index in rows:
            got_t = np.array([r["theta"] for r in per_index])
            got_p = np.array([r["phi"] for r in per_index])
            if closed:
                want_t, want_p = theta, phi
            else:
                got_t, got_p = got_t[1:-1], got_p[1:-1]
                want_t, want_p = theta[2 : len(per_index)], phi[2 : len(per_index)]
            if got_t.shape != want_t.shape:
                return f"{len(per_index)} transitions, expected {len(want_t) + 2}"
            worst = max(np.max(np.abs(got_t - want_t)), np.max(np.abs(got_p - want_p)))
            if not worst <= ANGLE_TOL:
                return f"angle error {worst:.3e} over {ANGLE_TOL:.0e}"
        return None

    return check


def _check_roundtrip(stdout):
    return None if json.loads(stdout)["congruent"] is True else "not congruent"


def _check_discretize(points):
    def check(stdout):
        report = json.loads(stdout)
        if report["method"] == "centered":
            err = report["length_error"]
            return None if err <= LENGTH_TOL else f"length error {err:.3e}"
        return None if report["points"] == points else f"{report['points']} points, expected {points}"

    return check


def _check_spline(svg_path: Path):
    def check(stdout):
        report = json.loads(stdout)
        gaps = (report["g1_position_gap"], report["g1_tangent_gap"])
        if not max(gaps) <= G1_TOL:
            return f"G1 gaps {gaps}"
        if not svg_path.is_file() or svg_path.stat().st_size == 0:
            return "empty SVG"
        return None

    return check


class _Plan:
    def __init__(self, work: Path):
        self.work = work
        self.w = Workload()

    def curve(self, name, dc, theta, phi, closed=False):
        """Add a curve file with one analyze and one roundtrip op."""
        path = self.work / f"{name}.json"
        self.w.files[path.name] = curve_to_json(dc)
        out = self.work / f"{name}.analyze.json"
        self.w.ops.append(
            Op("analyze", ["analyze", str(path), "--out", str(out)], _check_angles(out, theta, phi, closed))
        )
        self.w.ops.append(Op("roundtrip", ["roundtrip", str(path)], _check_roundtrip))
        return path

    def splines(self, path: Path):
        for method in ALL_METHODS:
            svg = self.work / f"{path.stem}.{method}.svg"
            argv = ["spline", str(path), "--method", method, "--svg", str(svg)]
            self.w.ops.append(Op("spline", argv, _check_spline(svg)))

    def discretize(self, curve, methods):
        closed = curve in ("circle", "ellipse")
        for method in methods:
            argv = ["discretize", curve, "--method", method]
            if method == "centered":
                argv += ["--density", DENSITY]
                points = None
            else:
                argv += ["--samples", str(SAMPLES)]
                points = SAMPLES if closed or method == "inscribed" else SAMPLES + 1
            self.w.ops.append(Op("discretize", argv, _check_discretize(points)))

    def warmup(self, path: Path):
        self.w.warmup = ["analyze", str(path), "--out", str(self.work / "warmup.analyze.json")]


def _planar_probe(b: _Plan, rng):
    """Small planar ops that keep every subcommand and layer measured."""
    path = b.curve("probe", *_open_curve(rng, 6, planar=True, convex=True))
    b.splines(path)
    b.discretize("circle", ALL_METHODS)
    b.discretize("clothoid", ALL_METHODS)
    b.warmup(path)


def build(name: str, seed: int, work: Path) -> Workload:
    """The workload's input files (not yet written) and its fixed op list."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    b = _Plan(work)
    if name == "curve3d-long":
        b.curve("long", *_open_curve(rng, LONG_TURNS + 1, planar=False))
        _planar_probe(b, rng)
    elif name == "curves-small":
        for k in range(SMALL_CURVES):
            n = SMALL_SIZES[k % len(SMALL_SIZES)]
            if k % 10 == 9:
                b.curve(f"c{k:03d}", *_polygon(rng, n), closed=True)
            else:
                b.curve(f"c{k:03d}", *_open_curve(rng, n, planar=k % 2 == 1))
        _planar_probe(b, rng)
    else:
        for curve in ("circle", "ellipse", "clothoid"):
            b.discretize(curve, ALL_METHODS)
        # the sine arc has inflections, so it has no centered discretization
        b.discretize("sine", ("inscribed", "circumscribed"))
        for n in POLYLINE_SIZES:
            b.splines(b.curve(f"poly{n}", *_open_curve(rng, n, planar=True, convex=True)))
        hexagon = b.curve("hexagon", *_polygon(rng, 6), closed=True)
        b.splines(hexagon)
        b.warmup(hexagon)
    return b.w
