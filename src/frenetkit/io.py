"""File formats: curve JSON/CSV, intrinsic-data JSON, spline JSON.

Numbers are serialized with full round-trip precision (repr of the double,
17 significant digits where needed), so write -> read is bit-exact.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from pathlib import Path

import numpy as np

from .curve_core import DiscreteCurve
from .errors import ParseError
from .frames import IntrinsicData
from .ngon_circle import Convention
from .spline2d import ArcSegment, ClothoidSegment, ElasticaSegment, LineSegment, Spline, check_clothoid_size


def curve_to_json(curve: DiscreteCurve) -> str:
    return json.dumps(
        {"dim": curve.dim, "closed": curve.closed, "points": curve.points.tolist()},
        indent=2,
    )


def curve_from_json(text: str) -> DiscreteCurve:
    try:
        obj = json.loads(text)
        points = obj["points"]
        dim = obj["dim"]
        closed = obj["closed"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"bad curve JSON: {exc}") from exc
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ParseError(f"points have shape {pts.shape}, expected (n, {dim})")
    try:
        return DiscreteCurve(pts, closed=bool(closed))
    except Exception as exc:
        raise ParseError(f"invalid curve: {exc}") from exc


def curve_to_csv(curve: DiscreteCurve) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    for row in curve.points:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue()


def curve_from_csv(text: str, closed: bool = False) -> DiscreteCurve:
    rows = []
    try:
        for row in csv.reader(_io.StringIO(text)):
            if not row:
                continue
            rows.append([float(v) for v in row])
    except ValueError as exc:
        raise ParseError(f"bad curve CSV: {exc}") from exc
    if not rows:
        raise ParseError("empty curve CSV")
    try:
        return DiscreteCurve(np.asarray(rows, dtype=float), closed=closed)
    except Exception as exc:
        raise ParseError(f"invalid curve: {exc}") from exc


def load_curve(path) -> DiscreteCurve:
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return curve_from_csv(text)
    return curve_from_json(text)


def intrinsic_to_json(data: IntrinsicData) -> str:
    return json.dumps(
        {
            "ell": data.ell,
            "convention": data.convention.value,
            "theta": data.theta.tolist(),
            "phi": data.phi.tolist(),
        },
        indent=2,
    )


def intrinsic_from_json(text: str) -> IntrinsicData:
    from .frames import curvature_torsion

    try:
        obj = json.loads(text)
        ell = float(obj["ell"])
        convention = Convention(obj["convention"])
        theta = np.asarray(obj["theta"], dtype=float)
        phi = np.asarray(obj["phi"], dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad intrinsic JSON: {exc}") from exc
    try:
        return curvature_torsion(theta, phi, ell, convention)
    except Exception as exc:
        raise ParseError(f"invalid intrinsic data: {exc}") from exc


def _segment_to_obj(seg) -> dict:
    if isinstance(seg, LineSegment):
        return {
            "type": "line",
            "start": seg.start.tolist(),
            "direction": seg.direction.tolist(),
            "length": seg.length,
        }
    if isinstance(seg, ArcSegment):
        return {
            "type": "arc",
            "center": seg.center.tolist(),
            "radius": seg.radius,
            "start_angle": seg.start_angle,
            "sweep": seg.sweep,
        }
    if isinstance(seg, ClothoidSegment):
        return {
            "type": "clothoid",
            "start": seg.start.tolist(),
            "start_angle": seg.start_angle,
            "kappa0": seg.kappa0,
            "sharpness": seg.sharpness,
            "length": seg.length,
        }
    if isinstance(seg, ElasticaSegment):
        return {
            "type": "elastica",
            "start": seg.start.tolist(),
            "thetas": seg.thetas.tolist(),
            "length": seg.length,
            "c_const": seg.c_const,
        }
    raise ParseError(f"unknown segment type {type(seg)!r}")


def _finite(obj: dict, key: str, positive: bool = False):
    """obj[key] as a float (a float array for a list); finite, and > 0 if positive."""
    raw = obj[key]
    v = np.asarray(raw, dtype=float) if isinstance(raw, list) else float(raw)
    if not np.all(np.isfinite(v)) or (positive and not np.all(v > 0.0)):
        kind = "positive and finite" if positive else "finite"
        raise ParseError(f"{obj['type']} segment {key} must be {kind}, got {raw!r}")
    return v


def _segment_from_obj(obj: dict):
    kind = obj.get("type")
    if kind == "line":
        return LineSegment(
            _finite(obj, "start"),
            _finite(obj, "direction"),
            _finite(obj, "length", positive=True),
        )
    if kind == "arc":
        sweep = _finite(obj, "sweep")
        if sweep == 0.0 or abs(sweep) > 2.0 * math.pi:
            # no spline arc turns more than once
            raise ParseError(f"arc segment sweep must be nonzero with |sweep| <= 2*pi, got {sweep!r}")
        return ArcSegment(
            _finite(obj, "center"),
            _finite(obj, "radius", positive=True),
            _finite(obj, "start_angle"),
            sweep,
        )
    if kind == "clothoid":
        kappa0, sharpness = _finite(obj, "kappa0"), _finite(obj, "sharpness")
        length = _finite(obj, "length", positive=True)
        check_clothoid_size(kappa0, sharpness, length)
        return ClothoidSegment(_finite(obj, "start"), _finite(obj, "start_angle"), kappa0, sharpness, length)
    if kind == "elastica":
        return ElasticaSegment(
            _finite(obj, "start"),
            _finite(obj, "thetas"),
            _finite(obj, "length", positive=True),
            float(obj.get("c_const", 0.0)),
        )
    raise ParseError(f"unknown segment type {kind!r}")


def spline_to_json(spline: Spline) -> str:
    return json.dumps(
        {"closed": spline.closed, "segments": [_segment_to_obj(s) for s in spline.segments]},
        indent=2,
    )


def spline_from_json(text: str) -> Spline:
    try:
        obj = json.loads(text)
        segs = [_segment_from_obj(s) for s in obj["segments"]]
        closed = bool(obj.get("closed", False))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad spline JSON: {exc}") from exc
    return Spline(tuple(segs), closed=closed)
