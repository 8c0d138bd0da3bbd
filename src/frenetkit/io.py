"""File formats: curve JSON/CSV, intrinsic-data JSON, spline JSON.

Numbers are serialized with full round-trip precision (repr of the double,
17 significant digits where needed), so write -> read is bit-exact.  One
writer, ``json_pieces``, yields every JSON report and file in pieces, byte
for byte as ``json.dumps`` lays it out with an indent of 2.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from pathlib import Path

import numpy as np

from .config import ORTHONORMAL
from .curve_core import DiscreteCurve
from .errors import ParseError
from .frames import IntrinsicData
from .ngon_circle import Convention
from .spline2d import ArcSegment, ClothoidSegment, ElasticaSegment, LineSegment, Spline, check_clothoid_size

PIECE_ROWS = 4096  # the most table rows one piece of json_pieces or csv_pieces holds
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json.dumps' spelling


def spell_floats(values, csv: bool = False) -> list[str]:
    """The values, flattened, spelled as json.dumps spells floats, or with csv as repr does."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    out = list(map(float.__repr__, values))
    if not csv and not all(map(math.isfinite, values)):
        out = [_NONFINITE.get(text, text) for text in out]
    return out


class Rows(dict):
    """A table {key: column of spelled values}, which json_pieces writes as a
    list of one {key: value} object per row."""


def _fill(template, sep, n, cells):
    """Yield n rows of template joined by sep, PIECE_ROWS rows a piece;
    cells(i, j) spells rows i..j-1 in row order."""
    for i in range(0, n, PIECE_ROWS):
        j = min(i + PIECE_ROWS, n)
        yield (sep if i else "") + sep.join([template] * (j - i)) % tuple(cells(i, j))


def _cells(columns):
    return lambda i, j: chain.from_iterable(zip(*(col[i:j] for col in columns)))


def _layout(items, ind, brackets):
    """json.dumps' layout of a list or object of spelled items at indent ind."""
    inner = ind + "  "
    return brackets[0] + inner + ("," + inner).join(items) + ind + brackets[1] if items else brackets


def _parts(obj, ind, out):
    """Append json.dumps' text of obj at indent ind to out: strings, and for
    each float array or Rows table a generator of its pieces."""
    inner = ind + "  "
    if isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_NONFINITE.get(text, text))
    elif isinstance(obj, (np.ndarray, Rows)):
        if isinstance(obj, Rows):
            row = _layout([_quote(key).replace("%", "%%") + ": %s" for key in obj], inner, "{}")
            n, cells = len(next(iter(obj.values()), ())), _cells(obj.values())
        else:
            row = "%s" if obj.ndim == 1 else _layout(["%s"] * obj.shape[1], inner, "[]")
            n, cells = len(obj), lambda i, j: spell_floats(obj[i:j])
        out += ["[", _fill(inner + row, ",", n, cells), ind + "]"] if n else ["[]"]
    elif isinstance(obj, dict) and obj:
        for k, (key, value) in enumerate(obj.items()):
            out.append(("," if k else "{") + inner + _quote(key) + ": ")
            _parts(value, inner, out)
        out.append(ind + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        for k, value in enumerate(obj):
            out.append(("," if k else "[") + inner)
            _parts(value, inner, out)
        out.append(ind + "]")
    else:
        out.append(json.dumps(obj))


def json_pieces(obj):
    """The text json.dumps gives obj with an indent of 2, as an iterator of pieces.

    obj is built of dicts with str keys, lists, tuples and JSON scalars, and
    may hold 1-D and 2-D float arrays and Rows tables, written as the lists
    they hold.  No piece holds more than PIECE_ROWS table rows."""
    parts = []
    _parts(obj, "\n", parts)
    return chain.from_iterable([part] if isinstance(part, str) else part for part in parts)


def csv_pieces(columns, end: str = "\n"):
    """The CSV lines of spelled columns, each ended by end, PIECE_ROWS lines a piece."""
    return _fill(",".join(["%s"] * len(columns)) + end, "", len(columns[0]), _cells(columns))


def curve_record(curve: DiscreteCurve) -> dict:
    """The curve as the object its JSON file holds."""
    return {"dim": curve.dim, "closed": curve.closed, "points": curve.points}


def curve_to_json(curve: DiscreteCurve) -> str:
    return "".join(json_pieces(curve_record(curve)))


def curve_from_json(text: str) -> DiscreteCurve:
    try:
        obj = json.loads(text)
        points = obj["points"]
        dim = obj["dim"]
        closed = obj["closed"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"bad curve JSON: {exc}") from exc
    _check_bool("curve", closed)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ParseError(f"points have shape {pts.shape}, expected (n, {dim})")
    try:
        return DiscreteCurve(pts, closed=closed)
    except Exception as exc:
        raise ParseError(f"invalid curve: {exc}") from exc


def _check_bool(kind: str, closed):
    if not isinstance(closed, bool):
        raise ParseError(f"{kind} closed must be true or false, got {closed!r}")


def curve_to_csv(curve: DiscreteCurve) -> str:
    columns = [spell_floats(col, csv=True) for col in curve.points.T]
    return "".join(csv_pieces(columns, end="\r\n"))


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
    record = {"ell": data.ell, "convention": data.convention.value, "theta": data.theta, "phi": data.phi}
    return "".join(json_pieces(record))


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


# each segment kind's class and fields, in the order its JSON object lists them
_SEGMENTS = {
    "line": (LineSegment, "start", "direction", "length"),
    "arc": (ArcSegment, "center", "radius", "start_angle", "sweep"),
    "clothoid": (ClothoidSegment, "start", "start_angle", "kappa0", "sharpness", "length"),
    "elastica": (ElasticaSegment, "start", "thetas", "length", "c_const"),
}


def _segment_to_obj(seg) -> dict:
    for kind, (cls, *fields) in _SEGMENTS.items():
        if isinstance(seg, cls):
            return {"type": kind, **{name: getattr(seg, name) for name in fields}}
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
    if obj["type"] not in _SEGMENTS:
        raise ParseError(f"unknown segment type {obj['type']!r}")
    cls, *fields = _SEGMENTS[obj["type"]]
    obj = {"c_const": 0.0, **obj}  # files may leave out an elastica's c_const
    v = {name: _finite(obj, name, positive=name in ("radius", "length")) for name in fields}
    if cls is LineSegment and not abs(math.hypot(*v["direction"]) - 1.0) <= ORTHONORMAL:
        raise ParseError(f"line segment direction must be a unit vector, got {obj['direction']!r}")
    if cls is ArcSegment and not 0.0 < abs(v["sweep"]) <= 2.0 * math.pi:
        # no spline arc turns more than once
        raise ParseError(f"arc segment sweep must be nonzero with |sweep| <= 2*pi, got {v['sweep']!r}")
    if cls is ClothoidSegment:
        check_clothoid_size(v["kappa0"], v["sharpness"], v["length"])
    return cls(**v)


def spline_record(spline: Spline) -> dict:
    """The spline as the object its JSON file holds."""
    return {"closed": spline.closed, "segments": [_segment_to_obj(s) for s in spline.segments]}


def spline_to_json(spline: Spline) -> str:
    return "".join(json_pieces(spline_record(spline)))


def spline_from_json(text: str) -> Spline:
    try:
        obj = json.loads(text)
        segs = [_segment_from_obj(s) for s in obj["segments"]]
        closed = obj.get("closed", False)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad spline JSON: {exc}") from exc
    _check_bool("spline", closed)
    return Spline(tuple(segs), closed=closed)
