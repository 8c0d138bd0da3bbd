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
from itertools import chain, cycle, islice
from json.encoder import encode_basestring_ascii as _quote  # json.dumps of a str
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import ORTHONORMAL, SPLINE_RANGE
from .curve_core import DiscreteCurve, check_edge_lengths
from .errors import ParseError
from .frames import IntrinsicData, curvature_torsion
from .ngon_circle import Convention
from .spline2d import ArcSegment, ClothoidSegment, ElasticaSegment, LineSegment, Spline, _table, clothoid_turning

PIECE_ROWS = 4096  # table rows per piece of json_pieces and csv_pieces; about the floats json_pieces spells per call
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json.dumps' spelling
KERNEL_MIN = 512  # spell_floats spells arrays of fewer values by repr alone: it beat _positional up to about 400
BLOCK = 8192  # values per _positional call, which keeps its temporaries small

# _positional's tables: the powers of ten that are doubles, and their halves of 26 bits (Veltkamp's split);
# 10^-4 ... 10^15 as doubles (those below 1 round up, so |x| >= _DECADES[i] exactly when |x| >= 10^(i - 4));
# the four ASCII digits of 0 ... 9999 as one uint32 each, then again with their trailing zeros as NUL; and,
# for each layout (sign, decade), the 23 columns of _positional's character table that its text takes: digit
# i is column 3 + i, or 23 + i with NUL as "0" (up to the first after the point); "0", ".", "-", NUL are 40-43
_POW10 = np.array([10**k for k in range(23)], dtype=float)
_POW10_HI = _POW10 * 134217729.0 - (_POW10 * 134217729.0 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DECADES = np.array([float(f"1e{k}") for k in range(-4, 16)])
_DIGITS = np.stack([np.arange(10**4, dtype=np.int16) // 10**k % 10 + 48 for k in (3, 2, 1, 0)], 1).astype(np.uint8)
_DIGITS = np.vstack([_DIGITS, _DIGITS * ~np.logical_and.accumulate(_DIGITS[:, ::-1] == 48, axis=1)[:, ::-1]])
_DIGITS = _DIGITS.view(np.uint32).ravel()
_LAYOUTS = np.array([([42] * s + ([*range(23, 24 + e), 41, 24 + e, *range(e + 5, 20)] if e >= 0 else
                                   [40, 41, *[40] * (-1 - e), *range(3, 20)]) + [43] * 23)[:23]
                     for s in (0, 1) for e in range(-4, 16)])


def _nearest(q, r, half, frac):
    """q rounded half to even by a remainder r + frac (0 <= frac < 1) of 2 half units of q."""
    return q + ((r > half) | (r == half) & ((frac > 0) | (q & 1 == 1)))


def _positional(x):
    """(texts, rows): the repr of each x[rows], in the order of rows (a permutation), for x finite with
    1e-4 <= |x| < 1e16, where repr writes digits with a point, and no power of two.

    |x| 10^j = h + low exactly, in [1e16, 1e17), by Dekker's two-product, and = big + frac with big an
    integer and 0 <= frac < 1; rounded half to even to 15, 16 and 17 digits, the shortest candidate c that
    reads back as x is kept, else the one of 17 digits.  c reads back as x when |c - |x| 10^j| is below half
    an ulp of x times 10^j, or equals it and the significand of x is even (reading rounds half to even).
    The test is exact: half an ulp of x times 10^j is 10^j scaled by a power of two, and c - |x| 10^j is
    (c - h) - low, an integer of at most 58 less a multiple of the last bit of |x| 10^j, 2^-46 or more, whose
    difference of at most 50 (c is the nearest of its digits) then has at most 52 significant bits.  This is
    repr: at most one decimal of 15 digits or fewer lies in the rounding interval of x, which is symmetric
    about x, and the nearest one of 16 or 17 digits lies in it whenever any does, always for 17."""
    ax = np.abs(x)
    e = np.searchsorted(_DECADES, ax, side="right") - 5  # 10^e <= |x| < 10^(e + 1)
    j = 16 - e
    h, split, ph, pl = ax * _POW10[j], ax * 134217729.0, _POW10_HI[j], _POW10_LO[j]
    ah = split - (split - ax)
    al = ax - ah
    low = ((ah * ph - h) + ah * pl + al * ph) + al * pl  # |x| 10^j - h, exactly
    floor, h = np.floor(low), h.astype(np.int64)
    big, frac = h + floor.astype(np.int64), low - floor
    n15, n16 = big // 100, big // 10
    n15, n16 = 100 * _nearest(n15, big - 100 * n15, 50, frac), 10 * _nearest(n16, big - 10 * n16, 5, frac)
    gap, half = np.abs((np.stack([n15, n16]) - h) - low), np.ldexp(_POW10[j], np.frexp(ax)[1] - 54)
    back = (gap < half) | (gap == half) & (x.view(np.int64) & 1 == 0)  # which of n15, n16 reads back as x
    digits = np.where(back[0], n15, np.where(back[1], n16, _nearest(big, frac, 0.5, 0)))
    # digits < 1e17: 10^(e + 1) never reads back as x, and each double below it is below by over 8e-17 of it
    layout = (x < 0) * 20 + e + 4
    rows = np.argsort(layout.astype(np.int8), kind="stable")  # the rows of each layout together
    layout, digits = layout[rows], digits[rows]
    keys, zeros = np.empty((len(rows), 5), np.int64), True  # groups of four digits, the first of one; each
    for k in range(4, 0, -1):  # looked up with its trailing zeros as NUL where only zero groups follow it
        quad, digits = digits, digits // 10**4
        quad -= 10**4 * digits
        keys[:, k], zeros = quad + 10**4 * zeros, zeros & (quad == 0)
    keys[:, 0] = digits + 10**4 * zeros
    quads = _DIGITS[keys]  # then with NUL as "0", then "0.-" and NUL
    chars = np.hstack([quads, quads | 0x30303030, np.full((len(rows), 1), 0x2D2E30, np.uint32)]).view(np.uint8)
    out = np.empty((len(rows), 23), np.uint8)
    starts = [0, *(np.flatnonzero(np.diff(layout)) + 1).tolist(), len(rows)]
    for a, b in zip(starts, starts[1:]):
        out[a:b] = chars[a:b, _LAYOUTS[layout[a]]]
    return out.astype(np.uint32).view("<U23").ravel().tolist(), rows


def spell_floats(values) -> list[str]:
    """The values, flattened, spelled as json.dumps spells floats: a finite one as repr does.  Those of an
    array of KERNEL_MIN values or more that _positional takes are spelled by it, BLOCK values a call."""
    values = np.asarray(values, dtype=float).ravel()
    bits = values.view(np.int64)
    out = np.empty(len(values), dtype=object)
    out.fill("0.0")
    left = bits.astype(bool)  # a +0.0 has all bits zero and is spelled "0.0"
    if len(values) >= KERNEL_MIN:
        ax = np.abs(values)
        fit = np.flatnonzero((1e-4 <= ax) & (ax < 1e16) & (bits & (2**52 - 1) != 0))  # with a point, no power of 2
        for i in range(0, len(fit), BLOCK):
            texts, rows = _positional(values[block := fit[i : i + BLOCK]])
            out[block[rows]] = texts
        left[fit] = False
    out[left] = list(map(repr, values[left].tolist()))  # repr calls float.__repr__ without its slot wrapper
    out = out.tolist()
    if not np.isfinite(values).all():
        out = [_NONFINITE.get(text, text) for text in out]
    return out


class Rows(NamedTuple):
    """A table that json_pieces writes as a list of one {key: value} object per row, in the
    order of keys.  Row r takes its cells from shapes[r % len(shapes)], one per key: None for
    the value of the next column (columns are lists of spelled values, one per row), or JSON
    text written as it stands, such as "0.0".  Every shape has one None cell per column."""

    keys: tuple
    shapes: list
    columns: list


class Runs(list):
    """A list of runs (row, values), each of at least one row: json_pieces writes
    them as one list, a run as len(values) copies of row, whose floats are taken
    from one row of values (a 2-D float array) each, in the order json.dumps
    lays them out."""


def _merge(texts, cells):
    """texts around one slot per cell, with each str cell written in its slot's place; a None cell keeps its slot."""
    out = texts[:1]
    for cell, text in zip(cells, texts[1:]):
        if cell is None:
            out.append(text)
        else:
            out[-1] += cell + text
    return out


def _glue(lead, shapes, sep, n):
    """lead, then n rows joined by sep, row r laid out as shapes[r % len(shapes)], the texts
    t[0] v t[1] ... v t[-1] around its k values v (k the same in every shape); as a list of text
    whose odd entries are the slots of the values, row by row: column c fills [1 + 2c :: 2k]."""
    if len(shapes[0]) == 1:
        return [lead + sep.join(texts[0] for texts in islice(cycle(shapes), n))]
    unit = []  # a row of each shape, opened by the text that ends the row before it
    for texts, before in zip(shapes, shapes[-1:] + shapes[:-1]):
        row = [None] * (2 * len(texts) - 2)
        row[::2] = [before[-1] + sep + texts[0], *texts[1:-1]]
        unit += row
    out = unit * (n // len(shapes))
    out += unit[: len(unit) // len(shapes) * (n % len(shapes))]
    out[0] = lead + shapes[0][0]
    out.append(shapes[(n - 1) % len(shapes)][-1])
    return out


def _pieces(shapes, sep, n, columns, step=None):
    """The n rows of _glue filled, step (by default PIECE_ROWS) rows a piece; columns
    are spelled lists, or a float array whose rows are spelled a piece at a time."""
    step = step or PIECE_ROWS
    for i in range(0, n, step):
        j = min(n, i + step)
        out = _glue(sep if i else "", shapes[i % len(shapes) :] + shapes[: i % len(shapes)], sep, j - i)
        cols = [spell_floats(columns[i:j])] if isinstance(columns, np.ndarray) else [col[i:j] for col in columns]
        for c, col in enumerate(cols):
            out[1 + 2 * c :: 2 * len(cols)] = col
        yield "".join(out)


def _row_texts(row, ind):
    """The texts around the floats of row, a float or a list or dict of floats, as
    json.dumps lays the row out at indent ind."""
    if isinstance(row, float):
        return [ind, ""]
    glue = [ind]
    list(_walk(row, ind, glue, []))
    return glue[::2]


def _walk(obj, ind, glue, values):
    """Append json.dumps' text of obj at indent ind to glue, a list of text whose odd
    entries are the slots of the floats appended to values.  Yields None where the text
    so far must become a piece: once values holds PIECE_ROWS floats, and before an array
    or Rows table of more than PIECE_ROWS rows, whose pieces it then yields."""
    inner = ind + "  "
    if isinstance(obj, float):
        values.append(obj)
        glue += [None, ""]
    elif isinstance(obj, (np.ndarray, Rows, Runs)):
        if isinstance(obj, Rows):
            texts = _row_texts(dict.fromkeys(obj.keys, 0.0), inner)
            runs = [([_merge(texts, cells) for cells in obj.shapes], obj.columns, len(obj.columns[0]), PIECE_ROWS)]
        elif isinstance(obj, Runs):  # a piece of a run holds about PIECE_ROWS floats
            runs = [([_row_texts(row, inner)], table, len(table), max(1, PIECE_ROWS // table.shape[1]))
                    for row, table in obj]
        else:
            runs = [([_row_texts(0.0 if obj.ndim == 1 else [0.0] * obj.shape[1], inner)], obj, len(obj), PIECE_ROWS)]
        glue[-1] += "["
        for k, (shapes, columns, n, step) in enumerate(runs):
            glue[-1] += "," if k else ""
            if n > step:
                yield
                yield from _pieces(shapes, ",", n, columns, step)
            elif isinstance(columns, list):  # spelled columns
                glue[-1] += "".join(_pieces(shapes, ",", n, columns))
            elif n:
                values += columns.ravel().tolist()
                glue[-1:] = _glue(glue[-1], shapes, ",", n)
        glue[-1] += ind + "]" if sum(run[2] for run in runs) else "]"
    elif isinstance(obj, dict) and obj:
        for k, (key, value) in enumerate(obj.items()):
            glue[-1] += ("," if k else "{") + inner + _quote(key) + ": "
            yield from _walk(value, inner, glue, values)
        glue[-1] += ind + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        for k, value in enumerate(obj):
            glue[-1] += ("," if k else "[") + inner
            yield from _walk(value, inner, glue, values)
        glue[-1] += ind + "]"
    else:
        glue[-1] += json.dumps(obj)
    if len(values) >= PIECE_ROWS:
        yield


def json_pieces(obj):
    """The text json.dumps gives obj with an indent of 2, as an iterator of pieces.

    obj is built of dicts with str keys, lists, tuples and JSON scalars, and
    may hold 1-D and 2-D float arrays, Rows tables and Runs, written as the
    lists they hold.  Arrays and Rows tables of more than PIECE_ROWS rows
    stream, PIECE_ROWS rows a piece, and a run of Runs of more than PIECE_ROWS
    floats about PIECE_ROWS floats a piece; the other floats are spelled
    together, one spell_floats call for every PIECE_ROWS of them."""
    glue, values = [""], []
    for piece in chain(_walk(obj, "\n", glue, values), [None]):
        if piece is None:  # the text so far, its slots filled
            glue[1::2] = spell_floats(values)
            piece, glue[:], values[:] = "".join(glue), [""], []
        yield piece


def csv_pieces(columns, end: str = "\n", shapes=None):
    """The CSV lines of spelled columns, each ended by end, PIECE_ROWS lines a piece.  Line r
    takes its cells from shapes[r % len(shapes)]: None for the value of the next column, or a
    str written as it stands; by default every cell is a column's value."""
    shapes = shapes or [(None,) * len(columns)]
    texts = ["", *[","] * (len(shapes[0]) - 1), end]
    return _pieces([_merge(texts, cells) for cells in shapes], "", len(columns[0]), columns)


def curve_record(curve: DiscreteCurve) -> dict:
    """The curve as the object its JSON file holds."""
    return {"dim": curve.dim, "closed": curve.closed, "points": curve.points}


def curve_to_json(curve: DiscreteCurve) -> str:
    return "".join(json_pieces(curve_record(curve)))


def curve_from_json(text: str) -> DiscreteCurve:
    try:
        obj = json.loads(text)
        pts = _floats(obj["points"], "curve points")
        dim = obj["dim"]
        closed = obj["closed"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ParseError(f"bad curve JSON: {exc}") from exc
    _check_bool("curve", closed)
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
    columns = [spell_floats(col) for col in curve.points.T]
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


def _read_text(path) -> str:
    """The text of the UTF-8 file at path; ParseError if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def load_curve(path) -> DiscreteCurve:
    text = _read_text(path)
    if Path(path).suffix.lower() == ".csv":
        return curve_from_csv(text)
    return curve_from_json(text)


def intrinsic_to_json(data: IntrinsicData) -> str:
    record = {"ell": data.ell, "convention": data.convention.value, "theta": data.theta, "phi": data.phi}
    return "".join(json_pieces(record))


def intrinsic_from_json(text: str) -> IntrinsicData:
    try:
        obj = json.loads(text)
        ell = _floats(obj["ell"], "intrinsic ell")
        convention = Convention(obj["convention"])
        theta = _floats(obj["theta"], "intrinsic theta")
        phi = _floats(obj["phi"], "intrinsic phi")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ParseError(f"bad intrinsic JSON: {exc}") from exc
    if np.ndim(ell):
        raise ParseError(f"intrinsic ell must be a number, got {json.dumps(obj['ell'])}")
    ell = ell.item()  # a float: 2.0 * ell overflows to inf with no numpy warning
    check_edge_lengths([2.0 * ell], "intrinsic edge 2*ell")  # as analyze checks the edges it reads
    try:
        return curvature_torsion(theta, phi, ell, convention)
    except Exception as exc:
        raise ParseError(f"invalid intrinsic data: {exc}") from exc


def load_intrinsic(path) -> IntrinsicData:
    return intrinsic_from_json(_read_text(path))


# each segment kind's class and fields, in the order its JSON object lists them, with
# each field's shape: () a number, (2,) a point or a vector, (-1,) a list of numbers
_SEGMENTS = {
    "line": (LineSegment, {"start": (2,), "direction": (2,), "length": ()}),
    "arc": (ArcSegment, {"center": (2,), "radius": (), "start_angle": (), "sweep": ()}),
    "clothoid": (ClothoidSegment, {"start": (2,), "start_angle": (), "kappa0": (), "sharpness": (), "length": ()}),
    "elastica": (ElasticaSegment, {"start": (2,), "thetas": (-1,), "length": (), "c_const": ()}),
}
_NAMES = {cls: name for name, (cls, _) in _SEGMENTS.items()}
_SHAPES = {(): "a number", (2,): "a list of 2 numbers", (-1,): "a list of numbers"}


def _floats(raw, what: str) -> np.ndarray:
    """raw, a JSON number or list (of lists) of numbers, as a float array; ParseError names the
    first row (item of raw) holding a string, null, true or false.  numpy gives those, and integers
    past 64 bits, no number type, but reads true and false among numbers as 1 and 0: then only the
    rows holding a 0 or 1 are looked at.  Ragged rows raise ValueError, huge integers OverflowError."""
    values, rows = np.asarray(raw), raw if isinstance(raw, list) else [raw]
    if values.dtype.kind in "iuf":
        hits = np.flatnonzero((values == 0.0) | (values == 1.0)) if values.ndim in (1, 2) else np.empty(0, int)
        rows = [raw[i] for i in (hits // values.shape[1] if values.ndim == 2 else hits).tolist()]
        if bool not in set(map(type, chain.from_iterable(rows) if values.ndim == 2 else rows)):
            return values.astype(float, copy=False)
    for row in rows:  # a list in a row is left to the caller's shape check
        if not set(map(type, row if isinstance(row, list) else [row])) <= {int, float, list}:
            raise ParseError(f"{what} must be numeric, got {json.dumps(row)}")
    return np.asarray(raw, dtype=float)


def _check(ok, message):
    """ParseError(message(i)) for the first row i that is not ok."""
    if not ok.all():
        raise ParseError(message(int(np.argmin(ok))))


def _segment_table(name: str, rows: list, objs: list) -> tuple:
    """The table of the segment objects objs of one kind (and elastica grid size) at positions rows:
    each field read by one _floats call, and each check made on whole columns in the order one
    segment's are made.  An error names the first bad row."""
    (kind, shapes), c = _SEGMENTS[name], {}
    for key, shape in shapes.items():  # files may leave out an elastica's c_const
        what, raw = f"{name} segment {key}", [obj.get(key, 0.0) if key == "c_const" else obj[key] for obj in objs]
        try:
            c[key] = _floats(raw, what)
        except ValueError:  # ragged rows: one has the wrong shape
            c[key] = np.asarray(None)
        if c[key].ndim != 1 + len(shape) or shape == (2,) and c[key].shape[1] != 2:
            bad = next(r for r in raw if len(s := np.shape(r)) != len(shape) or shape and shape[0] not in (-1, s[0]))
            raise ParseError(f"{what} must be {_SHAPES[shape]}, got {json.dumps(bad)}")
        _check(np.isfinite(c[key]).reshape(len(objs), -1).all(1), lambda i: f"{what} must be finite, got {raw[i]!r}")
    if kind is LineSegment:
        _check(np.abs(np.hypot(*c["direction"].T) - 1.0) <= ORTHONORMAL,
               lambda i: f"line segment direction must be a unit vector, got {objs[i]['direction']!r}")
    elif kind is ArcSegment:  # no spline arc turns more than once; its length is |sweep| * radius
        sweep = np.abs(c["sweep"])
        _check((0.0 < sweep) & (sweep <= 2.0 * math.pi),
               lambda i: f"arc segment sweep must be nonzero with |sweep| <= 2*pi, got {c['sweep'][i].item()!r}")
        _check(c["radius"] > 0.0, lambda i: "arc radius must be positive")
        c["length"] = sweep * c["radius"]
    elif kind is ClothoidSegment:  # spline --out writes clothoids as long as the edges: cap only the turning
        with np.errstate(over="ignore", invalid="ignore"):
            turning = clothoid_turning(c["kappa0"], c["sharpness"], c["length"])
        _check(turning <= 1e3, lambda i: f"clothoid segment turning {turning[i]:.6g} rad must be at most 1e3")
    elif c["thetas"].shape[1] < 17:
        raise ParseError("elastica segment needs at least 16 grid cells")
    lo, hi = SPLINE_RANGE
    for key in ("radius", "length") if kind is ArcSegment else ("length",):  # an arc's radius before its length
        _check((lo <= c[key]) & (c[key] <= hi), lambda i: f"{name} segment {key} {c[key][i].item()!r} is outside "
               f"the supported range [{lo:.0e}, {hi:.0e}]")
    if kind is ElasticaSegment and not np.all(np.abs(c["thetas"]) <= hi):
        raise ParseError(f"elastica segment thetas must lie in [{-hi:.0e}, {hi:.0e}]")
    return _table(kind, rows, **c)


def _segment_runs(spline: Spline):
    """(row, values) of each run of consecutive segments from one table of the
    spline: row is a segment's JSON object with 0.0 for each float, and values
    hold the run's floats, a row per segment, in that object's order."""
    which = np.empty(len(spline), np.intp)  # the table of each segment
    for k, (_, rows, _) in enumerate(spline.tables):
        which[rows] = k
    starts = np.flatnonzero(np.diff(which, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(which)]):
        kind, rows, cols = spline.tables[which[lo]]
        i, name = int(np.searchsorted(rows, lo)), _NAMES[kind]
        block = {key: cols[key][i : i + hi - lo] for key in _SEGMENTS[name][1]}
        row = {"type": name, **{key: [0.0] * c.shape[1] if c.ndim == 2 else 0.0 for key, c in block.items()}}
        yield row, np.column_stack(list(block.values()))


def spline_record(spline: Spline) -> dict:
    """The spline as the object its JSON file holds: each run of segments of one kind as one table."""
    return {"closed": spline.closed, "segments": Runs(_segment_runs(spline))}


def spline_to_json(spline: Spline) -> str:
    return "".join(json_pieces(spline_record(spline)))


def spline_from_json(text: str) -> Spline:
    try:
        obj = json.loads(text)
        groups = {}  # the positions of each kind and elastica grid size, as Spline(segments) groups them
        for i, seg in enumerate(obj["segments"]):
            if seg["type"] not in _SEGMENTS:
                raise ParseError(f"unknown segment type {seg['type']!r}")
            groups.setdefault((seg["type"], len(t) if isinstance(t := seg.get("thetas"), list) else -1), []).append(i)
        tables = [_segment_table(name, rows, [obj["segments"][i] for i in rows]) for (name, _), rows in groups.items()]
        closed = obj.get("closed", False)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ParseError(f"bad spline JSON: {exc}") from exc
    _check_bool("spline", closed)
    return Spline(closed=closed, tables=tables)


def load_spline(path) -> Spline:
    return spline_from_json(_read_text(path))
