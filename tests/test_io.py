import json
import math
import re
from itertools import cycle
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frenetkit import (
    ArcSegment,
    Convention,
    DiscreteCurve,
    ElasticaSegment,
    LineSegment,
    Spline,
    curvature_torsion,
    curve_from_csv,
    curve_from_json,
    curve_to_csv,
    curve_to_json,
    intrinsic_from_json,
    intrinsic_to_json,
    render_svg,
    spline_from_json,
    spline_to_json,
)
from frenetkit import io as fio
from frenetkit import svg
from frenetkit.cli import main
from frenetkit.errors import InputError, NonPlanarData, ParseError
from frenetkit.figures import _SPLINE_DEMO_ANGLES, _unit_step_polyline
from frenetkit.io import PIECE_ROWS, Rows, csv_pieces, json_pieces, spell_floats
from frenetkit import refine
from frenetkit.spline2d import (
    ClothoidSegment,
    g1_defects,
    polyline_sampler,
    spline_circumscribed,
    spline_inscribed,
)


def test_curve_json_round_trip_bit_exact(rng):
    pts = rng.normal(size=(9, 3)) * math.pi  # irrational-ish coordinates
    dc = DiscreteCurve(pts)
    back = curve_from_json(curve_to_json(dc))
    assert np.array_equal(back.points, dc.points)
    assert back.closed == dc.closed


def test_curve_csv_round_trip_bit_exact(rng):
    pts = rng.normal(size=(7, 2)) / 3.0
    dc = DiscreteCurve(pts)
    back = curve_from_csv(curve_to_csv(dc))
    assert np.array_equal(back.points, dc.points)


def test_curve_parse_errors():
    with pytest.raises(ParseError):
        curve_from_json("{")
    with pytest.raises(ParseError):
        curve_from_json('{"dim": 2, "closed": false, "points": [[1, 2, 3]]}')
    # "false" is a string, and a truthy one: it must not load as a closed curve
    square = '"points": [[0, 0], [1, 0], [1, 1], [0, 1]]'
    for closed in ('"false"', "0", "null"):
        with pytest.raises(ParseError, match="closed must be true or false"):
            curve_from_json(f'{{"dim": 2, "closed": {closed}, {square}}}')
    # a JSON boolean is no coordinate, though float(True) is 1.0
    # nor are a JSON string and null, though float("0.5") is 0.5
    for row in ("[true, 0]", "[1, false]", '["0.5", 0]', "[1, null]"):
        with pytest.raises(ParseError, match="curve points must be numeric, got " + re.escape(row)):
            curve_from_json(f'{{"dim": 2, "closed": false, "points": [[0, 0], {row}, [2, 0]]}}')
    # an integer past the double range: float() of it overflows
    with pytest.raises(ParseError, match="bad curve JSON: int too large to convert to float"):
        curve_from_json(f'{{"dim": 2, "closed": false, "points": [[0, 0], [1{"0" * 400}, 0], [2, 0]]}}')
    with pytest.raises(ParseError):
        curve_from_csv("a,b\n")
    with pytest.raises(ParseError):
        curve_from_csv("")


def test_intrinsic_round_trip():
    data = curvature_torsion(
        [0.3, 0.0, -0.2], [0.0, 0.4, 0.0], 0.25, Convention.CENTERED
    )
    back = intrinsic_from_json(intrinsic_to_json(data))
    assert back.ell == data.ell
    assert back.convention == data.convention
    assert np.array_equal(back.theta, data.theta)
    assert np.array_equal(back.phi, data.phi)
    with pytest.raises(ParseError):
        intrinsic_from_json('{"ell": 1.0}')
    # a JSON boolean is no number, though float(True) is 1.0
    record = json.loads(intrinsic_to_json(data))
    for ell in (True, False, "0.25", None):
        with pytest.raises(ParseError, match=re.escape(f"intrinsic ell must be numeric, got {json.dumps(ell)}")):
            intrinsic_from_json(json.dumps({**record, "ell": ell}))
    for key, angles, word in (
        ("theta", [False, 0.0, -0.2], "false"),
        ("phi", [0.0, True, 0.0], "true"),
        ("theta", [0.3, "0.0", -0.2], '"0.0"'),
        ("phi", [0.0, 0.4, None], "null"),
    ):
        with pytest.raises(ParseError, match=f"intrinsic {key} must be numeric, got {word}"):
            intrinsic_from_json(json.dumps({**record, key: angles}))
    for key, value in (("ell", 10**400), ("theta", [0.3, 10**400, -0.2])):
        with pytest.raises(ParseError, match="bad intrinsic JSON: int too large to convert to float"):
            intrinsic_from_json(json.dumps({**record, key: value}))


def test_spline_round_trip_all_segment_kinds():
    segs = (
        LineSegment(np.array([0.0, 0.0]), np.array([1.0, 0.0]), 1.0),
        ArcSegment(np.array([1.0, 1.0]), 1.0, -math.pi / 2.0, math.pi / 2.0),
        ClothoidSegment(np.array([2.0, 1.0]), 0.0, 0.1, 0.05, 1.5),
        ElasticaSegment(np.array([3.0, 1.2]), np.linspace(0.1, 0.4, 33), 2.0, -0.5),
    )
    sp = Spline(segs)
    back = spline_from_json(spline_to_json(sp))
    for a, b in zip(sp.segments, back.segments):
        assert type(a) is type(b)
        np.testing.assert_array_equal(a.point_at(0.0), b.point_at(0.0))
        assert a.length == b.length
    with pytest.raises(ParseError):
        spline_from_json('{"segments": [{"type": "spiral"}]}')


def test_solved_splines_reload_with_their_lengths_energies_and_g1_gaps():
    """A solved arc keeps |sweep| * radius as its length, the length an arc read from a
    file gets: inscribed and circumscribed splines reload with their tables, total
    length, energy and G1 gaps to the bit.  The reader builds the tables, and no
    segment object, also for a spline whose elastica of 17 and 33 nodes interleave."""
    rng = np.random.default_rng(0)
    curves = [_unit_step_polyline(rng.uniform(-0.6, 0.6, size=12)) for _ in range(200)]
    ang = np.arange(6) * math.pi / 3.0
    hexagon = DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True)  # six circumscribed arcs
    splines = [spline_inscribed(refine(dc)) for dc in curves] + [spline_circumscribed(dc) for dc in curves]
    splines.append(spline_circumscribed(hexagon))
    assert all(isinstance(seg, ArcSegment) for seg in splines[-1].segments)
    elastica = [ElasticaSegment(np.array([k, 0.5]), rng.uniform(-1, 1, n), 1.0 + k, 0.25 * k) for k, n in
                enumerate([17, 33, 17, 33])]
    splines.append(Spline([elastica[0], LineSegment(np.zeros(2), np.array([0.6, 0.8]), 2.0), *elastica[1:]]))
    for sp in splines:
        back = spline_from_json(spline_to_json(sp))
        assert "segments" not in back.__dict__
        assert [(kind, rows.tolist(), list(cols)) for kind, rows, cols in back.tables] == [
            (kind, rows.tolist(), list(cols)) for kind, rows, cols in sp.tables
        ]
        for (_, _, got), (_, _, want) in zip(back.tables, sp.tables):
            for key, col in want.items():
                assert got[key].shape == col.shape and got[key].tobytes() == col.tobytes(), key
        assert back.total_length() == sp.total_length()
        assert back.energy() == sp.energy()
        assert g1_defects(back) == g1_defects(sp)


# each segment class's JSON type and fields, in the order its object lists them
_SEGMENT_FIELDS = {
    LineSegment: ("line", ("start", "direction", "length")),
    ArcSegment: ("arc", ("center", "radius", "start_angle", "sweep")),
    ClothoidSegment: ("clothoid", ("start", "start_angle", "kappa0", "sharpness", "length")),
    ElasticaSegment: ("elastica", ("start", "thetas", "length", "c_const")),
}


def _per_segment_record(spline):
    """The spline's JSON object built one dict per segment."""
    def obj(seg):
        kind, names = _SEGMENT_FIELDS[type(seg)]
        return {"type": kind, **{name: np.asarray(getattr(seg, name)).tolist() for name in names}}

    return {"closed": spline.closed, "segments": [obj(seg) for seg in spline.segments]}


_ANY = st.floats()  # NaN and the infinities too: the writer spells them as json.dumps does
_PAIR = st.tuples(_ANY, _ANY).map(np.array)
_GRID = st.sampled_from([17, 18, 33]).flatmap(lambda n: st.lists(_ANY, min_size=n, max_size=n))  # three grid sizes
_ANY_SEGMENT = st.one_of(
    st.builds(LineSegment, _PAIR, _PAIR, _ANY),
    st.builds(ArcSegment, _PAIR, st.floats(1e-300, 1e300), _ANY, _ANY),
    st.builds(ClothoidSegment, _PAIR, _ANY, _ANY, _ANY, _ANY),
    st.builds(ElasticaSegment, _PAIR, _GRID, _ANY, _ANY),
)


@given(st.lists(_ANY_SEGMENT, max_size=12), st.booleans(), st.sampled_from([4096, 40, 1]))
@settings(max_examples=100, deadline=None)
def test_spline_json_equals_the_per_segment_record(segments, closed, piece_rows):
    """Each run of segments of one kind (and elastica grid) is written as one table,
    streamed about PIECE_ROWS floats a piece: the bytes of one dict per segment."""
    spline = Spline(segments, closed=closed)
    with mock.patch.object(fio, "PIECE_ROWS", piece_rows):
        text = spline_to_json(spline)
    assert text == json.dumps(_per_segment_record(spline), indent=2)


_LINE = '{"type": "line", "start": [0, 0], "direction": [1, 0], "length": 1}'
_ELASTICA = '{"type": "elastica", "start": [0, 0], "thetas": %s, "length": 1, "c_const": 0.5}' % ([0.0] * 17)


def test_spline_parse_errors():
    assert spline_from_json(f'{{"closed": true, "segments": [{_LINE}]}}').closed is True
    for closed in ('"false"', "0", "null"):
        with pytest.raises(ParseError, match="closed must be true or false"):
            spline_from_json(f'{{"closed": {closed}, "segments": [{_LINE}]}}')
    with pytest.raises(ParseError, match="c_const must be finite"):
        spline_from_json('{"segments": [%s]}' % _ELASTICA.replace("0.5", "NaN"))
    spline_from_json('{"segments": [%s]}' % _ELASTICA)
    # a line's direction must be a unit vector, or point_at(length) is not length away
    for direction in ("[3, 4]", "[0.6, 0.8000001]", "[0, 0]"):
        with pytest.raises(ParseError, match="direction must be a unit vector"):
            spline_from_json('{"segments": [%s]}' % _LINE.replace("[1, 0]", direction))
    spline_from_json('{"segments": [%s]}' % _LINE.replace("[1, 0]", "[0.6, 0.8]"))
    # JSON booleans are not numbers, alone or in a list
    # nor are JSON strings and null
    for old, new, message in (
        ('"length": 1', '"length": true', "line segment length must be numeric, got true"),
        ("[0, 0]", "[0, false]", "line segment start must be numeric, got [0, false]"),
        ('"length": 1', '"length": "1"', 'line segment length must be numeric, got "1"'),
        ("[0, 0]", "[0, null]", "line segment start must be numeric, got [0, null]"),
        ("[1, 0]", '["1", 0]', 'line segment direction must be numeric, got ["1", 0]'),
    ):
        with pytest.raises(ParseError, match=re.escape(message)):
            spline_from_json('{"segments": [%s]}' % _LINE.replace(old, new))
    with pytest.raises(ParseError, match="bad spline JSON: int too large to convert to float"):
        spline_from_json('{"segments": [%s]}' % _LINE.replace('"length": 1', f'"length": 1{"0" * 400}'))


_TWELVE = [  # three copies each of a line, an arc, a clothoid and an elastica
    {"type": "line", "start": [0.0, 0.0], "direction": [1.0, 0.0], "length": 1.0},
    {"type": "arc", "center": [1.0, 1.0], "radius": 1.0, "start_angle": -math.pi / 2.0, "sweep": 1.0},
    {"type": "clothoid", "start": [2.0, 1.0], "start_angle": 0.5, "kappa0": 0.5, "sharpness": 0.1, "length": 2.0},
    {"type": "elastica", "start": [3.0, 2.0], "thetas": [0.1 * k for k in range(17)], "length": 2.0, "c_const": 0.5},
] * 3
# (type, field, bad value, the message of a spline file whose one bad segment has it),
# each message as the reader that built one segment object per JSON object gave it
_SEGMENT_FAULTS = [
    ("line", "start", [0.0, 0.0, 0.0], "line segment start must be a list of 2 numbers, got [0.0, 0.0, 0.0]"),
    ("arc", "radius", [1.0], "arc segment radius must be a number, got [1.0]"),
    ("clothoid", "kappa0", True, "clothoid segment kappa0 must be numeric, got true"),
    ("elastica", "c_const", math.nan, "elastica segment c_const must be finite, got nan"),
    ("line", "start", [0.0, -math.inf], "line segment start must be finite, got [0.0, -inf]"),
    ("line", "direction", [3, 4], "line segment direction must be a unit vector, got [3, 4]"),
    ("arc", "sweep", 0, "arc segment sweep must be nonzero with |sweep| <= 2*pi, got 0.0"),
    ("arc", "sweep", 7, "arc segment sweep must be nonzero with |sweep| <= 2*pi, got 7.0"),
    ("arc", "radius", -1.0, "arc radius must be positive"),
    ("arc", "radius", 1e201, "arc segment radius 1e+201 is outside the supported range [1e-200, 1e+200]"),
    ("clothoid", "kappa0", 2e3, "clothoid segment turning 4000.2 rad must be at most 1e3"),
    ("line", "length", -1, "line segment length -1.0 is outside the supported range [1e-200, 1e+200]"),
    ("elastica", "thetas", [0.0] * 5, "elastica segment needs at least 16 grid cells"),
    ("elastica", "thetas", [0.0] * 16 + [1e201], "elastica segment thetas must lie in [-1e+200, 1e+200]"),
    ("clothoid", "type", "spiral", "unknown segment type 'spiral'"),
]


@pytest.mark.parametrize("kind, key, value, message", _SEGMENT_FAULTS)
def test_one_bad_segment_gives_its_message_wherever_it_lies(kind, key, value, message):
    """The reader checks whole columns of segments, one table at a time, but a file with
    one bad segment, first, in the middle or last, still gets that segment's message."""
    for at in (0, 6, 11):
        segments = [dict(obj) for obj in _TWELVE]
        bad = segments.pop([obj["type"] for obj in segments].index(kind))
        segments.insert(at, {**bad, key: value})
        with pytest.raises(InputError) as caught:
            spline_from_json(json.dumps({"segments": segments}))
        assert str(caught.value) == message, at


def _plain(obj):
    """obj with every array and Rows table turned into the lists and dicts it holds."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Rows):  # row r's shape, its None cells taken in order from the row's values
        return [
            {key: json.loads(next(values) if cell is None else cell) for key, cell in zip(obj.keys, shape)}
            for shape, values in zip(cycle(obj.shapes), map(iter, zip(*obj.columns)))
        ]
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return obj


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
_FLOAT = st.one_of(_SPECIAL, st.floats())
_ARRAY = hnp.arrays(
    float, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5), elements=_FLOAT
)


def _table(**columns):
    """A Rows table of one shape, a value at every key."""
    return Rows(tuple(columns), [(None,) * len(columns)], list(columns.values()))


@st.composite
def _rows(draw):
    """A Rows table of one to three shapes, each with a value at k of its keys and a spelled float
    at the others, as analyze lays out its turns and twists."""
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    k, n = draw(st.integers(1, len(keys))), draw(st.integers(0, 5))
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        slots = set(draw(st.permutations(keys))[:k])
        shapes.append(tuple(None if key in slots else spell_floats([draw(_FLOAT)])[0] for key in keys))
    return Rows(tuple(keys), shapes, [spell_floats(draw(st.lists(_FLOAT, min_size=n, max_size=n))) for _ in range(k)])


_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), _FLOAT, st.text(max_size=6), _ARRAY, _rows())
_DOCUMENT = st.recursive(
    _LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


@given(_DOCUMENT, st.sampled_from([PIECE_ROWS, 1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_json_pieces_are_what_json_dumps_encodes(obj, piece_rows):
    """Also with pieces so small that the tables stream and the floats are spelled in several calls."""
    with mock.patch.object(fio, "PIECE_ROWS", piece_rows):
        assert "".join(json_pieces(obj)) == json.dumps(_plain(obj), indent=2)


_ZEROS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan])


@given(hnp.arrays(float, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=8),
                  elements=st.one_of(_ZEROS, st.floats())))
@settings(max_examples=300, deadline=None)
def test_spell_floats_is_repr_with_json_nonfinite_names(values):
    """+0.0 takes the constant "0.0"; every other finite value, -0.0 and 5e-324
    among them, is spelled by repr, and NaN and +-inf as json.dumps spells them."""
    flat = values.ravel().tolist()
    assert spell_floats(values) == [json.dumps(v) for v in flat]
    assert spell_floats(values[np.isfinite(values)]) == [repr(v) for v in flat if math.isfinite(v)]


def test_no_piece_holds_more_than_piece_rows():
    n = 2 * PIECE_ROWS + 5
    values = np.linspace(-1.0, 1.0, n)
    table = _table(a=spell_floats(values), b=spell_floats(-values))
    doc = {"points": np.column_stack([values, values]), "first": table, "second": table, "line": values}
    pieces = list(json_pieces(doc))
    assert "".join(pieces) == json.dumps(_plain(doc), indent=2)
    for piece in pieces:
        # every table is the value of a top-level key, so its rows start at an indent of 4
        assert len(re.findall(r"\n    [^ \]}]", piece)) <= PIECE_ROWS
    assert len(pieces) > 4


@pytest.mark.parametrize("n", [PIECE_ROWS - 1, PIECE_ROWS, PIECE_ROWS + 1])
@pytest.mark.parametrize("shape", ["n", "n, 3", "n, 0"])
def test_tables_around_the_piece_size(n, shape):
    rows = np.linspace(-1.0, 1.0, n)
    array = {"n": rows, "n, 3": np.column_stack([rows, -rows, 2.0 * rows]), "n, 0": np.empty((n, 0))}[shape]
    column = spell_floats(rows)
    doc = {"array": array, "rows": _table(a=column, b=column[::-1]), "after": 0.5}
    pieces = list(json_pieces(doc))
    assert "".join(pieces) == json.dumps(_plain(doc), indent=2)
    if n > PIECE_ROWS:  # both tables stream: the text before each, its two pieces, and the text after
        assert len(pieces) == 7
        assert all(len(re.findall(r"\n    [^ \]}]", piece)) <= PIECE_ROWS for piece in pieces)
    lines = list(csv_pieces([column, column[::-1]], end="\r\n"))
    assert "".join(lines) == "".join(f"{a},{b}\r\n" for a, b in zip(column, column[::-1]))
    assert len(lines) == -(-n // PIECE_ROWS)


def test_rows_keys_with_percent_signs():
    keys = ["%", "%s", "%%", "%(a)s"]
    table = _table(**{key: spell_floats([0.5 * k, -1.0, math.nan]) for k, key in enumerate(keys)})
    doc = {key: table for key in keys}
    assert "".join(json_pieces(doc)) == json.dumps(_plain(doc), indent=2)


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.integers(0, 9).flatmap(
            lambda n: st.lists(st.lists(st.text(max_size=4), min_size=n, max_size=n), min_size=k, max_size=k)
        )
    ),
    st.integers(1, 4),
    st.sampled_from(["\n", "\r\n"]),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_csv_pieces_are_the_lines_joined_by_commas(columns, piece_rows, end, data):
    """Also with lines that take turns among one to three shapes, each with as many fixed cells among the values."""
    shapes = [(None,) * len(columns)]
    if data.draw(st.booleans()):
        fixed = data.draw(st.integers(0, 2))
        cells = st.lists(st.text(max_size=3), min_size=fixed, max_size=fixed)
        shapes = [data.draw(st.permutations([None] * len(columns) + data.draw(cells)))
                  for _ in range(data.draw(st.integers(1, 3)))]
    with mock.patch.object(fio, "PIECE_ROWS", piece_rows):
        pieces = list(csv_pieces(columns, end, shapes=shapes))
    lines = [[next(values) if cell is None else cell for cell in shape]
             for shape, values in zip(cycle(shapes), map(iter, zip(*columns)))]
    assert "".join(pieces) == "".join(",".join(line) + end for line in lines)
    assert len(pieces) == -(-len(columns[0]) // piece_rows)


def _count_spellings(monkeypatch):
    """The number of floats given to each spell_floats call, appended as the calls happen."""
    calls, spell = [], fio.spell_floats
    monkeypatch.setattr(fio, "spell_floats", lambda values: calls.append(np.size(values)) or spell(values))
    return calls


@pytest.mark.parametrize("method", ["inscribed", "circumscribed", "centered"])
def test_a_spline_report_spells_its_floats_in_one_call(method, tmp_path, monkeypatch):
    path = tmp_path / "demo.json"
    path.write_text(curve_to_json(_unit_step_polyline(_SPLINE_DEMO_ANGLES)))
    calls = _count_spellings(monkeypatch)
    result = CliRunner().invoke(main, ["spline", str(path), "--method", method])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1 and calls[0] > 20
    assert json.loads(result.stdout)["spline"]["segments"]


def test_floats_outside_tables_are_spelled_piece_rows_at_a_time(monkeypatch):
    """The text before the floats spelled last is let go, as a table's rows are."""
    doc = [np.linspace(0.0, 1.0, 1000) for _ in range(20)] + [0.25] * 5000
    calls = _count_spellings(monkeypatch)
    assert "".join(json_pieces(doc)) == json.dumps(_plain(doc), indent=2)
    assert sum(calls) == 25000 and len(calls) > 5 and max(calls) < PIECE_ROWS + 1000


def test_svg_empty_spline_shell():
    doc = render_svg(splines=[Spline(())])
    assert doc.startswith('<?xml version="1.0"')
    assert "<svg" in doc and doc.rstrip().endswith("</svg>")
    assert "<path" not in doc


def test_svg_rejects_3d():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    with pytest.raises(NonPlanarData):
        render_svg(curves=[DiscreteCurve(pts)])
    # planar data embedded in 3D is fine
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
    assert "<path" in render_svg(curves=[DiscreteCurve(flat)])


def test_svg_arc_native_and_deterministic():
    arc = ArcSegment(np.array([0.0, 0.0]), 1.0, 0.0, math.pi / 2.0)
    doc = render_svg(splines=[Spline((arc,))])
    assert doc.count("A ") == 1
    assert doc == render_svg(splines=[Spline((arc,))])


def test_svg_draws_arcs_split_over_tables_as_arcs():
    sp = spline_inscribed(refine(_unit_step_polyline([0.3, -0.4, 0.5, -0.6])))
    lines, (kind, rows, cols) = sp.tables  # the two half edges at the ends, and the four arcs
    halves = [(kind, rows[part], {key: c[part] for key, c in cols.items()}) for part in (slice(2), slice(2, None))]
    split = Spline(tables=[lines, *halves])
    doc = render_svg(splines=[sp])
    assert doc.count("A ") == 4
    assert render_svg(splines=[split]) == doc


# the paths of the hexagon's closed splines: six arcs each, the first from the path's first point
_HEXAGON_SPLINE_PATHS = {
    "inscribed": "M 0.75 0.4330127019"
    " A 0.8660254038 0.8660254038 0 0 0 0.75 -0.4330127019"
    " A 0.8660254038 0.8660254038 0 0 0 5.302876194e-17 -0.8660254038"
    " A 0.8660254038 0.8660254038 0 0 0 -0.75 -0.4330127019"
    " A 0.8660254038 0.8660254038 0 0 0 -0.75 0.4330127019"
    " A 0.8660254038 0.8660254038 0 0 0 -5.536083803e-16 0.8660254038"
    " A 0.8660254038 0.8660254038 0 0 0 0.75 0.4330127019",
    "circumscribed": "M 1 -0"
    " A 1 1 0 0 0 0.5 -0.8660254038"
    " A 1 1 0 0 0 -0.5 -0.8660254038"
    " A 1 1 0 0 0 -1 -1.224646799e-16"
    " A 1 1 0 0 0 -0.5 0.8660254038"
    " A 1 1 0 0 0 0.5 0.8660254038"
    " A 1 1 0 0 0 1 1.110223025e-16",
}


@pytest.mark.parametrize("method", sorted(_HEXAGON_SPLINE_PATHS))
def test_svg_path_of_a_closed_spline_that_starts_with_an_arc(method):
    ang = np.arange(6) * math.pi / 3.0
    hexagon = DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True)
    sp = spline_inscribed(refine(hexagon)) if method == "inscribed" else spline_circumscribed(hexagon)
    assert sp.closed and all(isinstance(seg, ArcSegment) for seg in sp.segments)
    (path,) = re.findall(r'<path d="([^"]*)"', render_svg(splines=[sp]))
    assert path == _HEXAGON_SPLINE_PATHS[method]


def test_svg_template_speller_matches_fmt():
    # x as the format spec .10g spells it, y as it spells -y: a y of 0.0 spells -0 and a y of -0.0 spells 0
    values = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e-5, -1e-5, math.pi, 123456.789012345]
    pts = np.column_stack([values, values[::-1]])
    want = " ".join(f"{x:.10g} {-y:.10g}" for x, y in pts.tolist())
    assert svg._fill(" ".join(["%.10g %.10g"] * len(pts)), svg._xy(pts)) == want
    assert svg._fill("%.10g %.10g", svg._xy(np.array([[0.0, 0.0]]))) == "0 -0"
    assert svg._fill("%.10g %.10g", svg._xy(np.array([[-0.0, -0.0]]))) == "-0 0"
    assert svg._fill("%.10g", np.float64(-0.0)) == f"{-0.0:.10g}" == "-0"


def test_svg_polyline_chordal_deviation():
    # elastica polylines must stay within 0.1% of the viewport span
    seg = ElasticaSegment(np.array([0.0, 0.0]), np.linspace(0.0, 2.0, 65), 2.0)
    doc = render_svg(splines=[Spline((seg,))])
    pts, starts = polyline_sampler(Spline((seg,)))(1e-3)
    assert starts.tolist() == [0, len(pts)]
    steps = np.diff(pts, axis=0)
    # crude bound: sagitta <= kappa * chord^2 / 8
    kmax = np.max(np.abs(np.diff(seg.thetas))) / seg.ds
    span = np.max(np.ptp(pts, axis=0)) + 1.2
    sagitta = kmax * np.max(np.sum(steps**2, axis=1)) / 8.0
    assert sagitta <= 1.1e-3 * span
    assert "L " in doc
