import json
import math
import re

import numpy as np
import pytest
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
from frenetkit import svg
from frenetkit.errors import NonPlanarData, ParseError
from frenetkit.io import PIECE_ROWS, Rows, json_pieces, spell_floats
from frenetkit.spline2d import ClothoidSegment, polyline_sampler


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
    for ell in (True, False):
        with pytest.raises(ParseError, match=f"intrinsic ell must be numeric, got {json.dumps(ell)}"):
            intrinsic_from_json(json.dumps({**record, "ell": ell}))


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
    for old, new, key in (('"length": 1', '"length": true', "length"), ("[0, 0]", "[0, false]", "start")):
        with pytest.raises(ParseError, match=f"line segment {key} must be numeric"):
            spline_from_json('{"segments": [%s]}' % _LINE.replace(old, new))


def _plain(obj):
    """obj with every array and Rows table turned into the lists and dicts it holds."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Rows):
        return [dict(zip(obj, map(json.loads, row))) for row in zip(*obj.values())]
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


@st.composite
def _rows(draw):
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 5))
    columns = [spell_floats(draw(st.lists(_FLOAT, min_size=n, max_size=n))) for _ in keys]
    return Rows(zip(keys, columns))


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


@given(_DOCUMENT)
@settings(max_examples=300, deadline=None)
def test_json_pieces_are_what_json_dumps_encodes(obj):
    assert "".join(json_pieces(obj)) == json.dumps(_plain(obj), indent=2)


def test_no_piece_holds_more_than_piece_rows():
    n = 2 * PIECE_ROWS + 5
    values = np.linspace(-1.0, 1.0, n)
    table = Rows(a=spell_floats(values), b=spell_floats(-values))
    doc = {"points": np.column_stack([values, values]), "first": table, "second": table, "line": values}
    pieces = list(json_pieces(doc))
    assert "".join(pieces) == json.dumps(_plain(doc), indent=2)
    for piece in pieces:
        # every table is the value of a top-level key, so its rows start at an indent of 4
        assert len(re.findall(r"\n    [^ \]}]", piece)) <= PIECE_ROWS
    assert len(pieces) > 4


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
    (pts,) = polyline_sampler([seg])(1e-3)
    steps = np.diff(pts, axis=0)
    # crude bound: sagitta <= kappa * chord^2 / 8
    kmax = np.max(np.abs(np.diff(seg.thetas))) / seg.ds
    span = np.max(np.ptp(pts, axis=0)) + 1.2
    sagitta = kmax * np.max(np.sum(steps**2, axis=1)) / 8.0
    assert sagitta <= 1.1e-3 * span
    assert "L " in doc
