import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frenetkit import (
    DiscreteCurve,
    RefinedCurve,
    diff,
    msum,
    refine,
    unrefine,
    validate_refined,
)
from frenetkit.errors import InputError, NonUniformLength, TooShort

from conftest import make_random_refined


def test_discrete_curve_validation():
    with pytest.raises(InputError):
        DiscreteCurve(np.zeros((2, 2)), closed=True)  # closed needs 3
    with pytest.raises(InputError):
        DiscreteCurve(np.array([[0.0, 0.0]]))  # open needs 2
    with pytest.raises(InputError):
        DiscreteCurve(np.array([[0.0, 0.0], [0.0, 0.0]]))  # repeated point
    with pytest.raises(InputError):
        DiscreteCurve(np.array([[0.0, np.nan], [1.0, 0.0]]))
    with pytest.raises(InputError):
        DiscreteCurve(np.zeros((3, 4)))  # bad dimension


@pytest.mark.parametrize(
    "points, edge",
    [
        ([[-0.75e308, -0.75e308], [0.75e308, 0.75e308]], "edge 0 from [-7.5e+307, -7.5e+307] to [7.5e+307, 7.5e+307]"),
        ([[0, 0, 0], [1, 0, 0], [1, -1e308, 0], [1, 1e308, 0]], "edge 2 from [1.0, -1e+308, 0.0] to [1.0, 1e+308, 0.0]"),
    ],
    ids=["difference-finite", "difference-overflows"],
)
def test_discrete_curve_names_an_edge_whose_length_overflows(points, edge):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^the length of {re.escape(edge)} overflows$"):
            DiscreteCurve(np.array(points, dtype=float))


def test_edges_and_length_closed():
    square = DiscreteCurve(
        np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]), closed=True
    )
    assert square.length() == pytest.approx(8.0)
    assert square.edges().shape == (4, 2)


def test_refine_unit_square():
    square = DiscreteCurve(
        np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]), closed=True
    )
    rc = refine(square)
    assert len(rc) == 8
    assert rc.ell == pytest.approx(1.0)
    assert rc.vertex_parity == 1
    # even points are the side midpoints
    mids = rc.points[0::2]
    expected = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
    for m in expected:
        assert np.min(np.linalg.norm(mids - m, axis=1)) < 1e-15
    validate_refined(rc)


def test_refine_collinear_open():
    line = DiscreteCurve(np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    rc = refine(line)
    assert rc.vertex_parity == 0
    np.testing.assert_allclose(rc.points[:, 0], [0, 1, 2, 3, 4])
    assert rc.ell == pytest.approx(1.0)


def test_refine_hexagon_midpoints_at_apothem():
    ang = np.arange(6) * math.pi / 3.0
    hexagon = DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True)
    rc = refine(hexagon)
    assert len(rc) == 12
    assert rc.ell == pytest.approx(0.5)
    mids = rc.points[0::2]
    np.testing.assert_allclose(
        np.linalg.norm(mids, axis=1), math.sqrt(3.0) / 2.0, atol=1e-15
    )


def test_refine_rejects_nonuniform():
    with pytest.raises(NonUniformLength):
        refine(DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])))


def test_unrefine_round_trip_bit_exact():
    angles = [0.0, 0.4, -0.3, 0.7]
    steps = np.array([[math.cos(a), math.sin(a)] for a in angles])
    pts = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]) + [0.123, -0.456]
    dc = DiscreteCurve(pts)
    back = unrefine(refine(dc))
    assert np.array_equal(back.points, dc.points)
    assert back.closed == dc.closed


def test_unrefine_random_refined(rng):
    rc, _ = make_random_refined(rng, 21)
    dc = unrefine(rc)
    assert np.array_equal(dc.points, rc.points[1::2])


def test_validate_refined_rejects_bad_midpoint():
    rc = RefinedCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.1], [3.0, 0.0]]), 1.0)
    with pytest.raises((InputError, NonUniformLength)):
        validate_refined(rc)


def test_diff_msum_examples():
    np.testing.assert_allclose(diff([1.0, 3.0, 6.0]), [2.0, 3.0])
    np.testing.assert_allclose(msum([1.0, 3.0, 6.0]), [4.0, 9.0])
    np.testing.assert_allclose(diff(np.full(5, 2.5)), np.zeros(4))
    with pytest.raises(TooShort):
        diff([1.0])


def test_diff_msum_closed_wrap():
    x = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(diff(x, closed=True), [1.0, 2.0, -3.0])
    np.testing.assert_allclose(msum(x, closed=True), [3.0, 6.0, 5.0])


@given(st.integers(min_value=3, max_value=40), st.booleans())
@settings(max_examples=40, deadline=None)
def test_refine_invariants_hypothesis(n, closed):
    rng = np.random.default_rng(n + 1000 * closed)
    # uniform-edge curve: unit steps with bounded turning
    t = np.array([1.0, 0.0])
    pts = [np.zeros(2)]
    for _ in range(n - 1):
        a = rng.uniform(-1.0, 1.0)
        c, s = math.cos(a), math.sin(a)
        t = np.array([c * t[0] - s * t[1], s * t[0] + c * t[1]])
        pts.append(pts[-1] + t)
    dc = DiscreteCurve(np.array(pts), closed=False)
    rc = refine(dc)
    validate_refined(rc)
    assert len(rc) == 2 * n - 1
    assert np.array_equal(unrefine(rc).points, dc.points)
