import inspect
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frenetkit import (
    Convention,
    DiscreteCurve,
    RefinedCurve,
    analyze,
    curvature_torsion,
    edge_frames,
    frenet_residual,
    polyline_turning_angles,
    refine,
    turn_twist_angles,
    validate_refined,
    vertex_frames,
)
from frenetkit import cli, frames
from frenetkit.frames import IntrinsicData, convention_table, validate_angle_record
from frenetkit.ngon_circle import kappa_from_angle
from frenetkit.errors import (
    AngleOutOfRange,
    DegenerateVertexFrame,
    InputError,
    InvalidAngles,
    UndefinedBinormal,
)

from conftest import curve_from_intrinsic, make_random_intrinsic, make_random_refined


def _hexagon_refined():
    ang = np.arange(6) * math.pi / 3.0
    return refine(DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True))


def test_planar_square_frames():
    square = refine(
        DiscreteCurve(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]), closed=True)
    )
    ff = edge_frames(square)
    np.testing.assert_allclose(ff.Be, np.tile([0.0, 0.0, 1.0], (8, 1)))
    # tangents alternate between the four axis directions, two half-edges each
    np.testing.assert_allclose(ff.Te[1], ff.Te[2], atol=1e-15)
    assert np.dot(ff.Te[1], ff.Te[3]) == pytest.approx(0.0, abs=1e-15)


def test_straight_line_frames():
    line = refine(DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])))
    ff = vertex_frames(edge_frames(line))
    np.testing.assert_allclose(ff.Te, np.tile([1.0, 0.0, 0.0], (4, 1)), atol=1e-15)
    np.testing.assert_allclose(ff.Tv, ff.Te[:-1], atol=1e-15)
    theta, phi = turn_twist_angles(ff)
    assert np.all(theta == 0.0) and np.all(phi == 0.0)


def test_hexagon_angles_and_tangent_turns():
    rc = _hexagon_refined()
    ff = edge_frames(rc)
    theta, phi = turn_twist_angles(ff)
    turn = ff.turn_mask
    np.testing.assert_allclose(theta[turn], math.pi / 3.0, atol=1e-14)
    np.testing.assert_allclose(theta[~turn], 0.0, atol=1e-15)
    np.testing.assert_allclose(phi, 0.0, atol=1e-15)
    # angle between consecutive distinct tangents is the exterior angle
    for i in np.nonzero(turn)[0]:
        j = (i + 1) % ff.n_edges
        dot = float(np.dot(ff.Te[i], ff.Te[j]))
        assert math.acos(min(1.0, dot)) == pytest.approx(math.pi / 3.0, abs=1e-14)


def test_vertex_frames_bisect_and_right_handed():
    rc = _hexagon_refined()
    ff = vertex_frames(edge_frames(rc))
    for i in range(ff.n_transitions):
        j = (i + 1) % ff.n_edges
        # Tv bisects the adjacent edge tangents
        assert np.dot(ff.Tv[i], ff.Te[i]) == pytest.approx(np.dot(ff.Tv[i], ff.Te[j]))
        np.testing.assert_allclose(
            np.cross(ff.Bv[i], ff.Tv[i]), ff.Nv[i], atol=1e-12
        )


def test_hexagon_kappa_all_conventions():
    rc = _hexagon_refined()
    for conv, expected in (
        (Convention.INSCRIBED, 2.0 / 0.5 * math.sin(math.pi / 6.0)),
        (Convention.CIRCUMSCRIBED, 2.0 / 0.5 * math.tan(math.pi / 6.0)),
        (Convention.CENTERED, (math.pi / 3.0) / 0.5),
    ):
        _, data = analyze(rc, conv)
        k = data.kappa[data.theta != 0.0]
        np.testing.assert_allclose(k, expected, atol=1e-13)
        assert data.kappa[data.theta == 0.0].max(initial=0.0) == 0.0
    # inscribed value on the refined half-edges: (2/0.5) sin(pi/6) = 2
    _, data = analyze(rc, Convention.INSCRIBED)
    np.testing.assert_allclose(data.kappa[data.theta != 0.0], 2.0, atol=1e-13)


def test_signed_planar_angles():
    # zig-zag: left turn then right turn gives opposite theta signs
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, math.sqrt(3.0) / 2.0], [2.5, math.sqrt(3.0) / 2.0]])
    steps = np.diff(pts, axis=0)
    assert np.allclose(np.linalg.norm(steps, axis=1), 1.0)
    rc = refine(DiscreteCurve(pts))
    _, data = analyze(rc)
    nz = data.theta[data.theta != 0.0]
    assert nz[0] > 0.0 and nz[1] < 0.0
    assert abs(nz[0]) == pytest.approx(abs(nz[1]), abs=1e-14)


def test_3d_theta_nonnegative_phi_signed(rng):
    rc, data_in = make_random_refined(rng, 41)
    _, data = analyze(rc)
    assert np.all(data.theta >= 0.0)
    np.testing.assert_allclose(data.theta, data_in.theta, atol=1e-10)
    np.testing.assert_allclose(data.phi, data_in.phi, atol=1e-10)


def test_frenet_residual_hexagon_all_conventions():
    rc = _hexagon_refined()
    for conv in Convention:
        ff, data = analyze(rc, conv)
        assert frenet_residual(ff, data) <= 1e-12


def test_frenet_residual_line_exact_zero():
    line = refine(DiscreteCurve(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])))
    with pytest.raises(UndefinedBinormal):
        edge_frames(line)
    # planar line has the global binormal, residual exactly zero
    line2 = refine(DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])))
    ff, data = analyze(line2)
    assert frenet_residual(ff, data) == 0.0


def test_binormal_propagation_across_straight_vertex():
    # 3D curve with one straight vertex between two turns
    pts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [2.0, 0.0, 0.0],
            [2.0 + math.cos(0.5), math.sin(0.5), 0.0],
        ]
    )
    rc = refine(DiscreteCurve(pts))
    ff = edge_frames(rc)
    assert np.all(np.isfinite(ff.Be))
    ff, data = analyze(rc)
    assert frenet_residual(ff, data) <= 1e-12


def test_degenerate_vertex_frame():
    # antiparallel consecutive tangents break the normalized sum
    rc = RefinedCurve(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-12]]), 1.0, vertex_parity=1
    )
    with pytest.raises((DegenerateVertexFrame, InputError)):
        vertex_frames(edge_frames(rc))


def test_curvature_torsion_validation():
    with pytest.raises(InputError):
        curvature_torsion([0.1, 0.2], [0.0, 0.0], 1.0, Convention.INSCRIBED)
    with pytest.raises(AngleOutOfRange):
        curvature_torsion([2.0, 0.0], [0.0, 0.1], 1.0, Convention.INSCRIBED)
    with pytest.raises(InvalidAngles, match="1-D"):
        curvature_torsion([[0.1, 0.2], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.1]], 1.0, Convention.INSCRIBED)
    with pytest.raises(InvalidAngles, match="1-D"):
        curvature_torsion(0.1, 0.0, 1.0, Convention.INSCRIBED)
    data = curvature_torsion([0.3, 0.0], [0.0, -0.2], 1.0, Convention.CENTERED)
    assert data.kappa[0] == pytest.approx(0.3)
    assert data.tau[1] == pytest.approx(-0.2)


def test_polyline_turning_angles():
    ang = np.arange(6) * math.pi / 3.0
    hexagon = DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True)
    np.testing.assert_allclose(polyline_turning_angles(hexagon), math.pi / 3.0, atol=1e-14)
    # clockwise square: negative turning
    sq = DiscreteCurve(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]), closed=True)
    np.testing.assert_allclose(polyline_turning_angles(sq), -math.pi / 2.0, atol=1e-14)


def test_curvature_torsion_negative_zero_angle():
    data = curvature_torsion([-0.0, 0.0, 0.2], [0.0, -0.0, 0.0], 1.0, Convention.CIRCUMSCRIBED)
    assert all(math.copysign(1.0, v) == 1.0 for v in (*data.kappa[:2], *data.tau))


def test_validate_refined_reports_first_bad_midpoint():
    ang = np.arange(12) * math.pi / 6.0
    rc = refine(DiscreteCurve(np.column_stack([np.cos(ang), np.sin(ang)]), closed=True))
    pts = rc.points.copy()
    # push midpoints 4 and 10 off their edges, perpendicular to them, so the
    # half-edge lengths stay uniform and only the midpoint invariant breaks
    for i, shift in ((10, 2e-6), (4, 1e-6)):
        edge = pts[i + 1] - pts[i - 1]
        pts[i] += shift * np.array([-edge[1], edge[0]]) / np.linalg.norm(edge)
    with pytest.raises(InputError, match=r"at index 4 \(defect 1\.000e-06\)"):
        validate_refined(RefinedCurve(pts, rc.ell, closed=True, vertex_parity=1))


def _record_with_straight_vertices(rng, n_points, planar, n_lead):
    """make_random_intrinsic's record with some turns exactly zero, the first n_lead among them.

    n_lead must leave two turns after the run.  edge_frames carries the binormal across straight vertices, so a twist
    is seen only after some nonzero turn and right before a nonzero turn;
    the other twists are set to zero, which the curve cannot distinguish.
    """
    data = make_random_intrinsic(rng, n_points, planar=planar)
    theta, phi = data.theta.copy(), data.phi.copy()
    turns = np.arange(0, len(theta), 2)
    straight = rng.random(len(turns)) < 0.3
    straight[:n_lead] = True
    # a 3D curve needs one binormal, and a closed one (see _doubled) a turn
    # strictly between the first and last vertex
    straight[rng.integers(max(n_lead, 1), len(turns) - 1)] = False
    theta[turns[straight]] = 0.0
    turning = theta != 0.0
    seen = np.cumsum(turning) - turning > 0
    phi[~(seen & np.append(turning[1:], False))] = 0.0
    return curvature_torsion(theta, phi, data.ell, Convention.INSCRIBED)


def _doubled(points, axis):
    """The open polygon followed by its copy turned by pi about axis.

    With axis perpendicular to the chord the copy ends where the original
    starts, so the result is a closed polygon with the same edge lengths.
    """
    steps = np.diff(points, axis=0)
    turned = 2.0 * np.outer(steps @ axis, axis) - steps
    return np.vstack([points, points[-1] + np.cumsum(turned, axis=0)[:-1]])


def _closed_analysis(rng, rc_open, data, planar):
    """Close rc_open by _doubled; return the analysis plus the expected angles and their mask.

    Both halves repeat the record's first 2k transitions.  The junction turns
    (transitions 0 and 2k) are known only in the plane; in 3D they, and the
    twists that compare a binormal with a junction's, are masked out.
    """
    vertices = np.pad(rc_open.points[1::2], ((0, 0), (0, 3 - rc_open.dim)))
    half = 2 * (len(vertices) - 1)
    want_t, want_p = np.tile(data.theta[:half], 2), np.tile(data.phi[:half], 2)
    chord = vertices[-1] - vertices[0]
    if planar:
        junction = math.remainder(math.pi - float(np.sum(data.theta[2:half])), 2.0 * math.pi)
        assume(abs(junction) <= math.pi / 2.0)
        want_t[0] = want_t[half] = junction
        dc = DiscreteCurve(_doubled(vertices, np.array([0.0, 0.0, 1.0]))[:, :2], closed=True)
        return (*analyze(refine(dc)), want_t, want_p, np.ones(2 * half, dtype=bool))
    # a twist is known when the turn after it is zero, or when a nonzero turn
    # of its own half, not a junction, precedes it
    turning = data.theta[:half] != 0.0
    turning[0] = False
    seen = np.cumsum(turning) - turning > 0
    known = (np.arange(half) % 2 == 0) | ~np.append(turning[1:], True) | seen
    known[0] = known[half - 1] = False
    e1 = np.cross(chord, rng.normal(size=3))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(chord, e1) / np.linalg.norm(chord)
    # some turning axes give a junction angle outside [-pi/2, pi/2]; try a few
    for alpha in np.linspace(0.0, math.pi, 8, endpoint=False):
        axis = math.cos(alpha) * e1 + math.sin(alpha) * e2
        dc = DiscreteCurve(_doubled(vertices, axis), closed=True)
        try:
            return (*analyze(refine(dc)), want_t, want_p, np.tile(known, 2))
        except AngleOutOfRange:
            continue
    reject()


@given(
    seed=st.integers(0, 2**32 - 1),
    half_vertices=st.integers(2, 24),
    n_lead=st.integers(0, 3),
    planar=st.booleans(),
    closed=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_analyze_recovers_angles_with_straight_vertices(seed, half_vertices, n_lead, planar, closed):
    rng = np.random.default_rng(seed)
    n_lead = min(n_lead, half_vertices - 1)
    data = _record_with_straight_vertices(rng, 2 * half_vertices + 3, planar, n_lead)
    rc = curve_from_intrinsic(rng, data, planar=planar)
    if closed:
        ff, out, want_t, want_p, known = _closed_analysis(rng, rc, data, planar)
    else:
        ff, out = analyze(rc)
        want_t, want_p, known = data.theta, data.phi, np.ones(len(data.theta), dtype=bool)
    assert out.theta.shape == want_t.shape
    assert np.max(np.abs(out.theta - want_t)[known]) <= 1e-12
    assert np.max(np.abs(out.phi - want_p)[known]) <= 1e-12
    assert frenet_residual(ff, out) <= 1e-12


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    half_vertices=st.integers(2, 24),
    n_lead=st.integers(0, 3),
    planar=st.booleans(),
    closed=st.booleans(),
    conventions=st.lists(st.sampled_from(list(Convention)), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=80, deadline=None)
def test_convention_table_is_bit_for_bit_the_one_convention_path(
    seed, half_vertices, n_lead, planar, closed, conventions
):
    """One pass over the record gives, bit for bit, frenet_residual at ell and
    curvature_torsion at 2 ell of each convention, on curves with straight runs."""
    rng = np.random.default_rng(seed)
    n_lead = min(n_lead, half_vertices - 1)
    record = _record_with_straight_vertices(rng, 2 * half_vertices + 3, planar, n_lead)
    rc = curve_from_intrinsic(rng, record, planar=planar)
    ff, data = _closed_analysis(rng, rc, record, planar)[:2] if closed else analyze(rc)
    residuals, at_edge = convention_table(ff, data, conventions)
    assert at_edge.shape == (len(conventions), len(data.theta))
    turns, twists = slice(data.turn_parity, None, 2), slice(1 - data.turn_parity, None, 2)
    for conv, res, one in zip(conventions, residuals, at_edge):
        at_ell = curvature_torsion(data.theta, data.phi, data.ell, conv, data.turn_parity)
        assert res.hex() == frenet_residual(ff, at_ell).hex()
        edge = curvature_torsion(data.theta, data.phi, 2.0 * data.ell, conv, data.turn_parity)
        assert _bits(one[turns]) == _bits(edge.kappa[turns]) and _bits(one[twists]) == _bits(edge.tau[twists])


def test_frenet_residual_rejects_a_record_of_another_length():
    ff, data = analyze(_hexagon_refined())
    short = curvature_torsion(data.theta[:-2], data.phi[:-2], data.ell, Convention.CENTERED)
    with pytest.raises(InputError, match=r"angle arrays have length 10, expected 12"):
        frenet_residual(ff, short)


@pytest.mark.parametrize("field", ["Tv", "Nv", "Bv"])
def test_frenet_residual_checks_every_vertex_frame_vector(field):
    """Each of Tv, Nv and Bv enters an equation the residual checks, for one
    convention and for the stacked table: flipping it leaves a large residual."""
    rc, _ = make_random_refined(np.random.default_rng(7), 41)
    ff, data = analyze(rc)
    flipped = replace(ff, **{field: -getattr(ff, field)})
    assert frenet_residual(ff, data) <= 1e-12 < 1e-3 < frenet_residual(flipped, data)
    assert min(convention_table(flipped, data, list(Convention))[0]) > 1e-3


def test_kernel_formulas_live_only_in_ngon_circle():
    # frames and the CLI reach sin(theta/2), tan(theta/2) and theta through kappa_from_angle
    for module in (frames, cli):
        source = inspect.getsource(module)
        assert not re.search(r"np\.(sin|tan)\(", source), module.__name__


# components from 1e-150 to 1e150 in size, where every square is a normal double, and signed zeros
_COMPONENT = st.sampled_from([0.0, -0.0]) | st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent, st.floats(-10.0, 10.0), st.integers(-150, 149)
)


@st.composite
def _vector_rows(draw):
    """Two (n, 3) arrays of _COMPONENT: free 3D rows, planar rows embedded with z = 0.0,
    or the plane normal against planar rows (as edge_frames crosses a planar binormal)."""
    n = draw(st.integers(1, 12))
    rows = st.lists(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT), min_size=n, max_size=n)
    a, b = np.array(draw(rows)), np.array(draw(rows))
    layout = draw(st.sampled_from(["3d", "planar", "normal"]))
    if layout != "3d":
        a[:, 2] = b[:, 2] = 0.0
    if layout == "normal":
        a = np.tile([0.0, 0.0, 1.0], (n, 1))
    return a, b


@given(rows=_vector_rows())
@settings(max_examples=300, deadline=None)
def test_inlined_cross_and_norms_are_numpys_bit_for_bit(rows):
    """frames' row cross product and 3-vector norms give np.cross and
    np.linalg.norm(axis=-1) bit for bit, signed zeros included, also on a stack
    of row arrays as vertex_frames and the residual take them."""
    a, b = rows
    assert frames._cross(a, b).tobytes() == np.cross(a, b).tobytes()
    for v in (a, b, np.stack([a, b, a - b])):
        assert frames._norms(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()


@pytest.mark.filterwarnings("error")
def test_residual_of_subnormal_turns_is_zero():
    """Turns of +-5e-324 have chords 2 sin(theta/2) that underflow to 0.0: nu takes
    its limit 1 there, so every residual is 0.0, not 0/0, and numpy does not warn."""
    rc = refine(DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 5e-324], [3.0, 5e-324]])))
    ff, data = analyze(rc)
    assert data.theta.tolist() == [0.0, 5e-324, 0.0, -5e-324, 0.0]
    assert frenet_residual(ff, data) == 0.0
    assert convention_table(ff, data, list(Convention))[0] == [0.0, 0.0, 0.0]


def test_bare_angle_record_is_validated_without_curvatures():
    """analyze with no convention validates the record and computes no kappa or tau;
    convention_table reads it as it reads a full one."""
    rc, _ = make_random_refined(np.random.default_rng(3), 25)
    ff, full = analyze(rc)
    _, bare = analyze(rc, None)
    assert (bare.convention, bare.kappa, bare.tau) == (None, None, None)
    assert _bits(bare.theta) == _bits(full.theta) and _bits(bare.phi) == _bits(full.phi)
    residuals, at_edge = convention_table(ff, bare, list(Convention))
    assert residuals == convention_table(ff, full, list(Convention))[0]
    with pytest.raises(AngleOutOfRange):
        curvature_torsion([2.0, 0.0], [0.0, 0.0], 1.0, None)


_ANGLE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.pi / 2, -math.pi / 2]),
                   st.floats(-math.pi / 2, math.pi / 2))


@given(st.integers(0, 1), st.lists(_ANGLE, max_size=12), st.floats(1e-3, 1e3))
@settings(max_examples=200, deadline=None)
def test_record_derives_kappa_and_tau_from_its_angles(turn_parity, angles, ell):
    """Under each convention a record's kappa and tau are kappa_from_angle of each
    |angle| with the angle's sign restored (+0.0 for -0.0), bit for bit."""
    turns = np.arange(len(angles)) % 2 == turn_parity
    theta, phi = np.where(turns, angles, 0.0), np.where(turns, 0.0, angles)
    for conv in Convention:
        data = IntrinsicData(ell, theta, phi, conv, turn_parity)
        for derived, signs in ((data.kappa, theta), (data.tau, phi)):
            want = [math.copysign(kappa_from_angle(abs(a), ell, conv), a) + 0.0 for a in signs.tolist()]
            assert _bits(derived) == _bits(want)


_RECORD_ENTRY = st.sampled_from([0.0, -0.0, 0.3, -0.3, 2.0, math.nan])


@given(
    st.integers(-1, 2),
    hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4), elements=_RECORD_ENTRY),
    hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, max_side=4), elements=_RECORD_ENTRY),
)
@settings(max_examples=300, deadline=None)
def test_record_raises_what_validate_angle_record_raises(turn_parity, theta, phi):
    """A record is made only from angles validate_angle_record passes, and otherwise
    raises its error, class and message."""
    try:
        validate_angle_record(theta, phi, turn_parity)
    except InputError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            IntrinsicData(1.0, theta, phi, Convention.INSCRIBED, turn_parity)
    else:
        data = IntrinsicData(1.0, theta, phi, Convention.INSCRIBED, turn_parity)
        assert _bits(data.theta) == _bits(theta) and _bits(data.phi) == _bits(phi)
