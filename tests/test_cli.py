import contextlib
import gc
import inspect
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frenetkit import (
    Convention,
    DiscreteCurve,
    curvature_torsion,
    curve_to_json,
    load_curve,
    ngon_of_circle,
    refine,
    spline_from_json,
    unrefine,
)
from frenetkit import io as fio
from frenetkit import cli, frames, spline2d
from frenetkit.cli import CONVENTIONS, main
from frenetkit.config import CLI_RESIDUAL, EDGE_RANGE
from frenetkit.discretize2d import BUILTIN_CURVES
from frenetkit.figures import _unit_step_polyline
from frenetkit.spline2d import ArcSegment, ClothoidSegment, ElasticaSegment, LineSegment, Spline
from frenetkit.frames import analyze, frenet_residual

from conftest import HAIRPIN_ANGLES, ZIGZAG_ANGLES, make_random_refined, random_rotation


@pytest.fixture
def runner():
    return CliRunner()


def _hexagon_json(radius=1.0):
    ang = np.arange(6) * math.pi / 3.0
    pts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
    return curve_to_json(DiscreteCurve(pts, closed=True))


_HEX_INTRINSIC = {
    "ell": 0.5,
    "convention": "inscribed",
    "theta": [math.pi / 3.0, 0.0] * 5 + [math.pi / 3.0],
    "phi": [0.0] * 11,
}


def _clothoid_spline_json(**params):
    seg = {
        "type": "clothoid",
        "start": [0.0, 0.0],
        "start_angle": 0.0,
        "kappa0": 0.5,
        "sharpness": 0.1,
        "length": 2.0,
    }
    return json.dumps({"closed": False, "segments": [{**seg, **params}]})


# spline files of one clothoid with a bad parameter, for render --spline
_BAD_CLOTHOIDS = {
    "NAN_KAPPA0": {"kappa0": math.nan},
    "HUGE_KAPPA0": {"kappa0": 1e160},
    "LONG_CLOTHOID": {"length": 1e9},
    "NEGATIVE_LENGTH": {"length": -1.0},
}

# an arc that would turn 1e9 rad, for render --spline
_LONG_ARC = {
    "closed": False,
    "segments": [{"type": "arc", "center": [0.0, 0.0], "radius": 1.0, "start_angle": 0.0, "sweep": 1e9}],
}

# one turn of radius 1e12, which a chord tolerance of 1e-3 cuts into 6.3e6 pieces
_HUGE_ARC = {
    "closed": False,
    "segments": [{"type": "arc", "center": [0.0, 0.0], "radius": 1e12, "start_angle": 0.0, "sweep": 2.0 * math.pi}],
}

# curves whose squared edge lengths overflow or underflow
_EXTREME_SCALES = {
    "spline-inscribed-hexagon-1e200": ["spline", "HEX_1E200", "--method", "inscribed"],
    "spline-circumscribed-hexagon-1e200": ["spline", "HEX_1E200", "--method", "circumscribed"],
    "spline-centered-hexagon-1e200": ["spline", "HEX_1E200", "--method", "centered"],
    "analyze-hexagon-1e200": ["analyze", "HEX_1E200"],
    "roundtrip-hexagon-1e200": ["roundtrip", "HEX_1E200"],
    "analyze-hexagon-1e-170": ["analyze", "HEX_1E-170"],
    "spline-circumscribed-hexagon-1e-170": ["spline", "HEX_1E-170", "--method", "circumscribed"],
    "ellipse-centered-radius-1e200": [
        "discretize", "ellipse", "--method", "centered", "--density", "1e-199",
        "--param", "a=1e200", "--param", "b=1e200",
    ],
}

# input files that cannot be read, spline vectors of the wrong shape, and values that overflow
_UNREADABLE_AND_OVERFLOWING = {
    "analyze-directory": ["analyze", "DIR"],
    "reconstruct-directory": ["reconstruct", "DIR"],
    "render-spline-directory": ["render", "HEX", "--spline", "DIR"],
    "analyze-non-utf8-json": ["analyze", "FF_JSON"],
    "analyze-non-utf8-csv": ["analyze", "FF_CSV"],
    "render-non-utf8-json": ["render", "FF_JSON"],
    "render-non-utf8-csv": ["render", "FF_CSV"],
    "analyze-missing-file": ["analyze", "MISSING"],
    "reconstruct-missing-file": ["reconstruct", "MISSING"],
    "render-spline-missing-file": ["render", "HEX", "--spline", "MISSING"],
    "render-line-start-3-components": ["render", "HEX", "--spline", "START_3"],
    "render-line-start-1-component": ["render", "HEX", "--spline", "START_1"],
    "render-arc-radius-1e-320": ["render", "HEX", "--spline", "SUBNORMAL_RADIUS"],
    "render-line-ending-at-2e308": ["render", "HEX", "--spline", "FAR_LINE"],
    "reconstruct-ell-5e-324": ["reconstruct", "SUBNORMAL_ELL"],
    "reconstruct-empty-list-ell": ["reconstruct", "EMPTY_ELL"],
    "reconstruct-nested-list-ell": ["reconstruct", "NESTED_ELL"],
    "render-curve-spanning-2e308": ["render", "WIDE"],
    "analyze-curve-spanning-2e308": ["analyze", "WIDE"],
    "spline-curve-spanning-2e308": ["spline", "WIDE", "--method", "inscribed"],
}
_LINE_SEGMENT = {"type": "line", "start": [0.0, 0.0], "direction": [1.0, 0.0], "length": 1.0}

# a curve file's points, an intrinsic file's theta and a spline segment's start, each nested
# 100 000 lists deep: deeper than the interpreter's recursion limit
_DEEPLY_NESTED = {
    "analyze-points-nested-1e5-deep": ["analyze", "DEEP_POINTS"],
    "reconstruct-theta-nested-1e5-deep": ["reconstruct", "DEEP_THETA"],
    "render-spline-start-nested-1e5-deep": ["render", "HEX", "--spline", "DEEP_START"],
}

# command lines the parser rejects: one error line and exit 2, as for every input error
_USAGE_ERRORS = {
    "no-subcommand": [],
    "unknown-subcommand": ["bogus"],
    "spline-seed-option": ["spline", "HEX", "--method", "centered", "--seed", "0"],
    "abbreviated-option": ["spline", "HEX", "--meth", "inscribed"],
    "analyze-no-file": ["analyze"],
    "discretize-no-method": ["discretize", "circle", "--samples", "3"],
    "bad-method-choice": ["discretize", "circle", "--method", "nope", "--samples", "3"],
    "non-integer-samples": ["discretize", "circle", "--method", "inscribed", "--samples", "x"],
    "out-without-value": ["analyze", "HEX", "--out"],
}

# a well-formed angle record with 2-D theta and phi
_TWO_D_INTRINSIC = {
    "ell": 1.0,
    "convention": "inscribed",
    "theta": [[0.1, 0.2], [0.0, 0.0]],
    "phi": [[0.0, 0.0], [0.1, 0.1]],
}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_analyze_hexagon(runner, tmp_path):
    path = _write(tmp_path, "hex.json", _hexagon_json())
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["residual_ok"] is True
    assert report["max_frenet_residual"] <= 1e-10
    # per-convention curvature of the unit hexagon
    expect = {"inscribed": 1.0, "circumscribed": 2.0 / math.sqrt(3.0), "centered": math.pi / 3.0}
    for name, k in expect.items():
        rows = report["conventions"][name]["per_index"]
        kappas = [r["kappa"] for r in rows if r["theta"] != 0.0]
        np.testing.assert_allclose(kappas, k, atol=1e-12)


def test_analyze_line_zeros(runner, tmp_path):
    line = curve_to_json(DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])))
    path = _write(tmp_path, "line.json", line)
    result = runner.invoke(main, ["analyze", path, "--convention", "inscribed"])
    assert result.exit_code == 0
    rows = json.loads(result.output)["conventions"]["inscribed"]["per_index"]
    assert all(r["kappa"] == 0.0 and r["tau"] == 0.0 for r in rows)
    assert all(math.copysign(1.0, r[k]) == 1.0 for r in rows for k in ("kappa", "tau"))


def test_analyze_csv_format(runner, tmp_path):
    path = _write(tmp_path, "hex.json", _hexagon_json())
    result = runner.invoke(main, ["analyze", path, "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "convention,index,theta,phi,kappa,tau"
    # 3 conventions x 12 transitions of the closed refined hexagon
    assert len(lines) == 1 + 3 * 12
    assert "np.float64" not in result.output
    assert all("-0.0" not in line.split(",") for line in lines)


def test_analyze_malformed_json(runner, tmp_path):
    path = _write(tmp_path, "bad.json", "{not json")
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 2


def test_analyze_tol_override(runner, tmp_path):
    path = _write(tmp_path, "hex.json", _hexagon_json())
    result = runner.invoke(main, ["analyze", path, "--tol", "1e-30"])
    assert result.exit_code == 1  # residual cannot beat 1e-30
    assert runner.invoke(main, ["analyze", path]).exit_code == 0
    # a value that starts with "-" is the option's value, not an unknown option
    result = runner.invoke(main, ["analyze", path, "--tol", "-inf"])
    assert (result.exit_code, result.stderr) == (2, "error: --tol must be a non-negative number, got -inf\n")


def test_help_prints_usage_on_stdout(runner):
    for argv in (["--help"], ["analyze", "--help"]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert result.stdout.lower().startswith("usage: ") and "analyze" in result.stdout
        assert result.stderr == ""


@pytest.mark.parametrize(
    "args",
    [
        ["discretize", "circle", "--method", "inscribed", "--samples", "8", "--param", "bogus=1"],
        ["discretize", "circle", "--method", "inscribed", "--samples", "8", "--param", "r=abc"],
        ["reconstruct", "INTRINSIC", "--origin", "1,2"],
        ["reconstruct", "INTRINSIC", "--tangent", "1,0"],
        ["discretize", "circle", "--method", "inscribed", "--samples", "-3"],
        ["discretize", "circle", "--method", "centered", "--density", "nan"],
        ["discretize", "circle", "--method", "centered", "--density", "inf"],
        ["analyze", "HEX", "--out", "MISSING"],
        ["reconstruct", "INTRINSIC", "--out", "MISSING"],
        ["discretize", "circle", "--method", "inscribed", "--samples", "8", "--out", "MISSING"],
        ["spline", "HEX", "--method", "inscribed", "--out", "MISSING"],
        ["spline", "HEX", "--method", "inscribed", "--svg", "MISSING"],
        ["render", "HEX", "--out", "MISSING"],
        ["analyze", "HEX", "--out", "DIR"],
        ["analyze", "HEX", "--tol", "nan"],
        ["analyze", "HEX", "--tol", "-1"],
        ["roundtrip", "HEX", "--tol", "nan"],
        ["roundtrip", "HEX", "--tol", "-1"],
        ["discretize", "ellipse", "--method", "inscribed", "--samples", "5", "--param", "b=0"],
        ["discretize", "ellipse", "--method", "circumscribed", "--samples", "5", "--param", "b=0"],
        ["discretize", "ellipse", "--method", "centered", "--density", "8", "--param", "b=0"],
        ["discretize", "clothoid", "--method", "centered", "--density", "8", "--param", "length=0"],
        ["discretize", "circle", "--method", "centered", "--density", "8", "--param", "radius=0"],
        ["discretize", "circle", "--method", "inscribed", "--samples", "5", "--param", "radius=-1"],
        ["discretize", "sine", "--method", "inscribed", "--samples", "5", "--param", "x_max=-1"],
        ["discretize", "clothoid", "--method", "inscribed", "--samples", "5", "--param", "length=-2"],
        ["discretize", "ellipse", "--method", "inscribed", "--samples", "5", "--param", "a=nan"],
        ["discretize", "sine", "--method", "inscribed", "--samples", "5", "--param", "amplitude=inf"],
        ["discretize", "circle", "--method", "inscribed", "--samples", "1000000000000"],
        ["discretize", "circle", "--method", "centered", "--density", "1e300"],
        ["render", "HEX", "--spline", "NAN_KAPPA0"],
        ["render", "HEX", "--spline", "HUGE_KAPPA0"],
        ["render", "HEX", "--spline", "LONG_CLOTHOID"],
        ["render", "HEX", "--spline", "NEGATIVE_LENGTH"],
        ["render", "HEX", "--spline", "LONG_ARC"],
        ["render", "HEX", "--spline", "HUGE_ARC"],
        ["render", "HEX", "--spline", "BOOL_LENGTH"],
        ["reconstruct", "BOOL_ELL"],
        ["reconstruct", "TWO_D_INTRINSIC"],
        ["reconstruct", "INTRINSIC", "--tangent", "nan,0,0"],
        ["reconstruct", "INTRINSIC", "--origin", "nan,0,0"],
        ["reconstruct", "INTRINSIC", "--normal", "0,1e400,0"],
        *_EXTREME_SCALES.values(),
        *_UNREADABLE_AND_OVERFLOWING.values(),
        *_DEEPLY_NESTED.values(),
        *_USAGE_ERRORS.values(),
    ],
    ids=[
        "unknown-param",
        "non-numeric-param",
        "two-component-origin",
        "two-component-tangent",
        "negative-samples",
        "nan-density",
        "inf-density",
        "analyze-out-missing-dir",
        "reconstruct-out-missing-dir",
        "discretize-out-missing-dir",
        "spline-out-missing-dir",
        "spline-svg-missing-dir",
        "render-out-missing-dir",
        "analyze-out-is-dir",
        "analyze-nan-tol",
        "analyze-negative-tol",
        "roundtrip-nan-tol",
        "roundtrip-negative-tol",
        "ellipse-inscribed-zero-b",
        "ellipse-circumscribed-zero-b",
        "ellipse-centered-zero-b",
        "clothoid-zero-length",
        "circle-zero-radius",
        "circle-negative-radius",
        "sine-negative-x-max",
        "clothoid-negative-length",
        "ellipse-nan-a",
        "sine-inf-amplitude",
        "oversized-samples",
        "oversized-density",
        "render-nan-kappa0",
        "render-huge-kappa0",
        "render-long-clothoid",
        "render-negative-clothoid-length",
        "render-arc-sweep-1e9",
        "render-arc-radius-1e12",
        "render-boolean-length",
        "reconstruct-boolean-ell",
        "reconstruct-2d-angles",
        "reconstruct-nan-tangent",
        "reconstruct-nan-origin",
        "reconstruct-overflowing-normal",
        *_EXTREME_SCALES,
        *_UNREADABLE_AND_OVERFLOWING,
        *_DEEPLY_NESTED,
        *_USAGE_ERRORS,
    ],
)
def test_bad_arguments_exit_2(runner, tmp_path, args):
    files = _arg_files(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, [files.get(a, a) for a in args])
    assert result.exit_code == 2, result.output
    # exactly one error line: no warning or traceback before it
    assert not caught, [str(w.message) for w in caught]
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n"), result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("args", list(_EXTREME_SCALES.values()), ids=list(_EXTREME_SCALES))
def test_extreme_scales_name_the_supported_range(runner, tmp_path, args):
    files = _arg_files(tmp_path)
    result = runner.invoke(main, [files.get(a, a) for a in args])
    assert result.stderr.endswith(" is outside the supported range [1e-150, 1e+150]\n"), result.stderr


def _arg_files(tmp_path):
    """The files the argument lists above name, by their placeholder."""
    files = {
        "HEX": _write(tmp_path, "hex.json", _hexagon_json()),
        "HEX_1E200": _write(tmp_path, "hex_1e200.json", _hexagon_json(1e200)),
        "HEX_1E-170": _write(tmp_path, "hex_1e-170.json", _hexagon_json(1e-170)),
        "INTRINSIC": _write(tmp_path, "hex_intrinsic.json", json.dumps(_HEX_INTRINSIC)),
        "MISSING": str(tmp_path / "missing" / "out"),
        "DIR": str(tmp_path),
        "LONG_ARC": _write(tmp_path, "long_arc.json", json.dumps(_LONG_ARC)),
        "HUGE_ARC": _write(tmp_path, "huge_arc.json", json.dumps(_HUGE_ARC)),
        "BOOL_LENGTH": _write(tmp_path, "bool_length.json", _clothoid_spline_json(length=True)),
        "BOOL_ELL": _write(tmp_path, "bool_ell.json", json.dumps({**_HEX_INTRINSIC, "ell": True})),
        "TWO_D_INTRINSIC": _write(tmp_path, "two_d_intrinsic.json", json.dumps(_TWO_D_INTRINSIC)),
    }
    for key, params in _BAD_CLOTHOIDS.items():
        files[key] = _write(tmp_path, f"{key.lower()}.json", _clothoid_spline_json(**params))
    for key, seg in {
        "START_3": {**_LINE_SEGMENT, "start": [0.0, 0.0, 0.0]},
        "START_1": {**_LINE_SEGMENT, "start": [0.0]},
        "SUBNORMAL_RADIUS": {"type": "arc", "center": [0.0, 0.0], "radius": 1e-320, "start_angle": 0.0, "sweep": 1.0},
        "FAR_LINE": {**_LINE_SEGMENT, "start": [1e308, 0.0], "length": 1e308},
    }.items():
        files[key] = _write(tmp_path, f"{key.lower()}.json", json.dumps({"closed": False, "segments": [seg]}))
    for name in ("ff.json", "ff.csv"):
        (tmp_path / name).write_bytes(b"\xff0,0\n1,0\n")
        files[name.upper().replace(".", "_")] = str(tmp_path / name)
    for key, ell in {"SUBNORMAL_ELL": 5e-324, "EMPTY_ELL": [], "NESTED_ELL": [[]]}.items():
        files[key] = _write(tmp_path, f"{key.lower()}.json", json.dumps({**_HEX_INTRINSIC, "ell": ell}))
    files["WIDE"] = _write(tmp_path, "wide.json", json.dumps({"dim": 2, "closed": False, "points": [[-1e308, 0], [1e308, 0]]}))
    deep = "[" * 100_000 + "]" * 100_000
    for key, record in {
        "DEEP_POINTS": {"dim": 2, "closed": False, "points": "DEEP"},
        "DEEP_THETA": {**_HEX_INTRINSIC, "theta": "DEEP"},
        "DEEP_START": {"closed": False, "segments": [{**_LINE_SEGMENT, "start": "DEEP"}]},
    }.items():
        files[key] = _write(tmp_path, f"{key.lower()}.json", json.dumps(record).replace('"DEEP"', deep))
    return files


def test_files_written_for_curves_in_the_edge_range_load(runner, tmp_path):
    lo, hi = EDGE_RANGE[0] * (1.0 + 1e-9), EDGE_RANGE[1] * (1.0 - 1e-9)
    curves = [
        DiscreteCurve(np.array([[0.0, 0.0], [lo, 0.0], [0.0, 0.0]])),  # an inscribed arc of radius ~3e-167
        DiscreteCurve(np.array([[0.0, 0.0], [hi, 0.0], [hi * (1.0 + math.cos(1e-12)), hi * math.sin(1e-12)]])),
        DiscreteCurve(np.array(json.loads(_hexagon_json(lo))["points"]), closed=True),
        DiscreteCurve(np.array(json.loads(_hexagon_json(hi))["points"]), closed=True),
    ]
    # and uneven edges, whose circumscribed spans are clothoids as long as the edges
    uneven = [DiscreteCurve(np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 1.0]]) * scale) for scale in (lo, 0.5 * hi)]
    splines = [spline2d.spline_inscribed(refine(c)) for c in curves]
    splines += [spline2d.spline_circumscribed(c) for c in curves[1:] + uneven]
    radii, clothoid_lengths = [], []
    for sp in splines:  # the file spline --out writes, read back
        for seg in spline_from_json(fio.spline_to_json(sp)).segments:
            if isinstance(seg, ArcSegment):
                radii.append(seg.radius)
            elif isinstance(seg, ClothoidSegment):
                clothoid_lengths.append(seg.length)
    assert min(radii) < 1e-166 and max(radii) > 1e161
    assert min(clothoid_lengths) < 1e-149 and max(clothoid_lengths) > 1e149
    for ell in (0.5 * EDGE_RANGE[0], 0.5 * EDGE_RANGE[1]):
        path = _write(tmp_path, "intrinsic.json", json.dumps({**_HEX_INTRINSIC, "ell": ell}))
        assert runner.invoke(main, ["reconstruct", path]).exit_code == 0


def test_bad_curve_parameter_is_named(runner):
    argv = ["discretize", "clothoid", "--method", "centered", "--density", "8", "--param", "length=0"]
    result = runner.invoke(main, argv)
    assert result.stderr == "error: length must be positive and finite, got 0.0\n"


@pytest.mark.parametrize(
    "option, text", [("--tangent", "nan,0,0"), ("--origin", "nan,0,0"), ("--normal", "0,1e400,0")]
)
def test_bad_pose_vector_is_named(runner, tmp_path, option, text):
    path = _write(tmp_path, "hex_intrinsic.json", json.dumps(_HEX_INTRINSIC))
    result = runner.invoke(main, ["reconstruct", path, option, text])
    assert result.stderr == f"error: {option}: vector {text!r} must be finite\n"


_CURVE_PARAMS = {
    name: sorted(k for k, p in inspect.signature(ctor).parameters.items() if isinstance(p.default, float))
    for name, ctor in BUILTIN_CURVES.items()
}
_SPECIAL_VALUES = ["0", "-1", "-2", "nan", "inf", "-inf", "1e-300", "1e300"]
_PARAM_VALUES = st.sampled_from(_SPECIAL_VALUES) | st.floats(-10.0, 10.0).map(repr)


@st.composite
def _discretize_argv(draw):
    curve = draw(st.sampled_from(sorted(BUILTIN_CURVES)))
    method = draw(st.sampled_from(["inscribed", "circumscribed", "centered"]))
    argv = ["discretize", curve, "--method", method]
    if method == "centered":
        density = st.sampled_from(["0", "-1", "nan", "0.5", "8"]) | st.floats(0.01, 20.0).map(repr)
        argv += ["--density", draw(density), "--variant", draw(st.sampled_from(["exact", "published"]))]
    else:
        argv += ["--samples", str(draw(st.integers(-2, 40)))]
    for key in draw(st.lists(st.sampled_from(_CURVE_PARAMS[curve]), max_size=3, unique=True)):
        argv += ["--param", f"{key}={draw(_PARAM_VALUES)}"]
    return argv


def _assert_clean_exit(argv, result):
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    # CliRunner catches an escaping exception instead of printing its traceback
    assert result.exception is None or isinstance(result.exception, SystemExit), (argv, result.exception)
    assert "Traceback" not in result.stderr
    if result.exit_code:  # one error line, and no numpy warning before it
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, (argv, result.stderr)


@given(_discretize_argv())
@settings(max_examples=150, deadline=None)
def test_discretize_fuzz_exits_without_traceback(argv):
    _assert_clean_exit(argv, CliRunner().invoke(main, argv))


_CURVE_COMMANDS = [
    ["analyze"],
    ["roundtrip"],
    *(["spline", "--method", method] for method in ("inscribed", "circumscribed", "centered")),
    ["render"],
    ["render", "--with-circles"],
]


# a valid spline file with one segment of each kind, for render --spline
_SPLINE_RECORD = {
    "closed": False,
    "segments": [
        {"type": "line", "start": [0.0, 0.0], "direction": [1.0, 0.0], "length": 1.0},
        {"type": "arc", "center": [1.0, 1.0], "radius": 1.0, "start_angle": -math.pi / 2.0, "sweep": 1.0},
        {"type": "clothoid", "start": [2.0, 1.0], "start_angle": 0.5, "kappa0": 0.5, "sharpness": 0.1, "length": 2.0},
        {"type": "elastica", "start": [3.0, 2.0], "thetas": [0.1 * k for k in range(17)], "length": 2.0, "c_const": 0.5},
    ],
}
_BAD_NUMBERS = [math.nan, math.inf, -math.inf, True, 5e-324, -5e-324, 1e308, -1e308, 10**400, "0.5", None]


def _lists(obj):
    """Every list in a JSON object, the object's own list included."""
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return ([obj] if isinstance(obj, list) else []) + [lst for child in children for lst in _lists(child)]


def _numbers(obj):
    """(container, key) of every number in a JSON object."""
    items = list(obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ())
    return [(obj, k) for k, v in items if isinstance(v, (int, float)) and not isinstance(v, bool)] + [
        spot for _, v in items for spot in _numbers(v)
    ]


@st.composite
def _input_file(draw):
    """(argv with FILE for the input file's path, file name, file bytes or None for a
    directory): a curve file (JSON or CSV), an intrinsic file or a spline file that
    may be broken by truncation, a NaN, infinite, boolean, subnormal or 1e308 number, an
    integer past the double range, a string or a null where a number belongs, a list where
    a field's number belongs, a list one item short or long or cut to one item, non-UTF-8
    bytes, or by being a directory.  Curves are regular polygons scaled by 1e-200, 1 or 1e200."""
    kind = draw(st.sampled_from(["curve", "csv", "intrinsic", "spline"]))
    n, dim = draw(st.integers(3, 7)), draw(st.sampled_from([2, 3]))
    ang = np.arange(n) * math.tau / n
    points = (draw(st.sampled_from([1e-200, 1.0, 1e200])) * np.column_stack([np.cos(ang), np.sin(ang), 0 * ang]))
    obj = {
        "curve": {"dim": dim, "closed": draw(st.booleans()), "points": points[:, :dim].tolist()},
        "csv": points[:, :dim].tolist(),
        "intrinsic": {**json.loads(json.dumps(_HEX_INTRINSIC)), "convention": draw(st.sampled_from(CONVENTIONS))},
        "spline": json.loads(json.dumps(_SPLINE_RECORD)),
    }[kind]
    flaw = draw(st.sampled_from(["none", "truncated", "number", "list", "length", "directory", "bytes"]))
    if flaw == "number":
        container, key = draw(st.sampled_from(_numbers(obj)))
        container[key] = draw(st.sampled_from(_BAD_NUMBERS))
    elif flaw == "list":  # a field such as ell or radius, or a CSV coordinate
        fields = [(container, key) for container, key in _numbers(obj) if isinstance(container, dict)]
        container, key = draw(st.sampled_from(fields or _numbers(obj)))
        container[key] = draw(st.sampled_from([[], [[]], [1.0]]))
    elif flaw == "length":
        lst, change = draw(st.sampled_from(_lists(obj))), draw(st.sampled_from(["short", "long", "single"]))
        k = draw(st.integers(0, len(lst) - 1))
        if change == "long":
            lst.insert(k, lst[k])
        elif change == "short":
            lst.pop(k)
        else:
            del lst[1:]
    text = "".join(",".join(map(str, row)) + "\n" for row in obj) if kind == "csv" else json.dumps(obj)
    if flaw == "truncated":
        text = text[: draw(st.integers(1, len(text) - 1))]
    data = (b"\xff" if flaw == "bytes" else b"") + text.encode()
    argv = {
        "curve": draw(st.sampled_from(_CURVE_COMMANDS)),
        "csv": draw(st.sampled_from([["analyze"], ["render"]])),
        "intrinsic": ["reconstruct"],
        "spline": ["render", "HEX", "--spline"],
    }[kind]
    argv = [argv[0], "FILE", *argv[1:]] if kind != "spline" else [*argv, "FILE"]
    return argv, "input.csv" if kind == "csv" else "input.json", None if flaw == "directory" else data


@given(_input_file())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_curve_file_fuzz_exits_without_traceback(case):
    argv, name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.mkdir() if data is None else path.write_bytes(data)
        files = {"FILE": str(path), "HEX": _write(Path(tmp), "hex.json", _hexagon_json())}
        argv = [files.get(a, a) for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, argv)
    _assert_clean_exit((argv, data), result)
    assert not caught, (argv, data, [str(w.message) for w in caught])


@pytest.mark.parametrize("bad", [10**400, "0.5", None], ids=["huge-integer", "string", "null"])
def test_a_huge_integer_string_or_null_anywhere_in_an_input_file_exits_2(bad, tmp_path):
    """Every number of a curve, intrinsic and spline file, in turn: float() of a 400-digit
    integer overflows, and float("0.5") and a JSON null are no numbers to read."""
    hexagon = json.loads(_hexagon_json())
    files = {"analyze": hexagon, "reconstruct": _HEX_INTRINSIC, "render": _SPLINE_RECORD}
    hex_path = _write(tmp_path, "hex.json", _hexagon_json())
    for command, record in files.items():
        for k in range(len(_numbers(record))):
            obj = json.loads(json.dumps(record))
            container, key = _numbers(obj)[k]
            container[key] = bad
            path = _write(tmp_path, "input.json", json.dumps(obj))
            argv = [command, hex_path, "--spline", path] if command == "render" else [command, path]
            result = CliRunner().invoke(main, argv)
            assert result.exit_code == 2, (argv, obj, result.output)
            _assert_clean_exit((argv, obj), result)


def test_in_process_runs_do_not_keep_redirected_streams(tmp_path):
    # a writer that cached a wrapper per implicit stream, as click.echo does, would keep
    # the stream alive: each in-process run would hold on to its output
    path = _write(tmp_path, "hex.json", _hexagon_json())
    runs = [
        (["discretize", "circle", "--method", "inscribed", "--samples", "8"], None),
        (["analyze", path, "--tol", "nan"], 2),
    ]
    for argv, code in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main.main(args=argv, prog_name="frenetkit", standalone_mode=False)
            except SystemExit as exc:
                assert exc.code == code
        assert out.getvalue() or err.getvalue()
        refs = [weakref.ref(out), weakref.ref(err)]
        del out, err
        gc.collect()
        assert all(ref() is None for ref in refs), argv


def test_tolerance_zero_is_accepted(runner, tmp_path):
    path = _write(tmp_path, "hex.json", _hexagon_json())
    result = runner.invoke(main, ["roundtrip", path, "--tol", "0"])
    assert result.exit_code in (0, 1), result.output
    assert "error" not in result.stderr


def test_spline_centered_failure_names_the_span(runner, tmp_path, monkeypatch):
    solve = spline2d._newton_batch
    # one Newton step per row is enough for no span
    monkeypatch.setattr(spline2d, "_newton_batch", lambda starts, ds, targets: solve(starts, ds, targets, 1))
    path = _write(tmp_path, "zigzag.json", curve_to_json(_unit_step_polyline(ZIGZAG_ANGLES)))
    result = runner.invoke(main, ["spline", path, "--method", "centered"])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith("error: span 0: ")
    assert "best residual 7.755e-07 over 4 starts" in result.stderr
    assert "Traceback" not in result.stderr


def test_spline_centered_zigzag_converges(runner, tmp_path):
    # span 3 converges from no ramp or winding start
    path = _write(tmp_path, "zigzag.json", curve_to_json(_unit_step_polyline(ZIGZAG_ANGLES)))
    result = runner.invoke(main, ["spline", path, "--method", "centered"])
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.stdout)
    assert max(report["g1_position_gap"], report["g1_tangent_gap"]) <= 1e-8


def test_spline_centered_hairpin_converges(runner, tmp_path):
    # span 3 converges from no ramp or winding start, only from the clothoid start
    path = _write(tmp_path, "hairpin.json", curve_to_json(_unit_step_polyline(HAIRPIN_ANGLES)))
    result = runner.invoke(main, ["spline", path, "--method", "centered"])
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.stdout)
    assert max(report["g1_position_gap"], report["g1_tangent_gap"]) <= 1e-8


def test_spline_centered_of_a_reversed_edge_exits_2_without_a_warning(runner, tmp_path):
    # a folded closed polygon whose edges 3 and 4 run back and forth: a turn of pi
    pts = [
        [0.0, 0.0],
        [-0.5765053974567305, 0.8170933402636795],
        [-0.07650539745672591, 1.6831187440481155],
        [-0.4958762886597882, 0.7753037542999018],
        [-0.0765053974567258, 1.6831187440481155],
        [0.5000000000000052, 0.8660254037844363],
    ]
    path = _write(tmp_path, "folded.json", json.dumps({"dim": 2, "closed": True, "points": pts}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = runner.invoke(main, ["spline", path, "--method", "centered"])
    assert result.exit_code == 2
    assert result.stderr == "error: angle 3.141592653589793 outside [0, pi)\n"


def test_spline_has_no_seed_option(runner, tmp_path):
    path = _write(tmp_path, "hairpin.json", curve_to_json(_unit_step_polyline(HAIRPIN_ANGLES)))
    result = runner.invoke(main, ["spline", path, "--method", "centered", "--seed", "0"])
    assert result.exit_code == 2
    assert result.stderr == "error: unrecognized arguments: --seed 0\n"


def test_spline_circumscribed_hairpin_whose_bracket_loses_its_sign_change(runner, tmp_path):
    # a clothoid root whose bracket refine_roots keeps across its rounds only while the
    # quadrature's rows do not depend on their batch; losing it was a traceback (exit 1)
    pts = [[0.0, 0.0], [1.0, 0.0], [0.00023876392503785482, 0.02185110619313812], [0.9962922398000965, 0.11060623673337219]]
    path = _write(tmp_path, "hairpin.json", json.dumps({"dim": 2, "closed": False, "points": pts}))
    result = runner.invoke(main, ["spline", path, "--method", "circumscribed"])
    assert result.exit_code == 0, result.stderr
    report = json.loads(result.stdout)
    assert max(report["g1_position_gap"], report["g1_tangent_gap"]) <= 1e-8


def test_roundtrip_hexagon(runner, tmp_path):
    path = _write(tmp_path, "hex.json", _hexagon_json())
    result = runner.invoke(main, ["roundtrip", path])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["congruent"] is True
    assert report["rms"] <= 1e-9


def test_roundtrip_is_congruent_at_every_power_of_two_scale(runner, tmp_path):
    """The verdict is in units of the edge: an open 3D curve scaled by 2^k, for
    edges across EDGE_RANGE, is congruent to its reconstruction at every k, and
    its rms over 2^k is within 10x of the unit curve's (its squares underflow at
    the small end of the range)."""
    path = tmp_path / "bent.json"

    def roundtrip(k):
        pts = 2.0**k * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        path.write_text(curve_to_json(DiscreteCurve(pts)))
        result = runner.invoke(main, ["roundtrip", str(path)])
        return result, json.loads(result.stdout) if result.exit_code == 0 else {}

    unit_rms = roundtrip(0)[1]["rms"]
    failed = []
    for k in range(-498, 499):
        result, report = roundtrip(k)
        if report.get("congruent") is not True or not 0.1 <= report["rms"] / 2.0**k / unit_rms <= 10.0:
            failed.append((k, result.output))
    assert not failed, failed[:3]


def test_roundtrip_of_a_curve_whose_first_vertex_is_nearly_straight(runner, tmp_path):
    """The binormal carried to the first edges from the first vertex that turns past
    PARALLEL_CROSS is made normal to their tangent, so the pose it starts the
    reconstruction from is orthonormal and the bent, twisted tail rebuilds."""
    a = 3e-11
    steps = [(math.cos(0.35 * k), math.sin(0.35 * k) * math.cos(0.25 * k), math.sin(0.35 * k) * math.sin(0.25 * k))
             for k in range(1, 7)]
    points = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0 + math.cos(a), math.sin(a), 0.0]]
    for step in steps:
        points.append([p + s for p, s in zip(points[-1], step)])
    path = _write(tmp_path, "curve.json", curve_to_json(DiscreteCurve(np.array(points))))
    result = runner.invoke(main, ["roundtrip", path])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["rms"] <= 1e-11


def test_roundtrip_tol_is_in_edge_lengths(runner, tmp_path):
    # a hexagon of circumradius (and edge) 1e100 reconstructs within ~1e-16 of its edge
    path = _write(tmp_path, "hex.json", _hexagon_json(1e100))
    report = json.loads(runner.invoke(main, ["roundtrip", path]).stdout)
    assert report["congruent"] is True and report["tol"] == 1e-9
    assert 0.0 < report["rms"] <= 1e-9 * 1e100
    result = runner.invoke(main, ["roundtrip", path, "--tol", "0"])
    assert result.exit_code == 1 and json.loads(result.stdout)["congruent"] is False


@pytest.mark.parametrize("radius", [1e9, 1e100])
@pytest.mark.parametrize("method", ["inscribed", "circumscribed"])
def test_spline_svg_of_a_large_hexagon(runner, tmp_path, radius, method):
    """render_svg's bounds sample is relative to the drawing, so a large spline draws."""
    path = _write(tmp_path, "hex.json", _hexagon_json(radius))
    out = tmp_path / "hex.svg"
    result = runner.invoke(main, ["spline", path, "--method", method, "--svg", str(out)])
    assert result.exit_code == 0, result.output
    view_box = [float(v) for v in re.search(r'viewBox="([^"]*)"', out.read_text()).group(1).split()]
    assert view_box[2] == pytest.approx(2.0 * radius, rel=0.1)


@pytest.mark.parametrize("radius", [1e-100, 1e-3])
def test_render_margin_follows_a_small_drawing(runner, tmp_path, radius):
    """The margin, stroke and markers scale with a drawing under 1 across."""
    path = _write(tmp_path, "hex.json", _hexagon_json(radius))
    out = tmp_path / "hex.svg"
    result = runner.invoke(main, ["render", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = out.read_text()
    width = float(re.search(r'viewBox="([^"]*)"', doc).group(1).split()[2])
    assert 1.0 <= width / (2.0 * radius) <= 2.2 + 1e-9
    assert 0.0 < float(re.search(r' r="([^"]*)"', doc).group(1)) < 0.2 * radius


def test_analyze_validates_the_angle_record_once(runner, tmp_path, monkeypatch):
    """analyze, in each format, roundtrip, which reconstructs the record analyze read,
    and reconstruct, which reconstructs the record its file holds, validate the angle
    record once, when the record is made."""
    calls = []
    validate = frames.validate_angle_record
    monkeypatch.setattr(frames, "validate_angle_record", lambda *a: calls.append(1) or validate(*a))
    path = _write(tmp_path, "hex.json", _hexagon_json())
    intrinsic = _write(tmp_path, "hex_intrinsic.json", json.dumps(_HEX_INTRINSIC))
    analyses = (["analyze"], ["analyze", "--format", "csv"], ["analyze", "--convention", "centered"], ["roundtrip"])
    for argv in [[*argv, path] for argv in analyses] + [["reconstruct", intrinsic]]:
        calls.clear()
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert len(calls) == 1, argv


_EQUILATERAL = np.column_stack([np.cos(np.arange(3) * 2.0 * math.pi / 3.0), np.sin(np.arange(3) * 2.0 * math.pi / 3.0)])
_DEGENERATE_CURVES = {
    "hairpin": (DiscreteCurve(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])), 1,
                "antiparallel frame vectors at transition 1"),
    "zigzag-3d": (DiscreteCurve(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [2.0, 1.0, 0.0]])), 1,
                  "antiparallel frame vectors at transition 2"),
    "straight-3d": (DiscreteCurve(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])), 1,
                    "curve is straight everywhere; no binormal in 3D"),
    "equilateral-triangle": (DiscreteCurve(_EQUILATERAL, closed=True), 2, "angles must lie in [-pi/2, pi/2]"),
}


@pytest.mark.parametrize("command", ["analyze", "roundtrip"])
@pytest.mark.parametrize("name", list(_DEGENERATE_CURVES))
def test_degenerate_curves_fail_with_their_errors(runner, tmp_path, command, name):
    """A curve without vertex frames (a hairpin, a 3D zig-zag), without a binormal (a
    straight 3D line) or with a turn over pi/2 (a triangle) fails both subcommands with
    the same exit code and error line, and writes no report."""
    curve, code, message = _DEGENERATE_CURVES[name]
    result = runner.invoke(main, [command, _write(tmp_path, "curve.json", curve_to_json(curve))])
    assert (result.exit_code, result.stderr, result.stdout) == (code, f"error: {message}\n", "")


_SUBNORMAL_TURNS = '{"dim": 2, "closed": false, "points": [[0, 0], [1, 0], [2, 5e-324], [3, 5e-324]]}'


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_analyze_subnormal_turns_pass_without_warnings(runner, tmp_path, fmt):
    """Turns of +-5e-324, whose chords 2 sin(theta/2) underflow to 0, leave a residual of
    0.0, not NaN, in every convention, with no numpy warning."""
    result = runner.invoke(main, ["analyze", _write(tmp_path, "c.json", _SUBNORMAL_TURNS), "--format", fmt])
    assert result.exit_code == 0 and result.stderr == "", result.output
    if fmt == "json":
        report = json.loads(result.stdout)
        assert [block["frenet_residual"] for block in report["conventions"].values()] == [0.0] * 3
        assert report["max_frenet_residual"] == 0.0 and report["residual_ok"] is True


@pytest.mark.parametrize("where", [0, 1, 2])
def test_analyze_fails_on_a_nan_residual(runner, tmp_path, monkeypatch, where):
    """A NaN residual, of any convention, fails: the report's max is NaN, residual_ok is false and the exit code 1."""
    table = frames.convention_table

    def nan_table(*args):
        residuals, at_edge = table(*args)
        residuals[where] = math.nan
        return residuals, at_edge

    monkeypatch.setattr(cli, "convention_table", nan_table)
    result = runner.invoke(main, ["analyze", _write(tmp_path, "hex.json", _hexagon_json())])
    assert result.exit_code == 1, result.output
    report = json.loads(result.stdout)
    assert math.isnan(report["max_frenet_residual"]) and report["residual_ok"] is False


def test_reconstruct_command(runner, tmp_path):
    path = _write(tmp_path, "hex_intrinsic.json", json.dumps(_HEX_INTRINSIC))
    # a vector that starts with "-" is the option's value, not an unknown option
    for pose, origin in [
        (["--origin", "1,2,0"], [1.0, 2.0, 0.0]),
        (["--origin", "-1,2,0"], [-1.0, 2.0, 0.0]),
        (["--tangent", "-1,0,0", "--normal", "0,-1,0"], [0.0, 0.0, 0.0]),
    ]:
        result = runner.invoke(main, ["reconstruct", path, *pose])
        assert result.exit_code == 0, result.output
        pts = np.asarray(json.loads(result.output)["points"])
        assert pts.shape == (13, 3)
        np.testing.assert_allclose(pts[0], origin)
        # closed hexagon: the 12-step walk returns to the start
        assert np.linalg.norm(pts[12] - pts[0]) <= 1e-12


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ell", [1e308, math.inf], ids=["overflowing", "infinite"])
def test_reconstruct_rejects_huge_ell_without_warnings(runner, tmp_path, ell):
    path = _write(tmp_path, "intrinsic.json", json.dumps({**_HEX_INTRINSIC, "ell": ell}))
    result = runner.invoke(main, ["reconstruct", path])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


def test_discretize_centered_report(runner):
    result = CliRunner().invoke(
        main, ["discretize", "circle", "--method", "centered", "--density", "4"]
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["length_error"] <= 1e-9
    assert report["variant"] == "exact"


def test_discretize_centered_published_variant_fails(runner):
    result = runner.invoke(
        main,
        ["discretize", "circle", "--method", "centered", "--density", "4", "--variant", "published"],
    )
    assert result.exit_code == 1
    assert "error:" in result.stderr


def test_discretize_circumscribed_sine_missing_inflection(runner):
    result = runner.invoke(
        main, ["discretize", "sine", "--method", "circumscribed", "--samples", "16"]
    )
    # the unsampled inflection is an input problem
    assert result.exit_code == 2


def test_discretize_circumscribed_too_many_inflections(runner):
    argv = ["discretize", "sine", "--method", "circumscribed", "--samples", "20", "--param", "x_max=1000"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert result.stderr == "error: more than 64 inflections detected\n"


def test_discretize_inscribed_with_params(runner, tmp_path):
    out = tmp_path / "circle12.json"
    result = runner.invoke(
        main,
        [
            "discretize", "circle", "--method", "inscribed", "--samples", "12",
            "--param", "radius=2.0", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    pts = np.asarray(json.loads(out.read_text())["points"])
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 2.0, atol=1e-12)
    # every --param applies, in order: the later a wins
    argv = ["discretize", "ellipse", "--method", "inscribed", "--samples", "12"]
    result = runner.invoke(main, [*argv, "--param", "a=5", "--param", "b=0.5", "--param", "a=3"])
    assert result.exit_code == 0, result.output
    pts = np.asarray(json.loads(result.output)["curve"]["points"])
    np.testing.assert_allclose(np.max(np.abs(pts), axis=0), [3.0, 0.5], rtol=1e-12)


@pytest.mark.filterwarnings("error")
def test_discretize_reports_a_finite_length_when_edge_squares_overflow(runner):
    # edges near 1e200 long: their squared norms overflow, their lengths do not
    argv = ["discretize", "sine", "--method", "inscribed", "--samples", "5", "--param", "amplitude=1e200"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    report = json.loads(result.output, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
    assert report["polyline_length"] == pytest.approx(report["curve_length"], rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_overflowing_curve_length_prints_only_the_error(runner):
    argv = ["discretize", "ellipse", "--method", "inscribed", "--samples", "5", "--param", "a=1e308"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stderr == "error: curve length must be positive and finite, got inf\n"


@pytest.mark.filterwarnings("error")
def test_sine_with_an_overflowing_cubed_speed_prints_only_the_error(runner):
    # the curvature no longer overflows: the samples' computed tangents are what is wrong
    _assert_vertical_sample_tangents(runner, "1e150")


@pytest.mark.filterwarnings("error")
def test_parallel_tangents_message_reports_the_computed_tangents(runner):
    # the crest at s = L/4 turns within one ulp of t = pi/2, so its tangent comes out
    # vertical, like the one at s = 0; the curve's own tangents there are perpendicular
    _assert_vertical_sample_tangents(runner, "1e200")


def _assert_vertical_sample_tangents(runner, amplitude):
    argv = ["discretize", "sine", "--method", "circumscribed", "--samples", "5"]
    result = runner.invoke(main, argv + ["--param", f"amplitude={amplitude}"])
    assert result.exit_code == 1
    exponent = amplitude[2:]
    want = (
        rf"error: computed tangents at samples 0 \(s = 0, direction \(1e-{exponent}, 1\)\) and "
        rf"1 \(s = 1e\+{exponent}, direction \([-+.e0-9]+, -?1\)\) are parallel to within 1e-12\n"
    )
    assert re.fullmatch(want, result.stderr), result.stderr


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_POINTS = st.tuples(_FLOATS, _FLOATS).map(np.array)


@st.composite
def _spliced_documents(draw):
    """(report key, record, JSON document) triples as discretize and spline nest
    them: open and closed curves, and splines of lines, arcs, clothoids and elastica."""
    kind = draw(st.sampled_from(["open", "closed", "line", "arc", "clothoid", "elastica"]))
    if kind in ("open", "closed"):
        # coordinates m * 10^e: edge lengths neither underflow nor overflow
        coord = st.builds(lambda m, e: m * 10.0**e, st.integers(-999, 999), st.integers(-30, 30))
        points = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=6, unique=True))
        curve = DiscreteCurve(np.array(points), closed=kind == "closed")
        return "curve", fio.curve_record(curve), fio.curve_to_json(curve)
    positive = st.floats(1e-300, 1e300)
    make = {
        "line": lambda: LineSegment(draw(_POINTS), draw(_POINTS), draw(positive)),
        "arc": lambda: ArcSegment(draw(_POINTS), draw(positive), draw(_FLOATS), draw(st.floats(-6.0, 6.0))),
        "clothoid": lambda: ClothoidSegment(draw(_POINTS), draw(_FLOATS), draw(_FLOATS), draw(_FLOATS), draw(positive)),
        "elastica": lambda: ElasticaSegment(
            draw(_POINTS), draw(st.lists(_FLOATS, min_size=17, max_size=20)), draw(positive), draw(_FLOATS)
        ),
    }[kind]
    segments = [make() for _ in range(draw(st.integers(0, 3)))]
    spline = Spline(segments, closed=draw(st.booleans()))
    return "spline", fio.spline_record(spline), fio.spline_to_json(spline)


@given(_spliced_documents(), _FLOATS, st.booleans())
@settings(max_examples=60, deadline=None)
def test_spliced_reports_equal_the_reencoded_report(document, value, svg):
    key, record, text = document
    report = {"method": "inscribed", "segments": 3, "total_length": value, key: record}
    if svg:
        report["svg"] = "out.svg"
    old = json.dumps({**report, key: json.loads(text)}, indent=2)
    assert "".join(fio.json_pieces(report)) == old


@pytest.mark.parametrize(
    "argv",
    [
        ["discretize", "circle", "--method", "inscribed", "--samples", "7"],
        ["discretize", "sine", "--method", "circumscribed", "--samples", "9"],
        ["discretize", "clothoid", "--method", "centered", "--density", "4"],
        ["spline", "HEX", "--method", "inscribed", "--svg", "SVG"],
        ["spline", "HEX", "--method", "circumscribed"],
        ["spline", "DEMO", "--method", "circumscribed", "--svg", "SVG"],
        ["spline", "DEMO", "--method", "centered"],
        ["roundtrip", "HEX"],
    ],
    ids=lambda argv: "-".join(argv[:4:3] + argv[-2:-1]),
)
def test_reports_are_what_json_dumps_encodes(runner, tmp_path, argv):
    files = {
        "HEX": _write(tmp_path, "hex.json", _hexagon_json()),
        "DEMO": _write(tmp_path, "demo.json", curve_to_json(_unit_step_polyline((0.55, 0.4, 0.65, 0.35)))),
        "SVG": str(tmp_path / "out.svg"),
    }
    result = runner.invoke(main, [files.get(a, a) for a in argv])
    assert result.exit_code == 0, result.output
    assert result.stdout == json.dumps(json.loads(result.stdout), indent=2) + "\n"


def test_spline_inscribed_svg(runner, tmp_path):
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    out = tmp_path / "spline.json"
    svg_out = tmp_path / "spline.svg"
    result = runner.invoke(
        main,
        ["spline", curve, "--method", "inscribed", "--out", str(out), "--svg", str(svg_out)],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["segments"] == 6
    assert report["g1_position_gap"] <= 1e-12
    sp = spline_from_json(out.read_text())
    assert len(sp.segments) == 6
    doc = svg_out.read_text()
    assert doc.count("A ") == 6  # one native arc command per segment


def test_spline_circumscribed(runner, tmp_path):
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    result = runner.invoke(main, ["spline", curve, "--method", "circumscribed"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["total_length"] == pytest.approx(2.0 * math.pi, abs=1e-9)


def _convex_polyline_json():
    """A seeded open unit-edge polyline whose turns all bend one way."""
    turns = np.random.default_rng(26).uniform(0.05, 0.6, size=9)
    return curve_to_json(_unit_step_polyline(turns))


@pytest.mark.parametrize("method", ["inscribed", "circumscribed", "centered"])
@pytest.mark.parametrize("curve", ["hexagon", "convex"])
def test_loaded_and_solved_splines_draw_alike(runner, tmp_path, curve, method):
    """The tables spline_from_json gathers from a spline file draw the bytes that
    the solver's own tables draw."""
    text = _hexagon_json() if curve == "hexagon" else _convex_polyline_json()
    path = _write(tmp_path, "curve.json", text)
    solved, spline_file, loaded = (str(tmp_path / name) for name in ("a.svg", "s.json", "b.svg"))
    result = runner.invoke(main, ["spline", path, "--method", method, "--out", spline_file, "--svg", solved])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["render", path, "--spline", spline_file, "--out", loaded])
    assert result.exit_code == 0, result.output
    assert Path(loaded).read_bytes() == Path(solved).read_bytes()


@pytest.mark.parametrize("method", ["inscribed", "circumscribed", "centered"])
def test_spline_builds_one_sampler(runner, tmp_path, monkeypatch, method):
    """g1_defects and render_svg share the spline's one polyline_sampler, and its chords."""
    made = []
    make = spline2d.polyline_sampler
    monkeypatch.setattr(spline2d, "polyline_sampler", lambda spline: made.append(spline) or make(spline))
    path = _write(tmp_path, "curve.json", _convex_polyline_json())
    for svg in (["--svg", str(tmp_path / "s.svg")], []):
        made.clear()
        result = runner.invoke(main, ["spline", path, "--method", method, *svg])
        assert result.exit_code == 0, result.output
        assert len(made) == 1 if svg else len(made) <= 1


def _spline_energy(runner, tmp_path, points, method):
    """The bending energy that spline reports for an open polyline; it must exit 0 without a warning."""
    path = _write(tmp_path, "curve.json", curve_to_json(DiscreteCurve(np.asarray(points, dtype=float))))
    result = runner.invoke(main, ["spline", path, "--method", method])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    energy = json.loads(result.stdout)["bending_energy"]
    assert math.isfinite(energy)
    return energy


# polylines at the ends of EDGE_RANGE whose arcs and clothoids have a radius**2,
# sharpness**2 or length**3 outside the normal doubles, and their scale
_EXTREME_ENERGIES = {
    "inscribed-arc-radius-squared-overflows": (
        "inscribed", 1e150, [[0, 0], [1e150, 0], [1e150 + 1e150 * math.cos(1e-5), 1e150 * math.sin(1e-5)]],
    ),
    "inscribed-arc-radius-squared-underflows": ("inscribed", 1e-150, [[0, 0], [1.000000001e-150, 0], [0, 0]]),
    "circumscribed-clothoid-length-cubed-overflows": (
        "circumscribed", 1e150, [[0, 0], [1e150, 0], [1e150, 1e150], [2e150, 1e150]],
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(_EXTREME_ENERGIES))
def test_spline_energies_at_the_ends_of_the_edge_range(runner, tmp_path, case):
    method, scale, points = _EXTREME_ENERGIES[case]
    energy = _spline_energy(runner, tmp_path, points, method)
    unit = _spline_energy(runner, tmp_path, np.asarray(points, dtype=float) / scale, method)
    assert energy * scale == pytest.approx(unit, rel=1e-9)


# uneven turns, one so slight that its inscribed arc's radius**2 overflows at the top of the range
_SWEEP_TURNS = (0.3, -0.7, 1e-5, 1.2, -2.9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["inscribed", "circumscribed", "centered"])
def test_spline_energies_scale_across_the_edge_range(runner, tmp_path, method):
    # unit edges times 2**k lie in EDGE_RANGE for |k| <= 498, and a spline scales with its
    # polyline, so energy * 2**k is the unit polyline's
    top = math.floor(math.log2(EDGE_RANGE[1]))
    assert 2.0**-top >= EDGE_RANGE[0]
    unit = _unit_step_polyline(_SWEEP_TURNS).points
    want = _spline_energy(runner, tmp_path, unit, method)
    for k in range(-top, top + 1, 6):
        got = _spline_energy(runner, tmp_path, unit * 2.0**k, method)
        assert got * 2.0**k == pytest.approx(want, rel=1e-14), k


# a nearly taut open polyline: one span's Newton row stops at a residual of 9.7e-9, a G1
# gap close to the 1e-8 gate; its copies scaled by 2**k converge only because each span
# is solved on the unit length
_NEAR_TAUT_TURNS = (-0.0, -4.077362156200812e-10, -6.344422797603669e-08, 3.086589568080977e-10, 8.402062302722993e-4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("turns", [_NEAR_TAUT_TURNS, _SWEEP_TURNS, ZIGZAG_ANGLES], ids=["near-taut", "uneven", "zigzag"])
def test_centered_spline_is_scale_free(runner, tmp_path, turns):
    # each span is solved on the unit length: the polyline scaled by 2**k has the unit
    # polyline's turning angles to the bit, 2**k its length and 2**-k its energy
    unit = _unit_step_polyline(turns).points

    def report(k):
        path = _write(tmp_path, "curve.json", curve_to_json(DiscreteCurve(unit * 2.0**k)))
        result = runner.invoke(main, ["spline", path, "--method", "centered"])
        assert result.exit_code == 0 and result.stderr == "", (k, result.output)
        return json.loads(result.stdout)

    want = report(0)
    # unit edges: the position gap is relative; a taut span may miss its end tangents by 1e-9
    assert want["g1_position_gap"] <= 1e-8 and want["g1_tangent_gap"] <= 1e-9
    for k in (40, -40, 400, -400, 498, -498):
        got = report(k)
        assert got["spline"]["segments"] == [
            {**seg, "start": [v * 2.0**k for v in seg["start"]], "length": seg["length"] * 2.0**k,
             "c_const": seg["c_const"] / 4.0**k}
            for seg in want["spline"]["segments"]
        ], k
        assert got["total_length"] == want["total_length"] * 2.0**k
        assert got["bending_energy"] * 2.0**k == want["bending_energy"]
        # the gaps scale too, down to 2**-498, where squaring them in a norm underflows
        assert got["g1_position_gap"] == want["g1_position_gap"] * 2.0**k
        assert got["g1_tangent_gap"] == want["g1_tangent_gap"]


def test_render_with_circles(runner, tmp_path):
    # a clockwise regular polygon draws the circles of its counterclockwise twin
    hexagon = _write(tmp_path, "hex.json", _hexagon_json())
    clockwise = _write(tmp_path, "cw.json", curve_to_json(DiscreteCurve(load_curve(hexagon).points[::-1], closed=True)))
    for curve in (hexagon, clockwise):
        out = tmp_path / "hex.svg"
        result = runner.invoke(main, ["render", curve, "--with-circles", "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = out.read_text()
        for r in (1.0, math.sqrt(3.0) / 2.0, 3.0 / math.pi):
            assert f'r="{r:.10g}"' in doc


_IRREGULAR_POLYGONS = {
    "rectangle": ([[0, 0], [4, 0], [4, 1], [0, 1]], "its edge lengths spread by 3.000e+00, over 1.0e-09 of their "
                  "mean 2.5"),
    "rhombus": ([[0, 0], [1, 0], [1.5, math.sqrt(0.75)], [0.5, math.sqrt(0.75)]], "its turns spread over "
                "[1.0472, 2.0944] rad, not within 1.0e-09 of 2*pi/4 = 1.5708"),
    "pentagram": ([[math.cos(a), math.sin(a)] for a in np.arange(5) * 4.0 * math.pi / 5.0], "its turns spread "
                  "over [2.51327, 2.51327] rad, not within 1.0e-09 of 2*pi/5 = 1.25664"),
}


@pytest.mark.parametrize("name", list(_IRREGULAR_POLYGONS))
def test_render_with_circles_needs_a_regular_polygon(runner, tmp_path, name):
    """A closed polygon with unequal edges, or with equal edges but turns other than 2 pi / N, exits 2 and
    names the spread, where it drew the circles of a regular N-gon before."""
    points, spread = _IRREGULAR_POLYGONS[name]
    curve = _write(tmp_path, f"{name}.json", json.dumps({"dim": 2, "closed": True, "points": points}))
    result = runner.invoke(main, ["render", curve, "--with-circles", "--out", str(tmp_path / "out.svg")])
    assert (result.exit_code, result.stderr) == (2, f"error: --with-circles needs a closed regular polygon; {spread}\n")


# curve files with an edge whose difference of points overflows, and that edge as the error names it
_OVERFLOWING_EDGES = {
    "open": ({"dim": 2, "closed": False, "points": [[-1e308, 0], [1e308, 0]]},
             "edge 0 from [-1e+308, 0.0] to [1e+308, 0.0]"),
    "closed": ({"dim": 2, "closed": True, "points": [[-1e308, 0], [0, 1e308], [1e308, 0]]},
               "edge 2 from [1e+308, 0.0] to [-1e+308, 0.0]"),
}


@pytest.mark.parametrize("name", list(_OVERFLOWING_EDGES))
@pytest.mark.parametrize("args", [["render"], ["render", "--with-circles"], ["analyze"],
                                  ["spline", "--method", "inscribed"]], ids=" ".join)
def test_overflowing_edge_is_named(runner, tmp_path, name, args):
    """A curve whose edge length overflows is an input error that names the edge, not a drawing too
    large to lay out or edge lengths spread by nan."""
    points, edge = _OVERFLOWING_EDGES[name]
    curve = _write(tmp_path, f"{name}.json", json.dumps(points))
    result = runner.invoke(main, [args[0], curve, *args[1:]])
    want = f"error: invalid curve: the length of {edge} overflows\n"
    assert (result.exit_code, result.stderr) == (2, want)


def test_circumscribed_svg_samples_all_clothoids_at_once(runner, tmp_path, monkeypatch):
    # 31 vertices: the fit, its end-pose check, and one quadrature per sampling pass of
    # render_svg (the chords that set its bounds tolerance, the bounds and the path)
    path = _write(tmp_path, "poly31.json", curve_to_json(_unit_step_polyline(np.linspace(0.1, 0.6, 29))))
    calls = []
    integrals = spline2d._phase_integrals
    monkeypatch.setattr(spline2d, "_phase_integrals", lambda *c: calls.append(1) or integrals(*c))
    argv = ["spline", path, "--method", "circumscribed", "--svg", str(tmp_path / "poly31.svg")]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert 'd="M ' in (tmp_path / "poly31.svg").read_text()
    assert len(calls) <= 12, len(calls)


def test_render_3d_curve_fails(runner, tmp_path):
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    path = _write(tmp_path, "c3.json", curve_to_json(DiscreteCurve(pts)))
    result = runner.invoke(main, ["render", path])
    assert result.exit_code == 2


def test_csv_curve_input(runner, tmp_path):
    text = "0.0,0.0\n1.0,0.0\n2.0,0.0\n"
    path = _write(tmp_path, "line.csv", text)
    result = runner.invoke(main, ["analyze", path])
    assert result.exit_code == 0


def _old_analyze_report(path, conventions):
    """Reference analyze report: per_index row dicts, analysed once per convention."""
    rc = refine(load_curve(path))
    report = {
        "note": "kappa/tau computed from turning angles with the unrefined edge length",
        "edge_length": 2.0 * rc.ell,
        "half_edge_length": rc.ell,
        "conventions": {},
    }
    worst = 0.0
    for conv in conventions:
        ff, data = analyze(rc, conv)
        res = frenet_residual(ff, data)
        worst = max(worst, res)
        edge = curvature_torsion(data.theta, data.phi, 2.0 * rc.ell, conv, data.turn_parity)
        columns = (edge.theta, edge.phi, edge.kappa, edge.tau)
        report["conventions"][conv.value] = {
            "frenet_residual": res,
            "per_index": [
                {"theta": th, "phi": ph, "kappa": k, "tau": t}
                for th, ph, k, t in zip(*(col.tolist() for col in columns))
            ],
        }
    report["max_frenet_residual"] = worst
    report["residual_ok"] = bool(worst <= CLI_RESIDUAL)
    return report


def _old_analyze_csv(report):
    lines = ["convention,index,theta,phi,kappa,tau"]
    for name, block in report["conventions"].items():
        for i, row in enumerate(block["per_index"]):
            lines.append(
                f"{name},{i},{row['theta']!r},{row['phi']!r},{row['kappa']!r},{row['tau']!r}"
            )
    return "\n".join(lines) + "\n"


# integer steps of length 5, a quarter turn apart every 3 steps: a curve of them has uniform edges, and goes
# exactly straight on (theta = 0.0) where a step repeats
_LATTICE_STEPS = np.array([(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3), (-3, -4), (0, -5),
                           (3, -4), (4, -3)], dtype=float)


def _lattice_curve(rng, n_vertices, planar, closed):
    """A curve of _LATTICE_STEPS: a closed rectangle of 2 (a + b) >= 4 vertices, a + b about n_vertices / 2,
    or an open path that turns by at most pi/2 at each vertex, at least once, and goes straight on at a
    third (2D) or half (3D) of them; in 3D, in the plane z = 0 and turning one way (a binormal that flips
    has no vertex frame)."""
    first = int(rng.integers(12))
    if closed:
        a = max(1, n_vertices // 4)
        sides = np.repeat(first + 3 * np.arange(4), [a, max(1, n_vertices // 2 - a)] * 2)
        points = np.vstack([np.zeros(2), np.cumsum(_LATTICE_STEPS[sides[:-1] % 12], axis=0)])
    else:
        sign = 1 if planar else rng.choice([-1, 1])
        choices = [0, 0, 0, sign, 2 * sign, 3 * sign] + ([-1, -2, -3] if planar else [])
        offsets = rng.choice(choices, size=n_vertices - 2)
        if len(offsets):
            offsets[rng.integers(len(offsets))] = 3 * sign
        steps = _LATTICE_STEPS[(first + np.cumsum([0, *offsets])) % 12]
        points = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    return DiscreteCurve(points if planar else np.pad(points, ((0, 0), (0, 1))), closed=closed)


def _random_curve(rng, n_vertices, planar, closed):
    if closed:
        dc = ngon_of_circle(
            float(rng.uniform(0.5, 2.0)), n_vertices, Convention.INSCRIBED,
            phase=float(rng.uniform(0.0, math.tau)),
        )
        if planar:
            return dc
        pts = np.pad(dc.points, ((0, 0), (0, 1))) @ random_rotation(rng).T
        return DiscreteCurve(pts, closed=True)
    rc, _ = make_random_refined(rng, 2 * n_vertices + 1, planar=planar)
    return unrefine(rc)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_vertices=st.integers(2, 40),
    planar=st.booleans(),
    closed=st.booleans(),
    lattice=st.booleans(),
    convention=st.sampled_from([None, *CONVENTIONS]),
)
@settings(max_examples=80, deadline=None)
def test_analyze_output_matches_row_dict_report(
    tmp_path_factory, seed, n_vertices, planar, closed, lattice, convention
):
    """analyze writes exactly json.dumps(report, indent=2) of the row-dict report (and its CSV): open and
    closed curves, whose turns sit at indices of either parity, in 2D and 3D, and lattice curves with
    exactly straight turns."""
    # a closed polygon turns by at most pi/2 from 4 vertices on; a two-point
    # curve has a binormal only in the plane
    assume(n_vertices >= (4 if closed else 2 if planar else 3))
    rng = np.random.default_rng(seed)
    work = tmp_path_factory.mktemp("analyze")
    curve = (_lattice_curve if lattice else _random_curve)(rng, n_vertices, planar, closed)
    path = _write(work, "curve.json", curve_to_json(curve))
    wanted = [Convention(convention)] if convention else list(Convention)
    report = _old_analyze_report(path, wanted)
    expect = {"json": json.dumps(report, indent=2) + "\n", "csv": _old_analyze_csv(report)}
    extra = ["--convention", convention] if convention else []
    runner = CliRunner()
    for fmt, text in expect.items():
        argv = ["analyze", path, "--format", fmt, *extra]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert result.stdout == text
        out = work / f"report.{fmt}"
        result = runner.invoke(main, [*argv, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.stdout == ""
        assert out.read_text() == text


def test_analyze_long_report_is_written_in_pieces(tmp_path):
    """A report with more rows than one piece holds keeps its bytes."""
    rc, _ = make_random_refined(np.random.default_rng(5), 2 * 2500 + 1, planar=False)
    path = _write(tmp_path, "long.json", curve_to_json(unrefine(rc)))
    report = _old_analyze_report(path, list(Convention))
    assert len(report["conventions"]["inscribed"]["per_index"]) > fio.PIECE_ROWS
    result = CliRunner().invoke(main, ["analyze", path])
    assert result.exit_code == 0
    assert result.stdout == json.dumps(report, indent=2) + "\n"
    result = CliRunner().invoke(main, ["analyze", path, "--format", "csv"])
    assert result.stdout == _old_analyze_csv(report)


def test_float_strings_spell_like_json_and_repr():
    values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e16, 0.1, 1.0 / 3.0, 0.0]
    for col in (np.array(values), np.array(values[:10]).reshape(2, 5)):
        assert fio.spell_floats(col) == [json.dumps(v) for v in col.ravel().tolist()]
        finite = col[np.isfinite(col)]
        assert fio.spell_floats(finite) == [repr(v) for v in finite.tolist()]


# --out and --svg overwrite an existing file in place and cut it to the new length;
# every target gives the bytes and the exit code of a write to a new file
_SRC = str(Path(__file__).resolve().parent.parent / "src")
_WRITERS = {
    "analyze": ["analyze", "CURVE", "--out"],
    "analyze-csv": ["analyze", "CURVE", "--format", "csv", "--out"],
    "spline-svg": ["spline", "CURVE", "--method", "inscribed", "--svg"],
}


def _run_to(runner, argv, curve, target):
    result = runner.invoke(main, [curve if a == "CURVE" else a for a in argv] + [str(target)])
    assert "Traceback" not in result.output, result.output
    return result


def _fresh_write(runner, tmp_path, argv, curve):
    """The exit code and bytes of a write to a file that does not exist yet."""
    target = tmp_path / "fresh.out"
    result = _run_to(runner, argv, curve, target)
    data = target.read_bytes()
    target.unlink()
    return result.exit_code, data


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("old_size", ["longer", "shorter", "equal", "missing"])
def test_out_overwrites_in_place_with_the_bytes_of_a_fresh_write(runner, tmp_path, writer, old_size):
    argv, curve = _WRITERS[writer], _write(tmp_path, "hex.json", _hexagon_json())
    code, data = _fresh_write(runner, tmp_path, argv, curve)
    assert code == 0 and data
    target = tmp_path / "target.out"
    old = {"longer": len(data) + 5000, "shorter": 10, "equal": len(data)}.get(old_size)
    if old is not None:
        target.write_bytes(b"x" * old)
        inode = target.stat().st_ino
    assert _run_to(runner, argv, curve, target).exit_code == code
    assert target.read_bytes() == data
    assert old is None or target.stat().st_ino == inode


def test_out_to_dev_null_exits_0(runner, tmp_path):
    if not os.path.exists(os.devnull):
        pytest.skip("no null device")
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    for argv in _WRITERS.values():
        assert _run_to(runner, argv, curve, os.devnull).exit_code == 0


def _frenetkit(*args, **kwargs):
    """Run the CLI in a new interpreter with the source tree on its path."""
    kwargs.setdefault("env", {**os.environ, "PYTHONPATH": _SRC, "PYTHONDONTWRITEBYTECODE": "1"})
    return subprocess.run([sys.executable, "-c", "from frenetkit.cli import main; main()", *args], timeout=120, **kwargs)


def test_a_closed_stdout_pipe_exits_1_silently(tmp_path):
    """The reader closes the pipe after 10 bytes of a report of megabytes (as | head does)."""
    argv = ["-m", "frenetkit.cli", "discretize", "circle", "--method", "inscribed", "--samples", "200000"]
    env = {**os.environ, "PYTHONPATH": _SRC, "PYTHONDONTWRITEBYTECODE": "1"}
    with open(tmp_path / "stderr", "wb+") as err:
        with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=err, env=env) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
        err.seek(0)
        assert err.read() == b""


def test_out_to_dev_stdout_into_a_pipe(runner, tmp_path):
    if not os.path.exists("/dev/stdout"):
        pytest.skip("no /dev/stdout")
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    code, data = _fresh_write(runner, tmp_path, _WRITERS["analyze"], curve)
    result = _frenetkit("analyze", curve, "--out", "/dev/stdout", capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == (code, data, b"")


def test_out_to_a_fifo_read_by_a_thread(runner, tmp_path):
    if not hasattr(os, "mkfifo"):
        pytest.skip("no FIFOs")
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    code, data = _fresh_write(runner, tmp_path, _WRITERS["analyze"], curve)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert _run_to(runner, _WRITERS["analyze"], curve, fifo).exit_code == code
    reader.join(timeout=60)
    assert got == [data]


def test_out_through_a_symlink_rewrites_its_target(runner, tmp_path):
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    code, data = _fresh_write(runner, tmp_path, _WRITERS["analyze"], curve)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * (len(data) + 100))
    link.symlink_to(target)
    assert _run_to(runner, _WRITERS["analyze"], curve, link).exit_code == code
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == data


def test_out_through_a_hard_link_keeps_the_inode(runner, tmp_path):
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    code, data = _fresh_write(runner, tmp_path, _WRITERS["analyze"], curve)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_bytes(b"x" * (len(data) + 100))
    os.link(first, second)
    inode = first.stat().st_ino
    assert _run_to(runner, _WRITERS["analyze"], curve, second).exit_code == code
    assert first.read_bytes() == second.read_bytes() == data
    assert first.stat().st_ino == second.stat().st_ino == inode


@pytest.mark.parametrize("mode", [0o200, 0o640, 0o755], ids=oct)
def test_out_keeps_the_mode_of_an_existing_file(runner, tmp_path, mode):
    """Mode 0o200 is write-only: the writer opens the file for writing alone."""
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    code, data = _fresh_write(runner, tmp_path, _WRITERS["analyze"], curve)
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * (len(data) + 100))
    target.chmod(mode)
    assert _run_to(runner, _WRITERS["analyze"], curve, target).exit_code == code
    assert stat.S_IMODE(target.stat().st_mode) == mode
    target.chmod(0o600)
    assert target.read_bytes() == data


def test_input_file_as_its_own_out(runner, tmp_path):
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    code, data = _fresh_write(runner, tmp_path, _WRITERS["analyze"], curve)
    assert _run_to(runner, _WRITERS["analyze"], curve, curve).exit_code == code
    assert Path(curve).read_bytes() == data


def test_a_write_that_stops_partway_leaves_only_the_new_bytes(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old text, longer than the first piece\n" * 100)

    def pieces():
        yield "first piece\n"
        raise RuntimeError("stopped")

    with pytest.raises(RuntimeError, match="stopped"):
        cli._write(pieces(), str(target))
    assert target.read_text() == "first piece\n"


@pytest.mark.parametrize("kind", ["directory", "missing-parent", "dev-full"])
def test_unwritable_out_names_the_path(runner, tmp_path, kind):
    if kind == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    target = {"directory": tmp_path, "missing-parent": tmp_path / "missing" / "out.json", "dev-full": "/dev/full"}[kind]
    reason = {"directory": "Is a directory", "missing-parent": "No such file or directory", "dev-full": "No space left on device"}[kind]
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    result = _run_to(runner, _WRITERS["analyze"], curve, target)
    assert result.exit_code == 2
    assert result.stderr == f"error: cannot write {target}: {reason}\n"


def test_a_write_that_fails_partway_leaves_only_the_new_bytes(tmp_path):
    """A file size limit makes the write fail with EFBIG after its first 4096 bytes."""
    resource = pytest.importorskip("resource")
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    target = tmp_path / "target.json"
    data = _frenetkit("analyze", curve, capture_output=True).stdout
    assert len(data) > 4096
    target.write_bytes(b"x" * 3 * len(data))
    result = _frenetkit(
        "analyze", curve, "--out", str(target), capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096)),
    )
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write {target}: File too large\n"
    assert target.read_bytes() == data[:4096]


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["analyze", "CURVE"], ["spline", "CURVE", "--method", "inscribed"]])
def test_stdout_on_a_full_device_exits_2_without_traceback(tmp_path, argv, buffered):
    """Buffered, the bytes stdout could not write must not fail again at exit (which exits 120)."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    env = {**os.environ, "PYTHONPATH": _SRC, "PYTHONUNBUFFERED": "" if buffered else "1"}  # "" is unset
    with open("/dev/full", "w") as full:
        argv = [curve if a == "CURVE" else a for a in argv]
        result = _frenetkit(*argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert result.returncode == 2
    assert result.stderr == "error: cannot write stdout: No space left on device\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["analyze", "MISSING"], ["analyze", "CURVE", "--tol", "nan"]], ids=["missing", "nan-tol"])
def test_stderr_on_a_full_device_keeps_exit_2(tmp_path, argv, buffered):
    """The error line cannot be written; the exit code still says input error."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    curve = _write(tmp_path, "hex.json", _hexagon_json())
    argv = [{"CURVE": curve, "MISSING": str(tmp_path / "missing.json")}.get(a, a) for a in argv]
    env = {**os.environ, "PYTHONPATH": _SRC, "PYTHONUNBUFFERED": "" if buffered else "1"}  # "" is unset
    with open("/dev/full", "w") as full:
        result = _frenetkit(*argv, stdout=subprocess.PIPE, stderr=full, env=env)
    assert result.returncode == 2
    assert result.stdout == b""


def test_stderr_into_a_closed_pipe_keeps_exit_2():
    """As with a full device, the error line cannot be written and the exit code still says input error."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _frenetkit("analyze", "/nonexistent/curve.json", stdout=subprocess.PIPE, stderr=write_end)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stdout) == (2, b"")
