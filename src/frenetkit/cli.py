"""Command line interface.

Exit codes: 0 success, 1 numerical failure, 2 input error.
All subcommands print structured JSON on stdout; errors go to stderr.
"""

from __future__ import annotations

import inspect
import json
import sys
from itertools import count, islice, repeat

import click
import numpy as np

from . import discretize2d, io, spline2d, svg
from .config import CONGRUENCE_RMS, cli_tolerance
from .curve_core import DiscreteCurve, refine
from .errors import FrenetError, InputError, ParseError
from .frames import analyze, curvature_torsion, frenet_residual
from .ngon_circle import Convention, circle_of_ngon, NGonSpec
from .reconstruct import InitialPose, congruent, reconstruct

CONVENTIONS = [c.value for c in Convention]


# one per-index row of the analyze report as json.dumps(report, indent=2) lays it out
_JSON_ROW = (
    '{\n          "theta": %s,\n          "phi": %s,\n'
    '          "kappa": %s,\n          "tau": %s\n        }'
)
_MARK = "\0spliced"  # stands for text spliced into an encoded report
_CHUNK_ROWS = 4096


def _float_strings(col: np.ndarray, fmt: str) -> list[str]:
    """col's values spelled as json.dumps (fmt "json") or repr (fmt "csv") spells them."""
    out = list(map(float.__repr__, col.tolist()))
    if fmt == "json":
        for i in np.flatnonzero(~np.isfinite(col)):
            out[i] = json.dumps(float(col[i]))  # NaN, Infinity, -Infinity
    return out


def _pieces(frame, tables, template, sep):
    """Yield frame[0], the rows of tables[0], frame[1], ..., frame[-1]: each row
    fills template, and a table's rows are joined by sep, _CHUNK_ROWS a piece."""
    yield frame[0]
    for rows, tail in zip(tables, frame[1:]):
        lead = ""
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            yield lead + sep.join([template % row for row in chunk])
            lead = sep
        yield tail


def _report_pieces(report, text=None):
    """json.dumps(report, indent=2) and a newline, with text (an indent=2 document) spliced in at _MARK."""
    head, *tail = json.dumps(report, indent=2).split(json.dumps(_MARK))
    return [head, *(text.replace("\n", "\n  ") + rest for rest in tail), "\n"]


def _write(pieces, out_path):
    """Write the pieces of a text to out_path, or echo them to stdout."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        # a named stream: click.echo would cache, and so keep alive, each redirected stdout
        for piece in pieces:
            click.echo(piece, nl=False, file=sys.stdout)


def _nonnegative(name, tol):
    if not tol >= 0.0:  # also rejects NaN
        raise ParseError(f"{name} must be a non-negative number, got {tol}")
    return tol


class _Group(click.Group):
    """Turns a FrenetError from any subcommand into "error: ..." on stderr and
    exit code 2 (input error) or 1 (numerical failure)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except FrenetError as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(2 if isinstance(exc, InputError) else 1)


@click.group(cls=_Group)
def main():
    """Discrete curve analysis, reconstruction, discretization and splining."""


@main.command("analyze")
@click.argument("curve_file", type=click.Path(exists=True))
@click.option("--convention", type=click.Choice(CONVENTIONS), default=None)
@click.option("--tol", type=float, default=None, help="residual threshold for success")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_analyze(curve_file, convention, tol, fmt, out_path):
    """Per-index angle/curvature/torsion report plus the Frenet residual.

    Curvature values use the unrefined edge length (the polyline's own
    edges); the refined half-edge is reported separately.
    """
    if tol is None:
        tol = _nonnegative("FRENETKIT_TOL", cli_tolerance())
    tol = _nonnegative("--tol", tol)
    rc = refine(io.load_curve(curve_file))
    wanted = [Convention(convention)] if convention else list(Convention)
    ff, data = analyze(rc)
    angles = [_float_strings(a, fmt) for a in (data.theta, data.phi)]
    residuals, columns = {}, {}
    for conv in wanted:
        at_ell = curvature_torsion(data.theta, data.phi, rc.ell, conv, data.turn_parity)
        residuals[conv.value] = frenet_residual(ff, at_ell)
        edge = curvature_torsion(data.theta, data.phi, 2.0 * rc.ell, conv, data.turn_parity)
        columns[conv.value] = angles + [_float_strings(c, fmt) for c in (edge.kappa, edge.tau)]
    worst = max(0.0, *residuals.values())
    if fmt == "csv":
        frame = ["convention,index,theta,phi,kappa,tau\n"] + ["\n"] * len(columns)
        tables = [zip(repeat(name), count(), *cols) for name, cols in columns.items()]
        pieces = _pieces(frame, tables, "%s,%d,%s,%s,%s,%s", "\n")
    else:
        report = {
            "note": "kappa/tau computed from turning angles with the unrefined edge length",
            "edge_length": 2.0 * rc.ell,
            "half_edge_length": rc.ell,
            "conventions": {
                name: {"frenet_residual": res, "per_index": [_MARK]}
                for name, res in residuals.items()
            },
            "max_frenet_residual": worst,
            "residual_ok": bool(worst <= tol),
        }
        frame = (json.dumps(report, indent=2) + "\n").split(json.dumps(_MARK))
        tables = [zip(*cols) for cols in columns.values()]
        pieces = _pieces(frame, tables, _JSON_ROW, ",\n        ")
    _write(pieces, out_path)
    sys.exit(0 if worst <= tol else 1)


def _parse_vec(text, default):
    if text is None:
        return np.asarray(default, dtype=float)
    try:
        vec = np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"bad vector {text!r}") from exc
    if vec.shape != (3,):
        raise ParseError(f"vector {text!r} must have 3 components")
    return vec


@main.command("reconstruct")
@click.argument("intrinsic_file", type=click.Path(exists=True))
@click.option("--origin", default=None, help="comma-separated start point")
@click.option("--tangent", default=None, help="comma-separated start tangent")
@click.option("--normal", default=None, help="comma-separated start normal")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_reconstruct(intrinsic_file, origin, tangent, normal, out_path):
    """Rebuild a curve from intrinsic data (ell, theta, phi)."""
    with open(intrinsic_file) as fh:
        data = io.intrinsic_from_json(fh.read())
    t = _parse_vec(tangent, [1.0, 0.0, 0.0])
    nrm = _parse_vec(normal, [0.0, 1.0, 0.0])
    pose = InitialPose(
        origin=_parse_vec(origin, [0.0, 0.0, 0.0]),
        tangent=t,
        normal=nrm,
        binormal=np.cross(t, nrm),
    )
    rc = reconstruct(data, pose)
    out = io.curve_to_json(DiscreteCurve(rc.points, closed=False))
    _write([out, "\n"], out_path)


@main.command("discretize")
@click.argument("curve_name", type=click.Choice(sorted(discretize2d.BUILTIN_CURVES)))
@click.option("--method", type=click.Choice(["inscribed", "circumscribed", "centered"]), required=True)
@click.option("--samples", type=int, default=None, help="sample count (inscribed/circumscribed)")
@click.option("--density", type=float, default=None, help="samples per unit length (centered)")
@click.option("--variant", type=click.Choice(["exact", "published"]), default="exact")
@click.option("--param", "params", multiple=True, help="curve parameter key=value")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_discretize(curve_name, method, samples, density, variant, params, out_path):
    """Discretize a built-in smooth curve."""
    ctor = discretize2d.BUILTIN_CURVES[curve_name]
    numeric = sorted(
        name
        for name, par in inspect.signature(ctor).parameters.items()
        if isinstance(par.default, float)
    )
    kwargs = {}
    for item in params:
        if "=" not in item:
            raise ParseError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            kwargs[key] = float(value)
        except ValueError:
            raise ParseError(f"--param {key} expects a number, got {value!r}") from None
        if key not in numeric:
            raise ParseError(f"{curve_name} has no parameter {key!r}; choose from {numeric}")
    curve = ctor(**kwargs)
    if method == "centered":
        if density is None:
            raise ParseError("--density is required for the centered method")
        rc = discretize2d.discretize_centered(curve, density, variant=variant)
        dc = DiscreteCurve(rc.points, closed=rc.closed)
        report = {
            "method": method,
            "variant": variant,
            "half_edge_length": rc.ell,
            "polyline_length": rc.length(),
            "curve_length": curve.length,
            "length_error": abs(rc.length() - curve.length),
        }
    else:
        if samples is None:
            raise ParseError("--samples is required for this method")
        smap = discretize2d.uniform_samples(curve, samples)
        if method == "inscribed":
            dc = discretize2d.discretize_inscribed(curve, smap)
        else:
            dc = discretize2d.discretize_circumscribed(curve, smap)
        report = {
            "method": method,
            "points": len(dc),
            "polyline_length": dc.length(),
            "curve_length": curve.length,
        }
    text = io.curve_to_json(dc)
    if out_path:
        _write([text, "\n"], out_path)
        report["out"] = out_path
    else:
        report["curve"] = _MARK
    _write(_report_pieces(report, text), None)


@main.command("spline")
@click.argument("curve_file", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["inscribed", "circumscribed", "centered"]), required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
def cmd_spline(curve_file, method, seed, out_path, svg_path):
    """Spline a discrete curve with arcs, clothoids or elastica."""
    curve = io.load_curve(curve_file)
    if method == "circumscribed":
        sp = spline2d.spline_circumscribed(curve)
    else:
        rc = refine(curve)
        if method == "inscribed":
            sp = spline2d.spline_inscribed(rc)
        else:
            sp = spline2d.spline_centered(rc, seed=seed)
    pos_gap, ang_gap = spline2d.g1_defects(sp)
    report = {
        "method": method,
        "segments": len(sp.segments),
        "total_length": sp.total_length(),
        "bending_energy": sp.energy(),
        "g1_position_gap": pos_gap,
        "g1_tangent_gap": ang_gap,
    }
    text = io.spline_to_json(sp)
    if out_path:
        _write([text, "\n"], out_path)
        report["out"] = out_path
    else:
        report["spline"] = _MARK
    if svg_path:
        doc = svg.render_svg(curves=[curve], splines=[sp])
        _write([doc, "\n"], svg_path)
        report["svg"] = svg_path
    _write(_report_pieces(report, text), None)


@main.command("roundtrip")
@click.argument("curve_file", type=click.Path(exists=True))
@click.option("--tol", type=float, default=CONGRUENCE_RMS, help="congruence rms threshold")
def cmd_roundtrip(curve_file, tol):
    """analyze -> reconstruct -> congruence check."""
    tol = _nonnegative("--tol", tol)
    curve = io.load_curve(curve_file)
    rc = refine(curve)
    ff, data = analyze(rc)
    pose = InitialPose(
        origin=np.pad(rc.points[0], (0, 3 - rc.dim)),
        tangent=ff.Te[0],
        normal=ff.Ne[0],
        binormal=ff.Be[0],
    )
    n_steps = rc.n_edges()
    rebuilt = reconstruct(data, pose, n_steps=n_steps)
    pts_orig = np.pad(rc.points, ((0, 0), (0, 3 - rc.dim)))
    n_cmp = len(pts_orig)
    ok, rms = congruent(pts_orig, rebuilt.points[:n_cmp], tol=tol)
    report = {"rms": rms, "congruent": bool(ok), "tol": tol}
    _write(_report_pieces(report), None)
    sys.exit(0 if ok else 1)


@main.command("render")
@click.argument("curve_file", type=click.Path(exists=True))
@click.option("--spline", "spline_path", type=click.Path(exists=True), default=None)
@click.option("--with-circles", is_flag=True, help="draw the three convention circles of a regular polygon")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_render(curve_file, spline_path, with_circles, out_path):
    """Render a curve (and optional spline) to SVG."""
    curve = io.load_curve(curve_file)
    splines = []
    if spline_path:
        with open(spline_path) as fh:
            splines.append(io.spline_from_json(fh.read()))
    circles = []
    if with_circles:
        if not curve.closed:
            raise InputError("--with-circles needs a closed regular polygon")
        side = float(np.mean(curve.edge_lengths()))
        center = curve.points[:, :2].mean(axis=0)
        spec = NGonSpec(len(curve), side, center=tuple(center))
        for conv in Convention:
            circles.append(circle_of_ngon(spec, conv))
    doc = svg.render_svg(curves=[curve], splines=splines, circles=circles)
    _write([doc, "\n"], out_path)


if __name__ == "__main__":
    main()
