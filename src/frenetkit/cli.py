"""Command line interface.

Exit codes: 0 success, 1 numerical failure, 2 input error.
All subcommands print structured JSON on stdout; errors go to stderr.
"""

from __future__ import annotations

import inspect
import sys
from itertools import chain

import click
import numpy as np

from . import discretize2d, io, spline2d, svg
from .config import CLI_RESIDUAL, CONGRUENCE_RMS
from .curve_core import DiscreteCurve, refine
from .errors import FrenetError, InputError, ParseError
from .frames import analyze, curvature_torsion, frenet_residual
from .ngon_circle import Convention, circle_of_ngon, NGonSpec
from .reconstruct import InitialPose, congruent, reconstruct

CONVENTIONS = [c.value for c in Convention]
_ROW_KEYS = ("theta", "phi", "kappa", "tau")  # of the analyze report's per-index rows


def _write(pieces, out_path):
    """Write the pieces of a text to out_path, or to stdout."""
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc.strerror or exc}") from None
    else:
        # sys.stdout itself: click.echo would cache, and so keep alive, each redirected stdout
        sys.stdout.writelines(pieces)
        sys.stdout.flush()


def _write_json(obj, out_path):
    """Write obj as JSON with an indent of 2 and a newline, to out_path or stdout."""
    _write(chain(io.json_pieces(obj), ["\n"]), out_path)


def _file_or_nest(report, key, record, out_path):
    """Write record to out_path and name the file in report, or nest record in report under key."""
    if out_path:
        _write_json(record, out_path)
    report["out" if out_path else key] = out_path or record


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
@click.option("--tol", type=float, default=CLI_RESIDUAL, help="residual threshold for success")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_analyze(curve_file, convention, tol, fmt, out_path):
    """Per-index angle/curvature/torsion report plus the Frenet residual.

    Curvature values use the unrefined edge length (the polyline's own
    edges); the refined half-edge is reported separately.
    """
    tol = _nonnegative("--tol", tol)
    rc = refine(io.load_curve(curve_file))
    wanted = [Convention(convention)] if convention else list(Convention)
    ff, data = analyze(rc)
    angles = [io.spell_floats(a, fmt == "csv") for a in (data.theta, data.phi)]
    residuals, columns = {}, {}
    for conv in wanted:
        at_ell = curvature_torsion(data.theta, data.phi, rc.ell, conv, data.turn_parity)
        residuals[conv.value] = frenet_residual(ff, at_ell)
        edge = curvature_torsion(data.theta, data.phi, 2.0 * rc.ell, conv, data.turn_parity)
        columns[conv.value] = angles + [io.spell_floats(c, fmt == "csv") for c in (edge.kappa, edge.tau)]
    worst = max(0.0, *residuals.values())
    if fmt == "csv":
        index = list(map(str, range(len(data.theta))))
        tables = [io.csv_pieces([[name] * len(index), index, *cols]) for name, cols in columns.items()]
        _write(chain(["convention,index,theta,phi,kappa,tau\n"], *tables), out_path)
    else:
        report = {
            "note": "kappa/tau computed from turning angles with the unrefined edge length",
            "edge_length": 2.0 * rc.ell,
            "half_edge_length": rc.ell,
            "conventions": {
                name: {"frenet_residual": residuals[name], "per_index": io.Rows(zip(_ROW_KEYS, cols))}
                for name, cols in columns.items()
            },
            "max_frenet_residual": worst,
            "residual_ok": bool(worst <= tol),
        }
        _write_json(report, out_path)
    sys.exit(0 if worst <= tol else 1)


def _parse_vec(option, text, default):
    if text is None:
        return np.asarray(default, dtype=float)
    try:
        vec = np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"{option}: bad vector {text!r}") from exc
    if vec.shape != (3,):
        raise ParseError(f"{option}: vector {text!r} must have 3 components")
    if not np.all(np.isfinite(vec)):
        raise ParseError(f"{option}: vector {text!r} must be finite")
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
    t = _parse_vec("--tangent", tangent, [1.0, 0.0, 0.0])
    nrm = _parse_vec("--normal", normal, [0.0, 1.0, 0.0])
    pose = InitialPose(
        origin=_parse_vec("--origin", origin, [0.0, 0.0, 0.0]),
        tangent=t,
        normal=nrm,
        binormal=np.cross(t, nrm),
    )
    rc = reconstruct(data, pose)
    _write_json(io.curve_record(DiscreteCurve(rc.points, closed=False)), out_path)


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
    _file_or_nest(report, "curve", io.curve_record(dc), out_path)
    _write_json(report, None)


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
    _file_or_nest(report, "spline", io.spline_record(sp), out_path)
    if svg_path:
        doc = svg.render_svg(curves=[curve], splines=[sp])
        _write([doc, "\n"], svg_path)
        report["svg"] = svg_path
    _write_json(report, None)


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
    _write_json({"rms": rms, "congruent": bool(ok), "tol": tol}, None)
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
