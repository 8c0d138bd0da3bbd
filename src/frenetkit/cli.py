"""Command line interface.

Exit codes: 0 success, 1 numerical failure, 2 input error.
All subcommands print structured JSON on stdout; errors go to stderr.
"""

from __future__ import annotations

import inspect
import json
import sys

import click
import numpy as np

from . import discretize2d, io, spline2d, svg
from .config import cli_tolerance
from .curve_core import DiscreteCurve, refine
from .errors import FrenetError, InputError, NumericalError, ParseError
from .frames import analyze, curvature_torsion, frenet_residual
from .ngon_circle import Convention, circle_of_ngon, NGonSpec
from .reconstruct import InitialPose, congruent, reconstruct

CONVENTIONS = [c.value for c in Convention]


def _fail(exc: Exception) -> int:
    click.echo(f"error: {exc}", err=True)
    if isinstance(exc, InputError):
        return 2
    if isinstance(exc, NumericalError):
        return 1
    return 1


def _emit(obj, out_path):
    if out_path:
        # json.dump streams to the file, so the report text is never held whole
        with open(out_path, "w") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    else:
        click.echo(json.dumps(obj, indent=2))


@click.group()
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
    try:
        tol = tol if tol is not None else cli_tolerance()
        curve = io.load_curve(curve_file)
        rc = refine(curve)
        wanted = [Convention(convention)] if convention else list(Convention)
        report = {
            "note": "kappa/tau computed from turning angles with the unrefined edge length",
            "edge_length": 2.0 * rc.ell,
            "half_edge_length": rc.ell,
            "conventions": {},
        }
        worst = 0.0
        for conv in wanted:
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
        report["residual_ok"] = bool(worst <= tol)
        if fmt == "csv":
            lines = ["convention,index,theta,phi,kappa,tau"]
            for name, block in report["conventions"].items():
                for i, row in enumerate(block["per_index"]):
                    lines.append(
                        f"{name},{i},{row['theta']!r},{row['phi']!r},"
                        f"{row['kappa']!r},{row['tau']!r}"
                    )
            text = "\n".join(lines)
            if out_path:
                with open(out_path, "w") as fh:
                    fh.write(text + "\n")
            else:
                click.echo(text)
        else:
            _emit(report, out_path)
        sys.exit(0 if worst <= tol else 1)
    except FrenetError as exc:
        sys.exit(_fail(exc))


def _parse_vec(text, default):
    if text is None:
        return np.asarray(default, dtype=float)
    try:
        return np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ParseError(f"bad vector {text!r}") from exc


@main.command("reconstruct")
@click.argument("intrinsic_file", type=click.Path(exists=True))
@click.option("--origin", default=None, help="comma-separated start point")
@click.option("--tangent", default=None, help="comma-separated start tangent")
@click.option("--normal", default=None, help="comma-separated start normal")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_reconstruct(intrinsic_file, origin, tangent, normal, out_path):
    """Rebuild a curve from intrinsic data (ell, theta, phi)."""
    try:
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
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(out + "\n")
        else:
            click.echo(out)
    except FrenetError as exc:
        sys.exit(_fail(exc))


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
    try:
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
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(io.curve_to_json(dc) + "\n")
            report["out"] = out_path
        else:
            report["curve"] = json.loads(io.curve_to_json(dc))
        click.echo(json.dumps(report, indent=2))
    except FrenetError as exc:
        sys.exit(_fail(exc))


@main.command("spline")
@click.argument("curve_file", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["inscribed", "circumscribed", "centered"]), required=True)
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
def cmd_spline(curve_file, method, seed, out_path, svg_path):
    """Spline a discrete curve with arcs, clothoids or elastica."""
    try:
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
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(io.spline_to_json(sp) + "\n")
            report["out"] = out_path
        else:
            report["spline"] = json.loads(io.spline_to_json(sp))
        if svg_path:
            doc = svg.render_svg(curves=[curve], splines=[sp])
            with open(svg_path, "w") as fh:
                fh.write(doc + "\n")
            report["svg"] = svg_path
        click.echo(json.dumps(report, indent=2))
    except FrenetError as exc:
        sys.exit(_fail(exc))


@main.command("roundtrip")
@click.argument("curve_file", type=click.Path(exists=True))
@click.option("--tol", type=float, default=1e-9, help="congruence rms threshold")
def cmd_roundtrip(curve_file, tol):
    """analyze -> reconstruct -> congruence check."""
    try:
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
        click.echo(json.dumps(report, indent=2))
        sys.exit(0 if ok else 1)
    except FrenetError as exc:
        sys.exit(_fail(exc))


@main.command("render")
@click.argument("curve_file", type=click.Path(exists=True))
@click.option("--spline", "spline_path", type=click.Path(exists=True), default=None)
@click.option("--with-circles", is_flag=True, help="draw the three convention circles of a regular polygon")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_render(curve_file, spline_path, with_circles, out_path):
    """Render a curve (and optional spline) to SVG."""
    try:
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
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(doc + "\n")
        else:
            click.echo(doc)
    except FrenetError as exc:
        sys.exit(_fail(exc))


if __name__ == "__main__":
    main()
