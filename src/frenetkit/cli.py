"""Command line interface.

Exit codes: 0 success, 1 numerical failure, 2 input error.
All subcommands print structured JSON on stdout; errors go to stderr.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import stat
import sys
from itertools import chain

import click
import numpy as np

from . import discretize2d, io, spline2d, svg
from .config import CLI_RESIDUAL, CONGRUENCE_RMS
from .curve_core import DiscreteCurve, refine
from .errors import FrenetError, InputError, ParseError
from .frames import _embed3, analyze, convention_table
from .ngon_circle import Convention, circle_of_ngon, NGonSpec
from .reconstruct import InitialPose, congruent, reconstruct

CONVENTIONS = [c.value for c in Convention]
_ROW_KEYS = ("theta", "phi", "kappa", "tau")  # of the analyze report's per-index rows


def _write(pieces, out_path, std="stdout"):
    """Write the pieces of a text to out_path, or else to sys.stdout or sys.stderr as std names; an
    OSError is an InputError.  An existing file is overwritten in place (same inode, mode and links)
    and cut to the bytes written, also when the write stops partway; a FIFO or device is not cut.
    No fsync and no atomicity."""
    try:
        if not out_path:
            # the stream itself: click.echo would cache, and so keep alive, each redirected stdout
            stream = getattr(sys, std)
            stream.writelines(pieces)
            stream.flush()
            return
        with open(out_path, "w", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
            try:
                fh.writelines(pieces)
                fh.flush()
            finally:  # cut where the bytes written end; what a raising piece left buffered follows on close
                if stat.S_ISREG(os.fstat(fd := fh.fileno()).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        if not out_path and isinstance(exc, BrokenPipeError):
            raise  # a closed pipe: click's own silent exit 1
        if not out_path and stream is getattr(sys, f"__{std}__"):
            # the bytes it still holds are flushed at exit: into the null device, not into a second error
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), stream.fileno())
        raise InputError(f"cannot write {out_path or std}: {exc.strerror or exc}") from None


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
            with contextlib.suppress(InputError):  # an unwritable stderr: the exit code still tells
                _write([f"error: {exc}\n"], None, "stderr")
            sys.exit(2 if isinstance(exc, InputError) else 1)


@click.group(cls=_Group)
def main():
    """Discrete curve analysis, reconstruction, discretization and splining."""


@main.command("analyze")
@click.argument("curve_file", type=click.Path())
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
    ff, data = analyze(rc, None)
    residuals, at_edge = convention_table(ff, data, wanted)
    n = len(data.theta)
    cells = io.spell_floats(np.vstack([data.theta, data.phi, *at_edge]))
    theta, phi, *kappa_tau = (cells[i : i + n] for i in range(0, len(cells), n))
    columns = {conv.value: [theta, phi, *kappa_tau[2 * c : 2 * c + 2]] for c, conv in enumerate(wanted)}
    worst = float(np.max(residuals))  # NaN if any residual is NaN, which then fails
    if fmt == "csv":
        index = list(map(str, range(n)))
        tables = [io.csv_pieces([[name] * len(index), index, *cols]) for name, cols in columns.items()]
        _write(chain(["convention,index,theta,phi,kappa,tau\n"], *tables), out_path)
    else:
        report = {
            "note": "kappa/tau computed from turning angles with the unrefined edge length",
            "edge_length": 2.0 * rc.ell,
            "half_edge_length": rc.ell,
            "conventions": {
                name: {"frenet_residual": res, "per_index": io.Rows(zip(_ROW_KEYS, cols))}
                for (name, cols), res in zip(columns.items(), residuals)
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
@click.argument("intrinsic_file", type=click.Path())
@click.option("--origin", default=None, help="comma-separated start point")
@click.option("--tangent", default=None, help="comma-separated start tangent")
@click.option("--normal", default=None, help="comma-separated start normal")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_reconstruct(intrinsic_file, origin, tangent, normal, out_path):
    """Rebuild a curve from intrinsic data (ell, theta, phi)."""
    data = io.load_intrinsic(intrinsic_file)
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
@click.argument("curve_file", type=click.Path())
@click.option("--method", type=click.Choice(["inscribed", "circumscribed", "centered"]), required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--svg", "svg_path", type=click.Path(), default=None)
def cmd_spline(curve_file, method, out_path, svg_path):
    """Spline a discrete curve with arcs, clothoids or elastica."""
    curve = io.load_curve(curve_file)
    if method == "circumscribed":
        sp = spline2d.spline_circumscribed(curve)
    else:
        rc = refine(curve)
        if method == "inscribed":
            sp = spline2d.spline_inscribed(rc)
        else:
            sp = spline2d.spline_centered(rc)
    pos_gap, ang_gap = spline2d.g1_defects(sp)
    report = {
        "method": method,
        "segments": len(sp),
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
@click.argument("curve_file", type=click.Path())
@click.option("--tol", type=float, default=CONGRUENCE_RMS, help="congruence rms threshold, in edge lengths")
def cmd_roundtrip(curve_file, tol):
    """analyze -> reconstruct -> congruence check, with the rms judged in units of the mean edge length."""
    tol = _nonnegative("--tol", tol)
    rc = refine(io.load_curve(curve_file))
    ff, data = analyze(rc, None)
    pts = _embed3(rc.points)
    pose = InitialPose(origin=pts[0], tangent=ff.Te[0], normal=ff.Ne[0], binormal=ff.Be[0])
    rebuilt = reconstruct(data, pose, n_steps=rc.n_edges())
    ok, rms = congruent(pts, rebuilt.points[: len(pts)], tol=tol * 2.0 * rc.ell)
    _write_json({"rms": rms, "congruent": bool(ok), "tol": tol}, None)
    sys.exit(0 if ok else 1)


@main.command("render")
@click.argument("curve_file", type=click.Path())
@click.option("--spline", "spline_path", type=click.Path(), default=None)
@click.option("--with-circles", is_flag=True, help="draw the three convention circles of a regular polygon")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_render(curve_file, spline_path, with_circles, out_path):
    """Render a curve (and optional spline) to SVG."""
    curve = io.load_curve(curve_file)
    splines = []
    if spline_path:
        splines.append(io.load_spline(spline_path))
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
