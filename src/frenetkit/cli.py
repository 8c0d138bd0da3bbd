"""Command line interface.

Exit codes: 0 success, 1 numerical failure, 2 input error.
All subcommands print structured JSON on stdout; errors go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import math
import os
import stat
import sys
from itertools import chain

import numpy as np

from . import discretize2d, io, spline2d, svg
from .config import CLI_RESIDUAL, CONGRUENCE_RMS, UNIFORM_LENGTH_REL
from .curve_core import DiscreteCurve, refine
from .errors import FrenetError, InputError, ParseError
from .frames import _embed3, _one_value, analyze, convention_table, polyline_turning_angles
from .ngon_circle import Convention, circle_of_ngon, NGonSpec
from .reconstruct import InitialPose, congruent, reconstruct

CONVENTIONS = [c.value for c in Convention]
METHODS = ["inscribed", "circumscribed", "centered"]  # of discretize and spline
_ROW_KEYS = ("theta", "phi", "kappa", "tau")  # of the analyze report's per-index rows
# the cells of an analyze row at a turn and at a twist: None for the transition's one angle and curvature,
# "0.0" for the other angle and curvature, which are +0.0 by construction
_TURN_CELLS, _TWIST_CELLS = (None, "0.0", None, "0.0"), ("0.0", None, "0.0", None)


def _write(pieces, out_path, std="stdout"):
    """Write the pieces of a text to out_path, or else to sys.stdout or sys.stderr as std names; an
    OSError is an InputError.  An existing file is overwritten in place (same inode, mode and links)
    and cut to the bytes written, also when the write stops partway; a FIFO or device is not cut.
    No fsync and no atomicity."""
    try:
        if not out_path:
            # the stream itself, as each call finds it: in-process runs redirect it and must not keep it alive
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
        if not out_path and stream is getattr(sys, f"__{std}__"):
            # the bytes it still holds are flushed at exit: into the null device, not into a second error
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), stream.fileno())
        if not out_path and isinstance(exc, BrokenPipeError):
            raise  # a closed pipe: main's silent exit 1
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


def _arg(*flags, **kwargs):
    return flags, kwargs


def _command(name, *args):
    """Register the decorated function as subcommand name, with the arguments _arg declares."""

    def register(fn):
        sub = _COMMANDS.add_parser(name, help=fn.__doc__.split("\n")[0], description=fn.__doc__, allow_abbrev=False)
        actions = [sub.add_argument(*flags, **kwargs) for flags, kwargs in args]
        _TAKES_VALUE.update(flag for action in actions if action.nargs is None for flag in action.option_strings)
        sub.set_defaults(run=fn)
        return fn

    return register


def _join_values(args):
    """args with each option that takes a value joined to the token after it (--origin=-1,2,0),
    so that a value may start with "-"; up to a "--", and not when no token follows."""
    out, rest = [], iter(args)
    for arg in rest:
        if arg == "--":
            return [*out, arg, *rest]
        value = next(rest, None) if arg in _TAKES_VALUE else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


class _Main(argparse.ArgumentParser):
    """The frenetkit command and its subcommands' parsers.  main(args) runs a subcommand and turns a FrenetError,
    a usage error included, into "error: ..." on stderr and exit code 2 (input error) or 1 (numerical failure);
    a closed stdout pipe exits 1 silently.  prog_name and standalone_mode are accepted and change nothing."""

    name = "frenetkit"

    def error(self, message):
        raise ParseError(message)

    def main(self, args=None, prog_name=None, standalone_mode=True):
        try:
            ns = vars(self.parse_args(_join_values(sys.argv[1:] if args is None else args)))
            ns.pop("run")(**ns)
        except FrenetError as exc:
            with contextlib.suppress(InputError, BrokenPipeError):  # a stderr we cannot write to: the exit code tells
                _write([f"error: {exc}\n"], None, "stderr")
            sys.exit(2 if isinstance(exc, InputError) else 1)
        except BrokenPipeError:
            sys.exit(1)

    __call__ = main


main = _Main("frenetkit", description="Discrete curve analysis, reconstruction, discretization and splining.",
             allow_abbrev=False)
_COMMANDS = main.add_subparsers(metavar="COMMAND", required=True)
_TAKES_VALUE = set()  # the options that take one value, as _command registers them


@_command("analyze", _arg("curve_file"), _arg("--convention", choices=CONVENTIONS),
          _arg("--tol", type=float, default=CLI_RESIDUAL, help="residual threshold for success"),
          _arg("--format", dest="fmt", choices=["json", "csv"], default="json"), _arg("--out", dest="out_path"))
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
    # the one value each transition may have nonzero, spelled in one call (n texts a row): theta at a turn
    # (the indices of the turn parity) and phi at a twist, then each convention's kappa or tau
    one = np.vstack([_one_value(data.theta, data.phi, data.turn_parity), at_edge])
    angle, *kernels = zip(*[iter(io.spell_floats(one))] * n)
    cells = [_TURN_CELLS, _TWIST_CELLS] if data.turn_parity == 0 else [_TWIST_CELLS, _TURN_CELLS]  # row 0's first
    worst = float(np.max(residuals))  # NaN if any residual is NaN, which then fails
    if fmt == "csv":
        index, shapes = list(map(str, range(n))), [(None, None, *row) for row in cells]
        tables = [io.csv_pieces([[conv.value] * n, index, angle, kernel], shapes=shapes)
                  for conv, kernel in zip(wanted, kernels)]
        _write(chain(["convention,index,theta,phi,kappa,tau\n"], *tables), out_path)
    else:
        report = {
            "note": "kappa/tau computed from turning angles with the unrefined edge length",
            "edge_length": 2.0 * rc.ell,
            "half_edge_length": rc.ell,
            "conventions": {
                conv.value: {"frenet_residual": res, "per_index": io.Rows(_ROW_KEYS, cells, [angle, kernel])}
                for conv, kernel, res in zip(wanted, kernels, residuals)
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


@_command("reconstruct", _arg("intrinsic_file"), _arg("--origin", help="comma-separated start point"),
          _arg("--tangent", help="comma-separated start tangent"),
          _arg("--normal", help="comma-separated start normal"), _arg("--out", dest="out_path"))
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


@_command("discretize", _arg("curve_name", choices=sorted(discretize2d.BUILTIN_CURVES)),
          _arg("--method", choices=METHODS, required=True),
          _arg("--samples", type=int, help="sample count (inscribed/circumscribed)"),
          _arg("--density", type=float, help="samples per unit length (centered)"),
          _arg("--variant", choices=["exact", "published"], default="exact"),
          _arg("--param", dest="params", action="append", default=[], help="curve parameter key=value"),
          _arg("--out", dest="out_path"))
def cmd_discretize(curve_name, method, samples, density, variant, params, out_path):
    """Discretize a built-in smooth curve."""
    ctor, kwargs = discretize2d.BUILTIN_CURVES[curve_name], {}
    if params:  # the curve's numeric parameters, read only to check each --param
        numeric = sorted(name for name, par in inspect.signature(ctor).parameters.items()
                         if isinstance(par.default, float))
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


@_command("spline", _arg("curve_file"), _arg("--method", choices=METHODS, required=True),
          _arg("--out", dest="out_path"), _arg("--svg", dest="svg_path"))
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


@_command("roundtrip", _arg("curve_file"),
          _arg("--tol", type=float, default=CONGRUENCE_RMS, help="congruence rms threshold, in edge lengths"))
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


@_command("render", _arg("curve_file"), _arg("--spline", dest="spline_path"),
          _arg("--with-circles", action="store_true",
               help="draw the three convention circles of a regular polygon (equal edges and equal turns)"),
          _arg("--out", dest="out_path"))
def cmd_render(curve_file, spline_path, with_circles, out_path):
    """Render a curve (and optional spline) to SVG."""
    curve = io.load_curve(curve_file)
    splines = []
    if spline_path:
        splines.append(io.load_spline(spline_path))
    circles = [circle_of_ngon(_regular_polygon(curve), conv) for conv in Convention] if with_circles else []
    doc = svg.render_svg(curves=[curve], splines=splines, circles=circles)
    _write([doc, "\n"], out_path)


def _regular_polygon(curve) -> NGonSpec:
    """The regular N-gon that curve is, about its centroid; an InputError naming the spread unless curve is
    closed, its edge lengths spread by at most UNIFORM_LENGTH_REL of their mean (as refine allows) and its
    turns, all of one sign, lie within UNIFORM_LENGTH_REL rad of 2 pi / N (moving a vertex by that share of
    an edge turns its edges by about that angle, so the two bounds agree)."""
    need = "--with-circles needs a closed regular polygon"
    if not curve.closed:
        raise InputError(need)
    lengths = curve.edge_lengths()
    side, spread = float(np.mean(lengths)), float(np.max(lengths)) - float(np.min(lengths))  # inf - inf: no warning
    if not spread <= UNIFORM_LENGTH_REL * side:
        raise InputError(f"{need}; its edge lengths spread by {spread:.3e}, over {UNIFORM_LENGTH_REL:.1e} "
                         f"of their mean {side:.6g}")
    turns = polyline_turning_angles(curve)
    want = math.copysign(2.0 * math.pi / len(curve), turns.sum())  # a clockwise polygon turns by -2 pi / N
    if not np.max(np.abs(turns - want)) <= UNIFORM_LENGTH_REL:
        raise InputError(f"{need}; its turns spread over [{turns.min():.6g}, {turns.max():.6g}] rad, not within "
                         f"{UNIFORM_LENGTH_REL:.1e} of 2*pi/{len(curve)} = {want:.6g}")
    return NGonSpec(len(curve), side, center=tuple(curve.points[:, :2].mean(axis=0)))


if __name__ == "__main__":
    main()
