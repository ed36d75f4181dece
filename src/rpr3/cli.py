"""Command-line workbench for the planar 3-RPR manipulator.

Subcommands
-----------
ik            inverse kinematics for a pose (all eight branches or one)
dk            direct kinematics for actuated angles (closed form, geometric
              curve intersection, or both with cross-validation)
singularity   Jacobian classification report for one configuration
trace         coupler-curve sample table and optional figure
sweep         detA / detB field over a joint- or cartesian-space grid
verify        randomized self-checks of the solvers against the oracle

Exit codes: 0 success, 1 usage, 2 singular or degenerate input, 3 I/O
problem, 4 verification failure.  All angles are radians unless --deg is
given, which converts both inputs and outputs.  Set RPR_GEOMETRY to a JSON
file ``{"scale": s}`` to change the mechanism size.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from functools import partial

import numpy as np

from .coupler import (
    MIN_CURVE_SAMPLES,
    geometric_dkp,
    reuleaux_descriptor,
    rho_from_phi,
    trace_cardanic,
)
from .errors import (
    DegenerateLegPairError,
    GeometryError,
    InconsistentStateError,
    LegAtAnchorError,
    NotReuleauxError,
    SingularNearbyError,
)
from .geometry import (
    DEFAULT_GEOMETRY,
    JointAngles,
    ManipulatorGeometry,
    Pose,
    _libm,
    load_geometry,
    normalize_angle,
    normalize_angles,
    platform_anchor,
    platform_anchor_arrays,
    pose_distance,
)
from .jacobians import (
    SingularityKind,
    build_matrices,
    build_matrices_array,
    classify_singularity,
)
from .oracle import dkp_bruteforce, jacobian_fd_check
from .solvers import (
    DkKind,
    classify_dk_degeneracy_array,
    direct_kinematics,
    inverse_kinematics,
    inverse_kinematics_array,
    mn_coefficients,
)
from . import figio

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SINGULAR = 2
EXIT_IO = 3
EXIT_VERIFY = 4

_ANGLE_AXES = {"t1", "t2", "t3", "phi"}
# Most points a sweep grid may have, checked before any grid array exists.
MAX_GRID_POINTS = 10**6


class _UsageError(Exception):
    """Bad flag combination detected after argparse accepted the line."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage by default; 2 is reserved for
    # singular inputs here, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rpr3",
        description="kinematic workbench for the planar 3-RPR manipulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ik = sub.add_parser("ik", help="inverse kinematics for a platform pose")
    _add_pose_flags(p_ik)
    p_ik.add_argument(
        "--branch",
        default="all",
        help="three binary digits selecting per-leg angle branches, or 'all'",
    )
    _add_deg_flag(p_ik)
    p_ik.set_defaults(handler=_cmd_ik)

    p_dk = sub.add_parser("dk", help="direct kinematics for actuated angles")
    _add_theta_flags(p_dk, required=True)
    p_dk.add_argument(
        "--method",
        choices=("closed", "geometric", "both"),
        default="closed",
        help="solution route; 'both' cross-checks the two and fails on mismatch",
    )
    _add_deg_flag(p_dk)
    p_dk.set_defaults(handler=_cmd_dk)

    p_sing = sub.add_parser(
        "singularity", help="classify the Jacobian state of one configuration"
    )
    _add_pose_flags(p_sing)
    _add_theta_flags(p_sing, required=False)
    p_sing.add_argument(
        "--branch",
        default="000",
        help="inverse-kinematics branch used when angles are not given",
    )
    _add_deg_flag(p_sing)
    p_sing.set_defaults(handler=_cmd_singularity)

    p_trace = sub.add_parser(
        "trace", help="trace the third-anchor coupler curve for two fixed angles"
    )
    p_trace.add_argument(
        "--t1", type=_finite_float, required=True, help="first leg angle"
    )
    p_trace.add_argument(
        "--t2", type=_finite_float, required=True, help="second leg angle"
    )
    p_trace.add_argument(
        "--samples",
        type=_int_at_least(MIN_CURVE_SAMPLES),
        default=720,
        help="number of orientation samples",
    )
    p_trace.add_argument("--csv", required=True, help="output CSV path")
    p_trace.add_argument("--svg", help="optional output SVG path")
    _add_deg_flag(p_trace)
    p_trace.set_defaults(handler=_cmd_trace)

    p_sweep = sub.add_parser(
        "sweep", help="tabulate detA/detB over a grid of configurations"
    )
    p_sweep.add_argument(
        "--space",
        choices=("joint", "cartesian"),
        required=True,
        help="grid over actuated angles or over platform poses",
    )
    for axis, what in (
        ("t1", "first leg angle"),
        ("t2", "second leg angle"),
        ("t3", "third leg angle"),
        ("x", "platform x"),
        ("y", "platform y"),
        ("phi", "platform orientation"),
    ):
        p_sweep.add_argument(
            f"--{axis}",
            help=f"{what}: fixed value 'v' or range 'lo:hi:n'",
        )
    p_sweep.add_argument("--csv", required=True, help="output CSV path")
    p_sweep.add_argument("--svg", help="optional zero-contour SVG (two swept axes)")
    p_sweep.add_argument(
        "--quantity",
        choices=("detA", "detB"),
        default="detA",
        help="field rendered in the SVG contour",
    )
    _add_deg_flag(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="randomized cross-checks of solvers against the oracle"
    )
    p_verify.add_argument(
        "--scope",
        choices=("all", "dkp", "jacobian", "curves"),
        default="all",
        help="which check families to run",
    )
    p_verify.add_argument(
        "--trials", type=_int_at_least(1), default=200, help="trials per scope"
    )
    p_verify.add_argument(
        "--seed", type=_int_at_least(0), default=0, help="random seed"
    )
    p_verify.add_argument(
        "--csv", help="recheck a previously written trace CSV (curves scope)"
    )
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def _finite_float(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}"
            )
        return value

    return parse


def _add_pose_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--x", type=_finite_float, required=True, help="platform x")
    parser.add_argument("--y", type=_finite_float, required=True, help="platform y")
    parser.add_argument(
        "--phi", type=_finite_float, required=True, help="platform orientation"
    )


def _add_theta_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    for flag, what in (("t1", "first"), ("t2", "second"), ("t3", "third")):
        parser.add_argument(
            f"--{flag}",
            type=_finite_float,
            required=required,
            help=f"{what} leg angle",
        )


def _add_deg_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deg",
        action="store_true",
        help="angles on the command line and in output are degrees",
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        geom = _geometry_from_env()
    except (OSError, json.JSONDecodeError, GeometryError) as exc:
        print(f"rpr3: geometry error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return args.handler(args, geom)
    except (_UsageError, GeometryError) as exc:
        # A GeometryError is a value out of floating-point range, e.g. a leg
        # length that overflows; the input is unusable as given.
        print(f"rpr3: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LegAtAnchorError as exc:
        print(f"rpr3: serial singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (
        DegenerateLegPairError,
        NotReuleauxError,
        InconsistentStateError,
        SingularNearbyError,
    ) as exc:
        print(f"rpr3: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except OSError as exc:
        print(f"rpr3: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _geometry_from_env() -> ManipulatorGeometry:
    path = os.environ.get("RPR_GEOMETRY")
    if not path:
        return DEFAULT_GEOMETRY
    return load_geometry(path)


def _in_angle(value: float, deg: bool) -> float:
    return math.radians(value) if deg else value


def _out_angle(value: float, deg: bool) -> float:
    return math.degrees(value) if deg else value


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _pose_payload(pose: Pose, deg: bool) -> dict:
    return {"x": pose.x, "y": pose.y, "phi": _out_angle(pose.phi, deg)}


def _line_payload(line) -> dict:
    # Direction components are a unit vector, not an angle, so --deg does
    # not apply.
    return {
        "point": [line.point.x, line.point.y],
        "direction": [line.direction.x, line.direction.y],
    }


def _reuleaux_payload(desc) -> dict:
    return {
        "p_line": dict(
            _line_payload(desc.p_line),
            half_length=desc.p_line.half_length,
            length=desc.p_line.length,
        ),
        "a_displacement_magnitude": desc.a_displacement_magnitude,
    }


def _singularity_payload(pose: Pose, theta, geom: ManipulatorGeometry) -> dict:
    report = classify_singularity(pose, theta, geometry=geom)
    point = report.intersection_point
    return {
        "kind": report.kind.value,
        "det_a": report.det_a,
        "det_b": report.det_b,
        "zero_rho_legs": list(report.zero_rho_legs),
        "intersection_point": None if point is None else [point.x, point.y],
        "translation_case": report.translation_case,
    }


# ---------------------------------------------------------------- commands


def _cmd_ik(args, geom: ManipulatorGeometry) -> int:
    pose = Pose(args.x, args.y, _in_angle(args.phi, args.deg))
    if args.branch == "all":
        branches = [(i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(8)]
    else:
        branches = [_parse_branch(args.branch)]
    solutions = []
    for branch in branches:
        sol = inverse_kinematics(pose, branch=branch, geometry=geom)
        legs = []
        for leg, signed in zip(sol.legs, sol.signed_rhos()):
            legs.append(
                {
                    "theta": _out_angle(leg.theta, args.deg),
                    "rho": leg.rho,
                    "signed_rho": signed,
                }
            )
        solutions.append({"branch": "".join(map(str, branch)), "legs": legs})
    _emit(
        {
            "schema": 1,
            "command": "ik",
            "scale": geom.scale,
            "pose": _pose_payload(pose, args.deg),
            "solutions": solutions,
        }
    )
    return EXIT_OK


def _parse_branch(text: str):
    if len(text) != 3 or any(c not in "01" for c in text):
        raise _UsageError(
            f"--branch must be three binary digits or 'all', got {text!r}"
        )
    return tuple(int(c) for c in text)


def _cmd_dk(args, geom: ManipulatorGeometry) -> int:
    # Solved and reported in (-pi, pi]: the reduction works on angle
    # differences, which lose a small angle next to a huge one.
    theta = JointAngles(
        *(_in_angle(t, args.deg) for t in (args.t1, args.t2, args.t3))
    ).as_tuple()
    routes = {}
    if args.method in ("closed", "both"):
        routes["closed"] = direct_kinematics(theta, geometry=geom)
    if args.method in ("geometric", "both"):
        routes["geometric"] = geometric_dkp(theta, geometry=geom)

    primary = routes.get("closed") or routes["geometric"]
    payload = {
        "schema": 1,
        "command": "dk",
        "scale": geom.scale,
        "method": args.method,
        "theta": [_out_angle(t, args.deg) for t in theta],
        "kind": primary.kind.value,
        "reduction": {"m": primary.m, "n": primary.n},
        "coincident": primary.coincident,
        "poses": [
            dict(
                _pose_payload(p, args.deg),
                singularity=_singularity_payload(p, theta, geom),
            )
            for p in primary.poses
        ],
        "continuum": None
        if primary.continuum is None
        else _line_payload(primary.continuum),
    }
    if primary.kind is DkKind.CONTINUUM_REULEAUX:
        desc = reuleaux_descriptor(theta, geometry=geom)
        payload["continuum"] = _line_payload(desc.p_line)
        payload["reuleaux"] = _reuleaux_payload(desc)

    if args.method == "both":
        deviation = _pose_set_deviation(
            routes["closed"].poses, routes["geometric"].poses
        )
        kinds_match = routes["closed"].kind is routes["geometric"].kind
        payload["agreement"] = {
            "kinds_match": kinds_match,
            "max_pose_deviation": deviation,
        }
        if not kinds_match or not (deviation <= geom.pose_tol):
            _emit(payload)
            print(
                "rpr3: dk routes disagree "
                f"(kinds {routes['closed'].kind.value} vs "
                f"{routes['geometric'].kind.value}, deviation {deviation:.3e})",
                file=sys.stderr,
            )
            return EXIT_VERIFY

    _emit(payload)
    return EXIT_OK


def _pose_set_deviation(left: tuple[Pose, ...], right: tuple[Pose, ...]) -> float:
    """Symmetric Hausdorff distance between two discrete pose sets."""
    if not left or not right:
        return 0.0 if not left and not right else math.inf
    worst = 0.0
    for src, dst in ((left, right), (right, left)):
        for p in src:
            best = min(pose_distance(p, q) for q in dst)
            worst = max(worst, best)
    return worst


def _cmd_singularity(args, geom: ManipulatorGeometry) -> int:
    pose = Pose(args.x, args.y, _in_angle(args.phi, args.deg))
    given = [args.t1, args.t2, args.t3]
    if any(t is not None for t in given):
        if any(t is None for t in given):
            raise _UsageError("provide all of --t1 --t2 --t3 or none")
        theta = tuple(_in_angle(t, args.deg) for t in given)
    else:
        sol = inverse_kinematics(pose, branch=_parse_branch(args.branch), geometry=geom)
        theta = sol.angles
    mats = build_matrices(pose, theta, geometry=geom)
    payload = {
        "schema": 1,
        "command": "singularity",
        "scale": geom.scale,
        "pose": _pose_payload(pose, args.deg),
        "theta": [_out_angle(t, args.deg) for t in theta],
        "a_matrix": [[float(v) for v in row] for row in mats.a_matrix],
        "b_diagonal": [float(mats.b_matrix[i, i]) for i in range(3)],
    }
    payload.update(_singularity_payload(pose, theta, geom))
    _emit(payload)
    return EXIT_OK


def _cmd_trace(args, geom: ManipulatorGeometry) -> int:
    curve = trace_cardanic(
        _in_angle(args.t1, args.deg),
        _in_angle(args.t2, args.deg),
        n_samples=args.samples,
        geometry=geom,
    )
    # Traced, written and reported in (-pi, pi], so that the CSV rechecks
    # against the very angles the curve came from.
    t1, t2 = curve.theta1, curve.theta2

    out = np.degrees if args.deg else np.asarray
    thetas = np.broadcast_to(out([t1, t2]), (len(curve.phi), 2))
    table = np.column_stack((thetas, out(curve.phi), curve.b3, curve.rho))
    figio.write_csv(args.csv, ("theta1", "theta2", "phi", "x", "y", "rho1", "rho2"), table)

    if args.svg:
        canvas = figio.SvgCanvas(title="third-anchor coupler curve")
        _draw_base(canvas, geom)
        _draw_slider_axis(canvas, geom.base_anchor(1), t1)
        _draw_slider_axis(canvas, geom.base_anchor(2), t2)
        canvas.polyline(
            curve.b3.tolist(),
            stroke="#c02020",
            width=0.015,
        )
        if curve.segment is not None:
            end_a, end_b = curve.segment
            canvas.line(
                end_a.x, end_a.y, end_b.x, end_b.y, stroke="#2020c0", width=0.02
            )
        canvas.write(args.svg)

    payload = {
        "schema": 1,
        "command": "trace",
        "scale": geom.scale,
        "theta1": _out_angle(t1, args.deg),
        "theta2": _out_angle(t2, args.deg),
        "samples": args.samples,
        "degenerate": curve.degenerate,
        "csv": args.csv,
        "svg": args.svg,
    }
    if curve.segment is not None:
        end_a, end_b = curve.segment
        payload["segment"] = {
            "endpoints": [[end_a.x, end_a.y], [end_b.x, end_b.y]],
            "length": math.hypot(end_b.x - end_a.x, end_b.y - end_a.y),
        }
    else:
        payload["segment"] = None
    if curve.degenerate:
        # A straight-line curve means the legs are one third-turn apart, so
        # the Reuleaux family applies; complete the triple accordingly.
        t3 = normalize_angle(t1 - math.pi / 3.0)
        desc = reuleaux_descriptor((t1, t2, t3), geometry=geom)
        payload["reuleaux"] = {
            "theta3": _out_angle(t3, args.deg),
            **_reuleaux_payload(desc),
        }
    _emit(payload)
    return EXIT_OK


def _draw_base(canvas: figio.SvgCanvas, geom: ManipulatorGeometry) -> None:
    anchors = [geom.base_anchor(i) for i in (1, 2, 3)]
    canvas.polyline(
        [(a.x, a.y) for a in anchors], stroke="#808080", width=0.008, closed=True
    )
    for a in anchors:
        canvas.circle(a.x, a.y, 0.025, fill="#404040")


def _draw_slider_axis(canvas, anchor, theta: float) -> None:
    reach = 6.0
    dx, dy = math.cos(theta), math.sin(theta)
    canvas.line(
        anchor.x - reach * dx,
        anchor.y - reach * dy,
        anchor.x + reach * dx,
        anchor.y + reach * dy,
        stroke="#b0b0b0",
        width=0.006,
        dash="0.04,0.04",
    )


# ------------------------------------------------------------------ sweep


def _parse_axis(name: str, text: str | None, deg: bool) -> np.ndarray:
    """Values of sweep axis ``name``: a fixed value 'v' or a range 'lo:hi:n'."""
    if text is None:
        raise _UsageError(f"--{name} is required for this space")
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise _UsageError(f"--{name}: expected 'v' or 'lo:hi:n'")
    try:
        ends = [float(p) for p in parts[:2]]
        count = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise _UsageError(f"--{name}: could not parse {text!r}") from None
    # The span check catches finite ends whose difference overflows.
    if not all(math.isfinite(v) for v in (*ends, ends[-1] - ends[0])):
        raise _UsageError(f"--{name}: values must be finite, got {text!r}")
    if len(parts) == 1:
        values = np.array(ends)
    elif count < 2:
        raise _UsageError(f"--{name}: range needs at least 2 samples")
    elif count > MAX_GRID_POINTS:
        raise _UsageError(f"--{name}: a sweep grid has at most {MAX_GRID_POINTS} points")
    else:
        values = np.linspace(ends[0], ends[1], count)
    if name in _ANGLE_AXES and deg:
        values = np.radians(values)
    # Checked after the unit change, which can merge ends a few ulp apart.
    if len(values) > 1 and values[0] == values[-1]:
        raise _UsageError(f"--{name}: range needs lo != hi, got {text!r}")
    return values


def _cmd_sweep(args, geom: ManipulatorGeometry) -> int:
    if args.space == "joint":
        axis_names = ("t1", "t2", "t3")
    else:
        axis_names = ("x", "y", "phi")
    axes = [_parse_axis(name, getattr(args, name), args.deg) for name in axis_names]
    swept = [i for i, a in enumerate(axes) if len(a) > 1]
    if args.svg and len(swept) != 2:
        raise _UsageError("--svg requires exactly two swept axes")
    if math.prod(len(a) for a in axes) > MAX_GRID_POINTS:
        raise _UsageError(f"a sweep grid has at most {MAX_GRID_POINTS} points")

    # Every grid point as one flat array per axis, last axis fastest: the
    # order of the CSV rows.
    grid = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    if args.space == "joint":
        # Joint grids are evaluated at the trivial assembly.
        theta = np.stack(grid, axis=1)
        x = y = phi = np.zeros(len(theta))
        mats = build_matrices_array(x, y, phi, theta, geometry=geom)
        det_a, det_b = mats.det_a, mats.det_b
        kinds = classify_dk_degeneracy_array(theta)
    else:
        x, y, phi = grid[0], grid[1], normalize_angles(grid[2])
        theta, at_anchor = inverse_kinematics_array(x, y, phi, geometry=geom)
        ok = ~at_anchor
        mats = build_matrices_array(x[ok], y[ok], phi[ok], theta[ok], geometry=geom)
        # A pose on a base anchor has undefined angles and is serial singular.
        det_a = np.full(len(x), math.nan)
        det_a[ok] = mats.det_a
        det_b = np.zeros(len(x))
        det_b[ok] = mats.det_b
        kinds = np.full(len(x), SingularityKind.SERIAL, dtype=object)
        kinds[ok] = mats.singularity_kinds()

    out = np.degrees if args.deg else np.asarray
    table = np.column_stack((out(theta), x, y, out(phi), det_a, det_b))
    header = ("theta1", "theta2", "theta3", "x", "y", "phi", "detA", "detB", "kind")
    count = figio.write_csv(args.csv, header, table, (kind.value for kind in kinds))

    if args.svg:
        field = det_a if args.quantity == "detA" else det_b
        grid_values = field.reshape(len(axes[swept[0]]), len(axes[swept[1]]))
        _write_sweep_svg(args, axes, swept, axis_names, grid_values)

    _emit(
        {
            "schema": 1,
            "command": "sweep",
            "scale": geom.scale,
            "space": args.space,
            "rows": count,
            "csv": args.csv,
            "svg": args.svg,
        }
    )
    return EXIT_OK


def _write_sweep_svg(args, axes, swept, axis_names, grid_values) -> None:
    lo = figio.VIEW_MIN + 0.2
    hi = figio.VIEW_MAX - 0.2
    canvas = figio.SvgCanvas(title=f"{args.quantity} zero contour")
    canvas.polyline(
        [(lo, lo), (hi, lo), (hi, hi), (lo, hi)],
        stroke="#000000",
        width=0.008,
        closed=True,
    )
    u_axis, v_axis = (axes[i] for i in swept)
    ends = figio.contour_segments(u_axis, v_axis, np.nan_to_num(grid_values, nan=0.0))
    # Into the viewBox: u ends are columns 0 and 2, v ends columns 1 and 3.
    for k, axis in enumerate((u_axis, v_axis)):
        ends[:, k::2] = lo + (hi - lo) * (ends[:, k::2] - axis[0]) / (axis[-1] - axis[0])
    for ax, ay, bx, by in ends.tolist():
        canvas.line(ax, ay, bx, by, stroke="#c02020", width=0.012)
    for i, drop in zip(swept, (0.15, 0.3)):
        axis = axes[i]
        canvas.text(lo, lo - drop, f"{axis_names[i]}: {axis[0]:.6g} .. {axis[-1]:.6g}")
    canvas.write(args.svg)


# ----------------------------------------------------------------- verify


def _cmd_verify(args, geom: ManipulatorGeometry) -> int:
    rng = np.random.default_rng(args.seed)
    failures: list[str] = []
    # Each scope with the name of the metric its summary line reports.
    for scope, trial, metric in (
        ("dkp", _dkp_trial, "pose deviation"),
        ("jacobian", _jacobian_trial, "fd error"),
        ("curves", _curves_trial, "residual"),
    ):
        if args.scope not in ("all", scope):
            continue
        _run_trials(scope, metric, args.trials, partial(trial, rng, geom), failures)
        if scope == "curves" and args.csv:
            code = _recheck_trace_csv(args.csv, geom, failures)
            if code:
                return code

    if failures:
        for line in failures:
            print(f"rpr3: FAIL {line}", file=sys.stderr)
        return EXIT_VERIFY
    print("verify: ok")
    return EXIT_OK


class _TrialFailure(Exception):
    """A verify trial whose check failed; the message names the input."""


def _run_trials(scope: str, metric: str, trials: int, trial, failures: list[str]) -> None:
    """Run ``trial`` until ``trials`` of its draws were checked.

    ``trial()`` returns None for a draw it skips, else the checked metric;
    it raises :class:`_TrialFailure` when the check fails, which ends the
    scope.  A scope that runs out of its 50 draws per trial with fewer
    trials done fails too, so that no check passes on fewer trials than
    requested.
    """
    cap = trials * 50
    # Lazy, so that no draw is taken once enough trials are done.
    results = (trial() for _ in range(cap))
    try:
        values = list(itertools.islice((v for v in results if v is not None), trials))
    except _TrialFailure as exc:
        failures.append(str(exc))
        return
    if len(values) < trials:
        failures.append(f"{scope}: {len(values)} of {trials} trials done in {cap} draws")
        return
    print(f"verify {scope}: {trials} trials, max {metric} {max(values):.3e}")


def _dkp_trial(rng, geom) -> float | None:
    theta = tuple(rng.uniform(-math.pi, math.pi, 3))
    m, n = mn_coefficients(theta)
    if m * m + n * n < 1e-8:
        return None  # keep checks away from the degeneracy threshold
    if abs(math.atan2(2.0 * m * n, m * m - n * n)) < 1e-2:
        return None  # roots closer than the scan grid can separate
    closed = direct_kinematics(theta, geometry=geom)
    if closed.kind is not DkKind.TWO_SOLUTIONS or closed.coincident:
        return None
    report = dkp_bruteforce(theta, geometry=geom)
    if len(report.solutions_found) != len(closed.poses):
        raise _TrialFailure(
            f"dkp count mismatch at theta={theta}: closed "
            f"{len(closed.poses)}, scan {len(report.solutions_found)}"
        )
    deviation = _pose_set_deviation(closed.poses, report.solutions_found)
    if deviation > geom.pose_tol:
        raise _TrialFailure(f"dkp deviation {deviation:.3e} at theta={theta}")
    return deviation


def _jacobian_trial(rng, geom) -> float | None:
    s = geom.scale
    pose = Pose(
        rng.uniform(-0.5 * s, 1.5 * s),
        rng.uniform(-0.5 * s, 1.5 * s),
        rng.uniform(-math.pi, math.pi),
    )
    try:
        sol = inverse_kinematics(pose, geometry=geom)
    except LegAtAnchorError:
        return None
    if min(sol.rhos()) < 0.05 * s:
        return None
    theta = sol.angles
    mats = build_matrices(pose, theta, geometry=geom)
    norm = np.linalg.norm(mats.a_matrix)
    if abs(mats.det_a) < 1e-6 * norm**3:
        return None
    try:
        err = jacobian_fd_check(pose, theta, geometry=geom)
    except SingularNearbyError:
        return None
    if err > 1e-5:
        raise _TrialFailure(f"jacobian fd error {err:.3e} at pose={pose.as_tuple()}")
    return err


def _curves_trial(rng, geom) -> float | None:
    """Worst gap of one whole curve from the slider constraints.

    The anchors come from the geometry layer, so the check stays
    independent of the curve formulas it tests.
    """
    s = geom.scale
    t1, t2 = rng.uniform(-math.pi, math.pi, 2)
    if abs(math.sin(t2 - t1)) < 1e-6:
        return None
    curve = trace_cardanic(t1, t2, n_samples=360, geometry=geom)
    b2 = geom.base_anchor(2)
    # Leg 1's anchor is on its slider line by construction.
    x, y = _slider_point(t1, curve.rho[:, 0], geom)
    ax, ay = platform_anchor_arrays(x, y, curve.phi, geometry=geom)
    r2 = math.sin(t2) * (ax[:, 1] - b2.x) - math.cos(t2) * (ay[:, 1] - b2.y)
    miss3 = _libm(math.hypot, ax[:, 2] - curve.b3[:, 0], ay[:, 2] - curve.b3[:, 1])
    gap = np.maximum(np.abs(r2), miss3)
    bad = np.flatnonzero(gap > 1e-9 * max(s, 1.0))
    if bad.size:
        k = bad[0]
        raise _TrialFailure(
            f"curve residual {gap[k]:.3e} at theta=({t1}, {t2}), "
            f"phi={float(curve.phi[k])}"
        )
    rho_lo = rho_from_phi(t1, t2, -math.pi, geometry=geom)
    rho_hi = rho_from_phi(t1, t2, math.pi, geometry=geom)
    closure = max(
        abs(rho_lo[0] - rho_hi[0]), abs(rho_lo[1] - rho_hi[1])
    )
    if closure > 1e-10 * max(s, 1.0):
        raise _TrialFailure(f"curve closure {closure:.3e} at theta=({t1}, {t2})")
    return float(gap.max())


def _slider_point(t1: float, rho1, geom):
    """Reference point ``rho1`` along leg 1's slider line, as a coupler-curve
    sample records it; ``rho1`` is a float or an array."""
    a1 = geom.base_anchor(1)
    return (a1.x + rho1 * math.cos(t1), a1.y + rho1 * math.sin(t1))


def _recheck_trace_csv(path: str, geom, failures: list[str]) -> int:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except OSError as exc:
        print(f"rpr3: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not rows:
        print(f"rpr3: {path}: no data rows", file=sys.stderr)
        return EXIT_IO
    worst = 0.0
    for idx, row in enumerate(rows):
        try:
            t1 = float(row["theta1"])
            t2 = float(row["theta2"])
            phi = float(row["phi"])
            recorded = (
                float(row["x"]),
                float(row["y"]),
                float(row["rho1"]),
                float(row["rho2"]),
            )
        except (KeyError, TypeError, ValueError):
            print(f"rpr3: {path}: malformed row {idx + 1}", file=sys.stderr)
            return EXIT_IO
        rho1, rho2 = rho_from_phi(t1, t2, phi, geometry=geom)
        pose = Pose(*_slider_point(t1, rho1, geom), phi)
        anchor3 = platform_anchor(pose, 3, geometry=geom)
        gap = max(
            abs(anchor3.x - recorded[0]),
            abs(anchor3.y - recorded[1]),
            abs(rho1 - recorded[2]),
            abs(rho2 - recorded[3]),
        )
        worst = max(worst, gap)
        if gap > 1e-12 * max(geom.scale, 1.0):
            failures.append(f"trace csv row {idx + 1} deviates by {gap:.3e}")
            return 0
    print(f"verify trace-csv: {len(rows)} rows, max deviation {worst:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
