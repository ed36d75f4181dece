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
import json
import math
import os
import sys
from functools import cache

import numpy as np

from .coupler import MIN_CURVE_SAMPLES, geometric_dkp, reuleaux_descriptor
from .errors import GeometryError, LegAtAnchorError, Rpr3Error
from .figio import MAX_SVG_AXIS_POINTS
from .geometry import (
    DEFAULT_GEOMETRY,
    POSE_TOL,
    JointAngles,
    ManipulatorGeometry,
    Pose,
    _pose_set_deviation,
    load_geometry,
    normalize_angle,
)
from .jacobians import build_matrices, classify_singularity
from .solvers import _REULEAUX_GAP, DkKind, direct_kinematics, inverse_kinematics
from . import sweep, trace, verify

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SINGULAR = 2
EXIT_IO = 3
EXIT_VERIFY = 4

# Most points a sweep grid or a trace may have, checked before any array
# exists.
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

    p_dk = sub.add_parser("dk", help="direct kinematics for actuated angles")
    _add_theta_flags(p_dk, required=True)
    p_dk.add_argument(
        "--method",
        choices=("closed", "geometric", "both"),
        default="closed",
        help="solution route; 'both' cross-checks the two and fails on mismatch",
    )
    _add_deg_flag(p_dk)

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
        type=_int_in(MIN_CURVE_SAMPLES, MAX_GRID_POINTS),
        default=720,
        help="number of orientation samples",
    )
    p_trace.add_argument("--csv", required=True, help="output CSV path")
    p_trace.add_argument("--svg", help="optional output SVG path")
    _add_deg_flag(p_trace)

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
    p_sweep.add_argument("--svg", help="optional SVG of the singularity locus (two swept axes)")
    _add_deg_flag(p_sweep)

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
        "--trials", type=_int_in(1), default=200, help="trials per scope"
    )
    p_verify.add_argument(
        "--seed", type=_int_in(0), default=0, help="seed of verify's draws"
    )
    p_verify.add_argument(
        "--csv", help="recheck a previously written trace CSV"
    )

    return parser


# The parser depends on no input, so main builds it once, on its first call.
_parser = cache(build_parser)


@cache
def _commands() -> dict:
    """The one parser's command parsers, by name."""
    return next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as ``_parser().parse_args(argv)`` parses it.  A line that
    starts with a command goes straight to that command's parser, which the full
    parser would hand it to; any other line, or one that leaves arguments over,
    goes through the full parser, the one that prints rpr3's own usage."""
    command = _commands().get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return _parser().parse_args(argv)


def _finite_float(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_in(low: int, high: float = math.inf):
    """argparse type: an integer from ``low`` to ``high``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if not low <= value <= high:
            limit = f">= {low}" if value < low else f"<= {high}"
            raise argparse.ArgumentTypeError(f"expected an integer {limit}, got {text!r}")
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
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "deg", False):
        # Handlers see radians; sweep axes, 'lo:hi:n' strings, convert in _parse_axis.
        for name in ("phi", "t1", "t2", "t3"):
            value = getattr(args, name, None)
            if isinstance(value, float):
                setattr(args, name, math.radians(value))
    try:
        geom = _geometry_from_env()
    except (OSError, GeometryError) as exc:
        print(f"rpr3: geometry error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        # Looked up per call, not bound when the parser is built.
        code, fields = globals()[f"_cmd_{args.command}"](args, geom)
    except (_UsageError, GeometryError) as exc:
        # A GeometryError is a value out of floating-point range, e.g. a leg
        # length that overflows; the input is unusable as given.
        print(f"rpr3: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LegAtAnchorError as exc:
        print(f"rpr3: serial singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except Rpr3Error as exc:
        # Every other library error is a singular or degenerate input.
        print(f"rpr3: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except OSError as exc:
        print(f"rpr3: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    header = {"schema": 1, "command": args.command, "scale": geom.scale}
    try:
        if sys.stdout is None:  # fd 1 was closed when Python started
            raise OSError("stdout is closed")
        print(json.dumps({**header, **fields}, indent=2), flush=True)
    except OSError as exc:
        if sys.stdout is not None:  # EPIPE or ENOSPC: no flush at exit may fail again
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"rpr3: i/o error: stdout: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


def _geometry_from_env() -> ManipulatorGeometry:
    path = os.environ.get("RPR_GEOMETRY")
    if not path:
        return DEFAULT_GEOMETRY
    return load_geometry(path)


def _out_angle(value: float, deg: bool) -> float:
    return math.degrees(value) if deg else value


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


def _cmd_ik(args, geom: ManipulatorGeometry) -> tuple[int, dict]:
    pose = Pose(args.x, args.y, args.phi)
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
    return EXIT_OK, {"pose": _pose_payload(pose, args.deg), "solutions": solutions}


def _parse_branch(text: str):
    if len(text) != 3 or any(c not in "01" for c in text):
        raise _UsageError(
            f"--branch must be three binary digits or 'all', got {text!r}"
        )
    return tuple(int(c) for c in text)


def _cmd_dk(args, geom: ManipulatorGeometry) -> tuple[int, dict]:
    # Solved and reported in (-pi, pi]: the reduction works on angle
    # differences, which lose a small angle next to a huge one.
    theta = JointAngles(args.t1, args.t2, args.t3).as_tuple()
    routes = {}
    if args.method in ("closed", "both"):
        routes["closed"] = direct_kinematics(theta, geometry=geom)
    if args.method in ("geometric", "both"):
        routes["geometric"] = geometric_dkp(theta, geometry=geom)

    primary = routes.get("closed") or routes["geometric"]
    payload = {
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
            routes["closed"].poses, routes["geometric"].poses, geom
        )
        kinds_match = routes["closed"].kind is routes["geometric"].kind
        payload["agreement"] = {
            "kinds_match": kinds_match,
            "max_pose_deviation": deviation,
        }
        if not kinds_match or not (deviation <= POSE_TOL):
            print(
                "rpr3: dk routes disagree "
                f"(kinds {routes['closed'].kind.value} vs "
                f"{routes['geometric'].kind.value}, deviation {deviation:.3e})",
                file=sys.stderr,
            )
            return EXIT_VERIFY, payload
    return EXIT_OK, payload


def _cmd_singularity(args, geom: ManipulatorGeometry) -> tuple[int, dict]:
    pose = Pose(args.x, args.y, args.phi)
    given = [args.t1, args.t2, args.t3]
    if any(t is not None for t in given):
        if any(t is None for t in given):
            raise _UsageError("provide all of --t1 --t2 --t3 or none")
        theta = tuple(given)
    else:
        sol = inverse_kinematics(pose, branch=_parse_branch(args.branch), geometry=geom)
        theta = sol.angles
    mats = build_matrices(pose, theta, geometry=geom)
    payload = {
        "pose": _pose_payload(pose, args.deg),
        "theta": [_out_angle(t, args.deg) for t in theta],
        "a_matrix": [[float(v) for v in row] for row in mats.a_matrix],
        "b_diagonal": [float(mats.b_matrix[i, i]) for i in range(3)],
    }
    payload.update(_singularity_payload(pose, theta, geom))
    return EXIT_OK, payload


def _cmd_trace(args, geom: ManipulatorGeometry) -> tuple[int, dict]:
    curve = trace.run(args.t1, args.t2, args.samples, args.deg, args.csv, args.svg, geom)
    t1, t2 = curve.theta1, curve.theta2
    payload = {
        "theta1": _out_angle(t1, args.deg),
        "theta2": _out_angle(t2, args.deg),
        "samples": args.samples,
        "degenerate": curve.degenerate,
        "csv": args.csv,
        "svg": args.svg,
        "segment": None,
    }
    if curve.degenerate:
        end_a, end_b = curve.segment
        payload["segment"] = {
            "endpoints": [[end_a.x, end_a.y], [end_b.x, end_b.y]],
            "length": math.hypot(end_b.x - end_a.x, end_b.y - end_a.y),
        }
        # A straight-line curve means the legs are one third-turn apart, so
        # the Reuleaux family applies; complete the triple accordingly.
        t3 = normalize_angle(t1 - _REULEAUX_GAP)
        desc = reuleaux_descriptor((t1, t2, t3), geometry=geom)
        payload["reuleaux"] = {
            "theta3": _out_angle(t3, args.deg),
            **_reuleaux_payload(desc),
        }
    return EXIT_OK, payload


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
    if name in sweep.ANGLE_AXES and deg:
        values = np.radians(values)
    # Checked after the unit change, which can merge ends a few ulp apart.
    if len(values) > 1 and values[0] == values[-1]:
        raise _UsageError(f"--{name}: range needs lo != hi, got {text!r}")
    return values


def _cmd_sweep(args, geom: ManipulatorGeometry) -> tuple[int, dict]:
    axes = [_parse_axis(name, getattr(args, name), args.deg) for name in sweep.AXES[args.space]]
    if args.svg and sum(len(a) > 1 for a in axes) != 2:
        raise _UsageError("--svg requires exactly two swept axes")
    if args.svg and max(map(len, axes)) > MAX_SVG_AXIS_POINTS:
        raise _UsageError(f"--svg: a swept axis has at most {MAX_SVG_AXIS_POINTS} samples")
    if math.prod(len(a) for a in axes) > MAX_GRID_POINTS:
        raise _UsageError(f"a sweep grid has at most {MAX_GRID_POINTS} points")
    rows = sweep.run(args.space, axes, args.deg, args.csv, args.svg, geom)
    return EXIT_OK, {"space": args.space, "rows": rows, "csv": args.csv, "svg": args.svg}


# ----------------------------------------------------------------- verify


def _cmd_verify(args, geom: ManipulatorGeometry) -> tuple[int, dict]:
    failures, fields = verify.run(args.scope, args.trials, args.seed, args.csv, geom)
    for line in failures:
        print(f"rpr3: FAIL {line}", file=sys.stderr)
    return (EXIT_VERIFY if failures else EXIT_OK), fields


if __name__ == "__main__":
    sys.exit(main())
