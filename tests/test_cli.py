"""End-to-end workbench behavior: flags, artifacts, exit codes."""

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rpr3 import cli, coupler, jacobians, oracle, solvers, sweep, trace, verify
from rpr3.cli import main
from rpr3.errors import SingularNearbyError
from rpr3.geometry import (
    DEFAULT_GEOMETRY,
    POSE_TOL,
    ManipulatorGeometry,
    Pose,
    _place_anchors,
    normalize_angle,
)
from rpr3.coupler import _cycle_grid
from rpr3.oracle import ScanReport, dkp_bruteforce, jacobian_cs_check
from rpr3.solvers import inverse_kinematics
import _reference
from _reference import curves_draws, jacobian_fd_check
from trend import REULEAUX_DK_ARGV, count_calls

PI3 = math.pi / 3.0
SQRT3 = math.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """Parse RFC 8259 JSON: NaN and Infinity are not numbers there."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = strict_json(out)
    assert payload["schema"] == 1
    assert payload["command"] == argv[0]
    return payload


# ------------------------------------------------------------------- ik


def test_ik_single_branch(capsys):
    payload = run_json(
        capsys, "ik", "--x", "0.5", "--y", str(SQRT3 / 6.0), "--phi", "0", "--branch", "000"
    )
    (solution,) = payload["solutions"]
    assert solution["branch"] == "000"
    legs = solution["legs"]
    assert abs(legs[0]["theta"] - math.pi / 6.0) < 1e-12
    for leg in legs:
        assert abs(leg["rho"] - SQRT3 / 3.0) < 1e-12
        assert leg["signed_rho"] == leg["rho"]


def test_ik_all_branches(capsys):
    payload = run_json(capsys, "ik", "--x", "0.3", "--y", "0.2", "--phi", "0.1")
    assert [s["branch"] for s in payload["solutions"]] == [
        "000", "001", "010", "011", "100", "101", "110", "111",
    ]
    flipped = payload["solutions"][4]["legs"][0]
    assert flipped["signed_rho"] == -flipped["rho"]


def test_ik_at_base_anchor_is_serial_exit(capsys):
    code, out, err = run(capsys, "ik", "--x", "0", "--y", "0", "--phi", "0")
    assert code == 2
    assert "serial singularity" in err


def test_ik_bad_branch_is_usage_error(capsys):
    code, _, err = run(capsys, "ik", "--x", "0.3", "--y", "0.2", "--phi", "0.1", "--branch", "02x")
    assert code == 1
    assert "branch" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "dk", "--t1", "0.2")
    assert code == 1


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("ik", "--x", "inf", "--y", "0.2", "--phi", "0.1"),
        ("ik", "--x", "0.3", "--y", "nan", "--phi", "0.1"),
        ("dk", "--t1", "nan", "--t2", "0.9", "--t3", "2.0"),
        ("singularity", "--x", "0.3", "--y", "0.2", "--phi=-inf"),
        ("singularity", "--x", "0.3", "--y", "0.2", "--phi", "0.1", "--t1", "0", "--t2", "0", "--t3", "inf"),
        ("trace", "--t1", "nan", "--t2", "0.9", "--csv", "unused.csv"),
    ],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "expected a finite number" in err.splitlines()[-1]


@pytest.mark.parametrize("command", ["ik", "singularity", "sweep"])
def test_overflowing_leg_length_is_usage_error(tmp_path, capsys, command):
    # Leg 1's length hypot(1.7e308, 1.7e308) overflows to inf.
    page = ("--space", "cartesian", "--csv", str(tmp_path / "x.csv"))
    extra = page if command == "sweep" else ()
    code, out, err = run(capsys, command, "--x", "1.7e308", "--y", "1.7e308", "--phi", "0", *extra)
    assert code == 1
    assert out == ""
    assert err == "rpr3: rho must be finite, got inf\n"


# ------------------------------------------------------------------- dk


def test_dk_generic(capsys):
    payload = run_json(capsys, "dk", "--t1", "0.2", "--t2", "0.9", "--t3", "2.0")
    assert payload["kind"] == "TwoSolutions"
    assert not payload["coincident"]
    assert len(payload["poses"]) == 2
    second = payload["poses"][1]
    assert abs(second["x"] - 0.21747642064358774) < 1e-12
    assert abs(second["phi"] + 1.5466059373284926) < 1e-12
    assert second["singularity"]["kind"] == "Regular"
    assert payload["poses"][0]["singularity"]["kind"] == "Serial"


def test_dk_both_methods_agree(capsys):
    payload = run_json(
        capsys, "dk", "--t1", "0.2", "--t2", "0.9", "--t3", "2.0", "--method", "both"
    )
    agreement = payload["agreement"]
    assert agreement["kinds_match"]
    assert agreement["max_pose_deviation"] < 1e-7


def test_dk_reuleaux_with_printed_constants(capsys):
    # the both route must also agree on the continuum classification
    payload = run_json(
        capsys,
        "dk", "--t1", "0", "--t2", "1.04719755", "--t3=-1.04719755", "--method", "both",
    )
    assert payload["kind"] == "ContinuumReuleaux"
    reuleaux = payload["reuleaux"]
    assert abs(reuleaux["p_line"]["length"] - 2.0) < 1e-6
    assert abs(reuleaux["a_displacement_magnitude"] - 4.0 * SQRT3 / 3.0) < 1e-6
    assert payload["continuum"]["direction"] == [1.0, 0.0]


# Python calls in rpr3 of the cross-check benchmark's Reuleaux dk line,
# counted by trend.count_calls as CPython 3.11 counts them; its pose is
# parallel singular, so its report meets one pair of normal lines.
REULEAUX_DK_CALL_BUDGET = 122


def test_the_reuleaux_dk_line_stays_within_its_call_budget(capsys):
    payload = run_json(capsys, *REULEAUX_DK_ARGV)
    assert payload["kind"] == "ContinuumReuleaux" and payload["poses"]
    for pose in payload["poses"]:
        assert pose["singularity"]["kind"] in ("Parallel", "Both")
        assert pose["singularity"]["intersection_point"] is not None
    with contextlib.redirect_stdout(io.StringIO()):
        calls = sum(count_calls(partial(main, REULEAUX_DK_ARGV)).values())
    assert calls <= REULEAUX_DK_CALL_BUDGET, (
        f"{calls} Python calls in rpr3 per Reuleaux dk line, budget {REULEAUX_DK_CALL_BUDGET}"
    )


@pytest.mark.parametrize("flip", [0.0, -math.pi])
@pytest.mark.parametrize("delta", [-6e-9, 6e-9, 1e-8, 2e-8, 1e-7, 3e-7])
def test_dk_routes_agree_just_off_the_reuleaux_predicate(capsys, delta, flip):
    # Outside DEGENERACY_ANGLE_TOL but with m^2 + n^2 below
    # REDUCTION_NULL_TOL, where the coupler curve is a straight segment next
    # to leg 3's axis: both routes report the closed form's DEGENERATE.
    theta = (0.3, 0.3 + PI3 + flip, 0.3 - PI3 + delta)
    argv = [f"--t{i}={t!r}" for i, t in enumerate(theta, start=1)]
    payload = run_json(capsys, "dk", *argv, "--method", "both")
    assert payload["kind"] == "Degenerate"
    assert payload["agreement"] == {"kinds_match": True, "max_pose_deviation": 0.0}


@pytest.mark.parametrize("turn", [0.0, math.pi])
def test_dk_both_solves_parallel_legs_1_and_2(capsys, turn):
    # Legs 1 and 2 have no coupler curve: the curve route relabels the legs
    # so that its table's pair is the one the pose is solved through, (2, 3)
    # on this tie with (3, 1).
    argv = ["--t1", "0.3", "--t2", repr(0.3 + turn), "--t3", "1.0", "--method", "both"]
    payload = run_json(capsys, "dk", *argv)
    assert payload["kind"] == "TwoSolutions" and len(payload["poses"]) == 2
    assert payload["agreement"]["kinds_match"] is True
    assert payload["agreement"]["max_pose_deviation"] <= 1e-12


@pytest.mark.parametrize("turn", [0.0, math.pi])
def test_dk_both_calls_parallel_legs_1_and_2_with_a_null_reduction_degenerate(capsys, turn):
    # m^2 + n^2 = 4e-14 off the translation predicate: the curve route
    # applies the closed form's DEGENERATE rule before it needs a curve.
    argv = ["--t1", "0.3", "--t2", repr(0.3 + turn), "--t3", repr(0.3 + 1e-7)]
    payload = run_json(capsys, "dk", *argv, "--method", "both")
    assert payload["kind"] == "Degenerate"
    assert payload["agreement"] == {"kinds_match": True, "max_pose_deviation": 0.0}


def _moved_second_pose(theta, geometry):
    """The closed form's result with its second pose moved 1e-6 of the scale."""
    closed = solvers.direct_kinematics(theta, geometry=geometry)
    first, second = closed.poses
    moved = Pose(second.x + 1e-6 * geometry.scale, second.y, second.phi)
    return dataclasses.replace(closed, poses=(first, moved))


def _other_kind(theta, geometry):
    closed = solvers.direct_kinematics(theta, geometry=geometry)
    return dataclasses.replace(closed, kind=solvers.DkKind.DEGENERATE, poses=closed.poses[:1])


@pytest.mark.parametrize(
    "fake, kinds_match",
    [(_moved_second_pose, True), (_other_kind, False)],
)
def test_dk_both_exits_4_when_the_routes_disagree(capsys, monkeypatch, fake, kinds_match):
    monkeypatch.setattr(cli, "geometric_dkp", fake)
    code, out, err = run(capsys, "dk", "--t1", "0.2", "--t2", "0.9", "--t3", "2.0", "--method", "both")
    assert code == 4
    (line,) = err.splitlines()
    assert line.startswith("rpr3: dk routes disagree ")
    agreement = strict_json(out)["agreement"]
    assert agreement["kinds_match"] is kinds_match
    assert agreement["max_pose_deviation"] > POSE_TOL


def test_dk_translation_continuum(capsys):
    payload = run_json(capsys, "dk", "--t1", "0.7", "--t2", "0.7", "--t3", "0.7")
    assert payload["kind"] == "ContinuumTranslation"
    direction = payload["continuum"]["direction"]
    assert abs(direction[0] - math.cos(0.7)) < 1e-12
    assert abs(direction[1] - math.sin(0.7)) < 1e-12
    assert payload["poses"][0]["singularity"]["translation_case"]


@pytest.mark.parametrize(
    "raw",
    [("1e12", "0", "0.3"), ("1e16", "0.5", "0.3"), ("4.0", "-7.5", "0.3")],
)
def test_dk_normalizes_angles_before_solving(capsys, raw):
    # Unreduced, t3 - t1 loses the small angle next to a huge one and the
    # pose fails the consistency gate of the singularity report.
    payload = run_json(capsys, "dk", "--t1", raw[0], "--t2", raw[1], "--t3", raw[2])
    folded = [repr(math.remainder(float(v), math.tau)) for v in raw]
    reference = run_json(capsys, "dk", "--t1", folded[0], "--t2", folded[1], "--t3", folded[2])
    assert payload["theta"] == reference["theta"]
    assert payload["poses"] == reference["poses"]
    assert payload["kind"] == reference["kind"] == "TwoSolutions"


def test_dk_in_degrees(capsys):
    payload = run_json(
        capsys, "dk", "--t1", "0", "--t2", "60", "--t3=-60", "--deg"
    )
    assert payload["kind"] == "ContinuumReuleaux"
    # the rad->deg round trip is only exact to the last ulp
    assert payload["theta"] == pytest.approx([0.0, 60.0, -60.0], abs=1e-12)


def _angles_to_degrees(doc):
    """A document's angle fields through math.degrees, as --deg reports them."""
    deg = math.degrees
    if "pose" in doc:
        doc["pose"]["phi"] = deg(doc["pose"]["phi"])
    if "theta" in doc:
        doc["theta"] = [deg(t) for t in doc["theta"]]
    for solution in doc.get("solutions", ()):
        for leg in solution["legs"]:
            leg["theta"] = deg(leg["theta"])
    for pose in doc.get("poses", ()):
        pose["phi"] = deg(pose["phi"])
    for key in ("theta1", "theta2"):
        if key in doc:
            doc[key] = deg(doc[key])
    if "theta3" in (doc.get("reuleaux") or {}):
        doc["reuleaux"]["theta3"] = deg(doc["reuleaux"]["theta3"])
    return doc


@pytest.mark.parametrize(
    "command, lengths, angles",
    [
        ("ik", ("--x", "0.3", "--y", "0.2"), (("--phi", 20.0),)),
        ("dk", ("--method", "both"), (("--t1", 10.0), ("--t2", 50.0), ("--t3", 120.0))),
        ("dk", (), (("--t1", 0.0), ("--t2", 60.0), ("--t3", -60.0))),
        ("singularity", ("--x", "0.3", "--y", "0.2"), (("--phi", 20.0),)),
        (
            "singularity",
            ("--x", "0", "--y", "0"),
            (("--phi", 0.0), ("--t1", 10.0), ("--t2", 50.0), ("--t3", 120.0)),
        ),
        ("trace", ("--samples", "16"), (("--t1", 20.0), ("--t2", 75.0))),
        ("trace", ("--samples", "16"), (("--t1", 10.0), ("--t2", 70.0))),
    ],
)
def test_deg_converts_angle_flags_once_at_the_boundary(tmp_path, capsys, command, lengths, angles):
    # A --deg run is the radian run on math.radians of its angles, with each
    # angle of the document through math.degrees, bit for bit.
    if command == "trace":
        lengths += ("--csv", str(tmp_path / "curve.csv"))
    in_degrees = run_json(
        capsys, command, *lengths, *(f"{flag}={value!r}" for flag, value in angles), "--deg"
    )
    in_radians = run_json(
        capsys, command, *lengths,
        *(f"{flag}={math.radians(value)!r}" for flag, value in angles),
    )
    # Compared as text, which tells -0.0 from 0.0.
    assert json.dumps(in_degrees) == json.dumps(_angles_to_degrees(in_radians))


# ------------------------------------------------------------ singularity


def test_singularity_with_explicit_angles(capsys):
    payload = run_json(
        capsys,
        "singularity", "--x", "0", "--y", "0", "--phi", "0",
        "--t1", "0.5", "--t2", "0.5", "--t3", "0.5",
    )
    assert payload["kind"] == "Both"
    assert payload["translation_case"]
    assert payload["zero_rho_legs"] == [1, 2, 3]
    assert payload["det_a"] == 0.0
    assert len(payload["a_matrix"]) == 3


def test_singularity_via_ik_branch(capsys):
    payload = run_json(
        capsys, "singularity", "--x", "0.3", "--y", "0.2", "--phi", "0.1"
    )
    assert payload["kind"] == "Regular"
    assert payload["zero_rho_legs"] == []


def test_singularity_rejects_inconsistent_input(capsys):
    code, _, err = run(
        capsys,
        "singularity", "--x", "0.5", "--y", "0", "--phi", "0",
        "--t1", "1.5707963267948966", "--t2", "0.9", "--t3", "2.0",
    )
    assert code == 2
    assert "residual" in err.lower() or "inconsistent" in err.lower()


def test_singularity_gate_is_relative_to_the_pose(capsys):
    # IK round-off in a residual grows with the pose: angles from IK of a far
    # pose are consistent with it, while wrong angles there still fail.
    pose = ("--x", "1e11", "--y", "1e11", "--phi", "60", "--deg")
    code, _, err = run(capsys, "singularity", *pose)
    assert code == 0, err
    code, _, err = run(capsys, "singularity", *pose, "--t1", "10", "--t2", "20", "--t3", "30")
    assert code == 2
    assert len(err.splitlines()) == 1 and "residual" in err


def test_singularity_rejects_pose_whose_det_b_overflows(capsys):
    # rho1 * rho2 * rho3 leaves the float range beyond about 5e102; such a
    # pose is an unusable input, not a report holding det_b = Infinity.
    code, out, err = run(capsys, "singularity", "--x", "1e150", "--y", "3", "--phi", "1")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "det B overflows" in err
    payload = run_json(capsys, "singularity", "--x", "1e100", "--y", "3", "--phi", "1")
    assert math.isfinite(payload["det_b"])


def test_singularity_partial_angles_is_usage_error(capsys):
    code, _, _ = run(
        capsys, "singularity", "--x", "0.3", "--y", "0.2", "--phi", "0.1", "--t1", "0.5"
    )
    assert code == 1


# ----------------------------------------------------------------- trace


def test_trace_writes_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    payload = run_json(
        capsys,
        "trace", "--t1", "0.2", "--t2", "0.9",
        "--csv", str(csv_path), "--svg", str(svg_path),
    )
    assert not payload["degenerate"]
    assert payload["segment"] is None
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "theta1,theta2,phi,x,y,rho1,rho2,scale"
    assert len(lines) == 1 + 720
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"1"}
    svg = svg_path.read_text()
    assert svg.startswith("<?xml")
    assert 'viewBox="-1.5 -2.5 4 4"' in svg
    assert "polyline" in svg


@pytest.mark.parametrize("samples, stride", [(4000, 1), (10001, 3)])
def test_trace_svg_draws_at_most_the_vertex_cap(tmp_path, capsys, samples, stride):
    # The CSV keeps every sample; the figure draws every k-th, k the least
    # stride that fits the cap, and ends on the last.
    csv_path, svg_path = tmp_path / "curve.csv", tmp_path / "curve.svg"
    argv = ("--t1", "0.2", "--t2", "0.9", "--samples", str(samples))
    run_json(capsys, "trace", *argv, "--csv", str(csv_path), "--svg", str(svg_path))
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == samples
    # The curve is the figure's one polyline, its y flipped as SVG draws it.
    svg = svg_path.read_text()
    (drawn,) = [part.split('"')[0].split() for part in svg.split('<polyline points="')[1:]]
    want = [f"{float(x):.10g},{-float(y):.10g}" for _, _, _, x, y, *_ in rows]
    assert drawn == want[:-1:stride] + want[-1:]
    assert len(drawn) <= cli.MAX_SVG_AXIS_POINTS
    if stride > 1:
        assert len(want[:-1:stride - 1]) + 1 > cli.MAX_SVG_AXIS_POINTS


def test_trace_writes_positive_zero_extensions_at_identity(tmp_path, capsys):
    # Leg 2's pair (a, b) is negative here, and a·0 + b·0 alone is -0.0.
    csv_path = tmp_path / "z.csv"
    run_json(
        capsys,
        "trace", "--t1", "0.2", "--t2=-2.5", "--samples", "8", "--csv", str(csv_path),
    )
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert [row[5:7] for row in rows if row[2] == "0"] == [["0", "0"]]


def test_trace_degenerate_prints_descriptor(tmp_path, capsys):
    csv_path = tmp_path / "segment.csv"
    payload = run_json(
        capsys,
        "trace", "--t1", "0", "--t2", str(PI3), "--csv", str(csv_path),
    )
    assert payload["degenerate"]
    assert abs(payload["segment"]["length"] - 4.0 * SQRT3 / 3.0) < 1e-3
    assert abs(payload["reuleaux"]["p_line"]["length"] - 2.0) < 1e-6
    assert abs(payload["reuleaux"]["theta3"] + PI3) < 1e-12


@pytest.mark.parametrize("offset", [3e-9, -3e-9, 3e-9 - math.pi])
def test_trace_inside_the_predicate_band_is_degenerate(tmp_path, capsys, offset):
    # The samples bow off a line by about 3e-9 of the scale here, yet the
    # angle predicate dk classifies by calls the completed triple Reuleaux.
    t2 = 0.3 + PI3 + offset
    payload = run_json(
        capsys, "trace", "--t1", "0.3", "--t2", repr(t2), "--csv", str(tmp_path / "t.csv")
    )
    assert payload["degenerate"]
    assert payload["segment"] is not None
    theta3 = payload["reuleaux"]["theta3"]
    dk = run_json(capsys, "dk", "--t1", "0.3", "--t2", repr(t2), "--t3", repr(theta3))
    assert dk["kind"] == "ContinuumReuleaux"


@pytest.mark.parametrize("t1", [-2.5, -1.04, 0.3, 1.9])
def test_trace_at_the_band_edge_is_degenerate_as_dk_classifies_it(tmp_path, capsys, t1):
    # Offsets a few ulps inside the 5e-9 band: there rounding decides whether
    # the completed triple (t1, t2, t1 - pi/3) is the straight line, and the
    # trace asks that very rule, so its Reuleaux block never fails to build.
    csv_path = str(tmp_path / "t.csv")
    for k in range(6, 16):
        for sign in (1.0, -1.0):
            t2 = t1 + PI3 + sign * solvers.DEGENERACY_ANGLE_TOL * (1.0 - 10.0**-k)
            code, out, err = run(
                capsys, "trace", "--t1", repr(t1), "--t2", repr(t2), "--samples", "8",
                "--csv", csv_path,
            )
            assert code == 0, (t2, err)
            theta = (normalize_angle(t1), normalize_angle(t2), normalize_angle(t1 - PI3))
            kind = solvers.classify_dk_degeneracy(theta)
            degenerate = strict_json(out)["degenerate"]
            assert degenerate == (kind is solvers.DkKind.CONTINUUM_REULEAUX), t2


def test_trace_rejects_parallel_sliders(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "trace", "--t1", "0.4", "--t2", str(0.4 + math.pi),
        "--csv", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_trace_needs_enough_samples(capsys, tmp_path):
    code, _, _ = run(
        capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--samples", "2",
        "--csv", str(tmp_path / "x.csv"),
    )
    assert code == 1


def test_trace_samples_below_curve_minimum_is_usage_error(capsys, tmp_path):
    csv_path = tmp_path / "x.csv"
    argv = ("trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path))
    code, _, err = run(capsys, *argv, "--samples", "5")
    assert code == 1
    assert ">= 8" in err.splitlines()[-1]
    assert not csv_path.exists()
    payload = run_json(capsys, *argv, "--samples", "8")
    assert payload["samples"] == 8


def test_trace_io_error(capsys, tmp_path):
    code, _, _ = run(
        capsys,
        "trace", "--t1", "0.2", "--t2", "0.9",
        "--csv", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 3


# ----------------------------------------------------------------- sweep


def test_sweep_joint_grid(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    payload = run_json(
        capsys,
        "sweep", "--space", "joint",
        "--t1=-1:1:5", "--t2", "0.9", "--t3=-1:1:4",
        "--csv", str(csv_path),
    )
    assert payload["rows"] == 20
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "theta1,theta2,theta3,x,y,phi,detA,detB,kind"
    assert len(lines) == 21
    # identity-pose rows: detB is exactly zero everywhere in joint space
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[7] == "0"
        assert fields[8] in ("TwoSolutions", "Degenerate", "ContinuumTranslation", "ContinuumReuleaux")


def test_sweep_diagonal_has_singular_determinant(tmp_path, capsys):
    csv_path = tmp_path / "diag.csv"
    run_json(
        capsys,
        "sweep", "--space", "joint",
        "--t1", "0.7", "--t2", "0.7", "--t3", "0.7",
        "--csv", str(csv_path),
    )
    line = csv_path.read_text().splitlines()[1].split(",")
    assert abs(float(line[6])) < 1e-9
    assert line[8] == "ContinuumTranslation"


def test_sweep_cartesian_with_anchor_hit(tmp_path, capsys):
    csv_path = tmp_path / "cart.csv"
    payload = run_json(
        capsys,
        "sweep", "--space", "cartesian",
        "--x", "0:1:3", "--y", "0", "--phi", "0",
        "--csv", str(csv_path),
    )
    assert payload["rows"] == 3
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    # (0,0,0) puts the tracked vertex on its own base anchor: angles undefined
    assert rows[0][0] == "nan"
    assert rows[0][8] == "Serial"
    # any pose (x, 0, 0) with x > 0 has all three legs horizontal
    assert rows[1][8] == "Parallel"
    assert rows[2][8] == "Parallel"


def test_sweep_svg_draws_the_locus_as_polylines(tmp_path, capsys):
    csv_path = tmp_path / "field.csv"
    svg_path = tmp_path / "field.svg"
    run_json(
        capsys,
        "sweep", "--space", "joint",
        "--t1=-3:3:15", "--t2=-3:3:15", "--t3", "0.7",
        "--csv", str(csv_path), "--svg", str(svg_path),
    )
    svg = svg_path.read_text()
    # One red polyline per piece of the exact locus, and no marching-squares line.
    axes = [np.linspace(-3.0, 3.0, 15), np.linspace(-3.0, 3.0, 15), np.array([0.7])]
    pieces = sweep._sweep_locus(True, axes, DEFAULT_GEOMETRY)
    assert svg.count('stroke="#c02020"') == len(pieces) > 0
    assert "<line" not in svg
    assert csv_path.exists()


def test_sweep_has_no_quantity_option(tmp_path, capsys):
    code, out, err = run(
        capsys,
        "sweep", "--space", "joint", "--t1=-3:3:15", "--t2=-3:3:15", "--t3", "0.7",
        "--csv", str(tmp_path / "x.csv"), "--svg", str(tmp_path / "x.svg"), "--quantity", "detA",
    )
    assert code == 1 and out == ""
    assert "unrecognized arguments: --quantity" in err and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_sweep_svg_needs_two_swept_axes(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "sweep", "--space", "joint",
        "--t1=-3:3:15", "--t2", "0.9", "--t3", "0.7",
        "--csv", str(tmp_path / "x.csv"), "--svg", str(tmp_path / "x.svg"),
    )
    assert code == 1
    assert "swept" in err


def test_sweep_axis_spec_errors(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "sweep", "--space", "joint", "--t1", "1:2", "--t2", "0", "--t3", "0",
        "--csv", str(tmp_path / "x.csv"),
    )
    assert code == 1
    code, _, _ = run(
        capsys,
        "sweep", "--space", "joint", "--t2", "0", "--t3", "0",
        "--csv", str(tmp_path / "x.csv"),
    )
    assert code == 1


@pytest.mark.parametrize(
    "axes",
    [
        ("--x=nan:1:3", "--y=0:1:3", "--phi=0"),
        ("--x=0:1:3", "--y=0:1:3", "--phi", "inf"),
        ("--x=0:inf:3", "--y=0", "--phi=0"),
        ("--x=-1e308:1e308:3", "--y=0", "--phi=0"),
    ],
)
def test_sweep_rejects_non_finite_axis_values(tmp_path, capsys, axes):
    csv_path = tmp_path / "x.csv"
    code, out, err = run(
        capsys, "sweep", "--space", "cartesian", *axes, "--csv", str(csv_path)
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "must be finite" in err
    assert not csv_path.exists()


def test_sweep_rejects_zero_width_range(tmp_path, capsys):
    svg_path = tmp_path / "x.svg"
    code, _, err = run(
        capsys,
        "sweep", "--space", "joint", "--t1=0:0:3", "--t2=0:1:3", "--t3", "0.5",
        "--csv", str(tmp_path / "x.csv"), "--svg", str(svg_path),
    )
    assert code == 1
    assert len(err.splitlines()) == 1 and "lo != hi" in err
    assert not svg_path.exists()


def test_sweep_gate_is_relative_to_the_pose(tmp_path, capsys):
    payload = run_json(
        capsys,
        "sweep", "--space", "cartesian", "--x=1e11:2e11:3", "--y=1e11", "--phi=1",
        "--csv", str(tmp_path / "far.csv"),
    )
    assert payload["rows"] == 3


def test_sweep_rejects_poses_whose_det_b_overflows(tmp_path, capsys):
    csv_path = tmp_path / "far.csv"
    code, out, err = run(
        capsys,
        "sweep", "--space", "cartesian", "--x=1e150:2e150:3", "--y=0", "--phi=1",
        "--csv", str(csv_path),
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "det B overflows at x=1e+150" in err
    assert not csv_path.exists()


def test_sweep_rejects_an_overflowing_anchor_like_singularity(tmp_path, capsys, monkeypatch):
    # At the largest scale the leg offsets of a pose at the float range's
    # corner stay finite, but leg 1's length, their hypot, leaves the range.
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": 1e100}))
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    x = "1.7976931348623157e308"
    code, out, single = run(capsys, "singularity", "--x", x, "--y", x, "--phi", "0")
    assert (code, out) == (1, "")
    csv_path = tmp_path / "far.csv"
    code, out, err = run(
        capsys,
        "sweep", "--space", "cartesian", f"--x={x}", f"--y={x}", "--phi=0:1:2",
        "--csv", str(csv_path),
    )
    assert (code, out) == (1, "")
    assert err == single == "rpr3: rho must be finite, got inf\n"
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "space, axes",
    [
        # One axis over the cap: rejected before its values are allocated.
        ("cartesian", ("--x=0:1:1000000000", "--y=0", "--phi=0")),
        ("joint", ("--t1=0", "--t2=0", "--t3=-1:1:1000001")),
        # Small axes whose product is over the cap: rejected before meshgrid.
        ("joint", ("--t1=0:1:101", "--t2=0:1:101", "--t3=0:1:101")),
        ("cartesian", ("--x=0:1:1001", "--y=0:1:1000", "--phi=0")),
    ],
)
def test_sweep_rejects_grids_over_the_cap(tmp_path, capsys, space, axes):
    csv_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sweep", "--space", space, *axes, "--csv", str(csv_path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "1000000 points" in err
    assert not csv_path.exists()


# sha256 of the artifacts the per-point sweep loop wrote for the first two
# pages, before the sweep moved onto the array kernels, and of the pages the
# csv.writer and per-cell contour loops wrote for the rest, before the
# writers moved onto arrays and before write_csv formatted each distinct bit
# pattern of a row block once; no rewrite may change a byte.  Each entry is
# (space, axes and flags, RPR_GEOMETRY scale, rows, CSV digest, SVG digest
# or None for a CSV-only page).  The cartesian pages include the anchor hit
# at (0, 0).  The CSV digests were re-captured when det A became the
# two-term cofactor expansion: only the detA column moved, by at most
# 4.5e-16 times the scale.  The SVG digests were re-captured when the pages
# began to draw the exact singularity loci in place of marching squares
# (tests/test_loci.py checks those loci); cartesian-wide was the
# cartesian-detB page, whose --quantity flag went with that change.  The
# last four, captured when the page moved out of the CLI, pin the locus
# branches the others miss: phi swept against x (6 polylines) and, in
# degrees at scale 1.7, against y (5), the fixed position 0 where one root
# is a1 at every phi (2), and the phi = 0 page that draws no curve.  The
# SVG digests were re-captured when the second axis label moved inside the
# view, after the in-view test passed: only the two labels' y moved (1.45
# and 1.6 became 1.38 and 1.47), and the new SVGs with the old y put back
# gave the old digests.
PINNED_SWEEPS = {
    "cartesian": (
        "cartesian",
        ("--x=-0.5:1.5:25", "--y=-0.5:1.5:25", "--phi=0.3"),
        None,
        625,
        "593ae2df28e47fd5d71320c05ba80326476513bf87375f0f8af2f28b63ae8577",
        "1f3f530974008a29bbbfb674d4ccc90597aac486cc332b3cf693d430ec54ac80",
    ),
    "joint": (
        "joint",
        (
            "--t1=-3.141592653589793:3.141592653589793:25",
            "--t2=-3.141592653589793:3.141592653589793:25",
            "--t3=0.7",
        ),
        None,
        625,
        "3f71ed99d8228a322ee7e6c19e3004dc65243f751eee2303029ca29536996977",
        "bd46869bf693750e00e2df74e37761cadb9c6cc9244331eccee1d8f2c39ecc8e",
    ),
    "joint-deg": (
        "joint",
        ("--deg", "--t1=-170:190:21", "--t2=-90:270:17", "--t3=40"),
        None,
        357,
        "a2f30f54a3120e7e29f02b81a2749c5331e19c112927235c07e68a505e07d5c9",
        "15ca07b9e3310c62a18e42defc5bfe18175576c73bccedad97ce804352ffeb40",
    ),
    "cartesian-wide": (
        "cartesian",
        ("--x=-1:2:23", "--y=-1:2:19", "--phi=-0.8"),
        None,
        437,
        "6de0cd88fb8e5e1dfe6331696608148eda0ed2bfcb95ced67afdcbeb51ea06d1",
        "08a3ed734b3dc3a0da7036980114f0e5ad8b8c726c0a68d55822946c3d527cc2",
    ),
    "cartesian-three-axes": (
        "cartesian",
        ("--x=0:1:5", "--y=0:1:5", "--phi=-3:3:5"),
        None,
        125,
        "e28c0e8dc50e76c60063cb2ac2e32b982fe03ee1739b402fff961eccb96c0638",
        None,
    ),
    "joint-101-scale2": (
        "joint",
        (
            "--t1=-3.141592653589793:3.141592653589793:101",
            "--t2=-3.141592653589793:3.141592653589793:101",
            "--t3=0.7",
        ),
        2.0,
        10201,
        "2aac77336728b72fbe5608d67fb06ec4aac079b0e180f6ee669fbc5ddeb64020",
        "1e55c632ebf6c8be7a839a93b3d48cdc3e5f81195fd5376e051cbe45583cfa5a",
    ),
    "cartesian-x-phi": (
        "cartesian",
        ("--x=-0.5:1.5:21", "--y=0.3", "--phi=-3:3:19"),
        None,
        399,
        "92feb5287ae4bb750b6bcfc8f59cd73e9bc9bb453f3661b47db8fd718be6b18c",
        "a2694daaa7fc41c3110b4bae5461bcba15c813b68c2445d99b2d2255a2eff311",
    ),
    "cartesian-y-phi-deg-scale1.7": (
        "cartesian",
        ("--deg", "--x=0.4", "--y=-0.5:1.5:17", "--phi=-170:170:23"),
        1.7,
        391,
        "7c35e35136cbf0edbec76a84118a34e7da0fa7cde5dc1f89ac4abe5739f7535e",
        "61ea22d51de2fb575e4d8b3bfd1fe4c93c1a7187640dbe1a9c52ffaa92ddaa91",
    ),
    "cartesian-x0-phi": (
        "cartesian",
        ("--x=0", "--y=-1:2:15", "--phi=-3:3:13"),
        None,
        195,
        "728161e71cc40c29c163ef1d05a120e06c974dac9756f5a8a31dab25768db491",
        "aebb9efd9d54e894d4b30aad281a4fb7a6c462dcf1f221c2823ce3c9c926cb99",
    ),
    "cartesian-phi0": (
        "cartesian",
        ("--x=-1:2:9", "--y=-1:2:9", "--phi=0"),
        None,
        81,
        "49e02658f0f346f544cc62777b8aae8348b07043e2c80c5928d05781dc0ee3ef",
        "5cc7301b01aa835f0b76d5bc1e09524e3d1fe26545d09c6fbac3f31b98039890",
    ),
}


def _check_pinned_page(tmp_path, capsys, monkeypatch, page):
    """Write ``page`` at tmp_path/page.csv and page.svg and check its pins."""
    space, axes, scale, rows, csv_digest, svg_digest = PINNED_SWEEPS[page]
    if scale is not None:
        geometry = tmp_path / "geometry.json"
        geometry.write_text(json.dumps({"scale": scale}))
        monkeypatch.setenv("RPR_GEOMETRY", str(geometry))
    csv_path = tmp_path / "page.csv"
    svg_path = tmp_path / "page.svg"
    svg_flags = ("--svg", str(svg_path)) if svg_digest else ()
    payload = run_json(
        capsys, "sweep", "--space", space, *axes, "--csv", str(csv_path), *svg_flags
    )
    assert payload["rows"] == rows
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_digest
    if svg_digest:
        assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == svg_digest
    else:
        assert not svg_path.exists()
    return csv_path, svg_path


@pytest.mark.parametrize("page", sorted(PINNED_SWEEPS))
def test_sweep_artifacts_are_pinned(tmp_path, capsys, monkeypatch, page):
    _check_pinned_page(tmp_path, capsys, monkeypatch, page)


def test_a_pinned_page_written_over_a_longer_page_keeps_its_digests(
    tmp_path, capsys, monkeypatch
):
    # The artifacts are rewritten in place: the longer page's tail is cut.
    longer = [p.stat().st_size for p in _check_pinned_page(tmp_path, capsys, monkeypatch, "joint")]
    paths = _check_pinned_page(tmp_path, capsys, monkeypatch, "cartesian-phi0")
    assert all(p.stat().st_size < size for p, size in zip(paths, longer))


def _outside_view(svg: str) -> list[tuple[float, float]]:
    """Each polyline or polygon vertex, line end, circle centre and text or
    rect anchor of ``svg`` outside its viewBox, in SVG coordinates."""
    x0, y0, width, height = map(float, re.search(r'viewBox="([^"]*)"', svg).group(1).split())
    pairs = [xy.split(",") for coords in re.findall(r' points="([^"]*)"', svg) for xy in coords.split()]
    for x, y in (("x1", "y1"), ("x2", "y2"), ("cx", "cy"), ("x", "y")):
        pairs += re.findall(rf' {x}="([^"]*)" {y}="([^"]*)"', svg)
    points = [(float(x), float(y)) for x, y in pairs]
    return [(x, y) for x, y in points if not (x0 <= x <= x0 + width and y0 <= y <= y0 + height)]


@pytest.mark.parametrize("page", sorted(p for p, pin in PINNED_SWEEPS.items() if pin[-1]))
def test_a_pinned_page_draws_inside_its_view(tmp_path, capsys, monkeypatch, page):
    svg = _check_pinned_page(tmp_path, capsys, monkeypatch, page)[1].read_text()
    assert svg.count("<text ") == 2 and svg.count("<polygon ") == 1
    assert _outside_view(svg) == []


# A 25-row page with an SVG, for the artifact targets below.
SMALL_PAGE = ("sweep", "--space", "cartesian", "--x=0:1:5", "--y=0:1:5", "--phi=0.3")


def test_sweep_writes_to_dev_null(capsys):
    # /dev/null is written, never cut: it is not a regular file.
    payload = run_json(capsys, *SMALL_PAGE, "--csv", os.devnull, "--svg", os.devnull)
    assert payload["rows"] == 25


@pytest.mark.parametrize("directory", ["--csv", "--svg"])
def test_sweep_to_a_directory_is_an_io_error(tmp_path, capsys, directory):
    # The other artifact's path holds a longer, older file: the CSV written
    # before the SVG fails is exactly the new page; a CSV that fails stops
    # the page before its SVG is touched.
    fresh = tmp_path / "fresh.csv"
    run_json(capsys, *SMALL_PAGE, "--csv", str(fresh))
    old, older = tmp_path / "old", b"#" * 2 * fresh.stat().st_size
    old.write_bytes(older)
    paths = {"--csv": str(old), "--svg": str(old), directory: str(tmp_path)}
    code, out, err = run(capsys, *SMALL_PAGE, "--csv", paths["--csv"], "--svg", paths["--svg"])
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("rpr3: i/o error: ")
    assert old.read_bytes() == (fresh.read_bytes() if directory == "--svg" else older)


def test_sweep_degrees_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "deg.csv"
    run_json(
        capsys,
        "sweep", "--space", "joint", "--deg",
        "--t1", "0:90:2", "--t2", "45", "--t3", "45",
        "--csv", str(csv_path),
    )
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert float(rows[0][0]) == 0.0
    assert float(rows[1][0]) == 90.0
    assert float(rows[0][1]) == 45.0


def test_sweep_svg_labels_angle_axes_in_the_unit_given(tmp_path, capsys):
    # Under --deg the angle axes are labelled in degrees, as the CSV writes
    # them; a length axis keeps its value.
    svg_path = tmp_path / "deg.svg"
    for axes, labels in (
        (("joint", "--t1=-170:190:21", "--t2=-90:270:17", "--t3=40"),
         ("t1: -170 .. 190", "t2: -90 .. 270")),
        (("cartesian", "--x=0:1.5:4", "--y=0.2", "--phi=-30:60:4"),
         ("x: 0 .. 1.5", "phi: -30 .. 60")),
    ):
        run_json(
            capsys, "sweep", "--deg", "--space", *axes,
            "--csv", str(tmp_path / "deg.csv"), "--svg", str(svg_path),
        )
        text = svg_path.read_text()
        for label in labels:
            assert f">{label}</text>" in text


# ---------------------------------------------------------------- verify


def test_verify_all_scopes_pass(capsys):
    payload = run_json(capsys, "verify", "--trials", "5", "--seed", "1")
    assert (payload["seed"], payload["trials"]) == (1, 5)
    # Each scope passed, with its worst metric within the scope's threshold.
    assert payload["scopes"] == {
        "dkp": {"passed": True, "max_pose_deviation": pytest.approx(0.0, abs=POSE_TOL)},
        "jacobian": {"passed": True, "max_jacobian_error": pytest.approx(0.0, abs=1e-9)},
        "curves": {"passed": True, "max_residual": pytest.approx(0.0, abs=1e-9)},
    }
    assert "trace_csv" not in payload


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1e-3, 1.7, 1e6, 1e12])
def test_verify_passes_at_small_and_large_scales(tmp_path, capsys, monkeypatch, scale):
    # The oracle's Newton tolerances follow the scale below 1 as above it;
    # absolute ones failed every dkp and jacobian check at 1e-9.
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": scale}))
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    payload = run_json(capsys, "verify", "--scope", "all", "--trials", "20", "--seed", "7")
    assert payload["scale"] == scale
    assert [scope["passed"] for scope in payload["scopes"].values()] == [True] * 3


@pytest.mark.parametrize("flag", ["--trials=-3", "--trials=0", "--seed=-1"])
def test_verify_rejects_counts_below_range(capsys, flag):
    code, out, err = run(capsys, "verify", "--scope", "dkp", flag)
    assert code == 1
    assert out == ""
    assert "expected an integer >=" in err.splitlines()[-1]


def test_verify_rechecks_trace_csv(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path))
    payload = run_json(
        capsys, "verify", "--scope", "curves", "--trials", "2", "--csv", str(csv_path)
    )
    assert list(payload["scopes"]) == ["curves"]
    assert payload["trace_csv"] == {
        "passed": True, "rows": 720, "max_deviation": pytest.approx(0.0, abs=1e-12)
    }


def _shift_row_5(csv_path, column=3):
    """Move one cell of data row 5 of a trace CSV by 1e-6, by default x."""
    lines = csv_path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[column] = str(float(fields[column]) + 1e-6)
    lines[5] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")


def test_verify_flags_tampered_csv(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path))
    _shift_row_5(csv_path)
    code, out, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "2", "--csv", str(csv_path)
    )
    assert code == 4
    assert "row 5" in err
    report = strict_json(out)["trace_csv"]
    assert (report["passed"], report["rows"]) == (False, 5)
    assert report["max_deviation"] == pytest.approx(1e-6, rel=1e-3)


@pytest.mark.parametrize("deg", [False, True], ids=["rad", "deg"])
@pytest.mark.parametrize("column", range(8), ids=trace._trace_header(False))
def test_verify_flags_a_one_cell_edit_in_any_column(tmp_path, capsys, column, deg):
    # theta1, theta2, phi, x, y, rho1, rho2 and scale: no cell of a row can
    # move by 1e-6 unseen, in either unit, and the FAIL line names the rule
    # the row broke.
    csv_path = tmp_path / "curve.csv"
    unit = ("--deg", "--t1", "20", "--t2", "75") if deg else ("--t1", "0.2", "--t2", "0.9")
    run_json(capsys, "trace", *unit, "--csv", str(csv_path))
    _shift_row_5(csv_path, column)
    code, out, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert code == 4
    (line,) = err.splitlines()
    other_curve = "differs from row 1 in theta1, theta2 or scale"
    rule = {0: other_curve, 1: other_curve, 2: "has phi off the 720-sample grid", 7: other_curve}
    assert line.startswith(f"rpr3: FAIL trace csv row 5 {rule.get(column, 'deviates by ')}")
    report = strict_json(out)["trace_csv"]
    assert (report["passed"], report["rows"]) == (False, 5)


def test_verify_flags_a_trace_csv_with_parallel_legs(tmp_path, capsys):
    # A file whose legs are parallel has no curve to lie on: it fails the
    # recheck at row 1, named, and is not a singular input.
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path))
    header, *lines = csv_path.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    csv_path.write_text("\n".join([header, *(",".join([r[0], r[0], *r[2:]]) for r in rows)]) + "\n")
    code, out, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert code == 4
    (line,) = err.splitlines()
    assert line.startswith("rpr3: FAIL trace csv row 1 deviates by ")
    assert strict_json(out)["trace_csv"]["rows"] == 1


def _trace_rows(capsys, tmp_path, *argv):
    csv_path = tmp_path / "part.csv"
    run_json(capsys, "trace", *argv, "--csv", str(csv_path))
    return csv_path.read_text().splitlines()


@pytest.mark.parametrize(
    "samples, splice, rule",
    [
        # Two 8-sample curves end to end: 16 rows, not on the 16-sample grid.
        ("8", lambda a, b: a + b[1:], "row 1 has phi off the 16-sample grid"),
        # The first 100 rows of a 720-sample trace.
        ("720", lambda a, b: a[:101], "row 1 has phi off the 100-sample grid"),
        # Every row on the grid, from row 5 on of another curve.
        ("720", lambda a, b: a[:5] + b[5:], "row 5 differs from row 1 in theta1, theta2 or scale"),
    ],
    ids=["two-curves", "first-100-rows", "half-and-half"],
)
def test_verify_flags_a_trace_csv_that_is_not_one_curve(tmp_path, capsys, samples, splice, rule):
    first = _trace_rows(capsys, tmp_path, "--t1", "0.2", "--t2", "0.9", "--samples", samples)
    second = _trace_rows(capsys, tmp_path, "--t1", "1.2", "--t2=-0.4", "--samples", samples)
    csv_path = tmp_path / "spliced.csv"
    csv_path.write_text("\n".join(splice(first, second)) + "\n")
    code, out, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert code == 4
    assert err.splitlines() == [f"rpr3: FAIL trace csv {rule}"]
    assert strict_json(out)["trace_csv"]["passed"] is False


@pytest.mark.parametrize("scope", ["dkp", "jacobian"])
def test_verify_rechecks_trace_csv_under_every_scope(tmp_path, capsys, scope):
    # --csv is a check of its own: no scope runs it or skips it.
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path))
    argv = ("verify", "--scope", scope, "--trials", "2", "--csv", str(csv_path))
    payload = run_json(capsys, *argv)
    assert list(payload)[-2:] == ["scopes", "trace_csv"]
    assert (payload["trace_csv"]["passed"], payload["trace_csv"]["rows"]) == (True, 720)
    _shift_row_5(csv_path)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert err.splitlines() == ["rpr3: FAIL trace csv row 5 deviates by 1.000e-06"]
    payload = strict_json(out)
    assert list(payload["scopes"]) == [scope] and payload["scopes"][scope]["passed"]
    assert (payload["trace_csv"]["passed"], payload["trace_csv"]["rows"]) == (False, 5)
    csv_path.unlink()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("rpr3: i/o error: ")


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1.5e-6, 1e-7, 1e-8])
def test_verify_rechecks_a_trace_of_nearly_parallel_legs(tmp_path, capsys, gap):
    # The rows reach about 2 scale / |sin(t2 - t1)|, and their rounding with
    # them: a gate of 1e-12 * scale failed this trace's own file below 1e-3.
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.3", "--t2", repr(0.3 + gap), "--csv", str(csv_path))
    payload = run_json(
        capsys, "verify", "--scope", "curves", "--trials", "2", "--csv", str(csv_path)
    )
    report = payload["trace_csv"]
    assert (report["passed"], report["rows"]) == (True, 720)


def test_verify_rechecks_a_near_parallel_trace_whose_rows_are_small(tmp_path, capsys):
    # Near rho1's second zero a row's values are small, but their rounding
    # is that of the loop-closure table, about scale / |sin(t2 - t1)|: a
    # gate on the row's own size failed row 642 of this trace's own file.
    csv_path = tmp_path / "curve.csv"
    argv = ("--t1=-0.340341981180901", "--t2=-0.340341881180901", "--csv", str(csv_path))
    run_json(capsys, "trace", *argv)
    payload = run_json(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert (payload["trace_csv"]["passed"], payload["trace_csv"]["rows"]) == (True, 720)


class _Draws:
    """A stand-in for verify's ``random.Random`` whose ``uniform`` returns
    the given values in order."""

    def __init__(self, *values):
        self._values = list(values)

    def uniform(self, a, b):
        return self._values.pop(0)


@pytest.mark.parametrize("t1", [-3.03774645687452, -2.8841484100105235, 0.27410390540137985])
def test_curves_trial_passes_a_drawn_curve_of_nearly_parallel_legs(t1):
    # |sin(t2 - t1)| = 1.5e-6 is admitted, and |rho| then reaches about
    # 1.3e6 scale: one ulp of rho failed a closure gate of 1e-10 * scale.
    for scale in (1.0, 1.7):
        geometry = ManipulatorGeometry(scale)
        assert verify._curves_block(_Draws(t1, t1 + 1.5e-6), geometry, 1) != [None]


def test_trace_reports_and_writes_reduced_angles(tmp_path, capsys):
    # The curve is traced from the angles reduced to (-pi, pi]; the CSV and
    # the report must carry those, or the recheck recomputes from others.
    csv_path = tmp_path / "curve.csv"
    payload = run_json(
        capsys, "trace", "--t1", "1e12", "--t2", "0.5", "--csv", str(csv_path)
    )
    assert payload["theta1"] == normalize_angle(1e12)
    assert payload["theta2"] == 0.5
    row = csv_path.read_text().splitlines()[1].split(",")
    assert float(row[0]) == normalize_angle(1e12)
    payload = run_json(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert payload["trace_csv"]["passed"]


def test_verify_rechecks_degree_trace_csv(tmp_path, capsys):
    # The header names the unit, so a --deg trace rechecks untouched.
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--deg", "--t1", "20", "--t2", "75", "--csv", str(csv_path))
    assert csv_path.read_text().startswith("theta1_deg,theta2_deg,phi_deg,")
    payload = run_json(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert payload["trace_csv"]["passed"]
    assert payload["trace_csv"]["max_deviation"] <= 1e-12


def test_verify_rechecks_trace_csv_at_its_own_scale(tmp_path, capsys, monkeypatch):
    # Written at scale 2, rechecked at the default scale 1: the file's
    # scale column decides.
    csv_path = tmp_path / "curve.csv"
    geom_path = tmp_path / "geom.json"
    geom_path.write_text(json.dumps({"scale": 2.0}))
    monkeypatch.setenv("RPR_GEOMETRY", str(geom_path))
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path))
    monkeypatch.delenv("RPR_GEOMETRY")
    payload = run_json(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert payload["scale"] == 1.0
    assert payload["trace_csv"]["passed"]
    assert payload["trace_csv"]["max_deviation"] <= 2e-12


def _drop_scale_column(text):
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def _phi_zero_and_pi_rows(text):
    """The header and the phi = 0 and pi rows of an 8-sample trace: phi is
    the whole 2-sample grid, but trace never writes fewer than 8 rows."""
    lines = text.splitlines(keepends=True)
    return lines[0] + lines[4] + lines[8]


def _first_row_ending(ending):
    """An edit that puts ``ending`` in place of the first row's scale cell."""
    return lambda text: text.replace(",1\n", f"{ending}\n", 1)


@pytest.mark.parametrize(
    "edit",
    [
        _drop_scale_column,  # the header and rows trace wrote before its scale column
        _first_row_ending(",nan"),
        _first_row_ending(",inf"),
        _first_row_ending(",0"),
        _first_row_ending(",-1"),
        _first_row_ending(""),
        lambda text: "",
        _phi_zero_and_pi_rows,
    ],
    ids=["old-header", "nan-scale", "inf-scale", "zero-scale", "negative-scale",
         "missing-scale", "empty-file", "two-rows"],
)
def test_verify_rejects_trace_csv_it_cannot_read(tmp_path, capsys, edit):
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--samples", "8", "--csv", str(csv_path))
    csv_path.write_text(edit(csv_path.read_text()))
    code, out, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("rpr3: i/o error: ")


class _ZeroGenerator:
    """Stands in for verify's ``random.Random``; every draw is zero."""

    def uniform(self, a, b):
        return 0.0


def test_verify_fails_when_scopes_do_fewer_trials_than_requested(capsys, monkeypatch):
    # Zero angles are degenerate and a zero pose sits on a base anchor, so
    # every scope skips every draw and runs out of draws.
    # Patched in verify only: tempfile draws from the global random.Random.
    monkeypatch.setattr(verify, "random", SimpleNamespace(Random=lambda seed: _ZeroGenerator()))
    code, out, err = run(capsys, "verify", "--trials", "3")
    assert code == 4
    assert strict_json(out)["scopes"] == {
        scope: {"passed": False} for scope in ("dkp", "jacobian", "curves")
    }
    assert err.splitlines() == [
        f"rpr3: FAIL {scope}: 0 of 3 trials done in 150 draws"
        for scope in ("dkp", "jacobian", "curves")
    ]


def _empty_scan(theta, geometry):
    return ScanReport((), 0.0, 0)


def _shifted_scan(theta, geometry):
    """The real scan with every assembly turned by 1e-3 rad."""
    report = dkp_bruteforce(theta, geometry=geometry)
    poses = tuple(Pose(p.x, p.y, p.phi + 1e-3) for p in report.solutions_found)
    return dataclasses.replace(report, solutions_found=poses)


def _shifted_anchors(x, y, c, s, anchors):
    """The real placed platform anchors moved by 1e-6 along x."""
    legs = _place_anchors(x, y, c, s, anchors)
    return [(bx + 1e-6, by, dx + 1e-6, dy) for bx, by, dx, dy in legs]


def _shifted_rho2(loop, cos_phi, sin_phi, geometry):
    """The real curves with every rho2 sample moved by 0.01 of the scale."""
    rho1, rho2, b3x, b3y = coupler._slider_loop(loop, cos_phi, sin_phi, geometry)
    return rho1, rho2 + 0.01 * geometry.scale, b3x, b3y


# Each verify check, broken through the name its module (verify, or trace
# for the curve gaps) calls it by, with the start of the one FAIL line it
# must print.
_BROKEN_CHECKS = {
    "dkp-count": ("dkp", "verify.dkp_bruteforce", _empty_scan, "dkp count mismatch at theta=("),
    "dkp-deviation": ("dkp", "verify.dkp_bruteforce", _shifted_scan, "dkp deviation "),
    "jacobian": (
        "jacobian", "verify._jacobian_cs_error", lambda *args, **kwargs: 1.0,
        "jacobian error 1.000e+00 at pose=(",
    ),
    "curve-residual": ("curves", "trace._place_anchors", _shifted_anchors, "curve residual "),
    "curve-rho2": ("curves", "verify._slider_loop", _shifted_rho2, "curve residual "),
    "curve-closure": (
        "curves", "verify.rho_from_phi", lambda t1, t2, phi, geometry: (phi, 0.0), "curve closure ",
    ),
}


@pytest.mark.parametrize("broken", sorted(_BROKEN_CHECKS))
def test_verify_reports_a_failed_check(capsys, monkeypatch, broken):
    scope, name, fake, start = _BROKEN_CHECKS[broken]
    monkeypatch.setattr(f"rpr3.{name}", fake)
    code, out, err = run(capsys, "verify", "--scope", scope, "--trials", "3", "--seed", "1")
    assert code == 4
    assert strict_json(out)["scopes"] == {scope: {"passed": False}}
    (line,) = err.splitlines()
    assert line.startswith(f"rpr3: FAIL {start}")
    # The inputs are printed as plain floats, not as numpy reprs.
    assert "np." not in line


def _flipped_b11(configuration):
    rows, (rho1, rho2, rho3), *rest = configuration
    return (rows, [rho1, -rho2, rho3], *rest)


def _swapped_a_columns(configuration):
    rows, *rest = configuration
    return ([(v, u, w) for u, v, w in rows], *rest)


@pytest.mark.parametrize("corrupt", [_flipped_b11, _swapped_a_columns])
def test_verify_jacobian_scope_catches_a_wrong_analytic_map(capsys, monkeypatch, corrupt):
    # The trial builds the rows of A, the rhos (B's diagonal) and det A once,
    # for its skip tests and for the complex-step check.  Neither corruption
    # moves det A, so the same draws are checked: only the map under test is
    # wrong, and the re-solved columns must expose it.
    real = verify._configuration
    monkeypatch.setattr(verify, "_configuration", lambda *a, **kw: corrupt(real(*a, **kw)))
    code, out, err = run(capsys, "verify", "--scope", "jacobian", "--trials", "20", "--seed", "3")
    assert code == 4
    assert strict_json(out)["scopes"] == {"jacobian": {"passed": False}}
    (line,) = err.splitlines()
    assert line.startswith("rpr3: FAIL jacobian error ")


# Poses (x, y, phi) that verify's Jacobian scope drew under its former numpy
# generator, named by the scope and seed that drew them: central differences
# of re-solved poses failed them at 1.5e-5, 8.2e-5 and 2.0e-4.
_FD_FALSE_FAILURES = {
    "jacobian-20": (-0.27800132844709835, 0.0912779647318569, -0.43886941423928594),
    "all-36": (0.12090084698846892, 0.7196393597505362, 2.4467909293500716),
    "all-37": (0.6754592970470623, 1.2103092397372546, 2.4577290439480004),
}


@pytest.mark.parametrize("xyphi", list(_FD_FALSE_FAILURES.values()), ids=list(_FD_FALSE_FAILURES))
def test_verify_passes_where_central_differences_false_failed(xyphi):
    # Their O(step^2) truncation near a singularity passes 1e-5 on a correct
    # map; the complex-step columns are exact to rounding, and the trial
    # checks each pose and passes it.
    pose = Pose(*xyphi)
    theta = inverse_kinematics(pose).angles.as_tuple()
    assert jacobian_fd_check(pose, theta) > 1e-5
    assert jacobian_cs_check(pose, theta) < 1e-10
    err = verify._jacobian_trial(_Draws(*xyphi), DEFAULT_GEOMETRY)
    assert err is not None and err < 1e-10


def _must_not_run(*args, **kwargs):
    raise AssertionError("the trial should have been skipped before this call")


def test_jacobian_trial_skips_short_legs_and_parallel_singular_poses(monkeypatch):
    geom = DEFAULT_GEOMETRY
    # The regular pose is checked: its complex-step error is 8.0e-15.
    err = verify._jacobian_trial(_Draws(0.3, 0.2, 0.1), geom)
    assert err is not None and 0.0 < err < 1e-12
    # Leg 1 is 0.02 long, under the 0.05 * scale floor: skipped before the
    # matrices are built.
    monkeypatch.setattr(verify, "_configuration", _must_not_run)
    assert verify._jacobian_trial(_Draws(0.02, 0.0, 0.0), geom) is None
    monkeypatch.undo()
    # A pose of the straight-line continuum of theta1 = 0 at phi = 0.5 (rho
    # = 0.40, 0.55, 0.15): det A vanishes, so the complex-step check never
    # runs.
    rho1, _ = coupler.rho_from_phi(0.0, PI3, 0.5)
    monkeypatch.setattr(verify, "_jacobian_cs_error", _must_not_run)
    assert verify._jacobian_trial(_Draws(rho1, 0.0, 0.5), geom) is None


def test_jacobian_trial_builds_the_matrices_once(monkeypatch):
    # The skip guard's matrices (rows of A, rhos, det A) are the ones the
    # complex-step check reads: one build per checked trial, and the error
    # the public check gives.
    real, calls = jacobians._configuration, []

    def counted(pose, theta, geometry):
        calls.append((pose, theta))
        return real(pose, theta, geometry)

    monkeypatch.setattr(verify, "_configuration", counted)
    monkeypatch.setattr(jacobians, "_configuration", counted)
    err = verify._jacobian_trial(_Draws(0.3, 0.2, 0.1), DEFAULT_GEOMETRY)
    assert err is not None and len(calls) == 1
    assert err == jacobian_cs_check(*calls[0])
    assert len(calls) == 2


def _far_second_assembly(theta, geometry):
    """The real scan with its second assembly moved 30 mechanism lengths."""
    report = dkp_bruteforce(theta, geometry=geometry)
    first, second = report.solutions_found
    far = Pose(second.x + 30.0 * geometry.scale, second.y, second.phi)
    return dataclasses.replace(report, solutions_found=(first, far))


def _offset_curve(loop, cos_phi, sin_phi, geometry):
    """The real curves with every b3 sample moved half a mechanism length."""
    rho1, rho2, b3x, b3y = coupler._slider_loop(loop, cos_phi, sin_phi, geometry)
    return rho1, rho2, b3x + 0.5 * geometry.scale, b3y + 0.5 * geometry.scale


# Breaks that are gross in units of the scale, however small the scale is;
# bounds of the form constant * max(scale, 1) passed both at scale 1e-9.
_SCALE_UNIT_BREAKS = {
    "dkp": ("dkp_bruteforce", _far_second_assembly, "dkp deviation "),
    "curves": ("_slider_loop", _offset_curve, "curve residual "),
}


@pytest.mark.parametrize("scope", sorted(_SCALE_UNIT_BREAKS))
def test_verify_fails_a_break_in_units_of_a_small_scale(tmp_path, capsys, monkeypatch, scope):
    name, fake, start = _SCALE_UNIT_BREAKS[scope]
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": 1e-9}))
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    monkeypatch.setattr(verify, name, fake)
    code, out, err = run(capsys, "verify", "--scope", scope, "--trials", "3", "--seed", "1")
    assert code == 4
    assert strict_json(out)["scopes"] == {scope: {"passed": False}}
    (line,) = err.splitlines()
    assert line.startswith(f"rpr3: FAIL {start}")


def _shifted_third_rho2(loop, cos_phi, sin_phi, geometry):
    """The real curves with rho2 moved by 0.01 of the scale on a block's
    third row alone."""
    rho1, rho2, b3x, b3y = coupler._slider_loop(loop, cos_phi, sin_phi, geometry)
    rho2[2:3] += 0.01 * geometry.scale
    return rho1, rho2, b3x, b3y


def test_verify_names_the_draw_of_a_break_in_a_blocks_third_row(capsys, monkeypatch):
    # The block's first two curves pass; the FAIL line names the third draw
    # of the seed's generator, at the grid's first phi.
    monkeypatch.setattr(verify, "_slider_loop", _shifted_third_rho2)
    code, out, err = run(capsys, "verify", "--scope", "curves", "--trials", "4", "--seed", "1")
    assert code == 4
    assert strict_json(out)["scopes"] == {"curves": {"passed": False}}
    rng, pi = random.Random(1), math.pi
    draws = [(rng.uniform(-pi, pi), rng.uniform(-pi, pi)) for _ in range(3)]
    phi = _cycle_grid(verify.CURVE_SAMPLES)[0, 0].item()
    (line,) = err.splitlines()
    assert line.startswith("rpr3: FAIL curve residual 1.0")
    assert line.endswith(f" at theta={draws[2]}, phi={phi}")


def _shifted_anchors_past_30_degrees(x, y, c, s, anchors):
    """The real placed platform anchors moved by 1e-6 along x where
    sin phi > 1/2, so that a curve first fails after its first sample."""
    shift = 1e-6 * (s > 0.5)
    legs = _place_anchors(x, y, c, s, anchors)
    return [(bx + shift, by, dx + shift, dy) for bx, by, dx, dy in legs]


def test_a_skipped_draw_keeps_its_place_in_a_block(monkeypatch):
    # Parallel legs are skipped; the next draw's value, and its FAIL line,
    # are those of that draw checked alone.
    geom, skipped = ManipulatorGeometry(1.7), (0.3, 0.3)
    alone = curves_draws(_Draws(0.2, 0.9), geom, 1, 1)
    assert verify._curves_block(_Draws(*skipped, 0.2, 0.9), geom, 2) == [None, *alone]
    monkeypatch.setattr(verify, "_slider_loop", _shifted_rho2)
    with pytest.raises(verify._TrialFailure, match=r"at theta=\(0\.2, 0\.9\), phi="):
        verify._curves_block(_Draws(*skipped, 0.2, 0.9), geom, 2)


# Breaks of names that the block path and the one-draw-at-a-time reference
# call, each patched in both: gross at every scale but 1e100.
_SHARED_CURVE_BREAKS = {
    "none": ((), None),
    "residual": (((trace, "_place_anchors"),), _shifted_anchors_past_30_degrees),
    "closure": (
        ((verify, "rho_from_phi"), (_reference, "rho_from_phi")),
        _BROKEN_CHECKS["curve-closure"][2],
    ),
}


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1.7, 1e100])
@pytest.mark.parametrize("broken", sorted(_SHARED_CURVE_BREAKS))
def test_verify_curves_blocks_print_what_one_draw_at_a_time_prints(
    tmp_path, capsys, monkeypatch, broken, scale
):
    # The curves scope, checked in blocks, against _reference.curves_draws:
    # the same bytes on stdout and stderr at a block's edges.
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": scale}))
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    targets, fake = _SHARED_CURVE_BREAKS[broken]
    for module, name in targets:
        monkeypatch.setattr(module, name, fake)
    seeds = range(40) if fake is None else range(0, 40, 8)
    for trials in (1, 4, verify._CURVE_BLOCK + 1):
        for seed in seeds:
            argv = ("verify", "--scope", "curves", "--trials", str(trials), "--seed", str(seed))
            blocks = run(capsys, *argv)
            with monkeypatch.context() as patch:
                patch.setattr(verify, "_curves_blocks", curves_draws)
                assert run(capsys, *argv) == blocks
            assert blocks[0] == (4 if fake and scale < 1e100 else 0)


def test_verify_curves_memory_does_not_grow_with_the_trials(capsys):
    def peak(trials):
        argv = ["verify", "--scope", "curves", "--trials", str(trials), "--seed", "0"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    # Warm at the larger count: the cycle grid, lazy imports and whatever
    # else the first run of many blocks builds once (about 80 kB at 2,000).
    peak(2000)
    small, large = peak(200), peak(2000)
    # The scope keeps a count and its worst value, not every value: 1,800 more
    # values in a list would take about 70 kB; the peaks differ by about 15 kB,
    # the same from 2,000 to 20,000 trials.
    assert large <= small + 32 * 1024, (small, large)


def test_verify_missing_csv_is_io_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "2",
        "--csv", str(tmp_path / "absent.csv"),
    )
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("rpr3: i/o error: ")


def test_every_library_error_exits_cleanly(capsys, monkeypatch):
    # No command lets this one escape (verify skips the draw); main maps it
    # through Rpr3Error.
    def raise_singular_nearby(args, geom):
        raise SingularNearbyError("det A vanishes")

    # One call first, so the parser exists before the patch: main must look
    # the handler up when it is called, whatever ran before.
    argv = ("ik", "--x", "0.3", "--y", "0.2", "--phi", "0.1")
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "_cmd_ik", raise_singular_nearby)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["rpr3: det A vanishes"]


def _fresh_python(probe):
    """Run ``python -c probe`` on the package under test: (code, stdout, stderr)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def test_the_verify_checks_live_in_a_module_the_cli_imports_on_load():
    # bench/tracer.py wraps the functions bound in the rpr3.* modules already
    # in sys.modules when it plans.  A verify imported on the first verify
    # call would escape it, and a traced cross-check would count no oracle
    # Newton iterations, so importing the CLI must import verify; and sweep,
    # whose figio and geometry calls a traced grid-sweep counts; and trace.
    pages = "rpr3.verify", "rpr3.sweep", "rpr3.trace"
    probe = f"import sys, rpr3.cli; print(*(name in sys.modules for name in {pages}))"
    assert _fresh_python(probe) == (0, "True True True\n", "")
    # The CLI holds nothing of the oracle's; the checks that read it are verify's.
    from_oracle = [
        name for name, value in vars(cli).items()
        if value is oracle or getattr(value, "__module__", None) == oracle.__name__
    ]
    assert from_oracle == []
    # Nor the kernels a sweep page runs on, nor its locus: those are sweep's,
    # and the velocity layer draws no page.
    page_names = {"_aim_columns", "_matrix_columns", "_kind_index", "_continuum", "_place_anchors"}
    assert not page_names.intersection(vars(cli)) and not hasattr(cli, "_sweep_locus")
    assert not {"_sweep_locus", "_repeats", "_merged"}.intersection(vars(jacobians))
    # Nor the trace page's tracing, figure and CSV writer: those are trace's.
    assert not {"_draw_base", "_draw_slider_axis", "trace_cardanic", "figio"}.intersection(vars(cli))
    # And no page imports the CLI back, nor trace verify.
    for module, banned in ((verify, {"cli"}), (sweep, {"cli"}), (trace, {"cli", "verify"})):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not [name for name in imported if name.split(".")[-1] in banned], module


def test_a_verify_run_loads_neither_numpy_random_nor_hashlib():
    # verify draws from random.Random, which numpy's own import loads.
    # numpy.random would add its extension modules and, through secrets,
    # hashlib and OpenSSL's libcrypto.  A fresh process: this one may hold
    # them already.
    probe = (
        "import contextlib, io, sys; from rpr3.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--scope', 'all', '--trials', '4', '--seed', '0'])\n"
        "print(code, sorted({'numpy.random', 'hashlib', 'secrets'}.intersection(sys.modules)))"
    )
    assert _fresh_python(probe) == (0, "0 []\n", "")


# ------------------------------------------------------------ environment


def test_geometry_env_scales_results(tmp_path, capsys, monkeypatch):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": 2.0}))
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    payload = run_json(
        capsys, "dk", "--t1", "0", "--t2", str(PI3), "--t3", str(-PI3)
    )
    assert payload["scale"] == 2.0
    assert abs(payload["reuleaux"]["p_line"]["length"] - 4.0) < 1e-6


def test_geometry_env_missing_file(capsys, monkeypatch):
    monkeypatch.setenv("RPR_GEOMETRY", "/no/such/geometry.json")
    code, _, err = run(capsys, "ik", "--x", "0.3", "--y", "0.2", "--phi", "0.1")
    assert code == 3
    assert "geometry" in err


def test_geometry_env_bad_content(tmp_path, capsys, monkeypatch):
    path = tmp_path / "geom.json"
    path.write_text('{"scale": 1.0, "shape": "square"}')
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    code, _, _ = run(capsys, "ik", "--x", "0.3", "--y", "0.2", "--phi", "0.1")
    assert code == 3


@pytest.mark.parametrize(
    "geometry, edit",
    [
        (b'{"scale": 1' + b"0" * 400 + b"}", None),
        (b"\xff\xfe", None),
        (b"[" * 100_000, None),
        (None, lambda data: data.replace(b"\n", b"\n\xff", 1)),  # in the first row
        (None, lambda data: data + b"0" * 131_073 + b"\n"),
    ],
    ids=["integer-past-any-float", "not-utf8", "nested-too-deep", "csv-not-utf8", "csv-long-field"],
)
def test_hostile_input_files_exit_3_with_one_line(tmp_path, capsys, monkeypatch, geometry, edit):
    # Each once ended in a traceback: OverflowError, UnicodeDecodeError and
    # RecursionError from the RPR_GEOMETRY file, then UnicodeDecodeError and
    # _csv.Error from the verify --csv file.
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--samples", "8", "--csv", str(csv_path))
    if geometry is None:
        csv_path.write_bytes(edit(csv_path.read_bytes()))
        prefix = "rpr3: i/o error: "
    else:
        path = tmp_path / "geom.json"
        path.write_bytes(geometry)
        monkeypatch.setenv("RPR_GEOMETRY", str(path))
        prefix = "rpr3: geometry error: "
    code, out, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert (code, out) == (3, "")
    (line,) = err.splitlines()
    assert line.startswith(prefix)


@pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e-150, 1e101, 1e300, 1e301, 1e308])
def test_geometry_scale_outside_the_working_range_exits_3(tmp_path, capsys, monkeypatch, scale):
    # Below the range det B, a product of three lengths, leaves the normal
    # floats (at 1e-150 a regular pose reported det B 0.0), the curve
    # route's sign tests underflow further down (at 1e-170 it lost the
    # second assembly), and 5e-324 gives no equilateral triangle; above it
    # det B overflows (from 1e103 on, dk --method both and verify exited 1),
    # and from 1e301 traces, scans and draws overflowed into tracebacks.
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": scale}))
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    csv_path = tmp_path / "t.csv"
    for argv in (
        ("ik", "--x", "0.3", "--y", "0.2", "--phi", "0.1"),
        ("dk", "--t1", "0.2", "--t2", "0.9", "--t3", "2.0", "--method", "both"),
        ("trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path)),
        ("verify", "--scope", "all", "--trials", "5", "--seed", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        (line,) = err.splitlines()
        assert line.startswith("rpr3: geometry error: scale must be in [1e-100, 1e+100]")
    assert not csv_path.exists()


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_verify_and_dk_pass_at_the_ends_of_the_scale_range(tmp_path, capsys, monkeypatch, scale):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": scale}))
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    payload = run_json(capsys, "verify", "--scope", "all", "--trials", "20", "--seed", "7")
    assert [scope["passed"] for scope in payload["scopes"].values()] == [True] * 3
    payload = run_json(capsys, "dk", "--t1", "0.2", "--t2", "0.9", "--t3", "2.0", "--method", "both")
    assert len(payload["poses"]) == 2 and payload["agreement"]["kinds_match"]
    # det B of a regular pose, three lengths multiplied, is still a normal float.
    assert abs(payload["poses"][1]["singularity"]["det_b"]) >= sys.float_info.min
    payload = run_json(
        capsys, "singularity", "--x", repr(0.3 * scale), "--y", repr(0.2 * scale), "--phi", "0.1"
    )
    assert payload["kind"] == "Regular"
    assert abs(payload["det_b"]) >= sys.float_info.min


@pytest.mark.parametrize("scale", ["1e-200", "1e-150", "1e301"])
def test_verify_rejects_a_trace_csv_row_scale_outside_the_range(tmp_path, capsys, scale):
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--samples", "8", "--csv", str(csv_path))
    csv_path.write_text(_first_row_ending("," + scale)(csv_path.read_text()))
    code, out, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"rpr3: i/o error: {csv_path}: malformed row 1"]


def test_trace_samples_above_the_grid_cap_is_usage_error(capsys, tmp_path):
    # Checked by the parser, before trace_cardanic allocates any sample.
    csv_path = tmp_path / "x.csv"
    argv = ("trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path))
    code, out, err = run(capsys, *argv, "--samples", str(cli.MAX_GRID_POINTS + 1))
    assert (code, out) == (1, "")
    assert "<= 1000000" in err.splitlines()[-1]
    assert not csv_path.exists()


def test_curve_route_and_verify_reuse_the_closed_form_bodies(capsys, monkeypatch):
    # m, n and the continuum kind are computed once, in the solvers' checked
    # bodies; no caller goes back through the public wrappers.
    triples = [(0.2, 0.9, 2.0), (0.0, PI3, -PI3), (0.3, 0.3, 0.3), (0.0, -PI3, PI3)]
    reuleaux = (0.4, 0.4 + PI3, 0.4 - PI3)

    def results():
        return (
            [coupler.geometric_dkp(theta) for theta in triples],
            coupler.reuleaux_descriptor(reuleaux),
            run(capsys, "verify", "--scope", "dkp", "--trials", "5"),
        )

    untrapped = results()

    def trap(*args, **kwargs):
        raise AssertionError("a second reduction or classification")

    for module in (solvers, coupler, cli, verify):
        for name in ("mn_coefficients", "classify_dk_degeneracy"):
            monkeypatch.setattr(module, name, trap, raising=False)
    assert results() == untrapped
    assert untrapped[2][0] == 0


# ------------------------------------------------------------ determinism


def test_outputs_are_deterministic(tmp_path, capsys):
    args = ["dk", "--t1", "0.2", "--t2", "0.9", "--t3", "2.0"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second

    paths = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        svg_path = tmp_path / f"{tag}.svg"
        run_json(
            capsys,
            "sweep", "--space", "joint",
            "--t1=-2:2:9", "--t2=-2:2:9", "--t3", "0.4",
            "--csv", str(csv_path), "--svg", str(svg_path),
        )
        paths.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert paths[0] == paths[1]


def test_verify_deterministic_given_seed(capsys):
    _, first, _ = run(capsys, "verify", "--scope", "dkp", "--trials", "5", "--seed", "3")
    _, second, _ = run(capsys, "verify", "--scope", "dkp", "--trials", "5", "--seed", "3")
    assert first == second


def test_repeated_calls_share_no_state(tmp_path, capsys):
    trace_csv = tmp_path / "trace.csv"
    run_json(
        capsys,
        "trace", "--t1", "0.2", "--t2", "0.9", "--samples", "8", "--csv", str(trace_csv),
    )
    argvs = [
        ("dk", "--t1", "20", "--t2", "75", "--t3", "100", "--deg"),
        ("dk", "--t1", "20", "--t2", "75", "--t3", "100"),
        ("verify", "--scope", "curves", "--trials", "1", "--csv", str(trace_csv)),
        ("verify", "--scope", "curves", "--trials", "1"),
        ("dk", "--t1", "x"),
        ("--help",),
        (
            "sweep", "--space", "joint", "--t1=-2:2:3", "--t2=-2:2:3", "--t3", "0.4",
            "--csv", str(tmp_path / "sweep.csv"),
        ),
        ("ik", "--x", "0.3", "--y", "0.2", "--phi", "0.1"),
    ]
    forward = [run(capsys, *argv) for argv in argvs]
    backward = [run(capsys, *argv) for argv in reversed(argvs)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [0, 0, 0, 0, 1, 0, 0, 0]
    assert forward[0][1] != forward[1][1]
    assert "trace_csv" in strict_json(forward[2][1])
    assert "trace_csv" not in strict_json(forward[3][1])
    assert forward[4][2].splitlines()[-1].startswith("rpr3 dk: error: ")
    assert forward[5][1].startswith("usage: rpr3")
