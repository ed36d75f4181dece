"""End-to-end workbench behavior: flags, artifacts, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from rpr3.cli import main
from rpr3.geometry import normalize_angle

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
    return payload


# ------------------------------------------------------------------- ik


def test_ik_single_branch(capsys):
    payload = run_json(
        capsys, "ik", "--x", "0.5", "--y", str(SQRT3 / 6.0), "--phi", "0", "--branch", "000"
    )
    assert payload["command"] == "ik"
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


@pytest.mark.parametrize("command", ["ik", "singularity"])
def test_overflowing_leg_length_is_usage_error(capsys, command):
    # Leg 1's length hypot(1.7e308, 1.7e308) overflows to inf.
    code, out, err = run(capsys, command, "--x", "1.7e308", "--y", "1.7e308", "--phi", "0")
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
    assert lines[0] == "theta1,theta2,phi,x,y,rho1,rho2"
    assert len(lines) == 1 + 720
    svg = svg_path.read_text()
    assert svg.startswith("<?xml")
    assert 'viewBox="-1.5 -2.5 4 4"' in svg
    assert "polyline" in svg


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


def test_sweep_svg_contour(tmp_path, capsys):
    csv_path = tmp_path / "field.csv"
    svg_path = tmp_path / "field.svg"
    run_json(
        capsys,
        "sweep", "--space", "joint",
        "--t1=-3:3:15", "--t2=-3:3:15", "--t3", "0.7",
        "--csv", str(csv_path), "--svg", str(svg_path),
    )
    svg = svg_path.read_text()
    assert "<line" in svg  # the zero contour exists for this field
    assert csv_path.exists()


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
# writers moved onto arrays; no rewrite may change a byte.  Each entry is
# (space, axes and flags, RPR_GEOMETRY scale, rows, CSV digest, SVG digest
# or None for a CSV-only page).  The cartesian pages include the anchor hit
# at (0, 0).
PINNED_SWEEPS = {
    "cartesian": (
        "cartesian",
        ("--x=-0.5:1.5:25", "--y=-0.5:1.5:25", "--phi=0.3"),
        None,
        625,
        "b8864218030007fda0e29cfa0077409fbd7cd16707117f21412adcf5c5961e63",
        "5bbaa97d311e1483bb12a76cbeeefb323ab4f50797187ddc8910e496b4937ff8",
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
        "7e8239db35d9d926a798ece833ab9118425915acee8b17483eff2b3bf4c4a272",
        "9c6177b7c05f6e5eb6bd5fa6941b1238e43ae001a2725e1b50c45610480e4eab",
    ),
    "joint-deg": (
        "joint",
        ("--deg", "--t1=-170:190:21", "--t2=-90:270:17", "--t3=40"),
        None,
        357,
        "f76e5dcb74c7cd260d6bb22ee42a550584674993c7b1b4bdd137cf37aa36408d",
        "39b309135f329cbbd37be68b18ea1617880d37ed6bdb20a732594585af8e70f4",
    ),
    "cartesian-detB": (
        "cartesian",
        ("--quantity", "detB", "--x=-1:2:23", "--y=-1:2:19", "--phi=-0.8"),
        None,
        437,
        "7c6e14e7165ad438d89e69ec14be7d6710e92c4fad76e0ddfdb21ab538e18e45",
        "ca935cb67f4513bb7d4021101f31a785827c9a0b44c4ac454ab91f387d888843",
    ),
    "cartesian-three-axes": (
        "cartesian",
        ("--x=0:1:5", "--y=0:1:5", "--phi=-3:3:5"),
        None,
        125,
        "d49318c137f2b2d09b8fb5c15ae122d6048f3d2f957778ae19b0c900182b5414",
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
        "0db71a7d0a60264343b09349e8848c3c735112aade693db4d6572e914e6ce336",
        "81b13ca10db76a08261174a7e0ffde2e0cae39c63a4521b7d26fc98d0be0aa9c",
    ),
}


@pytest.mark.parametrize("page", sorted(PINNED_SWEEPS))
def test_sweep_artifacts_are_pinned(tmp_path, capsys, monkeypatch, page):
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


# ---------------------------------------------------------------- verify


def test_verify_all_scopes_pass(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "5", "--seed", "1")
    assert code == 0
    assert "verify: ok" in out
    assert "dkp" in out and "jacobian" in out and "curves" in out


@pytest.mark.parametrize("flag", ["--trials=-3", "--trials=0", "--seed=-1"])
def test_verify_rejects_counts_below_range(capsys, flag):
    code, out, err = run(capsys, "verify", "--scope", "dkp", flag)
    assert code == 1
    assert "verify: ok" not in out
    assert "expected an integer >=" in err.splitlines()[-1]


def test_verify_rechecks_trace_csv(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path))
    code, out, _ = run(
        capsys, "verify", "--scope", "curves", "--trials", "2", "--csv", str(csv_path)
    )
    assert code == 0
    assert "trace-csv" in out


def test_verify_flags_tampered_csv(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", str(csv_path))
    lines = csv_path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = str(float(fields[3]) + 1e-6)
    lines[5] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "2", "--csv", str(csv_path)
    )
    assert code == 4
    assert "row 5" in err


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
    code, out, err = run(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", str(csv_path)
    )
    assert code == 0, err
    assert "trace-csv" in out


class _ZeroGenerator:
    """Stands in for a numpy generator; every draw is zero."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return 0.0 if size is None else np.zeros(size)


def test_verify_fails_when_scopes_do_fewer_trials_than_requested(capsys, monkeypatch):
    # Zero angles are degenerate and a zero pose sits on a base anchor, so
    # every scope skips every draw and runs out of draws.
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ZeroGenerator())
    code, out, err = run(capsys, "verify", "--trials", "3")
    assert code == 4
    assert "verify: ok" not in out
    assert err.splitlines() == [
        f"rpr3: FAIL {scope}: 0 of 3 trials done in 150 draws"
        for scope in ("dkp", "jacobian", "curves")
    ]


def test_verify_missing_csv_is_io_error(tmp_path, capsys):
    code, _, _ = run(
        capsys, "verify", "--scope", "curves", "--trials", "2",
        "--csv", str(tmp_path / "absent.csv"),
    )
    assert code == 3


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
