"""The CLI contract, command line by command line.

Each command a user may type either succeeds with one strict JSON document
naming the command, or exits with its documented code (1-4) and one line on
stderr.  Output checks run in-process through ``cli.main``, from an empty
working directory, on the argv a user would type.  A subprocess
(``python -m rpr3.cli``) serves only what needs a process of its own: the
module entry point, argparse's usage error and ``--help``, which exit
through ``SystemExit``, ``RPR_GEOMETRY`` files refused when the geometry
loads, and a stdout that cannot take the document.
"""

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rpr3
import test_cli_fuzz
import test_pins
import trend
from rpr3 import cli
from rpr3.errors import LegAtAnchorError
from rpr3.geometry import (
    PAIR_SIN_TOL, SERIAL_RHO_TOL, ManipulatorGeometry, Pose, _best_pair, platform_anchor,
)
from rpr3.jacobians import SingularityKind, classify_singularity
from rpr3.solvers import inverse_kinematics
from test_cli import PINNED_SWEEPS, run, run_json, strict_json
from test_symmetry import c3, mirror

# The RPR_GEOMETRY scales every check below is made at, as written in the
# geometry file: both ends of the working range, and scales small, large
# and non-dyadic in between.
SCALES = ["1e-100", "1e-12", "1e-3", "1.7", "1e6", "1e12", "1e100"]


@pytest.fixture(autouse=True)
def cwd(tmp_path, monkeypatch):
    """Each test runs in an empty directory: relative artifact paths land there."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RPR_GEOMETRY", raising=False)
    return tmp_path


def _geometry(monkeypatch, scale):
    """Point RPR_GEOMETRY at a file holding ``{"scale": scale}`` as written."""
    Path("geometry.json").write_text(f'{{"scale": {scale}}}\n')
    monkeypatch.setenv("RPR_GEOMETRY", "geometry.json")


def _kind(capsys, *argv):
    return run_json(capsys, *argv)["kind"]


def _dk_argv(theta):
    return ("dk", "--method", "both", *(f"--t{i}={t!r}" for i, t in enumerate(theta, start=1)))


# ----------------------------------------------------- process-level checks


def _env(geometry=None):
    """The environment of a process that runs the package under test."""
    src = str(Path(rpr3.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "RPR_GEOMETRY"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    if geometry is not None:
        env["RPR_GEOMETRY"] = geometry
    return env


def _process(cwd, *argv, geometry=None):
    """``python -m rpr3.cli argv`` from ``cwd``, on the package under test:
    (exit code, stdout, stderr)."""
    done = subprocess.run(
        [sys.executable, "-m", "rpr3.cli", *argv],
        cwd=cwd, env=_env(geometry), capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_module_entry_prints_one_strict_json_document(cwd):
    code, out, err = _process(cwd, "ik", "--x", "0.3", "--y", "0.2", "--phi", "0.1")
    assert (code, err) == (0, "")
    assert strict_json(out)["command"] == "ik"


def test_a_usage_error_exits_1_with_one_error_line_and_empty_stdout(cwd):
    code, out, err = _process(cwd, "dk", "--t1", "x")
    assert (code, out) == (1, "")
    (line,) = [line for line in err.splitlines() if ": error: " in line]
    assert line.startswith("rpr3 dk: error: ")
    assert "Traceback" not in err


def test_help_exits_0(cwd):
    code, out, err = _process(cwd, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: rpr3")


# Files named as a user might name them, spaces included.
_REFUSED_GEOMETRY_FILES = {
    **{f"scale {s}.json": f'{{"scale": {s}}}\n'.encode() for s in
       ("1e-200", "1e-150", "1e101", "1e300", "1e308")},
    "integer past any float.json": b'{"scale": 1' + b"0" * 400 + b"}",
    "not utf-8.json": b"\xff\xfe",
    "nested too deep.json": b"[" * 100_000,
}


@pytest.mark.parametrize("name", sorted(_REFUSED_GEOMETRY_FILES))
def test_a_geometry_file_refused_as_it_loads_exits_3_with_one_line(cwd, name):
    # A scale outside [1e-100, 1e100], or a file that is not a JSON object
    # the loader can read: refused before any command runs, never a
    # traceback.
    (cwd / name).write_bytes(_REFUSED_GEOMETRY_FILES[name])
    code, out, err = _process(cwd, "ik", "--x", "0.3", "--y", "0.2", "--phi", "0.1", geometry=name)
    assert (code, out) == (3, "")
    (line,) = err.splitlines()
    assert line.startswith("rpr3: geometry error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fault", ["reader-closed", "dev-full", "fd-1-closed"])
def test_a_stdout_that_cannot_take_the_document_exits_3_with_one_line(cwd, fault):
    # A pipe whose reader is gone (EPIPE), a full device (ENOSPC), and fd 1
    # closed before the process starts: the document cannot be delivered.
    argv = [sys.executable, "-m", "rpr3.cli", "verify", "--trials", "4", "--seed", "0"]
    with contextlib.ExitStack() as stack:
        stdout = None
        if fault == "reader-closed":
            reader, stdout = os.pipe()
            os.close(reader)
            stack.callback(os.close, stdout)
        elif fault == "dev-full":
            stdout = stack.enter_context(open("/dev/full", "wb"))
        else:
            argv = ["sh", "-c", 'exec "$@" >&-', "sh", *argv]
        done = subprocess.run(
            argv, cwd=cwd, env=_env(), stdout=stdout, stderr=subprocess.PIPE, text=True,
            timeout=60,
        )
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert done.returncode == 3
    (line,) = done.stderr.splitlines()
    assert line.startswith("rpr3: i/o error: stdout: ")


def test_a_trace_csv_cell_of_1e200_fails_with_a_finite_deviation(cwd):
    # Anchor 3's miss from an x of 1e200 squares past the largest float:
    # the recheck still names the miss, reports it as strict JSON, and
    # warns of nothing.
    code, _, err = _process(cwd, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", "curve.csv")
    assert (code, err) == (0, "")
    lines = (cwd / "curve.csv").read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = "1e200"
    lines[5] = ",".join(fields)
    (cwd / "curve.csv").write_text("\n".join(lines) + "\n")
    code, out, err = _process(cwd, "verify", "--scope", "curves", "--trials", "1", "--csv", "curve.csv")
    assert code == 4
    assert err == "rpr3: FAIL trace csv row 5 deviates by 1.000e+200\n"
    report = strict_json(out)["trace_csv"]
    assert report == {"passed": False, "rows": 5, "max_deviation": 1e200}


# ------------------------------------------------------------------ parse


def _parsed(parse, argv):
    """What ``parse(argv)`` gives: the namespace's fields or the exit code, and
    the bytes it printed on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _parse_corpus():
    """The fuzz run's 500 lines, the lines whose output is pinned, the trend's
    lines, and lines at argparse's edges."""
    rng = random.Random(20240607)
    yield from (test_cli_fuzz._argv(rng, Path(".")) for _ in range(500))
    yield from (["trace", *argv, "--csv", "t.csv", "--svg", "t.svg"] for argv in test_pins.TRACE_ARGVS)
    yield from (["verify", "--scope", "all", "--trials", "20", "--seed", str(s)] for s in range(4))
    yield ["verify", "--scope", "curves", "--trials", "200", "--seed", "3", "--csv", "t.csv"]
    for space, axes, *_ in PINNED_SWEEPS.values():
        yield ["sweep", "--space", space, *axes, "--csv", "page.csv", "--svg", "page.svg"]
    yield from (trend.VERIFY_ARGV, trend.DK_ARGV, trend.TRACE_ARGV, *trend.SWEEP_PAGES)
    dk = ["dk", "--t1", "0.2", "--t2", "0.9", "--t3", "2.0"]
    yield from (
        [], ["-h"], ["--help"], ["dk", "-h"], ["verify", "--help"], ["nosuch"], ["nosuch", "-h"],
        ["-h", "dk"], ["--", "dk"], ["--t1", "0", "dk"], ["DK"], [""],
        ["dk", "--t1", "0", "--t1", "1", "--t2", "0.9", "--t3", "2.0"],
        ["verify", "--tri", "4"], ["verify", "--t", "4"], ["dk", "--me", "both", *dk[1:]],
        [*dk, "--bogus"], [*dk, "extra"], ["verify", "--bogus=1", "-h"],
        ["dk", "--t1", "0.2", "--t2", "0.9", "--t3", "-0.4"], ["dk", "--t1", "0.2", "--t2", "0.9", "--t3"],
        [*dk, "--"], ["dk", "--", *dk[1:]], ["verify", "--", "--trials", "4"],
        [*dk, "--deg"], ["ik", "--deg", "--x", "0", "--y", "0", "--phi", "90"], [*dk, "--deg", "--deg"],
        ["sweep", "--deg", "--space", "joint", "--t1=-30:30:4", "--t2=0", "--t3=0", "--csv", "s.csv"],
    )


@pytest.mark.parametrize(
    "command, branch, accepted",
    [("ik", "2", "three binary digits or 'all'"), ("singularity", "all", "three binary digits")],
)
def test_a_bad_branch_names_only_what_its_command_accepts(capsys, command, branch, accepted):
    pose = ("--x", "0.3", "--y", "0.2", "--phi", "0.1")
    code, out, err = run(capsys, command, *pose, "--branch", branch)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"rpr3: --branch must be {accepted}, got {branch!r}"]


def test_a_line_parses_as_the_full_parser_parses_it():
    # cli._parse hands a line that starts with a command straight to that
    # command's parser: the same fields, or the same exit code and bytes on
    # stdout and stderr, as the full parser gives.  Nothing runs.
    for argv in _parse_corpus():
        assert _parsed(cli._parse, argv) == _parsed(cli._parser().parse_args, argv), argv


# ------------------------------------------------------------------ sweep


def test_a_joint_page_writes_its_csv_and_svg(cwd, capsys):
    argv = ("sweep", "--space", "joint", "--t1=-2:2:5", "--t2=-2:2:5", "--t3", "0.4")
    payload = run_json(capsys, *argv, "--csv", "sweep.csv", "--svg", "sweep.svg")
    assert payload["rows"] == 25
    assert (cwd / "sweep.csv").exists() and (cwd / "sweep.svg").exists()


@pytest.mark.parametrize(
    "axes, drawn",
    [
        # phi spans 0: the phi = 0 line at least.
        (("--x=-0.5:1.5:21", "--y", "0.3", "--phi=-1:1:21"), True),
        # Singular everywhere: no curve.
        (("--x=-0.5:1.5:25", "--y=-0.5:1.5:25", "--phi", "0"), False),
    ],
    ids=["x-phi", "phi0"],
)
def test_a_loci_page_draws_its_exact_locus_and_no_nan(cwd, capsys, axes, drawn):
    files = ("--csv", "page.csv", "--svg", "page.svg")
    run_json(capsys, "sweep", "--space", "cartesian", *axes, *files)
    svg = (cwd / "page.svg").read_text()
    assert "nan" not in svg
    assert ("#c02020" in svg) is drawn


def test_quantity_is_an_unrecognized_argument(cwd, capsys):
    code, out, err = run(
        capsys,
        "sweep", "--space", "joint", "--t1=-2:2:5", "--t2=-2:2:5", "--t3", "0.4",
        "--csv", "q.csv", "--svg", "q.svg", "--quantity", "detA",
    )
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert sum("error: unrecognized arguments: --quantity detA" in line for line in lines) == 1
    assert "Traceback" not in err


def test_a_101_by_101_page_writes_its_header_and_10201_rows(cwd, capsys):
    argv = ("sweep", "--space", "joint", "--t1=-3:3:101", "--t2=-3:3:101", "--t3", "0.7")
    run_json(capsys, *argv, "--csv", "big.csv")
    assert (cwd / "big.csv").read_bytes().count(b"\n") == 10202


def test_an_svg_page_with_a_long_axis_is_refused_before_any_file(cwd, capsys):
    # 500,000 x samples took 20.1 s and wrote a 108 MB SVG; a page at the
    # cap is drawn.
    def page(samples, name):
        axes = (f"--x=-0.5:1.5:{samples}", "--y=0.3", "--phi=-7:7:2")
        files = ("--csv", f"{name}.csv", "--svg", f"{name}.svg")
        return ("sweep", "--space", "cartesian", *axes, *files)

    code, out, err = run(capsys, *page(500000, "long"))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"rpr3: --svg: a swept axis has at most {cli.MAX_SVG_AXIS_POINTS} samples"
    ]
    assert list(cwd.iterdir()) == []
    run_json(capsys, *page(cli.MAX_SVG_AXIS_POINTS, "cap"))
    assert (cwd / "cap.svg").exists()


# ----------------------------------------------------------------- trace


def test_a_degree_trace_rechecks_under_curves_and_dkp(cwd, capsys):
    files = ("--csv", "trace.csv", "--svg", "trace.svg")
    run_json(capsys, "trace", "--deg", "--t1", "20", "--t2", "75", *files)
    run_json(capsys, "verify", "--scope", "curves", "--trials", "2", "--csv", "trace.csv")
    # --csv is a check of its own under every scope.
    payload = run_json(capsys, "verify", "--scope", "dkp", "--trials", "2", "--csv", "trace.csv")
    assert "trace_csv" in payload
    rows = (cwd / "trace.csv").read_text().split("\n")
    cells = rows[5].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    rows[5] = ",".join(cells)
    (cwd / "tampered.csv").write_text("\n".join(rows))
    code, _, _ = run(capsys, "verify", "--scope", "dkp", "--trials", "2", "--csv", "tampered.csv")
    assert code == 4
    # One file holds one curve: its first 100 rows are not one.
    lines = (cwd / "trace.csv").read_text().splitlines(keepends=True)
    (cwd / "first100.csv").write_text("".join(lines[:101]))
    code, _, _ = run(
        capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", "first100.csv"
    )
    assert code == 4


def test_the_trace_row_at_phi_zero_is_a3(cwd, capsys):
    # B3 is a3 plus an offset that vanishes at phi = 0.
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", "a3.csv")
    rows = [row.split(",") for row in (cwd / "a3.csv").read_text().splitlines()[1:]]
    assert [(float(r[3]), float(r[4])) for r in rows if float(r[2]) == 0.0] == [
        (0.5, 0.8660254037844386)
    ]


def test_a_file_shorter_than_any_trace_is_refused(cwd, capsys):
    # The header and two rows of a 720-sample trace: exit 3, one line.
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--csv", "a3.csv")
    lines = (cwd / "a3.csv").read_text().splitlines(keepends=True)
    (cwd / "two.csv").write_text(lines[0] + lines[360] + lines[720])
    code, _, err = run(capsys, "verify", "--scope", "curves", "--trials", "1", "--csv", "two.csv")
    assert code == 3
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "samples, trials",
    [("360", ("--trials", "200", "--seed", "3")), ("9000", ("--trials", "2"))],
    ids=["360", "9000"],
)
def test_a_trace_rechecks_every_row(capsys, samples, trials):
    # The curves trial reads the phi grid's cos and sin, the recheck libm's
    # of the file's phi; CSV blocks are 4,096 rows, and 9,000 rows cross two
    # block boundaries.
    run_json(capsys, "trace", "--t1", "0.2", "--t2", "0.9", "--samples", samples, "--csv", "t.csv")
    payload = run_json(capsys, "verify", "--scope", "curves", *trials, "--csv", "t.csv")
    assert payload["trace_csv"]["rows"] == int(samples)


def test_a_trace_at_the_band_edge_exits_0(capsys):
    run_json(capsys, "trace", "--t1=-1.04", "--t2", "0.0071975461965976", "--csv", "edge.csv")


def test_a_straight_segment_is_the_full_travel_at_8_samples(capsys):
    payload = run_json(
        capsys, "trace", "--t1=-2.5", "--t2", repr(-2.5 + math.pi / 3), "--samples", "8",
        "--csv", "seg8.csv",
    )
    length, travel = payload["segment"]["length"], payload["reuleaux"]["a_displacement_magnitude"]
    assert abs(length - travel) <= 1e-12 * travel


# ---------------------------------------------------------------- verify


def test_verify_all_passes_20_trials_at_seed_7(capsys):
    run_json(capsys, "verify", "--scope", "all", "--trials", "20", "--seed", "7")


@pytest.mark.parametrize("scale", [None, "2"])
def test_verify_dkp_passes_200_trials_at_seed_3(capsys, monkeypatch, scale):
    # The oracle against the closed form on verify's default trial count;
    # the scan's table is built per geometry.
    if scale is not None:
        _geometry(monkeypatch, scale)
    run_json(capsys, "verify", "--scope", "dkp", "--trials", "200", "--seed", "3")


# ------------------------------------------------- one kind per orbit


def test_a_tie_and_its_c3_images_have_one_kind(capsys):
    # Parallel legs 1-2 of a two-solution triple; its two C3 images put the
    # tie on other labels.
    theta = (0.3, 0.3, 1.0)
    orbit = [("dk", "--method", "both", "--t1", "0.3", "--t2", "0.3", "--t3", "1.0")]
    orbit += [_dk_argv(c3(theta)), _dk_argv(c3(c3(theta)))]
    assert len({_kind(capsys, *argv) for argv in orbit}) == 1


def test_a_continuum_orbit_has_one_kind(capsys):
    # theta 3e-9 rad off both straight-line gaps from leg 1, its two C3
    # images and its mirror.
    t = (0.3, 0.3 + math.pi / 3 + 3e-9, 0.3 - math.pi / 3 - 3e-9)
    orbit = (t, c3(t), c3(c3(t)), mirror(t))
    assert len({_kind(capsys, *_dk_argv(theta)) for theta in orbit}) == 1


def test_a_pose_and_its_c3_image_have_one_singularity_kind(capsys):
    # det A is 6.68e-9 at both, near the threshold.
    pose = ("--x", "0.49314788606076865", "--y=-0.8448659820899755", "--phi", "2.144527896398607")
    image = (
        "--x", "2.02787135670508", "--y", "0.009630144476198477", "--phi", "2.144527896398607",
        "--t1", "0.004748857491562841", "--t2", "1.0519464132342722", "--t3=-1.0424486979420178",
    )
    first = _kind(capsys, "singularity", *pose, "--branch", "000")
    assert _kind(capsys, "singularity", *image) == first


# --------------------------------------------------------- every scale


@pytest.mark.parametrize("scale", ["1e-3", "1", "1e3"])
def test_ik_the_report_and_the_page_share_the_zero_length_threshold(capsys, monkeypatch, scale):
    # At pose (d, 0, 0.3) leg 1's platform anchor is the reference point, d
    # from a1 = (0, 0); d sits 2**-20 of SERIAL_RHO_TOL * s either side of it.
    _geometry(monkeypatch, scale)
    s = float(scale)
    geometry = ManipulatorGeometry(s)
    for at_anchor, factor in ((True, 1 - 2**-20), (False, 1 + 2**-20)):
        pose = Pose(factor * SERIAL_RHO_TOL * s, 0.0, 0.3)
        page = ("sweep", "--space", "cartesian", f"--x={pose.x!r}", "--y=0", "--phi=0.3")
        run_json(capsys, *page, "--csv", "page.csv")
        (row,) = Path("page.csv").read_text().splitlines()[1:]
        if at_anchor:
            with pytest.raises(LegAtAnchorError) as stuck:
                inverse_kinematics(pose, geometry=geometry)
            assert stuck.value.legs == (1,)
            # Legs 2 and 3 aim at their platform anchors; leg 1's angle is free.
            aims = []
            for leg in (2, 3):
                (bx, by), (ax, ay) = (
                    platform_anchor(p, leg, geometry) for p in (pose, Pose(0.0, 0.0, 0.0))
                )
                aims.append(math.atan2(by - ay, bx - ax))
            for t1 in (-3.0, -1.5, 0.0, 0.7, 2.9):
                assert classify_singularity(pose, (t1, *aims), geometry).zero_rho_legs == (1,)
            assert row.endswith(",Serial")
        else:
            theta = inverse_kinematics(pose, geometry=geometry).angles
            assert classify_singularity(pose, theta, geometry).zero_rho_legs == ()
            assert not row.endswith((",Serial", ",Both"))


@pytest.mark.parametrize(
    "argv",
    [
        # A pose far off, its three legs within 5e-9 of parallel.
        ("--x", "5", "--y", "2", "--phi=-2.9975421145245213e-08"),
        # Legs 1 and 2 1e-5 apart at the trivial pose, which is serial too.
        ("--x", "0", "--y", "0", "--phi", "0", "--t1", "0.3", "--t2", "0.30001",
         "--t3=-2.8415849745809094"),
    ],
)
def test_a_parallel_report_prints_the_instant_center(capsys, argv):
    # The point lies on every normal line, within |det A| / |sin(t_j - t_i)|
    # of the best pair plus the rounding of a point of its size.
    payload = run_json(capsys, "singularity", *argv)
    assert payload["kind"] in ("Parallel", "Both") and payload["translation_case"] is False
    (px, py), t = payload["intersection_point"], payload["theta"]
    pose = Pose(*(payload["pose"][key] for key in ("x", "y", "phi")))
    i, j, _ = _best_pair(t)
    slack = abs(payload["det_a"]) / abs(math.sin(t[j] - t[i])) + 4 * 2.0**-53 * math.hypot(px, py)
    for leg, angle in enumerate(t, start=1):
        bx, by = platform_anchor(pose, leg)
        assert abs((px - bx) * math.cos(angle) + (py - by) * math.sin(angle)) <= slack, leg


@pytest.mark.parametrize("scale", [1.0, 2.0, 1.7])
def test_a_parallel_report_has_a_point_unless_every_normal_is_parallel(scale):
    geometry = ManipulatorGeometry(scale)
    translations = 0
    for pose, theta in test_pins._singular_cases(geometry):
        report = classify_singularity(pose, theta, geometry)
        assert report.kind in (SingularityKind.PARALLEL, SingularityKind.BOTH)
        assert (report.intersection_point is None) is report.translation_case
        if report.translation_case:
            t = tuple(theta)
            assert max(abs(math.sin(t[j] - t[i])) for i, j in ((0, 1), (1, 2), (0, 2))) < PAIR_SIN_TOL
            translations += 1
    assert translations == 12


@pytest.mark.parametrize("scale", SCALES)
def test_dk_and_singularity_hold_at_every_scale(capsys, monkeypatch, scale):
    # Every check is a constant times the scale.  The dk route comparison
    # passes on a generic triple, a drawn one, a triple 1e-7 off the
    # straight-line predicate that the closed form calls Degenerate (its
    # second root 7e-3 from the trivial one), and legs 1 and 2 1e-7 from
    # parallel, where a pose solved through that pair alone strays by more
    # than POSE_TOL.
    _geometry(monkeypatch, scale)
    for theta in (
        ("--t1", "0.2", "--t2", "0.9", "--t3", "2.0"),
        ("--t1", "1.0070284242027956", "--t2=-2.93539009001316", "--t3", "0.3899526230685666"),
        ("--t1", "0.3", "--t2", repr(0.3 + math.pi / 3), "--t3", repr(0.3 - math.pi / 3 + 1e-7)),
        ("--t1", "0.3", "--t2", repr(0.3 + 1e-7), "--t3", "1.0"),
    ):
        run_json(capsys, "dk", *theta, "--method", "both")
    s = float(scale)
    payload = run_json(
        capsys, "singularity", "--x", repr(0.3 * s), "--y", repr(0.2 * s), "--phi", "0.1"
    )
    assert payload["kind"] == "Regular"
    # rho1 of the straight-line continuum of theta = (0, pi/3, -pi/3) at
    # phi = 0.5: x on leg 1's slider line, y = 0.  Parallel, with the
    # normal lines meeting at a finite point.
    t2 = math.pi / 3
    x = s * (math.sin(t2) * (1 - math.cos(0.5)) + math.cos(t2) * math.sin(0.5)) / math.sin(t2)
    payload = run_json(
        capsys, "singularity", "--x", repr(x), "--y", "0", "--phi", "0.5",
        "--t1", "0", "--t2", repr(t2), "--t3", repr(-t2),
    )
    assert payload["kind"] == "Parallel"
    assert payload["intersection_point"] is not None
