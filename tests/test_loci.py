"""The parallel-singularity loci that ``sweep --svg`` draws, and the det A
identity the cartesian loci rest on.

A sweep page's locus (``sweep._sweep_locus``) is solved, not sampled:
every vertex is checked against the predicate it solves, and every cell of
the page's det A table whose corners change sign (through zero: det A only
jumps across the anchor hits at a1) must hold a drawn segment.
The identity det A * det B = -sqrt(3) s^2 sin^2(phi/2) (|p|^2 - 2 p . C(phi)),
C(phi) = (I - R(phi)) c with c the anchors' centroid, is checked on its own
against ``build_matrices`` at seeded poses of every branch.
"""

import math
import re

import numpy as np
import pytest

from rpr3 import Pose, SingularityKind, build_matrices, classify_singularity, inverse_kinematics
from rpr3.cli import _parse_axis, main
from rpr3.errors import LegAtAnchorError
from rpr3.geometry import ManipulatorGeometry, normalize_angle
from rpr3.jacobians import PARALLEL_DET_TOL
from rpr3.solvers import mn_coefficients
from rpr3.sweep import _sweep_locus

SQRT3 = math.sqrt(3.0)

# Worst |det A det B - right side|: 4.4e-15 s^4 over the 12,000 seeded draws
# below, 7.7e-15 s^4 over another 12,000 drawn alike.
IDENTITY_TOL = 2e-14
# Worst vertex residual over the pages below: |n| 2.7e-15 on joint pages,
# |F| 1.2e-15 s^2 on cartesian ones.
VERTEX_TOL = 1e-14

# Pages as (space, axis flags); cartesian positions are in units of the scale.
# Ranges with short decimal ends put roots on a side, where they may round
# past it; a fixed position near a1 leaves a gap without roots around phi = 0
# narrower than the phi step; a coarse phi step over a steep locus needs
# its crossings of the position grid lines.
JOINT_PAGES = [
    (f"--t1={-math.pi!r}:{math.pi!r}:25", f"--t2={-math.pi!r}:{math.pi!r}:25", "--t3=0.7"),
    ("--t1=2.5", "--t2=3:-3:21", "--t3=-3:3:19"),
    ("--deg", "--t1=-170:190:21", "--t2=40", "--t3=-90:270:17"),
    ("--t1=0.8", "--t2=2.2:-1.4:26", "--t3=2.7:0.2:28"),
]
CARTESIAN_PAGES = [
    ("--x=-0.5:1.5:25", "--y=-0.5:1.5:25", "--phi=0.3"),
    ("--x=1.5:-0.5:23", "--y=-0.5:1.5:19", "--phi=-2.4"),
    ("--x=-0.5:1.5:21", "--y=0.3", "--phi=-1:1:21"),
    ("--x=0.4", "--y=-0.5:1.5:21", "--phi=3:-3:20"),
    ("--deg", "--x=-0.5:1.5:17", "--y=0.2", "--phi=-200:200:25"),
    ("--x=-0.5:1.5:21", "--y=-0.1", "--phi=-7:7:29"),
    ("--x=0.8:-0.3:22", "--y=-0.0:-0.6:30", "--phi=1.08"),
    ("--x=0.02", "--y=0.0:1.6:14", "--phi=2.2:-2.4:11"),
    ("--x=1.7", "--y=-0.6:-0.3:18", "--phi=2.8:-3.6:7"),
]
PAGES = [("joint", p) for p in JOINT_PAGES] + [("cartesian", p) for p in CARTESIAN_PAGES]


def _scaled(flags, scale):
    """Cartesian position flags times ``scale``; angles and joint flags as given."""
    out = []
    for flag in flags:
        name, _, text = flag[2:].partition("=")
        if name in ("x", "y"):
            text = ":".join(
                repr(float(v) * scale) if k < 2 else v for k, v in enumerate(text.split(":"))
            )
        out.append(f"--{name}={text}" if text else flag)
    return out


def _axes(space, flags):
    """The page's axes as the sweep parses them: radians, in the order given."""
    deg = "--deg" in flags
    values = dict(f[2:].split("=") for f in flags if "=" in f)
    names = ("t1", "t2", "t3") if space == "joint" else ("x", "y", "phi")
    return [_parse_axis(name, values[name], deg) for name in names]


def _center(phi, scale):
    cx, cy = scale / 2.0, scale / (2.0 * SQRT3)
    c, s = math.cos(phi), math.sin(phi)
    return cx - (c * cx - s * cy), cy - (s * cx + c * cy)


def _vertex_residual(space, axes, swept, u, v, scale):
    """|n| at a joint vertex, |F| / s^2 at a cartesian one (0 on phi = 0)."""
    point = [a[0] for a in axes]
    point[swept[0]], point[swept[1]] = u, v
    if space == "joint":
        return abs(mn_coefficients(point)[1])
    x, y, phi = point
    if normalize_angle(phi) == 0.0:
        return 0.0
    cx, cy = _center(phi, scale)
    return abs(x * x + y * y - 2.0 * (x * cx + y * cy)) / scale**2


def _hits(segment, cell):
    """Whether a segment meets a closed rectangle (Liang-Barsky)."""
    (ax, ay), (bx, by) = segment
    (x0, x1), (y0, y1) = cell
    lo, hi, dx, dy = 0.0, 1.0, bx - ax, by - ay
    for p, q in ((-dx, ax - x0), (dx, x1 - ax), (-dy, ay - y0), (dy, y1 - ay)):
        if p == 0.0:
            if q < 0.0:
                return False
        elif p < 0.0:
            lo = max(lo, q / p)
        else:
            hi = min(hi, q / p)
    return lo <= hi


@pytest.fixture(params=[1.0, 1.7], ids=["scale1", "scale1.7"])
def scale(request, tmp_path, monkeypatch):
    """The geometry scale, set for the CLI too."""
    geometry = tmp_path / "geometry.json"
    geometry.write_text(f'{{"scale": {request.param!r}}}')
    monkeypatch.setenv("RPR_GEOMETRY", str(geometry))
    return request.param


@pytest.mark.parametrize("space, flags", PAGES)
def test_every_vertex_solves_the_locus_predicate(scale, space, flags):
    flags = _scaled(flags, scale) if space == "cartesian" else flags
    axes = _axes(space, flags)
    swept = [i for i, a in enumerate(axes) if len(a) > 1]
    box = np.sort([[axes[i][0], axes[i][-1]] for i in swept], axis=1)
    pieces = _sweep_locus(space == "joint", axes, ManipulatorGeometry(scale))
    assert pieces
    for piece in pieces:
        assert piece.ndim == 2 and piece.shape[1] == 2 and len(piece) >= 2
        slack = 1e-12 * np.abs(box).max(axis=1)
        assert ((box[:, 0] - slack <= piece) & (piece <= box[:, 1] + slack)).all()
        worst = max(_vertex_residual(space, axes, swept, u, v, scale) for u, v in piece.tolist())
        assert worst <= VERTEX_TOL, (piece, worst)


@pytest.mark.parametrize("space, flags", PAGES)
def test_every_sign_change_of_det_a_holds_a_drawn_segment(scale, space, flags, tmp_path, capsys):
    flags = _scaled(flags, scale) if space == "cartesian" else flags
    csv_path, svg_path = tmp_path / "page.csv", tmp_path / "page.svg"
    argv = ["sweep", "--space", space, *flags, "--csv", str(csv_path), "--svg", str(svg_path)]
    assert main(argv) == 0
    capsys.readouterr()
    axes = _axes(space, flags)
    swept = [i for i, a in enumerate(axes) if len(a) > 1]
    u, v = (axes[i] for i in swept)
    det_a = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=6).reshape(len(u), len(v))
    segments = [
        seg for p in _sweep_locus(space == "joint", axes, ManipulatorGeometry(scale))
        for seg in zip(p[:-1].tolist(), p[1:].tolist())
    ]
    # The SVG draws the same pieces, one polyline each, in the page's frame.
    locus = r'<polyline points="([^"]*)" fill="none" stroke="#c02020"'
    drawn = re.findall(locus, svg_path.read_text())
    assert sum(len(s.split()) - 1 for s in drawn) == len(segments)
    sign = det_a >= 0.0
    changes = 0
    for i in range(len(u) - 1):
        for j in range(len(v) - 1):
            corners, signs = det_a[i : i + 2, j : j + 2], sign[i : i + 2, j : j + 2]
            if np.isnan(corners).any() or signs.all() or not signs.any():
                continue  # an anchor row, or no sign change
            changes += 1
            du, dv = 1e-9 * abs(u[i + 1] - u[i]), 1e-9 * abs(v[j + 1] - v[j])
            cell = (sorted((u[i], u[i + 1])), sorted((v[j], v[j + 1])))
            cell = ((cell[0][0] - du, cell[0][1] + du), (cell[1][0] - dv, cell[1][1] + dv))
            assert any(_hits(seg, cell) for seg in segments), (i, j, corners)
    assert changes


@pytest.mark.parametrize("space, flags", PAGES)
def test_pieces_end_only_on_a_side_or_where_they_meet(scale, space, flags):
    # A piece stops where the locus leaves the page, or where the two roots
    # of a phi-swept page meet (and the circle's seam at s = -pi, pi): never
    # short of either.
    flags = _scaled(flags, scale) if space == "cartesian" else flags
    axes = _axes(space, flags)
    swept = [i for i, a in enumerate(axes) if len(a) > 1]
    box = np.sort([[axes[i][0], axes[i][-1]] for i in swept], axis=1)
    tol = 1e-6 * (box[:, 1] - box[:, 0])
    pieces = _sweep_locus(space == "joint", axes, ManipulatorGeometry(scale))
    ends = [p[k] for p in pieces for k in (0, -1)]
    for i, end in enumerate(ends):
        on_side = (np.abs(end[:, None] - box) <= tol[:, None]).any()
        meets = any((np.abs(end - other) <= tol).all() for j, other in enumerate(ends) if j != i)
        assert on_side or meets, end


@pytest.mark.parametrize("flags", [CARTESIAN_PAGES[2], CARTESIAN_PAGES[5], CARTESIAN_PAGES[4]])
def test_a_phi_swept_page_spanning_zero_draws_the_phi_zero_line(scale, flags):
    flags = _scaled(flags, scale)
    axes = _axes("cartesian", flags)
    swept = [i for i, a in enumerate(axes) if len(a) > 1]
    u, v = (axes[i] for i in swept)
    lines = {
        p[0, 1] for p in _sweep_locus(False, axes, ManipulatorGeometry(scale))
        if len(p) == 2 and p[0, 1] == p[1, 1] and sorted(p[:, 0]) == sorted((u[0], u[-1]))
    }
    lo, hi = sorted((v[0], v[-1]))
    turns = range(math.ceil(lo / (2 * math.pi)), math.floor(hi / (2 * math.pi)) + 1)
    assert lines == {2 * math.pi * k for k in turns}
    assert 0.0 in lines


@pytest.mark.parametrize("flags", [
    ("--x=-0.5:1.5:21", "--y=0", "--phi=-1:1:21"),
    ("--x=0", "--y=1.5:-0.5:19", "--phi=-3:2:23"),
])
def test_a_phi_swept_page_through_a1_draws_no_line_of_anchor_hits(scale, flags):
    # Every circle passes through a1, so with the fixed position 0 one root
    # is a1 at each phi: poses whose leg 1 has zero length, the CSV's
    # Serial rows with no det A, across which det A jumps sign as leg 1
    # turns over.  The other root, 2 C(phi), may pass through a1 once; no
    # segment runs along it.
    axes = _axes("cartesian", _scaled(flags, scale))
    pieces = _sweep_locus(False, axes, ManipulatorGeometry(scale))
    assert pieces
    assert not any(((p[:-1, 0] == 0.0) & (p[1:, 0] == 0.0)).any() for p in pieces)


def test_a_phi_zero_page_draws_no_curve(scale, tmp_path, capsys):
    # At phi = 0 every pose of the page is parallel singular (one row, the
    # anchor hit, is Serial): there is no curve to draw.
    flags = _scaled(("--x=-0.5:1.5:25", "--y=-0.5:1.5:25", "--phi=0"), scale)
    assert _sweep_locus(False, _axes("cartesian", flags), ManipulatorGeometry(scale)) == []
    csv_path, svg_path = tmp_path / "page.csv", tmp_path / "page.svg"
    argv = ["sweep", "--space", "cartesian", *flags, "--csv", str(csv_path), "--svg", str(svg_path)]
    assert main(argv) == 0
    capsys.readouterr()
    kinds = [line.rsplit(",", 1)[1] for line in csv_path.read_text().splitlines()[1:]]
    assert kinds.count("Parallel") == 624 and kinds.count("Serial") == 1
    svg = svg_path.read_text()
    assert "#c02020" not in svg and "<line" not in svg


@pytest.mark.parametrize(
    "axes",
    [
        ("joint", "--t1=-3:3:5", "--t2=0:1e6:2", "--t3=0.7"),
        ("joint", "--t1=-1e300:1e6:3", "--t2=0:1:3", "--t3=0.7"),
        ("cartesian", "--x=0:1:3", "--y=0.3", "--phi=-1e300:1:5"),
    ],
)
def test_a_page_too_coarse_for_its_repeats_is_a_usage_error(tmp_path, capsys, axes):
    # A branch repeating more than twice per sample of an axis cannot be
    # drawn on the page's grid: exit 1 with one line, before any file.
    space, *flags = axes
    csv_path, svg_path = tmp_path / "x.csv", tmp_path / "x.svg"
    code = main(["sweep", "--space", space, *flags, "--csv", str(csv_path), "--svg", str(svg_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "repeats" in captured.err
    assert not csv_path.exists() and not svg_path.exists()


# ------------------------------------------------------------ the identity


def _right_side(pose, scale):
    cx, cy = _center(pose.phi, scale)
    f = pose.x * pose.x + pose.y * pose.y - 2.0 * (pose.x * cx + pose.y * cy)
    return -SQRT3 * scale * scale * math.sin(pose.phi / 2.0) ** 2 * f


def _identity_poses(scale, rng, count=3000):
    """Seeded poses with random IK branches: phi uniform, within 1e-12..0.1 of
    0 and of +-pi, and with the pole on the base circumcircle."""
    for k in range(count):
        mode = k % 4
        if mode == 0:
            phi = rng.uniform(-math.pi, math.pi)
        elif mode == 1:
            phi = rng.choice([-1.0, 1.0]) * 10.0 ** -rng.uniform(1.0, 12.0)
        else:
            phi = rng.choice([-1.0, 1.0]) * (math.pi - 10.0 ** -rng.uniform(1.0, 12.0))
        if mode == 3:
            cx, cy = _center(phi, scale)
            a = rng.uniform(-math.pi, math.pi)
            r = math.hypot(cx, cy)
            x, y = cx + r * math.cos(a), cy + r * math.sin(a)
        else:
            x, y = rng.uniform(-0.5 * scale, 1.5 * scale, 2).tolist()
        pose = Pose(float(x), float(y), float(phi))
        branch = tuple(rng.integers(0, 2, 3).tolist())
        try:
            theta = inverse_kinematics(pose, branch=branch, geometry=ManipulatorGeometry(scale)).angles
        except LegAtAnchorError:
            continue
        yield pose, theta


@pytest.mark.parametrize("scale", [1.0, 1.7, 1e-3, 1e3])
def test_det_a_det_b_is_the_pole_identity(scale):
    geometry = ManipulatorGeometry(scale)
    worst = 0.0
    for pose, theta in _identity_poses(scale, np.random.default_rng(12)):
        mats = build_matrices(pose, theta, geometry=geometry)
        gap = abs(mats.det_a * mats.det_b - _right_side(pose, scale)) / scale**4
        worst = max(worst, gap)
        assert gap <= IDENTITY_TOL, (pose, theta, gap)
    assert worst > 0.0


@pytest.mark.parametrize("scale", [1.0, 1.7, 1e-3, 1e3])
def test_the_parallel_kind_follows_the_pole_rule(scale):
    # det A is the right side over det B to within IDENTITY_TOL s^4 / |det B|;
    # outside that band around the threshold the kind must follow.
    geometry = ManipulatorGeometry(scale)
    seen = set()
    for pose, theta in _identity_poses(scale, np.random.default_rng(13)):
        report = classify_singularity(pose, theta, geometry=geometry)
        if report.det_b == 0.0:
            continue
        predicted = _right_side(pose, scale) / report.det_b
        band = IDENTITY_TOL * scale**4 / abs(report.det_b)
        if abs(abs(predicted) - PARALLEL_DET_TOL * scale) <= band:
            continue
        parallel = report.kind in (SingularityKind.PARALLEL, SingularityKind.BOTH)
        assert parallel == (abs(predicted) < PARALLEL_DET_TOL * scale), (pose, predicted, report)
        seen.add(parallel)
    assert seen == {True, False}
