"""Array kernels against the scalar API they batch.

The kernels promise bit-for-bit agreement with the scalar functions, not
agreement within a tolerance: ``sweep`` writes their output with 17
significant digits, and its artifacts must not depend on which path ran.
"""

import itertools
import json
import math

import numpy as np
import pytest

from rpr3.cli import _parse_axis, main
from rpr3.errors import GeometryError, InconsistentStateError, LegAtAnchorError
from rpr3.figio import write_csv
from rpr3.geometry import (
    _COLUMNS,
    _FLOATS,
    ManipulatorGeometry,
    Pose,
    _first_nonfinite,
    _leg_axis,
    _leg_columns,
    _libm,
    _place_anchors,
    angle_differences,
    normalize_angle,
    normalize_angles,
    platform_anchor,
)
from rpr3.jacobians import (
    PARALLEL_DET_TOL,
    SERIAL_RHO_TOL,
    SingularityKind,
    _check_rows,
    _velocity_terms,
    build_matrices,
    build_matrices_array,
    classify_singularity,
)
from rpr3.solvers import (
    _DK_KINDS,
    _aim_legs,
    _continuum,
    classify_dk_degeneracy,
    inverse_kinematics,
    inverse_kinematics_array,
)
from _reference import angle_difference

PI3 = math.pi / 3.0
GEOMETRIES = [ManipulatorGeometry(1.0), ManipulatorGeometry(2.0)]
EDGE_ANGLES = [
    0.0, -0.0, math.pi, -math.pi, math.tau, -math.tau, 3 * math.pi, -3 * math.pi,
    PI3, -PI3, 1e-300, -1e-300, 1e6, -1e6, 2.5e-9, math.nextafter(math.pi, 0.0),
]


def _bits(values):
    """float64 bit patterns, so that -0.0 and 0.0 count as different."""
    return np.asarray(values, dtype=float).view(np.uint64)


def _assert_bit_equal(got, want):
    np.testing.assert_array_equal(_bits(got), _bits(want))


def _dk_kinds(theta):
    """The :class:`DkKind` of each row of an (N, 3) angle array, from the
    continuum rule the joint page runs on its columns."""
    return np.array(_DK_KINDS, dtype=object)[_continuum(_COLUMNS, *theta.T)]


def _cartesian_scalar(x, y, phi, geom):
    """What the per-point sweep computed for each pose: IK branch 000, then
    the singularity report; a pose on a base anchor is serial with nan
    angles, detA nan and detB 0."""
    thetas, kinds, det_a, det_b = [], [], [], []
    for px, py, pphi in zip(x.tolist(), y.tolist(), phi.tolist()):
        pose = Pose(px, py, pphi)
        try:
            theta = inverse_kinematics(pose, geometry=geom).angles.as_tuple()
        except LegAtAnchorError:
            thetas.append((math.nan,) * 3)
            kinds.append("Serial")
            det_a.append(math.nan)
            det_b.append(0.0)
            continue
        report = _report_matching_matrices(pose, theta, geom)
        thetas.append(theta)
        kinds.append(report.kind.value)
        det_a.append(report.det_a)
        det_b.append(report.det_b)
    return np.array(thetas), kinds, det_a, det_b


def _report_matching_matrices(pose, theta, geom):
    """classify_singularity at a configuration, after checking that its
    det A, det B, kind and zero legs are build_matrices' own, bit for bit
    (the two share one body)."""
    report = classify_singularity(pose, theta, geometry=geom)
    mats = build_matrices(pose, theta, geometry=geom)
    _assert_bit_equal([report.det_a, report.det_b], [mats.det_a, mats.det_b])
    parallel = report.kind in (SingularityKind.PARALLEL, SingularityKind.BOTH)
    assert parallel is (abs(mats.det_a) < PARALLEL_DET_TOL * geom.scale)
    zero = np.flatnonzero(np.abs(np.diagonal(mats.b_matrix)) < SERIAL_RHO_TOL * geom.scale) + 1
    assert report.zero_rho_legs == tuple(zero.tolist())
    return report


def _cartesian_array(x, y, phi, geom):
    theta, at_anchor = inverse_kinematics_array(x, y, phi, geometry=geom)
    ok = ~at_anchor
    mats = build_matrices_array(x[ok], y[ok], phi[ok], theta[ok], geometry=geom)
    kinds = np.full(len(x), "Serial", dtype=object)
    kinds[ok] = [k.value for k in mats.singularity_kinds()]
    det_a = np.full(len(x), math.nan)
    det_a[ok] = mats.det_a
    det_b = np.zeros(len(x))
    det_b[ok] = mats.det_b
    return theta, list(kinds), det_a, det_b


def _cartesian_cases(geom):
    s = geom.scale
    rng = np.random.default_rng(11)
    line = np.linspace(0.1, 2.0, 9) * s
    grid_x, grid_y = np.meshgrid(np.linspace(-0.5, 1.5, 9) * s, np.linspace(-0.5, 1.5, 9) * s)
    return {
        # all three legs, then leg 2 alone, then leg 3 alone on its anchor
        "anchor hit": (
            [0.0, 2.0 * s, s],
            [0.0, 0.0, math.sqrt(3.0) * s],
            [0.0, math.pi, math.pi],
        ),
        "horizontal legs": (line, np.zeros(9), np.zeros(9)),
        "grid with anchor": (grid_x.ravel(), grid_y.ravel(), np.full(81, 0.3)),
        "random": (
            rng.uniform(-0.5 * s, 1.5 * s, 400),
            rng.uniform(-0.5 * s, 1.5 * s, 400),
            rng.uniform(-4.0, 4.0, 400),
        ),
    }


@pytest.mark.parametrize("geom", GEOMETRIES, ids=["scale1", "scale2"])
@pytest.mark.parametrize("case", ["anchor hit", "horizontal legs", "grid with anchor", "random"])
def test_cartesian_kernels_match_scalar_path(geom, case):
    x, y, phi = (np.asarray(v, dtype=float) for v in _cartesian_cases(geom)[case])
    want_theta, want_kinds, want_a, want_b = _cartesian_scalar(x, y, phi, geom)
    got_theta, got_kinds, got_a, got_b = _cartesian_array(x, y, phi, geom)
    assert got_kinds == want_kinds
    _assert_bit_equal(got_theta, want_theta)
    _assert_bit_equal(got_a, want_a)
    _assert_bit_equal(got_b, want_b)
    if case == "anchor hit":
        assert got_kinds == ["Serial"] * 3
    if case == "horizontal legs":
        assert set(got_kinds) == {"Parallel"}


@pytest.mark.parametrize("geom", GEOMETRIES, ids=["scale1", "scale2"])
@pytest.mark.parametrize("branch", list(itertools.product((0, 1), repeat=3)))
def test_singularity_report_matches_matrices_on_every_branch(geom, branch):
    s = geom.scale
    rng = np.random.default_rng(14)
    poses = [Pose(*p) for p in zip(*_cartesian_cases(geom)["random"])][:60]
    poses += [Pose(x, 0.0, 0.0) for x in np.linspace(0.1, 2.0, 5) * s]  # horizontal legs
    kinds = set()
    for pose in poses:
        theta = inverse_kinematics(pose, branch, geometry=geom).angles.as_tuple()
        kinds.add(_report_matching_matrices(pose, theta, geom).kind)
    # At the trivial pose every leg sits on its anchor, for any angles.
    for theta in rng.uniform(-math.pi, math.pi, (5, 3)).tolist() + [[0.4] * 3]:
        kinds.add(_report_matching_matrices(Pose(0.0, 0.0, 0.0), theta, geom).kind)
    assert kinds == set(SingularityKind)


def _joint_cases():
    rng = np.random.default_rng(12)
    t = np.linspace(-3.0, 3.0, 7)
    return {
        "translation diagonal": np.stack([t, t, t], axis=1),
        "translation flipped": np.stack([t, t + math.pi, t - math.pi], axis=1),
        "reuleaux": np.stack([t, t + PI3, t - PI3], axis=1),
        "reuleaux printed": np.array([[0.0, 1.04719755, -1.04719755]]),
        "swapped offsets": np.stack([t, t - PI3, t + PI3], axis=1),
        "random": rng.uniform(-4.0, 4.0, (400, 3)),
    }


@pytest.mark.parametrize("geom", GEOMETRIES, ids=["scale1", "scale2"])
@pytest.mark.parametrize("case", sorted(_joint_cases()))
def test_joint_kernels_match_scalar_path(geom, case):
    theta = _joint_cases()[case]
    identity = Pose(0.0, 0.0, 0.0)
    want = [build_matrices(identity, t, geometry=geom) for t in theta.tolist()]
    zeros = np.zeros(len(theta))
    got = build_matrices_array(zeros, zeros, zeros, theta, geometry=geom)
    _assert_bit_equal(got.det_a, [m.det_a for m in want])
    _assert_bit_equal(got.det_b, [m.det_b for m in want])
    _assert_bit_equal(got.a_matrix, [m.a_matrix for m in want])
    kinds = _dk_kinds(theta)
    assert list(kinds) == [classify_dk_degeneracy(t) for t in theta.tolist()]
    expected = {
        "translation diagonal": "ContinuumTranslation",
        "translation flipped": "ContinuumTranslation",
        "reuleaux": "ContinuumReuleaux",
        "reuleaux printed": "ContinuumReuleaux",
        "swapped offsets": "TwoSolutions",
    }.get(case)
    if expected:
        assert {k.value for k in kinds} == {expected}


def test_angle_kernels_match_scalar_functions():
    rng = np.random.default_rng(13)
    values = np.concatenate([EDGE_ANGLES, rng.uniform(-50.0, 50.0, 2000)])
    _assert_bit_equal(normalize_angles(values), [normalize_angle(v) for v in values.tolist()])
    other = np.concatenate([EDGE_ANGLES[::-1], rng.uniform(-50.0, 50.0, 2000)])
    for period in (math.tau, math.pi):
        _assert_bit_equal(
            angle_differences(values, other, period),
            [angle_difference(a, b, period) for a, b in zip(values.tolist(), other.tolist())],
        )
    with pytest.raises(ValueError):
        normalize_angles(np.array([0.0, math.nan]))


@pytest.mark.parametrize("geom", GEOMETRIES, ids=["scale1", "scale2"])
def test_anchor_kernel_matches_platform_anchor(geom):
    x = np.array([0.0, -0.0, 0.3, -1.7])
    y = np.array([0.0, -0.0, 1.1, 0.4])
    phi = np.array([-math.pi, -0.0, 7.0, 0.25])
    _, _, legs = _leg_columns(x, y, phi, geom)
    for k, (px, py, pphi) in enumerate(zip(x.tolist(), y.tolist(), phi.tolist())):
        for leg, (bx, by, _, _) in enumerate(legs, start=1):
            want = platform_anchor(Pose(px, py, pphi), leg, geometry=geom)
            _assert_bit_equal([bx[k], by[k]], [want.x, want.y])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positions must be finite"):
            _leg_columns(np.array([0.0, bad]), np.zeros(2), np.zeros(2), geom)
        with pytest.raises(ValueError, match="positions must be finite"):
            _leg_columns(np.zeros(2), np.array([bad, 0.0]), np.zeros(2), geom)


def test_matrices_kernel_keeps_the_consistency_gate():
    pose = Pose(0.4, 0.3, 0.2)
    theta = inverse_kinematics(pose).angles.as_tuple()
    bent = (theta[0], theta[1] + 1e-3, theta[2])
    with pytest.raises(InconsistentStateError) as scalar:
        build_matrices(pose, bent)
    x, y, phi = (np.full(3, v) for v in pose.as_tuple())
    with pytest.raises(InconsistentStateError) as batch:
        build_matrices_array(x, y, phi, np.array([theta, bent, bent]))
    assert batch.value.residuals == scalar.value.residuals
    assert batch.value.tol == scalar.value.tol


def test_kernels_accept_empty_batches():
    empty = np.zeros(0)
    theta, at_anchor = inverse_kinematics_array(empty, empty, empty)
    assert theta.shape == (0, 3) and at_anchor.shape == (0,)
    mats = build_matrices_array(empty, empty, empty, theta)
    assert mats.det_a.shape == (0,) and mats.singularity_kinds().shape == (0,)
    assert _dk_kinds(theta).shape == (0,)


def _leaves(value):
    """The leaves of a body's nested tuples and lists, in order."""
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _one_element_grid(value):
    """``value`` with every float leaf made a one-element column."""
    if isinstance(value, (tuple, list)):
        return type(value)(map(_one_element_grid, value))
    return np.array([value])


# Each formula body that floats and columns share, called in the form given
# on its arguments: the leg offsets of a pose and a triple of leg angles.
_SHARED_BODIES = {
    "_leg_axis": lambda f, x, y, legs, t: _leg_axis(f, t[0], legs[0][2], legs[0][3]),
    "_velocity_terms": lambda f, x, y, legs, t: _velocity_terms(f, x, y, t, legs),
    "_aim_legs": lambda f, x, y, legs, t: list(_aim_legs(f, legs, (1, 0, 1), 1.0)),
    "_continuum": lambda f, x, y, legs, t: _continuum(f, *t),
}


@pytest.mark.parametrize("body", sorted(_SHARED_BODIES))
def test_shared_bodies_take_their_form_from_the_caller(body):
    # On a one-element grid, math's functions would accept a wrongly passed
    # float form and return floats: every leaf must be a column, bit-equal
    # to the float result.
    run, kinds = _SHARED_BODIES[body], set()
    poses = [(0.4, 0.3, 0.2), (-0.0, 0.4, -0.0), (0.0, 0.0, 0.0), (1.3, -0.7, 3.0)]
    triples = [
        (0.2, 0.9, 2.0), (0.3, 0.3, 0.3 + math.pi), (0.1, 0.1 + PI3, 0.1 - PI3), (-0.0, math.pi, 0.0),
    ]
    for (x, y, phi), t in itertools.product(poses, triples):
        c, s = math.cos(phi), math.sin(phi)
        legs = _place_anchors(x, y, c, s, ManipulatorGeometry(1.0)._anchor_pairs)
        floats = (x, y, legs, t)
        want = _leaves(run(_FLOATS, *floats))
        got = _leaves(run(_COLUMNS, *_one_element_grid(floats)))
        assert len(got) == len(want)
        for column, value in zip(got, want):
            assert isinstance(column, np.ndarray) and column.shape == (1,)
            _assert_bit_equal(column, [value])
        if body == "_continuum":
            kinds.update(want)
    assert body != "_continuum" or kinds == {0, 1, 2}


# ------------------------------------------------- broadcasting and guards


@pytest.mark.parametrize(
    "shapes", [((5,), (5,)), ((2, 1), (1, 3)), ((4,), (3, 4)), ((2, 1, 3), (1, 4, 1)), ((), (3,))]
)
@pytest.mark.parametrize("fn", [math.atan2, math.hypot])
def test_libm_broadcasts_like_a_per_element_loop(shapes, fn):
    rng = np.random.default_rng(15)
    a, b = (rng.uniform(-3.0, 3.0, shape) for shape in shapes)
    want = np.array([fn(p, q) for p, q in np.broadcast(a, b)]).reshape(np.broadcast_shapes(*shapes))
    got = _libm(fn, a, b)
    assert got.shape == want.shape
    _assert_bit_equal(got, want)


@pytest.mark.parametrize("shapes", [((2,), (5,)), ((2, 1), (3, 2))])
def test_libm_refuses_shapes_that_do_not_broadcast(shapes):
    with pytest.raises(ValueError):
        _libm(math.atan2, *(np.ones(shape) for shape in shapes))


def test_first_nonfinite_names_the_first_bad_row_in_c_order():
    seen = []
    a = np.arange(3.0).reshape(3, 1, 1)
    b = np.zeros((1, 4, 2))
    b[0, 3, 0] = math.inf  # rows (k, 3, 0) for every k
    c = np.zeros((3, 4, 2))
    c[2, 0, 1] = math.nan
    c[1, 3, 1] = -math.inf  # after b's (1, 3, 0) in C order
    _first_nonfinite(lambda *row: seen.append(row), a, b, c)
    assert seen == [(0.0, math.inf, 0.0)]
    seen.clear()
    _first_nonfinite(lambda *row: seen.append(row), a, c)
    assert seen == [(1.0, -math.inf)]
    seen.clear()
    _first_nonfinite(lambda *row: seen.append(row), a, np.zeros((1, 4, 2)))
    assert seen == []


def test_check_rows_raises_for_the_first_flagged_row_in_c_order():
    # Columns along their own axes, as on a sparse grid: x along the first,
    # y along the second, and one residual per leg varying on both or one.
    x = np.array([0.1, 0.2, 0.3]).reshape(3, 1)
    y = np.array([0.5, 0.6]).reshape(1, 2)
    det_b = np.ones((3, 2))
    r1 = np.zeros((3, 2))
    r2 = np.zeros((1, 2))
    r3 = np.zeros((3, 1))
    r1[2, 0] = 1e-3
    r3[1, 0] = -2e-3  # rows (1, 0) and (1, 1): first in C order
    with pytest.raises(InconsistentStateError) as exc:
        _check_rows(x, y, 1.0, det_b, r1, r2, r3)
    assert exc.value.residuals == (0.0, 0.0, -2e-3)
    r3[1, 0] = 0.0
    with pytest.raises(InconsistentStateError) as exc:
        _check_rows(x, y, 1.0, det_b, r1, r2, r3)
    assert exc.value.residuals == (1e-3, 0.0, 0.0)
    det_b[0, 1] = math.inf
    with pytest.raises(GeometryError, match=r"det B overflows at x=0\.1, y=0\.6"):
        _check_rows(x, y, 1.0, det_b, r1, r2, r3)
    r1[2, 0] = 0.0
    det_b[0, 1] = 1.0
    _check_rows(x, y, 1.0, det_b, r1, r2, r3)


# ------------------------------------- sweep pages on their sparse grids


def _flat_page(space, axes, deg, geom):
    """A sweep page's table and kind labels from the public kernels on the
    flattened grid, one (N,) column per axis with every grid point in C
    order; the sweep itself runs the same bodies on the axes' sparse grid."""
    grid = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    if space == "joint":
        theta = np.stack(grid, axis=1)
        x = y = phi = np.zeros(len(theta))
        mats = build_matrices_array(x, y, phi, theta, geometry=geom)
        det_a, det_b = mats.det_a, mats.det_b
        kinds = _dk_kinds(theta)
    else:
        x, y, phi = grid[0], grid[1], normalize_angles(grid[2])
        theta, at_anchor = inverse_kinematics_array(x, y, phi, geometry=geom)
        ok = ~at_anchor
        mats = build_matrices_array(x[ok], y[ok], phi[ok], theta[ok], geometry=geom)
        det_a = np.full(len(x), math.nan)
        det_a[ok] = mats.det_a
        det_b = np.zeros(len(x))
        det_b[ok] = mats.det_b
        kinds = np.full(len(x), SingularityKind.SERIAL, dtype=object)
        kinds[ok] = mats.singularity_kinds()
    out = np.degrees if deg else np.asarray
    table = np.column_stack((out(theta), x, y, out(phi), det_a, det_b))
    return table, [kind.value for kind in kinds]


SPARSE_PAGES = {
    "t1-t2": ("joint", ("--t1=-3:3:13", "--t2=-2:2.5:11", "--t3=0.7")),
    "t1-t3": ("joint", ("--t1=-3:3:13", "--t2=0.4", "--t3=-3.1:3:9")),
    "t2-t3": ("joint", ("--t1=-0.2", "--t2=-3:3:13", "--t3=-3.1:3:9")),
    "t1-t2-t3": ("joint", ("--t1=-3:3:5", "--t2=-2:2:4", "--t3=-1:1:3")),
    # Steps of 30 degrees: the translation and Reuleaux continua are rows.
    "t2-t3-deg": ("joint", ("--deg", "--t1=0", "--t2=-180:180:13", "--t3=-180:180:13")),
    # Steps of 0.25 from -0.5: (0, 0) puts leg 1 on its anchor.
    "x-y": ("cartesian", ("--x=-0.5:1.5:9", "--y=-0.5:1.5:9", "--phi=0.3")),
    "x-y-phi-zero": ("cartesian", ("--x=-0.5:1.5:9", "--y=-0.5:1.5:9", "--phi=0.0")),
    "x-y-phi-minus-zero": ("cartesian", ("--x=-0.5:1.5:9", "--y=-0.5:1.5:9", "--phi=-0.0")),
    "x-phi": ("cartesian", ("--x=-0.5:1.5:9", "--y=0.0", "--phi=-3:3:7")),
    "y-phi": ("cartesian", ("--x=0.25", "--y=-1:1:9", "--phi=-3:7:7")),
    "x-y-phi": ("cartesian", ("--x=0:1:5", "--y=0:1:5", "--phi=-3:3:5")),
    "x-phi-deg": ("cartesian", ("--deg", "--x=-0.5:1.5:9", "--y=0", "--phi=-170:190:7")),
}


@pytest.mark.parametrize("scale", [1.0, 2.0])
@pytest.mark.parametrize("page", list(SPARSE_PAGES))
def test_sweep_pages_equal_the_flattened_kernels(tmp_path, capsys, monkeypatch, page, scale):
    space, flags = SPARSE_PAGES[page]
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"scale": scale}))
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    got = tmp_path / "got.csv"
    assert main(["sweep", "--space", space, *flags, "--csv", str(got)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]

    deg = "--deg" in flags
    specs = dict(flag.lstrip("-").split("=") for flag in flags if flag != "--deg")
    names = ("t1", "t2", "t3") if space == "joint" else ("x", "y", "phi")
    axes = [_parse_axis(name, specs[name], deg) for name in names]
    table, labels = _flat_page(space, axes, deg, ManipulatorGeometry(scale))
    want = tmp_path / "want.csv"
    header = ("theta1", "theta2", "theta3", "x", "y", "phi", "detA", "detB", "kind")
    assert write_csv(str(want), header, table, labels) == rows == math.prod(map(len, axes))
    assert got.read_bytes() == want.read_bytes()
    if page == "t2-t3-deg":
        assert {"ContinuumTranslation", "ContinuumReuleaux"} <= set(labels)
    if space == "cartesian" and page.startswith("x-"):  # (0, 0): leg 1 on its anchor
        assert "Serial" in labels and np.isnan(table[:, 0]).any()
