"""The scalar API on floats: one formula body serves floats and columns,
and on floats it must stay off the array kernels and keep the overflow
guards of the leg lengths and of det B."""

import math

import numpy as np
import pytest

from rpr3 import coupler, geometry, jacobians, solvers
from rpr3.coupler import rho_from_phi
from rpr3.errors import GeometryError, Rpr3Error
from rpr3.geometry import ManipulatorGeometry, Pose, constraint_residuals
from rpr3.jacobians import KinematicMatrices, SingularityKind, build_matrices, classify_singularity
from rpr3.solvers import DkKind, classify_dk_degeneracy, direct_kinematics, inverse_kinematics
from _reference import signed_extensions
from trend import count_calls, counted_op

PI3 = math.pi / 3.0
POSES = [Pose(0.4, 0.3, 0.2), Pose(-0.0, 0.4, -0.0), Pose(0.5, 0.0, 0.0), Pose(1.3, -0.7, 3.0)]
TRIPLES = [(0.2, 0.9, 2.0), (0.3, 0.3, 0.3 + math.pi), (0.1, 0.1 + PI3, 0.1 - PI3), (0.0, 0.0, 1.0)]


def _calls():
    """(name, thunk) for each scalar entry point: at regular poses, signed
    zeros, a parallel singularity (all legs horizontal) and a pose on the
    base anchors, and at generic, translation, Reuleaux and degenerate
    triples."""
    calls = [("ik-at-anchor", lambda: inverse_kinematics(Pose(0.0, 0.0, 0.0)))]
    for k, pose in enumerate(POSES):
        theta = inverse_kinematics(pose).angles
        calls += [
            (f"ik{k}", lambda p=pose: inverse_kinematics(p, branch=(0, 1, 0))),
            # pose-stream's hand-off from IK to the singularity report and DK
            (f"angles{k}", lambda p=pose: inverse_kinematics(p, branch=(1, 0, 1)).angles.as_tuple()),
            (f"residuals{k}", lambda p=pose, t=theta: constraint_residuals(p, t)),
            (f"extensions{k}", lambda p=pose, t=theta: signed_extensions(p, t)),
            (f"matrices{k}", lambda p=pose, t=theta: build_matrices(p, t)),
            (f"singularity{k}", lambda p=pose, t=theta: classify_singularity(p, t)),
        ]
    for k, triple in enumerate(TRIPLES):
        calls += [
            (f"degeneracy{k}", lambda t=triple: classify_dk_degeneracy(t)),
            (f"dk{k}", lambda t=triple: direct_kinematics(t)),
            (f"rho{k}", lambda t=triple: rho_from_phi(t[0], t[1] + 0.5, 0.7)),
        ]
    return calls


def _outcome(call):
    """The result's repr, which tells -0.0 from 0.0, or the error raised;
    matrices by their bytes."""
    try:
        value = call()
    except Rpr3Error as exc:
        return repr(exc)
    if isinstance(value, KinematicMatrices):
        return (value.a_matrix.tobytes(), value.b_matrix.tobytes(), repr(value.det_a),
                repr(value.det_b), value.scale)
    return repr(value)


def test_float_path_makes_no_kernel_call(monkeypatch):
    want = {name: _outcome(call) for name, call in _calls()}

    def boom(*args, **kwargs):
        raise AssertionError("the float path reached an array kernel")

    # The column form binds its kernels when the module loads, so it is
    # trapped member by member, besides the kernels' module names.
    for name in vars(geometry._COLUMNS):
        monkeypatch.setattr(geometry._COLUMNS, name, boom)
    for module in (geometry, solvers, jacobians, coupler):
        for name in ("_libm", "_first_nonfinite", "_check_rows"):
            monkeypatch.setattr(module, name, boom, raising=False)
    monkeypatch.setattr(np, "errstate", boom)
    got = {name: _outcome(call) for name, call in _calls()}
    assert got == want


def test_float_path_keeps_the_overflow_guard():
    # At the largest scale a leg length, the hypot of a finite offset, leaves
    # the float range at the range's corner; det B, a product of three leg
    # lengths, leaves it far sooner.
    far = ManipulatorGeometry(1e100)
    corner = Pose(1.7976931348623157e308, 1.7976931348623157e308, 0.0)
    with pytest.raises(GeometryError, match=r"rho must be finite, got inf"):
        inverse_kinematics(corner, geometry=far)
    pose = Pose(1e150, 3e100, 1.0)
    theta = inverse_kinematics(pose, geometry=far).angles
    with pytest.raises(GeometryError, match=r"det B overflows at x=1e\+150"):
        build_matrices(pose, theta, geometry=far)


def _reuleaux_pose(t1, phi):
    """The pose at ``phi`` of the straight-line continuum of
    (t1, t1 + pi/3, t1 - pi/3), a parallel singularity, with those angles."""
    rho1, _ = rho_from_phi(t1, t1 + PI3, phi)
    return Pose(rho1 * math.cos(t1), rho1 * math.sin(t1), phi), (t1, t1 + PI3, t1 - PI3)


def test_singularity_report_builds_no_array(monkeypatch):
    # det A comes from the rows of A on floats, and the normal lines of a
    # parallel singularity from those rows too; only build_matrices, which
    # returns A itself, makes an array.
    calls = [(pose, inverse_kinematics(pose).angles) for pose in POSES]
    calls.append(_reuleaux_pose(0.1, 0.5))
    want = [repr(classify_singularity(pose, theta)) for pose, theta in calls]
    assert classify_singularity(*calls[-1]).intersection_point is not None

    def boom(*args, **kwargs):
        raise AssertionError("the singularity report built an array")

    for name in ("array", "diag"):
        monkeypatch.setattr(np, name, boom)
    monkeypatch.setattr(np.linalg, "det", boom)
    assert [repr(classify_singularity(pose, theta)) for pose, theta in calls] == want


def test_a_pose_of_numpy_scalars_gives_python_floats():
    pose = Pose(np.float64(0.3), np.float64(0.2), np.float64(0.1))
    ik = inverse_kinematics(pose)
    report = classify_singularity(pose, ik.angles)
    values = [*pose.as_tuple(), *ik.rhos(), *ik.angles, report.det_a, report.det_b]
    values += [*constraint_residuals(pose, ik.angles), *signed_extensions(pose, ik.angles)]
    for solved in direct_kinematics(ik.angles).poses:
        values += solved.as_tuple()
    singular, theta = _reuleaux_pose(np.float64(0.1), np.float64(0.5))
    point = classify_singularity(Pose(*map(np.float64, singular.as_tuple())), theta).intersection_point
    values += [point.x, point.y]
    assert [type(v).__name__ for v in values] == ["float"] * len(values)


# Python calls in rpr3 of one pose-stream op, counted by trend.count_calls;
# the same count on CPython 3.10 to 3.13, since no comprehension or generator
# runs on this path.
POSE_STREAM_CALL_BUDGET = 44


def test_a_pose_stream_op_stays_within_its_call_budget():
    report, solutions = counted_op()
    assert report.kind is SingularityKind.REGULAR and solutions.kind is DkKind.TWO_SOLUTIONS
    calls = count_calls(counted_op)
    total = sum(calls.values())
    assert total <= POSE_STREAM_CALL_BUDGET, (
        f"{total} Python calls per pose-stream op, budget {POSE_STREAM_CALL_BUDGET}: "
        f"{dict(calls.most_common())}"
    )
    # Each body takes its form from its caller, and a finite rho is one test.
    assert not {"_form", "_finite_rho"} & set(calls), dict(calls.most_common())
