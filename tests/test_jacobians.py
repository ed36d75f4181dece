"""Velocity-level model: the A/B matrix pair and its degeneracies."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rpr3.errors import InconsistentStateError, LegAtAnchorError
from rpr3.geometry import (
    DEFAULT_GEOMETRY,
    _as_angles,
    _best_pair,
    ManipulatorGeometry,
    Pose,
    constraint_residuals,
    platform_anchor,
)
from rpr3.jacobians import (
    PARALLEL_DET_TOL,
    SingularityKind,
    build_matrices,
    build_matrices_array,
    _configuration,
    _normal_intersection,
    classify_singularity,
)
from rpr3.solvers import inverse_kinematics, mn_coefficients
from _reference import det_A_specialized, kernel_kinds, rotation_matrix

SQRT3 = math.sqrt(3.0)


def _consistent_config(rng, min_rho=0.05):
    """Random pose plus matching joint angles, away from base anchors."""
    while True:
        pose = Pose(
            rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5), rng.uniform(-math.pi, math.pi)
        )
        try:
            sol = inverse_kinematics(pose)
        except Exception:
            continue
        if min(sol.rhos()) >= min_rho:
            return pose, sol.angles


def test_matrix_entries_at_identity_pose():
    theta = (0.2, 0.9, 2.0)
    mats = build_matrices(Pose(0.0, 0.0, 0.0), theta)
    a = mats.a_matrix
    for i, t in enumerate(theta):
        assert abs(a[i, 0] + math.sin(t)) < 1e-15
        assert abs(a[i, 1] - math.cos(t)) < 1e-15
    # third column: moment arm of each anchor about the reference point
    assert a[0, 2] == 0.0
    assert abs(a[1, 2] - math.cos(theta[1])) < 1e-15
    third = math.cos(theta[2]) / 2.0 + SQRT3 * math.sin(theta[2]) / 2.0
    assert abs(a[2, 2] - third) < 1e-15
    assert mats.det_b == 0.0
    assert np.array_equal(mats.b_matrix, np.zeros((3, 3)))


def test_inconsistent_state_is_rejected():
    with pytest.raises(InconsistentStateError) as err:
        build_matrices(Pose(0.5, 0.0, 0.0), (math.pi / 2.0, 0.9, 2.0))
    assert max(map(abs, err.value.residuals)) > 0.4


def _twist(mats, rates):
    """The platform twist t = (vx, vy, omega) with A t = B q at joint rates q."""
    return np.linalg.solve(mats.a_matrix, mats.b_matrix @ np.asarray(rates, dtype=float))


def test_zero_rates_give_zero_twist():
    rng = np.random.default_rng(5)
    pose, theta = _consistent_config(rng)
    twist = _twist(build_matrices(pose, theta), (0.0, 0.0, 0.0))
    assert np.array_equal(twist, np.zeros(3))


def test_twist_constraint_directional_derivative():
    # moving along (twist, rates) must keep the constraints stationary:
    # r(pose + eps*twist, theta + eps*rates) = O(eps^2)
    rng = np.random.default_rng(77)
    eps = 1e-6
    for _ in range(50):
        pose, theta = _consistent_config(rng)
        mats = build_matrices(pose, theta)
        # a decent margin from the parallel stratum keeps the twist O(1),
        # so the quadratic remainder stays visible below the bound
        if abs(mats.det_a) < 1e-3 * np.linalg.norm(mats.a_matrix) ** 3:
            continue
        rates = tuple(rng.uniform(-1.0, 1.0, 3))
        vx, vy, omega = _twist(mats, rates)
        moved = Pose(pose.x + eps * vx, pose.y + eps * vy, pose.phi + eps * omega)
        nudged = tuple(t + eps * w for t, w in zip(theta, rates))
        residual = max(map(abs, constraint_residuals(moved, nudged)))
        assert residual < 1e-9


def test_identity_pose_is_serial_for_any_angles():
    theta = (0.2, 0.9, 2.0)
    mats = build_matrices(Pose(0.0, 0.0, 0.0), theta)
    assert mats.det_b == 0.0
    assert classify_singularity(Pose(0.0, 0.0, 0.0), theta).zero_rho_legs == (1, 2, 3)
    # with the actuators locked the platform cannot move: A t = 0 only at 0
    assert np.abs(_twist(mats, (0.3, -0.2, 0.5))).max() < 1e-15


def test_single_zero_extension_leg_reported():
    # platform rolled about anchor B2: leg 2 sits exactly on its base point
    phi = 0.4
    a1, a2, a3 = DEFAULT_GEOMETRY._anchor_pairs
    offset = rotation_matrix(phi) @ a2
    pose = Pose(a2[0] - offset[0], a2[1] - offset[1], phi)
    sol_angles = []
    for leg, (ax, ay) in ((1, a1), (3, a3)):
        bx, by = platform_anchor(pose, leg)
        sol_angles.append(math.atan2(by - ay, bx - ax))
    theta = (sol_angles[0], 0.7, sol_angles[1])  # leg 2 angle is free
    assert classify_singularity(pose, theta).zero_rho_legs == (2,)


def test_equal_angles_at_the_identity_are_parallel_singular():
    mats = build_matrices(Pose(0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
    assert abs(mats.det_a) < PARALLEL_DET_TOL
    assert classify_singularity(Pose(0.0, 0.0, 0.0), (0.5, 0.5, 0.5)).kind is SingularityKind.BOTH


@pytest.mark.parametrize("scale", [1e-9, 1.0, 1e4, 1e6])
def test_parallel_test_is_in_units_of_the_scale(scale):
    # Only A's moment-arm column carries a length, so the parallel test must
    # read it in units of the scale (Merlet, ASME J. Mech. Des. 2006): the
    # same pose scaled stays regular, and an all-parallel triple stays
    # parallel, on the scalar path and in the array kernel alike.
    geometry = ManipulatorGeometry(scale)
    for (x, y, phi), kind in (
        ((0.3, 0.2, 0.1), SingularityKind.REGULAR),
        ((0.5, 0.0, 0.0), SingularityKind.PARALLEL),  # every leg horizontal
    ):
        pose = Pose(x * scale, y * scale, phi)
        theta = inverse_kinematics(pose, geometry=geometry).angles
        assert classify_singularity(pose, theta, geometry).kind is kind
        mats = build_matrices(pose, theta, geometry)
        parallel = abs(mats.det_a) < PARALLEL_DET_TOL * scale
        assert parallel is (kind is SingularityKind.PARALLEL)
        kernel = build_matrices_array([pose.x], [pose.y], [pose.phi], [theta.as_tuple()], geometry)
        assert kernel_kinds(kernel, scale).tolist() == [kind]
        if kind is SingularityKind.REGULAR:
            assert np.isfinite(_twist(mats, (0.1, 0.2, 0.3))).all()


def test_det_a_specialized_matches_general_build():
    rng = np.random.default_rng(9)
    for theta in rng.uniform(-math.pi, math.pi, (1000, 3)):
        direct = det_A_specialized(tuple(theta))
        general = build_matrices(Pose(0.0, 0.0, 0.0), tuple(theta)).det_a
        assert abs(direct - general) < 1e-12


def test_det_a_specialized_zero_for_equal_angles():
    for t in np.linspace(-math.pi, math.pi, 25):
        assert det_A_specialized((t, t, t)) == 0.0


def test_det_a_specialized_scales_linearly():
    theta = (0.2, 0.9, 2.0)
    one = det_A_specialized(theta)
    two = det_A_specialized(theta, ManipulatorGeometry(2.0))
    assert abs(two - 2.0 * one) < 1e-14


@pytest.mark.parametrize("scale", [1.0, 2.0, 1.7])
def test_det_a_specialized_is_half_scale_times_n_exactly(scale):
    # det A at the identity pose is read off n, not re-derived: it equals
    # scale / 2 * n bit for bit, and so does the explicit identity-pose
    # cofactor sum, which differs from n's sum only by powers of two.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(31)
    thetas = [tuple(t) for t in rng.uniform(-math.pi, math.pi, (300, 3)).tolist()]
    thetas += [(t, t, t) for t in np.linspace(-math.pi, math.pi, 13).tolist()]
    thetas += [(t, t + math.pi / 3.0, t - math.pi / 3.0) for t in np.linspace(-3.0, 3.0, 13).tolist()]
    for theta in thetas:
        t1, t2, t3 = theta
        cofactors = (0.5 * math.cos(t3) + 0.5 * SQRT3 * math.sin(t3)) * math.sin(t2 - t1) - (
            math.cos(t2) * math.sin(t3 - t1)
        )
        expected = repr(scale / 2.0 * mn_coefficients(theta)[1])
        assert repr(det_A_specialized(theta, geometry)) == expected
        assert repr(scale * cofactors) == expected


def _exact_det(a):
    """The determinant of a 3x3 float matrix, exactly."""
    (a, b, c), (d, e, f), (g, h, i) = ([Fraction(v) for v in row] for row in a)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _bound_configurations(scale, rng, count=100):
    """Seeded (pose, theta) pairs in units of the scale: random poses with
    their IK angles on all 8 branches, horizontal-leg poses (parallel
    singular) on all 8 branches, and the trivial pose with random angles."""
    branches = [(k >> 2 & 1, k >> 1 & 1, k & 1) for k in range(8)]
    poses = [Pose(*(rng.uniform(-2.0, 2.0, 2) * scale).tolist(), rng.uniform(-4.0, 4.0))
             for _ in range(count)]
    poses += [Pose(float(x), 0.0, 0.0) for x in rng.uniform(-2.0, 2.0, count // 4) * scale]
    for pose in poses:
        for branch in branches:
            try:
                yield pose, inverse_kinematics(pose, branch, ManipulatorGeometry(scale)).angles
            except LegAtAnchorError:
                pass
    for theta in rng.uniform(-4.0, 4.0, (count, 3)).tolist():
        yield Pose(0.0, 0.0, 0.0), tuple(theta)


@pytest.mark.parametrize("scale", [1.0, 2.0, 1.7])
def test_det_a_is_within_its_a_priori_rounding_bound(scale):
    # det A = w3 (u1 v2 - v1 u2) - w2 (u1 v3 - v1 u3), with w1 = 0 exactly:
    # each product meets four roundings (itself, its difference, the times w
    # and the final difference), which keep the computed value within 4 u
    # (u = 2^-53) of the terms' magnitudes of the exact determinant of A.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(41)
    count = 0
    for pose, theta in _bound_configurations(scale, rng):
        mats = build_matrices(pose, theta, geometry)
        (u1, v1, w1), (u2, v2, w2), (u3, v3, w3) = mats.a_matrix.tolist()
        assert w1 == 0.0
        bound = 4.0 * 2.0**-53 * (
            abs(w3) * (abs(u1 * v2) + abs(v1 * u2)) + abs(w2) * (abs(u1 * v3) + abs(v1 * u3))
        )
        exact = _exact_det(mats.a_matrix.tolist())
        for det_a in (mats.det_a, classify_singularity(pose, theta, geometry).det_a):
            assert type(det_a) is float
            assert abs(Fraction(det_a) - exact) <= Fraction(bound), (pose, theta)
        count += 1
    assert count >= 700


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_the_left_out_normal_misses_the_best_pairs_meet_by_det_a_over_its_sine(scale):
    # Moving the moment reference from p to the meet P of the best pair's
    # normals adds multiples of A's first two columns to its third, so det A
    # = sin(t_j - t_i) * d_k, d_k the signed distance of P from normal k:
    # the parallel test on det A already is the concurrency test.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(58)
    count = 0
    for pose, theta in _bound_configurations(scale, rng):
        t = _as_angles(theta)
        rows, _, det_a, _, legs = _configuration(pose, t, geometry)
        point, at_infinity = _normal_intersection(t, rows, legs)
        i, j, k = _best_pair(t)
        assert at_infinity is (point is None)
        if at_infinity:
            continue
        bx, by, _, _ = legs[k]
        miss = (point.x - bx) * math.cos(t[k]) + (point.y - by) * math.sin(t[k])
        sine = abs(math.sin(t[j] - t[i]))
        size = max(scale, sine * math.hypot(point.x - bx, point.y - by))
        assert abs(abs(det_a) - sine * abs(miss)) <= 16 * 2.0**-53 * size, (pose, theta)
        count += 1
    assert count >= 700


def test_classify_regular_configuration():
    rng = np.random.default_rng(15)
    pose, theta = _consistent_config(rng)
    report = classify_singularity(pose, theta)
    assert report.kind is SingularityKind.REGULAR
    assert report.zero_rho_legs == ()
    assert report.intersection_point is None


def test_classify_serial_at_identity():
    report = classify_singularity(Pose(0.0, 0.0, 0.0), (0.2, 0.9, 2.0))
    assert report.kind is SingularityKind.SERIAL
    assert report.zero_rho_legs == (1, 2, 3)


def test_classify_both_with_translation_flag():
    report = classify_singularity(Pose(0.0, 0.0, 0.0), (0.5, 0.5, 0.5))
    assert report.kind is SingularityKind.BOTH
    assert report.translation_case
    assert report.det_a == 0.0
    assert report.det_b == 0.0


def _parallel_config(rng):
    """Hunt a parallel singularity by bisecting det A along a pose path."""
    for _ in range(200):
        start = np.array(
            [rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3), rng.uniform(-2.5, 2.5)]
        )
        stop = np.array(
            [rng.uniform(-0.3, 1.3), rng.uniform(-0.3, 1.3), rng.uniform(-2.5, 2.5)]
        )

        def det_at(s):
            p = Pose(*(start + s * (stop - start)))
            try:
                sol = inverse_kinematics(p)
            except Exception:
                return None
            if min(sol.rhos()) < 1e-3:
                return None
            return build_matrices(p, sol.angles).det_a

        samples = [(s, det_at(s)) for s in np.linspace(0.0, 1.0, 33)]
        samples = [(s, d) for s, d in samples if d is not None]
        for (s0, d0), (s1, d1) in zip(samples, samples[1:]):
            if d0 == 0.0 or (d0 < 0.0) == (d1 < 0.0):
                continue
            for _ in range(80):
                mid = 0.5 * (s0 + s1)
                dm = det_at(mid)
                if dm is None:
                    break
                if (dm < 0.0) == (d0 < 0.0):
                    s0, d0 = mid, dm
                else:
                    s1, d1 = mid, dm
            else:
                p = Pose(*(start + s0 * (stop - start)))
                return p, inverse_kinematics(p).angles
    raise AssertionError("no parallel singularity found on random paths")


def test_classify_parallel_and_wrench_geometry():
    rng = np.random.default_rng(123)
    pose, theta = _parallel_config(rng)
    report = classify_singularity(pose, theta)
    assert report.kind in (SingularityKind.PARALLEL, SingularityKind.BOTH)
    center = report.intersection_point
    if center is None:
        pytest.skip("landed on an all-parallel pencil (point at infinity)")

    mats = build_matrices(pose, theta)
    # uncontrolled self motion: rotation about the common intersection point
    spin = np.array([-(pose.y - center.y), pose.x - center.x, 1.0])
    norm_a = np.linalg.norm(mats.a_matrix)
    assert np.linalg.norm(mats.a_matrix @ spin) < 1e-6 * norm_a * np.linalg.norm(spin)

    # every actuation wrench is a force whose line of action passes through
    # the same point: moment about the reference equals (center - p) x f
    for _ in range(5):
        z = rng.uniform(-1.0, 1.0, 3)
        wrench = mats.a_matrix.T @ z
        fx, fy, torque = wrench
        arm = (center.x - pose.x) * fy - (center.y - pose.y) * fx
        scale = max(1.0, math.hypot(fx, fy))
        assert abs(torque - arm) < 1e-6 * scale
