"""Closed-form inverse and direct kinematics.

Expected numbers were derived independently (vector geometry for the
inverse problem, trigonometric elimination for the direct one) and frozen
here; the solver has to reproduce them, not the other way round.
"""

import math

import numpy as np
import pytest

from rpr3.errors import DegenerateLegPairError, LegAtAnchorError
from rpr3.geometry import (
    DEFAULT_GEOMETRY,
    ManipulatorGeometry,
    Pose,
    Vec2,
    constraint_residuals,
    normalize_angle,
    platform_anchor,
)
from rpr3.solvers import (
    DEGENERACY_ANGLE_TOL,
    DkKind,
    classify_dk_degeneracy,
    direct_kinematics,
    inverse_kinematics,
    mn_coefficients,
    position_from_orientation,
)

PI3 = math.pi / 3.0

# theta = (0.2, 0.9, 2.0): reduction coefficients and the nontrivial root,
# from an elimination done by hand against the affine constraint stack.
GENERIC_THETA = (0.2, 0.9, 2.0)
FROZEN_M = 0.4755525917200233
FROZEN_N = -0.4641857195409343
FROZEN_PHI2 = -1.5466059373284926
FROZEN_POSE2 = (0.21747642064358774, 0.044084652950960666)

# pose (0.3, 0.2, 0.1): per-leg polar coordinates of anchor offsets.
FROZEN_IK = (
    (0.5880026035475676, 0.3605551275463989),
    (0.7935165900373831, 0.42062754934680063),
    (0.8609087403210023, 0.32381171916120793),
)


# ------------------------------------------------------------ inverse


def test_ik_frozen_values():
    sol = inverse_kinematics(Pose(0.3, 0.2, 0.1))
    assert sol.branch == (0, 0, 0)
    for leg, (theta, rho) in zip(sol.legs, FROZEN_IK):
        assert abs(leg.theta - theta) < 1e-15
        assert abs(leg.rho - rho) < 1e-15


def test_ik_symmetric_pose():
    # centroid of the base triangle: all extensions equal the circumradius
    # sqrt(3)/3 and leg 1 aims at pi/6.
    centroid = Pose(0.5, math.sqrt(3.0) / 6.0, 0.0)
    sol = inverse_kinematics(centroid)
    assert abs(sol.legs[0].theta - math.pi / 6.0) < 1e-15
    for leg in sol.legs:
        assert abs(leg.rho - math.sqrt(3.0) / 3.0) < 1e-15


def test_ik_all_eight_branches_close_the_loop():
    pose = Pose(0.42, -0.31, 1.3)
    for code in range(8):
        branch = (code >> 2 & 1, code >> 1 & 1, code & 1)
        sol = inverse_kinematics(pose, branch=branch)
        assert sol.branch == branch
        for i, (leg, signed) in enumerate(zip(sol.legs, sol.signed_rhos()), start=1):
            anchor = platform_anchor(pose, i)
            ax, ay = DEFAULT_GEOMETRY._anchor_pairs[i - 1]
            # the signed extension closes the loop on every branch; the
            # magnitude alone does so only on branch 0
            x = ax + signed * math.cos(leg.theta)
            y = ay + signed * math.sin(leg.theta)
            assert math.hypot(x - anchor.x, y - anchor.y) < 1e-14
            assert signed == leg.rho * (1.0 - 2.0 * branch[i - 1])
        assert max(map(abs, constraint_residuals(pose, sol.angles))) < 1e-14


def test_ik_branch_flips_theta_by_pi():
    pose = Pose(0.3, 0.2, 0.1)
    plain = inverse_kinematics(pose)
    flipped = inverse_kinematics(pose, branch=(1, 0, 0))
    gap = normalize_angle(flipped.legs[0].theta - plain.legs[0].theta)
    assert abs(abs(gap) - math.pi) < 1e-15
    assert flipped.legs[0].rho == plain.legs[0].rho
    assert flipped.signed_rhos()[0] == -plain.rhos()[0]


def test_ik_identity_pose_reports_all_legs_stuck():
    with pytest.raises(LegAtAnchorError) as err:
        inverse_kinematics(Pose(0.0, 0.0, 0.0))
    assert err.value.legs == (1, 2, 3)


def test_ik_pure_rotation_pins_only_first_leg():
    with pytest.raises(LegAtAnchorError) as err:
        inverse_kinematics(Pose(0.0, 0.0, 0.3))
    assert err.value.legs == (1,)


@pytest.mark.parametrize("branch", [(0, 0, 0), (0, 1, 0)])
@pytest.mark.parametrize("phi", [0.3, -2.0])
def test_ik_numbers_a_stuck_middle_leg_from_one(branch, phi):
    # p = a2 - R(phi) a2 puts b2 on a2 and no other platform anchor on its
    # base anchor.
    ax, ay = DEFAULT_GEOMETRY._anchor_pairs[1]
    c, s = math.cos(phi), math.sin(phi)
    pose = Pose(ax - (c * ax - s * ay), ay - (s * ax + c * ay), phi)
    with pytest.raises(LegAtAnchorError) as err:
        inverse_kinematics(pose, branch=branch)
    assert err.value.legs == (2,)
    with pytest.raises(LegAtAnchorError) as err:
        inverse_kinematics(Pose(0.0, 0.0, 0.0), branch=branch)
    assert err.value.legs == (1, 2, 3)


@pytest.mark.parametrize(
    "branch", [(0.5, 0, 0), (1.7, 0, 0), (1.0, 0, 0), "010", (0, 1, np.True_)]
)
def test_ik_refuses_branch_flags_that_are_not_integers(branch):
    # Read through int(), 0.5 would solve branch 000 and 1.7 branch 100.
    # numpy's bool has no __index__.
    with pytest.raises(TypeError):
        inverse_kinematics(Pose(0.3, 0.2, 0.1), branch=branch)


@pytest.mark.parametrize("branch", [(2, 0, 0), (0, -1, 0), (0, 1), (0, 1, 0, 1)])
def test_ik_refuses_integer_branch_flags_outside_0_and_1(branch):
    with pytest.raises(ValueError, match="branch must be three flags in {0, 1}"):
        inverse_kinematics(Pose(0.3, 0.2, 0.1), branch=branch)


@pytest.mark.parametrize(
    "branch", [(True, False, True), (np.int64(1), np.int32(0), np.uint8(1)), np.array([1, 0, 1])]
)
def test_ik_takes_numpy_integers_and_bools_as_branch_flags(branch):
    pose = Pose(0.3, 0.2, 0.1)
    sol = inverse_kinematics(pose, branch=branch)
    assert repr(sol) == repr(inverse_kinematics(pose, branch=(1, 0, 1)))
    assert [type(k) for k in sol.branch] == [int, int, int]


def test_ik_scales_with_geometry():
    big = ManipulatorGeometry(2.0)
    small = inverse_kinematics(Pose(0.3, 0.2, 0.1), geometry=DEFAULT_GEOMETRY)
    large = inverse_kinematics(Pose(0.6, 0.4, 0.1), geometry=big)
    for a, b in zip(small.legs, large.legs):
        assert abs(b.theta - a.theta) < 1e-14
        assert abs(b.rho - 2.0 * a.rho) < 1e-14


# ------------------------------------------------------------- reduction


def test_mn_frozen_values():
    m, n = mn_coefficients(GENERIC_THETA)
    assert abs(m - FROZEN_M) < 5e-15
    assert abs(n - FROZEN_N) < 5e-15


def test_mn_vanish_for_parallel_legs():
    for t in np.linspace(-math.pi, math.pi, 37):
        m, n = mn_coefficients((t, t, t))
        assert abs(m) < 1e-14
        assert abs(n) < 1e-14


def test_mn_vanish_for_reuleaux_family():
    for t1 in (-2.0, 0.0, 0.7):
        m, n = mn_coefficients((t1, t1 + PI3, t1 - PI3))
        assert abs(m) < 1e-14
        assert abs(n) < 1e-14


def test_mn_root_satisfies_reduction():
    rng = np.random.default_rng(12)
    hits = 0
    while hits < 300:
        theta = tuple(rng.uniform(-math.pi, math.pi, 3))
        m, n = mn_coefficients(theta)
        if m * m + n * n < 1e-6:
            continue
        phi2 = math.atan2(2.0 * m * n, m * m - n * n)
        # the eliminated equation: m cos(phi) + n sin(phi) - m = 0
        assert abs(m * math.cos(phi2) + n * math.sin(phi2) - m) < 1e-13
        hits += 1


# ---------------------------------------------------------- classification


@pytest.mark.parametrize(
    "theta",
    [
        (0.3, 0.3, 0.3),
        (0.3, 0.3 - math.pi, 0.3),
        (0.3, 0.3, 0.3 + math.pi),
        (-1.2, -1.2 + math.pi, -1.2 - math.pi),
    ],
)
def test_classify_translation_family(theta):
    assert classify_dk_degeneracy(theta) is DkKind.CONTINUUM_TRANSLATION


@pytest.mark.parametrize(
    "theta",
    [
        (0.0, PI3, -PI3),
        (0.0, PI3 - math.pi, -PI3),
        (0.0, PI3, -PI3 + math.pi),
        (0.0, PI3 - math.pi, -PI3 + math.pi),
        (0.7, 0.7 + PI3, 0.7 - PI3),
    ],
)
def test_classify_reuleaux_family(theta):
    assert classify_dk_degeneracy(theta) is DkKind.CONTINUUM_REULEAUX


def test_classify_rejects_swapped_offsets():
    # +pi/3 on leg 3 and -pi/3 on leg 2 is NOT the straight-line family:
    # the constraint stack keeps full rank there and the problem has two
    # isolated roots like any generic configuration.
    assert classify_dk_degeneracy((0.0, -PI3, PI3)) is DkKind.TWO_SOLUTIONS


def test_classify_generic_is_two_solutions():
    assert classify_dk_degeneracy(GENERIC_THETA) is DkKind.TWO_SOLUTIONS


def test_classify_tolerates_printed_constants():
    # 1.04719755 is pi/3 rounded to 9 significant digits; the angle
    # tolerance must absorb that representation error.
    assert 0.0 < abs(1.04719755 - PI3) < DEGENERACY_ANGLE_TOL
    assert (
        classify_dk_degeneracy((0.0, 1.04719755, -1.04719755))
        is DkKind.CONTINUUM_REULEAUX
    )


# -------------------------------------------------------------- direct


def test_dk_frozen_second_pose():
    res = direct_kinematics(GENERIC_THETA)
    assert res.kind is DkKind.TWO_SOLUTIONS
    assert not res.coincident
    assert res.poses[0].as_tuple() == (0.0, 0.0, 0.0)
    second = res.poses[1]
    assert abs(second.x - FROZEN_POSE2[0]) < 1e-13
    assert abs(second.y - FROZEN_POSE2[1]) < 1e-13
    assert abs(second.phi - FROZEN_PHI2) < 1e-13
    assert abs(res.m - FROZEN_M) < 5e-15
    assert abs(res.n - FROZEN_N) < 5e-15


def test_dk_right_angle_configuration():
    # theta = (0, pi, pi/2): elimination collapses to phi = pi with the
    # platform shifted one edge length along x.
    res = direct_kinematics((0.0, math.pi, math.pi / 2.0))
    assert res.kind is DkKind.TWO_SOLUTIONS
    second = res.poses[1]
    assert abs(second.x - 1.0) < 1e-15
    assert abs(second.y) < 1e-15
    assert abs(second.phi - math.pi) < 1e-15


def test_dk_solutions_satisfy_constraints():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 300:
        theta = tuple(rng.uniform(-math.pi, math.pi, 3))
        res = direct_kinematics(theta)
        if res.kind is not DkKind.TWO_SOLUTIONS:
            continue
        for pose in res.poses:
            assert max(map(abs, constraint_residuals(pose, theta))) < 1e-9
        checked += 1


def test_dk_translation_continuum():
    res = direct_kinematics((0.4, 0.4, 0.4))
    assert res.kind is DkKind.CONTINUUM_TRANSLATION
    assert res.poses == (Pose(0.0, 0.0, 0.0),)
    line = res.continuum
    assert line is not None
    assert line.point == Vec2(0.0, 0.0)
    assert abs(line.direction.x - math.cos(0.4)) < 1e-15
    assert abs(line.direction.y - math.sin(0.4)) < 1e-15
    # sliding along the line keeps all residuals at zero
    for s in (-0.7, 0.3, 1.1):
        shifted = Pose(s * line.direction.x, s * line.direction.y, 0.0)
        assert max(map(abs, constraint_residuals(shifted, (0.4, 0.4, 0.4)))) < 1e-15


def test_dk_reuleaux_continuum():
    for t1 in (0.0, -2.5, 1.9):
        res = direct_kinematics((t1, t1 + PI3, t1 - PI3))
        assert res.kind is DkKind.CONTINUUM_REULEAUX
        assert res.poses == (Pose(0.0, 0.0, 0.0),)
        # The reference point runs on leg 1's slider line.
        assert res.continuum.point == Vec2(0.0, 0.0)
        assert res.continuum.direction == Vec2(math.cos(t1), math.sin(t1))


def test_dk_coincident_roots_flagged():
    # n = 0 with m != 0 puts the second root on top of the trivial pose.
    theta = (0.0, math.pi / 2.0, -math.pi / 6.0)
    m, n = mn_coefficients(theta)
    assert abs(n) < 1e-15 and abs(m) > 0.5
    res = direct_kinematics(theta)
    assert res.kind is DkKind.TWO_SOLUTIONS
    assert res.coincident
    assert abs(res.poses[1].phi) < 1e-12
    assert math.hypot(res.poses[1].x, res.poses[1].y) < 1e-12


def test_direct_kinematics_returns_every_kind():
    triples = [(0.2, 0.9, 2.0), (0.4, 0.4, 0.4), (0.0, PI3, -PI3), (0.3, 0.3, 0.3 + 1e-7)]
    assert [direct_kinematics(theta).kind for theta in triples] == list(DkKind)


def test_position_from_orientation_pair_agreement():
    rng = np.random.default_rng(30)
    checked = 0
    while checked < 200:
        theta = tuple(rng.uniform(-math.pi, math.pi, 3))
        gaps = [
            abs(math.sin(theta[j - 1] - theta[i - 1]))
            for i, j in ((1, 2), (2, 3), (1, 3))
        ]
        if min(gaps) < 1e-2:
            continue
        m, n = mn_coefficients(theta)
        if m * m + n * n < 1e-6:
            continue
        phi2 = math.atan2(2.0 * m * n, m * m - n * n)
        poses = [
            position_from_orientation(theta, phi2, pair=pair)
            for pair in ((1, 2), (2, 3), (1, 3))
        ]
        for pose in poses[1:]:
            assert abs(pose.x - poses[0].x) < 1e-9
            assert abs(pose.y - poses[0].y) < 1e-9
        checked += 1


def test_position_from_orientation_rejects_parallel_pair():
    with pytest.raises(DegenerateLegPairError):
        position_from_orientation((0.2, 0.2 + math.pi, 1.0), 0.5, pair=(1, 2))


def test_position_from_orientation_rejects_bad_pair():
    with pytest.raises(ValueError):
        position_from_orientation(GENERIC_THETA, 0.5, pair=(1, 4))
    # A leg that is not an integer is refused before any leg is looked up.
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        position_from_orientation(GENERIC_THETA, 0.5, pair=(1.0, 2.0))
    pose = position_from_orientation(GENERIC_THETA, 0.5, pair=(3, 1))
    assert position_from_orientation(GENERIC_THETA, 0.5, pair=(np.int64(3), np.int8(1))) == pose


def test_dk_scales_with_geometry():
    big = ManipulatorGeometry(2.0)
    small = direct_kinematics(GENERIC_THETA)
    large = direct_kinematics(GENERIC_THETA, geometry=big)
    assert large.kind is DkKind.TWO_SOLUTIONS
    assert abs(large.poses[1].x - 2.0 * small.poses[1].x) < 1e-13
    assert abs(large.poses[1].y - 2.0 * small.poses[1].y) < 1e-13
    assert abs(large.poses[1].phi - small.poses[1].phi) < 1e-13
