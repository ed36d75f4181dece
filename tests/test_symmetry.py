"""The mechanism's own symmetries as a test oracle.

Congruent equilateral base and platform make three relabelings of the
whole problem exact.  With c = (s/2, s sqrt(3)/6) the base centroid and
B_i the platform anchors of a pose:

* C3, the turn by 2 pi/3 about c, carries a1 to a2, a2 to a3 and a3 to a1:
  theta' = (theta3, theta1, theta2) + 2 pi/3, and the pose maps to
  (rot(B3), phi), since the new reference anchor is the old B3;
* the mirror in x = s/2 swaps a1 and a2: theta' = (pi - theta2,
  pi - theta1, pi - theta3), and the pose maps to (s - B2.x, B2.y, -phi);
* the leg flip theta_i + pi: the same poses, with rho_i negated.

Every fact the library reports of a triple or a configuration must map
along.  The images are rounded floats, so a margin sitting within rounding
of its threshold may still tip; the draws below keep clear of that except
where a test says so.  Each tolerance states the worst error measured on
the same draws.
"""

import itertools
import math
from functools import partial

import numpy as np
import pytest

from rpr3.coupler import geometric_dkp, rho_from_phi, trace_cardanic
from rpr3.geometry import (
    _COLUMNS,
    ManipulatorGeometry,
    Pose,
    _best_pair,
    angle_differences,
    normalize_angles,
    platform_anchor,
    pose_distance,
)
from rpr3.jacobians import (
    PARALLEL_DET_TOL,
    SingularityKind,
    build_matrices_array,
    classify_singularity,
)
from rpr3.oracle import dkp_bruteforce
from rpr3.solvers import (
    _DK_KINDS,
    DkKind,
    _continuum,
    classify_dk_degeneracy,
    direct_kinematics,
    inverse_kinematics,
    inverse_kinematics_array,
)
from _reference import kernel_kinds

PI3 = math.pi / 3.0
TURN = 2.0 * math.pi / 3.0
SCALES = (1.0, 1.7)


# ------------------------------------------------------------ the maps


def c3(theta):
    """C3 image of one triple (a tuple) or of each row of an (N, 3) array."""
    return _angles(np.asarray(theta, dtype=float)[..., [2, 0, 1]] + TURN, theta)


def mirror(theta):
    """Mirror image of one triple or of each row of an (N, 3) array."""
    return _angles(math.pi - np.asarray(theta, dtype=float)[..., [1, 0, 2]], theta)


def flip(theta, leg):
    """``theta`` with leg ``leg`` (1-based) turned by pi."""
    turned = np.array(theta, dtype=float)
    turned[..., leg - 1] += math.pi
    return _angles(turned, theta)


def _angles(values, like):
    folded = normalize_angles(values)
    return folded if isinstance(like, np.ndarray) else tuple(folded.tolist())


def _rotate_about_centroid(x, y, geometry):
    cx, cy = 0.5 * geometry.scale, geometry.scale * math.sqrt(3.0) / 6.0
    c, s = math.cos(TURN), math.sin(TURN)
    return cx + c * (x - cx) - s * (y - cy), cy + s * (x - cx) + c * (y - cy)


def c3_pose(pose, geometry):
    b3 = platform_anchor(pose, 3, geometry)
    return Pose(*_rotate_about_centroid(b3.x, b3.y, geometry), pose.phi)


def mirror_pose(pose, geometry):
    b2 = platform_anchor(pose, 2, geometry)
    return Pose(geometry.scale - b2.x, b2.y, -pose.phi)


def _images(theta, geometry):
    """(name, theta', pose map, point map) of each map: the C3 turn once
    and twice, the mirror, and the flip of each leg."""
    scale = geometry.scale

    def turn(pose):
        return c3_pose(pose, geometry)

    def turn_point(x, y):
        return _rotate_about_centroid(x, y, geometry)

    return [
        ("c3", c3(theta), turn, turn_point),
        ("c3^2", c3(c3(theta)), lambda p: turn(turn(p)), lambda x, y: turn_point(*turn_point(x, y))),
        ("mirror", mirror(theta), lambda p: mirror_pose(p, geometry), lambda x, y: (scale - x, y)),
        *((f"flip{leg}", flip(theta, leg), lambda p: p, lambda x, y: (x, y)) for leg in (1, 2, 3)),
    ]


def _set_distance(left, right, geometry):
    """Symmetric Hausdorff distance of two pose sets (pose_distance units)."""
    return max(
        max(min(pose_distance(p, q, geometry) for q in right) for p in left),
        max(min(pose_distance(p, q, geometry) for q in left) for p in right),
    )


# ------------------------------------------------- continuum kind per orbit


def _band_draws(rng, offsets, count):
    """``count`` triples (t1, t1 + o2 + d2, t1 + o3 + d3), d uniform in
    [-1e-8, 1e-8]^2: the 5e-9 band of a continuum and the ring around it."""
    t1 = rng.uniform(-math.pi, math.pi, count)
    d = rng.uniform(-1e-8, 1e-8, (count, 2))
    return normalize_angles(
        np.column_stack((t1, t1 + offsets[0] + d[:, 0], t1 + offsets[1] + d[:, 1]))
    )


def _dk_kinds(theta):
    """The :class:`DkKind` of each row of an (N, 3) angle array, from the
    continuum rule the joint page runs on its columns."""
    return np.array(_DK_KINDS, dtype=object)[_continuum(_COLUMNS, *theta.T)]


@pytest.mark.parametrize(
    "offsets, kind",
    [((PI3, -PI3), DkKind.CONTINUUM_REULEAUX), ((0.0, 0.0), DkKind.CONTINUUM_TRANSLATION)],
)
def test_continuum_kind_is_a_function_of_the_orbit(offsets, kind):
    # The rule reads all three gaps around the cycle of legs, and each map
    # permutes them, so a triple and its images classify alike.  A rule
    # pivoting on leg 1 (two gaps against a signed pair) split 3,739 of
    # these 20,000 orbits, in either family.
    theta = _band_draws(np.random.default_rng(3), offsets, 20_000)
    kinds = _dk_kinds(theta)
    inside = kinds == kind
    # The band is the hexagon |d2|, |d3|, |d2 - d3| < 5e-9: about 19% of
    # the square (3,745 rows here; the leg-1 pivot's parallelogram, 25%,
    # held 4,993).
    assert 3_000 < inside.sum() < 4_500
    assert set(kinds[~inside]) == {DkKind.TWO_SOLUTIONS}
    for image in (c3(theta), c3(c3(theta)), mirror(theta)):
        split = np.flatnonzero(_dk_kinds(image) != kinds)
        assert split.size == 0, theta[split[:3]].tolist()
    # The columns and the scalar form are one body: 1,000 rows of the band
    # and 1,000 outside it classify the same one by one.
    rows = np.concatenate((np.flatnonzero(inside)[:1000], np.flatnonzero(~inside)[:1000]))
    assert [classify_dk_degeneracy(tuple(theta[k].tolist())) for k in rows] == kinds[rows].tolist()


# ----------------------------------------------------- direct kinematics


@pytest.mark.parametrize("scale", SCALES)
def test_both_direct_kinematics_routes_map_along_the_symmetries(scale):
    # Measured at most 9.6e-14 on these draws, either route, either scale
    # (2.7e-13 over 3,000 triples per scale): the bound leaves 100x (37x).
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        theta = tuple(rng.uniform(-math.pi, math.pi, 3).tolist())
        for route in (direct_kinematics, geometric_dkp):
            solved = route(theta, geometry)
            for name, image, pose_map, _ in _images(theta, geometry):
                mapped = route(image, geometry)
                assert mapped.kind is solved.kind, (name, theta)
                expected = [pose_map(p) for p in solved.poses]
                worst = max(worst, _set_distance(mapped.poses, expected, geometry))
    assert worst < 1e-11


def test_c3_turns_the_best_pair_with_the_labels():
    # C3 carries leg i to leg i + 1, so off ties the pair every route solves
    # through, named by the leg it leaves out, turns with the labels.
    rng = np.random.default_rng(28)
    checked = 0
    for _ in range(1000):
        theta = tuple(rng.uniform(-math.pi, math.pi, 3).tolist())
        gaps = sorted(abs(math.sin(theta[j] - theta[i])) for i, j in ((0, 1), (1, 2), (2, 0)))
        if gaps[2] - gaps[1] < 1e-9:
            continue
        for image, turns in ((c3(theta), 1), (c3(c3(theta)), 2)):
            assert _best_pair(image)[2] == (_best_pair(theta)[2] + turns) % 3, theta
        checked += 1
    assert checked > 990


@pytest.mark.parametrize("scale", SCALES)
def test_oracle_pose_set_maps_along_the_symmetries(scale):
    # The oracle scans its own grid on each image and polishes each root by
    # Newton, so its pose set maps along only as well as Newton converges.
    # Measured at most 1.4e-14 here (5.9e-14 over 400 triples per scale, and
    # 2.0e-12 in an earlier probe): the bound leaves 350x (2.5x).
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(29)
    worst, checked = 0.0, 0
    while checked < 40:
        theta = tuple(rng.uniform(-math.pi, math.pi, 3).tolist())
        if classify_dk_degeneracy(theta) is not DkKind.TWO_SOLUTIONS:
            continue
        found = dkp_bruteforce(theta, geometry).solutions_found
        for name, image, pose_map, _ in _images(theta, geometry)[:3]:
            mapped = dkp_bruteforce(image, geometry).solutions_found
            assert len(mapped) == len(found) == 2, (name, theta)
            worst = max(worst, _set_distance(mapped, [pose_map(p) for p in found], geometry))
        checked += 1
    assert worst < 5e-12


# ---------------------------------------------------- inverse kinematics


def _ik_images(pose, branch, geometry):
    """(name, pose', branch', theta map, rho order) of each map: the leg
    labels turn, or swap, with the branch flags and the rhos."""
    b1, b2, b3 = branch
    images = [
        ("c3", c3_pose(pose, geometry), (b3, b1, b2), c3, (2, 0, 1)),
        ("mirror", mirror_pose(pose, geometry), (b2, b1, b3), mirror, (1, 0, 2)),
    ]
    for leg in (1, 2, 3):
        toggled = list(branch)
        toggled[leg - 1] ^= 1
        images.append((f"flip{leg}", pose, tuple(toggled), partial(flip, leg=leg), (0, 1, 2)))
    return images


@pytest.mark.parametrize("scale", SCALES)
def test_ik_branch_map_follows_the_symmetries(scale):
    # IK of the mapped pose on the mapped branch returns the mapped angles
    # and the same rhos, relabeled.  Every leg is at least 0.1 s long, since
    # theta is ill-conditioned at the anchors.  Measured at most 1.4e-15 rad
    # and 8.9e-16 s on these 4,000 mapped solves per scale (4.4e-15 rad and
    # 1.6e-15 s over 100,000 per scale): the bounds leave 9x and 6x.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(12)
    worst_theta = worst_rho = 0.0
    checked = 0
    while checked < 100:
        x, y = (scale * rng.uniform(-1.0, 2.0, 2)).tolist()
        pose = Pose(x, y, float(rng.uniform(-math.pi, math.pi)))
        if min(inverse_kinematics(pose, geometry=geometry).rhos()) < 0.1 * scale:
            continue
        for branch in itertools.product((0, 1), repeat=3):
            solved = inverse_kinematics(pose, branch, geometry)
            theta, rhos = solved.angles.as_tuple(), solved.rhos()
            for name, image, image_branch, theta_map, order in _ik_images(pose, branch, geometry):
                mapped = inverse_kinematics(image, image_branch, geometry)
                gaps = angle_differences(np.array(mapped.angles.as_tuple()), theta_map(theta))
                worst_theta = max(worst_theta, float(gaps.max()))
                rho_gaps = (abs(r - rhos[k]) for r, k in zip(mapped.rhos(), order))
                worst_rho = max(worst_rho, max(rho_gaps) / scale)
        checked += 1
    assert worst_theta < 4e-14 and worst_rho < 1e-14, (worst_theta, worst_rho)


# ------------------------------------------------------------ singularity


def _assert_reports_map(report, mapped, name, geometry, case):
    scale = geometry.scale
    # A leg flip negates its row of A and its extension: det A and det B
    # change sign.  A C3 turn permutes the rows cyclically, and the mirror
    # swaps two of them while reversing orientation, so both keep det A.
    sign = -1.0 if name.startswith("flip") else 1.0
    assert mapped.kind is report.kind, case
    assert abs(mapped.det_a - sign * report.det_a) < 1e-13 * scale * scale, case
    assert abs(mapped.det_b - sign * report.det_b) <= 1e-12 * abs(report.det_b), case
    assert mapped.translation_case == report.translation_case, case
    assert (mapped.intersection_point is None) == (report.intersection_point is None), case


@pytest.mark.parametrize("scale", SCALES)
def test_singularity_facts_are_invariant_on_ik_poses(scale):
    # Measured |det A' -+ det A| <= 1.0e-15 scale^2 and |det B' -+ det B|
    # <= 4.9e-15 |det B| on these poses (1.1e-15 and 1.4e-14 over 4,000 per
    # scale, with no kind changed): the bounds of _assert_reports_map leave
    # 100x and 200x.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(11)
    for _ in range(150):
        x, y = (scale * rng.uniform(-1.0, 2.0, 2)).tolist()
        pose = Pose(x, y, float(rng.uniform(-math.pi, math.pi)))
        branch = tuple(int(k) for k in rng.integers(0, 2, 3))
        theta = inverse_kinematics(pose, branch, geometry).angles.as_tuple()
        report = classify_singularity(pose, theta, geometry)
        for name, image, pose_map, _ in _images(theta, geometry):
            mapped = classify_singularity(pose_map(pose), image, geometry)
            _assert_reports_map(report, mapped, name, geometry, (name, pose, branch))


@pytest.mark.parametrize("scale", SCALES)
def test_straight_line_continuum_poses_stay_parallel_with_a_mapped_centre(scale):
    # On the straight-line continuum every pose is parallel-singular and the
    # normal lines meet at one point, which each map carries along.
    # Measured at most 1.2e-15 scale for the point and 3.9e-14 |det B| for
    # det B here: the bounds leave 80x and 25x.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(12)
    for _ in range(30):
        t1, phi = rng.uniform(-math.pi, math.pi, 2).tolist()
        theta = tuple(normalize_angles(np.array([t1, t1 + PI3, t1 - PI3])).tolist())
        rho1 = rho_from_phi(theta[0], theta[1], phi, geometry)[0]
        pose = Pose(rho1 * math.cos(theta[0]), rho1 * math.sin(theta[0]), phi)
        report = classify_singularity(pose, theta, geometry)
        assert report.kind in (SingularityKind.PARALLEL, SingularityKind.BOTH)
        centre = report.intersection_point
        for name, image, pose_map, point_map in _images(theta, geometry):
            mapped = classify_singularity(pose_map(pose), image, geometry)
            case = (name, theta, phi)
            _assert_reports_map(report, mapped, name, geometry, case)
            x, y = point_map(centre.x, centre.y)
            point = mapped.intersection_point
            assert math.hypot(point.x - x, point.y - y) < 1e-13 * scale, case


# A pose whose C3 orbit split when the parallel test divided det A by
# ||A||_F^3 (moment arms about leg 1's anchor): that test called the pose
# Parallel and its C3 image Regular, with det A 6.68e-9 at both.
_SPLIT_ORBIT_POSE = (0.49314788606076865, -0.8448659820899755, 2.144527896398607)


def _det_a_along(x, y, phi, geometry):
    theta, _ = inverse_kinematics_array(x, y, phi, geometry)
    return build_matrices_array(x, y, phi, theta, geometry).det_a


def _near_parallel_poses(rng, geometry, count):
    """Branch-000 IK poses with |det A| log-uniform in [0.3, 30] *
    PARALLEL_DET_TOL * scale, either sign: for each of ``count`` (y, phi),
    a sign change of det A on a 33-point scan of x is bisected onto that
    value.  Draws with no clean bracket are dropped."""
    scale = geometry.scale
    y = scale * rng.uniform(-1.0, 2.0, count)
    phi = rng.uniform(-math.pi, math.pi, count)
    target = scale * PARALLEL_DET_TOL * rng.choice((-1.0, 1.0), count)
    target *= 10.0 ** rng.uniform(math.log10(0.3), math.log10(30.0), count)
    grid = scale * np.linspace(-1.0, 2.0, 33)
    det = np.array([_det_a_along(np.full(count, x), y, phi, geometry) for x in grid.tolist()])
    # A bracket whose ends are far from det A = 0, so that det A - target
    # changes sign across it too.
    far = np.minimum(abs(det[:-1]), abs(det[1:])) > 1e-6 * scale
    clean = (np.sign(det[:-1]) != np.sign(det[1:])) & far
    keep = clean.any(axis=0)
    k = clean.argmax(axis=0)[keep]
    y, phi, target = y[keep], phi[keep], target[keep]
    lo, hi = grid[k], grid[k + 1]
    low_sign = np.sign(det[k, np.flatnonzero(keep)] - target)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = np.sign(_det_a_along(mid, y, phi, geometry) - target) == low_sign
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return [Pose(*row) for row in zip(lo.tolist(), y.tolist(), phi.tolist())]


@pytest.mark.parametrize("scale", SCALES)
def test_parallel_kind_is_a_function_of_the_orbit(scale):
    # det A is the same at a pose, its C3 images and its mirror, so one
    # reading of it gives one kind.  Dividing |det A| by ||A||_F^3, which
    # moves by up to 2.15x as the labels turn, split 29 of the 187 orbits
    # drawn here at either scale, and the fixed pose below.
    geometry = ManipulatorGeometry(scale)
    poses = _near_parallel_poses(np.random.default_rng(29), geometry, 400)
    poses.append(Pose(*(scale * v for v in _SPLIT_ORBIT_POSE[:2]), _SPLIT_ORBIT_POSE[2]))
    seen = []
    for pose in poses:
        theta = inverse_kinematics(pose, geometry=geometry).angles.as_tuple()
        orbit = [
            (pose, theta),
            (c3_pose(pose, geometry), c3(theta)),
            (c3_pose(c3_pose(pose, geometry), geometry), c3(c3(theta))),
            (mirror_pose(pose, geometry), mirror(theta)),
        ]
        kinds = [classify_singularity(p, t, geometry).kind for p, t in orbit]
        x, y, phi = zip(*(p.as_tuple() for p, _ in orbit))
        kernel = build_matrices_array(x, y, phi, [t for _, t in orbit], geometry)
        kinds += kernel_kinds(kernel, geometry.scale).tolist()
        assert len(set(kinds)) == 1, (pose, theta, kinds)
        seen.append(kinds[0])
    # Both sides of the threshold are drawn: about a quarter parallel.
    assert len(poses) > 150
    assert 0.15 < seen.count(SingularityKind.PARALLEL) / len(seen) < 0.4
    assert seen.count(SingularityKind.PARALLEL) + seen.count(SingularityKind.REGULAR) == len(seen)


# ----------------------------------------------------------------- traces


def _mirrored_rows(n):
    """Index of the sample at -phi for each sample of the (-pi, pi] grid."""
    return (n - np.arange(n) - 2) % n


@pytest.mark.parametrize("scale", SCALES)
def test_trace_of_the_mirrored_sliders_is_the_mirror_image(scale):
    # trace(pi - t2, pi - t1) runs B3's mirror image with phi -> -phi and
    # the two extensions swapped.  Measured at most 1.0e-14 of the curve's
    # size for the rows, 8.9e-16 for the segment's ends and 4.4e-16 rad for
    # phi here: the bounds leave 100x, 1000x and 20x.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(13)
    n = 90
    rows = _mirrored_rows(n)
    pairs = [tuple(rng.uniform(-math.pi, math.pi, 2).tolist()) for _ in range(40)]
    pairs += [(t1, t1 + PI3) for t1, _ in pairs[:6]]
    for t1, t2 in pairs:
        if abs(math.sin(t2 - t1)) < 1e-3:
            continue
        curve = trace_cardanic(t1, t2, n, geometry)
        image = trace_cardanic(math.pi - t2, math.pi - t1, n, geometry)
        size = max(np.abs(curve.rho).max(), scale)
        assert angle_differences(image.phi[rows], -curve.phi).max() < 1e-14
        assert np.abs(image.b3[rows, 0] - (scale - curve.b3[:, 0])).max() < 1e-12 * size
        assert np.abs(image.b3[rows, 1] - curve.b3[:, 1]).max() < 1e-12 * size
        assert np.abs(image.rho[rows] - curve.rho[:, ::-1]).max() < 1e-12 * size
        assert image.degenerate == curve.degenerate, (t1, t2)
        if curve.degenerate:
            ends = [(scale - v.x, v.y) for v in curve.segment]
            # The mirror reverses the line's direction, so the ends swap.
            for v, (x, y) in zip(image.segment, ends[::-1]):
                assert math.hypot(v.x - x, v.y - y) < 1e-12 * size, (t1, t2)
