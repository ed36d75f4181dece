"""Full acceptance battery: one timed check per advertised guarantee.

Every test prints a single pass/fail line (bypassing capture, so it shows
in any pytest run) with the measured extreme and the elapsed time, then
asserts the stated tolerance and the runtime budget.  Sampling rejections
are limited to configurations the guarantee itself excludes (degenerate,
singular, or below the resolution of the cross-checking method); each
rejection is justified where it happens.
"""

import itertools
import math
import random
import sys
import time

from rpr3 import (
    DEFAULT_GEOMETRY,
    DkKind,
    LegAtAnchorError,
    ManipulatorGeometry,
    POSE_TOL,
    Pose,
    SingularityKind,
    build_matrices,
    classify_dk_degeneracy,
    classify_singularity,
    direct_kinematics,
    dkp_bruteforce,
    inverse_kinematics,
    mn_coefficients,
    platform_anchor,
    pose_distance,
    reuleaux_descriptor,
    trace_cardanic,
)
from rpr3.coupler import geometric_dkp
from _reference import (
    angle_difference,
    det_A_specialized,
    jacobian_fd_check,
    rotation_matrix,
    signed_extensions,
)

PI = math.pi
PI3 = math.pi / 3.0
SQRT3 = math.sqrt(3.0)
EPS = sys.float_info.epsilon


def _report(capsys, index: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {index} {'PASS' if ok else 'FAIL'}: {detail}")


def _pose_gap(a: Pose, b: Pose) -> float:
    return max(
        abs(a.x - b.x),
        abs(a.y - b.y),
        abs(angle_difference(a.phi, b.phi)),
    )


def _set_gap(first, second) -> float:
    """Symmetric Hausdorff distance between two finite pose sets."""
    worst = 0.0
    for src, dst in ((first, second), (second, first)):
        for a in src:
            worst = max(worst, min(_pose_gap(a, b) for b in dst))
    return worst


def _phi_star(m: float, n: float) -> float:
    return math.atan2(2.0 * m * n, m * m - n * n)


# --------------------------------------------------------------- criterion 1


def test_c1_dk_root_count_and_bruteforce_agreement(capsys):
    budget, tol = 120.0, 1e-7
    start = time.monotonic()
    rng = random.Random(20260801)
    accepted = 0
    max_gap = 0.0
    while accepted < 1000:
        theta = tuple(rng.uniform(-PI, PI) for _ in range(3))
        if classify_dk_degeneracy(theta) is not DkKind.TWO_SOLUTIONS:
            continue  # continuum or tangent patterns are not generic
        m, n = mn_coefficients(theta)
        if m * m + n * n < 1e-8:
            continue  # root isolation degrades approaching the continua
        if abs(_phi_star(m, n)) < 1e-2:
            continue  # roots closer than the scan grid can separate
        closed = direct_kinematics(theta)
        assert closed.kind is DkKind.TWO_SOLUTIONS
        assert len(closed.poses) == 2
        assert _pose_gap(closed.poses[0], Pose(0.0, 0.0, 0.0)) == 0.0

        scan = dkp_bruteforce(theta)
        assert not scan.continuum
        assert len(scan.solutions_found) == 2
        max_gap = max(max_gap, _set_gap(closed.poses, scan.solutions_found))
        accepted += 1
    elapsed = time.monotonic() - start
    ok = max_gap < tol and elapsed < budget
    _report(capsys, 1, ok, f"1000 joint triples, 2 roots each incl trivial, "
                           f"max closed-vs-scan gap {max_gap:.2e}, {elapsed:.1f} s")
    assert max_gap < tol
    assert elapsed < budget


# --------------------------------------------------------------- criterion 2


def test_c2_trivial_pose_is_exactly_serial_singular(capsys):
    budget = 1.0
    start = time.monotonic()
    rng = random.Random(2)
    trivial = Pose(0.0, 0.0, 0.0)
    thetas = [(0.0, PI3, -PI3), (0.2, 0.9, 2.0)]
    thetas += [tuple(rng.uniform(-PI, PI) for _ in range(3)) for _ in range(14)]
    for theta in thetas:
        rhos = signed_extensions(trivial, theta)
        mats = build_matrices(trivial, theta)
        assert rhos == (0.0, 0.0, 0.0)
        assert mats.det_b == 0.0
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    _report(capsys, 2, ok, f"rho = (0, 0, 0) and det B = 0 exactly for "
                           f"{len(thetas)} joint sets, {elapsed * 1e3:.0f} ms")
    assert ok


# --------------------------------------------------------------- criterion 3


def test_c3_equal_angles_are_translation_singular(capsys):
    budget, tol = 5.0, 1e-9
    start = time.monotonic()
    rng = random.Random(3)
    trivial = Pose(0.0, 0.0, 0.0)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(-PI, PI)
        theta = (t, t, t)
        mats = build_matrices(trivial, theta)
        worst = max(worst, abs(mats.det_a))
        assert classify_dk_degeneracy(theta) is DkKind.CONTINUUM_TRANSLATION
        assert det_A_specialized(theta) == 0.0
    elapsed = time.monotonic() - start
    ok = worst < tol and elapsed < budget
    _report(capsys, 3, ok, f"100 equal-angle sets, max |det A| {worst:.2e}, "
                           f"all ContinuumTranslation, {elapsed * 1e3:.0f} ms")
    assert worst < tol
    assert elapsed < budget


# --------------------------------------------------------------- criterion 4


def _line_intersection(p, d, q, e):
    denom = d[0] * e[1] - d[1] * e[0]
    u = ((q[0] - p[0]) * e[1] - (q[1] - p[1]) * e[0]) / denom
    return (p[0] + u * d[0], p[1] + u * d[1])


def _hunt_parallel_singularities(rng, count, geometry):
    """Bisect det A (trivial assembly) to zero along random joint-space lines."""
    found = []
    while len(found) < count:
        base = [rng.uniform(-PI, PI) for _ in range(3)]
        direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in direction))
        direction = [c / norm for c in direction]

        def det_at(s):
            return det_A_specialized(
                (base[0] + s * direction[0],
                 base[1] + s * direction[1],
                 base[2] + s * direction[2]),
                geometry=geometry,
            )

        samples = [6.0 * k / 120 for k in range(121)]
        values = [det_at(s) for s in samples]
        for k in range(120):
            if len(found) == count:
                break
            lo, hi = samples[k], samples[k + 1]
            flo, fhi = values[k], values[k + 1]
            if flo == 0.0 or (flo < 0.0) == (fhi < 0.0):
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fmid = det_at(mid)
                if fmid == 0.0:
                    lo = mid
                    break
                if (fmid < 0.0) == (flo < 0.0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            theta = tuple(base[i] + lo * direction[i] for i in range(3))
            sines = [
                math.sin(theta[1] - theta[0]),
                math.sin(theta[2] - theta[0]),
                math.sin(theta[2] - theta[1]),
            ]
            if min(abs(s) for s in sines) < 1e-3:
                # normals near-parallel: they meet at infinity and the
                # pairwise-intersection spread below is not meaningful
                continue
            found.append(theta)
    return found


def test_c4_parallel_singular_normals_are_concurrent(capsys):
    budget = 30.0
    start = time.monotonic()
    rng = random.Random(4)
    trivial = Pose(0.0, 0.0, 0.0)
    worst_spread = 0.0
    worst_det = 0.0
    cases = [(DEFAULT_GEOMETRY, 100), (ManipulatorGeometry(2.0), 10)]
    for geometry, count in cases:
        tol = 1e-6 * geometry.scale
        for theta in _hunt_parallel_singularities(rng, count, geometry):
            mats = build_matrices(trivial, theta, geometry)
            norm = math.sqrt(sum(v * v for row in mats.a_matrix for v in row))
            assert abs(mats.det_a) < 1e-9 * norm**3
            worst_det = max(worst_det, abs(mats.det_a))

            # re-derive concurrency from raw geometry: line through each
            # platform anchor, normal to its leg direction
            lines = []
            for leg in (1, 2, 3):
                b = platform_anchor(trivial, leg, geometry)
                t = theta[leg - 1]
                lines.append(((b.x, b.y), (-math.sin(t), math.cos(t))))
            points = [
                _line_intersection(*lines[0], *lines[1]),
                _line_intersection(*lines[1], *lines[2]),
                _line_intersection(*lines[0], *lines[2]),
            ]
            spread = max(
                math.hypot(a[0] - b[0], a[1] - b[1])
                for a in points
                for b in points
            )
            assert spread < tol
            worst_spread = max(worst_spread, spread / geometry.scale)
    elapsed = time.monotonic() - start
    ok = worst_spread < 1e-6 and elapsed < budget
    _report(capsys, 4, ok, f"110 bisected parallel singularities, max normal "
                           f"spread {worst_spread:.2e} per scale, {elapsed:.1f} s")
    assert ok


# --------------------------------------------------------------- criterion 5


def test_c5_finite_difference_jacobian(capsys):
    budget, tol = 30.0, 1e-5
    start = time.monotonic()
    rng = random.Random(5)
    worst = 0.0
    accepted = 0
    while accepted < 100:
        pose = Pose(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0), rng.uniform(-PI, PI))
        try:
            theta = inverse_kinematics(pose).angles.as_tuple()
        except LegAtAnchorError:
            continue
        if min(abs(r) for r in signed_extensions(pose, theta)) < 0.05:
            continue  # not a regular configuration: serial singularity nearby
        mats = build_matrices(pose, theta)
        norm = math.sqrt(sum(v * v for row in mats.a_matrix for v in row))
        if abs(mats.det_a) < 1e-6 * norm**3:
            continue  # not regular: parallel singularity nearby
        worst = max(worst, jacobian_fd_check(pose, theta, step=1e-6))
        accepted += 1
    elapsed = time.monotonic() - start
    ok = worst < tol and elapsed < budget
    _report(capsys, 5, ok, f"100 regular configurations, max FD relative "
                           f"error {worst:.2e} at step 1e-6, {elapsed:.1f} s")
    assert worst < tol
    assert elapsed < budget


# --------------------------------------------------------------- criterion 6


def test_c6_cardanic_curve_invariants(capsys):
    budget = 60.0
    start = time.monotonic()
    rng = random.Random(6)
    # The platform anchors in the platform frame are the base anchors.
    (a1x, a1y), (a2x, a2y), (a3x, a3y) = DEFAULT_GEOMETRY._anchor_pairs
    worst_a3 = 0.0
    worst_closure = 0.0
    accepted = 0
    while accepted < 1000:
        t1 = rng.uniform(-PI, PI)
        t2 = rng.uniform(-PI, PI)
        if abs(math.sin(t2 - t1)) < 1e-3:
            continue  # slider lines near-parallel: the curve runs to infinity
        curve = trace_cardanic(t1, t2, n_samples=64)

        samples = list(zip(curve.phi.tolist(), curve.b3.tolist(), curve.rho.tolist()))
        phi0, (x0, y0), _ = min(samples, key=lambda s: abs(s[0]))
        assert phi0 == 0.0
        worst_a3 = max(worst_a3, math.hypot(x0 - a3x, y0 - a3y))

        v1 = (math.cos(t1), math.sin(t1))
        v2 = (math.cos(t2), math.sin(t2))
        for phi, (b3x, b3y), (rho1, rho2) in samples:
            # rebuild both loop anchors from the traced vertex alone
            rot = rotation_matrix(phi)
            b1x = b3x - (rot[0][0] * a3x + rot[0][1] * a3y)
            b1y = b3y - (rot[1][0] * a3x + rot[1][1] * a3y)
            b2x = b1x + rot[0][0] * a2x + rot[0][1] * a2y
            b2y = b1y + rot[1][0] * a2x + rot[1][1] * a2y
            r1 = v1[1] * (b1x - a1x) - v1[0] * (b1y - a1y)
            r2 = v2[1] * (b2x - a2x) - v2[0] * (b2y - a2y)
            p1 = v1[0] * (b1x - a1x) + v1[1] * (b1y - a1y)
            p2 = v2[0] * (b2x - a2x) + v2[1] * (b2y - a2y)
            worst_closure = max(
                worst_closure,
                abs(r1),
                abs(r2),
                abs(p1 - rho1),
                abs(p2 - rho2),
            )
        accepted += 1
    elapsed = time.monotonic() - start
    ok = worst_a3 < 1e-8 and worst_closure < 1e-10 and elapsed < budget
    _report(capsys, 6, ok, f"1000 curves x 64 samples, A3 miss {worst_a3:.2e}, "
                           f"max loop-closure residual {worst_closure:.2e}, {elapsed:.1f} s")
    assert worst_a3 < 1e-8
    assert worst_closure < 1e-10
    assert elapsed < budget


# --------------------------------------------------------------- criterion 7


def test_c7_reuleaux_constants(capsys):
    budget, tol = 10.0, 1e-6
    start = time.monotonic()
    # the straight-line family: offsets +pi/3 and -pi/3, with either slider
    # direction mirrored by pi (same lines traversed the opposite way)
    variants = [
        (0.0, PI3, -PI3),
        (0.0, PI3 - PI, -PI3),
        (0.0, PI3, -PI3 + PI),
        (0.0, PI3 - PI, -PI3 + PI),
    ]
    worst_len = 0.0
    worst_disp = 0.0
    for theta in variants:
        desc = reuleaux_descriptor(theta)
        worst_len = max(worst_len, abs(desc.p_line.length - 2.0))
        worst_disp = max(
            worst_disp, abs(desc.a_displacement_magnitude - 4.0 * SQRT3 / 3.0)
        )
    scaled = reuleaux_descriptor(
        variants[0], geometry=ManipulatorGeometry(2.0)
    )
    worst_len = max(worst_len, abs(scaled.p_line.length - 4.0))
    worst_disp = max(
        worst_disp, abs(scaled.a_displacement_magnitude - 8.0 * SQRT3 / 3.0)
    )
    # independent geometric cross-check: the traced vertex segment spans the
    # same travel; sampling limits it to ~1e-5 agreement at 4096 points
    curve = trace_cardanic(0.0, PI3, n_samples=4096)
    assert curve.degenerate
    lo, hi = curve.segment
    assert abs(math.hypot(hi.x - lo.x, hi.y - lo.y) - 4.0 * SQRT3 / 3.0) < 1e-4
    elapsed = time.monotonic() - start
    ok = worst_len < tol and worst_disp < tol and elapsed < budget
    _report(capsys, 7, ok, f"4 straight-line variants + doubled scale, stroke "
                           f"off by {worst_len:.2e}, vertex travel off by "
                           f"{worst_disp:.2e}, {elapsed:.1f} s")
    assert worst_len < tol
    assert worst_disp < tol
    assert elapsed < budget


# --------------------------------------------------------------- criterion 8


def test_c8_ik_dk_roundtrip(capsys):
    budget, tol = 60.0, 1e-8
    start = time.monotonic()
    rng = random.Random(8)
    worst = 0.0
    accepted = 0
    while accepted < 10_000:
        pose = Pose(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0), rng.uniform(-PI, PI))
        try:
            theta = inverse_kinematics(pose).angles.as_tuple()
        except LegAtAnchorError:
            continue
        if min(abs(r) for r in signed_extensions(pose, theta)) < 1e-3:
            continue  # serial singular within noise of an anchor
        mats = build_matrices(pose, theta)
        norm = math.sqrt(sum(v * v for row in mats.a_matrix for v in row))
        if abs(mats.det_a) < 1e-8 * norm**3:
            continue  # parallel singular within margin of the det test
        m, n = mn_coefficients(theta)
        if m * m + n * n < 1e-8:
            continue  # pose sits on a self-motion continuum
        result = direct_kinematics(theta)
        if result.kind is not DkKind.TWO_SOLUTIONS:
            continue
        worst = max(worst, min(_pose_gap(pose, p) for p in result.poses))
        accepted += 1
    elapsed = time.monotonic() - start
    ok = worst < tol and elapsed < budget
    _report(capsys, 8, ok, f"10000 poses, max inverse->direct roundtrip "
                           f"error {worst:.2e}, {elapsed:.1f} s")
    assert worst < tol
    assert elapsed < budget


# --------------------------------------------------------------- criterion 9


def test_c9_geometric_and_closed_dkp_agree(capsys):
    budget, tol = 120.0, 1e-7
    start = time.monotonic()
    rng = random.Random(9)
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        theta = tuple(rng.uniform(-PI, PI) for _ in range(3))
        if classify_dk_degeneracy(theta) is not DkKind.TWO_SOLUTIONS:
            continue
        m, n = mn_coefficients(theta)
        if m * m + n * n < 1e-6:
            continue  # near the continuum both methods lose isolation
        closed = direct_kinematics(theta)
        geo = geometric_dkp(theta)
        assert geo.kind is DkKind.TWO_SOLUTIONS
        assert len(geo.poses) == len(closed.poses) == 2
        worst = max(worst, _set_gap(closed.poses, geo.poses))
        accepted += 1
    elapsed = time.monotonic() - start
    ok = worst < tol and elapsed < budget
    _report(capsys, 9, ok, f"1000 joint triples, curve-line vs closed-form "
                           f"Hausdorff {worst:.2e}, {elapsed:.1f} s")
    assert worst < tol
    assert elapsed < budget


# -------------------------------------------------------------- criterion 10


def test_c10_det_a_is_half_scale_n_with_the_assembly_sign(capsys):
    # det A = (scale / 2) (n cos phi - m sin phi) at every assembly of theta:
    # +scale n / 2 at the trivial one and -scale n / 2 at the other (see
    # mn_coefficients).  Each det A is a rounded 3x3 determinant, so the
    # general form holds to a few eps * scale.  Off the trivial assembly the
    # drawn phi is the root of the rounded theta only to about eps / |n|, so
    # that comparison is allowed eps * scale * (1 + (|m| + |n|) / |n|).
    budget, tol = 1.0, 16 * EPS
    start = time.monotonic()
    rng = random.Random(10)
    trivial = Pose(0.0, 0.0, 0.0)
    worst = {"general": 0.0, "second": 0.0, "trivial": 0.0}
    count = 0
    for scale in (1.0, 2.0, 1.7):
        geometry = ManipulatorGeometry(scale)
        for _ in range(100):
            pose = Pose(scale * rng.uniform(-0.5, 1.5), scale * rng.uniform(-0.5, 1.5),
                        rng.uniform(-PI, PI))
            for branch in itertools.product((0, 1), repeat=3):
                theta = inverse_kinematics(pose, branch, geometry).angles
                m, n = mn_coefficients(theta)
                det_a = classify_singularity(pose, theta, geometry).det_a
                half = 0.5 * scale
                general = half * (n * math.cos(pose.phi) - m * math.sin(pose.phi))
                at_trivial = (build_matrices(trivial, theta, geometry).det_a,
                              det_A_specialized(theta, geometry))
                gaps = {
                    "general": abs(det_a - general) / scale,
                    "second": abs(det_a + half * n) / (scale * (1 + (abs(m) + abs(n)) / abs(n))),
                    "trivial": max(abs(d - half * n) for d in at_trivial) / scale,
                }
                worst = {key: max(worst[key], gaps[key]) for key in worst}
                count += 1
    elapsed = time.monotonic() - start
    ok = max(worst.values()) < tol and elapsed < budget
    _report(capsys, 10, ok, f"{count} configurations at scales 1, 2, 1.7, worst gaps in eps: "
                            + ", ".join(f"{k} {v / EPS:.1f}" for k, v in worst.items())
                            + f", {elapsed * 1e3:.0f} ms")
    assert max(worst.values()) < tol
    assert elapsed < budget


# -------------------------------------------------------------- criterion 11


def test_c11_the_two_assemblies_lie_in_opposite_aspects(capsys):
    # By criterion 10, det A is +scale n / 2 at the trivial assembly and
    # -scale n / 2 at the other: an assembly-mode change must cross a
    # parallel singularity (Chablat & Wenger, ICRA 1998).
    budget = 1.0
    start = time.monotonic()
    rng = random.Random(11)
    for _ in range(1000):
        theta = tuple(rng.uniform(-PI, PI) for _ in range(3))
        result = direct_kinematics(theta)
        assert result.kind is DkKind.TWO_SOLUTIONS and not result.coincident
        first, second = (classify_singularity(pose, theta).det_a for pose in result.poses)
        assert first * second < 0.0, (theta, first, second)
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    _report(capsys, 11, ok, f"1000 joint triples, det A of opposite signs at "
                            f"the two assemblies, {elapsed * 1e3:.0f} ms")
    assert ok


# -------------------------------------------------------------- criterion 12


def _det_a_along_x(x, y, phi, geometry):
    pose = Pose(x, y, phi)
    theta = inverse_kinematics(pose, geometry=geometry).angles
    return classify_singularity(pose, theta, geometry).det_a


def _parallel_roots_along_x(y, phi, geometry, samples=21):
    """Each x in [-0.5, 1.5] * scale where det A changes sign at (y, phi),
    bisected to adjacent floats, with det A there."""
    s = geometry.scale
    xs = [s * (-0.5 + 2.0 * k / (samples - 1)) for k in range(samples)]
    dets = [_det_a_along_x(x, y, phi, geometry) for x in xs]
    roots = []
    for lo, hi, d_lo, d_hi in zip(xs, xs[1:], dets, dets[1:]):
        if d_lo * d_hi >= 0.0:
            continue
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            d_mid = _det_a_along_x(mid, y, phi, geometry)
            if (d_mid < 0.0) == (d_lo < 0.0):
                lo, d_lo = mid, d_mid
            else:
                hi = mid
        roots.append((lo, d_lo))
    return roots


def test_c12_every_parallel_singularity_off_phi_zero_is_a_reuleaux_continuum(capsys):
    # By criterion 10, det A = -scale n / 2 off the trivial assembly, and
    # there the reduction m (cos phi - 1) + n sin phi = 0 with n = 0 and
    # phi != 0 forces m = 0: a parallel singular pose with phi away from 0
    # has the straight-line angles, a rotational self-motion.
    budget = 1.0
    start = time.monotonic()
    rng = random.Random(12)
    worst_mn, worst_det, roots = 0.0, 0.0, 0
    for scale in (1.0, 1.7):
        geometry = ManipulatorGeometry(scale)
        for _ in range(20):
            y, phi = scale * rng.uniform(-0.5, 1.5), rng.uniform(0.2, 3.0)
            for x, det_a in _parallel_roots_along_x(y, phi, geometry):
                pose = Pose(x, y, phi)
                theta = inverse_kinematics(pose, geometry=geometry).angles
                assert classify_dk_degeneracy(theta) is DkKind.CONTINUUM_REULEAUX, pose
                kind = classify_singularity(pose, theta, geometry).kind
                assert kind in (SingularityKind.PARALLEL, SingularityKind.BOTH), pose
                reuleaux_descriptor(theta, geometry)
                worst_mn = max(worst_mn, *map(abs, mn_coefficients(theta)))
                worst_det = max(worst_det, abs(det_a) / scale**2)
                roots += 1
    elapsed = time.monotonic() - start
    ok = roots >= 20 and worst_mn < 1e-12 and elapsed < budget
    _report(capsys, 12, ok, f"{roots} det A roots along x at scales 1, 1.7, all Reuleaux "
                            f"continua, worst |m|, |n| {worst_mn:.1e}, worst |det A| / scale^2 "
                            f"{worst_det:.1e}, {elapsed * 1e3:.0f} ms")
    assert roots >= 20
    assert worst_mn < 1e-12
    assert elapsed < budget


# -------------------------------------------------------------- criterion 13


def _merging_triples(rng, count):
    """For each of ``count`` drawn (t1, t2), n bisected along t3 to adjacent
    floats: every bisection midpoint with |phi*| in [1e-8, 1e-2], then the
    final t3, on n = 0 to rounding."""
    triples = []
    for _ in range(count):
        t1, t2 = rng.uniform(-PI, PI), rng.uniform(-PI, PI)

        def n_at(t3):
            return mn_coefficients((t1, t2, t3))[1]

        grid = [PI * (k / 4.0 - 1.0) for k in range(9)]
        lo, hi = next((a, b) for a, b in zip(grid, grid[1:]) if n_at(a) * n_at(b) < 0.0)
        n_lo = n_at(lo)
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if 1e-8 <= abs(_phi_star(*mn_coefficients((t1, t2, mid)))) <= 1e-2:
                triples.append((t1, t2, mid))
            n_mid = n_at(mid)
            if (n_mid < 0.0) == (n_lo < 0.0):
                lo, n_lo = mid, n_mid
            else:
                hi = mid
        triples.append((t1, t2, lo))
    return triples


def test_c13_both_routes_resolve_merging_assemblies(capsys):
    # At n = 0 the second assembly merges into the trivial one (criterion
    # 10), phi* ~ 2n/m.  Both independent routes work in psi = phi / 2 with
    # the factor 2 sin(psi) of the trivial root divided out (the oracle scans
    # psi, the curve route meets leg 3's axis in closed form), so each must
    # return the two assemblies of the closed form however close they sit.
    budget = 0.5
    start = time.monotonic()
    triples = _merging_triples(random.Random(13), 4)
    phis = [abs(_phi_star(*mn_coefficients(theta))) for theta in triples]
    worst, coincident = 0.0, 0
    for scale in (1.0, 1.7):
        geometry = ManipulatorGeometry(scale)
        for theta in triples:
            closed = direct_kinematics(theta, geometry)
            assert closed.kind is DkKind.TWO_SOLUTIONS, theta
            geo = geometric_dkp(theta, geometry=geometry)
            assert (geo.kind, geo.coincident) == (closed.kind, closed.coincident), theta
            coincident += closed.coincident
            for poses in (geo.poses, dkp_bruteforce(theta, geometry).solutions_found):
                assert len(poses) == 2 and poses[0] == Pose(0.0, 0.0, 0.0), theta
                worst = max(worst, pose_distance(closed.poses[1], poses[1], geometry))
    elapsed = time.monotonic() - start
    ok = worst < POSE_TOL and elapsed < budget
    _report(capsys, 13, ok, f"{len(triples)} triples bisected onto n = 0 at scales 1, 1.7, "
                            f"|phi*| from {min(phis):.1e} to {max(phis):.1e}, {coincident} "
                            f"coincident, worst gap to the closed form {worst:.1e}, "
                            f"{elapsed * 1e3:.0f} ms")
    assert worst < POSE_TOL
    assert elapsed < budget
