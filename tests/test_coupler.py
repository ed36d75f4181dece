"""Coupler-curve tracing, the curve-line solver, and straight-line motion."""

import math

import numpy as np
import pytest

from rpr3 import coupler, oracle, solvers
from rpr3.errors import DegenerateLegPairError, NotReuleauxError
from rpr3.geometry import (
    DEFAULT_GEOMETRY,
    POSE_TOL,
    ManipulatorGeometry,
    Pose,
    constraint_residuals,
    platform_anchor,
    pose_distance,
)
from rpr3.coupler import (
    geometric_dkp,
    reuleaux_descriptor,
    rho_from_phi,
    trace_cardanic,
)
from rpr3.jacobians import classify_singularity
from rpr3.oracle import dkp_bruteforce
from rpr3.solvers import (
    DEGENERACY_ANGLE_TOL,
    DkKind,
    classify_dk_degeneracy,
    direct_kinematics,
    mn_coefficients,
)
from _reference import angle_difference, rotation_matrix, signed_extensions

PI3 = math.pi / 3.0
SQRT3 = math.sqrt(3.0)


def _b3(theta1, phi, rho1, geometry=DEFAULT_GEOMETRY):
    """Third platform anchor (x, y) rebuilt from the leg-1 polar coordinates."""
    (a1x, a1y), _, a3 = geometry._anchor_pairs
    world = rotation_matrix(phi) @ a3
    return (a1x + rho1 * math.cos(theta1) + world[0], a1y + rho1 * math.sin(theta1) + world[1])


# --------------------------------------------------------------- rho(phi)


def test_rho_from_phi_quarter_turn_example():
    # orthogonal sliders, quarter-turn platform: both extensions reach 1
    rho1, rho2 = rho_from_phi(0.0, math.pi / 2.0, math.pi / 2.0)
    assert abs(rho1 - 1.0) < 1e-15
    assert abs(rho2 - 1.0) < 1e-15


def test_rho_from_phi_is_zero_at_identity():
    assert rho_from_phi(0.3, 1.1, 0.0) == (0.0, 0.0)


def test_rho_from_phi_is_positive_zero_at_identity():
    # Leg 2's pair (a, b) is negative here, and a·0 + b·0 alone is -0.0.
    rho = rho_from_phi(0.2, -2.5, 0.0)
    assert [math.copysign(1.0, r) for r in rho] == [1.0, 1.0]
    curve = trace_cardanic(0.2, -2.5, 8)
    assert np.signbit(curve.rho[curve.phi == 0.0]).tolist() == [[False, False]]


def test_rho_from_phi_closes_the_two_leg_loop():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 300:
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        if abs(math.sin(t2 - t1)) < 1e-3:
            continue
        phi = float(rng.uniform(-math.pi, math.pi))
        rho1, rho2 = rho_from_phi(t1, t2, phi)
        pose = Pose(rho1 * math.cos(t1), rho1 * math.sin(t1), phi)
        # legs 1 and 2 of the full constraint stack must both be satisfied
        residuals = constraint_residuals(pose, (t1, t2, 0.0))
        assert abs(residuals[0]) < 1e-12
        assert abs(residuals[1]) < 1e-12
        # and the second anchor's slider coordinate matches rho2
        (bx, by), (ax, ay) = platform_anchor(pose, 2), DEFAULT_GEOMETRY._anchor_pairs[1]
        proj = (bx - ax) * math.cos(t2) + (by - ay) * math.sin(t2)
        assert abs(proj - rho2) < 1e-12
        checked += 1


def test_rho_from_phi_rejects_parallel_sliders():
    with pytest.raises(DegenerateLegPairError):
        rho_from_phi(0.4, 0.4 + math.pi, 1.0)


def test_rho_from_phi_scales_linearly():
    one = rho_from_phi(0.2, 0.9, 1.3)
    two = rho_from_phi(0.2, 0.9, 1.3, ManipulatorGeometry(2.0))
    assert abs(two[0] - 2.0 * one[0]) < 1e-14
    assert abs(two[1] - 2.0 * one[1]) < 1e-14


# ----------------------------------------------------------------- tracing


def test_trace_passes_through_third_base_anchor():
    # B3 is a3 plus an offset that vanishes at phi = 0, so it is a3 exactly.
    for scale in (1.0, 1.7):
        geometry = ManipulatorGeometry(scale)
        a3 = list(geometry._anchor_pairs[2])
        for n_samples in (8, 720):
            curve = trace_cardanic(0.2, 0.9, n_samples, geometry)
            rows = zip(curve.phi.tolist(), curve.b3.tolist())
            assert [b3 for phi, b3 in rows if phi == 0.0] == [a3], (scale, n_samples)


def test_trace_takes_an_integer_sample_count():
    # 8.5 samples once gave 9 phi values up to 3.511, past the cycle's pi.
    for count in (8.5, 8.0, 9.0, math.nan, math.inf):
        with pytest.raises(TypeError):
            trace_cardanic(0.2, 0.9, count)
    # The CLI refuses a short --samples before the library sees it, so only
    # this reaches the library's own floor.
    assert coupler.MIN_CURVE_SAMPLES == 8
    with pytest.raises(ValueError, match=r"^n_samples must be at least 8, got 7$"):
        trace_cardanic(0.2, 0.9, 7)
    numpy_count = trace_cardanic(0.2, 0.9, np.int64(8))
    assert len(numpy_count.phi) == 8 and numpy_count.b3.shape == (8, 2)
    assert numpy_count.phi.tolist() == trace_cardanic(0.2, 0.9, 8).phi.tolist()


def test_trace_grid_covers_the_cycle():
    curve = trace_cardanic(0.2, 0.9, n_samples=720)
    phis = curve.phi.tolist()
    assert len(phis) == 720
    assert curve.b3.shape == curve.rho.shape == (720, 2)
    assert all(b > a for a, b in zip(phis, phis[1:]))
    assert -math.pi < phis[0] <= math.pi
    assert phis[-1] == math.pi


def test_trace_closes_over_a_full_cycle():
    # evaluating one period apart must land on the same point
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 100:
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        if abs(math.sin(t2 - t1)) < 1e-3:
            continue
        phi = float(rng.uniform(-math.pi, math.pi))
        lo = rho_from_phi(t1, t2, phi)
        hi = rho_from_phi(t1, t2, phi + 2.0 * math.pi)
        (ax, ay), (bx, by) = _b3(t1, phi, lo[0]), _b3(t1, phi + 2.0 * math.pi, hi[0])
        assert math.hypot(ax - bx, ay - by) < 1e-10
        checked += 1


def test_trace_samples_satisfy_constraints():
    curve = trace_cardanic(-1.1, 0.4, n_samples=128)
    for phi, (x, y), (rho1, _) in zip(
        curve.phi.tolist(), curve.b3.tolist(), curve.rho.tolist()
    ):
        pose = Pose(rho1 * math.cos(-1.1), rho1 * math.sin(-1.1), phi)
        residuals = constraint_residuals(pose, (-1.1, 0.4, 0.0))
        assert abs(residuals[0]) < 1e-12
        assert abs(residuals[1]) < 1e-12
        anchor = platform_anchor(pose, 3)
        assert math.hypot(anchor.x - x, anchor.y - y) < 1e-12


def test_trace_degeneracy_dichotomy():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        if abs(math.sin(t2 - t1)) < 1e-3:
            continue
        gap = angle_difference(t2 - t1, PI3, period=math.pi)
        if gap < 1e-4:
            continue  # the band near the degeneracy: tested separately
        curve = trace_cardanic(t1, t2, n_samples=90)
        assert not curve.degenerate
        assert curve.segment is None


@pytest.mark.parametrize("t1", [-2.0, 0.0, 0.5])
@pytest.mark.parametrize("offset", [PI3, PI3 - math.pi])
def test_trace_degenerates_on_third_turn_offsets(t1, offset):
    curve = trace_cardanic(t1, t1 + offset)
    assert curve.degenerate
    start, stop = curve.segment
    dx, dy = stop.x - start.x, stop.y - start.y
    length = math.hypot(dx, dy)
    assert length > 0.1
    ux, uy = dx / length, dy / length
    for x, y in curve.b3.tolist():
        # distance from the segment's carrier line
        d = (x - start.x) * uy - (y - start.y) * ux
        assert abs(d) < 1e-9


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_trace_degenerates_exactly_where_the_solvers_see_a_reuleaux_triple(scale):
    # One straight-line rule: the trace is a segment exactly when the triple
    # completed with theta3 = theta1 - pi/3 classifies as the Reuleaux
    # continuum, inside the DEGENERACY_ANGLE_TOL band too, where the samples
    # bow off the line by up to about that angle times the scale.
    geometry = ManipulatorGeometry(scale)
    deltas = [0.0] + [sign * d for d in (1e-10, 2e-9, 4.9e-9, 6e-9, 1e-8) for sign in (1.0, -1.0)]
    for t1 in (-2.5, -0.7, 0.0, 0.5, 1.9, 3.0):
        u = np.array([math.cos(t1 - PI3), math.sin(t1 - PI3)])
        for flip in (0.0, math.pi, -math.pi):
            for delta in deltas:
                t2 = t1 + PI3 + flip + delta
                curve = trace_cardanic(t1, t2, geometry=geometry)
                kind = classify_dk_degeneracy((t1, t2, t1 - PI3))
                case = (t1, flip, delta)
                assert curve.degenerate == (kind is DkKind.CONTINUUM_REULEAUX), case
                assert curve.degenerate == (abs(delta) < DEGENERACY_ANGLE_TOL), case
                if not curve.degenerate:
                    assert curve.segment is None, case
                    continue
                start, stop = (np.array([v.x, v.y]) for v in curve.segment)
                # Lower end first along leg 3's direction theta1 - pi/3.
                assert (stop - start) @ u > 0.0, case
                ux, uy = (stop - start) / np.linalg.norm(stop - start)
                x, y = (curve.b3 - start).T
                gap = np.abs(x * uy - y * ux).max()
                assert gap < 2.5 * DEGENERACY_ANGLE_TOL * scale, case


@pytest.mark.parametrize("scale", [1.0, 1.7])
@pytest.mark.parametrize("n_samples", [8, 720, 4096])
def test_degenerate_segment_length_is_full_stroke(scale, n_samples):
    # The B3 stroke over a full cycle spans 4*sqrt(3)/3 times the scale,
    # independent of t1, and the ends are leg 3's extreme extensions, not
    # the samples' extent: 8 samples used to fall 0.16 short, 720 still 2e-5.
    geometry = ManipulatorGeometry(scale)
    for t1 in (-2.5, -0.7, 0.0, 0.5, 1.9, 3.0):
        for flip in (0.0, -math.pi):
            curve = trace_cardanic(t1, t1 + PI3 + flip, n_samples, geometry)
            start, stop = curve.segment
            length = math.hypot(stop.x - start.x, stop.y - start.y)
            assert abs(length - 4.0 * SQRT3 / 3.0 * scale) < 1e-14 * scale


# ----------------------------------------------------------- geometric DKP


def test_geometric_dkp_matches_closed_form():
    rng = np.random.default_rng(60)
    checked = 0
    while checked < 150:
        theta = tuple(rng.uniform(-math.pi, math.pi, 3))
        m, n = mn_coefficients(theta)
        if m * m + n * n < 1e-6:
            continue
        if abs(math.sin(theta[1] - theta[0])) < 1e-2:
            continue
        closed = direct_kinematics(theta)
        if closed.kind is not DkKind.TWO_SOLUTIONS:
            continue
        geo = geometric_dkp(theta)
        assert geo.kind is DkKind.TWO_SOLUTIONS
        assert len(geo.poses) == 2
        for p, q in zip(
            sorted(closed.poses, key=lambda p: p.phi),
            sorted(geo.poses, key=lambda p: p.phi),
        ):
            assert abs(p.x - q.x) < 1e-7
            assert abs(p.y - q.y) < 1e-7
            assert angle_difference(p.phi, q.phi) < 1e-7
        checked += 1


def test_both_routes_resolve_the_near_merges_of_a_seeded_draw():
    # Of 20,000 uniform triples from default_rng(1), 63 have |phi2| < 1e-2:
    # closer to the trivial root than a scan over phi can bracket.  Both
    # routes work in the half angle with the trivial root divided out: the
    # oracle scans it, and the curve route meets leg 3's axis in closed form.
    triples = np.random.default_rng(1).uniform(-math.pi, math.pi, (20000, 3)).tolist()
    near = []
    for theta in triples:
        closed = direct_kinematics(theta)
        if closed.kind is DkKind.TWO_SOLUTIONS and abs(closed.poses[1].phi) < 1e-2:
            near.append((theta, closed))
    assert len(near) == 63
    for theta, closed in near:
        geo = geometric_dkp(theta)
        scan = dkp_bruteforce(theta).solutions_found
        assert (geo.kind, geo.coincident) == (closed.kind, closed.coincident), theta
        for poses in (geo.poses, scan):
            assert len(poses) == 2, theta
            for p, q in zip(closed.poses, poses):
                assert pose_distance(p, q) < POSE_TOL, theta


def test_geometric_dkp_solves_the_pose_through_the_best_conditioned_pair():
    # With legs 1 and 2 nearly parallel, a pose recovered through them alone
    # errs like 1e-14 / |sin(t2 - t1)|: 82 of these 300 by more than POSE_TOL.
    rng = np.random.default_rng(17)
    for _ in range(300):
        t1, t3 = rng.uniform(-math.pi, math.pi, 2)
        gap = 10.0 ** rng.uniform(-8.0, -2.0) * rng.choice((-1.0, 1.0)) + rng.choice((0.0, math.pi))
        theta = (float(t1), float(t1 + gap), float(t3))
        closed, geo = direct_kinematics(theta), geometric_dkp(theta)
        assert (geo.kind, geo.coincident) == (closed.kind, closed.coincident), theta
        assert len(geo.poses) == len(closed.poses) == 2, theta
        for p, q in zip(closed.poses, geo.poses):
            assert pose_distance(p, q) < POSE_TOL, theta


def _offset_coefficients(theta, geometry):
    """(A, B) of B3's offset from leg 3's axis, 2 sin(psi) (A cos(psi) +
    B sin(psi)) at psi = phi / 2: leg 3's residual pair (a, b) of
    a (1 - cos phi) + b sin phi in the loop-closure table, as (b, a)."""
    loop = coupler._loop_coefficients(theta[0], theta[1], geometry)
    a, b = coupler._leg3_pairs(theta[2], loop)[0]
    return b, a


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_half_angle_offset_is_linear_in_the_half_angle(scale):
    # The premise of the closed-form intersection: one zero per half cycle.
    # Leg 3's residual at the two-slider pose of phi = 2 psi is the table's.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(33)
    for _ in range(1000):
        theta = tuple(rng.uniform(-math.pi, math.pi, 3).tolist())
        psi = float(rng.uniform(-math.pi, math.pi))
        a, b = _offset_coefficients(theta, geometry)
        rho1, _ = rho_from_phi(theta[0], theta[1], 2.0 * psi, geometry)
        pose = Pose(rho1 * math.cos(theta[0]), rho1 * math.sin(theta[0]), 2.0 * psi)
        value = constraint_residuals(pose, theta, geometry)[2]
        want = 2.0 * math.sin(psi) * (a * math.cos(psi) + b * math.sin(psi))
        assert abs(value - want) <= 1e-12 * max(scale, abs(rho1)), (theta, psi)


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_half_angle_offset_is_the_reduction_turned_a_quarter(scale):
    # (A, B) = s / (2 sin(t2 - t1)) (-n, m), so atan2(-A, B) is the closed
    # form's root; the route reaches it through the loop closure instead.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(34)
    for _ in range(1000):
        theta = tuple(rng.uniform(-math.pi, math.pi, 3).tolist())
        a, b = _offset_coefficients(theta, geometry)
        m, n = mn_coefficients(theta)
        k = scale / (2.0 * math.sin(theta[1] - theta[0]))
        assert math.hypot(a + k * n, b - k * m) <= 1e-13 * math.hypot(a, b), theta


# Worst | |adj[P Q] (B3 - a3 - P)| - |det[P Q]| |: 7.3e-16, 6.3e-16, 7.4e-16
# and 6.1e-16 times (scale / |sin(t2 - t1)|)^2 at the four scales below, over
# the 300 seeded pairs of 720 samples each; at most 7.8e-16 over two more
# draws of 300 pairs per scale.
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1.7, 100.0])
def test_traced_b3_runs_on_cardans_ellipse(scale):
    # B3 = (a3 + P) - P cos phi + Q sin phi: the ellipse with centre a3 + P
    # and conjugate semi-diameters -P and Q, so adj[P Q] (B3 - a3 - P) is
    # det[P Q] (-cos phi, sin phi), whose length is |det[P Q]|.  A sample
    # rounds like the loop table, of size scale / |sin(t2 - t1)|.
    geometry = ManipulatorGeometry(scale)
    a3x, a3y = geometry._anchor_pairs[2]
    rng = np.random.default_rng(56)
    checked = 0
    while checked < 300:
        t1, t2 = rng.uniform(-math.pi, math.pi, 2).tolist()
        d = math.sin(t2 - t1)
        if abs(d) < 1e-3:
            continue
        _, _, (px, qx), (py, qy) = coupler._loop_coefficients(t1, t2, geometry)
        b3 = trace_cardanic(t1, t2, 720, geometry).b3
        ux, uy = b3[:, 0] - (a3x + px), b3[:, 1] - (a3y + py)
        length = np.hypot(qy * ux - qx * uy, px * uy - py * ux)
        size = scale / abs(d)
        assert np.abs(length - abs(px * qy - py * qx)).max() <= 4e-15 * size * size, (t1, t2)
        checked += 1


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_loop_closure_collapses_to_a_segment_on_the_straight_line_predicate(scale):
    # B3 = a3 + P (1 - cos phi) + Q sin phi is an ellipse of area
    # pi |det[P Q]|, and det[P Q] = -s^2 sin(t2 - t1 - pi/3) / sin(t2 - t1):
    # a segment exactly when t2 - t1 = pi/3 (mod pi).
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(36)
    checked = 0
    while checked < 2000:
        t1, t2 = rng.uniform(-math.pi, math.pi, 2).tolist()
        if checked % 2:  # every other pair near the predicate, either leg direction
            offset = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -1.0)
            t2 = t1 + PI3 + rng.choice((0.0, math.pi)) + offset
        d = math.sin(t2 - t1)
        if abs(d) < 1e-3:
            continue
        _, _, (px, qx), (py, qy) = coupler._loop_coefficients(t1, t2, geometry)
        want = -scale * scale * math.sin(t2 - t1 - PI3) / d
        assert abs(px * qy - py * qx - want) <= 1e-14 * scale * scale / (d * d), (t1, t2)
        checked += 1


def test_geometric_dkp_reads_neither_m_nor_n(monkeypatch):
    # The route's independence from the closed form: its root is the same
    # when the shared solution-set body hands it nan for m and n.
    triples = [tuple(t) for t in np.random.default_rng(35).uniform(-math.pi, math.pi, (200, 3)).tolist()]
    triples += [(0.0, math.pi / 2.0, -math.pi / 6.0), (0.3, 0.3 + 1e-7, 1.0), (0.0, PI3, -PI3)]
    triples += [(0.4, 0.4, 0.4), (0.3, 0.3 + math.pi, 0.3 + 1e-7), (0.3, 0.3 + math.pi, 1.0)]
    geometries = [ManipulatorGeometry(s) for s in (1.0, 1.7)]

    def outcomes():
        got = []
        for geometry in geometries:
            for theta in triples:
                try:
                    got.append(repr(geometric_dkp(theta, geometry)))
                except DegenerateLegPairError as exc:
                    got.append(repr(exc))
        return got

    want = outcomes()
    solution_set, blinded = coupler._solution_set, []

    def blind(t, geometry, second_phi):
        def root(m, n):
            blinded.append(t)
            return second_phi(math.nan, math.nan)

        return solution_set(t, geometry, root)

    monkeypatch.setattr(coupler, "_solution_set", blind)
    assert outcomes() == want
    assert len(blinded) >= 400


@pytest.mark.parametrize("t1", [0.3, -2.0, 3.1])
@pytest.mark.parametrize("turn", [0.0, math.pi])
def test_geometric_dkp_solves_parallel_legs_1_and_2(t1, turn):
    # Legs 1 and 2 have no coupler curve; the route builds its table on the
    # pair the closed form solves the pose through, by a C3 relabeling,
    # which keeps phi.
    for scale in (1.0, 1.7):
        geometry = ManipulatorGeometry(scale)
        theta = (t1, t1 + turn, 1.0)
        closed, geo = direct_kinematics(theta, geometry), geometric_dkp(theta, geometry)
        assert closed.kind is geo.kind is DkKind.TWO_SOLUTIONS
        assert len(geo.poses) == 2 and geo.coincident is closed.coincident
        # Measured: at most 1.5e-14 of the scale.
        for p, q in zip(closed.poses, geo.poses):
            assert pose_distance(p, q, geometry) <= 1e-12 * scale


@pytest.mark.parametrize("t", [0.3, -2.0, 3.1])
def test_every_route_solves_a_tie_through_legs_2_and_3(monkeypatch, t):
    # At theta = (t, t, 1) the pairs (2, 3) and (3, 1) tie for the best
    # conditioned.  The curve route's table, the closed form's position
    # solve and the oracle's scan all take the first in cycle order, (2, 3),
    # so the curve route's pose is solved through the pair of its table.
    theta = (t, t, 1.0)
    tables, anchors, scans = [], [], []
    loop, axis, best = coupler._loop_coefficients, solvers._leg_axis, oracle._best_pair

    def spy_loop(t1, t2, geometry):
        tables.append((t1, t2))
        return loop(t1, t2, geometry)

    def spy_axis(f, theta, dx, dy):
        anchors.append((dx, dy))
        return axis(f, theta, dx, dy)

    monkeypatch.setattr(coupler, "_loop_coefficients", spy_loop)
    monkeypatch.setattr(solvers, "_leg_axis", spy_axis)
    monkeypatch.setattr(oracle, "_best_pair", lambda u: scans.append(best(u)) or scans[-1])
    legs_2_and_3 = list(DEFAULT_GEOMETRY._anchor_pairs[1:])
    for route in (geometric_dkp, direct_kinematics):
        anchors.clear()
        assert route(theta).kind is DkKind.TWO_SOLUTIONS
        assert anchors == legs_2_and_3
    # The table's legs 1 and 2 are legs 2 and 3 after two turns by C3.
    ((u1, u2),) = tables
    assert angle_difference(u1, t + 4.0 * PI3) < 1e-12
    assert angle_difference(u2, 1.0 + 4.0 * PI3) < 1e-12
    dkp_bruteforce(theta)
    assert scans == [(1, 2, 0)]


@pytest.mark.parametrize("turn", [0.0, math.pi])
def test_both_routes_call_parallel_legs_1_and_2_with_a_null_reduction_degenerate(turn):
    # Off the translation predicate, m^2 + n^2 = 4e-14: the DEGENERATE rule
    # comes before any coupler curve is needed, on both routes.
    theta = (0.3, 0.3 + turn, 0.3 + 1e-7)
    closed, geo = direct_kinematics(theta), geometric_dkp(theta)
    assert closed.kind is geo.kind is DkKind.DEGENERATE
    assert geo == closed


def test_geometric_dkp_translation_continuum():
    res = geometric_dkp((0.4, 0.4, 0.4))
    assert res.kind is DkKind.CONTINUUM_TRANSLATION
    assert res.continuum is not None


def test_geometric_dkp_reuleaux_continuum():
    res = geometric_dkp((0.0, PI3, -PI3))
    assert res.kind is DkKind.CONTINUUM_REULEAUX
    line = res.continuum
    assert line is not None
    assert abs(line.direction.x - 1.0) < 1e-15
    assert abs(line.direction.y) < 1e-15


def test_geometric_dkp_tangent_double_root():
    # n = 0: the curve touches the third axis at a3 without crossing
    theta = (0.0, math.pi / 2.0, -math.pi / 6.0)
    res = geometric_dkp(theta)
    assert res.kind is DkKind.TWO_SOLUTIONS
    assert res.coincident


# ------------------------------------------------------------- Reuleaux


@pytest.mark.parametrize(
    "theta",
    [
        (0.0, PI3, -PI3),
        (0.0, PI3 - math.pi, -PI3),
        (0.0, PI3, -PI3 + math.pi),
        (0.0, PI3 - math.pi, -PI3 + math.pi),
    ],
)
def test_reuleaux_constants_all_direction_flips(theta):
    desc = reuleaux_descriptor(theta)
    stroke = desc.p_line.half_length * 2.0
    assert abs(stroke - 2.0) < 1e-9
    assert abs(desc.a_displacement_magnitude - 4.0 * SQRT3 / 3.0) < 1e-9
    # P slides along leg 1's axis
    assert abs(abs(desc.p_line.direction.x) - 1.0) < 1e-12
    assert abs(desc.p_line.direction.y) < 1e-12


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_reuleaux_stroke_and_travel_match_a_sampled_cycle(scale):
    # The stroke depends on theta1 (2 only at theta1 = 0); the travel does
    # not.  Poses sampled along the cycle must close all three legs, and the
    # reference point's longest run between sign changes of the extensions
    # must give the stroke.
    geometry = ManipulatorGeometry(scale)
    samples = 3600
    step = 2.0 * math.pi / samples
    phis = -math.pi + step * np.arange(1, samples + 1)
    flips = [(0.0, 0.0), (math.pi, 0.0), (0.0, -math.pi), (math.pi, -math.pi)]
    for t1, (f2, f3) in zip((-1.0, 0.0, 0.7, 2.5), flips):
        theta = (t1, t1 + PI3 + f2, t1 - PI3 + f3)
        rho = []
        for phi in phis.tolist():
            rho1, _ = rho_from_phi(theta[0], theta[1], phi, geometry)
            pose = Pose(rho1 * math.cos(t1), rho1 * math.sin(t1), phi)
            assert max(map(abs, constraint_residuals(pose, theta, geometry))) < 1e-9 * scale
            rho.append(signed_extensions(pose, theta, geometry))
        rho = np.array(rho)
        desc = reuleaux_descriptor(theta, geometry)
        travel = rho.max(axis=0) - rho.min(axis=0)
        assert np.all(np.abs(travel - desc.a_displacement_magnitude) < 1e-5 * scale), theta
        # Start at a sign change, then cut wherever a sign of rho1..3 changes.
        signs = np.sign(rho)
        change = np.any(signs != np.roll(signs, -1, axis=0), axis=1)
        rho = np.roll(rho, -(int(np.argmax(change)) + 1), axis=0)
        signs = np.sign(rho)
        cuts = np.flatnonzero(np.any(signs[1:] != signs[:-1], axis=1)) + 1
        stroke = max(np.ptp(piece) for piece in np.split(rho[:, 0], cuts))
        # rho1 moves at most 2/sqrt(3) scale per radian, so each sampled end
        # of a run lies within 1.2 step * scale of the true one.
        assert abs(desc.p_line.length - stroke) < 2.4 * step * scale, theta


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_reuleaux_stroke_is_smooth_where_two_extension_zeros_meet(scale):
    # At theta1 = -pi/6 (mod pi) the second zero of rho3 falls on phi = 0,
    # where every rho_i vanishes.  Just off it the two zeros lie about e
    # apart, and both must stay arc ends: an arc run across one of them
    # moved the stroke by about e.
    geometry = ManipulatorGeometry(scale)
    flips = [(0.0, 0.0), (math.pi, 0.0), (0.0, -math.pi), (math.pi, -math.pi)]
    for c in (-math.pi / 6.0, 5.0 * math.pi / 6.0):
        for f2, f3 in flips:

            def half(t1):
                theta = (t1, t1 + PI3 + f2, t1 - PI3 + f3)
                return reuleaux_descriptor(theta, geometry).p_line.half_length

            for e in (1e-10, 3e-10):
                bend = half(c + e) + half(c - e) - 2.0 * half(c)
                assert abs(bend) <= 1e-14 * scale, (c, f2, f3, e, bend)


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_the_instant_center_rolls_the_platform_circle_inside_the_fixed_one(scale):
    # Reuleaux's straight-line mechanism is Cardan's pair of circles: in the
    # straight-line self-motion the instant center, the common point of the
    # leg normals, lies on the fixed circle (center O, where slider lines 1
    # and 2 meet, radius 2s/sqrt(3)) and on the platform's circumcircle
    # (radius s/sqrt(3)), which rolls inside it; slider line 3 passes
    # through O.  Worst misses on these draws: 1.3e-15, 6.7e-16 and
    # 6.1e-16 times the scale.  Points are complex numbers, and the cross
    # product u x v is (u.conjugate() * v).imag.
    geometry = ManipulatorGeometry(scale)
    a1, a2, a3 = (complex(*anchor) for anchor in geometry._anchor_pairs)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        t1, phi = rng.uniform(-math.pi, math.pi, 2).tolist()
        theta = (t1, t1 + PI3, t1 - PI3)
        pose = solvers.position_from_orientation(theta, phi, geometry=geometry)
        center = complex(*classify_singularity(pose, theta, geometry).intersection_point)
        u1, u2, u3 = (complex(math.cos(t), math.sin(t)) for t in theta)
        o = a1 + u1 * (((a2 - a1).conjugate() * u2).imag / (u1.conjugate() * u2).imag)
        b = [platform_anchor(pose, leg, geometry) for leg in (1, 2, 3)]
        circumcenter = complex(sum(p.x for p in b) / 3.0, sum(p.y for p in b) / 3.0)
        assert abs(abs(center - o) - 2.0 * scale / SQRT3) <= 1e-14 * scale
        assert abs(abs(center - circumcenter) - scale / SQRT3) <= 1e-14 * scale
        assert abs(((o - a3).conjugate() * u3).imag) <= 1e-14 * scale


def test_reuleaux_constants_double_with_scale():
    double = ManipulatorGeometry(2.0)
    desc = reuleaux_descriptor((0.0, PI3, -PI3), geometry=double)
    assert abs(desc.p_line.half_length * 2.0 - 4.0) < 1e-9
    assert abs(desc.a_displacement_magnitude - 8.0 * SQRT3 / 3.0) < 1e-9


def test_reuleaux_descriptor_line_is_consistent_with_solver():
    desc = reuleaux_descriptor((0.7, 0.7 + PI3, 0.7 - PI3))
    for route in (direct_kinematics, geometric_dkp):
        res = route((0.7, 0.7 + PI3, 0.7 - PI3))
        # same carrier line, from the closed-form stroke and either route
        (ux, uy), (vx, vy) = desc.p_line.direction, res.continuum.direction
        assert abs(ux * vy - uy * vx) < 1e-12
        (px, py), (qx, qy) = desc.p_line.point, res.continuum.point
        assert abs((px - qx) * vy - (py - qy) * vx) < 1e-9


@pytest.mark.parametrize(
    "theta",
    [
        (0.2, 0.9, 2.0),
        (0.0, -PI3, PI3),  # offsets swapped between legs 2 and 3
        (0.4, 0.4, 0.4),  # translation family, not straight-line motion
    ],
)
def test_reuleaux_descriptor_rejects_other_configurations(theta):
    with pytest.raises(NotReuleauxError):
        reuleaux_descriptor(theta)
