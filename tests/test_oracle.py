"""Brute-force scan and the Jacobian checks that back the solvers."""

import contextlib
import io
import json
import math
import pathlib
from functools import partial

import numpy as np
import pytest

import rpr3.oracle
from rpr3.cli import main
from rpr3.errors import LegAtAnchorError, Rpr3Error, SingularNearbyError
from rpr3.geometry import (
    DEFAULT_GEOMETRY,
    POSE_TOL,
    ManipulatorGeometry,
    Pose,
    _best_pair,
    constraint_residuals,
    normalize_angle,
    pose_distance,
)
from rpr3.jacobians import _configuration, build_matrices
from rpr3.oracle import dkp_bruteforce, jacobian_cs_check
from rpr3.solvers import DkKind, direct_kinematics, inverse_kinematics, mn_coefficients
from _reference import bracket_candidates, jacobian_fd_check, scan_bruteforce, scan_columns
from trend import VERIFY_ARGV, count_calls

PI3 = math.pi / 3.0

GENERIC_THETA = (0.2, 0.9, 2.0)
# hand-derived second assembly for the triple above (see solver tests)
FROZEN_POSE2 = (0.21747642064358774, 0.044084652950960666, -1.5466059373284926)


def test_scan_finds_both_assemblies():
    report = dkp_bruteforce(GENERIC_THETA)
    assert len(report.solutions_found) == 2
    assert not report.continuum
    assert report.newton_iterations > 0
    trivial, second = sorted(report.solutions_found, key=lambda p: abs(p.phi))
    assert math.hypot(trivial.x, trivial.y) < 1e-10
    assert abs(trivial.phi) < 1e-10
    assert abs(second.x - FROZEN_POSE2[0]) < 1e-9
    assert abs(second.y - FROZEN_POSE2[1]) < 1e-9
    assert abs(second.phi - FROZEN_POSE2[2]) < 1e-9


def test_scan_reports_polished_residuals():
    report = dkp_bruteforce(GENERIC_THETA)
    assert report.residual_max < 1e-10
    for pose in report.solutions_found:
        assert max(map(abs, constraint_residuals(pose, GENERIC_THETA))) < 1e-10


def test_scan_respects_geometry_scale():
    report = dkp_bruteforce(GENERIC_THETA, geometry=ManipulatorGeometry(2.0))
    second = max(report.solutions_found, key=lambda p: abs(p.phi))
    assert abs(second.x - 2.0 * FROZEN_POSE2[0]) < 1e-9
    assert abs(second.y - 2.0 * FROZEN_POSE2[1]) < 1e-9
    assert abs(second.phi - FROZEN_POSE2[2]) < 1e-9


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
def test_scan_finds_both_assemblies_on_large_geometries(scale):
    # Residuals carry the length unit, so Newton's tolerance grows with the
    # scale; a fixed 1e-12 left the second assembly unpolished past 1e5.
    geometry = ManipulatorGeometry(scale)
    report = dkp_bruteforce(GENERIC_THETA, geometry=geometry)
    closed = direct_kinematics(GENERIC_THETA, geometry=geometry)
    assert len(report.solutions_found) == len(closed.poses) == 2
    for scanned, exact in zip(report.solutions_found, closed.poses):
        assert pose_distance(scanned, exact, geometry) < POSE_TOL


def test_scan_agrees_with_closed_form_on_random_angles():
    rng = np.random.default_rng(90)
    checked = 0
    while checked < 50:
        theta = tuple(rng.uniform(-math.pi, math.pi, 3))
        m, n = mn_coefficients(theta)
        if m * m + n * n < 1e-6:
            continue
        closed = direct_kinematics(theta)
        if closed.kind is not DkKind.TWO_SOLUTIONS:
            continue
        report = dkp_bruteforce(theta)
        assert len(report.solutions_found) == 2
        for p in closed.poses:
            best = min(
                max(
                    abs(p.x - q.x),
                    abs(p.y - q.y),
                    abs(normalize_angle(p.phi - q.phi)),
                )
                for q in report.solutions_found
            )
            assert best < 1e-7
        checked += 1


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_scan_polishes_each_pose_in_a_few_newton_steps(scale):
    # The deflated system's roots are simple, so full Newton steps from a
    # bracket midpoint converge quadratically: a few iterations per scan,
    # and the second pose as close to the closed form's as rounding allows.
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(93)
    checked = 0
    for theta in rng.uniform(-math.pi, math.pi, (1000, 3)).tolist():
        closed = direct_kinematics(theta, geometry=geometry)
        if closed.kind is not DkKind.TWO_SOLUTIONS or closed.m**2 + closed.n**2 < 1e-8:
            continue
        report = dkp_bruteforce(theta, geometry=geometry)
        assert report.newton_iterations <= 3, theta
        assert len(report.solutions_found) == 2, theta
        assert pose_distance(report.solutions_found[1], closed.poses[1], geometry) < 1e-11, theta
        checked += 1
    assert checked > 900


def test_scan_flags_translation_continuum():
    report = dkp_bruteforce((0.4, 0.4, 0.4))
    assert report.continuum
    assert len(report.solutions_found) >= 1
    assert report.solutions_found[0].as_tuple() == (0.0, 0.0, 0.0)


def test_scan_flags_reuleaux_continuum_on_the_slider_line():
    report = dkp_bruteforce((0.0, PI3, -PI3))
    assert report.continuum
    phis = set()
    for pose in report.solutions_found:
        # every sampled assembly keeps the reference point on leg 1's axis
        assert abs(pose.y) < 1e-9
        assert max(map(abs, constraint_residuals(pose, (0.0, PI3, -PI3)))) < 1e-9
        phis.add(round(pose.phi, 6))
    assert len(phis) > 10  # a genuine one-parameter family, not one root


def _reference_candidates(leftover, x, y, phis, step):
    """The per-index loop the array scan replaced."""
    n = len(leftover)
    candidates = []
    for a in range(n):
        b = (a + 1) % n
        fa, fb = float(leftover[a]), float(leftover[b])
        if fa == 0.0:
            candidates.append((float(x[a]), float(y[a]), float(phis[a])))
        elif fa * fb < 0.0:
            xm = 0.5 * (float(x[a]) + float(x[b]))
            ym = 0.5 * (float(y[a]) + float(y[b]))
            pm = float(phis[a]) + 0.5 * step
            candidates.append((xm, ym, pm))
    return candidates


def _edge_fields(n=64):
    ramp = np.linspace(1.0, 2.0, n)
    zero_ends = ramp.copy()
    zero_ends[[0, -1]] = 0.0
    across_wrap = ramp.copy()
    across_wrap[-1] = -1.0
    zero_runs = np.sin(np.linspace(0.0, 6.0, n))
    zero_runs[5:9] = 0.0
    zero_runs[40:44] = -0.0
    with_nan = np.cos(np.linspace(0.0, 9.0, n))
    with_nan[[0, 7, 8, 30, -1]] = np.nan
    # Products that underflow to -0.0 or overflow to -inf.
    extreme = np.resize([1e-200, -1e-200, 1e200, -1e200], n)
    return [zero_ends, across_wrap, zero_runs, -ramp, with_nan, extreme]


def _deflated_solve(t, geometry):
    """The scan's float position solve at checked angles ``t``, bound as the
    scan binds it."""
    i, j, k = _best_pair(t)
    rows = rpr3.oracle._leg_rows(t, geometry)
    return partial(rpr3.oracle._deflated_solves, (rows[i], rows[j], rows[k]), math.sin(t[j] - t[i]))


def test_bracket_scan_matches_the_per_index_loop():
    # The starts' positions come from the float solve at the bracket ends; the
    # loop reads them from the six-column reference scan's full columns.
    rng = np.random.default_rng(92)
    fields = _edge_fields()
    for n in (16, 64, 2048):
        fields.append(rng.standard_normal(n))
        fields.append(np.sin(rng.uniform(1.0, 5.0) * np.linspace(-math.pi, math.pi, n)))
    for leftover in fields:
        n = leftover.size
        step = 2.0 * math.pi / n
        phis = -math.pi + step * np.arange(1, n + 1)
        cos_a, sin_a = np.cos(phis), np.sin(phis)
        geometry = ManipulatorGeometry(float(rng.choice([1.0, 1.7])))
        t = tuple(rng.uniform(-math.pi, math.pi, 3).tolist())
        x, y, _ = scan_columns(t, geometry, cos_a, sin_a)
        solve = _deflated_solve(t, geometry)
        got = rpr3.oracle._bracket_candidates(leftover, phis, cos_a, sin_a, step, solve)
        want = _reference_candidates(leftover, x, y, phis, step)
        assert repr(got) == repr(want)
        assert repr(bracket_candidates(leftover, x, y, phis, step)) == repr(want)


def _scan_families(rng):
    """Seeded triples: uniform, nearly parallel (t1, t1 + d, t1 - d) with d from
    1e-8 to 1e-3, Reuleaux (0, pi/3, -pi/3) moved by 0 or 1e-12 to 1e-5, and
    multiples of pi/12, whose roots and zero terms can fall on the grid."""
    uniform = rng.uniform(-math.pi, math.pi, (400, 3)).tolist()
    t1s, ds = rng.uniform(-math.pi, math.pi, 120).tolist(), (10.0 ** rng.uniform(-8, -3, 120)).tolist()
    near = [(t1, t1 + d, t1 - d) for t1, d in zip(t1s, ds)]
    moves = 10.0 ** rng.uniform(-12, -5, (80, 3)) * rng.choice([-1.0, 1.0], (80, 3))
    moves[:10] = 0.0
    reuleaux = (moves + (0.0, PI3, -PI3)).tolist()
    on_grid = (rng.integers(-11, 13, (200, 3)) * (math.pi / 12)).tolist()
    return [tuple(t) for t in uniform + near + reuleaux + on_grid]


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1.7, 1e100])
def test_scan_matches_the_six_column_reference_bit_for_bit(scale, monkeypatch):
    # Same Newton starts and the same ScanReport repr as the scan on full
    # columns, continuum flag, residual and iteration count included.
    geometry = ManipulatorGeometry(scale)
    starts = []
    polish = rpr3.oracle._polish_candidates

    def record(candidates, *args):
        starts.append(candidates)
        return polish(candidates, *args)

    monkeypatch.setattr(rpr3.oracle, "_polish_candidates", record)
    triples = _scan_families(np.random.default_rng(48))
    continua = 0
    for theta in triples if scale == 1.0 else triples[::4]:
        starts.clear()
        report = dkp_bruteforce(theta, geometry)
        reference = scan_bruteforce(theta, geometry)
        if reference is None:  # all three legs parallel: neither scans
            assert report.continuum and not starts
            continue
        want_starts, want = reference
        assert repr(starts) == repr([want_starts]), theta
        assert repr(report) == repr(want), theta
        continua += report.continuum
    assert continua >= 5


def test_newton_exits_keep_their_iteration_counts(monkeypatch):
    # (result, iterations) of each exit, bit for bit
    polish = rpr3.oracle._newton_polish
    start = (0.1, 0.2, 0.3)
    assert polish(start, (0.4, 0.4, 0.4), DEFAULT_GEOMETRY) == (None, 1)  # zero Cramer determinant
    assert polish((math.nan, 0.0, 0.0), GENERIC_THETA, DEFAULT_GEOMETRY) == (None, 50)
    solved, used = polish((0.21, 0.04, -1.5), GENERIC_THETA, DEFAULT_GEOMETRY)
    assert used == 3
    assert solved == (0.21747642064364894, 0.04408465295097307, -1.5466059373287742)
    # The iteration cap is read when the polish runs.
    monkeypatch.setattr(rpr3.oracle, "NEWTON_MAX_ITER", 3)
    assert polish(start, GENERIC_THETA, DEFAULT_GEOMETRY) == (None, 3)
    monkeypatch.setattr(rpr3.oracle, "NEWTON_MAX_ITER", 0)
    assert polish(start, GENERIC_THETA, DEFAULT_GEOMETRY) == (None, 0)
    assert polish((0.0, 0.0, 0.0), GENERIC_THETA, DEFAULT_GEOMETRY) == ((0.0, 0.0, 0.0), 0)


def _reference_triple(p, q, r):
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        + p[1] * (q[2] * r[0] - q[0] * r[2])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


def _reference_cramer(p, q, r, b):
    det = _reference_triple(p, q, r)
    if det == 0:
        return None
    return (
        _reference_triple(b, q, r) / det,
        _reference_triple(b, r, p) / det,
        _reference_triple(b, p, q) / det,
    )


def _reference_newton(start, t, geometry, tol=1e-12, home=1.0, max_iter=50):
    """The per-leg loop the unrolled Newton replaced, with its Cramer solve."""
    anchors = geometry._anchor_pairs
    rows = [(s, c, anchor) for (c, s), anchor in zip(map(rpr3.oracle._cos_sin, t), anchors)]
    sin_t, neg_cos_t = [r[0] for r in rows], [-r[1] for r in rows]
    h = max(abs(a.imag) for a in t)
    x, y, phi = start
    for it in range(max_iter + 1):
        c, s = rpr3.oracle._cos_sin(phi)
        offsets = [(x + c * ax - s * ay - home * ax, y + s * ax + c * ay - home * ay) for ax, ay in anchors]
        res = [st * u - ct * v for (st, ct, _), (u, v) in zip(rows, offsets)]
        if all(abs(r.real) < tol for r in res):
            size = max(h, abs(x.imag) / geometry.scale, abs(y.imag) / geometry.scale, abs(phi.imag))
            if all(abs(r.imag) <= tol * size for r in res):
                return ((x, y, phi), it)
        if it == max_iter:
            break
        turn = [st * (-s * bx - c * by) - ct * (c * bx - s * by) for st, ct, (bx, by) in rows]
        step = _reference_cramer(sin_t, neg_cos_t, turn, res)
        if step is None:
            return (None, it + 1)
        x, y, phi = x - step[0], y - step[1], phi - step[2]
    return (None, max_iter)


def _newton_cases(count=600, seed=94):
    """(start, t, geometry, tol, home) of seeded polishes and re-solves: the
    scan's deflated starts (home 0) and the finite-difference re-solves
    (home 1) on floats, and complex-step moves, near and away from a root."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        geometry = ManipulatorGeometry([1.0, 1.7, 1e-3, 1e3][k % 4])
        s = geometry.scale
        pose = Pose(*(rng.uniform(-0.5 * s, 1.5 * s, 2)).tolist(), rng.uniform(-math.pi, math.pi))
        try:
            theta = list(inverse_kinematics(pose, geometry=geometry).angles)
        except LegAtAnchorError:
            continue
        start = pose.as_tuple()
        if k % 3 != 2:  # near the root, or a random start
            spread = 1e-3 if k % 2 else 0.5
            start = tuple((np.add(start, rng.normal(0.0, spread, 3) * [s, s, 1.0])).tolist())
        leg, home = k % 3, float(k % 2)
        moved = list(theta)
        if k % 5 == 0:
            moved = [complex(a) for a in theta]
            moved[leg] += 1e-30j
            home = 1.0
        else:
            moved[leg] += rng.normal(0.0, 1e-6)
        cases.append((start, moved, geometry, (1e-14 if home else 1e-12) * s, home))
    return cases


def test_newton_matches_the_per_leg_loop_bit_for_bit():
    cases = _newton_cases()
    assert len(cases) >= 500
    kinds, iterations = set(), set()
    for start, t, geometry, tol, home in cases:
        got = rpr3.oracle._newton_polish(start, t, geometry, tol=tol, home=home)
        assert repr(got) == repr(_reference_newton(start, t, geometry, tol, home)), (start, t)
        kinds.add((isinstance(t[0], complex), home))
        iterations.add(got[1])
    assert kinds == {(False, 0.0), (False, 1.0), (True, 1.0)}
    assert iterations >= {1, 2, 3, 4, 5, 6, 7}


def test_newton_exits_match_the_per_leg_loop(monkeypatch):
    # A zero determinant, a NaN start, a start Newton cannot polish in time,
    # the iteration cap read when the polish runs, and a start on the root.
    polish, g = rpr3.oracle._newton_polish, DEFAULT_GEOMETRY
    exits = [
        ((0.1, 0.2, 0.3), (0.4, 0.4, 0.4), 1.0, 50),
        ((0.1, 0.2, 0.3), [0.4, 0.4, 0.4 + 1e-30j], 1.0, 50),
        ((math.nan, 0.0, 0.0), GENERIC_THETA, 1.0, 50),
        ((0.0, math.nan, 0.0), [complex(a) for a in GENERIC_THETA], 1.0, 50),
        ((0.1, 0.2, 1e300), GENERIC_THETA, 0.0, 50),
        ((0.1, 0.2, 0.3), GENERIC_THETA, 1.0, 3),
        ((0.1, 0.2, 0.3), GENERIC_THETA, 0.0, 0),
        ((0.0, 0.0, 0.0), GENERIC_THETA, 1.0, 0),
    ]
    for start, t, home, cap in exits:
        monkeypatch.setattr(rpr3.oracle, "NEWTON_MAX_ITER", cap)
        got = polish(start, t, g, home=home)
        assert repr(got) == repr(_reference_newton(start, t, g, home=home, max_iter=cap)), start


# Of the 1,200 triples theta = (t1, t1 + d, t1 - d) below, nearly parallel
# legs whose second assembly lies far out, the scan returns the trivial pose
# alone on this many: the polish's absolute gate sits below the ulp of the
# deflated q.  The count may only fall; a gate relative to |q| takes it to 0.
DROPPED_FAR_ASSEMBLIES = 289


def test_scan_drops_no_more_far_second_assemblies():
    t1s = np.random.default_rng(5).uniform(-math.pi, math.pi, 300).tolist()
    dropped = {}
    for d in (1e-6, 1e-5, 1e-4, 1e-3):
        dropped[d] = 0
        for theta in [(t1, t1 + d, t1 - d) for t1 in t1s]:
            assert direct_kinematics(theta).kind is DkKind.TWO_SOLUTIONS, theta
            dropped[d] += len(dkp_bruteforce(theta).solutions_found) == 1
    assert dropped[1e-4] == dropped[1e-3] == 0
    assert sum(dropped.values()) <= DROPPED_FAR_ASSEMBLIES


def _solved_systems(geometry, monkeypatch):
    """(p, q, r, b) of every Cramer solve in 100 seeded scans and 60 seeded
    finite-difference checks: Newton steps and the analytic map's columns."""
    systems = []
    cramer = rpr3.oracle._cramer

    def record(*system):
        systems.append(system)
        return cramer(*system)

    monkeypatch.setattr(rpr3.oracle, "_cramer", record)
    s = geometry.scale
    rng = np.random.default_rng(34)
    for theta in rng.uniform(-math.pi, math.pi, (100, 3)).tolist():
        dkp_bruteforce(theta, geometry)
    xs, ys = rng.uniform(-0.5 * s, 1.5 * s, (2, 60)).tolist()
    for x, y, phi in zip(xs, ys, rng.uniform(-math.pi, math.pi, 60).tolist()):
        pose = Pose(x, y, phi)
        try:
            theta = inverse_kinematics(pose, geometry=geometry).angles
            jacobian_fd_check(pose, theta, 1e-6, geometry)
        except Rpr3Error:
            continue
    return systems


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_cramer_steps_agree_with_lapack(scale, monkeypatch):
    # Within c kappa eps of numpy.linalg.solve, relative to the solution,
    # with c = 4: the worst measured was 0.80 at scale 1 (0.69 at 1.7), over
    # condition numbers up to 6.5e3.
    cramer = rpr3.oracle._cramer
    systems = _solved_systems(ManipulatorGeometry(scale), monkeypatch)
    assert len(systems) > 1000
    eps = np.finfo(float).eps
    for p, q, r, b in systems:
        m = np.array([p, q, r]).T
        exact = np.linalg.solve(m, b)
        gap = np.linalg.norm(np.subtract(cramer(p, q, r, b), exact))
        assert gap <= 4.0 * np.linalg.cond(m) * eps * np.linalg.norm(exact), (p, q, r, b)


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_oracle_and_verify_call_no_lapack(scale, tmp_path, monkeypatch):
    # Newton, the analytic map and the error norms run on Python numbers.
    geometry = ManipulatorGeometry(scale)
    pose = Pose(0.3 * scale, 0.2 * scale, 0.1)
    theta = inverse_kinematics(pose, geometry=geometry).angles

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called on the oracle's path")

    for name in ("solve", "inv", "det", "norm", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert len(dkp_bruteforce(GENERIC_THETA, geometry).solutions_found) == 2
    assert jacobian_fd_check(pose, theta, geometry=geometry) < 1e-5
    assert jacobian_cs_check(pose, theta, geometry) < 1e-10
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps({"scale": scale}))
    monkeypatch.setenv("RPR_GEOMETRY", str(path))
    assert main(["verify", "--scope", "all", "--trials", "20", "--seed", "7"]) == 0


# Python calls in rpr3 of one verify run of the cross-check benchmark's
# shape, counted by trend.count_calls as CPython 3.11 counts them; 3.12
# inlines comprehensions and counts fewer.  numpy's Python wrappers are not
# rpr3 frames, so the numpy version does not move the count.
VERIFY_CALL_BUDGET = 797


def test_a_verify_run_stays_within_its_call_budget():
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(VERIFY_ARGV) == 0
        calls = sum(count_calls(partial(main, VERIFY_ARGV)).values())
    assert calls <= VERIFY_CALL_BUDGET, (
        f"{calls} Python calls in rpr3 per verify run, budget {VERIFY_CALL_BUDGET}"
    )


# ------------------------------------------------------------- fd check


def test_fd_check_at_generic_configuration():
    pose = Pose(0.3, 0.2, 0.1)
    theta = inverse_kinematics(pose).angles
    assert jacobian_fd_check(pose, theta) < 1e-5


def test_fd_check_error_drops_quadratically_with_step():
    pose = Pose(0.3, 0.2, 0.1)
    theta = inverse_kinematics(pose).angles
    coarse = jacobian_fd_check(pose, theta, step=1e-3)
    fine = jacobian_fd_check(pose, theta, step=1e-4)
    ratio = coarse / fine
    # central differences: one decade in step buys two in accuracy
    assert 20.0 < ratio < 500.0
    assert jacobian_fd_check(pose, theta, step=1e-6) < fine


@pytest.mark.parametrize("step", [0.0, -1e-6, math.nan, math.inf, -math.inf])
def test_fd_check_rejects_a_bad_step(step):
    pose = Pose(0.3, 0.2, 0.1)
    with pytest.raises(ValueError, match="step"):
        jacobian_fd_check(pose, inverse_kinematics(pose).angles, step=step)


def test_fd_check_raises_near_parallel_singularity():
    # equal angles at the identity pose: det A = 0 exactly
    with pytest.raises(SingularNearbyError):
        jacobian_fd_check(Pose(0.0, 0.0, 0.0), (0.5, 0.5, 0.5))


def test_fd_check_on_fully_serial_posture_is_zero():
    # J vanishes identically; the absolute FD norm is reported instead of
    # a relative error and the re-solves stay on the pinned pose
    err = jacobian_fd_check(Pose(0.0, 0.0, 0.0), GENERIC_THETA)
    assert err < 1e-9


def test_fd_check_random_regular_configurations():
    rng = np.random.default_rng(91)
    checked = 0
    while checked < 25:
        pose = Pose(
            rng.uniform(-0.5, 1.5),
            rng.uniform(-0.5, 1.5),
            rng.uniform(-math.pi, math.pi),
        )
        try:
            sol = inverse_kinematics(pose)
        except Exception:
            continue
        if min(sol.rhos()) < 0.05:
            continue
        try:
            err = jacobian_fd_check(pose, sol.angles)
        except SingularNearbyError:
            continue
        assert err < 1e-5
        checked += 1


# ------------------------------------------------------ complex-step check

# Poses at which central differences of re-solved poses failed verify's
# 1e-5 limit (--scope jacobian --seed 20, --scope all --seeds 36 and 37),
# in units of the scale.
FD_FALSE_FAILURES = [
    (-0.27800132844709835, 0.0912779647318569, -0.43886941423928594),
    (0.12090084698846892, 0.7196393597505362, 2.4467909293500716),
    (0.6754592970470623, 1.2103092397372546, 2.4577290439480004),
]


def _cs_cases(geometry, count=150, seed=32):
    """Seeded IK poses of random branches that verify's jacobian trial would
    check (legs of at least 0.05 s, |det A| of at least 5e-6 s), then the
    poses central differences false-failed."""
    s = geometry.scale
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        pose = Pose(*(rng.uniform(-0.5 * s, 1.5 * s, 2)).tolist(), rng.uniform(-math.pi, math.pi))
        branch = tuple(rng.integers(0, 2, 3).tolist())
        try:
            sol = inverse_kinematics(pose, branch, geometry)
        except LegAtAnchorError:
            continue
        det_a = build_matrices(pose, sol.angles, geometry).det_a
        if min(sol.rhos()) >= 0.05 * s and abs(det_a) >= 5e-6 * s:
            cases.append((pose, sol.angles))
    for x, y, phi in FD_FALSE_FAILURES:
        pose = Pose(x * s, y * s, phi)
        cases.append((pose, inverse_kinematics(pose, geometry=geometry).angles))
    return cases


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_complex_step_columns_match_the_analytic_map(scale):
    # Each column, position rows in units of the scale, is A^-1 B's to
    # 1e-10 of ||J||_F, and so is the whole map; the worst measured were
    # 4.7e-12 and 5.9e-12, both at scale 1.7.  The oracle's own map, Cramer's
    # rule on the same rows and rhos, is held to the same bound (worst 2.4e-12).
    geometry = ManipulatorGeometry(scale)
    unit = np.array([scale, scale, 1.0])
    for pose, theta in _cs_cases(geometry):
        # The rows of A and the rhos the oracle's map reads.
        rows, rhos, *_ = _configuration(pose, theta.as_tuple(), geometry)
        analytic = np.linalg.solve(np.array(rows), np.diag(rhos)) / unit[:, None]
        size = np.linalg.norm(analytic)
        mapped = rpr3.oracle._analytic_map(pose, theta.as_tuple(), geometry)
        assert np.linalg.norm(np.transpose(mapped) - analytic) <= 1e-10 * size, pose
        for leg in range(3):
            column = rpr3.oracle._complex_step_column(pose, tuple(theta), leg, geometry)
            gap = np.linalg.norm(np.subtract(column, analytic[:, leg]))
            assert gap <= 1e-10 * size, (pose, leg)
        assert jacobian_cs_check(pose, theta, geometry) <= 1e-10


def test_cs_check_raises_near_parallel_singularity():
    with pytest.raises(SingularNearbyError):
        jacobian_cs_check(Pose(0.0, 0.0, 0.0), (0.5, 0.5, 0.5))


def test_cs_check_on_fully_serial_posture_is_zero():
    # J vanishes identically: the imaginary parts of the re-solve stay 0.
    assert jacobian_cs_check(Pose(0.0, 0.0, 0.0), GENERIC_THETA) == 0.0


# ------------------------------------------------------- independence


def test_oracle_does_not_import_the_closed_form_solvers():
    # the scan must stay an independent check: no root formulas, no curve
    # machinery, only raw geometry and the velocity matrices
    source = pathlib.Path(rpr3.oracle.__file__).read_text(encoding="utf-8")
    for fragment in ("from .solvers", "from .coupler", "import solvers", "import coupler"):
        assert fragment not in source
