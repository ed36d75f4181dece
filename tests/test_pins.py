"""Bit-level pins of the scalar kinematics on seeded inputs.

Each digest is the sha256 of the ``repr`` of every result (floats repr
exactly, so one changed bit changes the digest), captured before the
geometry and the leg-offset code were consolidated, for the curve layer
before it moved from per-sample records to columns, and for the oracle's
finite-difference check before its scan and Newton loops were rewritten.
Any rewrite of those paths must leave every digest as it is.  The digests depend on libm
and LAPACK rounding, as do the sweep artifact pins in ``test_cli.py``.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from rpr3.cli import main
from rpr3 import coupler
from rpr3.coupler import geometric_dkp, reuleaux_descriptor, rho_from_phi, trace_cardanic
from rpr3.errors import Rpr3Error
from rpr3.geometry import (
    ManipulatorGeometry,
    Pose,
    Vec2,
    constraint_residuals,
)
from rpr3.jacobians import build_matrices, classify_singularity
from rpr3.oracle import ScanReport, dkp_bruteforce, jacobian_cs_check
from rpr3.solvers import direct_kinematics, inverse_kinematics, position_from_orientation
from _reference import det_A_specialized, jacobian_fd_check, signed_extensions

POSE_GROUPS = ("ik", "residuals", "extensions", "matrices", "singularity")
BRANCHES = [(i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(8)]

# Continuum, near-continuum and printed-constant triples next to the seeded
# ones, so that the clustering and continuum paths are pinned too.
SPECIAL_TRIPLES = [
    (0.3, 0.3 + math.pi / 3.0, 0.3 - math.pi / 3.0),
    (0.4, 0.4, 0.4 + math.pi),
    (0.0, 1.04719755, -1.04719755),
    (0.2, 0.2 - math.pi / 3.0, 0.2 + math.pi / 3.0),
    (1.0, 1.0 + math.pi / 3.0 + 1e-6, 1.0 - math.pi / 3.0),
]


class _Digest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, call, *args):
        try:
            value = call(*args)
        except Rpr3Error as exc:
            value = (type(exc).__name__, str(exc))
        self._hash.update(repr(value).encode())
        self._hash.update(b"\n")

    def hexdigest(self):
        return self._hash.hexdigest()


def _matrices(pose, theta, geometry):
    mats = build_matrices(pose, theta, geometry)
    return (mats.a_matrix.tolist(), mats.b_matrix.tolist(), mats.det_a, mats.det_b)


def _pose_digests(scale, count=500, seed=20):
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(seed)
    digests = {name: _Digest() for name in POSE_GROUPS}
    for x, y, phi, branch_index, t1, t2, t3 in zip(
        *(rng.uniform(-2.0, 2.0, (2, count)) * scale),
        rng.uniform(-4.0, 4.0, count),
        rng.integers(0, 8, count),
        *rng.uniform(-4.0, 4.0, (3, count)),
    ):
        pose = Pose(float(x), float(y), float(phi))
        for branch in BRANCHES:
            digests["ik"].add(inverse_kinematics, pose, branch, geometry)
        loose = (float(t1), float(t2), float(t3))
        digests["residuals"].add(constraint_residuals, pose, loose, geometry)
        digests["extensions"].add(signed_extensions, pose, loose, geometry)
        theta = inverse_kinematics(pose, BRANCHES[branch_index], geometry).angles
        digests["residuals"].add(constraint_residuals, pose, theta, geometry)
        digests["extensions"].add(signed_extensions, pose, theta, geometry)
        digests["matrices"].add(_matrices, pose, theta, geometry)
        digests["matrices"].add(_matrices, pose, loose, geometry)
        digests["singularity"].add(classify_singularity, pose, theta, geometry)
    return {name: d.hexdigest() for name, d in digests.items()}


def _dk_triples(count=50, seed=21):
    rng = np.random.default_rng(seed)
    triples = [tuple(map(float, t)) for t in rng.uniform(-math.pi, math.pi, (count, 3))]
    return triples + SPECIAL_TRIPLES


def _dk_digests(scale):
    geometry = ManipulatorGeometry(scale)
    digests = {name: _Digest() for name in ("closed", "geometric", "bruteforce")}
    for theta in _dk_triples():
        digests["closed"].add(direct_kinematics, theta, geometry)
        digests["geometric"].add(lambda t: geometric_dkp(t, geometry=geometry), theta)
        digests["bruteforce"].add(lambda t: dkp_bruteforce(t, geometry=geometry), theta)
    return {name: d.hexdigest() for name, d in digests.items()}


# Captured before the rewrite; see the module docstring.  The "matrices"
# and "singularity" digests were re-captured when det A became the two-term
# cofactor expansion instead of a LU determinant, after
# test_det_a_is_within_its_a_priori_rounding_bound showed it within its
# rounding bound; only the last bits of det A moved.
PINNED_POSES = {
    1.0: {
        "ik": "3a2a1118659ace36cd14fd2eca0f3f2ccbb3b2f8ad497783ea793551beca21b0",
        "residuals": "0f181a56de6f3e18143c80be74fbab83040e62f74d8f1fa408b93d63b42f2a74",
        "extensions": "1d238445602e918a222d5ba840bd7e21c23fba0c060201aebfe815cbe5707ea5",
        "matrices": "172db99bfbbcc38d25c5229b64b9c14e0958bc681390771812ced6944c89bdb6",
        "singularity": "25c1451a46ed72727789dadb99b4359a266fd69ed4b4734fc90d6ca874b08a7f",
    },
    2.0: {
        "ik": "139b311a1750f6c52593edf239abeb41f56b465616069cadfadb44d38809a447",
        "residuals": "f7efb97ab2770eeb7b0d5ed00f2ef977eb5e3fa08c177bfb03306aff76c23ee1",
        "extensions": "6d2c7d45694c4333cf77d5994196f869e2b8a5a8bce2fe0806c4fbb2a173bad5",
        "matrices": "b51be5572a75e87e6a9b4524bae1b326f71a054f1fa1ee559fbb4c8068441485",
        "singularity": "7e8994896fa218d1a81b9870c6b73b7ed990efb2ee0b3e3f46908fdbd345424b",
    },
}

# The "geometric" and "bruteforce" digests were re-captured when both
# routes began to scan the half angle with the trivial root divided out,
# after acceptance c13 and the seeded agreement tests passed; every kind and
# pose count stayed, and the straight-line continuum gets 33 sampled poses
# where it got 64.  The "geometric" digests were re-captured again when that
# route solved its second pose through the best-conditioned leg pair instead
# of legs 1 and 2, after the near-parallel agreement test passed; kinds,
# pose counts and coincident flags stayed, and no pose moved by more than
# 3.2e-12 in units of the scale.  The "closed" digests were re-captured
# when both routes began to share one solution-set body, so that the closed
# form's straight-line continuum carries leg 1's line as the geometric
# route's always did; every other field, and every other digest, stayed.
# The "geometric" digests were re-captured when that route met leg 3's axis
# in closed form, atan2(-A, B), instead of bisecting a sampled sign change,
# after the tests of its linearity and of its blindness to m and n passed:
# kinds, pose counts, coincident flags, m, n and continua stayed, and no
# second pose moved by more than 1.8e-10 in units of the scale.  They were
# re-captured again when the route built its table on the best-conditioned
# cyclic leg pair of a C3 relabeling instead of on legs 1 and 2, after
# test_geometric_dkp_solves_parallel_legs_1_and_2 passed: 52 of the 110
# results changed, kinds, pose counts, coincident flags, m and n stayed, and
# no second pose moved by more than 3.6e-15 in units of the scale.  The
# "bruteforce" digests were re-captured when the oracle's Newton began to
# solve each step by Cramer's rule on Python floats, with math's cos and sin,
# instead of by LAPACK, after the tests of that step against LAPACK passed:
# of the 55 results only the two near-Reuleaux special triples changed.
# (1, 1 + pi/3 + 1e-6, 1 - pi/3) kept its kind and count, and its second pose
# moved by 2.4e-11 in units of the scale.  The continuum of
# (0, 1.04719755, -1.04719755) samples one second pose where it sampled two
# 6.7e-8 apart; in 50-digit arithmetic all three polish to one root, and the
# new pose is the nearest of them to it (1.9e-8 in phi).
PINNED_DK = {
    1.0: {
        "closed": "3846faf8e6269e388d0343d25304d0dbf1f1c1142d07277caa3540eb248e046e",
        "geometric": "4dc6ad13394d4aadf4cb4385e32564fec7daa1b9a6490759559fce96e50440b3",
        "bruteforce": "2cf18675791ad455c9e04647bf9336e2fcf4e1b136a7e631099a290f6781431b",
    },
    2.0: {
        "closed": "31a73535e475071b7571f919970eca75beb35b3e6b905c886ff51be83db12dee",
        "geometric": "d3ea2c4d5a25eb7f6b8c8ef4e4908cec17f297eaea7055db34e717eaf10d13f2",
        "bruteforce": "d51245a65b02c6e4b092800c86067b5a7d27b5570be6428908432a364ab95d3e",
    },
}


@pytest.mark.parametrize("scale", sorted(PINNED_POSES))
def test_scalar_kinematics_are_pinned(scale):
    assert _pose_digests(scale) == PINNED_POSES[scale]


@pytest.mark.parametrize("scale", sorted(PINNED_DK))
def test_direct_kinematics_routes_are_pinned(scale):
    assert _dk_digests(scale) == PINNED_DK[scale]


def _bisect_sign_change(func, lo, hi):
    """Adjacent floats ``lo``, ``hi`` bracketing a sign change of ``func``
    between them; returns ``lo``."""
    f_lo = func(lo)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        f_mid = func(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return lo


def _sign_change_brackets(func, lo, hi, samples=21):
    grid = [lo + (hi - lo) * k / (samples - 1) for k in range(samples)]
    values = [func(v) for v in grid]
    return [(a, b) for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]) if fa * fb < 0.0]


def _singular_cases(geometry, count=6, seed=25):
    """(pose, theta) at parallel singularities: poses on Reuleaux continua
    (leg directions flipped too), translations with every leg parallel,
    seeded poses bisected onto det A = 0 along x, and the trivial pose
    with the third angle bisected onto n = 0."""
    s = geometry.scale
    rng = np.random.default_rng(seed)
    cases = []
    for t1 in rng.uniform(-math.pi, math.pi, count).tolist():
        for flip in (0.0, math.pi):
            theta = (t1, t1 + math.pi / 3.0 + flip, t1 - math.pi / 3.0)
            for phi in (-2.0, -0.4, 0.5, 1.3, 3.0):
                rho1, _ = rho_from_phi(theta[0], theta[1], phi, geometry)
                cases.append((Pose(rho1 * math.cos(t1), rho1 * math.sin(t1), phi), theta))
    for t, d in zip(rng.uniform(-math.pi, math.pi, count).tolist(), rng.uniform(-2.0, 2.0, count)):
        pose = Pose(float(d) * s * math.cos(t), float(d) * s * math.sin(t), 0.0)
        cases += [(pose, (t, t, t)), (pose, (t, t + math.pi, t - math.pi))]
    for y, phi in zip(rng.uniform(-0.5, 1.5, count).tolist(), rng.uniform(0.2, 3.0, count).tolist()):

        def det_a(x):
            pose = Pose(x, y * s, phi)
            return build_matrices(pose, inverse_kinematics(pose, geometry=geometry).angles, geometry).det_a

        for lo, hi in _sign_change_brackets(det_a, -0.5 * s, 1.5 * s):
            pose = Pose(_bisect_sign_change(det_a, lo, hi), y * s, phi)
            cases.append((pose, inverse_kinematics(pose, geometry=geometry).angles))
    trivial = Pose(0.0, 0.0, 0.0)
    for t1, t2 in rng.uniform(-math.pi, math.pi, (count, 2)).tolist():

        def det_at_trivial(t3):
            return det_A_specialized((t1, t2, t3), geometry)

        for lo, hi in _sign_change_brackets(det_at_trivial, -math.pi, math.pi):
            cases.append((trivial, (t1, t2, _bisect_sign_change(det_at_trivial, lo, hi))))
    return cases


def _singular_digest(scale):
    geometry = ManipulatorGeometry(scale)
    digest = _Digest()
    for pose, theta in _singular_cases(geometry):
        digest.add(classify_singularity, pose, theta, geometry)
    return digest.hexdigest()


def _position_digest(scale, seed=26):
    geometry = ManipulatorGeometry(scale)
    triples = _dk_triples()
    phis = np.random.default_rng(seed).uniform(-4.0, 4.0, len(triples)).tolist()
    digest = _Digest()
    for theta, phi in zip(triples, phis):
        roots = [phi, 0.0, direct_kinematics(theta, geometry).poses[-1].phi]
        for phi in roots:
            for pair in (None, (1, 2), (2, 3), (1, 3), (2, 1), (3, 2), (3, 1)):
                digest.add(position_from_orientation, theta, phi, pair, geometry)
    return digest.hexdigest()


# Captured before the leg-axis algebra of the position solve and of the
# normal-line intersection was shared with the rest of the scalar path.  The
# "singularity" digests were re-captured when rho_from_phi, which places the
# continuum poses, read the coupler's loop-closure table, after the table's
# tests passed: classify_singularity is unchanged, every kind, zero-rho leg
# and translation flag stayed, 36 of 89 cases moved, no pose by more than
# 5.3e-16 of the scale, det A by 4.0e-16 of it, det B by 1.3e-15 of its cube
# and no intersection point by 7.9e-16 of it.
PINNED_LEG_LINES = {
    1.0: {
        "singularity": "023632b6d0dfd496e5e54b70f4a4edbd9e13b6863dc18970142965e515432dfd",
        "position": "682dbb5bc41814896f93a3587a274e907a2250989012289e6c0456c0bcccc96e",
    },
    2.0: {
        "singularity": "a488c781e7988f3182e9c8d6d5d9b97aaa4fdb2c04c723f1aec3825c3df4e81c",
        "position": "217f4c7bb8d67a4e7fdb48937b60d0a315712890f50e808395a924c8626c8573",
    },
    # Not a power of two, so a regrouped product with the scale shows.
    1.7: {
        "singularity": "9031ac76b98773e31a96dcf7446d1c4e7fd76d40f47b1de687514b6aa83fdef8",
        "position": "a8ae7b284282e590a53c6ee56dc9e3b54a2f2ae87397564858e0a86ae0648dc9",
    },
}


@pytest.mark.parametrize("scale", sorted(PINNED_LEG_LINES))
def test_parallel_singularities_and_position_solves_are_pinned(scale):
    assert {
        "singularity": _singular_digest(scale),
        "position": _position_digest(scale),
    } == PINNED_LEG_LINES[scale]


def test_geometric_dkp_of_a_reuleaux_triple_traces_no_curve(monkeypatch):
    # The angle predicate decides the continuum, and the loop-closure
    # formulas give the rest: neither route samples a coupler curve.
    triples = [(0.0, 1.04719755, -1.04719755), SPECIAL_TRIPLES[0]]
    triples += [(t, t + math.pi / 3.0 - math.pi, t - math.pi / 3.0) for t in (-2.5, 0.5, 3.0)]
    # The PINNED_DK scales, and 1.7.
    geometries = [ManipulatorGeometry(s) for s in (1.0, 1.7, 2.0)]

    def calls():
        return (
            [_outcome(geometric_dkp, t, g) for t in triples + _dk_triples() for g in geometries],
            [_outcome(reuleaux_descriptor, t, g) for g in geometries for t in _reuleaux_triples()],
        )

    want = calls()

    def boom(*args, **kwargs):
        raise AssertionError("the curve layer sampled a coupler curve")

    monkeypatch.setattr(coupler, "trace_cardanic", boom)
    monkeypatch.setattr(coupler, "_slider_loop", boom)
    assert calls() == want
    assert all(r.kind.value == "ContinuumReuleaux" for r in want[0][: len(triples) * len(geometries)])


# The larger steps move the re-solves far enough that some fail to converge.
FD_STEPS = (1e-6, 1e-3, 0.1, 1.0)


def _fd_cases(geometry, count=60, seed=24):
    """(pose, theta, step) of every pinned finite-difference check."""
    rng = np.random.default_rng(seed)
    cases = []
    for k, (x, y, phi, branch_index) in enumerate(
        zip(
            *(rng.uniform(-1.5, 1.5, (2, count)) * geometry.scale),
            rng.uniform(-math.pi, math.pi, count),
            rng.integers(0, 8, count),
        )
    ):
        pose = Pose(float(x), float(y), float(phi))
        theta = inverse_kinematics(pose, BRANCHES[branch_index], geometry).angles
        cases.append((pose, theta, FD_STEPS[k % len(FD_STEPS)]))
    # Parallel singular (det A = 0), then the fully serial posture (J = 0).
    for theta in ((0.5, 0.5, 0.5), (0.2, 0.9, 2.0)):
        cases.append((Pose(0.0, 0.0, 0.0), theta, 1e-6))
    return cases


def _fd_digest(scale):
    geometry = ManipulatorGeometry(scale)
    digest = _Digest()
    for pose, theta, step in _fd_cases(geometry):
        digest.add(lambda: jacobian_fd_check(pose, theta, step, geometry))
    return digest.hexdigest()


# Captured before the oracle's scan and Newton loops were rewritten; the
# scale-2 digest re-captured when the check began to measure J's position
# rows in units of the scale, which makes it equal the scale-1 digest.  Both
# were re-captured when the re-solves and J = A^-1 B moved from LAPACK to
# Cramer's rule on floats and the norms to math.hypot: every outcome kept its
# kind, no checked error moved by more than 5.1e-6 of itself, and a failed
# re-solve now reads "re-solve failed for leg 1, theta moved by -1.0".
PINNED_FD = {
    1.0: "de4ea6beb3ec6ae992f1d43fe2b4bf37581372bbfc76cf02c91a4b7e688fbfa0",
    2.0: "de4ea6beb3ec6ae992f1d43fe2b4bf37581372bbfc76cf02c91a4b7e688fbfa0",
}


@pytest.mark.parametrize("scale", sorted(PINNED_FD))
def test_jacobian_fd_check_is_pinned(scale):
    assert _fd_digest(scale) == PINNED_FD[scale]


def _in_scale_units(result, scale):
    """A direct-kinematics result with every length divided by ``scale``."""

    def unit(pose):
        return Pose(pose.x / scale, pose.y / scale, pose.phi)

    if isinstance(result, ScanReport):
        return dataclasses.replace(
            result,
            solutions_found=tuple(map(unit, result.solutions_found)),
            residual_max=result.residual_max / scale,
        )
    line = result.continuum
    if line is not None:
        line = dataclasses.replace(line, point=Vec2(line.point.x / scale, line.point.y / scale))
    return dataclasses.replace(result, poses=tuple(map(unit, result.poses)), continuum=line)


def _outcome(call, *args):
    try:
        return call(*args)
    except Rpr3Error as exc:
        return type(exc).__name__


@pytest.mark.parametrize("scale", [2.0**-20, 2.0, 2.0**20])
def test_direct_kinematics_and_fd_check_are_exactly_covariant_with_the_scale(scale):
    # At a power-of-two scale every length is exactly the scale times its
    # unit value, so each route must return the unit-scale poses times the
    # scale, with the same kinds, orientations and iteration counts, and the
    # finite-difference check (a ratio in units of the scale) the same value.
    unit, geometry = ManipulatorGeometry(), ManipulatorGeometry(scale)
    for theta in _dk_triples():
        for route in (direct_kinematics, geometric_dkp, dkp_bruteforce):
            scaled = _in_scale_units(route(theta, geometry=geometry), scale)
            assert scaled == route(theta, geometry=unit), (route.__name__, theta)
    for (pose, theta, step), (scaled, scaled_theta, _) in zip(
        _fd_cases(unit), _fd_cases(geometry), strict=True
    ):
        assert scaled == Pose(pose.x * scale, pose.y * scale, pose.phi)
        assert scaled_theta == theta
        assert _outcome(jacobian_fd_check, scaled, theta, step, geometry) == _outcome(
            jacobian_fd_check, pose, theta, step, unit
        ), pose


@pytest.mark.parametrize("scale", [2.0**-20, 2.0, 2.0**20])
def test_cs_check_is_exactly_covariant_with_the_scale(scale):
    # The complex-step check, a ratio in units of the scale like the
    # finite-difference one, returns its unit-scale value bit for bit.
    unit, geometry = ManipulatorGeometry(), ManipulatorGeometry(scale)
    outcomes = []
    for (pose, theta, _), (scaled, _, _) in zip(_fd_cases(unit), _fd_cases(geometry), strict=True):
        outcomes.append(_outcome(jacobian_cs_check, pose, theta, unit))
        assert _outcome(jacobian_cs_check, scaled, theta, geometry) == outcomes[-1], pose
    # Only the parallel singular case raises: the rest are checked floats.
    assert [type(v) for v in outcomes].count(float) == len(outcomes) - 1


def _curve_digest(scale, count=60, seed=22):
    geometry = ManipulatorGeometry(scale)
    rng = np.random.default_rng(seed)
    pairs = [tuple(map(float, p)) for p in rng.uniform(-4.0, 4.0, (count, 2))]
    # Straight-line pairs in both leg directions, and one parallel pair.
    for t in (-2.5, -0.7, 0.0, 0.5, 1.9, 3.0):
        pairs += [(t, t + math.pi / 3.0), (t, t + math.pi / 3.0 - math.pi)]
    pairs.append((0.4, 0.4 + math.pi))
    sample_counts = (8, 9, 64, 360, 720)
    digest = _Digest()
    for k, (t1, t2) in enumerate(pairs):
        n = sample_counts[k % len(sample_counts)]
        digest.add(lambda: _curve_record(trace_cardanic(t1, t2, n, geometry)))
    return digest.hexdigest()


def _curve_record(curve):
    """Header and one (phi, b3x, b3y, rho1, rho2) tuple per sample."""
    rows = list(zip(curve.phi.tolist(), *curve.b3.T.tolist(), *curve.rho.T.tolist()))
    return (curve.theta1, curve.theta2, curve.degenerate, curve.segment, curve.scale, rows)


def _reuleaux_triples(count=8, seed=23):
    rng = np.random.default_rng(seed)
    triples = [(0.0, 1.04719755, -1.04719755)]
    for t in map(float, rng.uniform(-math.pi, math.pi, count)):
        # Each leg direction may be flipped by pi; the swapped offsets are
        # not a straight-line triple and pin the error path.
        for f2 in (0.0, math.pi):
            for f3 in (0.0, -math.pi):
                triples.append((t, t + math.pi / 3.0 + f2, t - math.pi / 3.0 + f3))
        triples.append((t, t - math.pi / 3.0, t + math.pi / 3.0))
    return triples


def _reuleaux_digest(scale):
    geometry = ManipulatorGeometry(scale)
    digest = _Digest()
    for theta in _reuleaux_triples():
        digest.add(lambda: reuleaux_descriptor(theta, geometry=geometry))
    return digest.hexdigest()


# Captured before the rewrite; see the module docstring.  The "reuleaux"
# digests were re-captured when the descriptor read its coefficients from
# the loop closure instead of a 4096-sample Fourier projection; no field of
# 12,000 descriptors at five scales moved by more than 1.1e-15 of the scale.
# The "curves" digests were re-captured when the straight segment came from
# the angle predicate and the line through a3 instead of an SVD fit of the
# samples: every phi, b3 and rho column and every degenerate flag stayed,
# and each segment's ends, ordered low to high along the line now, moved by
# at most 1.4e-15 of the scale.  They were re-captured again when the
# segment took its exact ends from leg 3's extension instead of the samples'
# extent, after the exact-length test passed: the columns and flags stayed,
# and the ends moved outward by up to 0.077 of the scale (8 samples).  Both
# were re-captured again when samples, segment ends and descriptors read one
# loop-closure table, after its tests passed (B3 is a3 exactly at phi = 0):
# phi and the flags stayed; rho moved by at most 4.5e-16 and b3 by 9.2e-16
# of the larger of the scale and the curve's largest value in that column,
# the segment ends by 5.3e-16 of the scale and descriptor fields by 5.6e-16.
# The "curves" digests were re-captured once more when the loop closure
# turned its -0.0 at phi = 0 (a, b < 0) into +0, after the signed-zero tests
# passed: the 84 signed zeros in the records are the only change.
PINNED_CURVES = {
    1.0: {
        "curves": "10640b4fdfcfa5773c9e13cf197874b55be5cb60d9bce2878bd0feb4f09ada5d",
        "reuleaux": "5b3fb04049aa49a70dc21c9e020e428fbdfade0d8f47ad282a5d982226a8f9ec",
    },
    2.0: {
        "curves": "8b8e5ffef68446c1b8a3003849879342a0cf526559bb079b304e3e7ecf98660d",
        "reuleaux": "603f6a9cd40c4d3d592e6feec19b5667628ab41bd99170ff06adf7a0e0570057",
    },
    # Not a power of two, so a regrouped product with the scale shows.
    1.7: {
        "curves": "c58e1701c8decf7b988c6c7cf6accf55a81eefd1e0a089133a292917f0324a87",
        "reuleaux": "6b86ac06f91ad95d7d08a1aadf37e6fdfd10509579545252a934b5b96ab74172",
    },
}


@pytest.mark.parametrize("scale", sorted(PINNED_CURVES))
def test_curve_layer_is_pinned(scale):
    assert {
        "curves": _curve_digest(scale),
        "reuleaux": _reuleaux_digest(scale),
    } == PINNED_CURVES[scale]


TRACE_ARGVS = [
    ("--t1", "0.2", "--t2", "0.9", "--samples", "64"),
    ("--t1", "0.5", "--t2", str(0.5 + math.pi / 3.0)),
    ("--t1", "-3.0", "--t2", "3.0", "--samples", "9"),
    ("--t1", "20", "--t2", "75", "--samples", "100", "--deg"),
    ("--t1", "10", "--t2", "70", "--deg"),
]


def _trace_digest(tmp_path, capsys):
    # Every argv writes the same two paths, and the 720-sample pages come
    # before shorter ones (9, then 100 rows), so each digest also holds the
    # in-place rewrite to cutting the longer file's tail.
    digest = hashlib.sha256()
    for argv in TRACE_ARGVS:
        csv_path, svg_path = tmp_path / "t.csv", tmp_path / "t.svg"
        code = main(["trace", *argv, "--csv", str(csv_path), "--svg", str(svg_path)])
        out = capsys.readouterr().out.replace(json.dumps(str(tmp_path))[1:-1], "<dir>")
        for part in (str(code).encode(), out.encode(), csv_path.read_bytes(), svg_path.read_bytes()):
            digest.update(part)
            digest.update(b"\n")
    return digest.hexdigest()


# Exit code, stdout, CSV and SVG bytes of every argv above, captured before
# the rewrite, and re-captured when the CSV header gained its angle unit and
# the rows a last scale column (stdout and SVG bytes unchanged; each CSV,
# with that column dropped and the plain header restored, unchanged too),
# and again with the closed-form Reuleaux coefficients (only the last bits
# of the printed descriptor moved; CSV and SVG bytes unchanged), and again
# when the segment came from the line through a3 (CSV bytes and descriptor
# unchanged; the printed and drawn segment ends now run low to high along
# the line and moved in their last bits), and again when the segment took
# its exact ends (CSV bytes and descriptor unchanged; the 720-sample
# segment's ends moved outward by up to 3.3e-6 of the scale and its length
# became the descriptor's travel), and again when the curve layer read one
# loop-closure table (SVG bytes and the printed descriptor unchanged; CSV
# values moved by at most 1.1e-15 of the scale, and one printed segment end
# by 5.6e-17 of it).
PINNED_TRACE = {
    1.0: "0e9f8243bf82915c46bc22c132d75e7fd3b2b96dc6d6a68fc77628b232083df1",
    2.0: "07ab191169db831cf45d11277c375a8e13d093d9cc985fedb7a37c906e1f989f",
    1.7: "834e3e1104b9a544936156a915d3a8e56fd136dfa26600a366b3f57d8c9fc4e4",
}


@pytest.mark.parametrize("scale", sorted(PINNED_TRACE))
def test_trace_artifacts_are_pinned(scale, tmp_path, capsys, monkeypatch):
    if scale != 1.0:
        path = tmp_path / "geom.json"
        path.write_text(json.dumps({"scale": scale}))
        monkeypatch.setenv("RPR_GEOMETRY", str(path))
    assert _trace_digest(tmp_path, capsys) == PINNED_TRACE[scale]


def _verify_digest(capsys):
    digest = hashlib.sha256()
    for seed in range(4):
        code = main(["verify", "--scope", "all", "--trials", "20", "--seed", str(seed)])
        digest.update(f"{code}\n{capsys.readouterr().out}\n".encode())
    return digest.hexdigest()


# Exit code and stdout of verify, captured before the fixed sampling grids
# (the oracle's scan table and the phi cycle's cos and sin) were built once
# per process: seeds 0-3 of --scope all at each scale, and one curves run
# that also rechecks a 360-sample trace CSV at the unit scale.  The two
# --scope all digests were re-captured when the jacobian scope moved from
# central differences to the complex step, which renamed its worst metric
# max_jacobian_error and changed its value; the dkp and curves scopes kept
# their output.  They were re-captured again when the oracle's Newton and
# J = A^-1 B moved from LAPACK to Cramer's rule on floats: exit codes, pass
# flags and every other field stayed, and only max_jacobian_error moved, by
# at most 51% of itself, all values below 9e-14.  All three were re-captured
# when verify's draws moved from numpy's default_rng to random.Random: new
# inputs for each seed, the same checks, gates and skip rules.
PINNED_VERIFY = {
    1.0: "96d59f70b4f7a2d078c0b572002e4b286f5f62d3e0d9a30d120312dcbc8480c7",
    2.0: "b2af85a46d908bc409ba9b53a70c4aec279ff991d2a8ed2dfc29f97c2fa0bd52",
    "csv": "cd5e27178807688c2e6fb51f76c5d395f382338a8f3d242163a37eba205e4223",
}


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_verify_output_is_pinned(scale, tmp_path, capsys, monkeypatch):
    if scale != 1.0:
        path = tmp_path / "geom.json"
        path.write_text(json.dumps({"scale": scale}))
        monkeypatch.setenv("RPR_GEOMETRY", str(path))
    assert _verify_digest(capsys) == PINNED_VERIFY[scale]


def test_verify_of_a_trace_csv_is_pinned(tmp_path, capsys):
    csv_path = tmp_path / "trace360.csv"
    argv = ["trace", "--t1", "0.2", "--t2", "0.9", "--samples", "360", "--csv", str(csv_path)]
    assert main(argv) == 0
    capsys.readouterr()
    code = main(
        ["verify", "--scope", "curves", "--trials", "200", "--seed", "3", "--csv", str(csv_path)]
    )
    out = capsys.readouterr().out
    assert hashlib.sha256(f"{code}\n{out}\n".encode()).hexdigest() == PINNED_VERIFY["csv"]
