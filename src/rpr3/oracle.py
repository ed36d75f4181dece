"""Brute-force verifiers, deliberately independent of the closed forms.

The direct-kinematics scan rediscovers assemblies from first principles:
divide the trivial assembly's factor 2 sin(phi / 2) out of the leg
constraints, fix the half angle, solve two legs for the position (they are
affine in it), and watch the sign of the left-out leg, a sinusoid scanned
as one column.  Sign changes are polished on the deflated system, which has
no trivial root to land on, by Newton's method, which from a bracket
midpoint typically needs one or two iterations per pose.  None of the closed-form
root machinery is used: the module imports neither solvers nor coupler, so
agreement with the solvers is evidence, not tautology.

The Jacobian check compares the analytic velocity map, jacobians' matrices,
against poses re-solved after one complex step per leg.  One Newton serves
the polish and the re-solves, on Python floats or complex numbers.
Its step is straight-line arithmetic, one expression per leg, and its 3x3
solve is Cramer's rule with the triple products written inline, as J =
A^-1 B's columns are.  The module calls no LAPACK: on 3x3 systems this is
faster, skips the workspace whose first use raises a process's peak RSS,
and keeps the pinned oracle floats independent of the BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .errors import GeometryError, SingularNearbyError
from .geometry import (
    DEFAULT_GEOMETRY,
    PAIR_SIN_TOL,
    JointAngles,
    ManipulatorGeometry,
    Pose,
    _as_angles,
    _best_pair,
    cluster_poses,
)

__all__ = [
    "NEWTON_MAX_ITER",
    "NEWTON_RESIDUAL_TOL",
    "CONTINUUM_GRID_FRACTION",
    "ScanReport",
    "dkp_bruteforce",
    "jacobian_cs_check",
]

NEWTON_MAX_ITER = 50
NEWTON_RESIDUAL_TOL = 1e-12

# Fraction of grid orientations admitting a near-zero residual above which
# the scan declares a solution continuum instead of isolated roots.
CONTINUUM_GRID_FRACTION = 0.05
_CONTINUUM_RESIDUAL = 1e-8

# Samples of the scan over (-pi, pi], a full period of phi / 2 + pi / 2.
_SCAN_SAMPLES = 2048
_SCAN_STEP = 2.0 * math.pi / _SCAN_SAMPLES

_TRIVIAL = Pose(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one brute-force direct-kinematics scan.

    When ``continuum`` is set, ``solutions_found`` holds a subsample of the
    family rather than isolated roots.
    """

    solutions_found: tuple[Pose, ...]
    residual_max: float
    newton_iterations: int
    continuum: bool = False


def _leg_rows(t, geometry: ManipulatorGeometry) -> list[tuple]:
    """(sin t_i, cos t_i, anchor i) per leg, on floats or complex numbers; the
    anchor is the base anchor and equally the platform anchor in its frame."""
    ((c1, s1), (c2, s2), (c3, s3)), (a1, a2, a3) = map(_cos_sin, t), geometry._anchor_pairs
    return [(s1, c1, a1), (s2, c2, a2), (s3, c3, a3)]


@lru_cache(maxsize=1)
def _scan_table() -> tuple:
    """The scan's alpha grid and numpy's cos and sin of it, read-only, built
    once per process and shared by every geometry: 3 columns, 48 KiB."""
    alphas = -math.pi + _SCAN_STEP * np.arange(1, _SCAN_SAMPLES + 1)
    cos_a, sin_a = np.cos(alphas), np.sin(alphas)
    alphas.flags.writeable = cos_a.flags.writeable = sin_a.flags.writeable = False
    return alphas, cos_a, sin_a


def _deflated_solves(legs: tuple, det: float, cos, sin) -> list[tuple[float, float, float]]:
    """(x, y, r) per (cos, sin) of alpha, on floats in a full-column scan's operation order:
    q solving deflated legs i, j of ``legs`` (rows i, j, k) by Cramer's rule, leg k's r there."""
    (sti, cti, (axi, ayi)), (stj, ctj, (axj, ayj)), (stk, ctk, (axk, ayk)) = legs
    solves = []
    for c, s in zip(cos, sin):
        ei = sti * (0.0 + c * axi - s * ayi) - cti * (0.0 + s * axi + c * ayi)
        ej = stj * (0.0 + c * axj - s * ayj) - ctj * (0.0 + s * axj + c * ayj)
        ek = stk * (0.0 + c * axk - s * ayk) - ctk * (0.0 + s * axk + c * ayk)
        x, y = (ei * ctj - ej * cti) / det, (ei * stj - ej * sti) / det
        solves.append((x, y, stk * x - ctk * y + ek))
    return solves


def _newton_polish(
    start, t, geometry: ManipulatorGeometry, tol: float = NEWTON_RESIDUAL_TOL, home: float = 1.0,
    rows: list | None = None,
) -> tuple[tuple | None, int]:
    """The one Newton: the scan's polish and the finite-difference re-solves
    on floats, the complex-step re-solves on complex ``t``.

    Each step solves the residuals u sin t_i - v cos t_i of the offsets (u, v)
    = b_i - home a_i (home 0: every base anchor at the origin) by :func:`_cramer`, with
    ``math``'s cos and sin and the scan's ``rows`` (:func:`_leg_rows` of ``t``,
    built if not given), each leg in straight-line arithmetic.  Converged when
    every residual's real part is below ``tol`` and its imaginary part at most
    ``tol`` times the largest of |Im t_i|, |Im x| / s, |Im y| / s and |Im phi|.
    Returns (solution, iterations used), or (None, iterations) on a zero
    determinant or when ``tol`` is not reached.
    """
    rows = _leg_rows(t, geometry) if rows is None else rows
    (st1, ct1, (bx1, by1)), (st2, ct2, (bx2, by2)), (st3, ct3, (bx3, by3)) = rows
    sin_t, neg_cos_t = (st1, st2, st3), (-ct1, -ct2, -ct3)
    h, scale = max(abs(t[0].imag), abs(t[1].imag), abs(t[2].imag)), geometry.scale
    x, y, phi, cap = *start, NEWTON_MAX_ITER
    for it in range(cap + 1):
        c, s = _cos_sin(phi)
        r1 = st1 * (x + c * bx1 - s * by1 - home * bx1) - ct1 * (y + s * bx1 + c * by1 - home * by1)
        r2 = st2 * (x + c * bx2 - s * by2 - home * bx2) - ct2 * (y + s * bx2 + c * by2 - home * by2)
        r3 = st3 * (x + c * bx3 - s * by3 - home * bx3) - ct3 * (y + s * bx3 + c * by3 - home * by3)
        if abs(r1.real) < tol and abs(r2.real) < tol and abs(r3.real) < tol:
            gate = tol * max(h, abs(x.imag) / scale, abs(y.imag) / scale, abs(phi.imag))
            if abs(r1.imag) <= gate and abs(r2.imag) <= gate and abs(r3.imag) <= gate:
                return ((x, y, phi), it)
        if it == cap:
            break
        turn = (
            st1 * (-s * bx1 - c * by1) - ct1 * (c * bx1 - s * by1),
            st2 * (-s * bx2 - c * by2) - ct2 * (c * bx2 - s * by2),
            st3 * (-s * bx3 - c * by3) - ct3 * (c * bx3 - s * by3),
        )
        step = _cramer(sin_t, neg_cos_t, turn, (r1, r2, r3))
        if step is None:
            return (None, it + 1)
        x, y, phi = x - step[0], y - step[1], phi - step[2]
    return (None, cap)


def dkp_bruteforce(
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> ScanReport:
    """Scan the orientation cycle for assemblies.

    The trivial pose is always returned.  With psi = phi / 2, alpha =
    psi + pi/2 and p = 2 sin(psi) q, (R(phi) - I) a = 2 sin(psi) R(alpha) a
    makes leg i's residual 2 sin(psi) (q + R(alpha) a_i) x v_i.  Two deflated
    legs (the closed form's best-conditioned pair, same tie order) are solved
    for q and the left-out one becomes the scan function C cos(alpha) +
    S sin(alpha), one column on the shared grid of 2048 alphas over (-pi, pi];
    q is solved on floats only at the bracket ends.  Its sign changes
    (wrap-aware) bracket psi2 and psi2 + pi, refined by :func:`_newton_polish`
    on the deflated system (typically one or two iterations) until every
    residual is below ``NEWTON_RESIDUAL_TOL * scale``, and clustered.
    A continuum is declared when more than 5% of the grid admits residual
    below 1e-8 * scale; all-parallel legs short-circuit to the translation
    continuum without scanning (the position solve is rank deficient).
    """
    t = _as_angles(theta)
    i, j, k = _best_pair(t)
    det = math.sin(t[j] - t[i])
    if abs(det) < PAIR_SIN_TOL:
        # Every pair of slider lines is parallel: translation self motion.
        return ScanReport((_TRIVIAL,), 0.0, 0, continuum=True)

    (alphas, cos_a, sin_a), rows = _scan_table(), _leg_rows(t, geometry)
    solve = partial(_deflated_solves, (rows[i], rows[j], rows[k]), det)
    # Leg k's residual r is C cos(alpha) + S sin(alpha), C and S its values at 0 and pi / 2.
    (*_, big_c), (*_, big_s) = solve((1.0, 0.0), (0.0, 1.0))
    leftover = big_c * cos_a + big_s * sin_a
    # The column is off r by far less than 2048 eps scale (1 + 1/|det|): near 0 or the gate, use r.
    bound = geometry.scale * (_CONTINUUM_RESIDUAL + 2048 * math.ulp(1.0) * (1.0 + 1.0 / abs(det)))
    near_zero = doubt = np.flatnonzero(np.abs(leftover) <= bound)
    if doubt.size:
        leftover[doubt] = [r for *_, r in solve(cos_a[doubt].tolist(), sin_a[doubt].tolist())]
        near_zero = doubt[np.abs(leftover[doubt]) < _CONTINUUM_RESIDUAL * geometry.scale]
    continuum = near_zero.size > CONTINUUM_GRID_FRACTION * _SCAN_SAMPLES
    if continuum:
        picks = near_zero[:: max(1, len(near_zero) // 64)]
        solves = solve(cos_a[picks].tolist(), sin_a[picks].tolist())
        candidates = [(x, y, alpha) for (x, y, _), alpha in zip(solves, alphas[picks].tolist())]
    else:
        candidates = _bracket_candidates(leftover, alphas, cos_a, sin_a, _SCAN_STEP, solve)
    poses, iters = _polish_candidates(candidates, t, rows, geometry)
    residual = 0.0  # the largest |constraint_residuals|, refused past the float range as there
    for pose in poses:
        px, py, c, s = pose.x, pose.y, math.cos(pose.phi), math.sin(pose.phi)
        for st, ct, (ax, ay) in rows:
            r = st * (px + c * ax - s * ay - ax) - ct * (py + s * ax + c * ay - ay)
            if not math.isfinite(r):
                raise GeometryError(f"residual must be finite, got {r!r}")
            residual = max(residual, abs(r))
    return ScanReport(tuple(poses), residual, iters, continuum=continuum)


def _bracket_candidates(leftover, alphas, cos_a, sin_a, step: float, solve) -> list[tuple]:
    """Newton starts from the scan function at ``alphas``, in grid order.

    Sample a, with wrap-around neighbour b = a + 1, gives itself when
    leftover[a] == 0, else the bracket midpoint when leftover[a] * leftover[b]
    < 0; NaN gives none, and an overflowing product is inf, as on floats.
    Only the indices come from arrays; one ``solve`` call gives the positions.
    """
    with np.errstate(over="ignore"):
        wrapped = np.concatenate((leftover[1:], leftover[:1]))
        picks = np.flatnonzero((leftover == 0.0) | (leftover * wrapped < 0.0))
    ends = np.concatenate((picks, (picks + 1) % leftover.size))
    solves = solve(cos_a[ends].tolist(), sin_a[ends].tolist())
    candidates = []
    for a, (xa, ya, _), (xb, yb, _) in zip(picks.tolist(), solves, solves[len(picks):]):
        if leftover[a] == 0.0:
            candidates.append((xa, ya, alphas.item(a)))
        else:
            candidates.append((0.5 * (xa + xb), 0.5 * (ya + yb), alphas.item(a) + 0.5 * step))
    return candidates


def _polish_candidates(
    candidates: list[tuple[float, float, float]],
    t: tuple[float, float, float],
    rows: list[tuple],
    geometry: ManipulatorGeometry,
) -> tuple[list[Pose], int]:
    """The trivial pose and the clustered poses Newton reaches from the
    deflated ``candidates`` with the scan's ``rows`` of ``t``, and the Newton
    iterations used.  Candidates (q, alpha) and (-q, alpha + pi) are one
    pose, so only the first of each cluster of start poses is polished."""
    total_iters = 0
    polished: list[Pose | None] = []
    tol = NEWTON_RESIDUAL_TOL * geometry.scale
    starts = {pose: cand for cand in candidates if (pose := _chord_pose(*cand)) is not None}
    for start in cluster_poses(starts, geometry):
        solved, used = _newton_polish(starts[start], t, geometry, tol=tol, home=0.0, rows=rows)
        total_iters += used
        if solved is not None:
            polished.append(_chord_pose(*solved))
    return ([_TRIVIAL, *cluster_poses(filter(None, polished), geometry)], total_iters)


def _chord_pose(qx: float, qy: float, alpha: float) -> Pose | None:
    """p = 2 sin(psi) q at phi = 2 psi = 2 alpha - pi, or None if p overflows."""
    chord = -2.0 * math.cos(alpha)
    x, y = chord * qx, chord * qy
    return Pose(x, y, 2.0 * alpha - math.pi) if math.isfinite(x) and math.isfinite(y) else None


def _analytic_map(pose: Pose, t: tuple, geometry: ManipulatorGeometry, terms=None) -> list:
    """The columns of J = A^-1 B, position rows in units of the scale, from
    ``terms``: the rows of A, the rhos and det A that the velocity layer's
    ``_configuration(pose, t, geometry)`` leads with, computed here unless
    given.  B is diagonal, so column l is rho_l A^-1 e_l, each by
    :func:`_cramer`.  Raises :class:`SingularNearbyError` when A is parallel
    singular."""
    from .jacobians import _configuration, _is_parallel

    rows, rhos, det_a = terms or _configuration(pose, t, geometry)[:3]
    s = geometry.scale
    if _is_parallel(det_a, s):
        raise SingularNearbyError(f"det A = {det_a:.3e}: too close to a parallel singularity")
    a = list(zip(*rows))
    j = []
    for leg, rho in enumerate(rhos):
        dx, dy, dphi = _cramer(*a, [float(leg == k) for k in range(3)])
        j.append((rho * dx / s, rho * dy / s, rho * dphi))
    return j


def _relative_error(numeric: list, analytic: list) -> float:
    """||numeric - analytic||_F / ||analytic||_F of two lists of columns."""
    denom = math.hypot(*(v for column in analytic for v in column))
    if denom == 0.0:
        # Fully serial posture: the analytic map vanishes identically, so
        # the relative error is undefined; report the absolute norm.
        return math.hypot(*(v for column in numeric for v in column))
    gaps = (u - v for pair in zip(numeric, analytic) for u, v in zip(*pair))
    return math.hypot(*gaps) / denom


def jacobian_cs_check(
    pose: Pose,
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> float:
    """Relative error ||J_cs - J||_F / ||J||_F between the analytic velocity
    map J = A^-1 B and complex-step columns, exact to rounding; the position
    rows of both are in units of the scale.

    Column ``leg`` of J is Im(pose) / h of the pose re-solved by Newton in
    complex arithmetic after perturbing theta_leg by i h: one re-solve per
    leg and no difference taken (Squire and Trapp, SIAM Review 40(1), 1998).
    Raises :class:`SingularNearbyError` when the configuration is parallel
    singular or a re-solve fails to converge.
    """
    return _jacobian_cs_error(pose, _as_angles(theta), geometry)


def _jacobian_cs_error(pose: Pose, t: tuple, geometry: ManipulatorGeometry, terms=None) -> float:
    """:func:`jacobian_cs_check` at checked angles ``t``, on the caller's
    rows of A, rhos and det A when it has them (see :func:`_analytic_map`)."""
    analytic = _analytic_map(pose, t, geometry, terms)
    columns = [_complex_step_column(pose, t, leg, geometry) for leg in range(3)]
    return _relative_error(columns, analytic)


def _complex_step_column(pose: Pose, t: tuple, leg: int, geometry: ManipulatorGeometry) -> tuple:
    """Column ``leg`` of J, position rows in units of the scale: Im / h of
    the pose re-solved after moving theta_leg by i h."""
    # h^2 vanishes beside 1, and h times any column stays far above underflow.
    h = 1e-30
    x, y, phi = _resolved(pose, [complex(a) for a in t], leg, 1j * h, geometry)
    return (x.imag / (h * geometry.scale), y.imag / (h * geometry.scale), phi.imag / h)


def _resolved(pose: Pose, t, leg: int, shift, geometry: ManipulatorGeometry) -> tuple:
    """``pose`` re-solved by :func:`_newton_polish` to 1e-14 s after moving
    t_leg by ``shift``, real or imaginary; raises :class:`SingularNearbyError`
    when Newton fails."""
    moved = list(t)
    moved[leg] += shift
    solved, _ = _newton_polish(pose.as_tuple(), moved, geometry, tol=1e-14 * geometry.scale)
    if solved is None:
        raise SingularNearbyError(f"re-solve failed for leg {leg + 1}, theta moved by {shift!r}")
    return solved


def _cos_sin(z):
    """cos z and sin z of a float by ``math``, or of a finite complex z bit for
    bit as ``cmath`` gives them; loading that extension module raised a
    process's peak RSS by 0.3 MB."""
    if not isinstance(z, complex):
        return math.cos(z), math.sin(z)
    cos, sin, cosh, sinh = math.cos(z.real), math.sin(z.real), math.cosh(z.imag), math.sinh(z.imag)
    return complex(cos * cosh, -sin * sinh), complex(sin * cosh, cos * sinh)


def _cramer(p, q, r, b) -> tuple | None:
    """z with z0 p + z1 q + z2 r = b by Cramer's rule, on floats or complex
    numbers, or None when det [p q r] is 0.  Each determinant is the triple
    product c0 . (c1 x c2) of its columns; det and the first share q x r."""
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2), (b0, b1, b2) = p, q, r, b
    qr0, qr1, qr2 = q1 * r2 - q2 * r1, q2 * r0 - q0 * r2, q0 * r1 - q1 * r0
    det = p0 * qr0 + p1 * qr1 + p2 * qr2
    if det == 0:
        return None
    return (
        (b0 * qr0 + b1 * qr1 + b2 * qr2) / det,
        (b0 * (r1 * p2 - r2 * p1) + b1 * (r2 * p0 - r0 * p2) + b2 * (r0 * p1 - r1 * p0)) / det,
        (b0 * (p1 * q2 - p2 * q1) + b1 * (p2 * q0 - p0 * q2) + b2 * (p0 * q1 - p1 * q0)) / det,
    )
