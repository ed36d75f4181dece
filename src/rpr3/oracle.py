"""Brute-force verifiers, deliberately independent of the closed forms.

The direct-kinematics scan rediscovers assemblies from first principles:
fix the orientation, solve two leg constraints for the position (they are
affine in it), and watch the sign of the left-out constraint around the
cycle.  Sign changes are polished on the full three-residual system by a
damped Newton iteration.  None of the closed-form root machinery is used;
this module imports only the shared geometry primitives, so agreement with
the solvers is evidence, not tautology.

The Jacobian check compares the analytic velocity map against central
finite differences of locally re-solved poses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SingularNearbyError
from .geometry import (
    DEFAULT_GEOMETRY,
    PAIR_SIN_TOL,
    JointAngles,
    ManipulatorGeometry,
    Pose,
    _as_angles,
    cluster_poses,
    constraint_residuals,
)

__all__ = [
    "NEWTON_DAMPING",
    "NEWTON_MAX_ITER",
    "NEWTON_RESIDUAL_TOL",
    "CONTINUUM_GRID_FRACTION",
    "ScanReport",
    "dkp_bruteforce",
    "jacobian_fd_check",
]

NEWTON_DAMPING = 0.5
NEWTON_MAX_ITER = 50
NEWTON_RESIDUAL_TOL = 1e-12

# Fraction of grid orientations admitting a near-zero residual above which
# the scan declares a solution continuum instead of isolated roots.
CONTINUUM_GRID_FRACTION = 0.05
_CONTINUUM_RESIDUAL = 1e-8

# Orientation samples of the scan over (-pi, pi].
_SCAN_SAMPLES = 2048


@dataclass(frozen=True)
class ScanReport:
    """Outcome of one brute-force direct-kinematics scan.

    ``grid`` is (orientation samples, position solves per sample); the
    position subproblem is linear, so the second entry is always 1.  When
    ``continuum`` is set, ``solutions_found`` holds a subsample of the
    family rather than isolated roots.
    """

    solutions_found: tuple[Pose, ...]
    residual_max: float
    grid: tuple[int, int]
    newton_iterations: int
    continuum: bool = False


def _leg_rows(
    t: tuple[float, float, float], geometry: ManipulatorGeometry
) -> list[tuple[float, float, tuple[float, float]]]:
    """(sin t_i, cos t_i, anchor i) per leg.  The anchor is the base anchor
    and equally the platform anchor in the platform frame."""
    sin_t, cos_t = np.sin(np.asarray(t)).tolist(), np.cos(np.asarray(t)).tolist()
    return list(zip(sin_t, cos_t, [(v.x, v.y) for v in geometry.anchors]))


def _residual_rows(x, y, c, s, rows: list) -> list:
    """The three constraint residuals at cos/sin (c, s) of phi, on floats
    or on columns of configurations.

    Re-implements the anchor algebra directly (a separate evaluation path
    from the scalar geometry helpers used by the solvers).
    """
    return [
        st * (x + c * bx - s * by - bx) - ct * (y + s * bx + c * by - by)
        for st, ct, (bx, by) in rows
    ]


def _newton_polish(
    start: tuple[float, float, float],
    t: tuple[float, float, float],
    geometry: ManipulatorGeometry,
    damping: float = NEWTON_DAMPING,
    max_iter: int = NEWTON_MAX_ITER,
    tol: float = NEWTON_RESIDUAL_TOL,
) -> tuple[tuple[float, float, float] | None, int]:
    """Damped Newton on the full three-residual system, on Python floats.

    Returns (solution, iterations used) or (None, iterations) when the
    iteration fails to reach ``tol``.
    """
    rows = _leg_rows(t, geometry)
    # The last column, d/dphi of the rotated local anchor, is set each step.
    jac = np.array([(st, -ct, 0.0) for st, ct, _ in rows])
    x, y, phi = start
    for it in range(max_iter + 1):
        # numpy's cos/sin for the residuals, as in the scan; libm's for the Jacobian.
        res = _residual_rows(x, y, float(np.cos(phi)), float(np.sin(phi)), rows)
        if all(abs(r) < tol for r in res):
            return ((x, y, phi), it)
        if it == max_iter:
            break
        c, s = math.cos(phi), math.sin(phi)
        jac[:, 2] = [
            st * (-s * bx - c * by) - ct * (c * bx - s * by) for st, ct, (bx, by) in rows
        ]
        try:
            dx, dy, dphi = np.linalg.solve(jac, np.negative(res)).tolist()
        except np.linalg.LinAlgError:
            return (None, it + 1)
        x += damping * dx
        y += damping * dy
        phi += damping * dphi
    return (None, max_iter)


def dkp_bruteforce(
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> ScanReport:
    """Scan the orientation cycle for assemblies.

    For each phi on a uniform grid of 2048 samples over (-pi, pi], the two
    best-conditioned leg constraints are solved for the position and the
    left-out constraint becomes the scan function; its sign changes
    (wrap-aware) bracket isolated assemblies, refined by damped Newton until
    every residual is below ``NEWTON_RESIDUAL_TOL * scale`` and clustered by
    :func:`cluster_poses`.  A continuum is declared when more than 5% of the
    grid admits residual below 1e-8 * scale; all-parallel legs short-circuit
    to the translation continuum without scanning (the position solve is
    rank deficient everywhere).
    """
    t = _as_angles(theta)
    scale = geometry.scale
    trivial = Pose(0.0, 0.0, 0.0)

    pairs = ((0, 1, 2), (1, 2, 0), (0, 2, 1))
    dets = [math.sin(t[j] - t[i]) for i, j, _ in pairs]
    best = max(range(3), key=lambda idx: abs(dets[idx]))
    if abs(dets[best]) < PAIR_SIN_TOL:
        # Every pair of slider lines is parallel: translation self motion.
        return ScanReport((trivial,), 0.0, (_SCAN_SAMPLES, 1), 0, continuum=True)
    i, j, k = pairs[best]
    det = dets[best]

    step = 2.0 * math.pi / _SCAN_SAMPLES
    phis = -math.pi + step * np.arange(1, _SCAN_SAMPLES + 1)
    zeros = np.zeros_like(phis)
    e = _residual_rows(zeros, zeros, np.cos(phis), np.sin(phis), _leg_rows(t, geometry))
    # Cramer solve of legs i, j for the position at each orientation.
    x = (e[i] * math.cos(t[j]) - e[j] * math.cos(t[i])) / det
    y = (e[i] * math.sin(t[j]) - e[j] * math.sin(t[i])) / det
    leftover = math.sin(t[k]) * x - math.cos(t[k]) * y + e[k]

    near_zero = np.abs(leftover) < _CONTINUUM_RESIDUAL * scale
    if float(near_zero.mean()) > CONTINUUM_GRID_FRACTION:
        picks = np.flatnonzero(near_zero)
        picks = picks[:: max(1, len(picks) // 64)]
        poses, iters = _polish_candidates(
            [(float(x[p]), float(y[p]), float(phis[p])) for p in picks], t, geometry
        )
        residual = _worst_residual(poses, t, geometry)
        return ScanReport(tuple(poses), residual, (_SCAN_SAMPLES, 1), iters, continuum=True)

    candidates = _bracket_candidates(leftover, x, y, phis, step)
    poses, iters = _polish_candidates(candidates, t, geometry)
    residual = _worst_residual(poses, t, geometry)
    return ScanReport(tuple(poses), residual, (_SCAN_SAMPLES, 1), iters, continuum=False)


def _bracket_candidates(
    leftover: np.ndarray, x: np.ndarray, y: np.ndarray, phis: np.ndarray, step: float
) -> list[tuple[float, float, float]]:
    """Newton starts from the scan function, in grid order.

    Sample a, with wrap-around neighbour b = a + 1, gives itself when
    leftover[a] == 0, else the bracket midpoint when leftover[a] * leftover[b]
    < 0; NaN gives none, and an overflowing product is inf, as on floats.
    """
    with np.errstate(over="ignore"):
        exact = leftover == 0.0
        a = np.flatnonzero(exact | (leftover * np.roll(leftover, -1) < 0.0))
        b = (a + 1) % leftover.size
        exact = exact[a]
        xs = np.where(exact, x[a], 0.5 * (x[a] + x[b]))
        ys = np.where(exact, y[a], 0.5 * (y[a] + y[b]))
        ps = np.where(exact, phis[a], phis[a] + 0.5 * step)
    return list(zip(xs.tolist(), ys.tolist(), ps.tolist()))


def _polish_candidates(
    candidates: list[tuple[float, float, float]],
    t: tuple[float, float, float],
    geometry: ManipulatorGeometry,
) -> tuple[list[Pose], int]:
    total_iters = 0
    polished: list[Pose] = []
    tol = NEWTON_RESIDUAL_TOL * geometry.scale
    for cand in candidates:
        solved, used = _newton_polish(cand, t, geometry, tol=tol)
        total_iters += used
        if solved is not None:
            polished.append(Pose(solved[0], solved[1], solved[2]))
    solutions = cluster_poses(polished, geometry)
    solutions.sort(key=lambda p: abs(p.phi))
    return (solutions, total_iters)


def _worst_residual(
    poses: list[Pose], t: tuple[float, float, float], geometry: ManipulatorGeometry
) -> float:
    worst = 0.0
    for pose in poses:
        worst = max(worst, max(abs(r) for r in constraint_residuals(pose, t, geometry)))
    return worst


def jacobian_fd_check(
    pose: Pose,
    theta: JointAngles | Sequence[float],
    step: float = 1e-6,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> float:
    """Relative error between the analytic velocity map and finite differences.

    Columns of J = A^-1 B are compared against central differences of the
    pose re-solved (full Newton, tight tolerance) after perturbing each
    actuated angle by +-step.  Returns ||J_fd - J||_F / ||J||_F, with the
    position rows of both in units of the scale.

    Raises :class:`SingularNearbyError` when the configuration is parallel
    singular or a perturbed re-solve fails to converge; FD columns are
    meaningless there.  Raises ``ValueError`` unless ``step`` is finite and
    positive.
    """
    from .jacobians import build_matrices

    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    t = _as_angles(theta)
    matrices = build_matrices(pose, t, geometry)
    if matrices.is_parallel_singular():
        raise SingularNearbyError(
            f"det A = {matrices.det_a:.3e}: too close to a parallel singularity"
        )
    unit = np.array([[geometry.scale], [geometry.scale], [1.0]])
    analytic = np.linalg.solve(matrices.a_matrix, matrices.b_matrix) / unit

    columns = []
    for leg in range(3):
        shifted = []
        for sign in (1.0, -1.0):
            tp = list(t)
            tp[leg] += sign * step
            solved, _ = _newton_polish(
                (pose.x, pose.y, pose.phi),
                (tp[0], tp[1], tp[2]),
                geometry,
                damping=1.0,
                max_iter=60,
                tol=1e-14 * geometry.scale,
            )
            if solved is None:
                raise SingularNearbyError(
                    f"perturbed solve failed for leg {leg + 1} (step {sign * step:+.1e})"
                )
            shifted.append(solved)
        plus, minus = shifted
        dphi = math.remainder(plus[2] - minus[2], math.tau)
        columns.append((plus[0] - minus[0], plus[1] - minus[1], dphi))
    fd = np.array(columns).T / (2.0 * step) / unit
    denom = float(np.linalg.norm(analytic))
    if denom == 0.0:
        # Fully serial posture: the analytic map vanishes identically, so
        # the relative error is undefined; report the absolute FD norm.
        return float(np.linalg.norm(fd))
    return float(np.linalg.norm(fd - analytic) / denom)
