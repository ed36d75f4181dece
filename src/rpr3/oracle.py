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

# Pair of simultaneously-solvable legs must have |sin| of the angle
# difference above this, else the 2x2 position solve is rank deficient.
_RANK_TOL = 1e-9


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


def _anchor_array(geometry: ManipulatorGeometry) -> np.ndarray:
    """(3, 2) anchor triangle: base anchors, and equally the platform
    anchors in the platform frame."""
    return np.array([(v.x, v.y) for v in geometry.anchors], dtype=float)


def _residual_rows(
    x: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    t: tuple[float, float, float],
    geometry: ManipulatorGeometry,
) -> np.ndarray:
    """All three constraint residuals, vectorized over configurations.

    Re-implements the anchor algebra directly in numpy (a separate
    evaluation path from the scalar geometry helpers used by the solvers).
    """
    anchors = _anchor_array(geometry)
    sin_t = np.sin(np.asarray(t))
    cos_t = np.cos(np.asarray(t))
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty((3,) + np.shape(phi))
    for i in range(3):
        # The local platform anchor and the base anchor are one vertex.
        bx, by = anchors[i]
        wx = x + c * bx - s * by - bx
        wy = y + s * bx + c * by - by
        out[i] = sin_t[i] * wx - cos_t[i] * wy
    return out


def _newton_polish(
    start: tuple[float, float, float],
    t: tuple[float, float, float],
    geometry: ManipulatorGeometry,
    damping: float = NEWTON_DAMPING,
    max_iter: int = NEWTON_MAX_ITER,
    tol: float = NEWTON_RESIDUAL_TOL,
) -> tuple[tuple[float, float, float] | None, int]:
    """Damped Newton on the full three-residual system.

    Returns (solution, iterations used) or (None, iterations) when the
    iteration fails to reach ``tol``.
    """
    anchors = _anchor_array(geometry)
    sin_t = np.sin(np.asarray(t))
    cos_t = np.cos(np.asarray(t))
    x, y, phi = start
    for it in range(1, max_iter + 1):
        res = _residual_rows(np.float64(x), np.float64(y), np.float64(phi), t, geometry)
        if np.abs(res).max() < tol:
            return ((x, y, phi), it - 1)
        c, s = math.cos(phi), math.sin(phi)
        jac = np.empty((3, 3))
        for i in range(3):
            bx, by = anchors[i]
            # d/dphi of the rotated local anchor.
            dx = -s * bx - c * by
            dy = c * bx - s * by
            jac[i] = (sin_t[i], -cos_t[i], sin_t[i] * dx - cos_t[i] * dy)
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return (None, it)
        x += damping * float(step[0])
        y += damping * float(step[1])
        phi += damping * float(step[2])
    res = _residual_rows(np.float64(x), np.float64(y), np.float64(phi), t, geometry)
    if np.abs(res).max() < tol:
        return ((x, y, phi), max_iter)
    return (None, max_iter)


def dkp_bruteforce(
    theta: JointAngles | Sequence[float],
    n_phi: int = 2048,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> ScanReport:
    """Scan the orientation cycle for assemblies.

    For each phi on a uniform grid over (-pi, pi], the two best-conditioned
    leg constraints are solved for the position and the left-out constraint
    becomes the scan function; its sign changes (wrap-aware) bracket
    isolated assemblies, refined by damped Newton.  Duplicates are clustered
    within ``POSE_TOL * max(scale, 1)``.  A continuum is declared when more
    than 5% of the grid admits residual below 1e-8 * scale; all-parallel
    legs short-circuit to the translation continuum without scanning (the
    position solve is rank deficient everywhere).
    """
    if n_phi < 16:
        raise ValueError(f"n_phi must be at least 16, got {n_phi}")
    t = _as_angles(theta)
    scale = geometry.scale
    trivial = Pose(0.0, 0.0, 0.0)

    pairs = ((0, 1, 2), (1, 2, 0), (0, 2, 1))
    dets = [math.sin(t[j] - t[i]) for i, j, _ in pairs]
    best = max(range(3), key=lambda idx: abs(dets[idx]))
    if abs(dets[best]) < _RANK_TOL:
        # Every pair of slider lines is parallel: translation self motion.
        return ScanReport((trivial,), 0.0, (n_phi, 1), 0, continuum=True)
    i, j, k = pairs[best]
    det = dets[best]

    step = 2.0 * math.pi / n_phi
    phis = -math.pi + step * np.arange(1, n_phi + 1)
    zeros = np.zeros_like(phis)
    e = _residual_rows(zeros, zeros, phis, t, geometry)
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
        return ScanReport(tuple(poses), residual, (n_phi, 1), iters, continuum=True)

    candidates: list[tuple[float, float, float]] = []
    for a in range(n_phi):
        b = (a + 1) % n_phi
        fa, fb = float(leftover[a]), float(leftover[b])
        if fa == 0.0:
            candidates.append((float(x[a]), float(y[a]), float(phis[a])))
        elif fa * fb < 0.0:
            xm = 0.5 * (float(x[a]) + float(x[b]))
            ym = 0.5 * (float(y[a]) + float(y[b]))
            pm = float(phis[a]) + 0.5 * step
            candidates.append((xm, ym, pm))

    poses, iters = _polish_candidates(candidates, t, geometry)
    residual = _worst_residual(poses, t, geometry)
    return ScanReport(tuple(poses), residual, (n_phi, 1), iters, continuum=False)


def _polish_candidates(
    candidates: list[tuple[float, float, float]],
    t: tuple[float, float, float],
    geometry: ManipulatorGeometry,
) -> tuple[list[Pose], int]:
    total_iters = 0
    polished: list[Pose] = []
    for cand in candidates:
        solved, used = _newton_polish(cand, t, geometry)
        total_iters += used
        if solved is not None:
            polished.append(Pose(solved[0], solved[1], solved[2]))
    solutions = cluster_poses(polished, geometry.pose_tol)
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
    actuated angle by +-step.  Returns ||J_fd - J||_F / ||J||_F.

    Raises :class:`SingularNearbyError` when the configuration is parallel
    singular or a perturbed re-solve fails to converge; FD columns are
    meaningless there.
    """
    from .jacobians import build_matrices

    t = _as_angles(theta)
    matrices = build_matrices(pose, t, geometry)
    if matrices.is_parallel_singular():
        raise SingularNearbyError(
            f"det A = {matrices.det_a:.3e}: too close to a parallel singularity"
        )
    analytic = np.linalg.solve(matrices.a_matrix, matrices.b_matrix)

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
                tol=1e-14 * max(geometry.scale, 1.0),
            )
            if solved is None:
                raise SingularNearbyError(
                    f"perturbed solve failed for leg {leg + 1} (step {sign * step:+.1e})"
                )
            shifted.append(solved)
        plus, minus = shifted
        dphi = math.remainder(plus[2] - minus[2], math.tau)
        columns.append(
            (
                (plus[0] - minus[0]) / (2.0 * step),
                (plus[1] - minus[1]) / (2.0 * step),
                dphi / (2.0 * step),
            )
        )
    fd = np.array(columns).T
    denom = float(np.linalg.norm(analytic))
    if denom == 0.0:
        # Fully serial posture: the analytic map vanishes identically, so
        # the relative error is undefined; report the absolute FD norm.
        return float(np.linalg.norm(fd))
    return float(np.linalg.norm(fd - analytic) / denom)
