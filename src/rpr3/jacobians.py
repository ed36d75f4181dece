"""Velocity model and singularity analysis.

Differentiating the three leg constraints gives A t = B q, where t is the
platform twist (vx, vy, omega), q the actuated joint rates, B the diagonal
of signed prismatic extensions, and row i of A the line wrench of a unit
force along the leg normal E v_i acting through the platform anchor b_i
(moment taken about the pose reference point):

    row_i(A) = [ -sin(theta_i), cos(theta_i), v_i . (b_i - p) ]

Parallel singularities are det A = 0: the three normal lines become
concurrent (possibly at infinity, when all legs are parallel).  Row 1's
moment arm is zero (b_1 = p), so det A is a two-term expansion along that
column, one body for floats and columns with no LAPACK call.  Serial
singularities are det B = 0: some leg has zero extension and its revolute
rate drops out of the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique
from typing import Sequence

import numpy as np

from .errors import GeometryError, InconsistentStateError
from .geometry import (
    _COLUMNS,
    _FLOATS,
    DEFAULT_GEOMETRY,
    PAIR_SIN_TOL,
    SERIAL_RHO_TOL,
    JointAngles,
    ManipulatorGeometry,
    Pose,
    Vec2,
    _as_angles,
    _best_pair,
    _check_rows,
    _leg_axis,
    _leg_columns,
    _place_anchors,
)

__all__ = [
    "CONSISTENCY_TOL",
    "FAR_POSE_TOL",
    "PARALLEL_DET_TOL",
    "KinematicMatrices",
    "SingularityKind",
    "SingularityReport",
    "build_matrices",
    "KinematicMatricesArray",
    "build_matrices_array",
    "classify_singularity",
]

# Pose/joint consistency gate for building the velocity model, relative to
# the geometry scale; far poses widen it (see _check_configuration).
CONSISTENCY_TOL = 1e-6

# Leg residual allowed per unit of max(|x|, |y|): 1000x the IK round-off of
# a far pose, measured at up to 8.6e-16 * max(|x|, |y|).
FAR_POSE_TOL = 1e-12

# |det A| below this times the geometry scale counts as a parallel
# singularity: det A is a length, as rho is, and the same whichever vertex
# is leg 1; a norm of A is not (its moment arms are about leg 1's anchor).
PARALLEL_DET_TOL = 1e-9


def _check_configuration(x: float, y: float, scale: float, det_b: float, *residuals: float):
    """Raise :class:`InconsistentStateError` when a residual passes the gate
    max(CONSISTENCY_TOL * scale, FAR_POSE_TOL * max(|x|, |y|)) at position
    (x, y), then :class:`GeometryError` when det B overflows."""
    worst = max(map(abs, residuals))
    # The gate is never below CONSISTENCY_TOL * scale: most calls stop there.
    if worst > CONSISTENCY_TOL * scale:
        tol = max(CONSISTENCY_TOL * scale, FAR_POSE_TOL * max(abs(x), abs(y)))
        if worst > tol:
            raise InconsistentStateError(residuals, tol)
    if not math.isfinite(det_b):
        raise GeometryError(f"det B overflows at x={x!r}, y={y!r}")


def _is_parallel(det_a, scale: float, tol: float = PARALLEL_DET_TOL):
    """|det A| < tol * scale on floats or columns, as :func:`_kind_index` reads rho."""
    return abs(det_a) < tol * scale


def _kind_index(det_a, rhos, scale: float):
    """Index into ``_SINGULARITY_KINDS`` of each configuration, from det A
    and the three legs' rhos, floats or columns that broadcast together."""
    tol, (rho1, rho2, rho3) = SERIAL_RHO_TOL * scale, rhos
    serial = (abs(rho1) < tol) | (abs(rho2) < tol) | (abs(rho3) < tol)
    return _is_parallel(det_a, scale) + 2 * serial


def _velocity_terms(f, x, y, theta, legs):
    """Rows of A, leg residuals, signed extensions (the diagonal of B), det A
    and det B from the leg offsets at pose position (x, y), in form ``f`` of
    theta; the moment arm in row i is v_i . (b_i - p), and w1 = 0 leaves
    det A two terms."""
    rows, residuals, rhos = [], [], []
    for t, (bx, by, dx, dy) in zip(theta, legs):
        sin_t, cos_t, residual, rho = _leg_axis(f, t, dx, dy)
        rows.append((-sin_t, cos_t, cos_t * (bx - x) + sin_t * (by - y)))
        residuals.append(residual)
        rhos.append(rho)
    (u1, v1, _), (u2, v2, w2), (u3, v3, w3) = rows
    det_a = w3 * (u1 * v2 - v1 * u2) - w2 * (u1 * v3 - v1 * u3)
    return rows, residuals, rhos, det_a, rhos[0] * rhos[1] * rhos[2]


@dataclass(frozen=True, eq=False)
class KinematicMatrices:
    """Velocity model A t = B q at one configuration.

    ``det_b`` is the product of the signed extensions.
    """

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    det_a: float
    det_b: float


def build_matrices(
    pose: Pose,
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> KinematicMatrices:
    """Assemble A and B at a configuration.

    The pose and joint angles must describe the same assembly: if the leg
    constraint residuals fail :func:`_check_configuration` the velocity model
    would be meaningless and :class:`InconsistentStateError` is raised.
    The residuals equal :func:`constraint_residuals`, bit for bit, and the
    diagonal of B holds the signed extensions v_i . (b_i - a_i).  ``det_a``,
    :func:`_velocity_terms`' two-term expansion, is within 4 * 2**-53 times
    its terms' size of the exact det ``a_matrix``.
    A pose so far away that det B overflows raises :class:`GeometryError`.
    """
    rows, rhos, det_a, det_b, _ = _configuration(pose, _as_angles(theta), geometry)
    return KinematicMatrices(np.array(rows), np.diag(rhos), det_a, det_b)


def _configuration(pose: Pose, t: tuple[float, float, float], geometry: ManipulatorGeometry):
    """(rows of A, rhos, det A, det B, leg offsets) at checked angles ``t``:
    the body of :func:`build_matrices` and :func:`classify_singularity`."""
    x, y, phi = pose.x, pose.y, pose.phi
    legs = _place_anchors(x, y, math.cos(phi), math.sin(phi), geometry._anchor_pairs)
    rows, residuals, rhos, det_a, det_b = _velocity_terms(_FLOATS, x, y, t, legs)
    _check_configuration(x, y, geometry.scale, det_b, *residuals)
    return rows, rhos, det_a, det_b, legs


@unique
class SingularityKind(Enum):
    REGULAR = "Regular"
    PARALLEL = "Parallel"
    SERIAL = "Serial"
    BOTH = "Both"


# Indexed by parallel + 2 * serial, which is the order of the members.
_SINGULARITY_KINDS = tuple(SingularityKind)


@dataclass(frozen=True, init=False)
class SingularityReport:
    """Classification of one configuration.

    For parallel singularities, ``intersection_point`` is the platform's
    instant center, where the normal lines meet: the meet of the two
    normals of :func:`geometry._best_pair`, or None with ``translation_case``
    set when that pair, and so every pair, is parallel (the center lies at
    infinity).
    """

    kind: SingularityKind
    det_a: float
    det_b: float
    zero_rho_legs: tuple[int, ...]
    intersection_point: Vec2 | None = None
    translation_case: bool = False

    def __init__(
        self, kind, det_a, det_b, zero_rho_legs, intersection_point=None, translation_case=False
    ) -> None:
        # One store per field and no checks, as in solvers.IkSolution.
        fields = self.__dict__
        fields["kind"], fields["det_a"], fields["det_b"] = kind, det_a, det_b
        fields["zero_rho_legs"], fields["intersection_point"] = zero_rho_legs, intersection_point
        fields["translation_case"] = translation_case


def classify_singularity(
    pose: Pose,
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> SingularityReport:
    """Classify a configuration as regular, parallel, serial, or both.

    Parallel test: |det A| < PARALLEL_DET_TOL * scale, as the serial test
    is |rho_i| < SERIAL_RHO_TOL * scale for some leg: both read a length in
    units of the scale, the same whichever vertex is leg 1.  That one test
    is also the concurrency test of the normal lines (through each platform
    anchor, perpendicular to its leg axis): the leg left out of the best
    pair misses the pair's meet by |det A| / |sin(t_j - t_i)|.
    """
    t = _as_angles(theta)
    rows, rhos, det_a, det_b, legs = _configuration(pose, t, geometry)
    scale = geometry.scale
    index = _kind_index(det_a, rhos, scale)
    zero_legs = _zero_legs(rhos, scale) if index > 1 else ()
    point, at_infinity = _normal_intersection(t, rows, legs) if index & 1 else (None, False)
    return SingularityReport(_SINGULARITY_KINDS[index], det_a, det_b, zero_legs, point, at_infinity)


def _zero_legs(rhos, scale: float) -> tuple[int, ...]:
    """The legs of a serial configuration that :func:`_kind_index` reads as serial."""
    tol = SERIAL_RHO_TOL * scale
    return tuple(leg for leg, rho in enumerate(rhos, start=1) if abs(rho) < tol)


def _normal_intersection(t, rows, legs) -> tuple[Vec2 | None, bool]:
    """(meet, False) of the normal lines of :func:`geometry._best_pair`'s legs
    at angles ``t``, or (None, True) when that pair is parallel.

    Normal i runs along (u_i, v_i), the first two entries of row i of A,
    through the platform anchor (bx_i, by_i) of the leg offsets ``legs``;
    u_i v_j - v_i u_j = sin(t_j - t_i).
    """
    i, j, _ = _best_pair(t)
    (ui, vi, _), (uj, vj, _) = rows[i], rows[j]
    (bxi, byi, _, _), (bxj, byj, _, _) = legs[i], legs[j]
    denom = ui * vj - vi * uj
    if abs(denom) < PAIR_SIN_TOL:
        return (None, True)
    s = ((bxj - bxi) * vj - (byj - byi) * uj) / denom
    return (Vec2(bxi + ui * s, byi + vi * s), False)


# ------------------------------------------------------------ array kernels


@dataclass(frozen=True, eq=False)
class KinematicMatricesArray:
    """Velocity models of N configurations at once.

    Entry k of every field equals the matching field of
    :func:`build_matrices` at configuration k bit for bit; ``rhos`` is the
    (N, 3) diagonal of B.
    """

    a_matrix: np.ndarray
    rhos: np.ndarray
    det_a: np.ndarray
    det_b: np.ndarray


def build_matrices_array(
    x: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    theta: np.ndarray,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> KinematicMatricesArray:
    """:func:`build_matrices` over (N,) pose arrays and (N, 3) joint angles.

    Raises what :func:`build_matrices` raises at the first configuration
    that fails, checking each row's pose and angles, then the
    configurations.
    """
    theta = np.asarray(theta, dtype=float)
    t, rule = theta.T, lambda x, y, phi, *row: (Pose(x, y, phi), _as_angles(row))
    # A row count other than 3 fails every row, as it fails every scalar call.
    flagged = ~np.isfinite(t).all(axis=0) if len(t) == 3 else np.ones(len(theta), bool)
    x, y, legs = _leg_columns(x, y, phi, geometry, flagged, rule, *t)
    t = theta.reshape(len(theta), 3).T
    rows, rhos, det_a, det_b = _matrix_columns(x, y, t, legs, geometry.scale)
    return KinematicMatricesArray(
        a_matrix=np.array(rows).transpose(2, 0, 1),
        rhos=np.stack(rhos, axis=1),
        det_a=det_a,
        det_b=det_b,
    )


def _matrix_columns(x, y, t, legs, scale: float):
    """(rows of A, rhos, det A, det B): the body of :func:`build_matrices_array`
    on positions, angles ``t`` (one column per leg) and leg offsets whose
    columns broadcast together, each row past the gate's floor or with det B
    overflowed checked by :func:`_check_configuration`."""
    with np.errstate(over="ignore"):
        rows, residuals, rhos, det_a, det_b = _velocity_terms(_COLUMNS, x, y, t, legs)
        flagged = ~np.isfinite(det_b)
        for residual in residuals:
            flagged = flagged | (np.abs(residual) > CONSISTENCY_TOL * scale)
        _check_rows(_check_configuration, flagged, x, y, scale, det_b, *residuals)
    return rows, rhos, det_a, det_b

