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
    JointAngles,
    ManipulatorGeometry,
    Pose,
    Vec2,
    _as_angles,
    _first_nonfinite,
    _leg_axis,
    _leg_columns,
    _place_anchors,
    _row_of,
)

__all__ = [
    "CONSISTENCY_TOL",
    "FAR_POSE_TOL",
    "PARALLEL_DET_TOL",
    "SERIAL_RHO_TOL",
    "CONCURRENCY_TOL",
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

# |rho_i| below this times the geometry scale counts as a serial singularity.
SERIAL_RHO_TOL = 1e-9

# Maximum spread of the pairwise normal-line intersections (relative to the
# geometry scale) for them to count as a single common point.
CONCURRENCY_TOL = 1e-6


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
    """|det A| < tol * scale on floats or columns, as :func:`_is_serial` reads rho."""
    return abs(det_a) < tol * scale


def _is_serial(rho, scale: float):
    return abs(rho) < SERIAL_RHO_TOL * scale


def _zero_legs(rhos, scale: float) -> tuple[int, ...]:
    return tuple(leg for leg, rho in enumerate(rhos, start=1) if _is_serial(rho, scale))


def _check_rows(x, y, scale: float, det_b, *residuals) -> None:
    """Array form of :func:`_check_configuration` on columns that broadcast
    together, run in C order on each row past the gate's floor or with det B
    overflowed."""
    flagged = ~np.isfinite(det_b)
    for residual in residuals:
        flagged = flagged | (np.abs(residual) > CONSISTENCY_TOL * scale)
    for k in np.flatnonzero(flagged).tolist():
        row_x, row_y, row_det_b, *row = _row_of(k, flagged.shape, (x, y, det_b, *residuals))
        _check_configuration(row_x, row_y, scale, row_det_b, *row)


def _velocity_terms(f, x, y, theta, legs):
    """Rows of A, leg residuals, signed extensions (the diagonal of B) and
    det B from the leg offsets at pose position (x, y), in form ``f`` of
    theta; the moment arm in row i is v_i . (b_i - p)."""
    rows, residuals, rhos = [], [], []
    for t, (bx, by, dx, dy) in zip(theta, legs):
        sin_t, cos_t, residual, rho = _leg_axis(f, t, dx, dy)
        rows.append((-sin_t, cos_t, cos_t * (bx - x) + sin_t * (by - y)))
        residuals.append(residual)
        rhos.append(rho)
    return rows, residuals, rhos, rhos[0] * rhos[1] * rhos[2]


def _det_a(rows):
    """det A from the rows (u, v, w) of A, floats or columns, with w1 = 0."""
    (u1, v1, _), (u2, v2, w2), (u3, v3, w3) = rows
    return w3 * (u1 * v2 - v1 * u2) - w2 * (u1 * v3 - v1 * u3)


@dataclass(frozen=True, eq=False)
class KinematicMatrices:
    """Velocity model A t = B q at one configuration.

    ``det_b`` is the product of the signed extensions; ``scale`` is carried
    along so downstream tolerance checks stay scale-relative.
    """

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    det_a: float
    det_b: float
    scale: float


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
    diagonal of B holds the signed extensions v_i . (b_i - a_i).  ``det_a`` (:func:`_det_a`)
    is within 4 * 2**-53 times its terms' size of the exact det ``a_matrix``.
    A pose so far away that det B overflows raises :class:`GeometryError`.
    """
    rows, rhos, det_a, det_b, _ = _configuration(pose, _as_angles(theta), geometry)
    return KinematicMatrices(np.array(rows), np.diag(rhos), det_a, det_b, geometry.scale)


def _configuration(pose: Pose, t: tuple[float, float, float], geometry: ManipulatorGeometry):
    """(rows of A, rhos, det A, det B, leg offsets) at checked angles ``t``:
    the body of :func:`build_matrices` and :func:`classify_singularity`."""
    x, y, phi = pose.x, pose.y, pose.phi
    legs = _place_anchors(x, y, math.cos(phi), math.sin(phi), geometry._anchor_pairs)
    rows, residuals, rhos, det_b = _velocity_terms(_FLOATS, x, y, t, legs)
    _check_configuration(x, y, geometry.scale, det_b, *residuals)
    return rows, rhos, float(_det_a(rows)), det_b, legs


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

    For parallel singularities, ``intersection_point`` is the common point
    of the three normal lines (least-squares midpoint of the pairwise
    intersections), or None with ``translation_case`` set when the normals
    are parallel and meet at infinity.
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
    units of the scale, the same whichever vertex is leg 1.  At a parallel
    singularity the pairwise intersections of the normal lines (through each
    platform anchor, perpendicular to its leg axis) are averaged; they count
    as concurrent when their spread is below CONCURRENCY_TOL * scale.
    """
    rows, rhos, det_a, det_b, legs = _configuration(pose, _as_angles(theta), geometry)
    scale = geometry.scale
    parallel = _is_parallel(det_a, scale)
    serial = _is_serial(min(map(abs, rhos)), scale)
    zero_legs = _zero_legs(rhos, scale) if serial else ()
    kind = _SINGULARITY_KINDS[parallel + 2 * serial]
    point, at_infinity = _normal_intersection(rows, legs, scale) if parallel else (None, False)
    return SingularityReport(kind, det_a, det_b, zero_legs, point, at_infinity)


def _normal_intersection(rows, legs, scale: float) -> tuple[Vec2 | None, bool]:
    """Common point of the three leg-normal lines, if finite.

    Normal i runs along (u_i, v_i), the first two entries of row i of A,
    through the platform anchor (bx_i, by_i) of the leg offsets ``legs``.
    Returns (None, True) when all normals are parallel (intersection at
    infinity), and (None, False) when the pairwise intersections do not
    agree within tolerance (not actually concurrent).
    """
    points = []
    # u_i v_j - v_i u_j = sin(t_j - t_i); a parallel pair contributes no
    # finite intersection.
    for i, j in ((0, 1), (1, 2), (0, 2)):
        (ui, vi, _), (uj, vj, _) = rows[i], rows[j]
        (bxi, byi, _, _), (bxj, byj, _, _) = legs[i], legs[j]
        denom = ui * vj - vi * uj
        if abs(denom) < PAIR_SIN_TOL:
            continue
        s = ((bxj - bxi) * vj - (byj - byi) * uj) / denom
        points.append(Vec2(bxi + ui * s, byi + vi * s))
    if not points:
        return (None, True)
    cx = sum(p.x for p in points) / len(points)
    cy = sum(p.y for p in points) / len(points)
    spread = max(math.hypot(p.x - cx, p.y - cy) for p in points)
    if spread > CONCURRENCY_TOL * scale:
        return (None, False)
    return (Vec2(cx, cy), False)


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
    scale: float

    def singularity_kinds(self) -> np.ndarray:
        """(N,) object array of the :class:`SingularityKind` that
        :func:`classify_singularity` reports for each configuration."""
        index = _kind_index(self.det_a, self.rhos.T, self.scale)
        return np.array(_SINGULARITY_KINDS, dtype=object)[index]


def build_matrices_array(
    x: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    theta: np.ndarray,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> KinematicMatricesArray:
    """:func:`build_matrices` over (N,) pose arrays and (N, 3) joint angles.

    Raises the error of :func:`_check_configuration` for the first
    configuration that fails it.
    """
    x, y, legs = _leg_columns(x, y, phi, geometry)
    t = np.asarray(theta, dtype=float).T
    _first_nonfinite(lambda *row: _as_angles(row), *t)
    rows, rhos, det_a, det_b = _matrix_columns(x, y, t, legs, geometry.scale)
    return KinematicMatricesArray(
        a_matrix=np.array(rows).transpose(2, 0, 1),
        rhos=np.stack(rhos, axis=1),
        det_a=det_a,
        det_b=det_b,
        scale=geometry.scale,
    )


def _matrix_columns(x, y, t, legs, scale: float):
    """(rows of A, rhos, det A, det B): the body of :func:`build_matrices_array`
    on positions, angles ``t`` (one column per leg) and leg offsets whose
    columns broadcast together, checked by :func:`_check_rows`."""
    with np.errstate(over="ignore"):
        rows, residuals, rhos, det_b = _velocity_terms(_COLUMNS, x, y, t, legs)
        _check_rows(x, y, scale, det_b, *residuals)
    return rows, rhos, _det_a(rows), det_b


def _kind_index(det_a, rhos, scale: float):
    """Index into ``_SINGULARITY_KINDS`` of each configuration, from columns
    of det A and of each leg's rho that broadcast together."""
    rho1, rho2, rho3 = rhos
    serial = _is_serial(rho1, scale) | _is_serial(rho2, scale) | _is_serial(rho3, scale)
    return _is_parallel(det_a, scale) + 2 * serial

