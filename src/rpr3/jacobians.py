"""Velocity model and singularity analysis.

Differentiating the three leg constraints gives A t = B q, where t is the
platform twist (vx, vy, omega), q the actuated joint rates, B the diagonal
of signed prismatic extensions, and row i of A the line wrench of a unit
force along the leg normal E v_i acting through the platform anchor b_i
(moment taken about the pose reference point):

    row_i(A) = [ -sin(theta_i), cos(theta_i), v_i . (b_i - p) ]

Parallel singularities are det A = 0: the three normal lines become
concurrent (possibly at infinity, when all legs are parallel).  Serial
singularities are det B = 0: some leg has zero extension and its revolute
rate drops out of the map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique
from typing import Sequence

import numpy as np

from .errors import (
    GeometryError,
    InconsistentStateError,
    ParallelSingularError,
    SerialSingularError,
)
from .geometry import (
    DEFAULT_GEOMETRY,
    JointAngles,
    ManipulatorGeometry,
    Pose,
    Vec2,
    _as_angles,
    _leg_offsets,
    _libm,
    platform_anchor_arrays,
)

__all__ = [
    "CONSISTENCY_TOL",
    "FAR_POSE_TOL",
    "PARALLEL_DET_TOL",
    "SERIAL_RHO_TOL",
    "CONCURRENCY_TOL",
    "Twist",
    "KinematicMatrices",
    "SingularityKind",
    "SingularityReport",
    "build_matrices",
    "KinematicMatricesArray",
    "build_matrices_array",
    "forward_velocity",
    "inverse_velocity",
    "classify_singularity",
    "det_A_specialized",
]

# Pose/joint consistency gate for building the velocity model, relative to
# the geometry scale; far poses widen it (see _consistency_tol).
CONSISTENCY_TOL = 1e-6

# Leg residual allowed per unit of max(|x|, |y|): 1000x the IK round-off of
# a far pose, measured at up to 8.6e-16 * max(|x|, |y|).
FAR_POSE_TOL = 1e-12

# |det A| below this times ||A||_F^3 counts as a parallel singularity; the
# cube makes the test invariant under uniform scaling of A.
PARALLEL_DET_TOL = 1e-9

# |rho_i| below this times the geometry scale counts as a serial singularity.
SERIAL_RHO_TOL = 1e-9

# Maximum spread of the pairwise normal-line intersections (relative to the
# geometry scale) for them to count as a single common point.
CONCURRENCY_TOL = 1e-6

_SQRT3 = math.sqrt(3.0)


def _consistency_tol(scale: float, x, y):
    """Largest leg residual accepted at position (x, y), floats or arrays."""
    biggest = np.maximum if isinstance(x, np.ndarray) else max
    return biggest(CONSISTENCY_TOL * scale, FAR_POSE_TOL * biggest(abs(x), abs(y)))


@dataclass(frozen=True)
class Twist:
    """Platform velocity: translational rate of the reference point and the
    angular rate."""

    linear: Vec2
    angular: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angular):
            raise ValueError(f"angular rate must be finite, got {self.angular!r}")

    def as_array(self) -> np.ndarray:
        return np.array((self.linear.x, self.linear.y, self.angular), dtype=float)


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

    def is_parallel_singular(self) -> bool:
        norm = float(np.linalg.norm(self.a_matrix))
        return abs(self.det_a) < PARALLEL_DET_TOL * norm**3

    def serial_zero_legs(self) -> tuple[int, ...]:
        """1-based legs whose extension is zero within tolerance."""
        rhos = np.diagonal(self.b_matrix)
        return tuple(
            leg for leg in (1, 2, 3) if abs(rhos[leg - 1]) < SERIAL_RHO_TOL * self.scale
        )


def build_matrices(
    pose: Pose,
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> KinematicMatrices:
    """Assemble A and B at a configuration.

    The pose and joint angles must describe the same assembly: if any leg
    constraint residual exceeds :func:`_consistency_tol` the velocity model
    would be meaningless and :class:`InconsistentStateError` is raised.
    The residuals equal :func:`constraint_residuals` and the diagonal of B
    equals :func:`signed_extensions`, bit for bit.  A pose so far away that
    det B overflows raises :class:`GeometryError`.
    """
    t = _as_angles(theta)
    residuals = []
    rhos = []
    rows = []
    for ti, (anchor, delta) in zip(t, _leg_offsets(pose, geometry)):
        sin_t, cos_t = math.sin(ti), math.cos(ti)
        residuals.append(sin_t * delta.x - cos_t * delta.y)
        rhos.append(cos_t * delta.x + sin_t * delta.y)
        arm = cos_t * (anchor.x - pose.x) + sin_t * (anchor.y - pose.y)
        rows.append((-sin_t, cos_t, arm))
    worst = max(abs(r) for r in residuals)
    # The gate is never below CONSISTENCY_TOL * scale: most calls stop there.
    if worst > CONSISTENCY_TOL * geometry.scale:
        tol = _consistency_tol(geometry.scale, pose.x, pose.y)
        if worst > tol:
            raise InconsistentStateError((residuals[0], residuals[1], residuals[2]), tol)
    det_b = rhos[0] * rhos[1] * rhos[2]
    if not math.isfinite(det_b):
        raise GeometryError(f"det B overflows at x={pose.x!r}, y={pose.y!r}")

    a = np.array(rows)
    b = np.diag(rhos)
    return KinematicMatrices(
        a_matrix=a,
        b_matrix=b,
        det_a=float(np.linalg.det(a)),
        det_b=det_b,
        scale=geometry.scale,
    )


def forward_velocity(matrices: KinematicMatrices, joint_rates: Sequence[float]) -> Twist:
    """Platform twist produced by the given actuated joint rates.

    Raises :class:`ParallelSingularError` when A is singular within
    tolerance (the twist is then unbounded or indeterminate).
    """
    if matrices.is_parallel_singular():
        raise ParallelSingularError(
            f"det A = {matrices.det_a:.3e} is singular within tolerance"
        )
    q = np.asarray(joint_rates, dtype=float)
    if q.shape != (3,):
        raise ValueError(f"expected 3 joint rates, got shape {q.shape}")
    t = np.linalg.solve(matrices.a_matrix, matrices.b_matrix @ q)
    return Twist(Vec2(float(t[0]), float(t[1])), float(t[2]))


def inverse_velocity(
    matrices: KinematicMatrices, twist: Twist
) -> tuple[float, float, float]:
    """Actuated joint rates realizing the given platform twist.

    Raises :class:`SerialSingularError` listing every zero-extension leg;
    those rows of B vanish and the corresponding rates are indeterminate.
    """
    zero = matrices.serial_zero_legs()
    if zero:
        raise SerialSingularError(zero)
    lhs = matrices.a_matrix @ twist.as_array()
    rhos = np.diagonal(matrices.b_matrix)
    out = lhs / rhos
    return (float(out[0]), float(out[1]), float(out[2]))


@unique
class SingularityKind(Enum):
    REGULAR = "Regular"
    PARALLEL = "Parallel"
    SERIAL = "Serial"
    BOTH = "Both"


@dataclass(frozen=True)
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


def classify_singularity(
    pose: Pose,
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> SingularityReport:
    """Classify a configuration as regular, parallel, serial, or both.

    Parallel test: |det A| < PARALLEL_DET_TOL * ||A||_F^3.  Serial test:
    |rho_i| < SERIAL_RHO_TOL * scale for some leg.  At a parallel
    singularity the pairwise intersections of the normal lines (through each
    platform anchor, perpendicular to its leg axis) are averaged; they count
    as concurrent when their spread is below CONCURRENCY_TOL * scale.
    """
    matrices = build_matrices(pose, theta, geometry)
    parallel = matrices.is_parallel_singular()
    zero_legs = matrices.serial_zero_legs()
    if parallel and zero_legs:
        kind = SingularityKind.BOTH
    elif parallel:
        kind = SingularityKind.PARALLEL
    elif zero_legs:
        kind = SingularityKind.SERIAL
    else:
        kind = SingularityKind.REGULAR

    point: Vec2 | None = None
    at_infinity = False
    if parallel:
        point, at_infinity = _normal_intersection(pose, _as_angles(theta), geometry)
    return SingularityReport(
        kind=kind,
        det_a=matrices.det_a,
        det_b=matrices.det_b,
        zero_rho_legs=zero_legs,
        intersection_point=point,
        translation_case=at_infinity,
    )


def _normal_intersection(
    pose: Pose, t: tuple[float, float, float], geometry: ManipulatorGeometry
) -> tuple[Vec2 | None, bool]:
    """Common point of the three leg-normal lines, if finite.

    Returns (None, True) when all normals are parallel (intersection at
    infinity), and (None, False) when the pairwise intersections do not
    agree within tolerance (not actually concurrent).
    """
    anchors = [anchor for anchor, _ in _leg_offsets(pose, geometry)]
    normals = [Vec2(-math.sin(ti), math.cos(ti)) for ti in t]
    points = []
    # cross(n_i, n_j) = sin(t_j - t_i); below 1e-9 the pair is parallel and
    # contributes no finite intersection.
    for i, j in ((0, 1), (1, 2), (0, 2)):
        denom = normals[i].cross(normals[j])
        if abs(denom) < 1e-9:
            continue
        s = (anchors[j] - anchors[i]).cross(normals[j]) / denom
        points.append(anchors[i] + s * normals[i])
    if not points:
        return (None, True)
    cx = sum(p.x for p in points) / len(points)
    cy = sum(p.y for p in points) / len(points)
    center = Vec2(cx, cy)
    spread = max((p - center).norm() for p in points)
    if spread > CONCURRENCY_TOL * geometry.scale:
        return (None, False)
    return (center, False)


def det_A_specialized(
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> float:
    """Closed-form det A at the identity pose.

    At the trivial assembly the platform anchors sit on the base anchors and
    the determinant collapses to

        scale * [ (cos t3 / 2 + sqrt(3) sin t3 / 2) sin(t2 - t1)
                  - cos t2 sin(t3 - t1) ].

    Used to scan joint space for parallel singularities of the trivial
    assembly without building matrices; agrees with
    ``build_matrices(identity, theta).det_a`` to machine precision.
    """
    t1, t2, t3 = _as_angles(theta)
    q3 = 0.5 * math.cos(t3) + 0.5 * _SQRT3 * math.sin(t3)
    return geometry.scale * (
        q3 * math.sin(t2 - t1) - math.cos(t2) * math.sin(t3 - t1)
    )


# ------------------------------------------------------------ array kernels


# Indexed by parallel + 2 * serial.
_SINGULARITY_KINDS = np.array(
    [
        SingularityKind.REGULAR,
        SingularityKind.PARALLEL,
        SingularityKind.SERIAL,
        SingularityKind.BOTH,
    ],
    dtype=object,
)


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
        # A (1, 9) @ (9, 1) product is the same BLAS dot np.linalg.norm takes,
        # so the Frobenius norm matches KinematicMatrices.is_parallel_singular.
        flat = self.a_matrix.reshape(-1, 1, 9)
        norm = np.sqrt((flat @ flat.transpose(0, 2, 1)).reshape(-1))
        parallel = np.abs(self.det_a) < PARALLEL_DET_TOL * norm**3
        serial = (np.abs(self.rhos) < SERIAL_RHO_TOL * self.scale).any(axis=1)
        return _SINGULARITY_KINDS[parallel + 2 * serial]


def build_matrices_array(
    x: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    theta: np.ndarray,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> KinematicMatricesArray:
    """:func:`build_matrices` over (N,) pose arrays and (N, 3) joint angles.

    Raises :class:`InconsistentStateError` for the first configuration whose
    leg constraint residual exceeds :func:`_consistency_tol`, and
    :class:`GeometryError` for the first one whose det B overflows.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    t = np.asarray(theta, dtype=float)
    bx, by = platform_anchor_arrays(x, y, phi, geometry)
    dx = bx - np.array([a.x for a in geometry.anchors])
    dy = by - np.array([a.y for a in geometry.anchors])
    sin_t, cos_t = _libm(math.sin, t), _libm(math.cos, t)
    residuals = sin_t * dx - cos_t * dy
    tol = _consistency_tol(geometry.scale, x, y)
    bad = np.flatnonzero((np.abs(residuals) > tol[:, None]).any(axis=1))
    if bad.size:
        raise InconsistentStateError(tuple(residuals[bad[0]].tolist()), float(tol[bad[0]]))

    arms = cos_t * (bx - x[:, None]) + sin_t * (by - y[:, None])
    a = np.stack((-sin_t, cos_t, arms), axis=2)
    rhos = cos_t * dx + sin_t * dy
    with np.errstate(over="ignore"):
        det_b = rhos[:, 0] * rhos[:, 1] * rhos[:, 2]
    over = np.flatnonzero(~np.isfinite(det_b))
    if over.size:
        k = over[0]
        raise GeometryError(f"det B overflows at x={x[k].item()!r}, y={y[k].item()!r}")
    return KinematicMatricesArray(
        a_matrix=a,
        rhos=rhos,
        det_a=np.linalg.det(a),
        det_b=det_b,
        scale=geometry.scale,
    )
