"""Core geometry of the planar 3-RPR manipulator.

The mechanism has three legs.  Leg i is anchored to the ground at ``a_i``
through an actuated revolute joint (angle ``theta_i``), followed by a
passive prismatic joint (extension ``rho_i``), followed by a passive
revolute joint at the platform anchor ``b_i``.  Base and platform are
congruent equilateral triangles; the platform pose is the position of its
first vertex plus the orientation ``phi``.

Functions that depend on the anchor layout take an optional
:class:`ManipulatorGeometry`; the default is the unit equilateral
geometry.  Angles are radians and are kept in the half-open interval
(-pi, pi].
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property, partial
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GeometryError

__all__ = [
    "Vec2",
    "Pose",
    "JointAngles",
    "LegState",
    "ManipulatorGeometry",
    "DEFAULT_GEOMETRY",
    "normalize_angle",
    "normalize_angles",
    "angle_differences",
    "platform_anchor",
    "POSE_TOL",
    "PAIR_SIN_TOL",
    "SERIAL_RHO_TOL",
    "pose_distance",
    "cluster_poses",
    "constraint_residuals",
    "load_geometry",
]

TAU = math.tau

# Two poses closer than this by :func:`pose_distance` (positions in units
# of the scale) are one assembly: the clustering tolerance of every
# direct-kinematics route and the agreement bound between routes.
POSE_TOL = 1e-7

# |sin(t_j - t_i)| below this makes legs i and j parallel: the 2x2 solve of
# their constraints for the position is rank deficient, and their leg
# normals meet at infinity.
PAIR_SIN_TOL = 1e-9

# A leg shorter than this times the scale is at zero extension: its platform
# anchor sits on its base anchor, inverse kinematics is undefined for it,
# and the configuration is serial singular (det B = 0).
SERIAL_RHO_TOL = 1e-9

# Scales a geometry may have: beyond them a product of three lengths (det B)
# leaves the normal floats below and overflows above.
_SCALE_RANGE = (1e-100, 1e100)

# Vertices of the unit equilateral triangle shared by base and platform.
_UNIT_TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


def normalize_angle(angle: float) -> float:
    """Reduce an angle to (-pi, pi].

    >>> normalize_angle(3 * math.pi)
    3.141592653589793
    """
    if -math.pi < angle <= math.pi:  # its own IEEE remainder; -pi folds to pi
        return float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    folded = math.remainder(angle, TAU)
    # remainder() lands in [-pi, pi]; fold the open endpoint.
    if folded <= -math.pi:
        folded += TAU
    return folded


# Array forms of normalize_angle and of abs(math.remainder(a - b, period)), bit
# for bit: fmod is exact, and so is the single fold by one period that turns
# its result into the IEEE remainder (Sterbenz: the operands are within 2x).


def normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Elementwise :func:`normalize_angle` of an array."""
    a = np.asarray(angles, dtype=float)
    _check_rows(normalize_angle, ~np.isfinite(a), a)
    folded = np.fmod(a, TAU)
    folded = np.where(folded > math.pi, folded - TAU, folded)
    return np.where(folded <= -math.pi, folded + TAU, folded)


def angle_differences(a: np.ndarray, b: np.ndarray | float, period: float = TAU) -> np.ndarray:
    """Distance from ``a`` to ``b`` modulo ``period``, in [0, period/2], elementwise."""
    folded = np.abs(np.fmod(np.asarray(a, dtype=float) - b, period))
    return np.minimum(folded, period - folded)


def _libm(fn, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Elementwise ``math`` function of one array, or of two that broadcast
    together.

    It serves the array kernels that the scalar path must match: they take
    sin, cos, atan2 and hypot from libm, as the scalar path does, so that
    both agree bit for bit on every platform.  numpy's arctan2 and hypot
    differ from libm's in the last place on a few percent of inputs, and its
    SIMD sin and cos are build dependent.  A check with no scalar twin may
    use IEEE arithmetic instead, which rounds alike everywhere.
    """
    a = np.asarray(a)
    if b is not None:
        b = np.asarray(b)
        # Most calls pass one shape; only a mismatch pays for broadcasting.
        if b.shape != a.shape:
            a, b = np.broadcast_arrays(a, b)
    flat = a.ravel().tolist()
    values = map(fn, flat) if b is None else map(fn, flat, b.ravel().tolist())
    return np.fromiter(values, dtype=float, count=len(flat)).reshape(a.shape)


def _check_rows(check, flagged: np.ndarray, *columns) -> None:
    """``check``, an array kernel's scalar twin's rule on floats, of each
    ``flagged`` row in C order over columns that broadcast to its shape: the
    kernel raises what its twin raises at the first failing row."""
    for k in np.flatnonzero(flagged).tolist():
        check(*(np.broadcast_to(c, flagged.shape).flat[k].item() for c in columns))


def _finite(px: float, py: float) -> None:
    if not (math.isfinite(px) and math.isfinite(py)):
        raise GeometryError(f"components must be finite, got ({px!r}, {py!r})")


def _finite_rho(rho: float, name: str = "rho") -> None:
    if not math.isfinite(rho):
        raise GeometryError(f"{name} must be finite, got {rho!r}")


# The elementary functions of a formula body shared by the scalar API and the
# array kernels, on floats or elementwise on columns that broadcast together
# (|remainder| there).  Every caller names the form: scalar entry points pass
# _FLOATS, array kernels _COLUMNS, and no function guesses it from a value.
_FLOATS = SimpleNamespace(
    cos=math.cos, sin=math.sin, atan2=math.atan2, hypot=math.hypot, remainder=math.remainder
)
_COLUMNS = SimpleNamespace(
    cos=partial(_libm, math.cos), sin=partial(_libm, math.sin), atan2=partial(_libm, math.atan2),
    hypot=partial(_libm, math.hypot), remainder=lambda a, period: angle_differences(a, 0.0, period),
)


# Each value object checks its arguments in its own __init__ and stores each
# field once; a __post_init__ after the generated __init__ would store twice.
@dataclass(frozen=True, init=False)
class Vec2:
    """Immutable planar (x, y) pair with finite components."""

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        _finite(x, y)
        fields = self.__dict__
        fields["x"], fields["y"] = x, y

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


@dataclass(frozen=True, init=False)
class Pose:
    """Platform pose: position of the first platform vertex and orientation.

    Components are stored as floats, ``phi`` normalized to (-pi, pi].
    """

    x: float
    y: float
    phi: float

    def __init__(self, x: float, y: float, phi: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"position must be finite, got ({x!r}, {y!r})")
        fields = self.__dict__
        fields["x"], fields["y"], fields["phi"] = float(x), float(y), normalize_angle(phi)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.phi)


@dataclass(frozen=True, init=False)
class LegState:
    """One leg's joint values in canonical form.

    The prismatic extension is kept nonnegative; a negative ``rho`` passed to
    the constructor is folded into the revolute angle (theta + pi, -rho).
    """

    theta: float
    rho: float

    def __init__(self, theta: float, rho: float) -> None:
        if not math.isfinite(rho):
            _finite_rho(rho)
        if rho < 0.0:
            theta, rho = theta + math.pi, -rho
        fields = self.__dict__
        fields["theta"], fields["rho"] = normalize_angle(theta), rho


@dataclass(frozen=True, init=False)
class JointAngles:
    """Actuated revolute angles, one per leg, normalized to (-pi, pi]."""

    theta1: float
    theta2: float
    theta3: float

    def __init__(self, theta1: float, theta2: float, theta3: float) -> None:
        fields = self.__dict__
        fields["theta1"] = normalize_angle(theta1)
        fields["theta2"] = normalize_angle(theta2)
        fields["theta3"] = normalize_angle(theta3)

    def __iter__(self) -> Iterator[float]:
        yield self.theta1
        yield self.theta2
        yield self.theta3

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


def _as_angles(theta: "JointAngles | Sequence[float]") -> tuple[float, float, float]:
    """The three joint angles as floats; ``ValueError`` unless there are
    three and each is finite.  Array callers run it on their flagged rows
    (see :func:`_check_rows`)."""
    if isinstance(theta, JointAngles):
        return theta.as_tuple()
    t = tuple(map(float, theta))
    if len(t) != 3:
        raise ValueError(f"expected 3 joint angles, got {len(t)}")
    if not all(map(math.isfinite, t)):
        raise ValueError(f"joint angles must be finite, got {t!r}")
    return t


def _best_pair(t) -> tuple[int, int, int]:
    """0-based legs (i, j, k) of checked angles: of the pairs (1, 2), (2, 3)
    and (3, 1), in that order, the first with the largest |sin(t_j - t_i)|,
    listed with i < j, and the leg k left out."""
    s12 = abs(math.sin(t[1] - t[0]))
    s23 = abs(math.sin(t[2] - t[1]))
    s31 = abs(math.sin(t[2] - t[0]))
    if s23 > s12:
        return (0, 2, 1) if s31 > s23 else (1, 2, 0)
    return (0, 2, 1) if s31 > s12 else (0, 1, 2)


@dataclass(frozen=True)
class ManipulatorGeometry:
    """Anchor layout of the manipulator.

    Base anchors ``a1..a3`` and platform anchors ``b1..b3`` (in the platform
    frame) are the vertices of congruent equilateral triangles, both equal to
    ``scale`` times the unit triangle (0,0), (1,0), (1/2, sqrt(3)/2), so the
    size is the only free number; it must lie in [1e-100, 1e100]
    (:class:`GeometryError` otherwise).  The first platform vertex coincides
    with the pose reference point, so b1 is the origin of the platform frame.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        low, high = _SCALE_RANGE
        if not low <= self.scale <= high:
            raise GeometryError(f"scale must be in [{low:g}, {high:g}], got {self.scale!r}")

    @cached_property
    def _anchor_pairs(self) -> tuple[tuple[float, float], ...]:
        """Anchor triangle as (x, y) float pairs: the base anchors, and
        equally the platform anchors in the platform frame."""
        return tuple((x * self.scale, y * self.scale) for x, y in _UNIT_TRIANGLE)


DEFAULT_GEOMETRY = ManipulatorGeometry(1.0)


def _leg_index(leg: int) -> int:
    if leg not in (1, 2, 3):
        raise ValueError(f"leg must be 1, 2 or 3, got {leg!r}")
    return leg - 1


def platform_anchor(
    pose: Pose, leg: int, geometry: ManipulatorGeometry = DEFAULT_GEOMETRY
) -> Vec2:
    """World position of platform anchor ``leg`` (1-based) at ``pose``.

    b_i = p + R(phi) b_i_local.  For leg 1 this is the pose position itself,
    exactly (the local anchor is the origin, no rounding enters).
    """
    c, s = math.cos(pose.phi), math.sin(pose.phi)
    bx, by, _, _ = _place_anchors(pose.x, pose.y, c, s, geometry._anchor_pairs)[_leg_index(leg)]
    return Vec2(bx, by)


def _place_anchors(x, y, c, s, anchors):
    """(bx, by, dx, dy) for each of ``anchors``, (x, y) pairs, at the position
    (x, y) and cos/sin (c, s) of phi, floats or columns: the world platform
    anchor b_i = p + R(phi) b_i_local and its offset b_i - a_i.  Both are
    finite at every finite pose: each term added to x or y is at most the
    scale, below half an ulp of the largest float."""
    legs = []
    # The local platform anchor and the base anchor are the same vertex.
    for ax, ay in anchors:
        bx = x + c * ax - s * ay
        by = y + s * ax + c * ay
        legs.append((bx, by, bx - ax, by - ay))
    return legs


def _leg_columns(x, y, phi, geometry: ManipulatorGeometry, flagged=False, rule=Pose, *columns):
    """``(x, y, legs)``: :func:`_place_anchors` of (N,) pose arrays at libm's cos
    and sin of the normalized ``phi``; ``rule`` checks each non-finite or ``flagged`` row."""
    x, y, phi = (np.asarray(c, dtype=float) for c in (x, y, phi))
    flagged = flagged | ~(np.isfinite(x) & np.isfinite(y) & np.isfinite(phi))
    _check_rows(rule, flagged, x, y, phi, *columns)
    phi = normalize_angles(phi)
    return x, y, _place_anchors(x, y, _COLUMNS.cos(phi), _COLUMNS.sin(phi), geometry._anchor_pairs)


def _leg_axis(f, theta, dx, dy):
    """(sin, cos, residual, extension) in form ``f`` of theta: the components
    of the offset (dx, dy) = b - a across and along the leg axis
    v = (cos theta, sin theta), (b - a) x v and v . (b - a)."""
    sin_t, cos_t = f.sin(theta), f.cos(theta)
    return sin_t, cos_t, sin_t * dx - cos_t * dy, cos_t * dx + sin_t * dy


def constraint_residuals(
    pose: Pose,
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> tuple[float, float, float]:
    """Signed distance of each platform anchor from its leg's prismatic axis.

    Leg i constrains b_i to the line through a_i with direction
    v_i = (cos theta_i, sin theta_i); the residual is the cross product
    (b_i - a_i) x v_i = sin(theta_i) dx_i - cos(theta_i) dy_i.  All three
    vanish exactly when (pose, theta) is an assembly of the mechanism, and
    each value scales linearly with the geometry.
    """
    c, s = math.cos(pose.phi), math.sin(pose.phi)
    legs = _place_anchors(pose.x, pose.y, c, s, geometry._anchor_pairs)
    values = tuple(
        _leg_axis(_FLOATS, t, dx, dy)[2] for t, (*_, dx, dy) in zip(_as_angles(theta), legs)
    )
    for value in values:
        _finite_rho(value, "residual")
    return values


def pose_distance(p: Pose, q: Pose, geometry: ManipulatorGeometry = DEFAULT_GEOMETRY) -> float:
    """Largest coordinate gap between two poses: the position gaps in units
    of the geometry's scale, the orientation gap mod 2 pi."""
    s = geometry.scale
    return max(abs(p.x - q.x) / s, abs(p.y - q.y) / s, abs(math.remainder(p.phi - q.phi, TAU)))


def cluster_poses(
    poses: Iterable[Pose], geometry: ManipulatorGeometry = DEFAULT_GEOMETRY
) -> list[Pose]:
    """The first pose of each cluster, in input order.

    A pose closer than :data:`POSE_TOL` to one already kept (by
    :func:`pose_distance`) is dropped as its duplicate.
    """
    kept: list[Pose] = []
    for pose in poses:
        if all(pose_distance(pose, seen, geometry) >= POSE_TOL for seen in kept):
            kept.append(pose)
    return kept


def _pose_set_deviation(left, right, geometry: ManipulatorGeometry) -> float:
    """Symmetric Hausdorff distance between two nonempty discrete pose sets."""
    worst = 0.0
    for src, dst in ((left, right), (right, left)):
        for p in src:
            best = min(pose_distance(p, q, geometry) for q in dst)
            worst = max(worst, best)
    return worst


def load_geometry(path: str | os.PathLike[str]) -> ManipulatorGeometry:
    """Read a geometry description from a JSON file.

    The file holds an object with a single ``scale`` entry, e.g.
    ``{"scale": 2.0}``.  Unknown keys are rejected to catch typos, and
    content that is not such an object raises :class:`GeometryError`.
    Numbers read as floats, so an integer past the largest float is inf.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=float)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise GeometryError(f"{path}: unreadable geometry file: {exc}") from None
    if not isinstance(data, dict):
        raise GeometryError(f"geometry file must hold a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"scale"}
    if unknown:
        raise GeometryError(f"unknown geometry keys: {sorted(unknown)}")
    scale = data.get("scale", 1.0)
    if not isinstance(scale, float):
        raise GeometryError(f"scale must be a number, got {scale!r}")
    return ManipulatorGeometry(scale)
