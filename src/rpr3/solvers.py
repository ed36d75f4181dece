"""Position-level solvers: inverse and direct kinematics.

The inverse problem is elementary (each leg sees its platform anchor
directly).  The direct problem exploits the fact that each leg constraint is
affine in the platform position once the orientation is fixed: the
solvability condition of the three affine equations is a single
trigonometric equation m*cos(phi) + n*sin(phi) - m = 0, whose nontrivial
root has the closed form phi = atan2(2*m*n, m*m - n*n).  The trivial
assembly (every platform anchor on its base anchor, identity pose) is
always the other root.

Degenerate joint-angle triples admit a one-dimensional continuum of
assemblies instead of two isolated ones; ``classify_dk_degeneracy`` detects
these from angle predicates before any floating-point cancellation can hide
them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum, unique
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import DegenerateLegPairError, LegAtAnchorError
from .geometry import (
    _COLUMNS,
    _FLOATS,
    DEFAULT_GEOMETRY,
    PAIR_SIN_TOL,
    JointAngles,
    LegState,
    ManipulatorGeometry,
    Pose,
    Vec2,
    _as_angles,
    _best_pair,
    _finite_rho,
    _first_nonfinite,
    _leg_axis,
    _leg_columns,
    _place_anchors,
    normalize_angles,
)

__all__ = [
    "ANCHOR_TOL",
    "DEGENERACY_ANGLE_TOL",
    "REDUCTION_NULL_TOL",
    "IkSolution",
    "inverse_kinematics",
    "inverse_kinematics_array",
    "DkKind",
    "LineDescriptor",
    "DkSolutionSet",
    "mn_coefficients",
    "classify_dk_degeneracy",
    "position_from_orientation",
    "direct_kinematics",
]

# Angle-difference tolerance (radians) for the degeneracy predicates.  Wide
# enough that decimal constants printed with 8+ significant digits for pi/3
# and friends still land inside after parsing, yet ten orders of magnitude
# below anything a physical encoder resolves.
DEGENERACY_ANGLE_TOL = 5e-9

# A leg whose anchor separation is below this times the geometry scale sits
# on its base anchor, and inverse kinematics is undefined for it.
ANCHOR_TOL = 1e-9

# Threshold on m*m + n*n (dimensionless) below which the orientation
# reduction cannot certify a second root.
REDUCTION_NULL_TOL = 1e-12

_SQRT3 = math.sqrt(3.0)
_TRIVIAL = Pose(0.0, 0.0, 0.0)

# Each gap around the cycle of legs (mod pi) in the straight-line continuum.
_REULEAUX_GAP = math.pi / 3.0


# The result records store each field once, as the value objects do, and take
# the values their solver computed without a check; the fields give the types.
@dataclass(frozen=True, init=False)
class IkSolution:
    """Inverse-kinematics result for one branch selection.

    ``branch[i]`` is 0 when leg i+1 aims at its platform anchor and 1 when
    it aims away (the extension runs negative through the base anchor).
    Leg states are canonical, so the branch shows up in ``theta`` and in the
    sign of ``signed_rhos``.
    """

    legs: tuple[LegState, LegState, LegState]
    branch: tuple[int, int, int]

    def __init__(self, legs, branch) -> None:
        fields = self.__dict__
        fields["legs"], fields["branch"] = legs, branch

    @property
    def angles(self) -> JointAngles:
        l1, l2, l3 = self.legs
        return JointAngles(l1.theta, l2.theta, l3.theta)

    def rhos(self) -> tuple[float, float, float]:
        l1, l2, l3 = self.legs
        return (l1.rho, l2.rho, l3.rho)

    def signed_rhos(self) -> tuple[float, float, float]:
        """Extensions measured along each leg's direction vector."""
        (l1, l2, l3), (k1, k2, k3) = self.legs, self.branch
        return (l1.rho * (1.0 - 2.0 * k1), l2.rho * (1.0 - 2.0 * k2), l3.rho * (1.0 - 2.0 * k3))


def inverse_kinematics(
    pose: Pose,
    branch: Sequence[int] = (0, 0, 0),
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> IkSolution:
    """Joint values reaching ``pose``, one solution per leg branch.

    theta_i is the two-argument arctangent of b_i - a_i plus branch*pi,
    rho_i the anchor separation.  The three branch flags are the integers 0
    and 1: :class:`TypeError` for a flag that is not an integer, else
    ``ValueError``.  Raises :class:`LegAtAnchorError` listing every leg whose
    separation is below ``ANCHOR_TOL * scale``; those legs have arbitrary
    revolute angle and no meaningful branch.
    """
    br = tuple(map(operator.index, branch))
    if len(br) != 3 or not {0, 1}.issuperset(br):
        raise ValueError(f"branch must be three flags in {{0, 1}}, got {branch!r}")
    phi, anchors = pose.phi, geometry._anchor_pairs
    legs = _place_anchors(pose.x, pose.y, math.cos(phi), math.sin(phi), anchors)
    theta, rho, at_anchor = _aim_legs(_FLOATS, legs, br, geometry.scale)
    if any(at_anchor):
        raise LegAtAnchorError(tuple(compress((1, 2, 3), at_anchor)))
    return IkSolution(tuple(map(LegState, theta, rho)), br)


def inverse_kinematics_array(
    x: np.ndarray,
    y: np.ndarray,
    phi: np.ndarray,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> tuple[np.ndarray, np.ndarray]:
    """Branch-000 :func:`inverse_kinematics` over (N,) pose arrays.

    Returns ``(theta, at_anchor)``.  Row k of the (N, 3) ``theta`` equals
    ``inverse_kinematics(Pose(x[k], y[k], phi[k])).angles`` bit for bit;
    ``at_anchor`` marks the poses where that call raises
    :class:`LegAtAnchorError`, and their rows of ``theta`` are nan.
    """
    _, _, legs = _leg_columns(x, y, phi, geometry)
    theta, at_anchor = _aim_columns(legs, geometry.scale)
    theta = np.stack(theta, axis=1)
    theta[at_anchor] = math.nan
    return theta, at_anchor


def _aim_columns(legs, scale: float):
    """``(theta, at_anchor)``: the body of :func:`inverse_kinematics_array`
    on leg offsets whose columns broadcast together, each angle column
    normalized but not masked, each length checked as by :class:`LegState`."""
    theta, rho, (stuck1, stuck2, stuck3) = _aim_legs(_COLUMNS, legs, (0, 0, 0), scale)
    _first_nonfinite(lambda *row: _finite_rho(max(row)), *rho)
    return [normalize_angles(t) for t in theta], stuck1 | stuck2 | stuck3


def _aim_legs(f, legs, branch, scale: float):
    """(theta, rho, at_anchor) of the leg offsets b_i - a_i in form ``f``:
    each arctangent plus branch * pi (0 * pi turns atan2's -0.0 into +0.0),
    each length, and whether it is below ``ANCHOR_TOL * scale``."""
    tol = ANCHOR_TOL * scale
    solved = []
    for (_, _, dx, dy), k in zip(legs, branch):
        rho = f.hypot(dx, dy)
        solved.append((f.atan2(dy, dx) + k * math.pi, rho, rho < tol))
    return zip(*solved)


@unique
class DkKind(Enum):
    """Structure of the direct-kinematics solution set."""

    TWO_SOLUTIONS = "TwoSolutions"
    CONTINUUM_TRANSLATION = "ContinuumTranslation"
    CONTINUUM_REULEAUX = "ContinuumReuleaux"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class LineDescriptor:
    """A line in the plane: a point on it and a unit direction."""

    point: Vec2
    direction: Vec2


@dataclass(frozen=True, init=False)
class DkSolutionSet:
    """Direct-kinematics output.

    ``poses`` holds the isolated assemblies found, trivial identity pose
    first.  ``m`` and ``n`` are the orientation-reduction coefficients
    (dimensionless; identical for every leg-pair elimination, see
    :func:`mn_coefficients`).  ``continuum`` is leg 1's slider line: the
    translational self-motion line when ``kind`` is CONTINUUM_TRANSLATION,
    and, from either route, the line the reference point runs on in the
    rotational continuum, CONTINUUM_REULEAUX (its stroke is given by
    ``reuleaux_descriptor``).
    ``coincident`` flags a second root that collapses onto the trivial one,
    |phi| < ``DEGENERACY_ANGLE_TOL``: both routes, one rule.
    """

    kind: DkKind
    poses: tuple[Pose, ...]
    m: float
    n: float
    continuum: LineDescriptor | None = None
    coincident: bool = False

    def __init__(self, kind, poses, m, n, continuum=None, coincident=False) -> None:
        fields = self.__dict__
        fields["kind"], fields["poses"], fields["m"], fields["n"] = kind, poses, m, n
        fields["continuum"], fields["coincident"] = continuum, coincident


def mn_coefficients(theta: JointAngles | Sequence[float]) -> tuple[float, float]:
    """Orientation-reduction coefficients.

    Eliminating the platform position from the three leg constraints leaves
    the solvability condition m*cos(phi) + n*sin(phi) - m = 0 with

        m = 2 sin(t3 - t1) sin(t2) - sin(t2 - t1) (sin(t3) - sqrt(3) cos(t3))
        n = -2 sin(t3 - t1) cos(t2) + sin(t2 - t1) (cos(t3) + sqrt(3) sin(t3))

    The condition is the 3x3 determinant of the stacked affine constraints,
    so it does not depend on which leg pair is nominally "eliminated"; both
    coefficients are dimensionless and unaffected by the geometry scale.

    They also give det A.  Its third column holds the moment arms
    w_i = v_i . R(phi) a_i, with w_1 = 0, so det A = w_3 sin(t2 - t1)
    - w_2 sin(t3 - t1) = (scale / 2)(n cos(phi) - m sin(phi)) at any position.
    At the trivial root phi = 0 that is +scale * n / 2; at the other, where
    cos(phi) = (m^2 - n^2) / (m^2 + n^2) and sin(phi) = 2mn / (m^2 + n^2), it
    is -scale * n / 2.  The two assemblies lie in opposite aspects, and they
    merge where n = 0, the parallel-singular locus.
    """
    return _mn(*_as_angles(theta))


def _mn(t1: float, t2: float, t3: float) -> tuple[float, float]:
    s31, s21 = math.sin(t3 - t1), math.sin(t2 - t1)
    s2, c2, s3, c3 = math.sin(t2), math.cos(t2), math.sin(t3), math.cos(t3)
    m = 2.0 * s31 * s2 - s21 * (s3 - _SQRT3 * c3)
    n = -2.0 * s31 * c2 + s21 * (c3 + _SQRT3 * s3)
    return (m, n)


# Indexed by translation + 2 * reuleaux; the two predicates exclude each other.
_DK_KINDS = (DkKind.TWO_SOLUTIONS, DkKind.CONTINUUM_TRANSLATION, DkKind.CONTINUUM_REULEAUX)


def classify_dk_degeneracy(theta: JointAngles | Sequence[float]) -> DkKind:
    """Detect self-motion continua from the joint angles alone.

    A continuum exists in exactly two situations, read from the three gaps
    around the cycle of legs, t2 - t1, t3 - t2 and t1 - t3 (mod pi, since
    reversing a leg direction only flips its extension sign):

    * every gap 0, all three directions parallel: the platform translates
      freely along them (CONTINUUM_TRANSLATION);
    * every gap pi/3, legs 2 and 3 at +pi/3 and -pi/3 from leg 1: every
      orientation is reachable and the platform vertices run on straight
      lines (CONTINUUM_REULEAUX).  The gaps are chiral; at -pi/3 each (the
      offsets swapped) the configuration has two ordinary solutions, which
      is easy to confirm by a brute-force scan.

    Everything else is TWO_SOLUTIONS (the generic structure; whether the two
    roots actually differ is reported by :func:`direct_kinematics`).  Each
    gap matches within ``DEGENERACY_ANGLE_TOL``: in the offsets d2, d3 of
    legs 2 and 3 the band is the hexagon |d2|, |d3|, |d2 - d3| < tol.  A
    turn or mirror of the leg labels permutes the gaps, not the kind.
    """
    return _DK_KINDS[_continuum(_FLOATS, *_as_angles(theta))]


def _continuum(f, t1, t2, t3):
    """Index into ``_DK_KINDS`` of checked angles' continuum in form ``f``:
    :func:`classify_dk_degeneracy`'s rule, one test per gap."""
    r, tol, pi = f.remainder, DEGENERACY_ANGLE_TOL, math.pi
    g12, g23, g31, third = t2 - t1, t3 - t2, t1 - t3, _REULEAUX_GAP
    translation = (abs(r(g12, pi)) < tol) & (abs(r(g23, pi)) < tol) & (abs(r(g31, pi)) < tol)
    g12, g23, g31 = g12 - third, g23 - third, g31 - third
    reuleaux = (abs(r(g12, pi)) < tol) & (abs(r(g23, pi)) < tol) & (abs(r(g31, pi)) < tol)
    return translation + 2 * reuleaux


def _leg1_line(t1: float) -> LineDescriptor:
    """Leg 1's slider line: through a1, the origin, along theta1."""
    return LineDescriptor(Vec2(0.0, 0.0), Vec2(math.cos(t1), math.sin(t1)))


def position_from_orientation(
    theta: JointAngles | Sequence[float],
    phi: float,
    pair: tuple[int, int] | None = None,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> Pose:
    """Platform position on the constraint variety at orientation ``phi``.

    Two legs' affine constraints are solved for (x, y); ``pair`` picks them,
    defaulting to the pair every direct-kinematics route solves through: the
    largest |sin| of the angle difference, ties to the first of (1, 2),
    (2, 3), (3, 1).  The result satisfies the third constraint only when
    ``phi`` is a root of the orientation reduction; callers own that check.

    Raises :class:`TypeError` for a leg that is not an integer, and
    :class:`DegenerateLegPairError` when the chosen (or every) pair is
    parallel within ``PAIR_SIN_TOL``.
    """
    t = _as_angles(theta)
    legs = None if pair is None else [operator.index(leg) - 1 for leg in pair]
    if legs is not None and sorted(legs) not in ([0, 1], [0, 2], [1, 2]):
        raise ValueError(f"pair must be two distinct legs in 1..3, got {pair!r}")
    return _position(t, phi, legs, geometry)


def _position(t, phi: float, pair, geometry: ManipulatorGeometry) -> Pose:
    """:func:`position_from_orientation` of checked angles and 0-based pair.

    With phi fixed, leg k's constraint is affine in the position (x, y):
    b_k = (x, y) + R(phi) a_k, since base and platform share one triangle, so
    sin(t_k) x - cos(t_k) y + c_k(phi) = 0 with c_k(phi) = r_k cos(phi)
    - e_k sin(phi) - r_k, where r_k and e_k are the residual and extension
    of a_k across and along the leg axis (:func:`_leg_axis`); c_k(0) = 0.
    Legs i and j are solved by Cramer's rule, determinant sin(t_j - t_i).
    """
    i, j, _ = _best_pair(t) if pair is None else (*pair, None)
    det = math.sin(t[j] - t[i])
    if abs(det) < PAIR_SIN_TOL:
        raise DegenerateLegPairError(
            f"legs {i + 1} and {j + 1} are parallel (sin difference {det:.3e}); "
            "their constraints cannot be solved for the position"
        )
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    (aix, aiy), (ajx, ajy) = geometry._anchor_pairs[i], geometry._anchor_pairs[j]
    sin_i, cos_i, ri, ei = _leg_axis(_FLOATS, t[i], aix, aiy)
    sin_j, cos_j, rj, ej = _leg_axis(_FLOATS, t[j], ajx, ajy)
    ci, cj = ri * cos_phi - ei * sin_phi - ri, rj * cos_phi - ej * sin_phi - rj
    x = (ci * cos_j - cj * cos_i) / det
    y = (ci * sin_j - cj * sin_i) / det
    return Pose(x, y, phi)


def direct_kinematics(
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> DkSolutionSet:
    """All assemblies compatible with the given revolute angles.

    The identity pose is always an assembly.  Generic angles admit exactly
    one more, at phi = atan2(2mn, m^2 - n^2) with the position
    back-substituted through the best-conditioned leg pair.  Degeneracies
    are classified results, not failures: angle predicates catch the two
    continuum families first, and a vanishing reduction that matches
    neither predicate is reported as DEGENERATE rather than guessed at.
    """
    return _solution_set(_as_angles(theta), geometry, _closed_form_phi)


def _closed_form_phi(m: float, n: float) -> float:
    return math.atan2(2.0 * m * n, m * m - n * n)


def _solution_set(t, geometry: ManipulatorGeometry, second_phi) -> DkSolutionSet:
    """Both routes' direct-kinematics rules on checked angles: a continuum
    by the angle predicates (with leg 1's line), else DEGENERATE when m^2 +
    n^2 <= ``REDUCTION_NULL_TOL``, else the trivial pose and the one at
    ``second_phi(m, n)``, coincident when |phi| < ``DEGENERACY_ANGLE_TOL``."""
    m, n = _mn(*t)
    continuum = _continuum(_FLOATS, *t)  # 0, TWO_SOLUTIONS, unless the angles admit a continuum
    if continuum:
        return DkSolutionSet(_DK_KINDS[continuum], (_TRIVIAL,), m, n, continuum=_leg1_line(t[0]))
    if m * m + n * n <= REDUCTION_NULL_TOL:
        return DkSolutionSet(DkKind.DEGENERATE, (_TRIVIAL,), m, n)
    second = _position(t, second_phi(m, n), None, geometry)
    coincident = abs(second.phi) < DEGENERACY_ANGLE_TOL
    return DkSolutionSet(_DK_KINDS[0], (_TRIVIAL, second), m, n, coincident=coincident)
