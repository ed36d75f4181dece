"""Cardanic coupler curves and the straight-line degeneracy.

Fixing theta1 and theta2 constrains platform anchors B1 and B2 to slide
along two fixed lines while staying one platform edge apart; the third
vertex B3 then sweeps a Cardanic coupler curve as the orientation phi runs
a full cycle.  Generically that curve is an ellipse through a3.  When
theta2 - theta1 is pi/3 (mod pi) the vertex B3 lands on the moving
centrode of the two-slider motion and the ellipse collapses to a straight
segment: the mechanism behaves as a Reuleaux straight-line linkage, and
with the third angle at -pi/3 (mod pi) from the first the whole direct
kinematics degenerates to a continuum.

Everything here reads one table, the loop closure of legs 1 and 2
(``_loop_coefficients``): rho1, rho2 and B3 - a3 are each
a (1 - cos phi) + b sin phi.  Intersecting the curve with the third leg's
axis solves the direct problem geometrically: B3's offset across that axis
has the same form, and its zero other than phi = 0, 2 atan2(-b, a), comes
from the loop closure and not the m, n elimination, so it cross-checks the
closed form's root under the solvers' rules (continua, DEGENERATE,
coincident, the straight-line predicate).  The straight segment's ends and
the Reuleaux constants come from the same pairs.  Only the columns of
``trace_cardanic`` sample the curve, for the tables and figures.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DegenerateLegPairError, NotReuleauxError
from .geometry import (
    _COLUMNS,
    _FLOATS,
    DEFAULT_GEOMETRY,
    PAIR_SIN_TOL,
    JointAngles,
    ManipulatorGeometry,
    Vec2,
    _as_angles,
    _best_pair,
    _leg_axis,
    normalize_angle,
)
from .solvers import (
    _DK_KINDS,
    _REULEAUX_GAP,
    DkKind,
    DkSolutionSet,
    _continuum,
    _leg1_line,
    _solution_set,
)

__all__ = [
    "MIN_CURVE_SAMPLES",
    "CouplerCurve",
    "SegmentDescriptor",
    "ReuleauxDescriptor",
    "rho_from_phi",
    "trace_cardanic",
    "geometric_dkp",
    "reuleaux_descriptor",
]

# Fewest orientation samples trace_cardanic accepts for a full cycle.
MIN_CURVE_SAMPLES = 8


@dataclass(frozen=True, eq=False)
class CouplerCurve:
    """Sampled trace of the third platform vertex over one orientation cycle.

    The samples are columns: ``phi`` (n,) ordered over (-pi, pi] (phi = 0
    included for even sample counts, where the curve touches a3 exactly),
    the third vertex ``b3`` (n, 2) as (x, y) rows and the slider extensions
    ``rho`` (n, 2) as (rho1, rho2) rows.  ``degenerate`` says whether the
    solvers classify the triple completed with theta3 = theta1 - pi/3 as
    the straight-line continuum; ``segment`` holds the exact ends of the
    full-cycle stroke when set, lower end first along the line's direction.
    """

    theta1: float
    theta2: float
    phi: np.ndarray
    b3: np.ndarray
    rho: np.ndarray
    degenerate: bool
    segment: tuple[Vec2, Vec2] | None
    scale: float


@dataclass(frozen=True)
class SegmentDescriptor:
    """A straight stroke: midpoint, unit direction, and half extent."""

    point: Vec2
    direction: Vec2
    half_length: float

    @property
    def length(self) -> float:
        return 2.0 * self.half_length


@dataclass(frozen=True)
class ReuleauxDescriptor:
    """Constants of the straight-line self-motion.

    ``p_line`` is the longest straight stroke of the platform reference
    point between serial singularities (leg extensions changing sign);
    ``a_displacement_magnitude`` is the full-cycle travel of each vertex
    along its slider axis, identical for the three legs.
    """

    p_line: SegmentDescriptor
    a_displacement_magnitude: float


def rho_from_phi(
    theta1: float,
    theta2: float,
    phi: float,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> tuple[float, float]:
    """Signed extensions of legs 1 and 2 at orientation ``phi``, a float.

    Solves the loop closure of the quadrilateral a1-b1-b2-a2, the first two
    rows of :func:`_loop_coefficients`; with k = scale / sin(t2 - t1):

        rho1 = k sin(t2) (1 - cos phi) + k cos(t2) sin phi
        rho2 = k sin(t1) (1 - cos phi) + k cos(t1) sin phi

    Both vanish at phi = 0.  Raises :class:`DegenerateLegPairError` when the
    slider lines are parallel (|sin(t2 - t1)| < PAIR_SIN_TOL).
    """
    loop = _loop_coefficients(theta1, theta2, geometry)
    rho1, rho2, _, _ = _slider_loop(loop, math.cos(phi), math.sin(phi), geometry)
    return (rho1, rho2)


def _slider_loop(loop, cos_phi, sin_phi, geometry: ManipulatorGeometry):
    """(rho1, rho2, b3x, b3y) at libm's cos and sin of phi, floats as in
    :func:`rho_from_phi` or rows of :func:`_cycle_grid`, from the table
    ``loop`` of :func:`_loop_coefficients`: each entry is a (1 - cos phi) +
    b sin phi, and B3 is a3 plus its offset, so it is exactly a3 at phi = 0.
    The platform reference point is a1 + rho1 v1, so poses reuse rho1.  Each
    element of a column result equals the float result.
    """
    one_minus_cos = 1.0 - cos_phi
    # + 0.0 turns a·0 + b·0 = -0.0 (a, b < 0) at phi = 0 into +0.
    rho1, rho2, dx, dy = (a * one_minus_cos + b * sin_phi + 0.0 for a, b in loop)
    a3x, a3y = geometry._anchor_pairs[2]
    return (rho1, rho2, a3x + dx, a3y + dy)


def _loop_coefficients(theta1: float, theta2: float, geometry: ManipulatorGeometry):
    """The two-slider loop closure as one table of (a, b) pairs, each of a
    quantity q(phi) = q(0) + a (1 - cos phi) + b sin phi: rho1, rho2, and
    the x and y of B3 - a3.

    With k = scale / sin(t2 - t1) the sliders give rho1's pair
    k (sin t2, cos t2) and rho2's k (sin t1, cos t1).  With a1 at the origin,
    B3 - a3 = rho1 v1 + (R(phi) - I) a3, where
    (R(phi) - I) a3 = -(1 - cos phi) a3 + sin phi (-a3.y, a3.x).
    Raises :class:`DegenerateLegPairError` for parallel slider lines.
    """
    den = math.sin(theta2 - theta1)
    if abs(den) < PAIR_SIN_TOL:
        raise DegenerateLegPairError(f"legs parallel: sin(theta2 - theta1) = {den:.3e}")
    k = geometry.scale / den
    a, b = k * math.sin(theta2), k * math.cos(theta2)
    c1, s1 = math.cos(theta1), math.sin(theta1)
    a3x, a3y = geometry._anchor_pairs[2]
    return (
        (a, b),
        (k * math.sin(theta1), k * math.cos(theta1)),
        (a * c1 - a3x, b * c1 - a3y),
        (a * s1 - a3y, b * s1 + a3x),
    )


def _leg3_pairs(theta3: float, loop):
    """Leg 3's (residual, extension) pairs: B3 - a3's coefficient vectors of
    (1 - cos phi) and of sin phi, across and along the leg's axis."""
    (ax, bx), (ay, by) = loop[2:]
    one_minus_cos, sin_phi = _leg_axis(_FLOATS, theta3, ax, ay), _leg_axis(_FLOATS, theta3, bx, by)
    return tuple(zip(one_minus_cos[2:], sin_phi[2:]))


def _second_zero(a: float, b: float) -> float:
    """The zero of a (1 - cos phi) + b sin phi other than phi = 0: with
    psi = phi / 2 it is 2 sin(psi) (a sin(psi) + b cos(psi))."""
    return normalize_angle(2.0 * math.atan2(-b, a))


def _cycle_phi(n_samples: int) -> np.ndarray:
    """n uniform phi values spanning (-pi, pi], endpoint included (phi = 0 for
    even n, where the curve meets a3)."""
    return -math.pi + np.arange(1, n_samples + 1, dtype=float) * (2.0 * math.pi / n_samples)


@lru_cache(maxsize=2)
def _cycle_grid(n_samples: int) -> np.ndarray:
    """:func:`_cycle_phi` and its libm cos and sin: three read-only rows,
    built once per n and process."""
    phi = _cycle_phi(n_samples)
    grid = np.array((phi, _COLUMNS.cos(phi), _COLUMNS.sin(phi)))
    grid.flags.writeable = False
    return grid


def trace_cardanic(
    theta1: float,
    theta2: float,
    n_samples: int = 720,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> CouplerCurve:
    """Sample the coupler curve of the third vertex over a full cycle.

    The curve is a straight segment exactly when theta2 - theta1 = pi/3
    (mod pi): ``degenerate`` asks the solvers' rule of the triple completed
    with theta3 = theta1 - pi/3.  B3 then runs on the line through a3 along
    theta3, and ``segment`` spans its exact full-cycle extent along it.

    Raises :class:`DegenerateLegPairError` for parallel slider lines, where
    no curve exists, and :class:`TypeError` for a sample count that is not
    an integer.
    """
    if operator.index(n_samples) < MIN_CURVE_SAMPLES:
        raise ValueError(f"n_samples must be at least {MIN_CURVE_SAMPLES}, got {n_samples}")
    t1, t2 = normalize_angle(theta1), normalize_angle(theta2)
    phi, cos_phi, sin_phi = _cycle_grid(n_samples)
    loop = _loop_coefficients(t1, t2, geometry)
    rho1, rho2, b3x, b3y = _slider_loop(loop, cos_phi, sin_phi, geometry)
    t3 = t1 - _REULEAUX_GAP
    kind = _DK_KINDS[_continuum(_FLOATS, t1, t2, normalize_angle(t3))]
    degenerate = kind is DkKind.CONTINUUM_REULEAUX

    segment: tuple[Vec2, Vec2] | None = None
    if degenerate:
        # rho3 = a (1 - cos phi) + b sin phi spans a -+ hypot(a, b) over the cycle.
        a, b = _leg3_pairs(t3, loop)[1]
        (a3x, a3y), ux, uy = geometry._anchor_pairs[2], math.cos(t3), math.sin(t3)
        lo, hi = a - math.hypot(a, b), a + math.hypot(a, b)
        segment = (Vec2(a3x + lo * ux, a3y + lo * uy), Vec2(a3x + hi * ux, a3y + hi * uy))

    return CouplerCurve(
        theta1=t1,
        theta2=t2,
        phi=phi.copy(),
        b3=np.column_stack((b3x, b3y)),
        rho=np.column_stack((rho1, rho2)),
        degenerate=degenerate,
        segment=segment,
        scale=geometry.scale,
    )


def geometric_dkp(
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> DkSolutionSet:
    """Direct kinematics by intersecting the coupler curve with leg 3's axis.

    The signed distance of B3 from the third slider line vanishes at every
    assembly.  Leg 3's residual pair in the loop-closure table
    (:func:`_loop_coefficients`) writes it as a (1 - cos phi) + b sin phi,
    whose zero other than phi = 0, 2 atan2(-b, a) (:func:`_second_zero`),
    is the second assembly, mapped to a pose through the best-conditioned
    leg pair (ties to the first of (1, 2), (2, 3), (3, 1)).  The table is
    built on that same pair as legs 1 and 2, after k turns of the labels by
    C3, (t1, t2, t3) -> (t3, t1, t2) + 2 pi/3, which keep phi.  The root
    reads neither m nor n: it comes from the coupler's loop closure, not
    from the closed form's elimination, and the two roots are compared in
    tests and by the verifier.  The rest of the solution set (continua,
    DEGENERATE, coincident) comes from the closed form's own body, which
    asks for the table only then: in a translation continuum every pair may
    be parallel.
    """
    t = _as_angles(theta)
    def second_phi(_m, _n):
        k = (2 - _best_pair(t)[2]) % 3
        u = [normalize_angle(t[(i - k) % 3] + k * 2.0 * math.pi / 3.0) for i in range(3)]
        return _second_zero(*_leg3_pairs(u[2], _loop_coefficients(*u[:2], geometry))[0])

    return _solution_set(t, geometry, second_phi)


def reuleaux_descriptor(
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> ReuleauxDescriptor:
    """The straight-line self-motion constants, from the loop closure.

    For qualifying angles every orientation is admissible, each vertex b_i
    slides on the line through a_i, and the signed extensions are
    rho_i(phi) = a_i (1 - cos phi) + b_i sin phi, with coefficients from
    the loop-closure table.  From them:

    * ``a_displacement_magnitude``: full-cycle extent max - min of each
      rho_i, 2 hypot(a_i, b_i) (the three agree; their mean is reported);
    * ``p_line``: the longest stroke of the reference point P = b1 along
      an arc free of interior serial singularities.  Zeros of any rho_i
      bound such arcs (crossing one reverses a slider), so the cycle is
      partitioned at all zeros and the P extent is maximized over the
      pieces.  The stroke depends on theta1 (for the unit geometry it is 2
      at theta1 = 0, about 1.21 at theta1 = -1); the travel is
      4*sqrt(3)/3 for every theta1.  Both scale linearly.

    Raises :class:`NotReuleauxError` when the angle predicate fails.
    """
    t = _as_angles(theta)
    if _DK_KINDS[_continuum(_FLOATS, *t)] is not DkKind.CONTINUUM_REULEAUX:
        raise NotReuleauxError(f"angles {t} do not satisfy the straight-line degeneracy condition")
    loop = _loop_coefficients(t[0], t[1], geometry)
    coeffs = (loop[0], loop[1], _leg3_pairs(t[2], loop)[1])
    a1, b1 = coeffs[0]
    displacement = sum(2.0 * math.hypot(a, b) for a, b in coeffs) / 3.0
    cuts = sorted({0.0, *(_second_zero(a, b) for a, b in coeffs)})

    # The arcs between consecutive cuts, the last wrapping round.
    arcs = zip(cuts, [*cuts[1:], cuts[0] + 2.0 * math.pi])
    extremes = [_rho_extremes_on_arc(a1, b1, lo, hi) for lo, hi in arcs]
    lo_v, hi_v = max(extremes, key=lambda e: e[1] - e[0])
    line = _leg1_line(t[0])
    mid = 0.5 * (lo_v + hi_v)
    p_line = SegmentDescriptor(
        point=Vec2(line.point.x + mid * line.direction.x, line.point.y + mid * line.direction.y),
        direction=line.direction,
        half_length=0.5 * (hi_v - lo_v),
    )
    return ReuleauxDescriptor(p_line=p_line, a_displacement_magnitude=displacement)


def _rho_extremes_on_arc(a: float, b: float, lo: float, hi: float) -> tuple[float, float]:
    """Min and max of a (1 - cos phi) + b sin phi over [lo, hi]."""

    def f(phi: float) -> float:
        return a * (1.0 - math.cos(phi)) + b * math.sin(phi)

    candidates = [f(lo), f(hi)]
    # Interior critical points: a sin phi + b cos phi = 0.
    crit = math.atan2(-b, a)
    for cand in (crit, crit + math.pi, crit - math.pi, crit + 2.0 * math.pi):
        if lo < cand < hi:
            candidates.append(f(cand))
    return (min(candidates), max(candidates))
