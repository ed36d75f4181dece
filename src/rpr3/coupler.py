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

Intersecting the curve with the third leg's axis solves the direct problem
geometrically, in the half angle phi / 2, where the trivial assembly
factors out exactly; this route shares only the loop-closure formulas with
the closed-form solver and is used to cross-check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateLegPairError, NotReuleauxError
from .geometry import (
    DEFAULT_GEOMETRY,
    PAIR_SIN_TOL,
    JointAngles,
    ManipulatorGeometry,
    Pose,
    Vec2,
    _as_angles,
    _form,
    _leg_axis,
    normalize_angle,
)
from .solvers import (
    DEGENERACY_ANGLE_TOL,
    REDUCTION_NULL_TOL,
    _DK_KINDS,
    _TRIVIAL,
    DkKind,
    DkSolutionSet,
    _continuum,
    _leg1_line,
    _mn,
)

__all__ = [
    "MIN_CURVE_SAMPLES",
    "COLLINEARITY_TOL",
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

# Maximum point-line distance (relative to scale) under which a sampled
# curve counts as a straight segment.
COLLINEARITY_TOL = 1e-9

# Orientation samples of the full-cycle sweep in reuleaux_descriptor.
_REULEAUX_SAMPLES = 4096

_THIRD_VERTEX_ANGLE = math.pi / 3.0


@dataclass(frozen=True, eq=False)
class CouplerCurve:
    """Sampled trace of the third platform vertex over one orientation cycle.

    The samples are columns: ``phi`` (n,) ordered over (-pi, pi] (phi = 0
    included for even sample counts, where the curve touches a3 exactly),
    the third vertex ``b3`` (n, 2) as (x, y) rows and the slider extensions
    ``rho`` (n, 2) as (rho1, rho2) rows.  ``degenerate`` is decided by the
    measured collinearity of the samples, not by an angle predicate, so it
    reflects what the trace actually does; ``segment`` holds the endpoints
    of the degenerate stroke when set.
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
    """Measured constants of the straight-line self-motion.

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
    """Signed extensions of legs 1 and 2 at orientation ``phi``.

    Solves the loop closure of the quadrilateral a1-b1-b2-a2:

        rho1 = scale * (sin(t2)(1 - cos phi) + cos(t2) sin phi) / sin(t2 - t1)
        rho2 = scale * (sin(t1)(1 - cos phi) + cos(t1) sin phi) / sin(t2 - t1)

    Both vanish at phi = 0.  Raises :class:`DegenerateLegPairError` when the
    slider lines are parallel (|sin(t2 - t1)| < PAIR_SIN_TOL).
    """
    rho1, rho2, _, _ = _slider_loop(theta1, theta2, phi, geometry)
    return (rho1, rho2)


def _slider_loop(theta1: float, theta2: float, phi, geometry: ManipulatorGeometry):
    """(rho1, rho2, b3x, b3y) at ``phi``: the extensions of
    :func:`rho_from_phi` and B3 = a1 + rho1 v1 + R(phi) b3_local.  The
    platform reference point is a1 + rho1 v1, so poses reuse rho1.

    ``phi`` is a float, as in :func:`rho_from_phi`, or an array, each of
    whose elements equals the float result.
    """
    den = math.sin(theta2 - theta1)
    if abs(den) < PAIR_SIN_TOL:
        raise DegenerateLegPairError(
            f"legs parallel: sin(theta2 - theta1) = {den:.3e}"
        )
    s = geometry.scale
    f = _form(phi)
    one_minus_cos = 1.0 - f.cos(phi)
    sin_phi = f.sin(phi)
    rho1 = s * ((math.sin(theta2) * one_minus_cos + math.cos(theta2) * sin_phi) / den)
    rho2 = s * ((math.sin(theta1) * one_minus_cos + math.cos(theta1) * sin_phi) / den)
    a1 = geometry.base_anchor(1)
    third = phi + _THIRD_VERTEX_ANGLE
    b3x = a1.x + rho1 * math.cos(theta1) + s * f.cos(third)
    b3y = a1.y + rho1 * math.sin(theta1) + s * f.sin(third)
    return (rho1, rho2, b3x, b3y)


def _axis_offset(b3x, b3y, theta3: float, geometry: ManipulatorGeometry):
    """(residual, extension) of B3 against leg 3's slider axis, floats or
    arrays (see :func:`_leg_axis`); where the residual vanishes, the
    extension is rho3."""
    a3 = geometry.base_anchor(3)
    return _leg_axis(theta3, b3x - a3.x, b3y - a3.y)[2:]


def _cycle_grid(n_samples: int) -> np.ndarray:
    """n uniform phi values spanning (-pi, pi], endpoint included.

    For even n the grid contains phi = 0 exactly, where the curve meets a3.
    """
    k = np.arange(1, n_samples + 1, dtype=float)
    return -math.pi + k * (2.0 * math.pi / n_samples)


def trace_cardanic(
    theta1: float,
    theta2: float,
    n_samples: int = 720,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> CouplerCurve:
    """Sample the coupler curve of the third vertex over a full cycle.

    Degeneracy to a straight segment is detected by measuring the samples
    (max distance from their principal line below COLLINEARITY_TOL * scale);
    the angle criterion theta2 - theta1 = pi/3 (mod pi) is equivalent, and
    the dichotomy between the two is pinned by tests.

    Raises :class:`DegenerateLegPairError` for parallel slider lines, where
    no curve exists.
    """
    if n_samples < MIN_CURVE_SAMPLES:
        raise ValueError(
            f"n_samples must be at least {MIN_CURVE_SAMPLES}, got {n_samples}"
        )
    t1 = normalize_angle(theta1)
    t2 = normalize_angle(theta2)
    phi = _cycle_grid(n_samples)
    rho1, rho2, b3x, b3y = _slider_loop(t1, t2, phi, geometry)
    b3 = np.column_stack((b3x, b3y))

    center = b3.mean(axis=0)
    spread = b3 - center
    # Principal direction of the point cloud; the residual against it is the
    # collinearity measure.
    _, _, vt = np.linalg.svd(spread, full_matrices=False)
    major = vt[0]
    deviation = float(np.abs(spread @ vt[1]).max())
    degenerate = deviation < COLLINEARITY_TOL * geometry.scale

    segment: tuple[Vec2, Vec2] | None = None
    if degenerate:
        along = spread @ major
        lo = center + float(along.min()) * major
        hi = center + float(along.max()) * major
        segment = (Vec2(float(lo[0]), float(lo[1])), Vec2(float(hi[0]), float(hi[1])))

    return CouplerCurve(
        theta1=t1,
        theta2=t2,
        phi=phi,
        b3=b3,
        rho=np.column_stack((rho1, rho2)),
        degenerate=degenerate,
        segment=segment,
        scale=geometry.scale,
    )


def geometric_dkp(
    theta: JointAngles | Sequence[float],
    curve: CouplerCurve | None = None,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> DkSolutionSet:
    """Direct kinematics by intersecting the coupler curve with leg 3's axis.

    The signed distance of B3 from the third slider line vanishes at every
    assembly; with the trivial one's factor 2 sin(phi / 2) divided out
    (:func:`_half_angle_offset`) it changes sign once per half cycle of
    psi = phi / 2, at the second.  That sign change is bracketed at half the
    curve's orientations (the wrap pair included: the function is
    antiperiodic), bisected to 1e-12 in phi and mapped to a pose through
    rho1.  Shares no root formulas with the closed-form solver, which is
    the point: the two routes are compared in tests and by the verifier.

    Returns the same solution-set type as the closed-form path, with its
    DEGENERATE and coincident rules, so kinds and continua compare
    directly.  Triples the angle predicates put on a continuum return
    before any curve is traced.
    """
    t = _as_angles(theta)
    m, n = _mn(*t)
    kind = _DK_KINDS[_continuum(*t)]
    if kind is DkKind.CONTINUUM_TRANSLATION:
        return DkSolutionSet(kind, (_TRIVIAL,), m, n, continuum=_leg1_line(t[0]))

    if curve is not None and (
        abs(curve.theta1 - normalize_angle(t[0])) > 1e-12
        or abs(curve.theta2 - normalize_angle(t[1])) > 1e-12
        or curve.scale != geometry.scale
    ):
        raise ValueError("curve was traced for different angles or geometry")
    if kind is DkKind.CONTINUUM_REULEAUX:  # the reference point runs on leg 1's line
        return DkSolutionSet(kind, (_TRIVIAL,), m, n, continuum=_leg1_line(t[0]))
    if curve is None:
        curve = trace_cardanic(t[0], t[1], geometry=geometry)

    dist, _ = _axis_offset(curve.b3[:, 0], curve.b3[:, 1], t[2], geometry)
    on_line = float(np.abs(dist).max()) < COLLINEARITY_TOL * geometry.scale
    if curve.degenerate and on_line:
        # The whole segment lies on the third axis: the same self motion,
        # found by measurement where the angle predicate missed it.
        line = _leg1_line(t[0])
        return DkSolutionSet(DkKind.CONTINUUM_REULEAUX, (_TRIVIAL,), m, n, continuum=line)
    if m * m + n * n <= REDUCTION_NULL_TOL:
        return DkSolutionSet(DkKind.DEGENERATE, (_TRIVIAL,), m, n)

    t1, t2 = curve.theta1, curve.theta2
    offset = _half_angle_offset(t1, t2, t[2], geometry)
    psi = 0.5 * curve.phi
    values = offset(np.cos(psi), np.sin(psi))
    # The sample after the last is psi[0] + pi, where the value is -values[0].
    below = values < 0.0
    k = int(np.argmax(below != np.append(below[1:], not below[0])))
    hi = float(psi[k + 1]) if k + 1 < psi.size else float(psi[0]) + math.pi
    psi2 = _bisect(lambda p: offset(math.cos(p), math.sin(p)), float(psi[k]), hi, float(values[k]))
    phi2 = normalize_angle(2.0 * psi2)
    rho1, _ = rho_from_phi(t1, t2, phi2, geometry)
    second = Pose(rho1 * math.cos(t1), rho1 * math.sin(t1), phi2)
    coincident = abs(phi2) < DEGENERACY_ANGLE_TOL
    return DkSolutionSet(DkKind.TWO_SOLUTIONS, (_TRIVIAL, second), m, n, coincident=coincident)


def _half_angle_offset(t1: float, t2: float, t3: float, geometry: ManipulatorGeometry):
    """(cos(psi), sin(psi)) -> (B3 - a3) x v3 / (2 sin(psi)) at psi = phi / 2,
    floats or arrays.

    With a1 at the origin, B3 - a3 = rho1 v1 + (R(phi) - I) a3; the chord
    identities (R(phi) - I) a = 2 sin(psi) R(psi + pi/2) a and
    rho1 = 2 sin(psi) s cos(t2 - psi) / sin(t2 - t1) take the factor out of
    both terms with no cancellation.
    """
    a3 = geometry.base_anchor(3)
    per_sin = geometry.scale / math.sin(t2 - t1)
    c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)

    def offset(c, s):
        rho = per_sin * (c2 * c + s2 * s)
        # R(psi + pi/2) a3 = (-a3.y c - a3.x s, a3.x c - a3.y s)
        return _leg_axis(t3, rho * c1 - a3.y * c - a3.x * s, rho * s1 + a3.x * c - a3.y * s)[2]

    return offset


def _bisect(func, lo: float, hi: float, flo: float, tol: float = 5e-13) -> float:
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reuleaux_descriptor(
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> ReuleauxDescriptor:
    """Measure the straight-line self-motion constants by a full-cycle sweep.

    For qualifying angles every orientation is admissible, each vertex b_i
    slides on the line through a_i, and the signed extensions rho_i(phi)
    are first-harmonic functions vanishing at phi = 0.  The sweep measures:

    * ``a_displacement_magnitude``: full-cycle extent max - min of each
      rho_i (the three agree; their mean is reported);
    * ``p_line``: the longest stroke of the reference point P = b1 along
      an arc free of interior serial singularities.  Zeros of any rho_i
      bound such arcs (crossing one reverses a slider), so the cycle is
      partitioned at all zeros and the P extent is maximized over the
      pieces.  For the unit geometry this stroke is 2 and the full-cycle
      travel is 4*sqrt(3)/3; both scale linearly.

    Raises :class:`NotReuleauxError` when the angle predicate fails or the
    sweep finds the third vertex off its slider line.
    """
    t = _as_angles(theta)
    if _DK_KINDS[_continuum(*t)] is not DkKind.CONTINUUM_REULEAUX:
        raise NotReuleauxError(
            f"angles {t} do not satisfy the straight-line degeneracy condition"
        )
    s = geometry.scale
    phis = _cycle_grid(_REULEAUX_SAMPLES)

    rho1, rho2, b3x, b3y = _slider_loop(t[0], t[1], phis, geometry)
    off, rho3 = _axis_offset(b3x, b3y, t[2], geometry)
    rho = np.stack((rho1, rho2, rho3))
    off_line = float(np.abs(off).max())
    if off_line > 1e-6 * s:
        raise NotReuleauxError(
            f"third vertex leaves its slider line by {off_line:.3e}; "
            "the motion is not a straight-line continuum"
        )

    # Each extension has the form a (1 - cos phi) + b sin phi; a and b are
    # recovered exactly by discrete Fourier projection on the uniform grid.
    sin_g = np.sin(phis)
    coeff_a = rho.mean(axis=1)
    coeff_b = 2.0 * (rho * sin_g).mean(axis=1)

    extents = 2.0 * np.hypot(coeff_a, coeff_b)
    displacement = float(extents.mean())

    # Zeros of a (1 - cos phi) + b sin phi: phi = 0 and 2 atan2(-b, a).
    boundaries = {0.0}
    for a_i, b_i in zip(coeff_a, coeff_b):
        boundaries.add(normalize_angle(2.0 * math.atan2(-b_i, a_i)))
    cuts = _dedupe_angles(sorted(boundaries))

    best = None
    a1, b1 = float(coeff_a[0]), float(coeff_b[0])
    for idx in range(len(cuts)):
        lo = cuts[idx]
        hi = cuts[(idx + 1) % len(cuts)]
        if idx + 1 == len(cuts):
            hi += 2.0 * math.pi
        lo_v, hi_v = _rho_extremes_on_arc(a1, b1, lo, hi)
        stroke = hi_v - lo_v
        if best is None or stroke > best[0]:
            best = (stroke, lo_v, hi_v)

    stroke, lo_v, hi_v = best
    line = _leg1_line(t[0])
    mid = 0.5 * (lo_v + hi_v)
    p_line = SegmentDescriptor(
        point=Vec2(line.point.x + mid * line.direction.x, line.point.y + mid * line.direction.y),
        direction=line.direction,
        half_length=0.5 * stroke,
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


def _dedupe_angles(angles: list[float], tol: float = 1e-9) -> list[float]:
    """Collapse near-identical cycle positions, including the +-pi seam."""
    out: list[float] = []
    for a in angles:
        if out and a - out[-1] < tol:
            continue
        out.append(a)
    if len(out) > 1 and (out[0] + 2.0 * math.pi) - out[-1] < tol:
        out.pop()
    return out
