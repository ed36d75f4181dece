"""Independent references the tests compare the package against.

No command, module or workload of the package runs these, so they live with
the tests: a rotation matrix, a scalar angle distance, the signed leg
extensions, det A in closed form at the identity pose, a finite-difference
Jacobian check, a coupler-curve table's misses by per-sample hypot, verify's
curves scope one draw at a time and the oracle's direct-kinematics scan on
six columns, on the package's private helpers where they share one.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from rpr3.coupler import _cycle_grid, rho_from_phi, trace_cardanic
from rpr3.errors import DegenerateLegPairError, GeometryError
from rpr3.geometry import (
    _FLOATS,
    DEFAULT_GEOMETRY,
    PAIR_SIN_TOL,
    TAU,
    JointAngles,
    ManipulatorGeometry,
    Pose,
    _as_angles,
    _best_pair,
    _finite_rho,
    _leg_axis,
    _place_anchors,
)
from rpr3.oracle import (
    _CONTINUUM_RESIDUAL,
    _SCAN_SAMPLES,
    CONTINUUM_GRID_FRACTION,
    ScanReport,
    _analytic_map,
    _leg_rows,
    _polish_candidates,
    _relative_error,
    _resolved,
)
from rpr3.solvers import _mn
from rpr3.trace import _curve_gaps
from rpr3.verify import CURVE_SAMPLES, _TrialFailure


def angle_difference(a: float, b: float, period: float = TAU) -> float:
    """Distance from ``a`` to ``b`` modulo ``period``, in [0, period/2]."""
    return abs(math.remainder(a - b, period))


def rotation_matrix(phi: float) -> np.ndarray:
    """2x2 rotation by ``phi``."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array(((c, -s), (s, c)))


def signed_extensions(
    pose: Pose,
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> tuple[float, float, float]:
    """Prismatic extension of each leg, signed along its direction vector.

    rho_i = (cos theta_i, sin theta_i) . (b_i - a_i).  Negative when the
    platform anchor lies behind the base anchor relative to the leg
    direction.  Complements :func:`constraint_residuals`: residual and
    signed extension are the transverse and longitudinal components of the
    same anchor offset.
    """
    c, s = math.cos(pose.phi), math.sin(pose.phi)
    legs = _place_anchors(pose.x, pose.y, c, s, geometry._anchor_pairs)
    rhos = tuple(
        _leg_axis(_FLOATS, t, dx, dy)[3] for t, (*_, dx, dy) in zip(_as_angles(theta), legs)
    )
    for rho in rhos:
        _finite_rho(rho)
    return rhos


def det_A_specialized(
    theta: JointAngles | Sequence[float],
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> float:
    """Closed-form det A at the identity pose: scale * n / 2, computed from
    n of :func:`mn_coefficients`.

    At the trivial assembly the platform anchors sit on the base anchors,
    and every other assembly of theta has det A = -scale * n / 2 (derived
    there).  It is the closed-form reference for det A = s * n / 2 that
    ``build_matrices(identity, theta).det_a``, which expands A along its
    moment-arm column, matches to machine precision.
    """
    return geometry.scale / 2.0 * _mn(*_as_angles(theta))[1]


def jacobian_fd_check(
    pose: Pose,
    theta: JointAngles | Sequence[float],
    step: float = 1e-6,
    geometry: ManipulatorGeometry = DEFAULT_GEOMETRY,
) -> float:
    """Relative error between the analytic velocity map and finite differences.

    Columns of J = A^-1 B are compared against central differences of the
    pose re-solved after perturbing each actuated angle by +-step, by the
    scan's Newton (Cramer's rule on floats) to 1e-14 times the scale.
    Returns ||J_fd - J||_F / ||J||_F, with the position rows of both in
    units of the scale.

    Raises :class:`SingularNearbyError` when the configuration is parallel
    singular or a perturbed re-solve fails to converge; FD columns are
    meaningless there.  Raises ``ValueError`` unless ``step`` is finite and
    positive.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and positive, got {step!r}")
    t, s, width = _as_angles(theta), geometry.scale, 2.0 * step
    analytic = _analytic_map(pose, t, geometry)
    columns = []
    for leg in range(3):
        plus, minus = [_resolved(pose, t, leg, shift, geometry) for shift in (step, -step)]
        dx, dy, dphi = (a - b for a, b in zip(plus, minus))
        columns.append((dx / width / s, dy / width / s, math.remainder(dphi, math.tau) / width))
    return _relative_error(columns, analytic)


def curve_misses(t1: float, t2: float, cos_phi, sin_phi, rho1, rho2, b3x, b3y, geometry):
    """The three misses per sample that ``trace._curve_gaps`` takes the
    largest of, for one curve: |r2| off leg 2's line, |rho2 - e2| along it,
    and anchor 3's miss from b3 by one ``math.hypot`` call per sample."""
    x, y = rho1 * math.cos(t1), rho1 * math.sin(t1)
    anchors_2_3 = geometry._anchor_pairs[1:]
    (*_, dx2, dy2), (bx3, by3, _, _) = _place_anchors(x, y, cos_phi, sin_phi, anchors_2_3)
    _, _, r2, e2 = _leg_axis(_FLOATS, t2, dx2, dy2)
    miss3 = [math.hypot(dx, dy) for dx, dy in zip(bx3 - b3x, by3 - b3y)]
    return np.abs(r2), np.abs(rho2 - e2), np.array(miss3)


def curves_trial(rng, geom: ManipulatorGeometry) -> float | None:
    """verify's curves trial one draw at a time: the worst gap, in units of
    the scale, of one curve that ``trace_cardanic`` samples, checked as one
    row by ``trace._curve_gaps``; its ends at phi = -pi and pi must meet
    within its last sample's gate.  None for parallel legs."""
    t1, t2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    try:
        curve = trace_cardanic(t1, t2, n_samples=CURVE_SAMPLES, geometry=geom)
    except DegenerateLegPairError:
        return None
    _, cos_phi, sin_phi = _cycle_grid(len(curve.phi))
    columns = (*curve.rho.T, *curve.b3.T)
    gap, gate = _curve_gaps(_FLOATS, curve.theta1, curve.theta2, cos_phi, sin_phi, *columns, geom)
    bad = np.flatnonzero(~(gap <= gate))
    if bad.size:
        k = bad[0]
        raise _TrialFailure(
            f"curve residual {gap[k]:.3e} at theta=({t1}, {t2}), phi={float(curve.phi[k])}"
        )
    ends = (rho_from_phi(t1, t2, phi, geometry=geom) for phi in (-math.pi, math.pi))
    closure = max(abs(lo - hi) for lo, hi in zip(*ends))
    if not closure <= gate[-1]:
        raise _TrialFailure(f"curve closure {closure:.3e} at theta=({t1}, {t2})")
    return float(gap.max()) / geom.scale


def curves_draws(rng, geom: ManipulatorGeometry, trials: int, cap: int):
    """The results of up to ``cap`` :func:`curves_trial` draws, taken lazily,
    in the place of verify's blocks."""
    return (curves_trial(rng, geom) for _ in range(cap))


def scan_columns(t, geometry: ManipulatorGeometry, cos_a, sin_a):
    """x, y and the scan function per sample of the oracle's scan at checked
    angles ``t``, from cos and sin columns of alpha: the rotated anchors of all
    three legs as six columns, each leg's deflated residual e, the pair's
    Cramer solve for q = (x, y) and the left-out leg's residual."""
    i, j, k = _best_pair(t)
    det = math.sin(t[j] - t[i])
    e = [st * (0.0 + cos_a * ax - sin_a * ay) - ct * (0.0 + sin_a * ax + cos_a * ay)
         for st, ct, (ax, ay) in _leg_rows(t, geometry)]
    x = (e[i] * math.cos(t[j]) - e[j] * math.cos(t[i])) / det
    y = (e[i] * math.sin(t[j]) - e[j] * math.sin(t[i])) / det
    return x, y, math.sin(t[k]) * x - math.cos(t[k]) * y + e[k]


def bracket_candidates(leftover, x, y, phis, step):
    """Newton starts at the scan function's exact zeros and sign changes,
    wrap-aware, by whole-array comparisons, from position columns."""
    with np.errstate(over="ignore"):
        wrapped = np.concatenate((leftover[1:], leftover[:1]))
        picks = np.flatnonzero((leftover == 0.0) | (leftover * wrapped < 0.0))
    candidates = []
    for a in picks.tolist():
        b = (a + 1) % leftover.size
        if leftover[a] == 0.0:
            candidates.append((float(x[a]), float(y[a]), float(phis[a])))
        else:
            xm, ym = 0.5 * (float(x[a]) + float(x[b])), 0.5 * (float(y[a]) + float(y[b]))
            candidates.append((xm, ym, float(phis[a]) + 0.5 * step))
    return candidates


def scan_bruteforce(
    theta: JointAngles | Sequence[float], geometry: ManipulatorGeometry = DEFAULT_GEOMETRY
) -> tuple[list, ScanReport] | None:
    """The Newton starts and the :class:`ScanReport` of the oracle's scan done
    on full columns: :func:`scan_columns` on numpy's cos and sin of the alpha
    grid, the continuum rule as a grid mean, and :func:`bracket_candidates`;
    the polish is the oracle's own.  None on all-parallel legs."""
    t = _as_angles(theta)
    i, j, _ = _best_pair(t)
    if abs(math.sin(t[j] - t[i])) < PAIR_SIN_TOL:
        return None
    step = 2.0 * math.pi / _SCAN_SAMPLES
    alphas = -math.pi + step * np.arange(1, _SCAN_SAMPLES + 1)
    x, y, leftover = scan_columns(t, geometry, np.cos(alphas), np.sin(alphas))
    near_zero = np.abs(leftover) < _CONTINUUM_RESIDUAL * geometry.scale
    continuum = float(near_zero.mean()) > CONTINUUM_GRID_FRACTION
    if continuum:
        picks = np.flatnonzero(near_zero)
        picks = picks[:: max(1, len(picks) // 64)]
        candidates = [(float(x[p]), float(y[p]), float(alphas[p])) for p in picks]
    else:
        candidates = bracket_candidates(leftover, x, y, alphas, step)
    rows = _leg_rows(t, geometry)
    poses, iters = _polish_candidates(candidates, t, rows, geometry)
    residual = 0.0
    for pose in poses:
        px, py, c, s = pose.x, pose.y, math.cos(pose.phi), math.sin(pose.phi)
        for st, ct, (ax, ay) in rows:
            r = st * (px + c * ax - s * ay - ax) - ct * (py + s * ax + c * ay - ay)
            if not math.isfinite(r):
                raise GeometryError(f"residual must be finite, got {r!r}")
            residual = max(residual, abs(r))
    report = ScanReport(tuple(poses), residual, (_SCAN_SAMPLES, 1), iters, continuum=continuum)
    return candidates, report
