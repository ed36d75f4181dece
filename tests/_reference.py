"""Independent references the tests compare the package against.

No command, module or workload of the package runs these, so they live with
the tests: a rotation matrix, a scalar angle distance, the signed leg
extensions, det A in closed form at the identity pose, a finite-difference
Jacobian check and a coupler-curve table's misses by per-sample hypot, on the
package's private helpers where they share one.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from rpr3.geometry import (
    DEFAULT_GEOMETRY,
    TAU,
    JointAngles,
    ManipulatorGeometry,
    Pose,
    _as_angles,
    _leg_axis,
    _leg_components,
    _place_anchors,
)
from rpr3.oracle import _analytic_map, _relative_error, _resolved
from rpr3.solvers import _mn


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
    return _leg_components(pose, theta, geometry, 3, "rho")


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


def curve_misses(t1: float, t2: float, cos_phi, sin_phi, b3, rho, geometry: ManipulatorGeometry):
    """The three misses per sample that ``trace._curve_gaps`` takes the
    largest of: |r2| off leg 2's line, |rho2 - e2| along it, and anchor 3's
    miss from b3 by one ``math.hypot`` call per sample."""
    x, y = rho[:, 0] * math.cos(t1), rho[:, 0] * math.sin(t1)
    (*_, dx2, dy2), (bx3, by3, _, _) = _place_anchors(x, y, cos_phi, sin_phi, geometry.anchors[1:])
    _, _, r2, e2 = _leg_axis(t2, dx2, dy2)
    miss3 = [math.hypot(dx, dy) for dx, dy in zip(bx3 - b3[:, 0], by3 - b3[:, 1])]
    return np.abs(r2), np.abs(rho[:, 1] - e2), np.array(miss3)
