"""The ``verify`` command's self-checks, private to the CLI: closed-form direct
kinematics against the oracle's scan, the Jacobian against complex-step columns,
and coupler curves against the anchors; a trace CSV is rechecked by
:func:`rpr3.trace.recheck`.  The oracle imports none of it.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import partial

import numpy as np

from .coupler import _cycle_grid, rho_from_phi, trace_cardanic
from .errors import DegenerateLegPairError, LegAtAnchorError, SingularNearbyError
from .geometry import POSE_TOL, ManipulatorGeometry, Pose, _pose_set_deviation
from .jacobians import _configuration, _is_parallel
from .oracle import _jacobian_cs_error, dkp_bruteforce
from .solvers import DkKind, direct_kinematics, inverse_kinematics
from .trace import _curve_gaps, recheck

# The trials' gates.  A dkp draw whose (dimensionless) m² + n² is below
# DKP_SKIP_MN2 is skipped, away from the degeneracy threshold.  A jacobian
# draw is skipped when a leg is shorter than JACOBIAN_SKIP_RHO times the scale
# or |det A| is below JACOBIAN_SKIP_DET times it, and fails when its relative
# error against the complex-step columns exceeds JACOBIAN_ERROR_TOL.
DKP_SKIP_MN2 = 1e-8
JACOBIAN_SKIP_RHO = 0.05
JACOBIAN_SKIP_DET = 5e-6
JACOBIAN_ERROR_TOL = 1e-9
# Samples of each curve a curves trial traces and checks.
CURVE_SAMPLES = 360


def run(scope: str, trials: int, seed: int, csv_path: str | None, geometry: ManipulatorGeometry):
    """Run ``scope``'s checks ("all": every one), ``trials`` each, and recheck the
    trace CSV at ``csv_path`` if given; return the FAIL lines and the fields."""
    # The stdlib's generator: numpy's import already loaded it, while
    # numpy.random would load its own extensions, hashlib and OpenSSL.
    rng = random.Random(seed)
    failures: list[str] = []
    scopes = {}
    fields = {"seed": seed, "trials": trials, "scopes": scopes}
    # Each scope with the key of its worst metric, lengths in units of the scale.
    for name, trial, metric in (
        ("dkp", _dkp_trial, "max_pose_deviation"),
        ("jacobian", _jacobian_trial, "max_jacobian_error"),
        ("curves", _curves_trial, "max_residual"),
    ):
        if scope not in ("all", name):
            continue
        scopes[name] = _run_trials(name, metric, trials, partial(trial, rng, geometry), failures)
    if csv_path:
        fields["trace_csv"] = recheck(csv_path, failures)
    return failures, fields


class _TrialFailure(Exception):
    """A verify trial whose check failed; the message names the input."""


def _run_trials(scope: str, metric: str, trials: int, trial, failures: list[str]) -> dict:
    """Run ``trial`` until ``trials`` of its draws were checked, and report
    whether the scope passed and, if so, its worst ``metric``.

    ``trial()`` returns None for a draw it skips, else the checked metric;
    it raises :class:`_TrialFailure` when the check fails, which ends the
    scope.  A scope that runs out of its 50 draws per trial with fewer
    trials done fails too, so that no check passes on fewer trials than
    requested.
    """
    cap = trials * 50
    # Lazy, so that no draw is taken once enough trials are done.
    results = (trial() for _ in range(cap))
    try:
        values = list(itertools.islice((v for v in results if v is not None), trials))
    except _TrialFailure as exc:
        failures.append(str(exc))
        return {"passed": False}
    if len(values) < trials:
        failures.append(f"{scope}: {len(values)} of {trials} trials done in {cap} draws")
        return {"passed": False}
    return {"passed": True, metric: max(values)}


def _dkp_trial(rng, geom) -> float | None:
    pi = math.pi
    theta = (rng.uniform(-pi, pi), rng.uniform(-pi, pi), rng.uniform(-pi, pi))
    closed = direct_kinematics(theta, geometry=geom)
    if closed.m * closed.m + closed.n * closed.n < DKP_SKIP_MN2:
        return None
    if closed.kind is not DkKind.TWO_SOLUTIONS:
        return None
    report = dkp_bruteforce(theta, geometry=geom)
    if len(report.solutions_found) != len(closed.poses):
        raise _TrialFailure(
            f"dkp count mismatch at theta={theta}: closed "
            f"{len(closed.poses)}, scan {len(report.solutions_found)}"
        )
    deviation = _pose_set_deviation(closed.poses, report.solutions_found, geom)
    if deviation > POSE_TOL:
        raise _TrialFailure(f"dkp deviation {deviation:.3e} at theta={theta}")
    return deviation


def _jacobian_trial(rng, geom) -> float | None:
    s = geom.scale
    lo, hi = -0.5 * s, 1.5 * s
    pose = Pose(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))
    try:
        sol = inverse_kinematics(pose, geometry=geom)
    except LegAtAnchorError:
        return None
    if min(sol.rhos()) < JACOBIAN_SKIP_RHO * s:
        return None
    theta = sol.angles.as_tuple()
    rows, rhos, det_a, *_ = _configuration(pose, theta, geom)
    if _is_parallel(det_a, s, tol=JACOBIAN_SKIP_DET):
        return None
    try:
        err = _jacobian_cs_error(pose, theta, geom, (rows, rhos, det_a))
    except SingularNearbyError:
        return None
    if err > JACOBIAN_ERROR_TOL:
        raise _TrialFailure(f"jacobian error {err:.3e} at pose={pose.as_tuple()}")
    return err


def _curves_trial(rng, geom) -> float | None:
    """Worst gap, in units of the scale, of one whole curve (:func:`_curve_gaps`),
    whose ends at phi = -pi and pi must meet within its last sample's gate."""
    t1, t2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    try:
        curve = trace_cardanic(t1, t2, n_samples=CURVE_SAMPLES, geometry=geom)
    except DegenerateLegPairError:
        return None
    _, cos_phi, sin_phi = _cycle_grid(len(curve.phi))
    gap, gate = _curve_gaps(curve.theta1, curve.theta2, cos_phi, sin_phi, curve.b3, curve.rho, geom)
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
