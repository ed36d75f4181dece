"""The ``verify`` command's self-checks, private to the CLI: closed-form direct
kinematics against the oracle's scan, the Jacobian against complex-step columns,
and coupler curves against the anchors; a trace CSV is rechecked by
:func:`rpr3.trace.recheck`.  The oracle imports none of it.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .coupler import _cycle_grid, _loop_coefficients, _slider_loop, rho_from_phi
from .errors import DegenerateLegPairError, LegAtAnchorError, SingularNearbyError
from .geometry import (
    _COLUMNS, POSE_TOL, ManipulatorGeometry, Pose, _pose_set_deviation, normalize_angle,
)
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
# Samples of each curve a curves trial traces and checks, and the most curves
# checked as one block of columns, so that memory is bounded at any trial count.
# A block's (k, CURVE_SAMPLES) float64 column stays under glibc's default
# 128 KiB mmap threshold, so that malloc serves it from the heap, not from a
# fresh mapping whose pages fault in again on every block.
CURVE_SAMPLES = 360
_CURVE_BLOCK = (128 * 1024 - 1) // (CURVE_SAMPLES * 8)


def run(scope: str, trials: int, seed: int, csv_path: str | None, geometry: ManipulatorGeometry):
    """Run ``scope``'s checks ("all": every one), ``trials`` each, and recheck the
    trace CSV at ``csv_path`` if given; return the FAIL lines and the fields."""
    # The stdlib's generator: numpy's import already loaded it, while
    # numpy.random would load its own extensions, hashlib and OpenSSL.
    rng = random.Random(seed)
    failures: list[str] = []
    scopes = {}
    fields = {"seed": seed, "trials": trials, "scopes": scopes}
    cap = trials * 50  # draws a scope may take
    # Each scope's lazy results, with the key of its worst metric, lengths in
    # units of the scale: dkp and jacobian draw one trial at a time.
    for name, results, metric in (
        ("dkp", (_dkp_trial(rng, geometry) for _ in range(cap)), "max_pose_deviation"),
        ("jacobian", (_jacobian_trial(rng, geometry) for _ in range(cap)), "max_jacobian_error"),
        ("curves", _curves_blocks(rng, geometry, trials, cap), "max_residual"),
    ):
        if scope not in ("all", name):
            continue
        scopes[name] = _run_trials(name, metric, trials, cap, results, failures)
    if csv_path:
        fields["trace_csv"] = recheck(csv_path, failures)
    return failures, fields


class _TrialFailure(Exception):
    """A verify trial whose check failed; the message names the input."""


def _run_trials(scope: str, metric: str, trials: int, cap: int, results, failures) -> dict:
    """Read ``results`` until ``trials`` of its draws were checked, keeping
    only their count and worst ``metric``, and report whether the scope passed
    and, if so, that worst value.  ``results`` yields lazily, so that no draw
    is taken past the last one needed: None for a draw skipped, else the
    checked metric.  It raises :class:`_TrialFailure` at a failed check, which
    ends the scope; a scope that runs out of its ``cap`` draws fails too.
    """
    done = 0
    try:
        for value in results:
            if value is not None:
                worst = max(worst, value) if done else value
                done += 1
                if done == trials:
                    return {"passed": True, metric: worst}
        failures.append(f"{scope}: {done} of {trials} trials done in {cap} draws")
    except _TrialFailure as exc:
        failures.append(str(exc))
    return {"passed": False}


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


def _curves_blocks(rng, geom, trials: int, cap: int):
    """Results of up to ``cap`` curves draws, checked by :func:`_curves_block`
    in blocks no larger than the trials still to do."""
    done = 0
    while cap:
        block = _curves_block(rng, geom, min(_CURVE_BLOCK, trials - done, cap))
        cap -= len(block)
        done += len(block) - block.count(None)
        yield from block


def _curves_block(rng, geom, k: int) -> list[float | None]:
    """Draw k (t1, t2) pairs and check their curves as one block: per draw,
    None for parallel legs, else the worst gap of its whole curve in units of
    the scale (:func:`_curve_gaps`, one row per curve), whose ends at
    phi = -pi and pi must meet within its last sample's gate.  The first
    draw that fails, in draw order, raises :class:`_TrialFailure`."""
    pi = math.pi
    draws = [(rng.uniform(-pi, pi), rng.uniform(-pi, pi)) for _ in range(k)]
    results: list[float | None] = [None] * k
    rows, angles, loops = [], [], []
    for i, (t1, t2) in enumerate(draws):
        t = normalize_angle(t1), normalize_angle(t2)
        try:
            loops.append(_loop_coefficients(*t, geom))
        except DegenerateLegPairError:
            continue
        rows.append(i)
        angles.append(t)
    if not rows:
        return results
    phi, cos_phi, sin_phi = _cycle_grid(CURVE_SAMPLES)
    # Each (a, b) pair of the loop tables as (m, 1) columns, against the grid's rows.
    curves = _slider_loop(np.array(loops).transpose(1, 2, 0)[..., None], cos_phi, sin_phi, geom)
    t = np.array(angles)[..., None]
    gap, gate = _curve_gaps(_COLUMNS, t[:, 0], t[:, 1], cos_phi, sin_phi, *curves, geom)
    passed = (gap <= gate).all(axis=1).tolist()
    worst = (gap.max(axis=1) / geom.scale).tolist()
    for row, i in enumerate(rows):
        t1, t2 = draws[i]
        if not passed[row]:
            j = int(np.argmin(gap[row] <= gate[row]))
            raise _TrialFailure(
                f"curve residual {gap[row, j]:.3e} at theta=({t1}, {t2}), phi={float(phi[j])}"
            )
        ends = (rho_from_phi(t1, t2, p, geometry=geom) for p in (-pi, pi))
        closure = max(abs(lo - hi) for lo, hi in zip(*ends))
        if not closure <= gate[row, -1]:
            raise _TrialFailure(f"curve closure {closure:.3e} at theta=({t1}, {t2})")
        results[i] = worst[row]
    return results
