"""The ``verify`` command's self-checks, private to the CLI: closed-form direct
kinematics against the oracle's scan, the Jacobian against complex-step columns,
coupler curves and trace CSVs against the anchors.  The oracle imports none of it.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from functools import partial

import numpy as np

from .coupler import MIN_CURVE_SAMPLES, _cycle_grid, _cycle_phi, rho_from_phi, trace_cardanic
from .errors import DegenerateLegPairError, LegAtAnchorError, SingularNearbyError
from .geometry import (
    PAIR_SIN_TOL, POSE_TOL, ManipulatorGeometry, Pose, _leg_axis, _libm, _place_anchors,
    _pose_set_deviation, normalize_angles,
)
from .jacobians import FAR_POSE_TOL, _configuration, _is_parallel
from .oracle import _jacobian_cs_error, dkp_bruteforce
from .solvers import DkKind, direct_kinematics, inverse_kinematics


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
        fields["trace_csv"] = _recheck_trace_csv(csv_path, failures)
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
    if closed.m * closed.m + closed.n * closed.n < 1e-8:
        return None  # keep checks away from the degeneracy threshold
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
    if min(sol.rhos()) < 0.05 * s:
        return None
    theta = sol.angles.as_tuple()
    rows, rhos, det_a, *_ = _configuration(pose, theta, geom)
    if _is_parallel(det_a, s, tol=5e-6):
        return None
    try:
        err = _jacobian_cs_error(pose, theta, geom, (rows, rhos, det_a))
    except SingularNearbyError:
        return None
    if err > 1e-9:
        raise _TrialFailure(f"jacobian error {err:.3e} at pose={pose.as_tuple()}")
    return err


def _curves_trial(rng, geom) -> float | None:
    """Worst gap, in units of the scale, of one whole curve (:func:`_curve_gaps`),
    whose ends at phi = -pi and pi must meet within its last sample's gate."""
    t1, t2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    try:
        curve = trace_cardanic(t1, t2, n_samples=360, geometry=geom)
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


def _curve_gaps(t1: float, t2: float, cos_phi, sin_phi, b3, rho, geometry: ManipulatorGeometry):
    """(gap, gate) per sample of a coupler-curve table for leg angles t1, t2,
    libm's cos and sin of normalized phi, b3 and rho; gap <= gate passes.

    The reference point sits at rho1 along leg 1's line; the geometry's
    anchor 2 must then lie on leg 2's line at extension rho2, and anchor 3
    on b3, independently of the curve formulas.  A sample rounds like the
    loop-closure table, of size scale / |sin(t2 - t1)|, or like its own
    values where larger; parallel legs (``PAIR_SIN_TOL``) get a nan gate.
    """
    # Leg 1's slider line runs through a1, the origin; only anchors 2 and 3 are placed.
    x, y = rho[:, 0] * math.cos(t1), rho[:, 0] * math.sin(t1)
    (*_, dx2, dy2), (bx3, by3, _, _) = _place_anchors(x, y, cos_phi, sin_phi, geometry.anchors[1:])
    _, _, r2, e2 = _leg_axis(t2, dx2, dy2)
    miss3 = _libm(math.hypot, bx3 - b3[:, 0], by3 - b3[:, 1])
    gap = np.maximum.reduce([np.abs(r2), np.abs(rho[:, 1] - e2), miss3])
    sin12 = abs(math.sin(t2 - t1))
    size = geometry.scale / sin12 if sin12 >= PAIR_SIN_TOL else math.nan
    return gap, FAR_POSE_TOL * np.maximum(size, np.maximum.reduce(np.abs([*b3.T, *rho.T])))


def _trace_header(deg: bool) -> list[str]:
    """Trace CSV header: the angle columns name their unit, and the last
    column records the scale the curve was traced at."""
    unit = "_deg" if deg else ""
    return [f"theta1{unit}", f"theta2{unit}", f"phi{unit}", "x", "y", "rho1", "rho2", "scale"]


def _recheck_trace_csv(path: str, failures: list[str]) -> dict:
    """Recheck a ``trace`` CSV as one curve: row 1's theta1, theta2 and scale
    on every row, phi on the :func:`_cycle_phi` grid of the row count, and the
    columns through :func:`_curve_gaps` in radians.  Report the rows checked,
    up to the first that breaks a rule (its FAIL line names it), and their
    worst deviation in units of the scale.  A file ``trace`` does not write
    (not UTF-8 CSV, under ``MIN_CURVE_SAMPLES`` rows, another header, a row
    that is not eight finite numbers, a first scale out of range) raises OSError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise OSError(f"{path}: not a trace CSV: {exc}") from None
    if len(lines) <= MIN_CURVE_SAMPLES:
        raise OSError(f"{path}: fewer than {MIN_CURVE_SAMPLES} data rows")
    header, *rows = lines
    deg = header == _trace_header(True)
    if not deg and header != _trace_header(False):
        raise OSError(f"{path}: header {','.join(header)!r} is not a trace CSV header")
    table = []
    for idx, row in enumerate(rows, 1):
        try:
            values = [float(v) for v in row]
            if len(values) != 8 or not all(map(math.isfinite, values)):
                raise ValueError
            if not table:
                geom = ManipulatorGeometry(values[-1])
        except ValueError:
            raise OSError(f"{path}: malformed row {idx}") from None
        table.append(values)
    table = np.array(table)
    angles = np.radians(table[:, :3]) if deg else table[:, :3]
    phi = normalize_angles(angles[:, 2])
    trig = _libm(math.cos, phi), _libm(math.sin, phi)
    gap, gate = _curve_gaps(*angles[0, :2], *trig, table[:, 3:5], table[:, 5:7], geom)
    gap = np.maximum(gap, np.abs(table[:, 7] - geom.scale))
    grid = _cycle_phi(len(table))
    moved = (table[:, [0, 1, 7]] != table[0, [0, 1, 7]]).any(axis=1)
    off_grid = table[:, 2] != (np.degrees(grid) if deg else grid)
    bad = np.flatnonzero(moved | off_grid | ~(gap <= gate))
    checked = int(bad[0]) + 1 if bad.size else len(table)
    if bad.size:
        k, n = checked - 1, len(table)
        rule = f"has phi off the {n}-sample grid" if off_grid[k] else f"deviates by {gap[k]:.3e}"
        rule = "differs from row 1 in theta1, theta2 or scale" if moved[k] else rule
        failures.append(f"trace csv row {checked} {rule}")
    worst = float(gap[:checked].max()) / geom.scale
    return {"passed": not bad.size, "rows": checked, "max_deviation": worst}
