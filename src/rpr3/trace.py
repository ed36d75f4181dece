"""The ``trace`` command's page, private to the CLI: the third anchor's coupler
curve for two fixed leg angles, written as one CSV and an optional SVG, and the
recheck of such a CSV (``verify --csv``).  Nothing here imports the CLI or verify.
"""

from __future__ import annotations

import csv
import math
from itertools import chain

import numpy as np

from . import figio
from .coupler import MIN_CURVE_SAMPLES, _cycle_phi, trace_cardanic
from .geometry import (
    _COLUMNS, _FLOATS, PAIR_SIN_TOL, ManipulatorGeometry, _leg_axis, _place_anchors,
    normalize_angles,
)
from .jacobians import FAR_POSE_TOL


def run(t1, t2, samples: int, deg: bool, csv_path, svg_path, geom: ManipulatorGeometry):
    """Trace the curve, write its CSV (angles in degrees if ``deg``) and any SVG; return it."""
    curve = trace_cardanic(t1, t2, n_samples=samples, geometry=geom)
    # Written and reported in (-pi, pi]: the CSV rechecks against the curve's own angles.
    t1, t2 = curve.theta1, curve.theta2
    out = np.degrees if deg else np.asarray
    n = len(curve.phi)
    thetas = np.broadcast_to(out([t1, t2]), (n, 2))
    table = np.column_stack((thetas, out(curve.phi), curve.b3, curve.rho, np.full(n, geom.scale)))
    figio.write_csv(csv_path, _trace_header(deg), table)

    if svg_path:
        canvas = figio.SvgCanvas(title="third-anchor coupler curve")
        anchors = geom._anchor_pairs
        _draw_base(canvas, anchors)
        _draw_slider_axis(canvas, anchors[0], t1)
        _draw_slider_axis(canvas, anchors[1], t2)
        # Every k-th sample, k the least stride that fits the vertex cap,
        # and the last: a page within the cap draws every sample.
        k = -(-(n - 1) // (figio.MAX_SVG_AXIS_POINTS - 1))
        points = np.vstack((curve.b3[:-1:k], curve.b3[-1:]))
        canvas.polyline(points, stroke="#c02020", width=0.015)
        if curve.degenerate:
            end_a, end_b = curve.segment
            canvas.line(
                end_a.x, end_a.y, end_b.x, end_b.y, stroke="#2020c0", width=0.02
            )
        canvas.write(svg_path)
    return curve


def _draw_base(canvas: figio.SvgCanvas, anchors) -> None:
    canvas.polyline(anchors, stroke="#808080", width=0.008, closed=True)
    for ax, ay in anchors:
        canvas.circle(ax, ay, 0.025)


def _draw_slider_axis(canvas, anchor, theta: float) -> None:
    reach, (ax, ay) = 6.0, anchor
    dx, dy = math.cos(theta), math.sin(theta)
    canvas.line(
        ax - reach * dx,
        ay - reach * dy,
        ax + reach * dx,
        ay + reach * dy,
        stroke="#b0b0b0",
        width=0.006,
        dash="0.04,0.04",
    )


def _curve_gaps(f, t1, t2, cos_phi, sin_phi, rho1, rho2, b3x, b3y, geometry: ManipulatorGeometry):
    """(gap, gate) per sample of coupler-curve columns, in form ``f`` of the
    leg angles t1, t2: floats with (n,) columns rho1, rho2, b3x and b3y, or
    (k, 1) columns with (k, n) ones, a curve per row; cos_phi and sin_phi
    are libm's of normalized phi, (n,).  gap <= gate passes.

    The reference point sits at rho1 along leg 1's line; the geometry's
    anchor 2 must then lie on leg 2's line at extension rho2, and anchor 3
    on b3, independently of the curve formulas.  A sample rounds like the
    loop-closure table, of size scale / |sin(t2 - t1)|, or like its own
    values where larger; parallel legs (``PAIR_SIN_TOL``) get a nan gate.

    Anchor 3's miss is sqrt(mx² + my²) in IEEE arithmetic, which rounds alike
    on every platform; where the squares overflow it is math.hypot's.  On a
    traced curve the miss is a few ulps of the table's values and has
    math.hypot's bits; on an edited table it may differ in the last place.
    """
    # Leg 1's slider line runs through a1, the origin; only anchors 2 and 3 are placed.
    x, y = rho1 * f.cos(t1), rho1 * f.sin(t1)
    anchors_2_3 = geometry._anchor_pairs[1:]
    (*_, dx2, dy2), (bx3, by3, _, _) = _place_anchors(x, y, cos_phi, sin_phi, anchors_2_3)
    _, _, r2, e2 = _leg_axis(f, t2, dx2, dy2)
    mx, my = bx3 - b3x, by3 - b3y
    with np.errstate(over="ignore"):
        miss3 = np.sqrt(mx * mx + my * my)
    big = np.isinf(miss3)  # squares past the largest float
    if big.any():
        miss3[big] = _COLUMNS.hypot(mx[big], my[big])
    gap = np.maximum(np.maximum(np.abs(r2), np.abs(rho2 - e2)), miss3)
    sin12 = abs(f.sin(t2 - t1))
    size = geometry.scale / np.where(sin12 >= PAIR_SIN_TOL, sin12, math.nan)
    # One column at a time: a stack of the strided columns would copy them.
    largest = np.maximum(np.maximum(np.abs(b3x), np.abs(b3y)), np.abs(rho1))
    return gap, FAR_POSE_TOL * np.maximum(size, np.maximum(largest, np.abs(rho2)))


def _trace_header(deg: bool) -> list[str]:
    """Trace CSV header: the angle columns name their unit, and the last
    column records the scale the curve was traced at."""
    unit = "_deg" if deg else ""
    return [f"theta1{unit}", f"theta2{unit}", f"phi{unit}", "x", "y", "rho1", "rho2", "scale"]


def recheck(path: str, failures: list[str]) -> dict:
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
    try:  # one float() per cell; rows are parsed one by one only to name a malformed one
        table = np.fromiter(map(float, chain.from_iterable(rows)), float).reshape(-1, 8)
        if set(map(len, rows)) != {8} or not np.isfinite(table).all():
            raise ValueError
        geom = ManipulatorGeometry(table.item(7))
    except ValueError:
        for idx, row in enumerate(rows, 1):
            try:
                values = [float(v) for v in row]
                if len(values) != 8 or not all(map(math.isfinite, values)):
                    raise ValueError
                geom = ManipulatorGeometry(values[-1]) if idx == 1 else geom
            except ValueError:
                raise OSError(f"{path}: malformed row {idx}") from None
    angles = np.radians(table[:, :3]) if deg else table[:, :3]
    phi = normalize_angles(angles[:, 2])
    trig, rhos, b3 = (_COLUMNS.cos(phi), _COLUMNS.sin(phi)), table[:, 5:7].T, table[:, 3:5].T
    gap, gate = _curve_gaps(_FLOATS, *angles[0, :2], *trig, *rhos, *b3, geom)
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
