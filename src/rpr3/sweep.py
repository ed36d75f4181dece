"""The ``sweep`` command's atlas page, private to the CLI: the det A / det B
columns and kinds of a joint- or cartesian-space grid, written as one CSV,
and the exact parallel-singularity locus drawn on an SVG.  The CLI parses and
checks the axes, then calls :func:`run`; nothing here imports the CLI.
"""

from __future__ import annotations

import math

import numpy as np

from . import figio
from .errors import GeometryError
from .geometry import (
    _COLUMNS, ManipulatorGeometry, _place_anchors, normalize_angle, normalize_angles,
)
from .jacobians import _SINGULARITY_KINDS, SingularityKind, _kind_index, _matrix_columns
from .solvers import _DK_KINDS, _aim_columns, _continuum, _mn

# Each space's axes, in grid order, and those that are angles: --deg
# converts them on input, in the CSV and in the SVG's labels.
AXES = {"joint": ("t1", "t2", "t3"), "cartesian": ("x", "y", "phi")}
ANGLE_AXES = {"t1", "t2", "t3", "phi"}

_HEADER = ("theta1", "theta2", "theta3", "x", "y", "phi", "detA", "detB", "kind")
# The kind column: the label of each classifier index.
_SINGULARITY_LABELS = np.array([kind.value for kind in _SINGULARITY_KINDS], dtype=object)
_SERIAL = _SINGULARITY_KINDS.index(SingularityKind.SERIAL)
_DK_LABELS = np.array([kind.value for kind in _DK_KINDS], dtype=object)
# Most periods of the locus a swept axis may span: each period adds a copy
# of every branch, so this bounds a page's vertices by its grid, not its turns.
MAX_LOCUS_PERIODS = 32


def run(
    space: str, axes, deg: bool, csv_path: str, svg_path: str | None, geometry: ManipulatorGeometry
) -> int:
    """Write the page of ``space`` ("joint" or "cartesian") over ``axes``, the
    values of its three axes in radians, to ``csv_path``, and its locus to
    ``svg_path`` if given (two swept axes); angles are written in degrees if
    ``deg``.  Returns the number of rows.  The locus is solved before any
    file is opened, so its :class:`GeometryError` leaves none behind."""
    locus = _sweep_locus(space == "joint", axes, geometry) if svg_path else None

    # The kernels run on the axes' sparse grid: each column varies along its
    # own axes only, so trig runs once per axis value.  Their results ravel
    # in C order, last axis fastest: the order of the CSV rows.
    grid = np.meshgrid(*axes, indexing="ij", sparse=True)
    if space == "joint":
        # Joint grids are evaluated at the trivial assembly.
        theta, (x, y, phi) = grid, (0.0, 0.0, 0.0)
        legs = _place_anchors(x, y, 1.0, 0.0, geometry._anchor_pairs)  # cos and sin of 0.0
        _, _, det_a, det_b = _matrix_columns(x, y, theta, legs, geometry.scale)
        labels = _DK_LABELS[_continuum(_COLUMNS, *theta)]
    else:
        x, y, phi = grid[0], grid[1], normalize_angles(grid[2])
        legs = _place_anchors(x, y, _COLUMNS.cos(phi), _COLUMNS.sin(phi), geometry._anchor_pairs)
        theta, at_anchor = _aim_columns(legs, geometry.scale)
        # A pose on a base anchor passes the consistency check: its angles
        # come from its own offsets, and its leg shorter than SERIAL_RHO_TOL
        # * scale keeps det B finite.  Its rows are masked after: their angles
        # are undefined, and that leg makes the pose serial singular.
        _, rhos, det_a, det_b = _matrix_columns(x, y, theta, legs, geometry.scale)
        index = np.where(at_anchor, _SERIAL, _kind_index(det_a, rhos, geometry.scale))
        labels = _SINGULARITY_LABELS[index]
        theta = [np.where(at_anchor, math.nan, t) for t in theta]
        det_a, det_b = np.where(at_anchor, math.nan, det_a), np.where(at_anchor, 0.0, det_b)

    out = np.degrees if deg else np.asarray
    columns = (*map(out, theta), x, y, out(phi), det_a, det_b)
    table = np.empty((*det_a.shape, len(columns)))
    for k, column in enumerate(columns):
        table[..., k] = column
    count = figio.write_csv(csv_path, _HEADER, table.reshape(-1, len(columns)), labels.ravel())

    if svg_path:
        _write_sweep_svg(svg_path, deg, AXES[space], axes, locus)
    return count


def _write_sweep_svg(path: str, deg: bool, names, axes, locus) -> None:
    swept = [i for i, a in enumerate(axes) if len(a) > 1]
    lo = figio.VIEW_MIN + 0.2
    hi = figio.VIEW_MAX - 0.2
    canvas = figio.SvgCanvas(title="parallel singularity locus")
    canvas.polyline(
        [(lo, lo), (hi, lo), (hi, hi), (lo, hi)],
        stroke="#000000",
        width=0.008,
        closed=True,
    )
    first, last = (np.array([axes[i][k] for i in swept]) for k in (0, -1))
    for piece in locus:
        # Into the viewBox, each axis's first value at lo.
        points = lo + (hi - lo) * (piece - first) / (last - first)
        canvas.polyline(points, stroke="#c02020", width=0.012)
    for i, drop in zip(swept, (0.08, 0.17)):  # two lines between the frame and the view's edge
        name, axis = names[i], axes[i]
        if deg and name in ANGLE_AXES:  # labelled in the unit given
            axis = np.degrees(axis)
        canvas.text(lo, lo - drop, f"{name}: {axis[0]:.6g} .. {axis[-1]:.6g}")
    canvas.write(path)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _sweep_locus(joint: bool, axes, geometry: ManipulatorGeometry) -> list[np.ndarray]:
    """Parallel-singular locus of a sweep page: (k, 2) polylines of exact
    roots in the units of its swept axes (u, v), the entries of ``axes``
    longer than 1, inside their ranges to rounding and through every
    crossing of a grid line.  Joint pages sit at the trivial assembly, where
    det A = scale * n / 2 and n = (cos u, sin u) N (cos v, sin v).  Cartesian
    pages take branch 000, where det B >= 0 and det A det B is
    -sqrt(3) s^2 sin^2(phi/2) (|p|^2 - 2 p . (I - R(phi)) c), c the anchors'
    centroid: a circle at fixed phi != 0, and with phi swept two roots in
    the position at each phi, bisected to where they meet, and phi = 0.
    :class:`GeometryError` where a branch repeats past two per axis sample
    or ``MAX_LOCUS_PERIODS`` per axis.
    """
    iu, iv = (i for i, a in enumerate(axes) if len(a) > 1)
    u, v, w = axes[iu], axes[iv], float(axes[3 - iu - iv][0])
    box = np.array([sorted((u[0], u[-1])), sorted((v[0], v[-1]))])
    cx, cy = np.mean(geometry._anchor_pairs, axis=0)

    # Trigonometry from libm, as in the array kernels: the figures' bytes
    # then do not depend on numpy's build.
    cos, sin, atan2 = _COLUMNS.cos, _COLUMNS.sin, _COLUMNS.atan2

    def inside(points, slack=0.0):
        return ((box[:, 0] - slack <= points) & (points <= box[:, 1] + slack)).all(axis=-1)

    def acos(z):  # nan where |z| > 1
        return atan2(np.sqrt((1.0 - z) * (1.0 + z)), z)

    def center(phi):  # C(phi) = (I - R(phi)) c
        c, s = cos(phi), sin(phi)
        return np.array((cx - c * cx + s * cy, cy - s * cx - c * cy))

    lines = []
    if joint:
        t = np.full((4, 3), w)
        t[:, [iu, iv]] = np.array([(0, 0), (0, 1), (1, 0), (1, 1)]) * (math.pi / 2)
        n = np.reshape([_mn(*row)[1] for row in t.tolist()], (2, 2))

        def zero(m, s):  # the angle x, mod pi, where (cos s, sin s) m (cos x, sin x) = 0
            a = cos(s)[:, None] * m[0] + sin(s)[:, None] * m[1]
            return atan2(-a[:, 0], a[:, 1])

        r = zero(n.T, v)
        s = _merged(u, r[:, None] + _repeats(r, box[0], math.pi, len(u)))
        root = zero(n, s)  # unwrapped along s: steps of less than pi/2
        root -= math.pi * np.cumsum(np.round(np.diff(root, prepend=root[0]) / math.pi))
        root = root + _repeats(root, box[1], math.pi, len(v))[:, None]
        rows = np.stack(np.broadcast_arrays(s, root), axis=-1)
    elif iv == 1:  # phi fixed
        if normalize_angle(w) == 0.0:
            return []  # every pose of the page is parallel singular
        mid = center(normalize_angle(w))
        r = math.hypot(*mid)
        # The circle meets grid line x = b where cos(s) = (b - C_x) / r, and
        # y = b where sin(s) = cos(s - pi/2) = (b - C_y) / r.
        ax, ay = acos((u - mid[0]) / r), acos((v - mid[1]) / r)
        s = np.concatenate((ax, -ax, math.pi / 2 + ay, math.pi / 2 - ay))
        s = (s[~np.isnan(s)] + math.pi) % (2 * math.pi) - math.pi
        s = _merged(np.linspace(-math.pi, math.pi, 65), s)
        rows = (mid + r * np.array([cos(s), sin(s)]).T)[None]
    else:

        def roots(phi):  # the two roots in the swept position at each phi
            mid, other = center(phi)[[iu, 1 - iu]]
            root = mid + [[1.0], [-1.0]] * np.sqrt(mid * mid + 2.0 * w * other - w * w)
            if w == 0.0:  # the other root is a1 at every phi: anchor hits, no det A
                root = np.array([2.0 * mid, np.nan * mid])
            return np.stack(np.broadcast_arrays(root, phi), axis=-1)

        # The crossings of the grid lines p: p . R(phi) c = p . c - |p|^2 / 2.
        px, py = (u, w) if iu == 0 else (w, u)
        dot, cross = px * cx + py * cy, py * cx - px * cy
        half = acos((dot - (px * px + py * py) / 2.0) / _COLUMNS.hypot(dot, cross))
        r = (atan2(cross, dot) + [half, -half]).ravel()
        r = r[~np.isnan(r)]
        # phi = 0 joins the parameters: every circle shrinks to a1 there, so
        # a gap without roots around it may fall between two samples.
        zeros = _repeats(np.zeros(1), box[1], 2 * math.pi, len(v))
        s = _merged(v, zeros, r[:, None] + _repeats(r, box[1], 2 * math.pi, len(v)))
        ok = inside(roots(s))
        k, i = np.nonzero(ok[:, :-1] != ok[:, 1:])
        inner, outer = np.where(ok[k, i], s[i], s[i + 1]), np.where(ok[k, i], s[i + 1], s[i])
        for _ in range(64):
            phi = inner + 0.5 * (outer - inner)
            good = inside(roots(phi)[k, np.arange(len(k))])
            inner, outer = np.where(good, phi, inner), np.where(good, outer, phi)
        rows = roots(_merged(s, inner))
        lines = [np.array([box[0], (phi, phi)]).T for phi in zeros]
    # The runs of two or more points inside the page, rows apart; a root
    # solved on a side may round past it.
    slack = 1e-12 * np.abs(box).max(axis=1)
    points = np.concatenate((rows, np.full((len(rows), 1, 2), np.nan)), axis=1).reshape(-1, 2)
    ok = inside(points, slack)
    cuts = np.flatnonzero(ok[:-1] != ok[1:]) + 1
    runs = zip(np.split(points, cuts), ok[np.r_[0, cuts]] if ok.size else ())
    return [p for p, keep in runs if keep and len(p) > 1] + lines


def _repeats(r: np.ndarray, span, period: float, samples: int) -> np.ndarray:
    """The multiples of ``period`` that can move a value of ``r`` into
    ``span``, which may hold at most two periods per sample of its axis and
    ``MAX_LOCUS_PERIODS`` in all."""
    if span[1] - span[0] > min(2 * samples, MAX_LOCUS_PERIODS) * period:
        cap = f"twice per sample of an axis or {MAX_LOCUS_PERIODS} times across it"
        raise GeometryError(f"the singularity locus repeats more than {cap}")
    if not r.size:
        return r
    first, last = math.ceil((span[0] - r.max()) / period), math.floor((span[1] - r.min()) / period)
    return period * (float(first) + np.arange(last - first + 1))


def _merged(*parts: np.ndarray) -> np.ndarray:
    """The distinct values of ``parts`` in ascending order, sorted by Python:
    ``figio.write_csv``'s ``np.unique`` already pages numpy's int64 sort into
    every sweep, and this keeps its float64 sort out."""
    return np.array(sorted(set(np.concatenate(parts, axis=None).tolist())))
