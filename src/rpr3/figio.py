"""CSV and SVG artifact writers for the command-line workbench.

Everything here is deliberately dependency-free and deterministic: floats
are written with 17 significant digits in CSV (round-trip exact) and 10 in
SVG coordinates; element order follows insertion order.  Figures share one
fixed viewBox spanning [-1.5, 2.5] in both axes (mathematical orientation,
y up), which covers the unit-scale mechanism with margin.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "VIEW_MIN",
    "VIEW_MAX",
    "write_csv",
    "SvgCanvas",
    "contour_segments",
]

VIEW_MIN = -1.5
VIEW_MAX = 2.5


def write_csv(
    path: str,
    header: Sequence[str],
    table: np.ndarray,
    labels: Iterable[str] | None = None,
) -> int:
    """Write a header line, then one line per row of the (n, k) float
    ``table``, each float with 17 significant digits; ``labels``, when
    given, is one more column of n strings, written unquoted.

    Returns the number of data rows written.
    """
    cells = ["%.17g"] * table.shape[1] + (["%s"] if labels is not None else [])
    template = ",".join(cells) + "\r\n"
    # One row of Python floats at a time keeps the page's memory flat.
    rows = map(np.ndarray.tolist, table)
    if labels is not None:
        rows = (row + [label] for row, label in zip(rows, labels, strict=True))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(template % tuple(row) for row in rows)
    return len(table)


def _num(value: float) -> str:
    # Trim to keep files small; 10 significant digits is far below a pixel.
    return format(value, ".10g")


class SvgCanvas:
    """Minimal SVG builder in mechanism coordinates (y up).

    Points are flipped to SVG's y-down convention on output; stroke widths
    are in length units.
    """

    def __init__(self, title: str = ""):
        self.title = title
        self._elements: list[str] = []

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        stroke: str = "#000000",
        width: float = 0.01,
        dash: str | None = None,
    ) -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._elements.append(
            f'<line x1="{_num(x1)}" y1="{_num(-y1)}" x2="{_num(x2)}" y2="{_num(-y2)}"'
            f' stroke="{stroke}" stroke-width="{_num(width)}"{dash_attr} />'
        )

    def polyline(
        self,
        points: Iterable[tuple[float, float]],
        stroke: str = "#000000",
        width: float = 0.01,
        closed: bool = False,
    ) -> None:
        coords = " ".join(f"{_num(x)},{_num(-y)}" for x, y in points)
        tag = "polygon" if closed else "polyline"
        self._elements.append(
            f'<{tag} points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{_num(width)}" />'
        )

    def circle(
        self, cx: float, cy: float, r: float, fill: str = "#000000"
    ) -> None:
        self._elements.append(
            f'<circle cx="{_num(cx)}" cy="{_num(-cy)}" r="{_num(r)}" fill="{fill}" />'
        )

    def text(self, x: float, y: float, content: str, size: float = 0.08) -> None:
        self._elements.append(
            f'<text x="{_num(x)}" y="{_num(-y)}" font-size="{_num(size)}"'
            f' font-family="monospace">{_escape(content)}</text>'
        )

    def to_string(self) -> str:
        span = VIEW_MAX - VIEW_MIN
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_num(VIEW_MIN)} {_num(-VIEW_MAX)} {_num(span)} {_num(span)}">\n'
        )
        body = [
            f'<rect x="{_num(VIEW_MIN)}" y="{_num(-VIEW_MAX)}" width="{_num(span)}"'
            f' height="{_num(span)}" fill="#ffffff" />'
        ]
        if self.title:
            body.append(
                f'<title>{_escape(self.title)}</title>'
            )
        body.extend(self._elements)
        return head + "\n".join(body) + "\n</svg>\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_string())


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def contour_segments(xs: np.ndarray, ys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Zero-level segments of a sampled scalar field (marching squares).

    ``values[i, j]`` is the field at (xs[i], ys[j]).  Returns the (k, 4)
    array of segment ends (ax, ay, bx, by), cells in row-major order.
    Crossing positions are linearly interpolated along cell edges; saddle
    cells are disambiguated by the cell-center sign.
    """
    # Half-open sign classes make corner zeros unambiguous and guarantee an
    # even crossing count around the cell; a cell whose four corners share a
    # class has no crossing.
    upper = values >= 0.0
    mixed = (upper[:-1, :-1] != upper[1:, :-1]) | (upper[1:, :-1] != upper[1:, 1:])
    mixed |= upper[1:, 1:] != upper[:-1, 1:]
    i, j = np.nonzero(mixed)
    # Corners counter-clockwise from (i, j), one row per corner; edge a runs
    # from corner a to corner a + 1 (mod 4).
    x0 = np.stack((xs[i], xs[i + 1], xs[i + 1], xs[i]))
    y0 = np.stack((ys[j], ys[j], ys[j + 1], ys[j + 1]))
    v0 = np.stack((values[i, j], values[i + 1, j], values[i + 1, j + 1], values[i, j + 1]))
    x1, y1, v1 = (np.roll(c, -1, axis=0) for c in (x0, y0, v0))
    crosses = (v0 >= 0.0) != (v1 >= 0.0)
    # Edges without a crossing may divide by zero; their points are unused.
    with np.errstate(all="ignore"):
        frac = v0 / (v0 - v1)
        px = x0 + frac * (x1 - x0)
        py = y0 + frac * (y1 - y0)
    # A cell joins its first and last crossing edges.  A saddle cell (four
    # crossings) pairs them so the contour separates the center's sign class
    # from the opposite corners: (0, 3), (1, 2), or on a flip (0, 1), (2, 3).
    first = np.argmax(crosses, axis=0)
    last = 3 - np.argmax(crosses[::-1], axis=0)
    saddle = crosses.all(axis=0)
    center = (((v0[0] + v0[1]) + v0[2]) + v0[3]) / 4.0
    flip = (center >= 0.0) != (v0[0] >= 0.0)
    start = np.stack((first, 1 + flip), axis=1)
    end = np.stack((np.where(saddle & flip, 1, last), 2 + flip), axis=1)
    cell, slot = np.nonzero(np.stack((np.ones_like(saddle), saddle), axis=1))
    a, b = start[cell, slot], end[cell, slot]
    return np.stack((px[a, cell], py[a, cell], px[b, cell], py[b, cell]), axis=1)
