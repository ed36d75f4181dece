"""CSV and SVG artifact writers for the command-line workbench.

Everything here is deliberately dependency-free and deterministic: floats
are written with 17 significant digits in CSV (round-trip exact) and 10 in
SVG coordinates; element order follows insertion order.  Figures share one
fixed viewBox spanning [-1.5, 2.5] in both axes (mathematical orientation,
y up), which covers the unit-scale mechanism with margin.
"""

from __future__ import annotations

import csv
import math
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
    path: str, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> int:
    """Write rows with a header line; floats get 17 significant digits.

    Returns the number of data rows written.
    """
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
            count += 1
    return count


def _cell(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


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


def contour_segments(
    xs: np.ndarray, ys: np.ndarray, values: np.ndarray
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Zero-level segments of a sampled scalar field (marching squares).

    ``values[i, j]`` is the field at (xs[i], ys[j]).  Crossing positions are
    linearly interpolated along cell edges; saddle cells are disambiguated
    by the cell-center sign, which keeps the output deterministic.
    """
    segs: list[tuple[tuple[float, float], tuple[float, float]]] = []
    # Half-open sign classes make corner zeros unambiguous and guarantee an
    # even crossing count around the cell; a cell whose four corners share a
    # class has no crossing.
    upper = values >= 0.0
    mixed = (upper[:-1, :-1] != upper[1:, :-1]) | (upper[1:, :-1] != upper[1:, 1:])
    mixed |= upper[1:, 1:] != upper[:-1, 1:]
    for i, j in zip(*np.nonzero(mixed)):
        corners = (
            (xs[i], ys[j], values[i, j]),
            (xs[i + 1], ys[j], values[i + 1, j]),
            (xs[i + 1], ys[j + 1], values[i + 1, j + 1]),
            (xs[i], ys[j + 1], values[i, j + 1]),
        )
        crossings = []
        for a in range(4):
            x0, y0, v0 = corners[a]
            x1, y1, v1 = corners[(a + 1) % 4]
            if (v0 >= 0.0) != (v1 >= 0.0):
                frac = v0 / (v0 - v1)
                crossings.append(
                    (float(x0 + frac * (x1 - x0)), float(y0 + frac * (y1 - y0)))
                )
        if len(crossings) == 2:
            segs.append((crossings[0], crossings[1]))
        elif len(crossings) == 4:
            # Saddle cell: pair the edges so the contour separates the
            # center's sign class from the opposite corners.
            center = sum(c[2] for c in corners) / 4.0
            if (center >= 0.0) == (corners[0][2] >= 0.0):
                segs.append((crossings[0], crossings[3]))
                segs.append((crossings[1], crossings[2]))
            else:
                segs.append((crossings[0], crossings[1]))
                segs.append((crossings[2], crossings[3]))
    return segs
