"""CSV and SVG artifact writers for the command-line workbench.

Everything here is deliberately dependency-free and deterministic: floats
are written with 17 significant digits in CSV (round-trip exact) and 10 in
SVG coordinates; element order follows insertion order.  Both write in bulk:
a CSV block's distinct bit patterns, and a polyline's coordinates, go
through one ``%`` call each, and a CSV row, label included, is one join;
the bytes are those of formatting each value on its own.  Figures share one
fixed viewBox spanning [-1.5, 2.5] in both axes (mathematical orientation,
y up), which covers the unit-scale mechanism with margin.  Curves arrive as
exact points (a sweep page's singularity locus comes from
``sweep._sweep_locus``); nothing here samples or contours a field.

An existing artifact is rewritten in place, opened without ``O_TRUNC``:
its inode, mode and links are kept, and the old tail is cut after the last
write (truncating to zero first cost several times the write).  A FIFO,
``/dev/null`` or a tty is written as before, never cut.
"""

from __future__ import annotations

import contextlib
import os
import stat
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "VIEW_MIN",
    "VIEW_MAX",
    "write_csv",
    "SvgCanvas",
]

VIEW_MIN = -1.5
VIEW_MAX = 2.5
# Most samples per swept axis of a sweep page's figure, whose locus grows
# with each, and most vertices of a trace page's curve.
MAX_SVG_AXIS_POINTS = 4000
# Rows write_csv formats at a time, so its memory stays flat.
_BLOCK_ROWS = 4096


@contextlib.contextmanager
def _rewrite(path: str):
    """Text file at ``path``, overwritten from its start; on exit, after an
    error too, a regular file is cut where the writes stopped."""
    opener = lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)
    with open(path, "w", encoding="utf-8", newline="", opener=opener) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_csv(
    path: str,
    header: Sequence[str],
    table: np.ndarray,
    labels: Iterable[str] | None = None,
) -> int:
    """Write a header line, then one line per row of the (n, k) float
    ``table``, each float with 17 significant digits; ``labels``, when
    given, is one more column of n strings, written unquoted.

    The distinct bit patterns of a block of rows are formatted in one ``%``
    call, and each row, label included, is one join; the bytes equal
    per-cell ``"%.17g"``.  Returns the number of rows written; a label count
    other than the row count raises ``ValueError`` before the file is opened.
    """
    table = np.asarray(table, dtype=np.float64)
    if labels is not None:
        labels = np.array(list(labels), dtype=object)
        if len(labels) != len(table):
            raise ValueError(f"write_csv: {len(labels)} labels for {len(table)} table rows")
    with _rewrite(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start : start + _BLOCK_ROWS]
            # Bit patterns, not values: -0.0 and 0.0, and each NaN, stay apart.
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            values = bits.view(np.float64).tolist()
            text = np.array(("%.17g\n" * len(values) % tuple(values)).splitlines(), dtype=object)
            cells = text[inverse.reshape(block.shape)]
            if labels is not None:
                cells = np.column_stack((cells, labels[start : start + _BLOCK_ROWS]))
            fh.write("\r\n".join(map(",".join, cells.tolist())) + "\r\n")
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
        points: np.ndarray | Sequence[tuple[float, float]],
        stroke: str = "#000000",
        width: float = 0.01,
        closed: bool = False,
    ) -> None:
        """Line through ``points``, an (n, 2) array or a sequence of (x, y)."""
        # Every coordinate in one "%.10g" call: the bytes of _num on each.
        xy = np.array(points, dtype=float).reshape(-1, 2)
        xy[:, 1] = -xy[:, 1]
        coords = ("%.10g,%.10g " * len(xy))[:-1] % tuple(xy.ravel().tolist())
        tag = "polygon" if closed else "polyline"
        self._elements.append(
            f'<{tag} points="{coords}" fill="none" stroke="{stroke}"'
            f' stroke-width="{_num(width)}" />'
        )

    def circle(self, cx: float, cy: float, r: float) -> None:
        self._elements.append(
            f'<circle cx="{_num(cx)}" cy="{_num(-cy)}" r="{_num(r)}" fill="#404040" />'
        )

    def text(self, x: float, y: float, content: str) -> None:
        self._elements.append(
            f'<text x="{_num(x)}" y="{_num(-y)}" font-size="0.08"'
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
        with _rewrite(path) as fh:
            fh.write(self.to_string())


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
