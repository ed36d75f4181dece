"""Artifact writers against the per-row and per-cell loops they replaced."""

import csv

import numpy as np
import pytest

from rpr3 import figio


def _reference_csv(path, header, table, labels):
    """The csv.writer loop: floats as format(v, '.17g'), labels as str."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(table.tolist()):
            cells = [format(v, ".17g") for v in row]
            if labels is not None:
                cells.append(str(labels[i]))
            writer.writerow(cells)


def _reference_contour_segments(xs, ys, values):
    """The per-cell marching-squares loop, as a (k, 4) array of segment ends."""
    segs = []
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
            center = sum(c[2] for c in corners) / 4.0
            if (center >= 0.0) == (corners[0][2] >= 0.0):
                segs.append((crossings[0], crossings[3]))
                segs.append((crossings[1], crossings[2]))
            else:
                segs.append((crossings[0], crossings[1]))
                segs.append((crossings[2], crossings[3]))
    return np.array(segs, dtype=float).reshape(-1, 4)


def _saddle_count(values):
    upper = values >= 0.0
    return int(
        (
            (upper[:-1, :-1] == upper[1:, 1:])
            & (upper[1:, :-1] == upper[:-1, 1:])
            & (upper[:-1, :-1] != upper[1:, :-1])
        ).sum()
    )


def _fields():
    """Seeded (xs, ys, values) triples: smooth and rough fields, small
    integer fields full of exact zeros and saddles, a 2x2 grid and a field
    whose nans were replaced by zero."""
    rng = np.random.default_rng(60)
    fields = []
    for _ in range(120):
        nx, ny = rng.integers(2, 40, 2)
        xs = np.sort(rng.uniform(-3.0, 3.0, nx))
        ys = np.linspace(rng.uniform(-2.0, 0.0), rng.uniform(0.5, 2.0), ny)
        kind = rng.integers(3)
        if kind == 0:
            values = rng.standard_normal((nx, ny))
        elif kind == 1:
            values = rng.integers(-2, 3, (nx, ny)).astype(float)
        else:
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            values = np.sin(2.0 * gx) * np.cos(3.0 * gy) + 0.1 * rng.standard_normal()
        fields.append((xs, ys, values))
    fields.append((np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([[1.0, -1.0], [-1.0, 1.0]])))
    fields.append((np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([[-0.5, 2.0], [2.0, -1.0]])))
    fields.append((np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([[0.0, -0.0], [-1.0, 0.0]])))
    holed = rng.standard_normal((25, 25))
    holed[rng.random((25, 25)) < 0.2] = np.nan
    axis = np.linspace(-1.0, 1.0, 25)
    fields.append((axis, axis, np.nan_to_num(holed, nan=0.0)))
    return fields


def test_contour_segments_match_the_cell_loop():
    fields = _fields()
    assert sum(_saddle_count(v) for _, _, v in fields) > 100
    assert sum(int((v == 0.0).sum()) for _, _, v in fields) > 1000
    for xs, ys, values in fields:
        want = _reference_contour_segments(xs, ys, values)
        got = figio.contour_segments(xs, ys, values)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_contour_segments_of_a_one_signed_field_are_empty():
    axis = np.linspace(0.0, 1.0, 4)
    assert figio.contour_segments(axis, axis, np.ones((4, 4))).shape == (0, 4)


@pytest.mark.parametrize("labelled", [False, True])
def test_write_csv_matches_the_csv_writer_loop(tmp_path, labelled):
    rng = np.random.default_rng(61)
    table = rng.standard_normal((40, 6)) * 10.0 ** rng.integers(-300, 300, (40, 6))
    table[0] = (np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0)
    table[1] = (1e-320, -5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0**60)
    header = ("a", "b", "c", "d", "e", "f") + (("kind",) if labelled else ())
    labels = [("Regular", "Serial", "Both")[i % 3] for i in range(40)] if labelled else None
    _reference_csv(tmp_path / "want.csv", header, table, labels)
    count = figio.write_csv(str(tmp_path / "got.csv"), header, table, labels)
    assert count == 40
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
