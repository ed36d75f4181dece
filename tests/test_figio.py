"""Artifact writers against the per-row loop they replaced, and their
in-place rewrite of an existing artifact."""

import csv
import os
import stat

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


def _block_straddling_table():
    """2 blocks + 3 rows of the bit patterns a per-block dedupe must keep
    apart: a constant, a 25-value axis repeated meshgrid-style, mixed -0.0
    and 0.0, NaNs with the sign bit and a payload set, +-inf and subnormals,
    and generic doubles."""
    rng = np.random.default_rng(62)
    n = 2 * figio._BLOCK_ROWS + 3
    axis = np.linspace(-3.0, 3.0, 25)
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000], np.uint64).view(float)
    odd = rng.choice(np.array([np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -2.2e-308]), n)
    table = np.column_stack(
        (
            np.full(n, 0.7),
            np.resize(np.repeat(axis, 25), n),
            np.resize(axis, n),
            np.where(rng.random(n) < 0.5, 0.0, -0.0),
            np.where(rng.random(n) < 0.3, rng.choice(nans, n), rng.standard_normal(n)),
            np.where(rng.random(n) < 0.5, odd, 0.0),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        )
    )
    # The NaN column carries both patterns, as bits, not merely as NaNs.
    bits = set(table[:, 4].view(np.uint64).tolist())
    assert {0x7FF8000000000001, 0xFFF8000000000000} <= bits
    return table


@pytest.mark.parametrize("labelled", [False, True])
def test_write_csv_matches_the_csv_writer_loop_across_blocks(tmp_path, labelled):
    table = _block_straddling_table()
    n = len(table)
    header = tuple("abcdefg") + (("kind",) if labelled else ())
    labels = [("Regular", "Serial", "Both")[i % 3] for i in range(n)] if labelled else None
    _reference_csv(tmp_path / "want.csv", header, table, labels)
    count = figio.write_csv(str(tmp_path / "got.csv"), header, table, labels)
    assert count == n
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("labelled", [False, True])
def test_write_csv_of_an_empty_table_is_the_header(tmp_path, labelled):
    header = ("a", "b") + (("kind",) if labelled else ())
    labels = [] if labelled else None
    _reference_csv(tmp_path / "want.csv", header, np.empty((0, 2)), labels)
    assert figio.write_csv(str(tmp_path / "got.csv"), header, np.empty((0, 2)), labels) == 0
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "got.csv").read_bytes() == b",".join(h.encode() for h in header) + b"\r\n"


@pytest.mark.parametrize("rows", [5, 2 * figio._BLOCK_ROWS + 3])
@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("as_generator", [False, True])
def test_write_csv_rejects_a_label_count_other_than_the_row_count(
    tmp_path, rows, extra, as_generator
):
    # The mismatch falls in the table's only block, or in its last one.
    table = np.zeros((rows, 2))
    labels = ["Regular"] * (rows + extra)
    if as_generator:
        labels = (label for label in labels)
    with pytest.raises(ValueError):
        figio.write_csv(str(tmp_path / "got.csv"), ("a", "b", "kind"), table, labels)


def _labels(kind, names):
    if kind == "list":
        return list(names)
    if kind == "generator":
        return (name for name in names)
    return np.array(names, dtype=object)


@pytest.mark.parametrize("kind", ["list", "generator", "object array"])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_write_csv_takes_labels_from_any_iterable(tmp_path, kind, extra):
    table = _block_straddling_table()[: figio._BLOCK_ROWS + 5]
    names = [("Regular", "Parallel", "Serial", "Both")[i % 4] for i in range(len(table))]
    header = tuple("abcdefg") + ("kind",)
    labels = _labels(kind, names + ["Both"] * extra if extra >= 0 else names[:extra])
    got = tmp_path / "got.csv"
    if extra:
        with pytest.raises(ValueError):
            figio.write_csv(str(got), header, table, labels)
        assert not got.exists()
        return
    _reference_csv(tmp_path / "want.csv", header, table, names)
    assert figio.write_csv(str(got), header, table, labels) == len(table)
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


# Values at the edges of "%.10g": signed zeros, a subnormal, the largest
# float, and values whose 10th significant digit rounds up, down or to even,
# carries into a new digit or switches to exponent form.
_SVG_EDGES = [
    0.0, -0.0, 1e-320, -1e-320, 1.7976931348623157e308, -1.7976931348623157e308,
    1.23456789049999, 1.23456789050001, 0.12345678995, 9.9999999995, 9.99999999949,
    -9.9999999995, 99999.999995, 1e-05, 9.9999999999e-06, 1234567890.5, 12345678905.0,
    0.5, -1.5, 2.5, 1.0 / 3.0,
]


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("as_array", [False, True])
def test_polyline_writes_each_coordinate_as_num(as_array, closed):
    rng = np.random.default_rng(63)
    xs = _SVG_EDGES + rng.uniform(-2.0, 3.0, 40).tolist()
    ys = _SVG_EDGES[::-1] + rng.uniform(-2.0, 3.0, 40).tolist()
    points = [(0.0, 0.0), (-0.0, -0.0), *zip(xs, ys)]
    canvas = figio.SvgCanvas()
    shape = np.array(points) if as_array else points
    canvas.polyline(shape, stroke="#123456", width=0.5, closed=closed)
    coords = " ".join(f"{figio._num(x)},{figio._num(-y)}" for x, y in points)
    tag = "polygon" if closed else "polyline"
    want = f'<{tag} points="{coords}" fill="none" stroke="#123456" stroke-width="0.5" />'
    assert canvas._elements == [want]
    assert want.startswith(f'<{tag} points="0,-0 -0,0 ')  # both zeros keep their signs


def test_polyline_of_no_points_is_an_empty_list():
    canvas = figio.SvgCanvas()
    canvas.polyline([])
    canvas.polyline(np.empty((0, 2)))
    want = '<polyline points="" fill="none" stroke="#000000" stroke-width="0.01" />'
    assert canvas._elements == [want, want]


# An existing artifact is rewritten in place: opened without O_TRUNC and cut
# after the last write, so it ends as the bytes of a fresh write while
# keeping its inode, mode and links.
WRITERS = ["csv", "svg"]


def _write(kind, path):
    if kind == "csv":
        table = np.array([[0.5, -0.0], [1e-320, np.nan]])
        figio.write_csv(str(path), ("a", "b", "kind"), table, ["Regular", "Both"])
    else:
        canvas = figio.SvgCanvas("page")
        canvas.polyline([(0.0, 0.0), (1.0, 0.5)])
        canvas.write(str(path))


def _fresh_and_longer(kind, tmp_path):
    """A fresh write's bytes, and older contents longer than them."""
    _write(kind, tmp_path / f"fresh.{kind}")
    fresh = (tmp_path / f"fresh.{kind}").read_bytes()
    return fresh, b"#" * (2 * len(fresh) + 7)


@pytest.mark.parametrize("kind", WRITERS)
def test_a_rewrite_over_a_longer_file_holds_the_fresh_bytes(tmp_path, kind):
    fresh, longer = _fresh_and_longer(kind, tmp_path)
    path = tmp_path / f"page.{kind}"
    path.write_bytes(longer)
    _write(kind, path)
    assert path.read_bytes() == fresh


@pytest.mark.parametrize("kind", WRITERS)
def test_a_rewrite_through_a_symlink_keeps_the_link(tmp_path, kind):
    fresh, longer = _fresh_and_longer(kind, tmp_path)
    target, link = tmp_path / f"target.{kind}", tmp_path / f"link.{kind}"
    target.write_bytes(longer)
    link.symlink_to(target)
    _write(kind, link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh


@pytest.mark.parametrize("kind", WRITERS)
def test_a_rewrite_keeps_the_inode_its_hard_links_and_its_mode(tmp_path, kind):
    fresh, longer = _fresh_and_longer(kind, tmp_path)
    path, other = tmp_path / f"page.{kind}", tmp_path / f"other.{kind}"
    path.write_bytes(longer)
    path.chmod(0o640)
    os.link(path, other)
    inode = path.stat().st_ino
    _write(kind, path)
    assert other.read_bytes() == fresh
    assert (path.stat().st_ino, path.stat().st_nlink) == (inode, 2)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_a_csv_write_that_raises_leaves_the_bytes_written_before_it(tmp_path, monkeypatch):
    # Nothing is cut while the rewrite runs; on the error, the tail after
    # the header line goes.
    path = tmp_path / "page.csv"
    path.write_bytes(b"#" * 1000)

    def fail(*args, **kwargs):
        assert path.stat().st_size == 1000
        raise RuntimeError("formatting failed")

    monkeypatch.setattr(figio.np, "unique", fail)
    with pytest.raises(RuntimeError):
        figio.write_csv(str(path), ("a", "b"), np.zeros((3, 2)))
    assert path.read_bytes() == b"a,b\r\n"


def test_an_svg_write_that_raises_leaves_an_empty_file(tmp_path, monkeypatch):
    path = tmp_path / "page.svg"
    path.write_bytes(b"#" * 1000)

    def fail(canvas):
        assert path.stat().st_size == 1000
        raise RuntimeError("drawing failed")

    monkeypatch.setattr(figio.SvgCanvas, "to_string", fail)
    with pytest.raises(RuntimeError):
        figio.SvgCanvas().write(str(path))
    assert path.read_bytes() == b""


@pytest.mark.parametrize("kind", WRITERS)
def test_neither_writer_opens_with_o_trunc(tmp_path, monkeypatch, kind):
    # Truncating to zero as the file opens is the cost the rewrite avoids.
    calls = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        calls.append((path, flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    path = tmp_path / f"page.{kind}"
    _write(kind, path)
    _write(kind, path)
    assert [name for name, _ in calls] == [str(path)] * 2
    assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for _, flags in calls)
