"""The fixed sampling grids, built once per process: the phi cycle of the
coupler curve with its libm cos and sin, and the oracle's scan table."""

import math
from functools import partial

import numpy as np
import pytest

from rpr3 import geometry, verify
from rpr3.cli import main
from rpr3.trace import _curve_gaps
from rpr3.verify import _curves_block
from rpr3.coupler import _cycle_grid, _cycle_phi, trace_cardanic
from rpr3.geometry import _FLOATS, ManipulatorGeometry, _libm, normalize_angles
from rpr3.oracle import _SCAN_SAMPLES, _scan_table, dkp_bruteforce
from _reference import curve_misses


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [8, 9, 360, 720])
def test_cycle_grid_is_libm_of_the_formula_grid(n):
    phi = -math.pi + np.arange(1, n + 1, dtype=float) * (2.0 * math.pi / n)
    grid_phi, cos_phi, sin_phi = _cycle_grid(n)
    assert _same_bits(grid_phi, phi) and _same_bits(_cycle_phi(n), phi)
    assert _same_bits(cos_phi, [math.cos(p) for p in phi.tolist()])
    assert _same_bits(sin_phi, _libm(math.sin, phi))


def _per_call_scan():
    """The scan's alpha grid and numpy's cos and sin of it, computed afresh."""
    alphas = -math.pi + (2.0 * math.pi / _SCAN_SAMPLES) * np.arange(1, _SCAN_SAMPLES + 1)
    return alphas, np.cos(alphas), np.sin(alphas)


def test_scan_table_equals_the_per_call_arrays():
    # One table serves every geometry: built once, it is the per-call arrays
    # bit for bit, and scans at other scales in between leave it as it was.
    table = _scan_table()
    for scale in (1.0, 1.7, 2.0, 1.0, 2.0, 1.7, 1.0):
        dkp_bruteforce((0.2, 0.9, 2.0), ManipulatorGeometry(scale))
        assert _scan_table() is table
        assert all(map(_same_bits, table, _per_call_scan()))
        assert len(table) == 3


def test_grid_tables_are_read_only():
    grid = _cycle_grid(360)
    alphas, cos_a, sin_a = _scan_table()
    for array in (grid, grid[1], alphas, cos_a, sin_a):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert _same_bits(_cycle_grid(360)[0], -math.pi + np.arange(1, 361) * (2.0 * math.pi / 360))


def test_a_traced_curve_owns_its_phi():
    curve = trace_cardanic(0.2, 0.9, n_samples=360)
    assert curve.phi.flags.writeable
    assert not np.shares_memory(curve.phi, _cycle_grid(360))
    curve.phi[:] = 0.0
    assert _same_bits(trace_cardanic(0.2, 0.9, n_samples=360).phi, _cycle_grid(360)[0])


def test_grid_caches_stay_within_their_bound():
    for n in range(8, 18):
        trace_cardanic(0.2, 0.9, n_samples=n)
        dkp_bruteforce((0.2, 0.9, 2.0), ManipulatorGeometry(float(n)))
    for table, bound in ((_cycle_grid, 2), (_scan_table, 1)):
        info = table.cache_info()
        assert info.currsize <= info.maxsize == bound


@pytest.mark.parametrize("n", [360, 720])
def test_curve_gaps_agree_on_grid_and_file_trig(n, tmp_path, capsys):
    # verify's curves trial passes the grid's cos and sin; verify --csv takes
    # libm's of the file's phi.  On a radians trace the two agree bit for bit.
    path = tmp_path / "trace.csv"
    argv = ["trace", "--t1", "0.2", "--t2", "0.9", "--samples", str(n), "--csv", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    geom = ManipulatorGeometry(table[0, 7])
    phi = normalize_angles(table[:, 2])
    from_file = _curve_gaps(
        _FLOATS, *table[0, :2], _libm(math.cos, phi), _libm(math.sin, phi),
        *table[:, 5:7].T, *table[:, 3:5].T, geom,
    )
    curve = trace_cardanic(0.2, 0.9, n_samples=n, geometry=geom)
    trig = _cycle_grid(n)[1:]
    columns = (*curve.rho.T, *curve.b3.T)
    from_grid = _curve_gaps(_FLOATS, curve.theta1, curve.theta2, *trig, *columns, geom)
    assert all(map(_same_bits, from_grid, from_file))
    assert (from_grid[0] <= from_grid[1]).all()


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1.7, 1e100])
def test_curve_gaps_take_anchor_3s_miss_with_hypots_bits(monkeypatch, scale):
    # The miss is sqrt(mx² + my²); on verify's own curves, and on pairs of
    # nearly parallel legs, every gap is the one a per-sample math.hypot
    # gives, and on many samples anchor 3's miss alone decides it.  verify
    # checks its curves as rows of a block; each row's gaps are the one-row
    # case's, on floats, bit for bit.
    curves = []

    def recording(f, t1, t2, cos_phi, sin_phi, *columns_geom):
        gaps = _curve_gaps(f, t1, t2, cos_phi, sin_phi, *columns_geom)
        *columns, geom = columns_geom
        for k, (a1, a2) in enumerate(zip(t1[:, 0].tolist(), t2[:, 0].tolist())):
            curves.append((a1, a2, cos_phi, sin_phi, *(c[k] for c in columns), geom))
            assert _same_bits(gaps[0][k], _curve_gaps(_FLOATS, *curves[-1])[0])
        return gaps

    monkeypatch.setattr(verify, "_curve_gaps", recording)
    geom = ManipulatorGeometry(scale)
    for seed in range(40):
        assert verify.run("curves", 4, seed, None, geom)[0] == []
    _, cos_phi, sin_phi = _cycle_grid(verify.CURVE_SAMPLES)
    for sin12 in (1.5e-6, 2e-9):
        for t1 in (-2.0, 0.3, 1.9):
            for t2 in (t1 + math.asin(sin12), t1 + math.pi - math.asin(sin12)):
                curve = trace_cardanic(t1, t2, n_samples=verify.CURVE_SAMPLES, geometry=geom)
                columns = (*curve.rho.T, *curve.b3.T)
                curves.append((curve.theta1, curve.theta2, cos_phi, sin_phi, *columns, geom))
    assert len(curves) == 40 * 4 + 12
    decided = 0
    for args in curves:
        r2, e2, miss3 = curve_misses(*args)
        gap, _ = _curve_gaps(_FLOATS, *args)
        assert _same_bits(gap, np.maximum.reduce([r2, e2, miss3]))
        decided += int((miss3 > np.maximum(r2, e2)).sum())
    assert decided > len(curves) * verify.CURVE_SAMPLES // 5


def test_curves_trial_takes_phi_trig_from_the_grid_after_the_first(monkeypatch):
    calls = []

    def counting(fn, *arrays):
        calls.append((fn, np.size(arrays[0])))
        return _libm(fn, *arrays)

    # Every libm route: the kernel itself, and the column form's members,
    # which bind it when the module loads.
    monkeypatch.setattr(geometry, "_libm", counting)
    for name in ("cos", "sin", "hypot"):
        monkeypatch.setattr(geometry._COLUMNS, name, partial(counting, getattr(math, name)))
    _cycle_grid.cache_clear()
    rng, geom = np.random.default_rng(5), ManipulatorGeometry(1.7)
    assert _curves_block(rng, geom, 1) != [None]
    assert {(math.cos, verify.CURVE_SAMPLES), (math.sin, verify.CURVE_SAMPLES)} <= set(calls)
    # Then libm sees no phi column: the grid holds phi's cos and sin, anchor
    # 3's miss is a sqrt of squares, and only each curve's t1, t2 and t2 - t1
    # are libm's, one element per curve of the block.
    for k in (1, 3, 4):
        calls.clear()
        assert None not in _curves_block(rng, geom, k)
        assert calls == [(math.cos, k), (math.sin, k), (math.sin, k), (math.cos, k), (math.sin, k)]


def test_a_trace_csv_recheck_builds_no_cycle_grid(tmp_path, capsys):
    # verify --csv checks phi against the grid's formula and takes cos and
    # sin of the file's own phi: it caches no grid trig it would not read.
    path = tmp_path / "trace.csv"
    assert main(["trace", "--t1", "0.2", "--t2", "0.9", "--samples", "1000", "--csv", str(path)]) == 0
    _cycle_grid.cache_clear()
    assert main(["verify", "--scope", "dkp", "--trials", "1", "--csv", str(path)]) == 0
    assert '"rows": 1000' in capsys.readouterr().out
    assert _cycle_grid.cache_info().currsize == 0
