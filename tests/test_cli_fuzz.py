"""Seeded argv fuzzing of the CLI boundary.

Every command line either succeeds or exits with a documented code (1-4);
none may escape ``main`` as an exception.  On exit 0 or 4 stdout is exactly
one RFC 8259 JSON document (no NaN or Infinity) naming its command, on any
other exit stdout is empty, and no SVG it writes may contain nan.  Values
come from a pool of ordinary, boundary and malformed numbers; grid counts
stay small so the whole run takes a few seconds.
"""

import contextlib
import io
import math
import random

from rpr3.cli import main
from test_cli import strict_json

GOOD_NUMBERS = [
    "0", "-0.0", "0.5", "1", "-1.2", "2.7", "1e-12", "1e6", "-1e300",
    repr(math.pi), repr(-math.pi), repr(math.pi / 3.0), "60", "-60", "180",
]
BAD_NUMBERS = ["nan", "inf", "-inf", "abc", ""]
GOOD_COUNTS = ["2", "3", "5"]
BAD_COUNTS = ["-1", "0", "1", "x"]


def _pick(rng, good, bad):
    """Mostly well-formed values, so that commands also get past parsing."""
    return rng.choice(bad if rng.random() < 0.1 else good)


def _number(rng):
    return _pick(rng, GOOD_NUMBERS, BAD_NUMBERS)


def _axis(rng, swept):
    if not swept:
        return _number(rng)
    if rng.random() < 0.05:
        return f"{_number(rng)}:{_number(rng)}"
    return f"{_number(rng)}:{_number(rng)}:{_pick(rng, GOOD_COUNTS, BAD_COUNTS)}"


def _flags(rng, values):
    """``--name=value`` flags, each now and then left out (most are required)."""
    return [f"--{name}={value}" for name, value in values.items() if rng.random() < 0.95]


def _numbers(rng, names):
    return _flags(rng, {name: _number(rng) for name in names})


def _argv(rng, tmp_path):
    command = rng.choice(["ik", "dk", "singularity", "trace", "sweep", "verify"])
    argv = [command]
    if command in ("ik", "singularity"):
        argv += _numbers(rng, ("x", "y", "phi"))
        if rng.random() < 0.5:
            argv.append(f"--branch={rng.choice(['000', '101', 'all', '2', '0110'])}")
        if command == "singularity" and rng.random() < 0.3:
            argv += _numbers(rng, ("t1", "t2", "t3"))
    elif command == "dk":
        argv += _numbers(rng, ("t1", "t2", "t3"))
        argv.append(f"--method={rng.choice(['closed', 'geometric', 'both'])}")
    elif command == "trace":
        argv += _numbers(rng, ("t1", "t2"))
        argv.append(f"--samples={_pick(rng, ['8', '40'], ['-3', '5', '7', 'x'])}")
        argv += ["--csv", str(tmp_path / "trace.csv"), "--svg", str(tmp_path / "trace.svg")]
    elif command == "sweep":
        space = rng.choice(["joint", "cartesian"])
        names = ("t1", "t2", "t3") if space == "joint" else ("x", "y", "phi")
        # Mostly two swept axes, the shape an SVG locus needs.
        fixed = rng.choice(names) if rng.random() < 0.8 else None
        argv += ["--space", space]
        argv += _flags(rng, {name: _axis(rng, name != fixed) for name in names})
        argv += ["--csv", str(tmp_path / "sweep.csv")]
        if rng.random() < 0.7:
            argv += ["--svg", str(tmp_path / "sweep.svg")]
    else:
        argv += [
            f"--scope={rng.choice(['dkp', 'jacobian', 'curves'])}",
            f"--trials={_pick(rng, ['1', '2'], ['-3', '0', 'x'])}",
            f"--seed={_pick(rng, ['0', '7'], ['-1', 'x'])}",
        ]
        if rng.random() < 0.3:
            # Whatever trace file an earlier argv left, or none.
            argv += ["--csv", str(tmp_path / "trace.csv")]
    if command != "verify" and rng.random() < 0.3:
        argv.append("--deg")
    return argv


def test_cli_fuzz_exits_cleanly(tmp_path):
    rng = random.Random(20240607)
    seen = set()
    for _ in range(500):
        for name in ("trace.svg", "sweep.svg"):
            (tmp_path / name).unlink(missing_ok=True)
        argv = _argv(rng, tmp_path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4), argv
        seen.add(code)
        if code in (0, 4):
            document = strict_json(out.getvalue())
            assert document["command"] == argv[0], argv
        else:
            assert out.getvalue() == "", argv
        for name in ("trace.svg", "sweep.svg"):
            svg = tmp_path / name
            if svg.exists():
                assert "nan" not in svg.read_text(), argv
    assert {0, 1, 2} <= seen
