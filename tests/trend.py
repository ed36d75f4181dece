"""Trend lines for the CI job summary, printed as Markdown: the src/ line counts, the counts of
public names, of public class members and of public record fields (``test_package``'s
``public_members`` and ``public_fields``), best-of-5 ``timeit`` times of the scalar entry
points, the oracle scan, the sweep pages, the CSV writer, verify, the cross-check's dk line and
the parse of its verify line, the Python calls of a pose-stream op, of a verify run and of the
cross-check's Reuleaux dk line, and the peak RSS and module counts of fresh interpreters.
They are trend lines across runs, not gates.

``python tests/trend.py`` takes no arguments and writes its files in a temporary directory.  A
timed line is what ``python -m timeit -r 5 -s SETUP STATEMENT`` prints for an entry of
:data:`TIMES`; ``tests/test_trend.py`` runs each entry and probe once, untimed.
:func:`count_calls` is the one call counter, whose counts ``POSE_STREAM_CALL_BUDGET``,
``VERIFY_CALL_BUDGET`` and ``REULEAUX_DK_CALL_BUDGET`` bound.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
if __name__ == "__main__":  # run as a script: the package of this checkout
    sys.path.insert(0, str(SRC))

import rpr3
from rpr3 import Pose, classify_singularity, direct_kinematics, inverse_kinematics
from rpr3.cli import main as cli_main
from test_package import public_fields, public_members


def count_calls(run) -> Counter:
    """Python calls ("call" events, generator resumptions included) in rpr3's own frames during
    a second run of ``run()``, after a warm one, by name.  No frame is kept: that would delay
    the close of an unfinished generator, a resumption the count includes, past the count."""
    package = os.path.dirname(rpr3.__file__) + os.sep
    run()
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def pose_stream_op(p):
    """IK at pose ``p`` on branch (1, 0, 1), its singularity report and DK."""
    t = inverse_kinematics(p, branch=(1, 0, 1)).angles.as_tuple()
    return classify_singularity(p, t), direct_kinematics(t)


def counted_op():
    """The counted op: its Pose built inside, regular, with two isolated assemblies."""
    return pose_stream_op(Pose(0.4, 0.3, 0.2))


VERIFY_ARGV = ["verify", "--scope", "all", "--trials", "4", "--seed", "0"]  # the cross-check run
DK_ARGV = ["dk", "--method", "both", "--t1=0.2", "--t2=0.9", "--t3=2.0"]  # and its dk line
# Every fourth cross-check dk line: a Reuleaux triple, whose poses are parallel singular.
REULEAUX_DK_ARGV = ["dk", "--method", "both", "--t1=0.2",
                    f"--t2={0.2 + math.pi / 3.0!r}", f"--t3={0.2 - math.pi / 3.0!r}"]
PI = "3.141592653589793"
SWEEP_PAGES = [  # the benchmark's two pages, and a joint page 16 times larger
    ["sweep", "--space", "cartesian", "--x=-0.5:1.5:25", "--y=-0.5:1.5:25", "--phi=0.3"],
    *(["sweep", "--space", "joint", f"--t1=-{PI}:{PI}:{n}", f"--t2=-{PI}:{PI}:{n}", "--t3=0.7"]
      for n in (25, 101)),
]
TRACE_ARGV = ["trace", "--t1", "0.2", "--t2", "0.9", "--samples", "100000", "--csv", "trace.csv"]


def _cli(argv, label=None):
    """The entry timing cli.main on ``argv``, stdout discarded."""
    setup = f"import contextlib, io; from rpr3.cli import main; argv = {argv!r}"
    statement = "with contextlib.redirect_stdout(io.StringIO()): main(argv)"
    return label or f"`{' '.join(argv)}`", setup, statement


SCALAR = ("from rpr3 import Pose, classify_singularity, direct_kinematics, inverse_kinematics; "
          "from trend import pose_stream_op; "
          "p = Pose(0.3, 0.2, 0.1); t = inverse_kinematics(p).angles.as_tuple()")
CSV = ("import numpy as np; from rpr3 import figio; rng = np.random.default_rng(0); "
       "table = rng.standard_normal((625, 8)); "
       "labels = rng.choice(['Regular', 'Serial', 'Both'], 625).tolist(); "
       "path = 'table.csv'; header = [*'abcdefgh', 'kind']; figio.write_csv(path, header, table, labels)")
OP = ("t = inverse_kinematics(p, branch=(1, 0, 1)).angles.as_tuple(); "
      "classify_singularity(p, t); direct_kinematics(t)")
# The timed lines: under each heading, (label, setup, statement) entries.  They write their files in
# the working directory, over the previous repeat's; the last one rechecks the CSV of TRACE_ARGV.
TIMES = [
    ("Scalar per-call times at pose (0.3, 0.2, 0.1), best of 5:", [
        *((f"`{call}`", SCALAR, call)
          for call in ("inverse_kinematics(p)", "classify_singularity(p, t)", "direct_kinematics(t)")),
        (f"`{OP}`", SCALAR, "pose_stream_op(p)"),
    ]),
    ("Oracle scan time, best of 5:", [
        ("`dkp_bruteforce((0.2, 0.9, 2.0))`", "from rpr3.oracle import dkp_bruteforce",
         "dkp_bruteforce((0.2, 0.9, 2.0))"),
    ]),
    ("Sweep page times through cli.main, CSV and SVG written, best of 5:", [
        _cli([*page, "--csv", "page.csv", "--svg", "page.svg"], f"`{' '.join(page)}`") for page in SWEEP_PAGES
    ]),
    ("CSV rewrite time, a 625x8 table with labels written over itself, best of 5:", [
        ("`figio.write_csv`", CSV, "figio.write_csv(path, header, table, labels)"),
    ]),
    ("Verify run time through cli.main, stdout redirected, best of 5:", [
        _cli(VERIFY_ARGV),
        _cli(["verify", "--scope", "curves", "--trials", "200", "--seed", "0"]),
        _cli(["verify", "--scope", "curves", "--trials", "1", "--seed", "0", "--csv", "trace.csv"],
             "`verify --scope curves --trials 1 --seed 0 --csv` of a `trace --samples 100000` CSV"),
    ]),
    ("The cross-check's dk line through cli.main, stdout redirected, and its verify line's parse, "
     "best of 5:", [
        _cli(DK_ARGV),
        (f"`cli._parse` of `{' '.join(VERIFY_ARGV)}`", f"from rpr3.cli import _parse; argv = {VERIFY_ARGV!r}",
         "_parse(argv)"),
    ]),
]

HWM = "hwm = lambda: [s.split()[1] for s in open('/proc/self/status') if s.startswith('VmHWM:')][0]"
FOOTPRINT = (f"import io, sys; from rpr3.cli import main; {HWM}; "
             "sys.stdout = io.StringIO(); main(sys.argv[1:]); "
             "print(f'VmHWM {hwm()} kB, {len(sys.modules)} modules loaded', file=sys.__stdout__)")
IMPORT = (f"import numpy; {HWM}; before = hwm(); import rpr3.cli; "
          "print(f'VmHWM {before} kB after numpy, {hwm()} kB after rpr3.cli')")
COMPILE_PEAK = """import pathlib, sys, tracemalloc; peaks = {}
for path in pathlib.Path(sys.argv[1]).glob('*.py'):
    text = path.read_text(encoding='utf-8'); tracemalloc.start(); compile(text, str(path), 'exec')
    peaks[path.name] = tracemalloc.get_traced_memory()[1]; tracemalloc.stop()
name = max(peaks, key=peaks.get); print(f'{name}, {peaks[name] / 2**20:.2f} MB')"""
# The fresh-interpreter probes: under each heading, (label, interpreter arguments, environment)
# entries.  The "cold" cache prefix stays empty, so that every import compiles its source.
PROBES = [
    ("Fresh-interpreter footprint after one cli.main call, peak RSS and modules loaded:", [
        (f"`{' '.join(argv)}`", ["-c", FOOTPRINT, *argv], {})
        for argv in (VERIFY_ARGV, ["dk", "--t1", "0.2", "--t2", "0.9", "--t3", "2.0"])
    ]),
    ("Fresh-interpreter footprint of `import numpy; import rpr3.cli`:", [
        *((label, ["-c", IMPORT], {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": prefix})
          for label, prefix in (("compiled from source", "cold"), ("from a warm bytecode cache", "warm"))),
        ("largest compile() peak of one module, traced by tracemalloc",
         ["-c", COMPILE_PEAK, str(SRC / "rpr3")], {}),
    ]),
]


def _python(*args, **env):
    """A fresh interpreter started on ``args``, with this checkout's package and tests importable
    and ``env`` added to the environment."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]), **env}
    return subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE, text=True)


def _output(process):
    """What ``process`` printed; it must exit 0."""
    out = process.communicate()[0]
    if process.returncode:
        raise subprocess.CalledProcessError(process.returncode, process.args, out)
    return out.strip()


def best_of_5(setup, statement):
    """Print what ``python -m timeit -r 5 -s setup statement`` prints, run in a fresh interpreter
    so that no earlier entry moves the time: after ``trace --samples 100000`` has freed its large
    arrays in the same process, glibc's raised mmap threshold halves the time of
    ``verify --scope curves --trials 200``."""
    print(_output(_python("-m", "timeit", "-r", "5", "-s", setup, statement)))


def main(measure=best_of_5):
    """Print the trend lines, ``measure(setup, statement)`` printing each timed entry's value."""
    lines = {path: path.read_bytes().count(b"\n") for path in sorted(SRC.glob("rpr3/*.py"))}
    print("src/ lines:\n```", *(f"{n:6d} {path.relative_to(SRC.parent)}" for path, n in lines.items()),
          sep="\n")
    print(f"{sum(lines.values()):6d} total\n```\nPublic names in rpr3.__all__: {len(rpr3.__all__)}")
    print(f"Public class members of the layers: {len(public_members())}")
    print(f"Public record fields of the layers: {len(public_fields())}")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            # The CSV that the last timed entry rechecks, and a first run that may write bytecode,
            # which fills the probes' "warm" cache prefix.
            trace = _python("-m", "rpr3.cli", *TRACE_ARGV)
            fill = _python("-c", "import numpy, rpr3.cli",
                           PYTHONDONTWRITEBYTECODE="", PYTHONPYCACHEPREFIX="warm")
            _output(trace)
            _output(fill)
            with contextlib.redirect_stdout(io.StringIO()):
                op_calls = sum(count_calls(counted_op).values())
                verify_calls = sum(count_calls(lambda: cli_main(VERIFY_ARGV)).values())
                reuleaux_calls = sum(count_calls(lambda: cli_main(REULEAUX_DK_ARGV)).values())
            for heading, entries in TIMES:
                print(heading)
                for label, setup, statement in entries:
                    print(f"- {label}: ", end="")
                    measure(setup, statement)
                if heading == TIMES[0][0]:  # the call counts follow the scalar times
                    print(f"- Python calls of that op with its Pose built inside, by `sys.setprofile`: "
                          f"{op_calls}")
                    print(f"- Python calls in rpr3 of a `{' '.join(VERIFY_ARGV)}` run, by `sys.setprofile`: "
                          f"{verify_calls}")
                    print(f"- Python calls in rpr3 of a `{' '.join(REULEAUX_DK_ARGV)}` run, "
                          f"by `sys.setprofile`: {reuleaux_calls}")
            started = [[(label, _python(*args, **env)) for label, args, env in entries]
                       for _, entries in PROBES]
            for (heading, _), entries in zip(PROBES, started):
                print(heading)
                for label, process in entries:
                    print(f"- {label}: {_output(process)}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
