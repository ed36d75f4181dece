"""The README's examples run as written: the library tour executes, and each
line of the CLI recipe exits 0 with one strict JSON document.  Each constant
that README states holds the code's value."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from rpr3 import cli, coupler, figio, oracle, solvers, sweep, verify
from test_cli import strict_json
from test_cli_contract import _env

README = Path(__file__).resolve().parents[1] / "README.md"


# Each constant that README states: a pattern, its spaces matching any run of
# white space and NUMBER the stated value, and the value in the code.
NUMBER = r"(\d+(?:,\d{3})*(?:e-?\d+)?(?:\*\*\d+)?)"
STATED = {
    "`MAX_SVG_AXIS_POINTS` = NUMBER": figio.MAX_SVG_AXIS_POINTS,
    "A page of NUMBER samples or fewer": figio.MAX_SVG_AXIS_POINTS,
    "`MAX_GRID_POINTS` = NUMBER": cli.MAX_GRID_POINTS,
    "`MAX_LOCUS_PERIODS` = NUMBER": sweep.MAX_LOCUS_PERIODS,
    "`MIN_CURVE_SAMPLES` = NUMBER": coupler.MIN_CURVE_SAMPLES,
    "`trace --samples` must be at least NUMBER": coupler.MIN_CURVE_SAMPLES,
    "blocks of at most NUMBER curves": verify._CURVE_BLOCK,
    "a fixed grid of NUMBER alphas": oracle._SCAN_SAMPLES,
    "pattern of a NUMBER-row block": figio._BLOCK_ROWS,
    r"\|d2 - d3\| < NUMBER": solvers.DEGENERACY_ANGLE_TOL,
}


def stated_constants(text: str) -> dict[str, list[float]]:
    """The values README states for each pattern of :data:`STATED`."""

    def value(number: str) -> float:
        base, _, power = number.replace(",", "").partition("**")
        return float(base) ** int(power) if power else float(base)

    found = {}
    for pattern in STATED:
        regex = pattern.replace(" ", r"\s+").replace("NUMBER", NUMBER)
        found[pattern] = [value(number) for number in re.findall(regex, text)]
    return found


def _block(text: str, heading: str, language: str) -> str:
    """The first ``language`` code block under ``heading``."""
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```$", section, re.M | re.S)[1]


def recipe_lines(text: str) -> list[list[str]]:
    """The arguments after ``rpr3`` of each line of the CLI recipe, with ``\\``
    continuations joined and comments dropped."""
    block = _block(text, "## CLI", "sh").replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [line[1:] for line in lines if line and line[0] == "rpr3"]


def test_the_library_tour_runs():
    exec(_block(README.read_text(encoding="utf-8"), "## Library tour", "python"), {})


def test_each_cli_recipe_line_prints_one_strict_json_document(tmp_path):
    lines = recipe_lines(README.read_text(encoding="utf-8"))
    assert {argv[0] for argv in lines} == set(cli._commands())  # the recipe shows every command
    # The lines write different files, so they run side by side.
    processes = [
        subprocess.Popen(
            [sys.executable, "-m", "rpr3.cli", *argv], cwd=tmp_path, env=_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for argv in lines
    ]
    outputs = [process.communicate(timeout=60) for process in processes]
    for argv, process, (out, err) in zip(lines, processes, outputs):
        assert (process.returncode, err) == (0, ""), argv
        assert strict_json(out)["command"] == argv[0], argv


def test_each_constant_readme_states_is_the_codes():
    stated = stated_constants(README.read_text(encoding="utf-8"))
    for pattern, code in STATED.items():
        assert stated[pattern], pattern  # README still states it
        assert stated[pattern] == [code] * len(stated[pattern]), pattern
