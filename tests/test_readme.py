"""The README's examples run as written: the library tour executes, and each
line of the CLI recipe exits 0 with one strict JSON document."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

from rpr3 import cli
from test_cli import strict_json
from test_cli_contract import _env

README = Path(__file__).resolve().parents[1] / "README.md"


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
