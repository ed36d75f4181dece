"""The CI summary's trend script runs end to end: a renamed or removed entry
point fails here, not only in the summary."""

import trend


def test_the_trend_script_runs_each_entry_and_probe_once(capsys):
    def once(setup, statement):
        namespace = {}
        exec(setup, namespace)
        exec(statement, namespace)
        print("ran")

    trend.main(measure=once)
    entries = [line for line in capsys.readouterr().out.splitlines() if line.startswith("- ")]
    timed = sum(len(rows) for _, rows in trend.TIMES)
    assert sum(line.endswith(": ran") for line in entries) == timed
    # The three call counts and each fresh-interpreter probe print a value.
    assert len(entries) == timed + 3 + sum(len(rows) for _, rows in trend.PROBES)
    assert all(line.rpartition(": ")[2] for line in entries), entries
