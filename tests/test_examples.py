"""Smoke tests: every example script runs to completion.

The examples double as integration tests of the public API; each is
executed in-process with stdout captured and a few landmark strings
checked.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

LANDMARKS = {
    "quickstart.py": [
        "quotient:",
        "verdict    : quadratic",
        "cached=True, operators executed=0",
    ],
    "session_tour.py": [
        "cached=True, operators executed=0",
        "engine result == structural oracle result: True",
        "result cache [on]",
    ],
    "medical_symptoms.py": ["Person ÷ Symptoms", "algorithm"],
    "beer_drinkers.py": ["Example 3 (SA=):", "verdict    : quadratic"],
    "blowup_walkthrough.py": ["free values F1", "|E(Dn)|"],
    "dichotomy_explorer.py": ["verdict", "Exponent spectrum:"],
    "division_showdown.py": ["max intermediate result size", "γ plan"],
    "bisimulation_game.py": ["spoiler wins in 2 move(s)", "duplicator wins? True"],
    "storage_backends.py": [
        "stale read raised: StaleDataError",
        "closed: 0 shm segment(s)",
        "query after close raised: SchemaError",
    ],
}


def run_example(name: str, capsys) -> str:
    script = EXAMPLES / name
    assert script.exists(), f"missing example {name}"
    argv = sys.argv
    sys.argv = [str(script)]
    try:
        runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(LANDMARKS))
def test_example_runs(name, capsys):
    output = run_example(name, capsys)
    for landmark in LANDMARKS[name]:
        assert landmark in output, (
            f"{name}: expected {landmark!r} in output"
        )


def test_every_example_has_a_smoke_test():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(LANDMARKS)
