"""CLI outputs against the stored outputs of an earlier build.

The files under ``tests/data`` hold the stdout of four commands: the
README's two-pass ``protocol`` run, ``table1``, the README's ``evolve``
run and ``husimi`` of the (2, 7) cat on a 21² grid.  Every number of a fresh run must lie within GOLDEN_ATOL of the stored
one; everything else (layout, keys, column names, integers such as photon
numbers, orders and exact zeros) must match character for character.  An
integrator change that moves outputs by roundoff-sized amounts passes; one
that changes what is computed does not.
"""

import math
import re
from pathlib import Path

import pytest

from cnlight.cli import run_command

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_ATOL = 1e-9
XI_README = ["--config", "xi", "--mu12", "1", "--mu23", repr(math.sqrt(2.0))]

# a number not glued to a name (so "p0" and "m1" stay text)
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")

CASES = {
    "protocol_readme.json": [
        "protocol", *XI_README, "--nu0", "3", "--passes", "2",
        "--t-tof-first", "8", "--t-tof-ref", "5.749", "--force-theta", "0.785398",
    ],
    "table1.csv": ["table1"],
    "evolve_nu0_3.csv": [
        "evolve", *XI_README, "--nu0", "3", "--t-end", "6", "--snapshots", "100",
    ],
    "husimi_2_7.csv": [
        "husimi", "--nu1", "2", "--nu2", "7", "--theta", "0.785398", "--grid=-3:3:21",
    ],
}


def split_numbers(text):
    """The text with every number replaced by "#", and the numbers."""
    return NUMBER.sub("#", text), NUMBER.findall(text)


def is_integer(token):
    return not any(c in token for c in ".eE")


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_the_stored_output(name, capsys):
    assert run_command(CASES[name]) == 0
    got_layout, got = split_numbers(capsys.readouterr().out)
    want_layout, want = split_numbers((DATA / name).read_text(encoding="utf-8"))
    assert got_layout == want_layout
    assert len(got) == len(want) > 0
    worst = 0.0
    for k, (g, w) in enumerate(zip(got, want)):
        if is_integer(w):
            assert g == w, f"number {k}: integer {w} became {g}"
        else:
            assert not is_integer(g), f"number {k}: {w} became the integer {g}"
            worst = max(worst, abs(float(g) - float(w)))
    assert worst <= GOLDEN_ATOL


def test_split_numbers_keeps_names_and_finds_every_number():
    layout, numbers = split_numbers('time,p0,p1\n0,1e-05,-2.5\n{"m1": 3, "x": null}')
    assert layout == 'time,p0,p1\n#,#,#\n{"m1": #, "x": null}'
    assert numbers == ["0", "1e-05", "-2.5", "3"]
