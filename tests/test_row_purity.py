"""A report row is a function of its parameters alone.

Several caches outlive a row: integral_indicator's shared instance and its
run-weight tables, GermExpansion._cells and cli._sorted_keys (each key
set's prefixes and getter, per indent, and the %-format of each tuple of
value types met at them).
Rows of small grids of all five commands are built here in orders that mix
the commands, in a process that has run whatever ran before, and each row's
text must equal its text in an in-order run of its own grid in a fresh
interpreter."""

import json
import os
import subprocess
import sys
from functools import cache
from itertools import chain, zip_longest
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from aflcalc import cli

ROOT = Path(__file__).resolve().parents[1]

# The afl grid holds the first orbit of each unramified ati row, so an order
# can put an afl row and an ati row at one orbit, with different functions,
# next to each other.  orb takes both ramifications of a q no other test uses,
# so the first order run here decides which fills its shared weight table.
GRIDS = {
    "afl": ("--q", "3", "--t", "1..3", "--vb", "-1..0"),
    "deform": ("--ram", "0,1", "--q", "2,3", "--ij", "0..1", "--e", "1", "--l", "0..2"),
    "orb": ("--q", "3,23", "--ram", "0,1", "--t", "0..2", "--vb", "0"),
    "germ": ("--q", "3", "--ram", "0"),
    "ati": ("--q", "3", "--ram", "0,1", "--i", "0..1", "--j", "0..1", "--e", "1", "--t", "0..12"),
}


@cache
def grid_rows() -> tuple:
    """(command, index, row function, row parameters) for every row of every
    grid, each grid in its own order, as main hands them to _map."""
    rows = []
    for command, flags in GRIDS.items():
        mapped = []

        def recording(fn, items):
            mapped.extend((fn, item) for item in items)
            return []  # no rows: main stops with "the sweep selects no rows"
        with mock.patch.object(cli, "_map", recording):
            assert cli.main([command, *flags]) == 2
        rows.extend((command, k, fn, item) for k, (fn, item) in enumerate(mapped))
    return tuple(rows)


@cache
def fresh_texts() -> dict:
    """command -> each row's text from its grid's report, written by a fresh
    interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("AFL_CALC_THREADS", None)
    texts = {}
    for command, flags in GRIDS.items():
        done = subprocess.run([sys.executable, "-m", "aflcalc.cli", command, *flags],
                              capture_output=True, text=True, env=env)
        assert done.returncode in (0, 1), done.stderr  # 1: some row failed its check
        rows = json.loads(done.stdout)["rows"]
        texts[command] = [cli._render(row, cli._ROW_INDENT) for row in rows]
    return texts


def round_robin(reverse: bool) -> list:
    """One row of each command in turn, in grid order, or that order reversed."""
    by_command = [[row for row in grid_rows() if row[0] == command] for command in GRIDS]
    order = [row for row in chain.from_iterable(zip_longest(*by_command)) if row is not None]
    return order[::-1] if reverse else order


@settings(max_examples=20, deadline=None)
@example(order="reversed round robin")  # run first: ramified orb rows fill q = 23's table
@example(order="round robin")
@given(order=st.randoms(use_true_random=False))
def test_rows_are_pure(order):
    if isinstance(order, str):
        rows = round_robin(reverse=order.startswith("reversed"))
    else:
        rows = list(grid_rows())
        order.shuffle(rows)
    texts = fresh_texts()
    assert sorted((command, k) for command, k, _, _ in rows) == sorted(
        (command, k) for command in GRIDS for k in range(len(texts[command])))
    for command, k, fn, item in rows:
        assert cli._rendered_row(fn, item)[1] == texts[command][k], (command, k)
