"""A report row is a function of its parameters alone.

Several caches outlive a row: integral_indicator's shared instance and its
two tables, the live boxes per v(a), lvl_a and lvl_d (InvariantFunction._live,
which reads no field data and so serves both ramifications) and the run
weights per setup and eta (InvariantFunction._weights), a germ's memos
GermExpansion._cells and GermExpansion._products (the side products of
predicted_orb_s), cli._sorted_keys (each key set's prefixes and getter, per
indent, and the %-format of each tuple of value types met at them), and the
two orbit caches, matching._locus_orbit (the orbits context_orbit hands out,
per setup and defect sign) and cli._expansion_orbits (the orbits a germ row
checks, per setup and threshold).
afl and orb rows share integral_indicator across both ramifications, so a
weight table keyed by eta without the setup hands one ramification's
weights to the other, and test_rows_are_pure fails.
Items of small grids of all five commands are built here in orders that mix
the commands, in a process that has run whatever ran before.  Each row an
item yields (a deform item yields the rows of an unordered level pair) must
equal the row with the same parameters in an in-order run of its own grid in
a fresh interpreter, and the items must build every report row exactly once."""

import json
import os
import subprocess
import sys
from functools import cache
from itertools import chain, zip_longest
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from aflcalc import cli, matching
from aflcalc.deformation import ramification_index
from aflcalc.field import FieldSetup

ROOT = Path(__file__).resolve().parents[1]

# The afl grid holds the first orbit of each unramified ati row, so an order
# can put an afl row and an ati row at one orbit, with different functions,
# next to each other.  orb takes both ramifications of a q no other test uses,
# so the first order run here decides which setup first fills the shared
# live-box table of integral_indicator.
# germ takes both ramifications, so the unramified setup and the ramified
# setups of both eta(pi_F) fill the expansion-orbit cache in mixed orders.
GRIDS = {
    "afl": ("--q", "3", "--t", "1..3", "--vb", "-1..0"),
    "deform": ("--ram", "0,1", "--q", "2,3", "--ij", "0..1", "--e", "1", "--l", "0..2"),
    "orb": ("--q", "3,23", "--ram", "0,1", "--t", "0..2", "--vb", "0"),
    "germ": ("--q", "3", "--ram", "0,1"),
    "ati": ("--q", "3", "--ram", "0,1", "--i", "0..1", "--j", "0..1", "--e", "1", "--t", "0..12"),
}

# The keys whose values name a row in its command's report.
PARAMS = {
    "afl": ("q", "t", "v_b"),
    "deform": ("ramified", "q", "i", "j", "e_rel", "l"),
    "orb": ("q", "ramified", "t", "v_b"),
    "germ": ("q", "ramified", "eta_pi_f", "name"),
    "ati": ("q", "ramified", "i", "j", "e_rel"),
}


def params_of(command: str, text: str) -> tuple:
    row = json.loads(text)
    return tuple(row[key] for key in PARAMS[command])


@cache
def grid_items() -> tuple:
    """(command, function, item) for every item of every grid, each grid in
    its own order, as main hands them to _map: the function gives the item's
    rows as (pass flag, text) pairs."""
    items = []
    for command, flags in GRIDS.items():
        mapped = []

        def recording(fn, fn_items):
            mapped.extend((fn, item) for item in fn_items)
            # no rows for any item: main stops with "the sweep selects no rows"
            return [[] for _ in fn_items]
        with mock.patch.object(cli, "_map", recording):
            assert cli.main([command, *flags]) == 2
        items.extend((command, fn, item) for fn, item in mapped)
    return tuple(items)


@cache
def fresh_texts() -> dict:
    """command -> {row parameters: row text} from its grid's report, written
    by a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("AFL_CALC_THREADS", None)
    texts = {}
    for command, flags in GRIDS.items():
        done = subprocess.run([sys.executable, "-m", "aflcalc.cli", command, *flags],
                              capture_output=True, text=True, env=env)
        assert done.returncode in (0, 1), done.stderr  # 1: some row failed its check
        rows = [cli._render(row, cli._ROW_INDENT) for row in json.loads(done.stdout)["rows"]]
        texts[command] = {params_of(command, text): text for text in rows}
        assert len(texts[command]) == len(rows), command  # parameters name one row each
    return texts


def round_robin(reverse: bool) -> list:
    """One item of each command in turn, in grid order, or that order reversed."""
    by_command = [[item for item in grid_items() if item[0] == command] for command in GRIDS]
    order = [item for item in chain.from_iterable(zip_longest(*by_command)) if item is not None]
    return order[::-1] if reverse else order


@settings(max_examples=20, deadline=None)
@example(order="reversed round robin")  # run first: ramified orb rows fill q = 23's table
@example(order="round robin")
@given(order=st.randoms(use_true_random=False))
def test_rows_are_pure(order):
    if isinstance(order, str):
        items = round_robin(reverse=order.startswith("reversed"))
    else:
        items = list(grid_items())
        order.shuffle(items)
    texts = fresh_texts()
    built = []
    for command, fn, item in items:
        for _, text in fn(item):
            key = params_of(command, text)
            assert text == texts[command].get(key), (command, key)
            built.append((command, key))
    assert len(built) == len(set(built))
    assert set(built) == {(command, key) for command in GRIDS for key in texts[command]}


def test_cached_orbits_belong_to_the_setup_asked_for():
    """Each orbit the two orbit caches hand out has the setup it was asked
    for, eta(pi_F) included.  A key that dropped q or eta(pi_F) would hand
    back another setup's orbit, and no report byte would show it, since
    unit_integral reads only the ramification.  Two q and, ramified, both
    eta(pi_F) are asked at the same invariants, so such a key would meet an
    entry of another setup."""
    matching._locus_orbit.cache_clear()
    cli._expansion_orbits.cache_clear()
    setups = [FieldSetup(q, ram, eta_pi) for ram in (False, True)
              for eta_pi in FieldSetup(3, ram).signs(2) for q in (3, 5)]
    for threshold in (1, 2):
        for setup in setups:
            gammas = cli._expansion_orbits(setup, threshold)
            assert gammas and all(gamma.setup == setup for gamma in gammas), setup
            for i, j in ((0, 0), (0, 1), (1, 1)):
                ctx = matching.MatchContext(setup, i, j, ramification_index(setup, max(i, j)))
                for t, v_b2, lvl_a in ((threshold, 0, None), (2 * threshold + 1, 2, 0)):
                    if ctx.defect_sign in setup.signs(2 * t):
                        assert matching.context_orbit(ctx, t, v_b2, lvl_a).setup == setup, ctx
