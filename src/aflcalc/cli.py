"""Command-line sweeps with machine-readable JSON reports.

Commands: afl (level-(0,0) identity and transfer sweep), deform (closed-form
versus recursive lift bounds), orb (orbital integrals of the integral-point
indicator), germ (extraction round-trip and expansion validity battery), and
ati (growth plus end-to-end residual checks).  COMMANDS is the flag table:
each command's help text and the defaults of its range flags.  ``main`` is
the one sweep driver: it parses every range once, checks LOWER_BOUNDS, hands
the command's ``run_*`` the sorted, de-duplicated values, takes back its
report texts with the ``total`` and ``failures`` of their rows, and writes
the report.  ``afl``, ``orb``, ``germ`` and ``ati`` map items: their
``run_*`` only builds its grid's items, one row each, hands ``_map`` a
function giving an item's rows as (pass flag, text) pairs, in the worker
when a pool runs, and counts them in ``_counted``.  ``run_deform`` maps
nothing: one loop walks its setups and ordered level pairs in report order,
giving one text of rows per pair, and asks each lift-bound route for one
column of heights per ordered pair and e_rel; the first of two transposed
pairs also computes the other's closed columns, each row's mirror, and
leaves them to it.  A ``deform`` row is no dict but one ``%`` of its
column's ``_OK_ROW`` or ``_INADMISSIBLE_ROW``, built at import by the
generator of ``_flat_text``, which renders every other row of scalars alone;
a row that nests goes through ``_render``.  The growth and end-to-end rows
inside an ``ati`` row are no dicts either: ``_leaf_texts`` renders each as
one ``%`` of its type's format from the same generator.  ``render_report``
splices the texts into the document, joined once, and ``main`` writes it in
1 MiB slices.
Reports are deterministic: rows are sorted by their parameter tuple, numbers
render canonically, and a fixed schema number leads the document, so
identical configs yield identical bytes.  Exit code 0 means every row passed,
1 means some verification failed, 2 means the configuration was rejected:
unparsable ranges, an invalid residue size, a value below its lower bound,
an ``--out`` path that cannot be written, ranges that select no rows, or a
row with an int of more digits than Python prints; exit 2 also ends a run
whose report write fails (a full disk, a closed pipe), with one line on
stderr.

AFL_CALC_THREADS caps the item-level parallelism of the four commands that
map items (default 1, serial), the process pool never exceeds the CPU
count, and fewer than four items run serially; ``deform`` always runs in
process, where its rows need no trip through pickle.  The pool's modules
are imported only when a pool starts, so a serial run never loads them.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache, partial
from itertools import chain, product
from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter
from typing import Callable, Sequence

from .battery import germ_battery
from .deformation import (hom_height_attainable, lift_bound, lift_bound_recursive,
                          ramification_index)
from .field import MINUS, PLUS, FieldSetup
from .germs import extract_germ, function_from_germ
from .matching import (MatchContext, afl_verify, ati_end_to_end, ati_growth_check)
from .orbital import InvariantFunction, OrbitData, integral_indicator, orb_s, orbits_at
from .symbolic import log_text

SCHEMA = 1

# command -> (help text, {range flag: default}); --ram takes flags, the other
# range flags integers.  Every command also takes --out.
COMMANDS: dict[str, tuple[str, dict[str, str]]] = {
    "afl": ("level-(0,0) identity and transfer sweep",
            {"q": "3,5,7", "t": "1..21", "vb": "-8..8"}),
    "deform": ("closed-form vs recursive lift bounds",
               {"ram": "0,1", "q": "2..5", "ij": "0..5", "e": "1..3", "l": "0..25"}),
    "orb": ("orbital integrals of the integral indicator",
            {"q": "3", "ram": "0", "t": "0..6", "vb": "-3..3"}),
    "germ": ("germ round-trip and expansion battery", {"q": "3", "ram": "0,1"}),
    "ati": ("growth and end-to-end residual checks",
            {"q": "2,3", "ram": "0,1", "i": "0..2", "j": "0..2", "e": "1,2", "t": "0..16"}),
}

# Levels and class heights are >= 0 and the base ramification e_rel is >= 1,
# in every command that takes them.
LOWER_BOUNDS = {"i": 0, "j": 0, "ij": 0, "l": 0, "e": 1}


class ConfigError(ValueError):
    pass


def _setup(q: int, ram: bool, eta_pi: int | None = None) -> FieldSetup:
    """The field setup of one sweep point; an invalid q is a configuration error."""
    try:
        return FieldSetup(q, ram, eta_pi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_pieces(text: str, parse_piece: Callable[[str], list]) -> list:
    """Concatenate parse_piece over the comma-separated pieces of text; an
    empty piece (as in '3,,5' or '') is a configuration error."""
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise ConfigError(f"empty piece in {text!r}")
        out.extend(parse_piece(piece))
    return out


def _range_piece(piece: str) -> list[int]:
    lo_text, span, hi_text = piece.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if span else lo
    except ValueError as exc:
        raise ConfigError(f"bad range piece {piece!r}") from exc
    if hi < lo:
        raise ConfigError(f"empty range piece {piece!r}")
    return list(range(lo, hi + 1))


_RAM_FLAGS = {"0": False, "f": False, "false": False, "unram": False,
              "1": True, "t": True, "true": True, "ram": True}


def _ram_piece(piece: str) -> list[bool]:
    flag = _RAM_FLAGS.get(piece.lower())
    if flag is None:
        raise ConfigError(f"bad ramified flag {piece!r}")
    return [flag]


def parse_range(text: str) -> list[int]:
    """Comma-separated integers and lo..hi spans, e.g. '3,5,7' or '-8..8'."""
    return _parse_pieces(text, _range_piece)


def parse_ram(text: str) -> list[bool]:
    return _parse_pieces(text, _ram_piece)


def _workers() -> int:
    raw = os.environ.get("AFL_CALC_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"AFL_CALC_THREADS must be an integer, got {raw!r}")


# Rows are the items of the report's top-level "rows" list, two levels deep;
# the list renderer puts _ROW_SEPARATOR between two of them.
_ROW_INDENT = "    "
_ROW_SEPARATOR = ",\n" + _ROW_INDENT


def _rendered_rows(fn: Callable, item) -> list[tuple[bool, str]]:
    """fn's row dict for item as [(pass flag, text)] for _counted, a flat row
    in one _flat_text call, any other through _render, where the leaf lists
    of an ati row are text already; bound to fn by a partial, it can ship to
    a pool.  An int too long to print, in fn's row or leaf texts or in the
    row's text, is a configuration error; no other ValueError fn raises is."""
    try:
        row = fn(item)
        text = _flat_text(row, _ROW_INDENT)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # the int-to-str limit's message
            raise
        raise _digit_limit() from exc
    return [(bool(row.get("passed", False)), _render(row, _ROW_INDENT) if text is None else text)]


def _map(fn: Callable, items: Sequence) -> list[list[tuple[bool, str]]]:
    """fn over items, in order: each item's (pass flag, text) list for _counted."""
    # the executor starts every worker up front, so more than one per CPU
    # only costs processes
    n = min(_workers(), os.cpu_count() or 1)
    if n == 1 or len(items) < 4:
        return list(map(fn, items))
    # imported here: its modules (multiprocessing, pickle, socket, logging)
    # cost a serial run's import time and never serve it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=n) as pool:
        # about four chunks per worker: most items are a row, too small to
        # ship one by one
        return list(pool.map(fn, items, chunksize=-(-len(items) // (4 * n))))


def _counted(blocks: list[list[tuple[bool, str]]]) -> dict:
    """The body of _map's lists: their texts in order, their count and the
    count of failed rows.  Only the texts outlive the call."""
    failures = 0
    texts = _RenderedItems()
    for passed, text in chain.from_iterable(blocks):
        failures += not passed
        texts.append(text)
    return {"rows": texts, "total": len(texts), "failures": failures}


def _afl_row(params: tuple[FieldSetup, int, int]) -> dict:
    setup, t, v_b = params
    return afl_verify(setup, t, v_b).to_json()


def run_afl(q: list[int], t: list[int], vb: list[int]) -> dict:
    params = list(product([_setup(q_, False) for q_ in q], [t_ for t_ in t if t_ >= 0], vb))
    return _counted(_map(partial(_rendered_rows, _afl_row), params))


def run_deform(ram: list[bool], q: list[int], ij: list[int], e: list[int],
               l: list[int]) -> dict:
    """One text per setup and ordered level pair with rows, in report order,
    of its rows at each e_rel and attainable height, each one ``%`` of its
    column's format; with the count of rows and of failed ones.  A lift
    bound is symmetric in the levels, so a row's mirror is the transposed
    row's closed value: the first of two transposed pairs computes both
    closed columns and leaves them, with its heights, to the second."""
    setups = [_setup(q_, ram_) for ram_, q_ in product(ram, q)]
    texts, rows, failures = _RenderedItems(), 0, 0
    left = {}  # (setup, i, j) -> heights and (closed, mirror) columns from (j, i)
    for setup, i, j in product(setups, ij, ij):
        if (setup, i, j) in left:
            heights, columns = left.pop((setup, i, j))
        else:
            # hom_height_attainable reads only |i - j| and min(i, j)
            heights = [l_ for l_ in l if hom_height_attainable(setup, i, j, l_)]
            columns = []
            for e_rel in e:
                closed = lift_bound(setup, i, j, e_rel, heights)
                columns.append((closed, lift_bound(setup, j, i, e_rel, heights)
                                if i != j else closed))
            if i != j:
                left[setup, j, i] = heights, [(mirror, closed) for closed, mirror in columns]
        q_, ram_ = setup.q, _LITERALS[setup.ramified]
        block = []
        for e_rel, (closed, mirror) in zip(e, columns):
            recursive = lift_bound_recursive(setup, i, j, e_rel, heights)
            try:
                ok = _OK_COLUMN % ("%d", e_rel, i, j, "%d", "%d", "%s", q_, ram_, "%d", _OK)
                inadmissible = _INADMISSIBLE_COLUMN % (e_rel, i, j, "%d", "true", q_, ram_,
                                                       _INADMISSIBLE)
                for l_, c, m, r in zip(heights, closed, mirror, recursive):
                    if c is None:
                        block.append(inadmissible % l_)
                    else:
                        passed = c == r == m and c >= e_rel
                        failures += not passed
                        block.append(ok % (c, l_, m, _LITERALS[passed], r))
            except ValueError as exc:  # only an int's conversion raises one
                raise _digit_limit() from exc
        if block:
            rows += len(block)
            texts.append(_ROW_SEPARATOR.join(block))
    return {"rows": texts, "total": rows, "failures": failures}


def _orb_row(params: tuple[FieldSetup, int, int]) -> dict:
    setup, t, v_b = params
    q, ram = setup.q, setup.ramified
    # a ramified row shows eta(b) = +1 and the orbit of defect sign +1 (U0)
    # at t = 0, of defect sign -1 (U1) beyond; an unramified (t, v_b) has one
    # orbit
    gammas = orbits_at(setup, t, 2 * v_b)
    gamma = next((g for g in gammas if g.defect_sign == (PLUS if t == 0 else MINUS)), gammas[0])
    f = integral_indicator()
    series = orb_s(gamma, f)
    return {
        "q": q, "ramified": ram, "t": t, "v_b": v_b,
        "gamma": gamma.to_json(),
        "orb_s": series.text(),
        "orb": str(series.eval_at_s0()),
        "d_orb": log_text(series.d_ds_at_s0()),
        "passed": True,
    }


def run_orb(q: list[int], ram: list[bool], t: list[int], vb: list[int]) -> dict:
    setups = [_setup(q_, ram_) for q_, ram_ in product(q, ram)]
    params = list(product(setups, [t_ for t_ in t if t_ >= 0], vb))
    return {**_counted(_map(partial(_rendered_rows, _orb_row), params)),
            "f": integral_indicator().to_json()}


@lru_cache(maxsize=64)
def _expansion_orbits(setup: FieldSetup, threshold: int) -> tuple[OrbitData, ...]:
    """Every orbit of the setup with t from threshold to threshold + 3 and
    v_b2 from -4 to 4, the orbits a germ's expansion is checked on."""
    return tuple(gamma for t in range(threshold, threshold + 4) for v_b2 in range(-4, 5)
                 for gamma in orbits_at(setup, t, v_b2))


def _germ_row(params: tuple[FieldSetup, str, InvariantFunction]) -> dict:
    """A battery function's round trip, and its orbital integrals against its
    germ's expansion on the orbits past the threshold.  Orbits are fixed by
    their invariants, so every function of a setup whose germ has the same
    threshold is checked on one cached tuple of them."""
    setup, name, f = params
    q, ram = setup.q, setup.ramified
    germ = extract_germ(setup, f)
    roundtrip = germ.equivalent(extract_germ(setup, function_from_germ(germ)))
    expansion = True
    for gamma in _expansion_orbits(setup, germ.threshold):
        if orb_s(gamma, f) != germ.predicted_orb_s(gamma):
            expansion = False
    return {"q": q, "ramified": ram, "eta_pi_f": setup.eta_pi_f, "name": name,
            "threshold": germ.threshold, "germ": germ.to_json(),
            "roundtrip": roundtrip, "expansion": expansion,
            "passed": roundtrip and expansion}


def run_germ(q: list[int], ram: list[bool]) -> dict:
    # one setup per sign eta(pi_F) can take
    setups = [_setup(q_, ram_, eta_pi) for q_, ram_ in product(q, ram)
              for eta_pi in _setup(q_, ram_).signs(2)]
    params = [(setup, name, f) for setup in setups for name, f in germ_battery(setup)]
    return _counted(_map(partial(_rendered_rows, _germ_row), params))


def _ati_row(params: tuple[FieldSetup, int, int, int, tuple[int, ...]]) -> dict:
    setup, i, j, e_rel, ts = params
    ctx = MatchContext(setup, i, j, e_f=e_rel * ramification_index(setup, max(i, j)))
    growth = ati_growth_check(ctx, ts, finite_lvl_a=(0 if i >= 1 else None))
    end_to_end = ati_end_to_end(ctx)
    leaves = partial(_leaf_texts, indent=_ROW_INDENT + "  ")  # the reports' indent in the row
    return {"q": setup.q, "ramified": setup.ramified, "i": i, "j": j, "e_rel": e_rel,
            "e_f": ctx.e_f, "growth": growth.to_json(leaves),
            "end_to_end": end_to_end.to_json(leaves), "passed": growth.passed and end_to_end.passed}


def run_ati(q: list[int], ram: list[bool], i: list[int], j: list[int], e: list[int],
            t: list[int]) -> dict:
    setups = [_setup(q_, ram_) for q_, ram_ in product(q, ram)]
    params = [(*point, tuple(t)) for point in product(setups, i, j, e)]
    return _counted(_map(partial(_rendered_rows, _ati_row), params))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aflcalc",
        description="exact sweeps for orbital integrals, deformation lengths, "
                    "and the AFL/ATI identity checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, defaults) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for flag, default in defaults.items():
            cmd.add_argument(f"--{flag}", default=default)
        if command == "deform":
            # only echoed in the report: the recursion always runs
            cmd.add_argument("--oracle-cross-check", action="store_true")
        cmd.add_argument("--out", default=None, help="write the JSON report here")
    return parser


_LITERALS = {True: "true", False: "false", None: "null"}


class _RenderedItems(list):
    """A list whose items are text already rendered at their place in the
    report; the writer copies them as they are."""

    __slots__ = ()


# The text of each scalar type a report may hold, by exact type: a container,
# a float, a Fraction or an int subclass is not here.
_SCALAR_TEXT = {str: _escape, int: int.__repr__, bool: _LITERALS.__getitem__,
                type(None): _LITERALS.__getitem__}


@lru_cache(maxsize=256)
def _sorted_keys(keys: tuple, indent: str) -> tuple[tuple[str, ...], Callable, dict]:
    """keys' escaped ``"key": `` prefixes in sorted order, a getter of a dict's
    values in that order, and the dict _flat_text and _leaf_texts fill with
    the format of each tuple of value types they meet.  Each key set is
    sorted and escaped once per indent; a non-str key raises TypeError, and
    a raise is not cached."""
    ordered = sorted(keys)
    getter = itemgetter(*ordered) if len(keys) > 1 else lambda obj: (obj[ordered[0]],)
    return tuple(_escape(key) + ": " for key in ordered), getter, {}


def _typed_format(prefixes: tuple[str, ...], kinds: tuple, indent: str) -> tuple | None:
    """The ``%``-format of a dict at indent with values of types kinds, if all
    are scalars, and the text function of each value not filled by a ``%d``."""
    if all(kind in _SCALAR_TEXT for kind in kinds):
        inner = indent + "  "
        slots = [prefix.replace("%", "%%") + ("%d" if kind is int else "%s")
                 for prefix, kind in zip(prefixes, kinds)]
        return ("{\n" + inner + (",\n" + inner).join(slots) + "\n" + indent + "}",
                tuple((k, _SCALAR_TEXT[kind]) for k, kind in enumerate(kinds) if kind is not int))


def _flat_text(obj: dict, indent: str) -> str | None:
    """The text _render_into gives obj if obj is empty or holds scalars alone,
    its _typed_format filled in by one ``%``; None if obj holds anything else."""
    if not obj:
        return "{}"
    prefixes, getter, forms = _sorted_keys(tuple(obj), indent)
    values = getter(obj)
    kinds = tuple(map(type, values))
    try:
        form = forms[kinds]
    except KeyError:
        form = forms[kinds] = _typed_format(prefixes, kinds, indent)
    if form is None:
        return None
    values = list(values)
    for k, text in form[1]:
        values[k] = text(values[k])
    return form[0] % tuple(values)


def _leaf_texts(rows: Sequence, depth: int, indent: str) -> _RenderedItems:
    """rows' texts depth levels below indent, with no dict: each is one ``%``
    of the _typed_format of its type's json_keys and of the first row's
    value types, which a list's rows share, filled from its json_values."""
    texts = _RenderedItems()
    if rows:
        indent += "  " * depth
        prefixes, _, forms = _sorted_keys(rows[0].json_keys, indent)
        row_values = [row.json_values() for row in rows]
        kinds = tuple(map(type, row_values[0]))
        form, conversions = forms.get(kinds) or forms.setdefault(
            kinds, _typed_format(prefixes, kinds, indent))
        for values in row_values:
            for k, text in conversions:
                values[k] = text(values[k])
            texts.append(form % tuple(values))
    return texts


def _row_format(*ints: str) -> str:
    """_flat_text's format for a deform row of these int keys, two bools and a status."""
    kinds = dict.fromkeys(ints, int) | {"passed": bool, "ramified": bool, "status": str}
    prefixes, getter, _ = _sorted_keys(tuple(kinds), _ROW_INDENT)
    return _typed_format(prefixes, getter(kinds), _ROW_INDENT)[0]


# The two kinds of deform row, formatted once; values fill them in sorted key order.
_OK_ROW = _row_format("closed", "e_rel", "i", "j", "l", "mirror", "q", "recursive")
_INADMISSIBLE_ROW = _row_format("e_rel", "i", "j", "l", "q")
_OK, _INADMISSIBLE = _escape("ok"), _escape("inadmissible-parity")
# Every slot a %s: a column fills in its constant values and its rows' %d or %s
_OK_COLUMN, _INADMISSIBLE_COLUMN = (form.replace("%d", "%s")
                                     for form in (_OK_ROW, _INADMISSIBLE_ROW))


def _render_into(obj, indent: str, parts: list[str]) -> None:
    """Append to parts the text of obj as ``json.dumps(obj, sort_keys=True,
    indent=2)`` writes it, its lines after the first indented by indent.
    Reports hold only dicts with str keys, lists, tuples, str, int, bool,
    None, and _RenderedItems; any other type (a float, a Fraction, an int
    subclass) raises TypeError.  A dict _flat_text renders is one part; any
    other dict, the report among them, goes key by key into parts, so the
    report's rows are never copied before the join."""
    kind = type(obj)
    if kind is dict:
        text = _flat_text(obj, indent)
        if text is not None:
            parts.append(text)
            return
        prefixes, getter, _ = _sorted_keys(tuple(obj), indent)
        inner = indent + "  "
        separator = "{\n" + inner
        for prefix, value in zip(prefixes, getter(obj)):
            kind = type(value)
            text = _SCALAR_TEXT.get(kind)
            if text is None:
                parts.append(separator + prefix)
                _render_into(value, inner, parts)
            else:
                parts.append(separator + prefix + text(value))
            separator = ",\n" + inner
        parts.append("\n" + indent + "}")
    elif kind is list or kind is tuple or kind is _RenderedItems:
        if not obj:
            parts.append("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for value in obj:
            parts.append(separator)
            if kind is _RenderedItems:
                parts.append(value)
            else:
                _render_into(value, inner, parts)
            separator = ",\n" + inner
        parts.append("\n" + indent + "]")
    elif kind in _SCALAR_TEXT:
        parts.append(_SCALAR_TEXT[kind](obj))
    else:
        raise TypeError(f"a report cannot hold a {kind.__name__}")


def _digit_limit() -> ConfigError:
    return ConfigError(f"a report int has over {sys.get_int_max_str_digits()} digits")


def _render(obj, indent: str, tail: str = "") -> str:
    """The text _render_into gives obj, followed by tail, joined once."""
    parts: list[str] = []
    try:
        _render_into(obj, indent, parts)
    except ValueError as exc:  # only an int's conversion raises one
        raise _digit_limit() from exc
    parts.append(tail)
    return "".join(parts)


def render_report(body: dict) -> str:
    return _render({"schema": SCHEMA, **body}, "", "\n")


# Reports are written in slices of this many characters (bytes: a report is
# ASCII), so the stream never encodes the whole report at once.
_SLICE = 1 << 20


def _write_report(stream, text: str) -> None:
    for start in range(0, len(text), _SLICE):
        stream.write(text[start:start + _SLICE])


_VALUE_FLAGS = {"--out"} | {f"--{flag}" for _, defaults in COMMANDS.values() for flag in defaults}


def _fuse_values(argv: Sequence[str]) -> list[str]:
    """Join value flags with their argument so ranges like -8..8 survive argparse."""
    out: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_FLAGS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _check_writable(path: str) -> None:
    """Reject a report path that cannot be written, before the sweep runs.

    Links are followed.  An existing file needs only its own write
    permission, as open(path, "w") does; a new one needs an existing,
    writable directory, so a dangling link into a missing directory is
    refused."""
    # an empty path, or one ending in a separator, names no file
    if not os.path.basename(path) or os.path.isdir(path):
        writable = False
    elif os.path.exists(path):
        writable = os.access(path, os.W_OK)
    else:
        directory = os.path.dirname(os.path.realpath(path))
        writable = os.path.isdir(directory) and os.access(directory, os.W_OK)
    if not writable:
        raise ConfigError(f"cannot write the report to {path!r}")


def _drop_stdout() -> None:
    """Point stdout's descriptor at os.devnull after a failed report write.

    A failed flush may leave the report's bytes in stdout's buffer, and the
    interpreter flushes stdout again at exit; on the dead descriptor that
    flush would fail too, print "Exception ignored" and exit 120.  This is the
    recipe Python's ``signal`` docs give after a caught BrokenPipeError.  A
    stdout replaced by an object without a descriptor is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_fuse_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.out is not None:
            _check_writable(args.out)
        params = {flag: (parse_ram if flag == "ram" else parse_range)(getattr(args, flag))
                  for flag in COMMANDS[args.command][1]}
        for flag, low in LOWER_BOUNDS.items():
            if min(params.get(flag, [low])) < low:
                raise ConfigError(f"--{flag} must be >= {low} "
                                  "(levels and heights are >= 0, e_rel is >= 1)")
        run = globals()[f"run_{args.command}"]  # looked up per call, so a tracer's wrapper runs
        body = run(**{flag: sorted(set(values)) for flag, values in params.items()})
        if not body["total"]:
            raise ConfigError("the sweep selects no rows")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "deform":
        params["oracle_cross_check"] = args.oracle_cross_check
    body.update(command=args.command, params=params, passed=body["failures"] == 0)
    text = render_report(body)
    try:
        if args.out is not None:
            with open(args.out, "w") as handle:
                _write_report(handle, text)
        else:
            _write_report(sys.stdout, text)
            sys.stdout.flush()  # so a failed write raises here, inside the handler
    except OSError as exc:
        target = "stdout" if args.out is None else repr(args.out)
        print(f"cannot write the report to {target}: {exc.strerror or exc}", file=sys.stderr)
        if args.out is None:
            _drop_stdout()
        return 2
    return 1 if body["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
