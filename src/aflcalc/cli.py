"""Command-line sweeps with machine-readable JSON reports.

Commands: afl (level-(0,0) identity and transfer sweep), deform (closed-form
versus recursive lift bounds), orb (orbital integrals of the integral-point
indicator), germ (extraction round-trip and expansion validity battery), and
ati (growth plus end-to-end residual checks).  COMMANDS is the flag table:
each command's help text and the defaults of its range flags.  ``main`` is
the one sweep driver: it parses every range once, checks LOWER_BOUNDS, hands
the command's ``run_*`` the sorted, de-duplicated values, counts the failed
rows and writes the report.  A ``run_*`` only builds its grid and evaluates
its rows.  Reports are deterministic: rows are sorted by their parameter
tuple, numbers render canonically, and a fixed schema number leads the
document, so identical configs yield identical bytes.  Exit code 0 means
every row passed, 1 means some verification failed, 2 means the
configuration was rejected: unparsable ranges, an invalid residue size, a
value below its lower bound, an ``--out`` path that cannot be written, or
ranges that select no rows.

AFL_CALC_THREADS caps row-level parallelism (default 1, serial), and the
process pool never exceeds the CPU count.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from json.encoder import encode_basestring_ascii as _escape
from typing import Callable, Sequence

from .battery import germ_battery
from .deformation import (DeformQuery, InadmissibleParityError, hom_height_attainable,
                          lift_bound, lift_bound_recursive, ramification_index)
from .field import FieldSetup
from .germs import extract_germ, function_from_germ
from .matching import (MatchContext, afl_verify, ati_end_to_end, ati_growth_check)
from .orbital import InvariantFunction, Side, integral_indicator, orb_s, orbits_at
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
        n = int(raw)
    except ValueError:
        raise ConfigError(f"AFL_CALC_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def _map(fn: Callable, items: Sequence) -> list:
    # the executor starts every worker up front, so more than one per CPU
    # only costs processes
    n = min(_workers(), os.cpu_count() or 1)
    if n == 1 or len(items) < 4:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=n) as pool:
        # about four chunks per worker: rows are too small to ship one by one
        return list(pool.map(fn, items, chunksize=-(-len(items) // (4 * n))))


def _afl_row(params: tuple[FieldSetup, int, int]) -> dict:
    setup, t, v_b = params
    return afl_verify(setup, t, v_b).to_json()


def run_afl(q: list[int], t: list[int], vb: list[int]) -> dict:
    setups = [_setup(q_, False) for q_ in q]
    return {"rows": _map(_afl_row, list(product(setups, [t_ for t_ in t if t_ >= 0], vb)))}


def _deform_row(params: tuple[FieldSetup, int, int, int, int]) -> dict:
    setup, i, j, e_rel, l = params
    row = {"ramified": setup.ramified, "q": setup.q, "i": i, "j": j, "e_rel": e_rel, "l": l}
    try:
        query = DeformQuery(setup, i, j, e_rel, l)
        mirror = DeformQuery(setup, j, i, e_rel, l)
    except InadmissibleParityError:
        row.update({"status": "inadmissible-parity", "passed": True})
        return row
    closed = lift_bound(query)
    recursive = lift_bound_recursive(query)
    symmetric = lift_bound(mirror)
    row.update({
        "status": "ok",
        "closed": closed,
        "recursive": recursive,
        "mirror": symmetric,
        "passed": closed == recursive == symmetric and closed >= e_rel,
    })
    return row


def run_deform(ram: list[bool], q: list[int], ij: list[int], e: list[int],
               l: list[int]) -> dict:
    setups = [_setup(q_, ram_) for ram_, q_ in product(ram, q)]
    params = [(setup, i, j, e_rel, l_) for setup, i, j, e_rel, l_ in product(setups, ij, ij, e, l)
              if hom_height_attainable(setup, i, j, l_)]
    return {"rows": _map(_deform_row, params)}


def _orb_row(params: tuple[FieldSetup, int, int]) -> dict:
    setup, t, v_b = params
    q, ram = setup.q, setup.ramified
    # a ramified row shows eta(b) = +1 and the U0 orbit at t = 0, the U1 orbit
    # beyond; an unramified (t, v_b) has one orbit
    gammas = orbits_at(setup, t, 2 * v_b)
    gamma = next((g for g in gammas if g.side == (Side.U0 if t == 0 else Side.U1)), gammas[0])
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
    return {"rows": _map(_orb_row, params), "f": integral_indicator().to_json()}


def _germ_row(params: tuple[FieldSetup, str, InvariantFunction]) -> dict:
    setup, name, f = params
    q, ram = setup.q, setup.ramified
    germ = extract_germ(setup, f)
    roundtrip = germ.equivalent(extract_germ(setup, function_from_germ(germ)))
    expansion = True
    for t in range(germ.threshold, germ.threshold + 4):
        for v_b2 in range(-4, 5):
            for gamma in orbits_at(setup, t, v_b2):
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
    return {"rows": _map(_germ_row, params)}


def _ati_row(params: tuple[FieldSetup, int, int, int, tuple[int, ...]]) -> dict:
    setup, i, j, e_rel, ts = params
    ctx = MatchContext(setup, i, j, e_f=e_rel * ramification_index(setup, max(i, j)))
    growth = ati_growth_check(ctx, ts, finite_lvl_a=(0 if i >= 1 else None))
    end_to_end = ati_end_to_end(ctx)
    return {"q": setup.q, "ramified": setup.ramified, "i": i, "j": j, "e_rel": e_rel,
            "e_f": ctx.e_f, "growth": growth.to_json(), "end_to_end": end_to_end.to_json(),
            "passed": growth.passed and end_to_end.passed}


def run_ati(q: list[int], ram: list[bool], i: list[int], j: list[int], e: list[int],
            t: list[int]) -> dict:
    setups = [_setup(q_, ram_) for q_, ram_ in product(q, ram)]
    params = [(*point, tuple(t)) for point in product(setups, i, j, e)]
    return {"rows": _map(_ati_row, params)}


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


def _render(obj, indent: str, tail: str = "") -> str:
    """obj as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it, its
    lines after the first indented by indent, followed by tail.  Reports hold
    only dicts with str keys, lists, tuples, str, int, bool and None; any other
    type (a float, a Fraction, an int subclass) raises TypeError."""
    kind = type(obj)
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}" + tail
        items = []
        # _escape raises TypeError on a non-str key
        for key, value in sorted(obj.items()):
            value_kind = type(value)
            if value_kind is str:
                text = _escape(value)
            elif value_kind is int:
                text = int.__repr__(value)
            elif value_kind is bool or value is None:
                text = _LITERALS[value]
            else:
                text = _render(value, inner)
            items.append(f"{_escape(key)}: {text}")
        return "".join(("{\n", inner, (",\n" + inner).join(items), "\n", indent, "}", tail))
    if kind is list or kind is tuple:
        if not obj:
            return "[]" + tail
        items = [_render(value, inner) for value in obj]
        return "".join(("[\n", inner, (",\n" + inner).join(items), "\n", indent, "]", tail))
    if kind is str:
        return _escape(obj) + tail
    if kind is int:
        return int.__repr__(obj) + tail
    if kind is bool or obj is None:
        return _LITERALS[obj] + tail
    raise TypeError(f"a report cannot hold a {kind.__name__}")


def render_report(body: dict) -> str:
    report = {"schema": SCHEMA}
    report.update(body)
    return _render(report, "", "\n")


_VALUE_FLAGS = {"--out"} | {f"--{flag}" for _, defaults in COMMANDS.values() for flag in defaults}


def _fuse_values(argv: Sequence[str]) -> list[str]:
    """Join value flags with their argument so ranges like -8..8 survive argparse."""
    out: list[str] = []
    skip = False
    for k, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VALUE_FLAGS and k + 1 < len(argv):
            out.append(f"{token}={argv[k + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def _check_writable(path: str) -> None:
    """Reject a report path that cannot be written, before the sweep runs."""
    directory = os.path.dirname(os.path.abspath(path))
    # an empty path, or one ending in a separator, names no file
    if (not os.path.basename(path) or os.path.isdir(path) or not os.path.isdir(directory)
            or not os.access(directory, os.W_OK)):
        raise ConfigError(f"cannot write the report to {path!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_values(argv))
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
        if not body["rows"]:
            raise ConfigError("the sweep selects no rows")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.command == "deform":
        params["oracle_cross_check"] = args.oracle_cross_check
    failures = sum(1 for row in body["rows"] if not row.get("passed", False))
    body.update(command=args.command, params=params, total=len(body["rows"]),
                failures=failures, passed=failures == 0)
    text = render_report(body)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
