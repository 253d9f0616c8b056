"""Command-line sweeps with machine-readable JSON reports.

Commands: afl (level-(0,0) identity and transfer sweep), deform (closed-form
versus recursive lift bounds), orb (orbital integrals of the integral-point
indicator), germ (extraction round-trip and expansion validity battery), and
ati (growth plus end-to-end residual checks).  Reports are deterministic:
rows are sorted by their parameter tuple, numbers render canonically, and a
fixed schema number leads the document, so identical configs yield identical
bytes.  Exit code 0 means every row passed, 1 means some verification failed,
2 means the configuration was rejected: unparsable ranges, an invalid residue
size, or ranges that select no rows.

AFL_CALC_THREADS caps row-level parallelism (default 1, serial).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from .battery import germ_battery
from .deformation import (DeformQuery, InadmissibleParityError, hom_height_attainable,
                          lift_bound, lift_bound_recursive, ramification_index)
from .field import FieldSetup
from .germs import extract_germ, function_from_germ
from .matching import (MatchContext, afl_verify, ati_end_to_end, ati_growth_check)
from .orbital import InvariantFunction, Side, integral_indicator, orb_s, orbits_at

SCHEMA = 1


class ConfigError(ValueError):
    pass


def _setup(q: int, ram: bool, eta_pi: int | None = None) -> FieldSetup:
    """The field setup of one sweep point; an invalid q is a configuration error."""
    try:
        return FieldSetup(q, ram, eta_pi)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_range(text: str) -> list[int]:
    """Comma-separated integers and lo..hi spans, e.g. '3,5,7' or '-8..8'."""
    out: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ".." in piece:
            lo_text, hi_text = piece.split("..", 1)
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError as exc:
                raise ConfigError(f"bad range piece {piece!r}") from exc
            if hi < lo:
                raise ConfigError(f"empty range piece {piece!r}")
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(piece))
            except ValueError as exc:
                raise ConfigError(f"bad integer {piece!r}") from exc
    if not out:
        raise ConfigError(f"empty range {text!r}")
    return out


def parse_ram(text: str) -> list[bool]:
    flags = []
    for piece in text.split(","):
        piece = piece.strip().lower()
        if piece in ("0", "f", "false", "unram"):
            flags.append(False)
        elif piece in ("1", "t", "true", "ram"):
            flags.append(True)
        else:
            raise ConfigError(f"bad ramified flag {piece!r}")
    if not flags:
        raise ConfigError("empty ramified flag list")
    return flags


def _workers() -> int:
    raw = os.environ.get("AFL_CALC_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"AFL_CALC_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def _map(fn: Callable, items: Sequence) -> list:
    n = _workers()
    if n == 1 or len(items) < 4:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=n) as pool:
        # about four chunks per worker: rows are too small to ship one by one
        return list(pool.map(fn, items, chunksize=-(-len(items) // (4 * n))))


def _afl_row(params: tuple[FieldSetup, int, int]) -> dict:
    setup, t, v_b = params
    return afl_verify(setup, t, v_b).to_json()


def run_afl(args) -> dict:
    qs = parse_range(args.q)
    ts = parse_range(args.t)
    vbs = parse_range(args.vb)
    setups = [_setup(q, False) for q in sorted(set(qs))]
    params = [(setup, t, vb) for setup in setups
              for t in sorted(set(ts)) if t >= 0 for vb in sorted(set(vbs))]
    rows = _map(_afl_row, params)
    return {"command": "afl", "params": {"q": qs, "t": ts, "vb": vbs}, "rows": rows}


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


def run_deform(args) -> dict:
    rams = parse_ram(args.ram)
    qs = parse_range(args.q)
    ijs = parse_range(args.ij)
    es = parse_range(args.e)
    ls = parse_range(args.l)
    params = []
    for ram in sorted(set(rams)):
        for q in sorted(set(qs)):
            setup = _setup(q, ram)
            for i in sorted(set(ijs)):
                for j in sorted(set(ijs)):
                    for e_rel in sorted(set(es)):
                        for l in sorted(set(ls)):
                            if l < 0 or e_rel < 1 or i < 0 or j < 0:
                                raise ConfigError("deform parameters must be non-negative")
                            if not hom_height_attainable(setup, i, j, l):
                                continue
                            params.append((setup, i, j, e_rel, l))
    rows = _map(_deform_row, params)
    return {"command": "deform",
            "params": {"ram": rams, "q": qs, "ij": ijs, "e": es, "l": ls,
                       "oracle_cross_check": bool(args.oracle_cross_check)},
            "rows": rows}


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
        "d_orb": series.d_ds_at_s0().text(),
        "passed": True,
    }


def run_orb(args) -> dict:
    qs = parse_range(args.q)
    rams = parse_ram(args.ram)
    ts = parse_range(args.t)
    vbs = parse_range(args.vb)
    setups = [_setup(q, ram) for q in sorted(set(qs)) for ram in sorted(set(rams))]
    params = [(setup, t, vb) for setup in setups
              for t in sorted(set(ts)) if t >= 0
              for vb in sorted(set(vbs))]
    rows = _map(_orb_row, params)
    return {"command": "orb", "params": {"q": qs, "ram": rams, "t": ts, "vb": vbs},
            "rows": rows, "f": integral_indicator().to_json()}


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


def run_germ(args) -> dict:
    qs = parse_range(args.q)
    rams = parse_ram(args.ram)
    params = []
    for q in sorted(set(qs)):
        for ram in sorted(set(rams)):
            for eta_pi in _setup(q, ram).signs(2):  # the signs eta(pi_F) can take
                setup = _setup(q, ram, eta_pi)
                for name, f in germ_battery(setup):
                    params.append((setup, name, f))
    rows = _map(_germ_row, params)
    return {"command": "germ", "params": {"q": qs, "ram": rams}, "rows": rows}


def _ati_row(params: tuple[FieldSetup, int, int, int, tuple[int, ...]]) -> dict:
    setup, i, j, e_rel, ts = params
    ctx = MatchContext(setup, i, j, e_f=e_rel * ramification_index(setup, max(i, j)))
    growth = ati_growth_check(ctx, ts, finite_lvl_a=(0 if i >= 1 else None))
    end_to_end = ati_end_to_end(ctx)
    return {"q": setup.q, "ramified": setup.ramified, "i": i, "j": j, "e_rel": e_rel,
            "e_f": ctx.e_f, "growth": growth.to_json(), "end_to_end": end_to_end.to_json(),
            "passed": growth.passed and end_to_end.passed}


def run_ati(args) -> dict:
    qs = parse_range(args.q)
    rams = parse_ram(args.ram)
    i_values = parse_range(args.i)
    j_values = parse_range(args.j)
    es = parse_range(args.e)
    ts = parse_range(args.t)
    growth_ts = tuple(sorted(set(ts)))
    params = []
    for q in sorted(set(qs)):
        for ram in sorted(set(rams)):
            setup = _setup(q, ram)
            for i in sorted(set(i_values)):
                for j in sorted(set(j_values)):
                    for e_rel in sorted(set(es)):
                        if e_rel < 1 or i < 0 or j < 0:
                            raise ConfigError("ati needs levels i, j >= 0 and e_rel >= 1")
                        params.append((setup, i, j, e_rel, growth_ts))
    rows = _map(_ati_row, params)
    return {"command": "ati",
            "params": {"q": qs, "ram": rams, "i": i_values, "j": j_values,
                       "e": es, "t": ts},
            "rows": rows}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aflcalc",
        description="exact sweeps for orbital integrals, deformation lengths, "
                    "and the AFL/ATI identity checks")
    sub = parser.add_subparsers(dest="command", required=True)

    afl = sub.add_parser("afl", help="level-(0,0) identity and transfer sweep")
    afl.add_argument("--q", default="3,5,7")
    afl.add_argument("--t", default="1..21")
    afl.add_argument("--vb", default="-8..8")
    afl.set_defaults(run=run_afl)

    deform = sub.add_parser("deform", help="closed-form vs recursive lift bounds")
    deform.add_argument("--ram", default="0,1")
    deform.add_argument("--q", default="2..5")
    deform.add_argument("--ij", default="0..5")
    deform.add_argument("--e", default="1..3")
    deform.add_argument("--l", default="0..25")
    deform.add_argument("--oracle-cross-check", action="store_true")
    deform.set_defaults(run=run_deform)

    orb_cmd = sub.add_parser("orb", help="orbital integrals of the integral indicator")
    orb_cmd.add_argument("--q", default="3")
    orb_cmd.add_argument("--ram", default="0")
    orb_cmd.add_argument("--t", default="0..6")
    orb_cmd.add_argument("--vb", default="-3..3")
    orb_cmd.set_defaults(run=run_orb)

    germ = sub.add_parser("germ", help="germ round-trip and expansion battery")
    germ.add_argument("--q", default="3")
    germ.add_argument("--ram", default="0,1")
    germ.set_defaults(run=run_germ)

    ati = sub.add_parser("ati", help="growth and end-to-end residual checks")
    ati.add_argument("--q", default="2,3")
    ati.add_argument("--ram", default="0,1")
    ati.add_argument("--i", default="0..2")
    ati.add_argument("--j", default="0..2")
    ati.add_argument("--e", default="1,2")
    ati.add_argument("--t", default="0..16")
    ati.set_defaults(run=run_ati)

    for p in (afl, deform, orb_cmd, germ, ati):
        p.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def render_report(body: dict) -> str:
    report = {"schema": SCHEMA}
    report.update(body)
    rows = report.get("rows", [])
    report["total"] = len(rows)
    report["failures"] = sum(1 for row in rows if not row.get("passed", False))
    report["passed"] = report["failures"] == 0
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_VALUE_FLAGS = {"--q", "--t", "--vb", "--ram", "--ij", "--e", "--l", "--i", "--j", "--out"}


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
    if os.path.isdir(path) or not os.path.isdir(directory) or not os.access(directory, os.W_OK):
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
        if args.out:
            _check_writable(args.out)
        body = args.run(args)
        if not body["rows"]:
            raise ConfigError("the sweep selects no rows")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = render_report(body)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    failures = sum(1 for row in body.get("rows", []) if not row.get("passed", False))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
