import contextlib
import enum
import errno
import hashlib
import json
import os
import pathlib
import pickle
import re
import runpy
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from itertools import chain, count, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aflcalc import cli, matching
from aflcalc.cli import COMMANDS, ConfigError, main, parse_ram, parse_range, render_report
from aflcalc.deformation import (hom_height_attainable, inadmissible_heights, lift_bound,
                                 lift_bound_recursive, ramification_index)

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def shipped(obj):
    return pickle.loads(pickle.dumps(obj))


@contextlib.contextmanager
def serial_pool(cpus, threads):
    """While open, the host has cpus CPUs, AFL_CALC_THREADS is threads, and a
    pool _map starts is a SerialPool; yields the list of the (pool size,
    chunk size) of each pool started."""
    started = []

    class SerialPool:
        """Records the pool size and chunk size, then maps in process,
        passing the function, each item and each result through pickle as
        the real pool does."""

        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            started.append((self.max_workers, chunksize))
            fn = shipped(fn)
            return (shipped(fn(shipped(item))) for item in items)

    # _map imports the pool class from concurrent.futures when it starts one
    with mock.patch("concurrent.futures.ProcessPoolExecutor", SerialPool), \
            mock.patch.object(cli.os, "cpu_count", lambda: cpus), \
            mock.patch.dict(os.environ, AFL_CALC_THREADS=str(threads)):
        yield started


class TestRangeParsing:
    def test_comma_list(self):
        assert parse_range("3,5,7") == [3, 5, 7]

    def test_span(self):
        assert parse_range("-2..2") == [-2, -1, 0, 1, 2]

    def test_mixed(self):
        assert parse_range("1,4..6") == [1, 4, 5, 6]

    @pytest.mark.parametrize("bad", ["", "x", "3..1", "1..x"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_range(bad)

    def test_ram_flags(self):
        assert parse_ram("0,1") == [False, True]
        assert parse_ram("t") == [True]
        with pytest.raises(ConfigError):
            parse_ram("maybe")


class TestExitCodes:
    def test_passing_sweep_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "afl.json"
        code = main(["afl", "--q", "3", "--t", "1..5", "--vb", "-2..2",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == 1
        assert report["passed"] and report["failures"] == 0
        assert report["total"] == 5 * 5

    def test_bad_config_exits_two(self, capsys):
        assert main(["afl", "--q", "junk"]) == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert main(["afl", "--nope", "3"]) == 2


class TestReportWriteFailure:
    """A report that cannot be written exits 2 with one line on stderr, as an
    unwritable --out does, never with a traceback."""

    ARGV = ["orb", "--t", "0..1", "--vb", "0"]

    # _check_writable lets an existing device through when it is writable
    @pytest.mark.skipif(not (os.path.exists("/dev/full") and os.access("/dev/full", os.W_OK)),
                        reason="no writable /dev/full device")
    def test_full_device_exits_two(self, capsys):
        assert main(self.ARGV + ["--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err == "cannot write the report to '/dev/full': No space left on device\n"

    def test_full_disk_exits_two(self, tmp_path, monkeypatch, capsys):
        class FullFile:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        out = tmp_path / "r.json"
        monkeypatch.setattr(cli, "open", lambda path, mode: FullFile(), raising=False)
        assert main(self.ARGV + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"cannot write the report to {str(out)!r}: No space left on device\n"

    def test_failing_stdout_exits_two(self, monkeypatch, capsys):
        class FailingWriter:
            def write(self, text):
                raise OSError("stream closed")

        monkeypatch.setattr(sys, "stdout", FailingWriter())
        assert main(self.ARGV) == 2
        assert capsys.readouterr().err == "cannot write the report to stdout: stream closed\n"

    def test_failed_stdout_is_pointed_at_devnull(self, tmp_path, monkeypatch):
        # so the interpreter's own flush of stdout at exit has nowhere to fail
        class FailingDescriptor:
            def __init__(self, fd):
                self.fd = fd

            def fileno(self):
                return self.fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", FailingDescriptor(fd))
            assert main(self.ARGV) == 2
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_stdout_exits_two_in_a_process(self):
        # the interpreter flushes stdout again at exit; that flush must not fail
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "aflcalc.cli", *self.ARGV],
                                  stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert done.returncode == 2
        assert done.stderr == "cannot write the report to stdout: No space left on device\n"


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        argv = ["deform", "--q", "2,3", "--ij", "0..2", "--e", "1", "--l", "0..6",
                "--oracle-cross-check"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestReports:
    def test_deform_report_rows(self, tmp_path):
        out = tmp_path / "d.json"
        main(["deform", "--q", "3", "--ij", "0..2", "--e", "1,2", "--l", "0..6",
              "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["passed"]
        ok_rows = [r for r in report["rows"] if r["status"] == "ok"]
        assert ok_rows and all(r["closed"] == r["recursive"] == r["mirror"]
                               for r in ok_rows)

    def test_orb_report_polynomials(self, tmp_path):
        out = tmp_path / "o.json"
        main(["orb", "--q", "3", "--ram", "0", "--t", "1", "--vb", "0",
              "--out", str(out)])
        report = json.loads(out.read_text())
        row = report["rows"][0]
        assert row["orb_s"] == "-T^-1 + 1"
        assert row["d_orb"] == "-log(q)"

    def test_germ_report(self, tmp_path):
        out = tmp_path / "g.json"
        code = main(["germ", "--q", "3", "--ram", "0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert all(r["roundtrip"] and r["expansion"] for r in report["rows"])

    def test_ati_report(self, tmp_path):
        out = tmp_path / "a.json"
        code = main(["ati", "--q", "3", "--ram", "0", "--i", "0", "--j", "0,1",
                     "--e", "1", "--t", "0..12", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] and report["total"] == 2


class TestDeformPairs:
    """run_deform builds one block per setup and ordered level pair, in
    product order.  Each ordered query's closed form is computed once: it is
    its own row's closed value and the transposed row's mirror, and both
    rows still compare it.  The report, whatever AFL_CALC_THREADS says,
    holds the rows built one by one, in product order, and no pool starts."""

    # gapped levels with both ramifications, which hold inadmissible rows
    # (at level 0, unramified), and a single level, which holds none
    GRIDS = {
        "gapped-levels": ["--ram", "0,1", "--q", "2,3", "--ij", "0,3,7", "--e", "1..2",
                          "--l", "0..16"],
        "one-level": ["--ram", "0,1", "--q", "3,4", "--ij", "4", "--e", "1,3", "--l", "0..12"],
    }

    @staticmethod
    def reference_row(setup, i, j, e_rel, l, bound=lift_bound,
                      recursion=lift_bound_recursive) -> dict:
        """The row built on its own: its point and its mirror checked and
        bounded separately, each a one-height column, by bound and by
        recursion."""
        point = {"ramified": setup.ramified, "q": setup.q, "i": i, "j": j, "e_rel": e_rel,
                 "l": l}
        if inadmissible_heights(setup, i, j, e_rel, [l]):
            return {**point, "status": "inadmissible-parity", "passed": True}
        (closed,), (symmetric,) = bound(setup, i, j, e_rel, [l]), bound(setup, j, i, e_rel, [l])
        (recursive,) = recursion(setup, i, j, e_rel, [l])
        return {**point, "status": "ok", "closed": closed, "recursive": recursive,
                "mirror": symmetric,
                "passed": closed == recursive == symmetric and closed >= e_rel}

    @classmethod
    def reference_rows(cls, argv) -> list[dict]:
        """The rows of the deform grid argv gives, each built on its own, in
        product order."""
        flags = dict(zip(argv[::2], argv[1::2]))
        ram = sorted(set(parse_ram(flags["--ram"])))
        q, ij, e, l = (sorted(set(parse_range(flags[f"--{flag}"])))
                       for flag in ("q", "ij", "e", "l"))
        setups = [cli._setup(q_, ram_) for ram_, q_ in product(ram, q)]
        return [cls.reference_row(*point) for point in product(setups, ij, ij, e, l)
                if hom_height_attainable(point[0], point[1], point[2], point[4])]

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_rows_are_the_row_by_row_reference_in_product_order(self, grid, tmp_path):
        argv = self.GRIDS[grid]
        out = tmp_path / "r.json"
        # deform builds its rows in process, whatever AFL_CALC_THREADS says
        for threads in (1, 2):
            with serial_pool(cpus=2, threads=threads) as started:
                assert main(["deform", *argv, "--out", str(out)]) == 0
            assert started == []
            rows = json.loads(out.read_text())["rows"]
            assert rows == self.reference_rows(argv)
        statuses = {"ok", "inadmissible-parity"} if grid == "gapped-levels" else {"ok"}
        assert {row["status"] for row in rows} == statuses

    # levels in 0..9 and heights in 0..6 leave some level pairs no attainable
    # height, and so no row; a level may be given twice
    @settings(max_examples=60, deadline=None)
    @example(ram="0,1", q=[3, 5], ij=[0, 2, 9], e=[1, 2], l=[0, 1, 2, 3, 4, 5], threads=2)
    @given(ram=st.sampled_from(["0", "1", "0,1", "1,0"]),
           q=st.lists(st.sampled_from([2, 3, 4, 5, 7, 9]), min_size=1, max_size=2),
           ij=st.lists(st.integers(0, 9), min_size=1, max_size=4),
           e=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           l=st.lists(st.integers(0, 6), min_size=1, max_size=4),
           threads=st.sampled_from([1, 2]))
    def test_random_grids_are_the_row_by_row_reference(self, ram, q, ij, e, l, threads):
        argv = ["--ram", ram]
        for flag, values in (("q", q), ("ij", ij), ("e", e), ("l", l)):
            argv += [f"--{flag}", ",".join(map(str, values))]
        want = self.reference_rows(argv)
        with tempfile.TemporaryDirectory() as tmp, serial_pool(cpus=2, threads=threads):
            out = pathlib.Path(tmp, "r.json")
            code = main(["deform", *argv, "--out", str(out)])
            if not want:
                assert code == 2 and not out.exists()  # the sweep selects no rows
                return
            assert code == (0 if all(row["passed"] for row in want) else 1)
            assert json.loads(out.read_text())["rows"] == want

    @staticmethod
    def distinct_bound(setup, i, j, e_rel, heights) -> list:
        """A stand-in closed form whose values at (i, j) and (j, i) differ when
        i != j and exceed every other value a row holds, None where the
        heights are inadmissible."""
        inadmissible = inadmissible_heights(setup, i, j, e_rel, heights)
        return [None if l in inadmissible else 10_000 + 1_000 * i + 100 * j + 10 * e_rel + l
                for l in heights]

    @staticmethod
    def distinct_recursion(setup, i, j, e_rel, heights) -> list:
        """A stand-in recursion that never equals distinct_bound."""
        return [None if value is None else 50_000 + value
                for value in TestDeformPairs.distinct_bound(setup, i, j, e_rel, heights)]

    # each block's text must be the json.dumps texts of its rows built on
    # their own, joined as the report joins rows.  On a passing row closed,
    # recursive and mirror are equal, so only the stand-ins, which keep the
    # three apart (and fail the row), show a format that swaps two
    @pytest.mark.parametrize("stand_ins", [False, True], ids=["engine", "distinct"])
    @settings(max_examples=60, deadline=None)
    @example(q=2, ram=False, i=0, j=1, e=[1], heights=[0, 1])  # inadmissible at odd l
    @example(q=3, ram=True, i=2, j=5, e=[1, 3], heights=[30, 7])
    @given(q=st.integers(2, 9), ram=st.booleans(), i=st.integers(0, 6), j=st.integers(0, 6),
           e=st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
           heights=st.lists(st.integers(0, 30), min_size=1, max_size=4, unique=True))
    def test_texts_put_each_value_in_its_own_slot(self, stand_ins, q, ram, i, j, e, heights):
        bound, recursion = lift_bound, lift_bound_recursive
        if stand_ins:
            assume(i != j)  # at i == j the mirror is the closed value itself
            bound, recursion = self.distinct_bound, self.distinct_recursion
        setup = cli._setup(q, ram)
        # one block per ordered pair of the levels, each e_rel and height in
        # the order given, the heights its pair attains
        levels = sorted({i, j})
        want = [[self.reference_row(setup, a, b, e_rel, l, bound, recursion)
                 for e_rel in e for l in heights if hom_height_attainable(setup, a, b, l)]
                for a, b in product(levels, levels)]
        with mock.patch.object(cli, "lift_bound", bound), \
                mock.patch.object(cli, "lift_bound_recursive", recursion):
            body = cli.run_deform([ram], [q], levels, e, heights)
        want = [block for block in want if block]  # a pair of no row gives no text
        assert body["rows"] == [(",\n" + cli._ROW_INDENT).join(
            json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n" + cli._ROW_INDENT)
            for row in block) for block in want]
        got = [json.loads("[" + text + "]") for text in body["rows"]]
        assert [[row["passed"] for row in block] for block in got] == [
            [row["passed"] for row in block] for block in want]
        assert body["total"] == sum(map(len, got))
        assert body["failures"] == sum(not row["passed"] for block in got for row in block)
        if stand_ins:
            ok = [row for block in want for row in block
                  if row["status"] == "ok" and row["i"] != row["j"]]
            assert all(len({row["closed"], row["recursive"], row["mirror"]}) == 3
                       and not row["passed"] for row in ok)

    @staticmethod
    def order_sensitive(wrong_when: str):
        """A closed form that reads the levels in order: lift_bound, and one
        more when the levels come in wrong_when order."""
        def bound(setup, i, j, e_rel, heights):
            wrong = (i < j) if wrong_when == "ascending" else (i > j)
            return [None if value is None else value + wrong
                    for value in lift_bound(setup, i, j, e_rel, heights)]
        return bound

    @pytest.mark.parametrize("wrong_when", ["ascending", "descending"])
    def test_an_order_sensitive_lift_bound_fails_every_ok_row_off_the_diagonal(
            self, wrong_when, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "lift_bound", self.order_sensitive(wrong_when))
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        out = tmp_path / "r.json"
        assert main(["deform", "--out", str(out)]) == 1
        rows = json.loads(out.read_text())["rows"]
        failed = [row for row in rows if not row["passed"]]
        # the row whose own closed form is right fails through its mirror alone
        assert failed and failed == [row for row in rows
                                     if row["status"] == "ok" and row["i"] != row["j"]]

    def test_one_closed_form_per_admissible_ordered_query(self, tmp_path, monkeypatch):
        calls = {name: [] for name in ("lift_bound", "lift_bound_recursive",
                                       "hom_height_attainable")}

        def counting(name, fn):
            def call(*args):
                result = fn(*args)
                calls[name].append((args, result))
                return result
            return call

        for name in calls:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        out = tmp_path / "r.json"
        assert main(["deform", *self.GRIDS["gapped-levels"], "--out", str(out)]) == 0
        ok = sorted((row["ramified"], row["q"], row["i"], row["j"], row["e_rel"], row["l"])
                    for row in json.loads(out.read_text())["rows"] if row["status"] == "ok")
        for name in ("lift_bound", "lift_bound_recursive"):
            # one column per ordered level pair and e_rel: two ramifications,
            # two q, nine ordered pairs of three levels, two e_rel
            assert len(calls[name]) == len({args[:4] for args, _ in calls[name]}) == 2 * 2 * 9 * 2
            queried = [(setup.ramified, setup.q, i, j, e_rel, l)
                       for (setup, i, j, e_rel, heights), bounds in calls[name]
                       for l, bound in zip(heights, bounds) if bound is not None]
            assert sorted(queried) == ok, name
        # two ramifications, two q, six unordered pairs of three levels, 17 heights
        heights = [args for args, _ in calls["hom_height_attainable"]]
        assert len(heights) == len(set(heights)) == 2 * 2 * 6 * 17
        assert all(i <= j for _, i, j, _ in heights)


class TestConfigContract:
    @pytest.mark.parametrize("command", ["afl", "deform", "orb", "germ", "ati"])
    def test_invalid_q_exits_two(self, command, capsys):
        assert main([command, "--q", "1"]) == 2
        assert "q must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["afl", "--q", "3,,5", "--t", "1", "--vb", "0"],
        ["afl", "--q", "3", "--t", "1,", "--vb", "0"],
        ["orb", "--ram", "0,,1"],
    ])
    def test_empty_range_piece_exits_two(self, argv, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert "empty piece" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sweep_exits_two(self, tmp_path, capsys):
        out = tmp_path / "afl.json"
        assert main(["afl", "--t", "-3..-1", "--out", str(out)]) == 2
        assert "no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_ati_without_growth_range_fails_its_row(self, tmp_path):
        out = tmp_path / "a.json"
        code = main(["ati", "--q", "3", "--ram", "0", "--i", "2", "--j", "2",
                     "--t", "0..1", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        growth = report["rows"][0]["growth"]
        assert not growth["passed"]
        assert growth["open"] == {} and growth["saturated"] == []

    @pytest.mark.parametrize("flag", ["--i", "--j"])
    def test_negative_ati_level_exits_two(self, flag, tmp_path, capsys):
        out = tmp_path / "a.json"
        assert main(["ati", "--q", "3", "--ram", "0", flag, "-1", "--out", str(out)]) == 2
        assert "levels" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("deform", "--ij", "-1"), ("deform", "--l", "-1"), ("deform", "--e", "0"),
        ("ati", "--e", "0"),
    ])
    def test_value_below_its_lower_bound_exits_two(self, command, flag, value, tmp_path,
                                                    capsys):
        out = tmp_path / "r.json"
        assert main([command, "--q", "3", "--ram", "0", flag, value, "--out", str(out)]) == 2
        assert "levels" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_two_before_the_sweep(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["afl", "--q", "3", "--t", "1", "--vb", "0", "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("name", ["", "missing_dir" + os.sep],
                             ids=["empty", "trailing-separator"])
    def test_out_naming_no_file_exits_two_before_the_sweep(self, name, tmp_path, capsys,
                                                           monkeypatch):
        def refuse(**params):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_orb", refuse)
        monkeypatch.chdir(tmp_path)
        assert main(["orb", "--t", "0", "--vb", "0", "--out", name]) == 2
        captured = capsys.readouterr()
        assert "cannot write" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_out_through_a_dangling_symlink_exits_two_before_the_sweep(self, tmp_path, capsys,
                                                                       monkeypatch):
        def refuse(**params):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_orb", refuse)
        link = tmp_path / "d.json"
        link.symlink_to(tmp_path / "missing" / "x.json")
        assert main(["orb", "--t", "0..2", "--vb", "0", "--out", str(link)]) == 2
        captured = capsys.readouterr()
        assert "cannot write" in captured.err and captured.out == ""
        assert not (tmp_path / "missing").exists()

    def test_out_through_a_symlink_writes_its_target(self, tmp_path):
        link, target = tmp_path / "d.json", tmp_path / "report.json"
        link.symlink_to(target)
        assert main(["orb", "--t", "0..2", "--vb", "0", "--out", str(link)]) == 0
        assert json.loads(target.read_text())["total"] == 3

    def test_existing_out_needs_only_its_own_permission(self, tmp_path, capsys, monkeypatch):
        # a writable report in a directory that cannot be written is accepted
        # and rewritten, and a new file there is refused before the sweep;
        # denying the directory through os.access makes this hold as root too
        access = os.access
        denied = os.path.realpath(tmp_path)
        monkeypatch.setattr(os, "access", lambda path, mode: (
            os.path.realpath(path) != denied and access(path, mode)))
        out = tmp_path / "report.json"
        out.write_text("old")
        assert main(["orb", "--t", "0..2", "--vb", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total"] == 3

        def refuse(**params):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_orb", refuse)
        new = tmp_path / "new.json"
        assert main(["orb", "--t", "0..2", "--vb", "0", "--out", str(new)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not new.exists()

    # the deform row at levels (11000, 11000) has a lift bound of over 4,650
    # digits, past Python's int-to-str limit of 4,300, and deform builds its
    # rows in process whatever AFL_CALC_THREADS says; the ati row at levels
    # (11000, 0) has a witness of as many digits, which its to_json meets
    # while the row is built, and four ati rows start the pool, whose worker
    # raises
    @pytest.mark.parametrize("workers, argv", [
        ("1", ["deform", "--ij", "0,11000", "--e", "1", "--l", "10998"]),
        ("2", ["deform", "--ij", "0,11000", "--e", "1", "--l", "10998"]),
        ("2", ["ati", "--i", "0,1,2,11000", "--j", "0", "--e", "1", "--t", "0"]),
        ("1", ["ati", "--i", "11000", "--j", "0", "--e", "1", "--t", "0"]),
    ], ids=["serial", "two-rows", "pool", "ati-serial"])
    def test_int_past_the_digit_limit_exits_two(self, workers, argv, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("AFL_CALC_THREADS", workers)
        out = tmp_path / "r.json"
        assert main([*argv, "--ram", "0", "--q", "7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "digits" in err and err.count("\n") == 1
        assert not out.exists()

    def test_a_row_error_is_no_config_error(self, monkeypatch):
        # a ValueError a row's build raises other than the int-to-str limit's,
        # a MatchingError among them, propagates as it is
        setup = cli._setup(3, False)
        for error in (matching.MatchingError("no orbit"), ValueError("levels are >= 0")):
            def failing(ctx, error=error):
                raise error

            monkeypatch.setattr(cli, "ati_end_to_end", failing)
            with pytest.raises(type(error)) as raised:
                cli._rendered_rows(cli._ati_row, (setup, 0, 0, 1, (0,)))
            assert raised.value is error

    def test_int_past_the_digit_limit_in_a_nested_dict(self):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python prints ints of any length")
        huge = 10 ** sys.get_int_max_str_digits()
        for obj in ({"a": huge}, {"a": huge, "b": [1]}, {"a": [huge]}, [huge], huge):
            with pytest.raises(ConfigError):
                cli._render(obj, "")
            if type(obj) is dict:
                # the row path, the first time from a cold format cache
                cli._sorted_keys.cache_clear()
                for _ in range(2):
                    with pytest.raises(ConfigError):
                        row_text(obj)

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
    def test_read_only_out_exits_two_before_the_sweep(self, tmp_path, capsys, monkeypatch):
        def refuse(**params):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_orb", refuse)
        out = tmp_path / "r.json"
        out.write_text("kept")
        out.chmod(0o444)
        assert main(["orb", "--t", "0..2", "--vb", "0", "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert out.read_text() == "kept"


class TestCounts:
    """A body's total and failures, counted where its texts were built, are
    the counts of the rows the texts hold: run_deform's and the report's,
    on grids where rows fail and grids where none does.  No text is empty,
    and the report is json.dumps of its own parse."""

    @staticmethod
    def report_rows(report: str, code: int) -> list[dict]:
        """The rows of report, on which main exited with code, once its bytes
        and its counts are checked."""
        parsed = json.loads(report)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == report
        rows = parsed["rows"]
        failures = sum(not row["passed"] for row in rows)
        assert (parsed["total"], parsed["failures"]) == (len(rows), failures)
        assert parsed["passed"] == (failures == 0) and code == (1 if failures else 0)
        return rows

    # the stand-in bounds of TestDeformPairs fail some rows: an order-sensitive
    # closed form those off the diagonal, the distinct pair every ok row off
    # it; levels in 0..9 and heights in 0..6 leave some level pairs no row
    @settings(max_examples=40, deadline=None)
    @example(bounds="ascending", ram="0,1", q=[3, 5], ij=[0, 2, 9], e=[1, 2],
             l=[0, 1, 2, 3, 4, 5])
    @given(bounds=st.sampled_from(["engine", "ascending", "descending", "distinct"]),
           ram=st.sampled_from(["0", "1", "0,1"]),
           q=st.lists(st.sampled_from([2, 3, 4, 5, 7]), min_size=1, max_size=2),
           ij=st.lists(st.integers(0, 9), min_size=1, max_size=3),
           e=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           l=st.lists(st.integers(0, 6), min_size=1, max_size=4))
    def test_deform_counts_are_the_rows_of_its_texts(self, bounds, ram, q, ij, e, l):
        patches = {"lift_bound": lift_bound, "lift_bound_recursive": lift_bound_recursive}
        if bounds == "distinct":
            patches = {"lift_bound": TestDeformPairs.distinct_bound,
                       "lift_bound_recursive": TestDeformPairs.distinct_recursion}
        elif bounds != "engine":
            patches["lift_bound"] = TestDeformPairs.order_sensitive(bounds)
        values = {"q": q, "ij": ij, "e": e, "l": l}
        argv = ["deform", "--ram", ram, *chain.from_iterable(
            (f"--{flag}", ",".join(map(str, v))) for flag, v in values.items())]
        with mock.patch.multiple(cli, **patches), tempfile.TemporaryDirectory() as tmp:
            body = cli.run_deform(sorted(set(parse_ram(ram))),
                                  **{flag: sorted(set(v)) for flag, v in values.items()})
            assert all(body["rows"])  # no text is empty
            rows = [row for text in body["rows"] for row in json.loads("[" + text + "]")]
            assert body["total"] == len(rows)
            assert body["failures"] == sum(not row["passed"] for row in rows)
            out = pathlib.Path(tmp, "r.json")
            code = main([*argv, "--out", str(out)])
            if not rows:
                assert code == 2 and not out.exists()  # the sweep selects no rows
            else:
                assert self.report_rows(out.read_text(), code) == rows

    # four items or more each, so two threads start the (faked) pool
    MAPPED = {
        "afl": ["--q", "3", "--t", "1..3", "--vb", "-1..0"],
        "orb": ["--q", "3", "--ram", "0,1", "--t", "0..1", "--vb", "0"],
        "germ": ["--q", "3", "--ram", "0"],
        "ati": ["--q", "3", "--ram", "0", "--i", "0..1", "--j", "0..1", "--e", "1",
                "--t", "0..8"],
    }

    @pytest.mark.parametrize("failing", [False, True], ids=["engine", "every-other-fails"])
    @pytest.mark.parametrize("command", sorted(MAPPED))
    def test_mapped_counts_are_the_rows_of_the_report(self, command, failing, tmp_path,
                                                       monkeypatch):
        threads = (1, 2)
        if failing:
            # every other row the row function builds fails; serially, so the
            # rows are built in order in this process
            row_of, built = getattr(cli, f"_{command}_row"), count()

            def every_other_fails(item):
                row = row_of(item)
                return {**row, "passed": row["passed"] and next(built) % 2 == 1}

            monkeypatch.setattr(cli, f"_{command}_row", every_other_fails)
            threads = (1,)
        out = tmp_path / "r.json"
        for n in threads:
            with serial_pool(cpus=2, threads=n) as started:
                code = main([command, *self.MAPPED[command], "--out", str(out)])
            assert bool(started) == (n == 2)
            rows = self.report_rows(out.read_text(), code)
            assert len(rows) >= 4
            failures = sum(not row["passed"] for row in rows)
            assert failures == ((len(rows) + 1) // 2 if failing else 0)


class TestRamFlags:
    @pytest.mark.parametrize("command, extra", [
        ("orb", ["--t", "0..2", "--vb", "0"]),
        ("deform", ["--q", "3", "--ij", "0..1", "--e", "1", "--l", "0..3"]),
        ("germ", []),
        ("ati", ["--q", "3", "--i", "0", "--j", "0..1", "--e", "1", "--t", "0..8"]),
    ])
    def test_repeated_and_unsorted_ram_values(self, command, extra, tmp_path):
        reports = {}
        for ram in ("0,1", "1,0", "0,0,1,1"):
            out = tmp_path / f"{ram}.json"
            main([command, "--ram", ram, "--out", str(out)] + extra)
            reports[ram] = json.loads(out.read_text())
        rows = [r["ramified"] for r in reports["0,1"]["rows"]]
        assert rows == sorted(rows) and len(set(rows)) == 2
        key = lambda r: json.dumps(r, sort_keys=True)
        assert len({key(r) for r in reports["0,1"]["rows"]}) == len(rows)
        for ram in ("1,0", "0,0,1,1"):
            assert reports[ram]["rows"] == reports["0,1"]["rows"]


class TestProcessPool:
    @pytest.mark.parametrize("cpus, pools", [(3, [(3, 2)]), (None, [])])
    def test_workers_capped_at_cpu_count(self, cpus, pools, tmp_path):
        argv, digest = GOLDEN["afl"]  # 15 rows: two per chunk at four chunks per worker
        out = tmp_path / "r.json"
        with serial_pool(cpus, threads=1000000) as started:
            assert main(argv + ["--out", str(out)]) == 0
        assert started == pools
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("threads, pools", [(1, []), (2, [(2, 1)])])
    def test_map_gives_one_list_per_item(self, threads, pools):
        # items of no row, of one row and of several, on both branches
        items = [0, 2, 0, 1, 3]
        with serial_pool(cpus=2, threads=threads) as started:
            blocks = cli._map(numbered_texts, items)
        assert started == pools
        assert blocks == [[(k % 2 == 0, cli._render(row, cli._ROW_INDENT))
                           for k, row in enumerate(numbered_rows(n))] for n in items]

    @pytest.mark.parametrize("threads", [1, 2, 1000000])
    def test_deform_starts_no_pool(self, threads, tmp_path, monkeypatch):
        # deform builds its rows in one loop in process: it maps nothing, so
        # no AFL_CALC_THREADS starts a pool for it
        mapped, map_items = [], cli._map
        monkeypatch.setattr(cli, "_map", lambda fn, items: mapped.append(items)
                            or map_items(fn, items))
        out = tmp_path / "r.json"
        with serial_pool(cpus=4, threads=threads) as started:
            assert main(["deform", "--out", str(out)]) == 0
        assert started == [] and mapped == []
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_DIGESTS["deform"]

    def test_serial_run_never_imports_the_pool(self, tmp_path):
        script = ("import sys, aflcalc.cli\n"
                  "code = aflcalc.cli.main(['orb', '--t', '0..1', '--vb', '0', '--out', sys.argv[1]])\n"
                  "pool = ('concurrent.futures.process', 'multiprocessing')\n"
                  "print(code, [name for name in pool if name in sys.modules])\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop("AFL_CALC_THREADS", None)
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "r.json")],
                              capture_output=True, text=True, env=env, check=True)
        assert done.stdout == "0 []\n"

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # the value types are named tuples: dataclasses would pull in inspect
        # (and with it ast, dis and tokenize), a fixed import cost every sweep
        # would pay
        script = ("import sys, aflcalc.cli\n"
                  "print([name for name in ('dataclasses', 'inspect') if name in sys.modules])\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, check=True)
        assert done.stdout == "[]\n"


class TestAtiTimes:
    def test_t_order_and_repeats_do_not_change_rows(self, tmp_path):
        echoes = {"0..16": list(range(17)),
                  ",".join(map(str, range(16, -1, -1))): list(range(16, -1, -1)),
                  "0..16,3,3": list(range(17)) + [3, 3]}
        reports = {}
        for ts in echoes:
            out = tmp_path / "a.json"
            main(["ati", "--q", "3", "--ram", "0,1", "--i", "0..2", "--j", "0..1",
                  "--e", "1", "--t", ts, "--out", str(out)])
            reports[ts] = json.loads(out.read_text())
        for ts, report in reports.items():
            assert report["rows"] == reports["0..16"]["rows"]
            assert report["params"]["t"] == echoes[ts]  # the raw list is echoed


# One small grid per command, reaching every row kind: afl odd and even t,
# deform inadmissible-parity and ok rows, ati rows with i >= 1 (outside and
# saturated rows).  The digests were recorded from the reports these grids
# gave when the test was written; a change that alters report bytes on
# purpose must re-record them and say why.
GOLDEN = {
    "afl": (["afl", "--q", "3", "--t", "0..4", "--vb", "-1..1"],
            "ef3eeaba94806678a23a763d694107d620586c567d699e677dde60084c5b7f47"),
    "deform": (["deform", "--ram", "0,1", "--q", "3", "--ij", "0..2", "--e", "1,2",
                "--l", "0..4"],
               "da796a00bfa3696c88aa97bea39a92598d19822de51d3ae8f588f88d78d49764"),
    "orb": (["orb", "--q", "3", "--ram", "0,1", "--t", "0..3", "--vb", "-1..1"],
            "501977fa08d1c0d600505ae58fe033e7ca63d596c59591c0b9aec4d063093351"),
    "germ": (["germ", "--q", "3", "--ram", "0"],
             "24b82b814ebe1cb037c6ef00b518404d45f25c815336134a92273e009b134710"),
    "ati": (["ati", "--q", "3", "--ram", "0,1", "--i", "1", "--j", "0..1", "--e", "1",
             "--t", "0..12"],
            "bc8a5ef96cc5f14fad4a4ac42c49181aa3341d8c2ed1b490f092c9a3d4faf723"),
}

# The reports of each command run with no range flags, which pin every default.
DEFAULT_DIGESTS = {
    "afl": "7f8a15238fcc84297ca3ce00269a7aa176bb29aa0dfdfb72a3375122882d1839",
    "deform": "b7f4ca78d8be979a03c449ad37acd6b8ee7db101dfcacf59f5f95522bb301f87",
    "orb": "ece5747627e996c042a4de6b92f5455e582b0a34a012f9265f6687bc43cc78f8",
    "germ": "b9645e0a22bf45770d021b3047d6acbb856f80df01724f633ea42d87adcbbeae",
    "ati": "b7b81c5c6bb1656b055be36914a21e4509fd7d2c856fadfc58cffe5d4256b6d9",
}

# Long runs of conjugator shells, up to t = 401: the default reports stop at
# t = 21, so a slip in a sum over the shells that shows only on long runs
# would pass them.  Recorded from the reports these grids gave when the test
# was written.
LONG_RUNS = {
    "afl-long": (["afl", "--q", "3,5", "--t", "1..401", "--vb", "-1..1"],
                 "7d2a6ce201862e14df333e91875c4eaf2ddc7a9eee3481be9b562d6689b4315d"),
}


class TestGoldenReports:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", sorted(GOLDEN) + sorted(LONG_RUNS))
    def test_report_digest(self, command, workers, tmp_path, monkeypatch):
        # two workers take the process-pool path: same bytes as serial
        monkeypatch.setenv("AFL_CALC_THREADS", workers)
        argv, digest = {**GOLDEN, **LONG_RUNS}[command]
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("command", sorted(DEFAULT_DIGESTS))
    def test_default_report_digest(self, command, tmp_path, monkeypatch):
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        out = tmp_path / "r.json"
        assert main([command, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_DIGESTS[command]

    def test_grids_reach_every_row_kind(self, tmp_path):
        rows = {}
        for command, (argv, _) in GOLDEN.items():
            out = tmp_path / f"{command}.json"
            main(argv + ["--out", str(out)])
            rows[command] = json.loads(out.read_text())["rows"]
        assert {r["t"] % 2 for r in rows["afl"]} == {0, 1}
        assert {r["status"] for r in rows["deform"]} == {"inadmissible-parity", "ok"}
        assert all(r["end_to_end"]["outside"] and r["growth"]["saturated"]
                   for r in rows["ati"])


class TestReportTargets:
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_stdout_and_out_get_the_same_bytes(self, command, tmp_path, monkeypatch,
                                               capfdbinary):
        # small slices, so each report is written in many, the last one short
        monkeypatch.setattr(cli, "_SLICE", 1009)
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        argv, digest = GOLDEN[command]
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        printed = capfdbinary.readouterr().out
        assert len(printed) > 2 * cli._SLICE
        assert printed == out.read_bytes()
        assert hashlib.sha256(printed).hexdigest() == digest


class TestReportMemory:
    def test_peak_stays_below_four_times_the_report(self, tmp_path, monkeypatch):
        # each row is kept only as its text, the report is joined once, and
        # it is written in slices; Python 3.11 peaks at 3.0 times the report
        # here, and at 5.7 times when every row was kept as a dict and the
        # report text was copied on its way out
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            assert main(["deform", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * out.stat().st_size

    def test_the_report_is_most_of_what_is_held_when_it_renders(self, tmp_path, monkeypatch):
        # run_deform hands main one text per level pair, counted where it
        # was built, so what render_report starts with is little more than
        # the report: 1.01 times it on the default deform (Python 3.10 to
        # 3.13), against 1.23 to 1.27 when every row was a (pass flag, text)
        # pair and a text of its own.  A first, one-row run imports what
        # main loads lazily (argparse's translations among it), up to 0.09
        # times the report on Python 3.12, so no import is counted here
        held = []
        render = cli.render_report
        monkeypatch.setattr(cli, "render_report", lambda body: held.append(
            tracemalloc.get_traced_memory()[0]) or render(body))
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        out = tmp_path / "r.json"
        assert main(["deform", "--ij", "0", "--l", "0", "--out", str(out)]) == 0
        held.clear()
        tracemalloc.start()
        try:
            assert main(["deform", "--out", str(out)]) == 0
        finally:
            tracemalloc.stop()
        assert held[0] < 1.15 * out.stat().st_size

    def test_no_block_of_pairs_is_held_while_the_report_renders(self, tmp_path, monkeypatch):
        # a _map stand-in returns one list of many (pass flag, text) pairs,
        # all sharing one text; once _counted has read the list, only the
        # list of texts it collected is left, so render_report starts with
        # far less traced memory than the pairs took
        n = 200_000
        held = {}

        def one_block(fn, items):
            before, text = tracemalloc.get_traced_memory()[0], "0"
            block = [(True, text) for _ in range(n)]  # n tuples, not one constant
            held["pairs"] = tracemalloc.get_traced_memory()[0] - before
            held["start"] = before
            return [block]

        def rendering(body):
            held["at_render"] = tracemalloc.get_traced_memory()[0] - held["start"]
            return render(body)

        render = cli.render_report
        monkeypatch.setattr(cli, "_map", one_block)
        monkeypatch.setattr(cli, "render_report", rendering)
        out = tmp_path / "r.json"
        tracemalloc.start()
        try:
            assert main(["orb", "--out", str(out)]) == 0
        finally:
            tracemalloc.stop()
        report = json.loads(out.read_text())
        assert (report["total"], report["failures"]) == (n, 0)
        # the list of texts is a pointer per row; the pairs and their list
        # take about eight
        assert held["at_render"] < held["pairs"] / 3


def _parsed_args(argv):
    """The namespace main builds from argv, with each range flag parsed as the
    report echoes it; equal namespaces give equal reports."""
    args = vars(cli.build_parser().parse_args(cli._fuse_values(argv)))
    for flag in COMMANDS[args["command"]][1]:
        args[flag] = (parse_ram if flag == "ram" else parse_range)(args[flag])
    return args


class TestReadme:
    """README quotes the default sweeps and their digests; no sweep is re-run."""

    def test_cli_examples_are_the_default_sweeps(self):
        block = README.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                    if line.startswith("aflcalc ")]
        assert sorted(argv[0] for argv in examples) == sorted(COMMANDS)
        for argv in examples:
            assert _parsed_args(argv) == _parsed_args(argv[:1]), argv

    def test_install_free_example_runs_from_the_checkout(self, monkeypatch, capsys):
        (line,) = [line for line in README.splitlines()
                   if line.startswith("PYTHONPATH=src python -m aflcalc")]
        env, _, flag, module, *argv = shlex.split(line)
        assert (env, flag) == ("PYTHONPATH=src", "-m")
        assert (ROOT / "src").joinpath(*module.split(".")).with_suffix(".py").is_file()
        # run the module as python -m does: a fresh copy under __main__
        monkeypatch.delitem(sys.modules, module)
        monkeypatch.setattr(sys, "argv", [module, *argv])
        with pytest.raises(SystemExit) as exited:
            runpy.run_module(module, run_name="__main__")
        assert exited.value.code == 0
        assert json.loads(capsys.readouterr().out)["total"] == 3

    def test_quoted_digests_are_the_default_reports(self):
        quoted = re.findall(r"\b(afl|deform|orb|germ|ati)\s+`([0-9a-f]{8,64})`", README)
        assert {command for command, _ in quoted} == set(DEFAULT_DIGESTS)
        for command, prefix in quoted:
            assert DEFAULT_DIGESTS[command].startswith(prefix), command


# Strings weighted towards what the encoder escapes: quotes, backslashes,
# control characters and non-ASCII (including astral) characters.
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001d11e') | st.characters(),
                max_size=8)
_SCALARS = (_TEXT | st.integers() | st.integers(-10 ** 40, 10 ** 40) | st.booleans()
            | st.none())
_TREES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=24)


# Rationals of zero and negative numerators, over 1, 2, 3 and large
# denominators, and ints up to hundreds of digits.
_INTS = st.integers(-3, 3) | st.integers(-10 ** 300, 10 ** 300)
_RATIONALS = st.builds(Fraction, _INTS, st.sampled_from([1, 2, 3]) | st.integers(1, 10 ** 300))
_GROWTH_ROWS = st.builds(matching.GrowthRow, _INTS, _INTS, _RATIONALS)
_END_TO_END_ROWS = st.builds(matching.EndToEndRow, _INTS, _INTS, _RATIONALS, _INTS, _RATIONALS,
                             _RATIONALS, _RATIONALS)


class _Small(enum.IntEnum):
    ONE = 1


def row_text(row: dict) -> str:
    """row's text from the row path: _rendered_rows of a row function giving
    row, which renders a row of scalars alone without _render."""
    ((passed, text),) = cli._rendered_rows(lambda _: row, None)
    assert passed is bool(row.get("passed", False))
    return text


class TestReportWriter:
    @given(_TREES)
    def test_writes_the_bytes_of_json_dumps(self, tree):
        assert cli._render(tree, "") == json.dumps(tree, sort_keys=True, indent=2)

    @given(st.dictionaries(_TEXT, _SCALARS, max_size=6)
           | st.dictionaries(st.sampled_from(["passed", "a", "%d"]) | _TEXT, _TREES, max_size=4))
    def test_row_path_gives_the_text_of_render(self, row):
        expected = json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n" + cli._ROW_INDENT)
        assert row_text(row) == cli._render(row, cli._ROW_INDENT) == expected

    @given(st.dictionaries(_TEXT, _TREES, max_size=4))
    def test_report_is_json_dumps_with_a_final_newline(self, body):
        report = {"schema": cli.SCHEMA, **body}
        assert render_report(body) == json.dumps(report, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("body", [
        {"rows": [{"value": 0.5}]},
        {"rows": [{"value": Fraction(1, 2)}]},
        {"rows": [{1: "a"}]},
        {"rows": [{"value": _Small.ONE}]},
        {"rows": [_Small.ONE]},
    ], ids=["float", "fraction", "int-key", "int-subclass", "int-subclass-item"])
    def test_rejects_every_other_type(self, body):
        with pytest.raises(TypeError):
            render_report(body)
        for row in (body, body["rows"][0]):
            if type(row) is dict:
                with pytest.raises(TypeError):
                    row_text(row)

    @given(st.dictionaries(_TEXT, _TREES, max_size=6))
    def test_key_insertion_order_does_not_matter(self, forward):
        backward = dict(reversed(forward.items()))
        expected = json.dumps(forward, sort_keys=True, indent=2)
        assert cli._render(forward, "") == cli._render(backward, "") == expected

    @pytest.mark.parametrize("bad", [{1: "a"}, {"1": "a", 2: "b"}, {None: 0}, {True: 0}],
                             ids=["int", "mixed", "none", "bool"])
    def test_non_str_key_raises_on_every_call(self, bad):
        # the same key set as strings fills the cache first
        cli._render({str(key): value for key, value in bad.items()}, "")
        row_text({str(key): value for key, value in bad.items()})
        for _ in range(2):
            with pytest.raises(TypeError):
                cli._render(bad, "")
            with pytest.raises(TypeError):
                row_text(bad)

    def test_key_cache_is_bounded(self):
        assert cli._sorted_keys.cache_info().maxsize is not None

    @given(st.lists(_GROWTH_ROWS, max_size=4) | st.lists(_END_TO_END_ROWS, max_size=4),
           st.integers(0, 4))
    def test_leaf_texts_are_json_dumps(self, rows, depth):
        # each growth or end-to-end row, one % of its type's format, has the
        # text json.dumps gives its dict at its place in the report
        texts = cli._leaf_texts(rows, depth, cli._ROW_INDENT)
        assert type(texts) is cli._RenderedItems
        place = cli._ROW_INDENT + "  " * depth
        assert texts == [json.dumps(row.to_json(), sort_keys=True, indent=2)
                         .replace("\n", "\n" + place) for row in rows]
        for kind in (matching.GrowthRow, matching.EndToEndRow):
            assert list(kind.json_keys) == sorted(kind.json_keys)

    @settings(max_examples=20, deadline=None)
    @given(q=st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=2, unique=True),
           ram=st.sampled_from(["0", "1", "0,1"]),
           i=st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
           j=st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
           e=st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True),
           t_lo=st.integers(0, 8), t_span=st.integers(0, 6))
    def test_ati_reports_are_json_dumps_of_their_parse(self, q, ram, i, j, e, t_lo, t_span):
        # growth and end-to-end rows render from their formats, serially and
        # in the (faked) pool's workers, to the bytes json.dumps gives
        argv = ["ati", "--q", ",".join(map(str, q)), "--ram", ram,
                "--i", ",".join(map(str, i)), "--j", ",".join(map(str, j)),
                "--e", ",".join(map(str, e)), "--t", f"{t_lo}..{t_lo + t_span}"]
        reports = []
        with tempfile.TemporaryDirectory() as tmp:
            for threads in (1, 2):
                out = pathlib.Path(tmp, f"{threads}.json")
                with serial_pool(cpus=2, threads=threads) as started:
                    assert main([*argv, "--out", str(out)]) in (0, 1)
                items = len(q) * len(ram.split(",")) * len(i) * len(j) * len(e)
                assert bool(started) == (threads == 2 and items >= 4)
                reports.append(out.read_text())
        assert reports[0] == reports[1]
        assert json.dumps(json.loads(reports[0]), sort_keys=True, indent=2) + "\n" == reports[0]

    @pytest.mark.parametrize("key", ["%", "%s", "%%", "%(a)s", "100%"])
    def test_percent_in_keys(self, key):
        # a key's text is part of its key set's %-format, so a % in it must
        # come out as itself
        for obj in ({key: 1}, {key: "%s", "a": None}, {"a": {key: True, "b": "%"}},
                    {"a": [1], key: 0}, {key: [1, {key: 2}], "b": 0},
                    {"a": [key], key: {key: {}}}):
            assert cli._render(obj, "") == json.dumps(obj, sort_keys=True, indent=2)
            assert row_text(obj) == cli._render(obj, cli._ROW_INDENT)

    @pytest.mark.parametrize("indent", ["", "    "])
    def test_value_types_change_at_a_key(self, indent):
        # each tuple of value types has its own format: an int's %d never
        # takes a bool (which it would print as 1), None or a str
        for value in [1, True, 0, False, None, "1", "%d", 7, [1], {"x": 1}, -3]:
            for obj in ({"a": value, "b": 2}, {"a": 2, "b": value}, {"a": value}):
                expected = json.dumps(obj, sort_keys=True, indent=2)
                assert cli._render(obj, indent) == expected.replace("\n", "\n" + indent)
                assert row_text(obj) == expected.replace("\n", "\n" + cli._ROW_INDENT)

    @pytest.mark.parametrize("value", [0.5, Fraction(1, 2), _Small.ONE],
                             ids=["float", "fraction", "int-subclass"])
    def test_rejects_other_types_after_a_warm_cache(self, value):
        # the same key sets with scalars fill their formats first
        pairs = [({"a": 1, "b": "x"}, {"a": value, "b": "x"}),
                 ({"rows": [{"a": 1}]}, {"rows": [{"a": value}]})]
        for good, bad in pairs:
            cli._render(good, "")
            for _ in range(2):
                with pytest.raises(TypeError):
                    cli._render(bad, "")
        # the row path, from a cold format cache and then a warm one
        cli._sorted_keys.cache_clear()
        for good, bad in pairs:
            for warm in (False, True):
                if warm:
                    row_text(good)
                for _ in range(2):
                    with pytest.raises(TypeError):
                        row_text(bad)

    def test_rendered_items_after_a_warm_cache(self):
        rows = [{"a": 1, "b": [2]}, "c"]
        cli._render({"rows": 0, "total": 2}, "")
        items = cli._RenderedItems(cli._render(row, "    ") for row in rows)
        assert cli._render({"rows": items, "total": 2}, "") == json.dumps(
            {"rows": rows, "total": 2}, sort_keys=True, indent=2)

    def test_never_calls_json_dumps(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps rendered a report")

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        out = tmp_path / "r.json"
        assert main(["orb", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_DIGESTS["orb"]


def numbered_rows(n: int) -> list[dict]:
    """n rows, numbered from 0, the even ones passed."""
    return [{"n": n, "k": k, "passed": k % 2 == 0} for k in range(n)]


def numbered_texts(n: int) -> list[tuple[bool, str]]:
    """numbered_rows(n) as the (pass flag, text) pairs _map's function gives."""
    return [(row["passed"], cli._render(row, cli._ROW_INDENT)) for row in numbered_rows(n)]


def deform_row(q, ram, i, j, e_rel, l) -> dict:
    """The deform row at one point, read back from its text: the one row of
    its ordered level pair in a grid of that point alone."""
    texts = cli.run_deform([ram], [q], sorted({i, j}), [e_rel], [l])["rows"]
    (row,) = [row for text in texts for row in json.loads("[" + text + "]")
              if (row["i"], row["j"]) == (i, j)]
    return row


# the containers a report dict may hold: a dict holding one is rendered key by key
NESTING = (dict, list, cli._RenderedItems)


class TestRenderCost:
    """A dict of scalars alone is rendered from a %-format built once per key
    set, value types and indent, and converts only its non-int values; a
    dict that nests converts each scalar once."""

    @pytest.mark.parametrize("params", [(2, False, 0, 0, 1, 0), (3, True, 0, 1, 1, 1)],
                             ids=["inadmissible-parity", "ok"])
    def test_flat_row_is_one_part(self, params):
        row = deform_row(*params)
        parts = ["before"]
        # key by key, it would be one part per key and one for the brace
        cli._render_into(row, cli._ROW_INDENT, parts)
        assert parts[0] == "before" and len(parts) == 2
        assert parts[1] == json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")

    @pytest.fixture
    def conversions(self, monkeypatch):
        """A list that gets the type of each value _SCALAR_TEXT converts while
        the test runs; the cached formats, which hold the text functions, are
        dropped before and after."""
        converted = []

        def counting(kind, text):
            def convert(value):
                converted.append(kind)
                return text(value)
            return convert

        for kind, text in list(cli._SCALAR_TEXT.items()):
            monkeypatch.setitem(cli._SCALAR_TEXT, kind, counting(kind, text))
        cli._sorted_keys.cache_clear()
        yield converted
        cli._sorted_keys.cache_clear()

    @pytest.mark.parametrize("params", [(2, False, 0, 0, 1, 0), (3, True, 0, 1, 1, 1)],
                             ids=["inadmissible-parity", "ok"])
    def test_flat_row_converts_only_its_non_ints(self, params, conversions):
        # ramified, passed and status; ints go to the format's %d, so an ok
        # row's 8 ints and an inadmissible row's 5 are never converted
        row = deform_row(*params)
        for _ in range(2):
            conversions.clear()
            text = cli._render(row, cli._ROW_INDENT)
            assert sorted(conversions, key=str) == [bool, bool, str]
        assert text == json.dumps(row, sort_keys=True, indent=2).replace("\n", "\n    ")

    @pytest.mark.parametrize("command", ["ati", "germ", "orb"])
    def test_nested_dict_converts_each_scalar_once(self, command, conversions, monkeypatch):
        def conversions_of(obj):
            # a scalar in a list or beside a container is converted once; a
            # dict of scalars alone converts its non-ints and prints its ints
            # with %d; a list of leaf texts is text already
            if type(obj) is cli._RenderedItems:
                return 0
            values = obj.values() if type(obj) is dict else obj
            if type(obj) is dict and not any(type(v) in NESTING for v in values):
                return sum(type(value) is not int for value in values)
            return sum(conversions_of(value) if type(value) in NESTING else 1
                       for value in values)

        setup = cli._setup(3, True)
        leaves = []
        if command == "ati":
            # each growth and end-to-end row is one % of its type's format,
            # given its values with the non-ints converted, and builds no dict
            ctx = matching.MatchContext(setup, 1, 1, e_f=ramification_index(setup, 1))
            growth = matching.ati_growth_check(ctx, (2, 3), finite_lvl_a=0)
            end_to_end = matching.ati_end_to_end(ctx)
            leaves = [*chain(*growth.open_rows.values()), *growth.saturated_rows,
                      *chain(*end_to_end.rows.values()), *end_to_end.outside_rows]
            filled = []

            class CountingFormat(str):
                def __mod__(self, values):
                    filled.append(values)
                    return str.__mod__(self, values)

            def counting_format(*args):
                form = typed_format(*args)
                return form and (CountingFormat(form[0]), form[1])

            def refuse(row):
                raise AssertionError("a leaf row built its dict")
            typed_format = cli._typed_format
            monkeypatch.setattr(cli, "_typed_format", counting_format)
            for kind in (matching.GrowthRow, matching.EndToEndRow):
                monkeypatch.setattr(kind, "to_json", refuse)
        row = {"ati": lambda: cli._ati_row((setup, 1, 1, 1, (2, 3))),
               "germ": lambda: cli._germ_row((setup, *cli.germ_battery(setup)[0])),
               "orb": lambda: cli._orb_row((setup, 2, 1))}[command]()
        if command == "ati":
            assert len(leaves) > 40
            escaped = [tuple(cli._escape(v) if type(v) is str else v for v in leaf.json_values())
                       for leaf in leaves]
            assert sorted(filled, key=repr) == sorted(escaped, key=repr)
            assert sorted(conversions, key=str) == [str] * sum(
                type(v) is not int for leaf in leaves for v in leaf.json_values())
        for obj in (row, {"a": 1, "b": [2, "c"], "d": None}):
            assert any(type(value) in NESTING for value in obj.values())
            for _ in range(2):
                conversions.clear()
                cli._render(obj, "")
                # the key set's format is never tried on a dict that nests
                assert len(conversions) == conversions_of(obj)

    def test_deform_tests_each_height_once_per_level_pair(self, monkeypatch):
        calls = []
        attainable = cli.hom_height_attainable

        def counting(*args):
            calls.append(args)
            return attainable(*args)

        monkeypatch.setattr(cli, "hom_height_attainable", counting)
        # the deform_grid benchmark's seed-0 grid
        ram, q, ij, e, l = [False, True], range(2, 8), range(8), range(1, 4), range(61)
        body = cli.run_deform(ram, q, ij, e, l)
        # one text per setup and ordered level pair, each of which has rows
        blocks = [json.loads("[" + text + "]") for text in body["rows"]]
        assert len(blocks) == 2 * 6 * 8 * 8
        assert all(len({(row["ramified"], row["q"], row["i"], row["j"]) for row in block}) == 1
                   for block in blocks)
        # each row's parameters, read back from its text
        params = [(row["ramified"], row["q"], row["i"], row["j"], row["e_rel"], row["l"])
                  for block in blocks for row in block]
        # one call per setup, unordered level pair and height
        assert len(calls) == len(set(calls)) == 2 * 6 * (8 * 9 // 2) * 61 == 26_352
        assert all(i <= j for _, i, j, _ in calls)
        setups = [cli._setup(q_, ram_) for ram_, q_ in product(ram, q)]
        assert params == [(setup.ramified, setup.q, i, j, e_rel, l_)
                          for setup, i, j, e_rel, l_ in product(setups, ij, ij, e, l)
                          if attainable(setup, i, j, l_)]
        assert len(params) == body["total"] == 98_640
        assert body["failures"] == 0

    def test_one_format_per_key_set(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        cli._sorted_keys.cache_clear()
        out = tmp_path / "r.json"
        assert main(["deform", "--out", str(out)]) == 0
        # a deform row fills one of the two formats built at import, so the
        # run formats only the echoed params and the report itself
        assert cli._sorted_keys.cache_info().misses == 2
        # _flat_text gives a row of each kind, read back, the text it has in
        # the report, from the format it builds for the row's key set
        report = out.read_text()
        rows = json.loads(report)["rows"]
        for status in ("ok", "inadmissible-parity"):
            row = next(row for row in rows if row["status"] == status)
            assert f"\n{cli._ROW_INDENT}{cli._flat_text(row, cli._ROW_INDENT)}," in report
        info = cli._sorted_keys.cache_info()
        # the two row kinds, the echoed params and the report itself
        assert info.misses == info.currsize == 4
