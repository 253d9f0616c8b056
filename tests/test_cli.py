import enum
import hashlib
import json
import os
import pathlib
import re
import shlex
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from aflcalc import cli
from aflcalc.cli import COMMANDS, ConfigError, main, parse_ram, parse_range, render_report

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


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
    def test_workers_capped_at_cpu_count(self, cpus, pools, tmp_path, monkeypatch):
        started = []

        class SerialPool:
            """Records the pool size and chunk size, then maps in process."""

            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                started.append((self.max_workers, chunksize))
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("AFL_CALC_THREADS", "1000000")
        argv, digest = GOLDEN["afl"]  # 15 rows: two per chunk at four chunks per worker
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert started == pools
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


class TestGoldenReports:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_report_digest(self, command, workers, tmp_path, monkeypatch):
        # two workers take the process-pool path: same bytes as serial
        monkeypatch.setenv("AFL_CALC_THREADS", workers)
        argv, digest = GOLDEN[command]
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


class _Small(enum.IntEnum):
    ONE = 1


class TestReportWriter:
    @given(_TREES)
    def test_writes_the_bytes_of_json_dumps(self, tree):
        assert cli._render(tree, "") == json.dumps(tree, sort_keys=True, indent=2)

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

    def test_never_calls_json_dumps(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps rendered a report")

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        out = tmp_path / "r.json"
        assert main(["orb", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_DIGESTS["orb"]
