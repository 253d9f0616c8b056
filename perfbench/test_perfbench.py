"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import subprocess
import sys

import pytest

import run
from tracer import SPAN_NAMES, Tracer, layer_stats, read_spans
from workloads import WORKLOADS, grid_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _stats(spans):
    """layer_stats over (name, parent, start, end) tuples."""
    names = sorted({name for name, _, _, _ in spans})
    return layer_stats(names, [names.index(s[0]) for s in spans], [s[1] for s in spans],
                       [s[2] for s in spans], [s[3] for s in spans])


def test_self_time_subtracts_child_spans():
    # d_orb -> orb_s -> two LaurentPoly.__add__ calls, then a top-level orb_s.
    stats = _stats([
        ("orbital.d_orb", -1, 0.0, 10.0),
        ("orbital.orb_s", 0, 1.0, 9.0),
        ("symbolic.LaurentPoly.__add__", 1, 2.0, 3.0),
        ("symbolic.LaurentPoly.__add__", 1, 4.0, 6.0),
        ("orbital.orb_s", -1, 10.5, 11.0),
    ])
    assert stats["orbital.d_orb"] == {"calls": 1, "s": 10.0, "self_s": 2.0}
    assert stats["orbital.orb_s"] == {"calls": 2, "s": 8.5, "self_s": 5.5}
    assert stats["symbolic.LaurentPoly.__add__"] == {"calls": 2, "s": 3.0, "self_s": 3.0}


def test_inclusive_time_counts_a_recursive_name_once():
    stats = _stats([
        ("a", -1, 0.0, 10.0),
        ("b", 0, 1.0, 9.0),
        ("a", 1, 2.0, 5.0),
    ])
    assert stats["a"] == {"calls": 2, "s": 10.0, "self_s": 5.0}
    assert stats["b"] == {"calls": 1, "s": 8.0, "self_s": 5.0}


def test_tracer_records_the_call_tree(tmp_path):
    ticks = iter(range(100))
    tracer = Tracer("fixture", clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    path = str(tmp_path / "spans")
    tracer.write(path)
    meta, name_of, parent, start, end = read_spans(path)
    assert meta["run_id"] == "fixture"
    assert [meta["names"][n] for n in name_of] == ["outer", "inner", "inner"]
    assert list(parent) == [-1, 0, 0]
    assert list(start) == [0.0, 1.0, 3.0] and list(end) == [5.0, 2.0, 4.0]
    stats = layer_stats(meta["names"], name_of, parent, start, end)
    assert stats["outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}


def test_traced_child_patches_every_binding_and_keeps_the_bytes(tmp_path):
    if not os.path.isfile(os.path.join(ROOT, "src", "aflcalc", "cli.py")):
        pytest.skip("no aflcalc sources in this checkout")
    grid = [["afl", "--q", "3", "--t", "1..3", "--vb", "0..1"], ["germ", "--q", "3", "--ram", "0"]]
    hashes = []
    for trace in (None, "fixture"):
        outs = [str(tmp_path / f"{trace}-{k}.json") for k in range(len(grid))]
        spec = {"root": ROOT, "grid": grid, "outs": outs, "probe": False, "trace": trace,
                "speed_probe": False,
                "result": str(tmp_path / f"{trace}.result.json")}
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                       check=True, env=run._child_env(), timeout=120)
        hashes.append([run._inspect_report(out)["sha256"] for out in outs])
    assert hashes[0] == hashes[1]
    meta, *arrays = read_spans(spec["result"] + ".spans")
    stats = layer_stats(meta["names"], *arrays)
    # Each of these is reached only through a from-import binding.
    for name in ("orbital.orb_s", "orbital.d_orb", "orbital.orb", "germs.extract_germ",
                 "battery.germ_battery", "matching.afl_verify", "cli.run",
                 "symbolic.LaurentPoly.__eq__", "orbital.clear_diagonal"):
        assert stats[name]["calls"] > 0, name
    assert stats["cli.main"]["calls"] == 2
    assert meta["counts"]["field.unit_integral.calls"] > 0
    assert meta["counts"]["orbital.orb_s.boxes_in"] >= stats["orbital.orb_s"]["calls"]


def test_at_ref_speed_scales_the_time_without_the_probes():
    ref = run.PROBE_REF_S
    # 40 probes took 2 * ref each: the machine ran at half the reference speed.
    window = {"probes": 40, "probe_s": 80 * ref, "inverse": 40 / (2 * ref)}
    assert run.at_ref_speed(1.0 + 80 * ref, window, window) == pytest.approx(0.5)
    # Half the time at the reference speed, half at a third of it: the work
    # takes 1/2 + 1/6 of the wall time at the reference speed.
    window = {"probes": 2, "probe_s": 4 * ref, "inverse": 1 / ref + 1 / (3 * ref)}
    assert run.at_ref_speed(1.0 + 4 * ref, window, window) == pytest.approx(2 / 3)
    # A window without probes borrows the speed of the whole child.
    empty = {"probes": 0, "probe_s": 0.0, "inverse": 0.0}
    assert run.at_ref_speed(0.3, empty, {"probes": 10, "probe_s": 10 * ref,
                                         "inverse": 10 / ref}) == pytest.approx(0.3)


def test_speed_probe_keeps_the_bytes_and_times_every_window(tmp_path):
    if not os.path.isfile(os.path.join(ROOT, "src", "aflcalc", "cli.py")):
        pytest.skip("no aflcalc sources in this checkout")
    grid = [["afl", "--q", "3", "--t", "1..12", "--vb", "0..2"], ["germ", "--q", "3", "--ram", "0"]]
    hashes = []
    for speed in (False, True):
        outs = [str(tmp_path / f"{speed}-{k}.json") for k in range(len(grid))]
        spec = {"root": ROOT, "grid": grid, "outs": outs, "probe": False, "trace": None,
                "speed_probe": speed, "result": str(tmp_path / f"{speed}.result.json")}
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                       check=True, env=run._child_env(), timeout=120)
        hashes.append([run._inspect_report(out)["sha256"] for out in outs])
    assert hashes[0] == hashes[1]
    with open(spec["result"]) as handle:
        timings = json.load(handle)
    assert timings["setup_speed"]["probes"] >= 1
    assert all(s["speed"]["probe_s"] < s["end"] - s["start"] for s in timings["sweeps"])


def test_seed_zero_is_the_canonical_grid():
    assert grid_key(WORKLOADS["afl_deep"].grid(0)) == "afl --q 3,5,7 --t 1..41 --vb -6..6"
    assert grid_key(WORKLOADS["deform_grid"].grid(0)) == \
        "deform --ram 0,1 --q 2..7 --ij 0..7 --e 1..3 --l 0..60"
    assert grid_key(WORKLOADS["near_diagonal"].grid(0)) == (
        "germ --q 3,5,7,11 --ram 0,1 ; "
        "ati --q 2,3,5 --ram 0,1 --i 0..3 --j 0..3 --e 1..3 --t 0..40")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_vary_only_q_and_the_vb_window(name):
    workload = WORKLOADS[name]
    base = workload.grid(0)
    for seed in range(40):
        grid = workload.grid(seed)
        assert grid == workload.grid(seed)
        for argv, base_argv in zip(grid, base):
            assert len(argv) == len(base_argv)
            changed = {argv[k - 1] for k in range(len(argv)) if argv[k] != base_argv[k]}
            assert changed <= {"--q", "--vb"}, grid
    assert len({grid_key(workload.grid(seed)) for seed in range(40)}) == len(workload.members)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_grid_has_a_reference_with_the_same_row_count(name):
    with open(run.REFERENCE) as handle:
        grids = json.load(handle)["grids"][name]
    workload = WORKLOADS[name]
    assert set(grids) == {grid_key(g) for g in workload.members}
    for parts in grids.values():
        assert sum(part["rows"] for part in parts) == workload.rows


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert set(SPAN_NAMES) == set().union(*(w.exercised for w in WORKLOADS.values()))
