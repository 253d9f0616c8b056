"""aflcalc benchmark: end-to-end sweep metrics, or per-layer metrics from a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload afl_deep --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --record      # re-record perfbench/reference.json

Each measured sample is a fresh child process (child.py) that imports aflcalc
from ./src and runs the workload's grid through ``aflcalc.cli.main`` once,
serially, with AFL_CALC_THREADS unset and reports written via --out.  The
seed picks the grid (workloads.py).  Every report is checked: exit code 0,
``"passed": true``, the expected row count, and a sha256 equal to the
reference recorded from a plain ``python -m aflcalc.cli`` run of the same
argv.  Any mismatch counts all rows of that child as failed and makes the
command exit 1.

The end-to-end times are given at a fixed reference speed of the machine.
A shared host runs the same code up to twice as fast at one moment as at
the next, so raw wall times of the same code spread by 20-30% between runs.
Each measured child therefore times a fixed piece of benchmark-owned work
every 5 ms from a signal handler (child.SpeedProbe).  A window's wall time,
less the probes' own time, is scaled by the mean over its probes of
PROBE_REF_S / (probe time): the time the window would have taken had every
probe taken PROBE_REF_S.  The raw medians are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced children and prints per-layer metrics (see tracer.py) plus the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Each run set, with its environment,
is also written to perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

from tracer import SPAN_NAMES, layer_stats, read_spans
from workloads import WORKLOADS, Workload, grid_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(HERE, "_runs")
SCRATCH = os.path.join(RUNS, "tmp")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 16        # import-only children per run, for the setup_s median
PROBE_REF_S = 120e-6     # reference speed: one child.SpeedProbe probe in this time
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.005

END_TO_END = {           # name -> unit
    "rows_per_s": "rows/s",
    "sweep_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "1",
}

# Reports are json.dumps(sort_keys=True, indent=2): top-level keys sit at an
# indent of exactly two spaces, and "total" sorts last.
_TOTAL = re.compile(rb'^  "total": (\d+)\n}\n\Z', re.M)
_PASSED = re.compile(rb'^  "passed": (true|false),$', re.M)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, in report order, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "orbital.orb_s.boxes_in": "count",
        "orbital.orb_s.terms_out": "count",
        "field.unit_integral.calls": "count",
        "orbital.shells_per_orb_s": "1",
        "orbital.useful_term_ratio": "1",
        "symbolic.LaurentPoly.new.calls": "count",
        "cli.render_report.bytes": "bytes",
        "cli.write_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# ---------------------------------------------------------------------------
# Children


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("AFL_CALC_THREADS", None)
    return env


def _spawn(cmd: list[str]) -> tuple[float, int, object]:
    """Run cmd from the checkout root; return (spawn time, exit code, rusage).

    The child is reaped with wait4 so its rusage is its own."""
    err_path = os.path.join(SCRATCH, "stderr.txt")
    with open(err_path, "wb") as err:
        spawned = now()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    pid = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if now() - spawned > CHILD_TIMEOUT_S:
                raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s: {cmd[:3]}")
            time.sleep(POLL_S)
    finally:
        if not pid:
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code:
        with open(err_path, "rb") as err:
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return spawned, code, usage


def _inspect_report(path: str) -> dict:
    """sha256, row total and passed flag of a report; the file is removed."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return {"sha256": None, "total": None, "passed": None}
    os.remove(path)
    total = _TOTAL.search(data)
    passed = _PASSED.search(data)
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "total": int(total.group(1)) if total else None,
            "passed": passed.group(1) == b"true" if passed else None}


def at_ref_speed(seconds: float, window: dict, pooled: dict) -> float:
    """A window's time without its probes, scaled to the reference speed.

    ``window`` and ``pooled`` are {probes, probe_s, inverse}: the window's
    own probes and all probes of the child, used when the window caught
    none.  Each probe stands for an equal slice of wall time, and a slice
    that ran at probe time p would have taken PROBE_REF_S / p of its length
    at the reference speed, so the factor is the mean of 1 / p (``inverse``
    is its sum).  The factor from the mean of p instead would be biased by
    how the window's time splits between fast and slow phases."""
    speed = window if window["probes"] else pooled
    return (seconds - window["probe_s"]) * PROBE_REF_S * speed["inverse"] / speed["probes"]


def run_child(grid, tag: str, probe: bool = False, trace: str | None = None,
              speed: bool = False) -> dict:
    """One child process; returns its sample.  With ``speed``, the sample's
    setup_s, sweep_s and cpu_s are at the reference speed and the raw ones
    are kept under "raw"."""
    result_path = os.path.join(SCRATCH, f"{tag}.json")
    outs = [os.path.join(SCRATCH, f"{tag}-{k}.report.json") for k in range(len(grid))]
    spec = {"root": ROOT, "grid": [list(argv) for argv in grid], "outs": outs,
            "result": result_path, "probe": probe, "trace": trace, "speed_probe": speed}
    spawned, code, usage = _spawn([sys.executable, os.path.join(HERE, "child.py"),
                                   json.dumps(spec)])
    sample = {"tag": tag, "exit": code,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024}
    if code:
        if probe:
            raise BenchError(f"aflcalc cannot be imported from {ROOT}/src (exit {code})")
        sample["reports"] = [_inspect_report(out) for out in outs]
        return sample
    with open(result_path) as handle:
        timings = json.load(handle)
    os.remove(result_path)
    sample["setup_s"] = timings["ready"] - spawned
    if not probe:
        sample["codes"] = [s["code"] for s in timings["sweeps"]]
        sample["sweep_s"] = sum(s["end"] - s["start"] for s in timings["sweeps"])
        sample["reports"] = [_inspect_report(out) for out in outs]
    if speed:
        windows = [timings["setup_speed"], *(s["speed"] for s in timings["sweeps"]),
                   timings["tail_speed"]]
        pooled = {key: sum(w[key] for w in windows) for key in ("probes", "probe_s", "inverse")}
        sample["raw"] = {key: sample[key] for key in ("setup_s", "sweep_s", "cpu_s")
                         if key in sample}
        sample["probe_mean_s"] = pooled["probe_s"] / pooled["probes"]
        sample["setup_s"] = at_ref_speed(sample["setup_s"], timings["setup_speed"], pooled)
        sample["cpu_s"] = at_ref_speed(sample["cpu_s"], pooled, pooled)
        if not probe:
            sample["sweep_s"] = sum(at_ref_speed(s["end"] - s["start"], s["speed"], pooled)
                                    for s in timings["sweeps"])
    if trace is not None:
        sample["spans"] = result_path + ".spans"
    return sample


def check_sample(sample: dict, grid, expected: list[dict]) -> list[str]:
    """Every way the sample's reports differ from the grid's reference
    (one {rows, sha256} entry per argv); empty if none."""
    problems = []
    if sample["exit"]:
        problems.append(f"child exited {sample['exit']}")
    for k, (argv, report, want) in enumerate(zip(grid, sample["reports"], expected)):
        label = " ".join(argv[:1])
        code = sample.get("codes", [None] * len(grid))[k]
        if code != 0:
            problems.append(f"{label}: aflcalc exited {code}")
        if report["passed"] is not True:
            problems.append(f"{label}: report not passed ({report['passed']})")
        if report["total"] != want["rows"]:
            problems.append(f"{label}: {report['total']} rows, expected {want['rows']}")
        if report["sha256"] != want["sha256"]:
            problems.append(f"{label}: report sha256 {report['sha256']} != reference")
    return problems


# ---------------------------------------------------------------------------
# Statistics and environment


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as handle:
            return handle.read().strip()
    except OSError:
        return None


def environment() -> dict:
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "commit": _git_commit(),
            "loadavg_start": _loadavg(),
            "AFL_CALC_THREADS": "unset in every child (parent had "
                                f"{os.environ.get('AFL_CALC_THREADS', 'none')})"}


def load_reference() -> dict:
    try:
        with open(REFERENCE) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise BenchError(f"{REFERENCE} is missing; run with --record first") from None


# ---------------------------------------------------------------------------
# Run sets


def measure(workload: Workload, grid, expected: list[dict], seconds: float,
            record: dict) -> dict:
    """Untraced run set: setup probes, then workload children until time is up."""
    deadline = now() + seconds
    probes = [run_child(grid, f"probe{k}", probe=True, speed=True)
              for k in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    samples = []
    last_wall = 0.0
    while not samples or now() + last_wall <= deadline:
        t0 = now()
        sample = run_child(grid, f"run{len(samples)}", speed=True)
        last_wall = now() - t0
        sample["problems"] = check_sample(sample, grid, expected)
        samples.append(sample)
    record["samples"] = samples
    record["setup_probes"] = probes
    attempted = workload.rows * len(samples)
    failed = workload.rows * sum(1 for s in samples if s["problems"])
    series = {
        "sweep_s": [s["sweep_s"] for s in samples if "sweep_s" in s],
        "setup_s": setups + [s["setup_s"] for s in samples if "setup_s" in s],
        "cpu_s": [s["cpu_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    metrics = {name: statistics.median(values) if values else float("nan")
               for name, values in series.items()}
    metrics["rows_per_s"] = workload.rows / metrics["sweep_s"]
    metrics["pass_ratio"] = (attempted - failed) / attempted
    notes = {"rows_per_s": f"{workload.rows} rows / median sweep_s",
             "pass_ratio": "rows passed / rows attempted"}
    for name, values in series.items():
        high = tail(values)
        notes[name] = f"median of {len(values)}, " + (
            f"p{high[0]} {high[1]:.6g}" if high else "no percentile has 10 samples beyond it")
    raw = {"sweep_s": [s["raw"]["sweep_s"] for s in samples if "sweep_s" in s.get("raw", {})],
           "setup_s": [p["raw"]["setup_s"] for p in probes]
           + [s["raw"]["setup_s"] for s in samples if "raw" in s],
           "cpu_s": [s["raw"]["cpu_s"] for s in samples if "raw" in s]}
    for name, values in raw.items():
        if values:
            notes[name] += f"; raw wall-clock median {statistics.median(values):.6g}"
    lines = [f"{name:<14} {metrics[name]:>14.6g} {unit:<7} ({notes[name]})"
             for name, unit in END_TO_END.items()]
    speeds = [s["probe_mean_s"] for s in probes + samples if "probe_mean_s" in s]
    lines.append(f"speed probe: median {statistics.median(speeds) * 1e6:.1f} us per probe "
                 f"(reference {PROBE_REF_S * 1e6:.0f} us), "
                 f"range {min(speeds) * 1e6:.1f}-{max(speeds) * 1e6:.1f} us over the children")
    lines.append(f"{'failed_ratio':<14} {failed / attempted:>14.6g} {'1':<7} "
                 f"(rows failed / rows attempted: {failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END.items()},
            "lines": lines}


def _layer_metrics(sample: dict) -> dict[str, float]:
    meta, name_of, parent, start, end = read_spans(sample["spans"])
    for path in (sample["spans"], sample["spans"] + ".json"):
        os.remove(path)
    stats = layer_stats(meta["names"], name_of, parent, start, end)
    counts = meta["counts"]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        for stat, value in stats[name].items():
            out[f"{name}.{stat}"] = value
    out.update(counts)
    orb_calls = out["orbital.orb_s.calls"]
    shells = counts["field.unit_integral.calls"]
    out["orbital.shells_per_orb_s"] = shells / orb_calls if orb_calls else 0.0
    out["orbital.useful_term_ratio"] = counts["orbital.orb_s.terms_out"] / shells if shells else 0.0
    out["cli.write_s"] = out["cli.main.s"] - out["cli.run.s"] - out["cli.render_report.s"]
    return out


def measure_traced(workload: Workload, grid, expected: list[dict], seconds: float,
                   record: dict, run_id: str) -> dict:
    """Traced run set: alternate untraced and traced children until time is up."""
    deadline = now() + seconds
    plain, traced = [], []
    last_wall = 0.0
    while not traced or now() + last_wall <= deadline:
        t0 = now()
        plain.append(run_child(grid, f"plain{len(plain)}"))
        traced.append(run_child(grid, f"traced{len(traced)}",
                                trace=f"{run_id}-{len(traced)}"))
        last_wall = now() - t0
    problems = []
    for sample in plain + traced:
        sample["problems"] = check_sample(sample, grid, expected)
        problems += sample["problems"]
    for p, t in zip(plain, traced):
        if [r["sha256"] for r in p["reports"]] != [r["sha256"] for r in t["reports"]]:
            problems.append(f"{t['tag']}: traced report differs from untraced {p['tag']}")
    layers = [_layer_metrics(s) for s in traced if "spans" in s]
    units = per_layer_units()
    metrics = {name: statistics.median(m[name] for m in layers) if layers else 0.0
               for name in units if name != "trace.overhead_s"}
    sweeps = [[s["sweep_s"] for s in group if "sweep_s" in s] for group in (traced, plain)]
    metrics["trace.overhead_s"] = (statistics.median(sweeps[0]) - statistics.median(sweeps[1])
                                   if all(sweeps) else float("nan"))
    for name in sorted(workload.exercised):
        if metrics[f"{name}.calls"] <= 0:
            problems.append(f"span {name} recorded no call on {workload.name}")
    for prefix in workload.idle_prefixes:
        for name, value in metrics.items():
            if name.startswith(prefix) and name.endswith((".calls", "boxes_in", "terms_out")) \
                    and value:
                problems.append(f"{name} = {value} on {workload.name}, expected 0")
    record.update({"plain": plain, "traced": traced, "problems": problems})
    failed_children = sum(1 for s in plain + traced if s["problems"])
    attempted = workload.rows * (len(plain) + len(traced))
    failed = workload.rows * failed_children
    lines = [f"{name:<48} {metrics[name]:>14.6g} {unit}" for name, unit in units.items()]
    lines.append(f"traced children {len(traced)}, untraced {len(plain)}; "
                 "values are medians over the traced children")
    lines += [f"self-check failed: {p}" for p in problems]
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
            "lines": lines}


# ---------------------------------------------------------------------------
# Reference recording


def record_reference() -> None:
    """Hash the report of a plain aflcalc run of every grid of every workload."""
    env = _child_env()
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = os.path.join(SCRATCH, "reference.report.json")
    grids: dict[str, dict] = {}
    for workload in WORKLOADS.values():
        grids[workload.name] = {}
        for grid in workload.members:
            parts = []
            for argv in grid:
                code = subprocess.run([sys.executable, "-m", "aflcalc.cli", *argv, "--out", out],
                                      cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S).returncode
                size = os.path.getsize(out)
                report = _inspect_report(out)
                if code or report["passed"] is not True:
                    raise BenchError(f"{' '.join(argv)} failed (exit {code})")
                parts.append({"rows": report["total"], "sha256": report["sha256"],
                              "bytes": size})
            grids[workload.name][grid_key(grid)] = parts
            print(f"{workload.name}: {grid_key(grid)} -> "
                  f"{[p['rows'] for p in parts]} rows", flush=True)
    env_record = environment()
    with open(REFERENCE, "w") as handle:
        json.dump({"recorded_with": {"commit": env_record["commit"],
                                     "python": env_record["python"]},
                   "grids": grids}, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json from plain aflcalc runs")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "aflcalc", "cli.py")):
            raise BenchError(f"no aflcalc sources under {ROOT}/src")
        os.makedirs(SCRATCH, exist_ok=True)
        if args.record:
            record_reference()
            return 0
        reference = load_reference()
        workload = WORKLOADS[args.workload]
        grid = workload.grid(args.seed)
        expected = reference["grids"].get(workload.name, {}).get(grid_key(grid))
        if expected is None:
            raise BenchError(f"no reference for {grid_key(grid)}; run with --record")
        if sum(part["rows"] for part in expected) != workload.rows:
            raise BenchError(f"the reference for {grid_key(grid)} has the wrong row count")
        env = environment()
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "grid": [list(a) for a in grid], "environment": env}
        print(f"environment: {json.dumps(env)}")
        print(f"workload {workload.name}, seed {args.seed}: {grid_key(grid)}", flush=True)
        if args.trace:
            result = measure_traced(workload, grid, expected, args.seconds, record,
                                    run_id=f"{workload.name}-seed{args.seed}-{os.getpid()}")
        else:
            result = measure(workload, grid, expected, args.seconds, record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = _loadavg()
    lines = result.pop("lines")
    record["result"] = result
    with open(os.path.join(RUNS, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as handle:
        json.dump(record, handle, indent=1)
    print("\n".join(lines))
    print(f"loadavg start {env['loadavg_start']!r}, end {env['loadavg_end']!r}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
