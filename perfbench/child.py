"""One measured aflcalc process, started by run.py.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``root`` (the checkout), ``grid`` (aflcalc argv lists, run
in order), ``outs`` (one report path per argv), ``result`` (where this
process writes its timings), ``probe`` (stop once aflcalc is importable),
``trace`` (a run id, or null for an untraced run) and ``speed_probe``
(time the machine's speed while running; see SpeedProbe).  Each argv runs
through ``aflcalc.cli.main`` once, serially, with the report written via
--out.  All timestamps are CLOCK_MONOTONIC seconds, comparable with the
parent's.
"""

import json
import os
import signal
import sys
import time

PROBE_EVERY_S = 0.005

# About 1 MiB of small dicts keyed by tuples, walked by _probe_work.
_POOL = [{(i, j): i * j for j in range(8)} for i in range(1000)]


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_work(offset: int) -> int:
    """A fixed piece of pure-Python dict, tuple and int work, the kind of
    work aflcalc does (LaurentPoly is a dict of tuple-keyed int terms)."""
    scratch = {}
    for i in range(400):
        key = (i & 15, i >> 4)
        scratch[key] = scratch.get(key, 0) + i * 7
    acc = {}
    for src in _POOL[offset:offset + 20]:
        acc = dict(acc)
        for key, value in src.items():
            acc[key[1]] = acc.get(key[1], 0) + value
    return len(scratch) + len(acc)


class SpeedProbe:
    """Times _probe_work every PROBE_EVERY_S of wall time, from SIGALRM, in
    this process and on whatever core it runs on.

    A shared host runs the same code at different speeds from one second to
    the next.  The probe times over a window say how fast the machine was
    during it, so run.py can scale the window's time to a fixed reference
    speed; each window reports its probe count, their total time and the
    sum of their inverses.  Windows are cut with cut(); the first starts
    with one probe so it is never empty.  The probes' own time is reported
    so it can be taken out of the window's time."""

    def __init__(self) -> None:
        self._count = 0
        self._total = 0.0
        self._inverse = 0.0
        self._offset = 0

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _probe_work(self._offset)
        took = time.perf_counter() - start
        self._total += took
        self._inverse += 1.0 / took
        self._count += 1
        self._offset = (self._offset + 20) % (len(_POOL) - 20)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def cut(self) -> dict:
        """The probes since the last cut (or start); opens the next window."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        window = {"probes": self._count, "probe_s": self._total, "inverse": self._inverse}
        self._count, self._total, self._inverse = 0, 0.0, 0.0
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return window

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return {"probes": self._count, "probe_s": self._total, "inverse": self._inverse}


def main() -> int:
    spec = json.loads(sys.argv[1])
    speed = SpeedProbe() if spec["speed_probe"] else None
    if speed is not None:
        speed.start()
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import aflcalc.cli as cli
    if os.path.commonpath([os.path.realpath(cli.__file__), os.path.realpath(src)]) != \
            os.path.realpath(src):
        print(f"aflcalc was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    ready = now()
    result = {"ready": ready, "sweeps": []}
    if speed is not None:
        result["setup_speed"] = speed.cut()
    if not spec["probe"]:
        tracer = None
        if spec["trace"] is not None:
            import tracer as tracing
            tracer = tracing.Tracer(spec["trace"])
            tracing.install(tracer)
        for argv, out in zip(spec["grid"], spec["outs"]):
            start = now()
            code = cli.main([*argv, "--out", out])
            sweep = {"code": code, "start": start, "end": now()}
            if speed is not None:
                sweep["speed"] = speed.cut()
            result["sweeps"].append(sweep)
        if tracer is not None:
            tracer.write(spec["result"] + ".spans")
    if speed is not None:
        result["tail_speed"] = speed.stop()
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
