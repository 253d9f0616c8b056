"""In-memory span tracing of aflcalc from outside the library.

A traced child wraps each layer function listed in SPANS at every name it is
looked up under: ``cli``, ``matching``, ``germs`` and ``battery`` bind
library functions with ``from .x import y``, so patching only the defining
module would miss their calls.  Each span records its name, start, end and
parent; the spans of one run share a run id and are written out when the run
ends.  ``layer_stats`` turns them back into per-name call counts, inclusive
time and self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from typing import Callable, Iterable

# (span name, module, attribute path).  Several attributes may share a span:
# every run_* command body is recorded as cli.run.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("orbital.orb_s", "orbital", "orb_s"),
    ("orbital.orb", "orbital", "orb"),
    ("orbital.d_orb", "orbital", "d_orb"),
    ("orbital.clear_diagonal", "orbital", "clear_diagonal"),
    ("symbolic.LaurentPoly.__add__", "symbolic", "LaurentPoly.__add__"),
    ("symbolic.LaurentPoly.__mul__", "symbolic", "LaurentPoly.__mul__"),
    ("symbolic.LaurentPoly.__eq__", "symbolic", "LaurentPoly.__eq__"),
    ("symbolic.LaurentPoly.text", "symbolic", "LaurentPoly.text"),
    ("germs.extract_germ", "germs", "extract_germ"),
    ("germs.function_from_germ", "germs", "function_from_germ"),
    ("germs.GermExpansion.predicted_orb_s", "germs", "GermExpansion.predicted_orb_s"),
    ("germs.GermExpansion.equivalent", "germs", "GermExpansion.equivalent"),
    ("battery.germ_battery", "battery", "germ_battery"),
    ("deformation.lift_bound", "deformation", "lift_bound"),
    ("deformation.lift_bound_recursive", "deformation", "lift_bound_recursive"),
    ("deformation.hom_height_attainable", "deformation", "hom_height_attainable"),
    ("matching.afl_verify", "matching", "afl_verify"),
    ("matching.intersection_length", "matching", "intersection_length"),
    ("matching.ati_growth_check", "matching", "ati_growth_check"),
    ("matching.ati_end_to_end", "matching", "ati_end_to_end"),
    ("cli.main", "cli", "main"),
    ("cli.run", "cli", "run_afl"),
    ("cli.run", "cli", "run_deform"),
    ("cli.run", "cli", "run_orb"),
    ("cli.run", "cli", "run_germ"),
    ("cli.run", "cli", "run_ati"),
    ("cli.render_report", "cli", "render_report"),
)

# Functions whose calls are counted without a span.
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("field.unit_integral.calls", "field", "unit_integral"),
    ("symbolic.LaurentPoly.new.calls", "symbolic", "LaurentPoly.__init__"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPANS))


class Tracer:
    """Span and count recorder; spans live in flat arrays until written."""

    def __init__(self, run_id: str, clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def span(self, name: str, fn: Callable,
             after: Callable[[tuple, object], None] | None = None) -> Callable:
        """fn wrapped so each call records a span; after(args, result) runs
        once the span has closed."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: str) -> None:
        """Spans go to path as four raw arrays, the rest to path + '.json'."""
        with open(path, "wb") as handle:
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(handle)
        with open(path + ".json", "w") as handle:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "spans": len(self.name_of), "counts": self.counts}, handle)


def read_spans(path: str) -> tuple[dict, array, array, array, array]:
    with open(path + ".json") as handle:
        meta = json.load(handle)
    arrays = []
    with open(path, "rb") as handle:
        for code in "iidd":
            arr = array(code)
            arr.fromfile(handle, meta["spans"])
            arrays.append(arr)
    return (meta, *arrays)


def layer_stats(names: list[str], name_of: Iterable[int], parent: Iterable[int],
                start: Iterable[float], end: Iterable[float]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the time its child spans cover.  A
    call nested inside another call of the same name adds to calls and self
    time but not to inclusive time, which would otherwise count it twice.
    """
    name_of, parent = list(name_of), list(parent)
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i, nid in enumerate(name_of):
        entry = stats[names[nid]]
        entry["calls"] += 1
        entry["self_s"] += dur[i] - covered[i]
        p = parent[i]
        while p >= 0 and name_of[p] != nid:
            p = parent[p]
        if p < 0:
            entry["s"] += dur[i]
    return stats


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _rebind(modules: list, original, replacement) -> int:
    """Point every module-level name bound to original at replacement."""
    bound = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def install(tracer: Tracer) -> None:
    """Wrap every SPANS and COUNTED entry wherever aflcalc looks it up."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "aflcalc" or name.startswith("aflcalc.")]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}

    def orb_s_work(args, result) -> None:
        tracer.add("orbital.orb_s.boxes_in", len(args[1].terms))
        tracer.add("orbital.orb_s.terms_out", result.monomial_count())

    def rendered(args, result) -> None:
        tracer.add("cli.render_report.bytes", len(result.encode()))

    after = {"orbital.orb_s": orb_s_work, "cli.render_report": rendered}
    for name in ("orbital.orb_s.boxes_in", "orbital.orb_s.terms_out", "cli.render_report.bytes"):
        tracer.counts[name] = 0
    wrappers = [(module, path, lambda fn, name=name: tracer.span(name, fn, after.get(name)))
                for name, module, path in SPANS]
    wrappers += [(module, path, lambda fn, name=name: tracer.counter(name, fn))
                 for name, module, path in COUNTED]
    for module, path, wrap in wrappers:
        owner, attr = _resolve(by_name[module], path)
        original = getattr(owner, attr)
        if isinstance(owner, type):
            setattr(owner, attr, wrap(original))
        elif not _rebind(modules, original, wrap(original)):
            raise RuntimeError(f"{module}.{path} is bound nowhere")
