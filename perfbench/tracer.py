"""Per-layer spans for a traced run, recorded from the benchmark's side.

`Tracer.install` wraps every public function of the traced sapprox modules
and rebinds the wrapper under every name in a loaded sapprox module that
refers to the original, so a function imported by name elsewhere is traced
too (cli and mdp import count_tail_hits by name, bounds imports
envelope_bound).  Spans are kept in memory; `layer_metrics` reduces them
to the per-layer metrics.  A layer's self time is its span minus the
spans of the same thread directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass

TRACED_MODULES = ("cli", "config", "engine", "mdp", "weights", "bounds")

# Work done by one call, as a count derived from its arguments.
WORK = {
    "engine.count_tail_hits": lambda a: a["replicas"] * (a["n"] + 1),
    "mdp.exact_tail_enumeration": lambda a: 1 << (a["n"] + 1),
    "weights.h_norm": lambda a: a["n"] + 1,
}

STATS_FUNCTIONS = ("mdp.clopper_pearson", "mdp.binomial_band", "mdp.gaussian_reference")

_PAGE = os.sysconf("SC_PAGE_SIZE")
_MB = 1 << 20


def _cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span of the same thread, -1 if none
    work: int
    rss_start: int
    cpu_start: float
    start: float
    end: float = 0.0
    cpu_end: float = 0.0
    peak_rss_end: int = 0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        work_of = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            work = work_of(signature.bind(*args, **kwargs).arguments) if work_of else 0
            span = Span(name, stack[-1] if stack else -1, work, _rss_bytes(),
                        _cpu_s(), time.perf_counter())
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = _cpu_s()
                span.peak_rss_end = _peak_rss_bytes()
                stack.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_time += span.duration

        return traced

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"sapprox.{short}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sapprox" and not mod_name.startswith("sapprox."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced command.  A layer the command never
    calls reads 0, and so does a ratio whose base is 0."""

    def of(*names):
        return [s for s in spans if s.name in names]

    def total(*names):
        return math.fsum(s.duration for s in of(*names))

    def self_time(name):
        return math.fsum(s.duration - s.child_time for s in of(name))

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    tails = of("engine.count_tail_hits")
    tail_s = total("engine.count_tail_hits")
    steps = sum(s.work for s in tails)
    enum = of("mdp.exact_tail_enumeration")
    enum_s = total("mdp.exact_tail_enumeration")
    patterns = sum(s.work for s in enum)
    h_s = total("weights.h_norm")
    terms = sum(s.work for s in of("weights.h_norm"))
    return {
        "config.parse_config.s": total("config.parse_config"),
        "cli.self.s": self_time("cli.main"),
        "engine.count_tail_hits.s": tail_s,
        "engine.count_tail_hits.calls": len(tails),
        "engine.replica_steps": steps,
        "engine.ns_per_replica_step": ratio(tail_s, steps, 1e9),
        "engine.cpu_per_wall": ratio(math.fsum(s.cpu_end - s.cpu_start for s in tails), tail_s),
        "engine.envelope_bound.s": total("engine.envelope_bound"),
        "bounds.select_delta.s": total("bounds.select_delta"),
        "bounds.exp_inequality_bound.s": total("bounds.exp_inequality_bound"),
        "mdp.exact_tail_enumeration.s": enum_s,
        "mdp.patterns": patterns,
        "mdp.patterns_per_s": ratio(patterns, enum_s),
        "mdp.exact_tail_enumeration.rss_rise_mb": max(
            ((s.peak_rss_end - s.rss_start) / _MB for s in enum), default=0.0
        ),
        "mdp.estimate_tail.self.s": self_time("mdp.estimate_tail"),
        "mdp.stats.s": total(*STATS_FUNCTIONS),
        "weights.h_norm.s": h_s,
        "weights.h_norm.terms": terms,
        "weights.ns_per_term": ratio(h_s, terms, 1e9),
    }
