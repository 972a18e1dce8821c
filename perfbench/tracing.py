"""In-memory span tracer installed around the package's functions from outside.

Each traced function is replaced, in every `twotier_ee` module namespace
that holds it, by a wrapper that times the call.  Installing the wrapper
where the name is looked up matters: `harness` calls `compute_link_metrics`
through its own module globals, `linklevel.user_ee` calls `sinr` through
the `linklevel` globals, and so on.  Nothing in the package is edited.

Self time of a call is its duration minus the time covered by traced calls
made inside it.  Spans (name, start, end, parent) are kept for every call
except the per-evaluation leaf `linklevel.sinr`, which runs about 15k times
per large drop; for it only the call count and times are aggregated, which
keeps memory bounded over a run.  Counters are read from the values the
traced functions return, so the counted work is exactly the program's.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

# (module, function, keep one span per call)
TRACED = (
    ("harness", "run_drops", True),
    ("harness", "emit_results", True),
    ("linklevel", "sample_link_context", True),
    ("topology", "sample_topology", True),
    ("topology", "sample_large_scale_fading", True),
    ("topology", "sample_channels", True),
    ("linklevel", "build_combiners", True),
    ("linklevel", "compute_link_metrics", True),
    ("linklevel", "sinr", False),
    ("egt", "new_games", True),
    ("egt", "run_algorithm1", True),
    ("baselines", "ngt_best_response", True),
    ("baselines", "brute_force_group", True),
)


class Tracer:
    """Spans, per-function aggregates and counters of one traced process."""

    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent span index or -1)
        self.calls = Counter()   # name -> calls
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()  # counter name -> exact count
        self.hook_ns = 0         # time spent computing counters, excluded from self times
        self._stack = []         # per open call: [child_ns, span index or nearest kept ancestor]
        self._installed = []     # (module, attribute, original)

    def install(self, package) -> None:
        """Wrap every TRACED function wherever a package module binds it."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__
                                         or n.startswith(package.__name__ + "."))]
        hooks = {
            "sample_channels": self._count_channels,
            "run_algorithm1": self._count_egt,
            "ngt_best_response": self._count_ngt,
            "brute_force_group": self._count_brute,
            "emit_results": self._count_emit,
        }
        for module_name, func_name, keep in TRACED:
            module = sys.modules[f"{package.__name__}.{module_name}"]
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, keep,
                                 hooks.get(func_name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def take(self) -> dict:
        """Return everything recorded so far and start afresh."""
        out = {
            "spans": self.spans, "calls": dict(self.calls),
            "total_ns": dict(self.total_ns), "self_ns": dict(self.self_ns),
            "counts": dict(self.counts), "hook_ns": self.hook_ns,
        }
        self.spans = []
        self.calls, self.total_ns, self.self_ns, self.counts = \
            Counter(), Counter(), Counter(), Counter()
        self.hook_ns = 0
        return out

    def _wrap(self, name, fn, keep, hook):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                index = len(self.spans)
                self.spans.append(None)
                frame = [0, index]
            else:
                frame = [0, parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    self.spans[index] = (name, start, end, parent)
            if hook is not None:
                hook_start = clock()
                hook(args, result)
                hook_time = clock() - hook_start
                self.hook_ns += hook_time
                if stack:
                    stack[-1][0] += hook_time
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_channels(self, args, channels) -> None:
        topology = args[0]
        drawn = read = nbytes = 0
        for (receiver, _cell, subcarrier), vector in channels.g.items():
            drawn += 1
            nbytes += vector.nbytes
            # MRC and SINR only ever read vectors arriving at a receiver that
            # serves a user on the same subcarrier
            if topology.has_user(receiver, subcarrier):
                read += 1
        self.counts["topology.channels.vectors_drawn"] += drawn
        self.counts["topology.channels.vectors_read"] += read
        self.counts["topology.channels.bytes_computed"] += nbytes

    def _count_egt(self, args, result) -> None:
        self.counts["egt.iterations"] += result.iterations
        self.counts["egt.evaluations"] += result.evaluations

    def _count_ngt(self, args, result) -> None:
        self.counts["baselines.ngt.rounds"] += result.rounds
        self.counts["baselines.ngt.evaluations"] += result.evaluations

    def _count_brute(self, args, result) -> None:
        self.counts["baselines.brute_force_group.evaluations"] += result.evaluations

    def _count_emit(self, args, trace_path) -> None:
        self.counts["harness.emit_results.bytes"] += (
            Path(args[1]).stat().st_size + Path(trace_path).stat().st_size)
