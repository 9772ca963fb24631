"""Per-layer spans around hafnet's public functions, for the traced run.

Each traced function is replaced at every hafnet module attribute that holds
it: callers look functions up by module attribute (`ra.allocate`) or import
them by name into their own module (`haf_objective`, `dual_value`), and both
see the wrapper. `Tracer.restore` puts every attribute back.

Spans are kept in memory, aggregated by name: calls, total time, and self
time (total minus the time of traced calls made inside the span). Around
`ra.allocate` the tracer also counts re-solves of an association that was
already solved on the same instance.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

# (module, attribute, span name)
LAYERS = (
    ("ra", "allocate", "ra.allocate"),
    ("ra", "bs_optimal_utility", "ra.bs_optimal_utility"),
    ("pricing", "solve", "pricing.solve"),
    ("pricing", "associate", "pricing.associate"),
    ("pricing", "dual_value", "pricing.dual_value"),
    ("pricing", "price_gradient", "pricing.price_gradient"),
    ("pricing", "_certificate", "pricing.certificate"),
    ("core", "haf_objective", "core.haf_objective"),
    ("channel", "make_instance", "channel.make_instance"),
    ("baselines", "run_pricing_baseline", "baselines.run_pricing_baseline"),
    ("baselines", "run_ga", "baselines.run_ga"),
    ("baselines", "brute_force", "baselines.brute_force"),
    ("baselines", "run_2rs", "baselines.run_2rs"),
    ("baselines", "run_max_sinr", "baselines.run_max_sinr"),
    ("baselines", "run_random", "baselines.run_random"),
    ("metrics", "report", "metrics.report"),
    ("experiments", "run_static_experiment", "experiments.run_static_experiment"),
    ("experiments", "run_time_varying", "experiments.run_time_varying"),
)

_PRICING_LOOPS = ("pricing.solve", "baselines.run_pricing_baseline")
_ONE_SHOT = ("baselines.run_2rs", "baselines.run_max_sinr", "baselines.run_random")


class _Span:
    __slots__ = ("name", "child_ns", "allocs", "solved")

    def __init__(self, name: str):
        self.name = name
        self.child_ns = 0
        self.allocs = 0  # ra.allocate calls made directly inside this span
        self.solved = set()  # associations solved inside (pricing.solve only)


class Tracer:
    """Context manager: wraps hafnet's layers on entry, restores on exit."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[_Span] = []
        self._last: Optional[Tuple[object, bytes, Optional[str]]] = None
        self._patched: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        mods = [m for n, m in sorted(sys.modules.items()) if n == "hafnet" or n.startswith("hafnet.")]
        for modname, attr, span in LAYERS:
            orig = getattr(sys.modules[f"hafnet.{modname}"], attr)
            wrapped = self._wrap(span, orig)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched.clear()
        self._stack.clear()
        self._last = None

    def _wrap(self, span: str, fn):
        on_allocate = self._on_allocate if span == "ra.allocate" else None
        counts_iterations = span in _PRICING_LOOPS
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_allocate is not None:
                on_allocate(*args, **kwargs)
            frame = _Span(span)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.calls[span] += 1
                self.total_ns[span] += dt
                self.self_ns[span] += dt - frame.child_ns
                if stack:
                    stack[-1].child_ns += dt
            if counts_iterations:
                self.counts["pricing.iterations"] += len(out[2])
            return out

        return traced

    def _on_allocate(self, inst, assoc, *rest, **kwargs) -> None:
        key = np.asarray(assoc.bs_of_user, dtype=np.int64).tobytes()
        parent = self._stack[-1] if self._stack else None
        pname = parent.name if parent is not None else None
        last = self._last
        repeat = last is not None and last[0] is inst and last[1] == key
        c = self.counts
        c["allocate.repeat"] += repeat
        loop = next((s for s in reversed(self._stack) if s.name == "pricing.solve"), None)
        if loop is not None:
            c["solve.allocs"] += 1
            c["solve.repeat"] += repeat
            # the certificate re-solves the best-dual iterate's association
            if pname == "pricing.certificate" and key in loop.solved:
                c["redundant.certificate"] += 1
            loop.solved.add(key)
        if parent is not None:
            parent.allocs += 1
            # the pre-loop allocation is solved again by iteration 1
            if pname == "baselines.run_pricing_baseline" and parent.allocs == 2 and repeat:
                c["redundant.baseline_first"] += 1
        # the slotted harness re-solves the allocation a one-shot method returned
        if pname == "experiments.run_time_varying" and repeat and last[2] in _ONE_SHOT:
            c["redundant.timevary_row"] += 1
        self._last = (inst, key, pname)

    def layer_metrics(self, items: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer figures, averaged per traced item: name -> (value, unit)."""
        n = max(items, 1)

        def ms(counter: Counter, *spans: str) -> float:
            return sum(counter[s] for s in spans) / 1e6 / n

        def share(part: float, whole: float) -> float:
            return 100.0 * part / whole if whole else 0.0

        calls, tot, own, c = self.calls, self.total_ns, self.self_ns, self.counts
        alloc_calls = calls["ra.allocate"]
        return {
            "ra.allocate.calls": (alloc_calls / n, "count/item"),
            "ra.allocate.ms": (ms(own, "ra.allocate"), "ms/item"),
            "ra.allocate.us_per_call": (tot["ra.allocate"] / 1e3 / max(alloc_calls, 1), "us"),
            "ra.allocate.repeat_share": (share(c["allocate.repeat"], alloc_calls), "%"),
            "pricing.solve.repeat_share": (share(c["solve.repeat"], c["solve.allocs"]), "%"),
            "ra.allocate.redundant_baseline_first": (c["redundant.baseline_first"] / n, "count/item"),
            "ra.allocate.redundant_certificate": (c["redundant.certificate"] / n, "count/item"),
            "ra.allocate.redundant_timevary_row": (c["redundant.timevary_row"] / n, "count/item"),
            "ra.bs_optimal_utility.calls": (calls["ra.bs_optimal_utility"] / n, "count/item"),
            "ra.bs_optimal_utility.ms": (ms(tot, "ra.bs_optimal_utility"), "ms/item"),
            "pricing.iterations": (c["pricing.iterations"] / n, "count/item"),
            "pricing.solve.self_ms": (ms(own, "pricing.solve"), "ms/item"),
            "baselines.run_pricing_baseline.self_ms": (ms(own, "baselines.run_pricing_baseline"), "ms/item"),
            "pricing.associate.ms": (ms(tot, "pricing.associate"), "ms/item"),
            "pricing.dual_value.ms": (ms(tot, "pricing.dual_value"), "ms/item"),
            "pricing.price_gradient.ms": (ms(tot, "pricing.price_gradient"), "ms/item"),
            "core.haf_objective.ms": (ms(tot, "core.haf_objective"), "ms/item"),
            "pricing.certificate.ms": (ms(tot, "pricing.certificate"), "ms/item"),
            "channel.make_instance.calls": (calls["channel.make_instance"] / n, "count/item"),
            "channel.make_instance.ms": (ms(tot, "channel.make_instance"), "ms/item"),
            "baselines.run_ga.self_ms": (ms(own, "baselines.run_ga"), "ms/item"),
            "baselines.brute_force.self_ms": (ms(own, "baselines.brute_force"), "ms/item"),
            "baselines.run_2rs.self_ms": (ms(own, "baselines.run_2rs"), "ms/item"),
            "metrics.report.ms": (ms(tot, "metrics.report"), "ms/item"),
            "experiments.self_ms": (
                ms(own, "experiments.run_static_experiment", "experiments.run_time_varying"),
                "ms/item",
            ),
        }

    def spans(self) -> Dict[str, Dict[str, float]]:
        """The aggregated span table, for the run's result file."""
        return {
            name: {
                "calls": self.calls[name],
                "total_ms": self.total_ns[name] / 1e6,
                "self_ms": self.self_ns[name] / 1e6,
            }
            for name in sorted(self.calls)
        }
