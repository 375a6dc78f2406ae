"""Per-layer trace recorder that instruments mmwcache from outside.

`Recorder.install()` replaces public functions of the layers (scenario,
radio, numerics, caching, geometry, matching, oracle, experiments) with
wrappers, in every mmwcache module namespace that binds them: for example
both `scenario.generate_scenario` and `experiments.generate_scenario`.
`Recorder.uninstall()` puts the original objects back. No program file
changes.

Span-wrapped functions record a span (id, name, start, end, parent, item)
and accumulate self time, the span's duration minus the time its child
spans cover. Spans of one item (one `run_experiment` call or one game)
share the item id. Hot per-call utilities get call counters only.

Code that runs inside pool worker processes is not seen: the worker's
copy of the recorder is discarded with the worker.
"""

from __future__ import annotations

import concurrent.futures
import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _count_len(key: str):
    def hook(rec, args, result, duration):
        rec.counters[key] += len(result)
    return hook


def _plans(rec, args, result, duration):
    rec.counters["matching.build_preferences.plans"] += sum(
        len(p.ranked_plans) for p in result.mue_profiles)


def _match_trace(rec, args, result, duration):
    trace, c = result.trace, rec.counters
    c["matching.restarts.sum"] += trace.restarts
    c["matching.restarts.max"] = max(c["matching.restarts.max"], trace.restarts)
    for p in trace.proposals:
        c[f"matching.stage{p.stage}.proposals"] += 1
        if p.stage == 1 and p.accepted:
            c["matching.stage1.accepted"] += 1


def _violations(rec, args, result, duration):
    rec.counters["oracle.scan_all_blockings.violations"] += (
        len(result.period1) + len(result.period2))


def _trajectory(rec, args, result, duration):
    for name in ("crossings", "attempts", "skips", "failures"):
        rec.counters[f"experiments.trajectory.{name}"] += getattr(result, name)


def _experiment_time(rec, args, result, duration):
    rec.times[f"experiments.run_experiment.{args[0]}.time_s"] += result.runtime_s


# (module, function, hook run on the result) for span-wrapped functions.
SPANNED: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("scenario", "generate_scenario", None),
    ("scenario", "ray_circle_crossings",
     _count_len("scenario.ray_circle_crossings.crossings")),
    ("scenario", "beam_segments_in_cell",
     _count_len("scenario.beam_segments_in_cell.segments")),
    ("radio", "average_caching_rate", None),
    ("numerics", "adaptive_simpson", None),
    ("experiments", "simulate_trajectory", _trajectory),
    ("experiments", "build_region_instance", None),
    ("experiments", "run_experiment", _experiment_time),
    ("matching", "build_preferences", _plans),
    ("matching", "dynamic_match", _match_trace),
    ("matching", "deferred_acceptance", None),
    ("matching", "find_single_period_blocking", None),
    ("oracle", "scan_all_blockings", _violations),
)

# (module, function) for hot utilities that get a call counter only.
COUNTED: Tuple[Tuple[str, str], ...] = (
    ("radio", "instantaneous_rate"),
    ("caching", "cache_fill"),
    ("caching", "cache_drain"),
    ("matching", "mue_utility"),
    ("matching", "sbs_utility"),
    ("geometry", "hof_probability"),
)

# Derived ratios: name -> (numerator counter, denominator counter).
RATIOS = {
    "matching.stage1.accept_ratio": ("matching.stage1.accepted",
                                     "matching.stage1.proposals"),
    "experiments.trajectory.skip_ratio": ("experiments.trajectory.skips",
                                          "experiments.trajectory.crossings"),
}

POOL_NAME = "experiments.pool"


class Recorder:
    """Spans, counters and timings of one traced pass."""

    def __init__(self):
        self.spans: List[Tuple[int, str, float, float, Optional[int], int]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.times: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._next_span = 0
        self._next_item = 0
        self.item_id = -1
        self._patches: List[Tuple[object, str, object]] = []

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        for mod, fn, hook in SPANNED:
            self._replace(mod, fn, lambda f, n=f"{mod}.{fn}", h=hook:
                          self._spanned(n, f, h))
        for mod, fn in COUNTED:
            self._replace(mod, fn, lambda f, n=f"{mod}.{fn}":
                          self._counted(n, f))
        original = concurrent.futures.ProcessPoolExecutor
        self._patches.append((concurrent.futures, "ProcessPoolExecutor",
                              original))
        concurrent.futures.ProcessPoolExecutor = self._pool_class(original)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)

    def unrestored(self) -> List[str]:
        """Patched names that do not hold their original object."""
        return [f"{getattr(ns, '__name__', ns)}.{attr}"
                for ns, attr, original in self._patches
                if getattr(ns, attr) is not original]

    def _replace(self, mod: str, fn: str, make: Callable) -> None:
        original = getattr(sys.modules[f"mmwcache.{mod}"], fn)
        wrapper = make(original)
        for name, namespace in list(sys.modules.items()):
            if name != "mmwcache" and not name.startswith("mmwcache."):
                continue
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._patches.append((namespace, attr, original))
                    setattr(namespace, attr, wrapper)

    def _spanned(self, name: str, fn: Callable, hook: Optional[Callable]):
        rec = self
        calls = name + ".calls"
        self_s = name + ".self_s"
        counts_evals = name == "numerics.adaptive_simpson"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_evals:
                args = (rec._counting_integrand(args[0]),) + args[1:]
            parent = rec._stack[-1] if rec._stack else None
            frame = [rec._next_span, 0.0]
            rec._next_span += 1
            rec._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                rec._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                rec.spans.append((frame[0], name, start, end,
                                  None if parent is None else parent[0],
                                  rec.item_id))
                rec.counters[calls] += 1
                rec.times[self_s] += duration - frame[1]
            if hook is not None:
                hook(rec, args, result, duration)
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable):
        counters = self.counters
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counting_integrand(self, f: Callable) -> Callable:
        counters = self.counters

        def counted(x):
            counters["numerics.adaptive_simpson.evals"] += 1
            return f(x)
        return counted

    def _pool_class(self, base):
        rec = self

        class TracedPool(base):
            """Counts pool starts and tasks; times start-up and waiting.

            startup_s runs from construction to the return of the first
            submit, which launches the workers; wait_s runs from the last
            submit to the end of shutdown, while the parent waits for the
            workers.
            """

            def __init__(self, *args, **kwargs):
                self._t_created = perf_counter()
                self._t_last_submit = None
                super().__init__(*args, **kwargs)
                rec.counters[POOL_NAME + ".starts"] += 1

            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                now = perf_counter()
                if self._t_last_submit is None:
                    rec.times[POOL_NAME + ".startup_s"] += now - self._t_created
                self._t_last_submit = now
                rec.counters[POOL_NAME + ".tasks"] += 1
                return future

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._t_last_submit is not None:
                    rec.times[POOL_NAME + ".wait_s"] += (
                        perf_counter() - self._t_last_submit)
                    self._t_last_submit = None

        return TracedPool

    # -- items and results -----------------------------------------------

    @contextmanager
    def item(self):
        """Give the spans recorded inside the block one fresh item id."""
        self.item_id = self._next_item
        self._next_item += 1
        try:
            yield
        finally:
            self.item_id = -1

    def ratios(self) -> Dict[str, float]:
        out = {}
        for name, (num, den) in RATIOS.items():
            d = self.counters.get(den, 0)
            out[name] = self.counters.get(num, 0) / d if d else 0.0
        return out

    def dump(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "times": dict(sorted(self.times.items())),
            "ratios": self.ratios(),
            "span_fields": ["id", "name", "start", "end", "parent", "item"],
            "spans": self.spans,
        }
