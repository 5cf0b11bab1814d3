"""Span tracer for the regimeweave modules, installed from outside the program.

``Tracer.install`` wraps every public function of the six modules named in
``MODULES`` and rebinds each wrapper wherever the original is bound: a
module that imported a function by name (``montecarlo`` and ``portfolio``
import ``simulate_path`` that way) calls the wrapper too.  Two methods are
wrapped as well, ``RngStream.generator`` (span ``markov.rng_stream``) and
``IncomeLoading.integral`` (``hjb.loading_integral``), and the callable that
``value_function`` returns (``portfolio.value_fn``).

Each span adds its duration to its name's inclusive time and its duration
minus its children's durations to its own and its module's self time, so
the module self times of a run sum to the time spent in root spans.
Spans stay in memory; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "regimeweave"
MODULES = ("cli", "markov", "compose", "hjb", "montecarlo", "portfolio")


def _n_paths(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs, result: signature.bind(*args, **kwargs).arguments["n_paths"]


def _n_points(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        return np.broadcast(np.asarray(bound["x"]), np.asarray(bound["y"])).size

    return count


# Work units counted at a span's boundary, for per-path, per-segment and
# per-point costs and for the jump and grid counts of each path.
WORK = {
    "markov.simulate_path": lambda fn: lambda args, kwargs, result: result.n_jumps(),
    "montecarlo.merged_time_grid": lambda fn: lambda args, kwargs, result: len(result[0]),
    "montecarlo.estimate_regime_factor": _n_paths,
    "montecarlo.estimate_value_factor": _n_paths,
    "portfolio.evaluate_policy": _n_paths,
    "compose.bivariate_normal_cdf": _n_points,
    "hjb.loading_integral": lambda fn: lambda args, kwargs, result: np.size(args[1]),
}


class SpanStats:
    """Calls, inclusive and self seconds, and counted work units of one span name."""

    __slots__ = ("calls", "inclusive", "self_time", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.work = 0


class Tracer:
    """Collects span statistics while installed."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.module_self = dict.fromkeys(MODULES, 0.0)
        self.root_seconds = 0.0
        self._open: list[float] = []  # children's time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, name: str, fn):
        stats = self.stat(name)
        module = name.split(".", 1)[0]
        work = WORK[name](fn) if name in WORK else None
        opened = self._open
        module_self = self.module_self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - opened.pop()
                if opened:
                    opened[-1] += elapsed
                else:
                    self.root_seconds += elapsed
                stats.calls += 1
                stats.inclusive += elapsed
                stats.self_time += own
                module_self[module] += own
            if work is not None:
                stats.work += work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for short in MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                inner = self._returning_value_fn(fn) if name == "value_function" else fn
                traced = self.wrap(f"{short}.{name}", inner)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, traced)
        markov = sys.modules[f"{PACKAGE}.markov"]
        hjb = sys.modules[f"{PACKAGE}.hjb"]
        for owner, attr, name in (
            (markov.RngStream, "generator", "markov.rng_stream"),
            (hjb.IncomeLoading, "integral", "hjb.loading_integral"),
        ):
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _returning_value_fn(self, value_function):
        @functools.wraps(value_function)
        def returning(*args, **kwargs):
            return self.wrap("portfolio.value_fn", value_function(*args, **kwargs))

        return returning
