"""Span recording for the traced benchmark run, and span aggregation.

`Tracer.install` wraps the public functions of the unot modules from the
outside: each wrapper records a span (name, start, end, parent) in memory,
and every module-level binding of the original function inside the `unot`
package is rebound to it.  That covers the names `unot.experiments` and
`unot.cli` import, and the module-level names that `unot.evolve` and
`unot.oracle` call internally (`de_mutate`, `de_crossover`, `apply_noise`,
`sample_bloch`, `sample_gate`).  No private name is read or replaced.
Spans are written once, when the child process ends.

`aggregate` turns a span list back into per-name call counts, inclusive
time and self time.  It uses only the standard library, so the benchmark
runner (run.py) can import it without numpy.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# Modules whose public functions get a span, in dependency order.
TRACED_MODULES = (
    "rotation",
    "fidelity",
    "circuit",
    "oracle",
    "evolve",
    "experiments",
    "cli",
)

SPAN_FIELDS = ("name", "start", "end", "parent")


class Tracer:
    """In-memory span and counter store for one traced child process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {
            "evolve.useful_evals": 0,
            "oracle.samples": 0,
            "experiments.rows_bytes": 0,
        }

    def wrap(self, name: str, fn, after=None):
        """Return `fn` recording one span per call; `after(args, kwargs, result)`
        may update counters or replace the result."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            return result if after is None else after(args, kwargs, result)

        return traced

    def _after_crossover(self, args, kwargs, trial):
        target = args[0] if args else kwargs["target"]
        self.counters["evolve.useful_evals"] += int(bool((trial != target).any()))
        return trial

    def _after_mc_stats(self, args, kwargs, result):
        n = args[2] if len(args) > 2 else kwargs["n_samples"]
        self.counters["oracle.samples"] += int(n)
        return result

    def _after_bloch_factory(self, args, kwargs, act):
        return self.wrap("oracle.bloch_map", act)

    def _after_write_rows(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counters["experiments.rows_bytes"] += os.path.getsize(path)
        return result

    def install(self) -> None:
        """Wrap every public function of TRACED_MODULES where it is bound."""
        hooks = {
            "evolve.de_crossover": self._after_crossover,
            "oracle.mc_stats": self._after_mc_stats,
            "oracle.bloch_map_from_three_qubit_unitary": self._after_bloch_factory,
            "experiments.write_rows": self._after_write_rows,
        }
        replacements = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"unot.{short}"]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                replacements[id(obj)] = self.wrap(name, obj, hooks.get(name))
        packages = [
            m
            for key, m in list(sys.modules.items())
            if key == "unot" or key.startswith("unot.")
        ]
        for module in packages:
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": list(SPAN_FIELDS),
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: `calls`, inclusive seconds `s` and `self_s`.

    Self time is a span's duration minus the part covered by its direct
    children.  Inclusive time counts only the outermost span of a name, so a
    function reached again below itself is not counted twice.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out
