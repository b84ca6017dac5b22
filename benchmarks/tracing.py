"""In-memory spans around calls into the program, with self time and counters.

A :class:`Tracer` records one span per wrapped call: its name, start, end
and the span that was open when it began (its parent).  Counts are taken at
the same boundary from call arguments and return values, never from inside
the program.  :class:`Patch` installs the wrappers wherever a caller looks a
function up: every module attribute bound to the original object, and the
owning class for methods.  Modules that import a function by name
therefore see the wrapper too.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

# count(tracer, args, kwargs, result) records work done by one call.
Counter = Callable[["Tracer", tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """A function to trace: span name, owning module, attribute path, counter."""

    name: str
    module: str
    attr: str
    count: Counter | None = None


class Tracer:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._open: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(idx)
            self.starts.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = self.clock()
                self._open.pop()
            self.counters[name + ".calls"] += 1
            if count is not None:
                count(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child-span time.

        Spans nest strictly within one thread, so a span's children never
        overlap and their durations add up to the time they cover.
        """
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += (self.ends[i] - self.starts[i]) - covered[i]
        return dict(totals)

    def covered_time(self) -> float:
        """Wall time inside any span (the sum of root-span durations)."""
        return sum(
            self.ends[i] - self.starts[i]
            for i, parent in enumerate(self.parents)
            if parent < 0
        )

    def child_count(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans opened directly inside ``parent_name``."""
        return sum(
            1
            for i, parent in enumerate(self.parents)
            if parent >= 0
            and self.names[i] == child_name
            and self.names[parent] == parent_name
        )

    def to_json(self) -> dict:
        names = sorted(set(self.names))
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [
                [code[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }


def _resolve(target: Target) -> tuple[object, str]:
    owner = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Patch:
    """Context manager that routes every lookup of each target through a tracer."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target], modules: Iterable):
        self.tracer = tracer
        self.targets = targets
        self.modules = list(modules)
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for target in self.targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                wrapper = self.tracer.wrap(target.name, original, target.count)
                holders = {id(owner): owner}
                for module in self.modules:
                    holders.setdefault(id(module), module)
                for holder in holders.values():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._undo.append((holder, key, value))
                            setattr(holder, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)


def arg(args: tuple, kwargs: dict, position: int, name: str):
    """A call argument given either by keyword or by position."""
    return kwargs[name] if name in kwargs else args[position]
