"""Span tracer that wraps circreg functions by name from outside the package.

Each wrapped attribute is replaced by a function that records a span
(name, parent, start, end) and optionally counts something about the call.
Nothing in ``src/`` changes: the wrappers are installed on the attribute the
caller looks up (``circreg.betti._sweep_chunk`` is the name
``hochster_betti_table`` resolves at call time) and the original objects are
put back by ``restore``.  A target that no longer exists is recorded in
``missing`` instead of raising, so renaming a private function removes the
metrics that depend on it rather than breaking the benchmark; so is one
whose counting hook no longer fits the call's arguments.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

# Span tuple fields, kept as lists so the end time can be filled in place.
NAME, PARENT, START, END = range(4)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: a dotted path, the span name, and an optional
    hook ``on_result(tracer, args, kwargs, result)`` run after the span ends."""

    path: str
    span: str
    on_result: Optional[Callable] = None


def resolve(path: str):
    """Return (owner, attribute) for a dotted path such as
    ``circreg.graphs.Graph.induced``; raise LookupError if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
        except AttributeError as exc:
            raise LookupError(path) from exc
        attr = parts[-1]
        # A class attribute is read from the class dict so that restoring
        # puts back the exact object, not a bound or descriptor result.
        present = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
        if not present:
            raise LookupError(path)
        return owner, attr
    raise LookupError(path)


class Tracer:
    """Spans and counters for one traced pass; single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.sweeps: list[tuple] = []  # (adjacency, items) of each sweep chunk
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around one of the benchmark's own calls into a layer."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][END] = time.perf_counter()

    def _lose(self, path: str) -> None:
        if path not in self.missing:
            self.missing.append(path)

    def _wrap(self, fn, target: Target):
        tracer, name, hook = self, target.span, target.on_result

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (LookupError, TypeError, AttributeError):
                    # The call no longer has the shape the hook reads; its
                    # metrics go absent, as for a missing name.
                    tracer._lose(target.path)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap every target that exists; note the rest in ``missing``."""
        for target in targets:
            try:
                owner, attr = resolve(target.path)
            except LookupError:
                self._lose(target.path)
                continue
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, target))

    def restore(self) -> None:
        """Put back every original object, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    def reset(self) -> None:
        """Drop recorded spans and counts; keeps ``missing``."""
        self.spans, self.counts, self.sweeps = [], {}, []


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def nesting_ok(spans: list[list]) -> bool:
    """True when every child lies inside its parent and the children of a
    span together last no longer than it does."""
    child_sum = [0.0] * len(spans)
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            if s[START] < parent[START] or s[END] > parent[END]:
                return False
            child_sum[p] += s[END] - s[START]
    # Clock readings are floats; allow for rounding in the sums.
    return all(c <= s[END] - s[START] + 1e-9 for c, s in zip(child_sum, spans))
