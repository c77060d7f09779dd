"""In-memory spans around the calls into each bellcal module.

Tracer.install wraps every public function of the bellcal modules at every
namespace that binds it: calibration, prediction and cli import names such
as expected_rate with ``from .clicks import ...``, so wrapping the defining
module alone would miss the calls that matter. A span is
(name, start, end, parent id, error); spans stay in memory until the run
ends and are written out in one go.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("clicks", "calibration", "prediction", "montecarlo", "cli")


class Tracer:
    def __init__(self) -> None:
        # each span is [name, start, end, parent, error]; parent -1 is a root
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        except BaseException:
            record[4] = True
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, package) -> None:
        """Wrap each public bellcal function in every module namespace."""
        namespaces = [package] + [
            importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                module = value.__module__ or ""
                if not module.startswith(package.__name__ + "."):
                    continue
                if value not in wrappers:
                    layer = module.rsplit(".", 1)[1]
                    wrappers[value] = self.wrap(f"{layer}.{value.__name__}", value)
                self._patched.append((ns, attr, value))
                setattr(ns, attr, wrappers[value])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("id,parent,name,start,end,error\n")
            for i, (name, start, end, parent, error) in enumerate(self.spans):
                out.write(f"{i},{parent},{name},{start:.9f},{end:.9f},{int(error)}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (outermost spans only), self_s, errors,
    and nested_rate_evals (clicks.expected_rate spans beneath it)."""
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0, "nested_rate_evals": 0}
    )
    for i, (name, start, end, parent, error) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        entry["errors"] += int(error)
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            entry["busy_s"] += end - start
        if name == "clicks.expected_rate":
            for ancestor in ancestors:
                stats[ancestor]["nested_rate_evals"] += 1
    return dict(stats)
