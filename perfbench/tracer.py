"""Span recorder for the benchmark's traced run.

Spans are recorded from benchmark code only: ``instrument`` swaps the public
functions of each crimeminer module for timing wrappers at the names their
callers look up (``evaluate.nb_train`` as well as ``classify.nb_train``) and
puts the originals back afterwards. Nothing in the program is edited.

Per-record functions (``nb_predict``, ``dt_predict``, ``record_transaction``)
get no span per call; their calls and time are summed on the innermost span
of the calling thread. Each thread keeps its own span stack, and a task
handed to a thread pool starts under the span that submitted it, so the
folds of ``--threads 2`` attribute to their ``cross_validate``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

# (module, function, how): "span" records one span per call, "count" sums
# calls and time on the enclosing span.
TRACED = (
    ("ingestion", "load_crime_csv", "span"),
    ("ingestion", "filter_crimes", "span"),
    ("ingestion", "write_raw_jsonl", "span"),
    ("ingestion", "read_raw_jsonl", "span"),
    ("ingestion", "load_demographics_csv", "span"),
    ("preprocess", "preprocess_dataset", "span"),
    ("preprocess", "write_unified_jsonl", "span"),
    ("preprocess", "read_unified_jsonl", "span"),
    ("stats", "frequency_table", "span"),
    ("stats", "crosstab", "span"),
    ("stats", "top_and_bottom_locations", "span"),
    ("stats", "write_frequency_csv", "span"),
    ("stats", "write_crosstab_csv", "span"),
    ("apriori", "mine_hotspot_patterns", "span"),
    ("apriori", "mine_frequent", "span"),
    ("apriori", "write_patterns_csv", "span"),
    ("apriori", "record_transaction", "count"),
    ("classify", "split_train_test", "span"),
    ("classify", "nb_train", "span"),
    ("classify", "dt_train", "span"),
    ("classify", "save_model", "span"),
    ("classify", "load_model", "span"),
    ("classify", "nb_predict", "count"),
    ("classify", "dt_predict", "count"),
    ("evaluate", "evaluate_split", "span"),
    ("evaluate", "cross_validate", "span"),
    # One cross-validation fold is one call of this private helper.
    ("evaluate", "_fit_predict", "span"),
    ("evaluate", "write_cv_result_json", "span"),
    ("evaluate", "write_report_csv", "span"),
    ("evaluate", "write_report_json", "span"),
    ("demographics", "crime_rate_by_location", "span"),
    ("demographics", "compare_groups", "span"),
    ("demographics", "write_comparison_csv", "span"),
    ("demographics", "write_comparison_json", "span"),
)
# Modules whose thread pools are swapped for one that carries the parent span.
POOLED = ("apriori", "evaluate")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    workload: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    counted: dict = field(default_factory=dict)  # name -> [calls, seconds]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "thread": self.thread,
            "workload": self.workload, "start": self.start, "end": self.end,
            "attrs": self.attrs, "counted": self.counted,
        }


class Tracer:
    """Keeps finished spans in memory; ``write_jsonl`` dumps them at the end."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1].id if stack else None
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, parent, threading.get_ident(), self.workload,
                    time.perf_counter(), attrs=attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    @contextlib.contextmanager
    def adopt(self, parent: Span | None):
        """Run the block in this thread as if ``parent`` were its open span."""
        stack = self._stack()
        if parent is not None:
            stack.append(parent)
        try:
            yield
        finally:
            if parent is not None:
                stack.pop()

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def counted(self, name: str, fn):
        clock = time.perf_counter
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack = stack_of()
                if stack:  # the innermost span belongs to this thread
                    tally = stack[-1].counted.setdefault(name, [0, 0.0])
                    tally[0] += 1
                    tally[1] += elapsed
        return traced

    def pool_class(self, base, task_name: str):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **k):
                    with tracer.adopt(parent), tracer.span(task_name):
                        return fn(*a, **k)
                return super().submit(task, *args, **kwargs)
        return TracedPool

    @contextlib.contextmanager
    def instrument(self):
        """Install the wrappers on every lookup site, restore on exit."""
        import importlib

        modules = {
            name: importlib.import_module(f"crimeminer.{name}")
            for name in ("ingestion", "preprocess", "stats", "apriori", "classify", "evaluate",
                         "demographics", "cli")
        }
        originals = []
        for module_name, fn_name, how in TRACED:
            fn = getattr(modules[module_name], fn_name)
            label = f"{module_name}.{fn_name.lstrip('_')}"
            wrapper = self.spanned(label, fn) if how == "span" else self.counted(label, fn)
            for module in modules.values():
                if getattr(module, fn_name, None) is fn:
                    originals.append((module, fn_name, fn))
                    setattr(module, fn_name, wrapper)
        for module_name in POOLED:
            module = modules[module_name]
            base = module.ThreadPoolExecutor
            originals.append((module, "ThreadPoolExecutor", base))
            module.ThreadPoolExecutor = self.pool_class(base, f"{module_name}.pool_task")
        try:
            yield
        finally:
            for module, name, original in reversed(originals):
                setattr(module, name, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in sorted(self.spans, key=lambda s: s.id):
                fp.write(json.dumps(span.to_json_dict(), sort_keys=True))
                fp.write("\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part covered by child spans (any thread) and
    minus the time of counted per-record calls made directly under it."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        counted = sum(seconds for _, seconds in span.counted.values())
        result[span.id] = max(span.seconds - covered - counted, 0.0)
    return result
