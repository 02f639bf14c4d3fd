"""Wrapper-based span tracer for the benchmark.

The tracer replaces library functions under the names their callers bind
(for example ``dinoclip.trainer.make_views``, which ``train`` looks up on
every call) with wrappers that record one span per call, and puts the
originals back on ``uninstall``.  Nothing inside ``src/`` changes.

A span is ``[name, start, end, parent, unit]``: ``parent`` is the index of
the enclosing span (``None`` at top level) and ``unit`` is the step or pass
the workload was running when the span opened (``None`` outside them, as in
set-up or a retrieval probe).  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module under dinoclip, attribute, span name).  A span name of None means
# the name depends on the call: see Tracer._span_name.
TARGETS = (
    ("trainer", "make_views", "data.make_views"),
    ("data", "resize_bicubic", "data.resize_bicubic"),
    ("trainer", "resize_bicubic", "data.resize_bicubic"),
    ("trainer", "encode_text", "encoders.encode_text"),
    ("trainer", "encode_images", None),
    ("trainer", "project_dino", "encoders.project_dino"),
    ("trainer", "backward", "autodiff.backward"),
    ("trainer", "info_nce_loss", "objectives.info_nce"),
    ("trainer", "soft_distillation_terms", "objectives.distill"),
    ("trainer", "teacher_distribution", "objectives.distill"),
    ("trainer", "ema_update", "objectives.ema_center"),
    ("trainer", "update_center", "objectives.ema_center"),
    ("trainer", "adamw_step", "trainer.adamw"),
    ("trainer", "embed_texts", "trainer.embed_texts"),
    ("trainer", "embed_record_images", "trainer.embed_images"),
    ("trainer", "save_checkpoint", "checkpoint.save"),
    ("trainer", "load_checkpoint", "checkpoint.load"),
    ("evaluation", "retrieval_report", "evaluation.retrieval_report"),
    ("evaluation", "cosine_matrix", "evaluation.cosine_matrix"),
    ("evaluation", "recall_at_k", "evaluation.recall_at_k"),
    ("evaluation", "zero_shot_classify", "evaluation.zero_shot"),
)


def target_functions() -> dict:
    """Current object under every traced name, keyed by (module, attribute)."""
    out = {}
    for mod, attr, _ in TARGETS:
        module = importlib.import_module(f"dinoclip.{mod}")
        out[(mod, attr)] = getattr(module, attr)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(Counter)   # unit -> Counter of tape op types
        self.unit = None
        self.teacher_params = None                 # tells teacher image calls apart
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.unit]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _span_name(self, fixed, args) -> str:
        if fixed is not None:
            return fixed
        role = "teacher" if args and args[0] is self.teacher_params else "student"
        return f"encoders.encode_images_{role}"

    def _wrap(self, fn, fixed_name):
        count_tape = fixed_name == "autodiff.backward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_tape:
                self.counts[self.unit].update(node.op for node in args[0].nodes)
            with self.span(self._span_name(fixed_name, args)):
                return fn(*args, **kwargs)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod, attr, name in TARGETS:
            module = importlib.import_module(f"dinoclip.{mod}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def summarize(self, unit_seconds: dict) -> dict:
        """Per-layer figures averaged over the units in ``unit_seconds``
        (unit id -> wall seconds): self ms and call count per span name,
        tape op counts, and the loop's own time (unit time not covered by
        any top-level span)."""
        n = len(unit_seconds)
        own = self.self_times()
        self_ms: Counter = Counter()
        calls: Counter = Counter()
        covered: Counter = Counter()
        for (name, start, end, parent, unit), mine in zip(self.spans, own):
            if unit not in unit_seconds:
                continue
            self_ms[name] += 1000.0 * mine
            calls[name] += 1
            if parent is None:
                covered[unit] += end - start
        ops: Counter = Counter()
        for unit, counter in self.counts.items():
            if unit in unit_seconds:
                ops.update(counter)
        loop_self = sum(1000.0 * (unit_seconds[u] - covered[u]) for u in unit_seconds)
        return {
            "self_ms": {k: v / n for k, v in self_ms.items()},
            "calls": {k: v / n for k, v in calls.items()},
            "ops": {k: v / n for k, v in ops.items()},
            "loop_self_ms": loop_self / n,
            "unit_ms": 1000.0 * sum(unit_seconds.values()) / n,
            "min_self_ms": min((own[i] * 1000.0 for i, s in enumerate(self.spans)
                                if s[4] in unit_seconds), default=0.0),
        }

    def durations_ms(self, name: str) -> list[float]:
        """Inclusive durations of every span with this name, in any unit."""
        return [1000.0 * (end - start) for n, start, end, _, _ in self.spans if n == name]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, unit in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "unit": unit}))
                f.write("\n")
