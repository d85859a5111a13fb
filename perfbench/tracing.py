"""In-memory span tracing installed from outside the program.

A :class:`Tracer` replaces named callables of the docknav modules with thin
wrappers that record one span per call: name, start, end, parent span,
thread id and trace id. A span with no open parent on its thread starts a
new trace, so the spans of one episode (``Worker.produce_episode``) or one
update (``Trainer.run_update``) share an id. Spans stay in memory until the
run ends; :meth:`Tracer.remove` puts every original back and checks it.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict

from catalog import COLLISION_SPANS, SPANS, TIMED

NAME, START, END, PARENT, THREAD, TRACE = range(6)


class Tracer:
    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.notes: dict[str, list] = defaultdict(list)
        self._modules = modules
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_trace = 0
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Patch ``owner.attr``; ``note(*args, **kwargs)``, when given, is
        called before each call and its result appended to ``notes[name]``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, lock, stack_of, notes = self.spans, self._lock, self._stack, self.notes[name]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            with lock:
                if parent < 0:
                    trace = self._next_trace
                    self._next_trace += 1
                else:
                    trace = spans[parent][TRACE]
                index = len(spans)
                span = [name, 0.0, 0.0, parent, threading.get_ident(), trace]
                spans.append(span)
            if note is not None:
                notes.append(note(*args, **kwargs))
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, notes: dict | None = None) -> None:
        """Wrap every callable in :data:`catalog.SPANS`."""
        notes = notes or {}
        for name, module, owner, attr in SPANS:
            target = self._modules[module]
            if owner:
                target = getattr(target, owner)
            self.wrap(target, attr, name, notes.get(name))

    def remove(self) -> bool:
        """Restore every patched name; True when all originals are back."""
        restored = True
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            restored &= current is original
        return restored

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover (children
        of one span run on its thread, nested and disjoint)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def durations(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for s in self.spans:
            out[s[NAME]].append(s[END] - s[START])
        return out

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def layer_metrics(self, max_trials: int) -> dict[str, float]:
        """Median per call, call count and busy time of every timed stem in
        :data:`catalog.TIMED`, plus the span-derived curriculum ratios."""
        durs = self.durations()
        selfs = self.self_times()
        durs["world.step_self"] = [t for s, t in zip(self.spans, selfs) if s[NAME] == "world.step"]
        per_step = defaultdict(float)
        for s in self.spans:
            if s[NAME] in COLLISION_SPANS and s[PARENT] >= 0 \
                    and self.spans[s[PARENT]][NAME] == "world.step":
                per_step[s[PARENT]] += s[END] - s[START]
        durs["geometry.collision"] = list(per_step.values())

        out = {}
        for stem, unit in TIMED:
            values = durs.get(stem, [])
            scale = 1e3 if unit == "ms" else 1.0
            out[f"{stem}_{unit}"] = statistics.median(values) * scale if values else 0.0
            out[f"{stem}.calls"] = len(values)
            out[f"{stem}.busy_s"] = sum(values)
        out["world.steps"] = len(durs.get("world.step", []))

        selections = len(durs.get("orchestrator.select_task", []))
        built = sum(1 for i, s in enumerate(self.spans) if s[NAME] == "world.init"
                    and self._has_ancestor(i, "orchestrator.select_task"))
        out["curriculum.candidates_per_task"] = built / selections if selections else 0.0

        draws = defaultdict(int)
        for s in self.spans:
            if s[NAME] == "world.sample_task" and s[PARENT] >= 0 \
                    and self.spans[s[PARENT]][NAME] == "curriculum.get_dynamic_task":
                draws[s[PARENT]] += 1
        calls = len(durs.get("curriculum.get_dynamic_task", []))
        fallbacks = sum(1 for n in draws.values() if n == max_trials + 1)
        out["curriculum.fallback_frac"] = fallbacks / calls if calls else 0.0
        return out

    def write(self, path) -> None:
        """Spans as CSV, one line each, with their self time."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,thread,trace,self\n")
            for s, own in zip(self.spans, selfs):
                fh.write(f"{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},"
                         f"{s[THREAD]},{s[TRACE]},{own:.9f}\n")
