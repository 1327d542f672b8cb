"""In-memory span recorder for the traced benchmark run.

The benchmark adds no code to ``src/``.  Instead, the traced run wraps
the entry points of each layer from here: the read calls it makes,
module attributes such as ``repro.core.fastlabels.batch_eq1``, and a
throw-away subclass swapped onto a packed engine instance (the engines
use ``__slots__``, so their methods cannot be patched per instance).  Every wrapped call records one span: name, start, end, the
span that caused it and the id of the top-level operation it belongs
to.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "Patches", "traced_engine_class"]

_now = time.perf_counter_ns


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: int, parent: int, op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Spans plus counters, keyed by the top-level operation id.

    ``begin_op`` opens a new top-level operation (one point read, one
    batch, one write); spans recorded until the next ``begin_op`` carry
    its id, so per-layer numbers can be split by operation kind.
    Nesting is tracked per thread; only the benchmark's own thread makes
    traced calls.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op_kinds: List[str] = []
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def begin_op(self, kind: str) -> None:
        self.op_kinds.append(kind)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable[[int, object], None]] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` around every call.

        ``on_result(span_index, result)`` lets a wrapper attach a count
        read off the return value (e.g. settled vertices of a search).
        """
        spans = self.spans
        kinds = self.op_kinds
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            index = len(spans)
            span = Span(name, 0, stack[-1] if stack else -1, len(kinds) - 1)
            spans.append(span)
            stack.append(index)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _now()
                stack.pop()
            if on_result is not None:
                on_result(index, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[int]:
        """Per span: duration minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def totals(self) -> Dict[Tuple[str, str], List[int]]:
        """``{(op kind, span name): [calls, total ns, total self ns]}``."""
        out: Dict[Tuple[str, str], List[int]] = defaultdict(lambda: [0, 0, 0])
        for span, own in zip(self.spans, self.self_times()):
            row = out[(self.op_kinds[span.op], span.name)]
            row[0] += 1
            row[1] += span.duration
            row[2] += own
        return out

    def names_per_op(self, lo: int, hi: int) -> Dict[int, set]:
        """Span names recorded under each operation id in ``[lo, hi)``."""
        out: Dict[int, set] = defaultdict(set)
        for span in self.spans:
            if lo <= span.op < hi:
                out[span.op].add(span.name)
        return out


class Patches:
    """Attribute patches that are undone in reverse order.

    ``install`` and ``remove`` can be called repeatedly: the traced run
    alternates traced and untraced rounds to measure its own overhead.
    """

    def __init__(self) -> None:
        self._plan: List[Tuple[object, str, object]] = []
        self._saved: List[Tuple[object, str, bool, object]] = []

    def add(self, owner: object, attr: str, value: object) -> None:
        self._plan.append((owner, attr, value))

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, value in self._plan:
            # ``__class__`` always exists on the instance; everything else
            # may be a class attribute shadowed by the patch.
            had = attr == "__class__" or attr in getattr(owner, "__dict__", {})
            self._saved.append((owner, attr, had, getattr(owner, attr, None)))
            setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, had, old = self._saved.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def traced_engine_class(base: type, tracer: Tracer, methods: Dict[str, str]) -> type:
    """A slot-compatible subclass of ``base`` whose ``methods`` record spans.

    ``methods`` maps attribute names to span names.  Assigning the result
    to an engine's ``__class__`` traces it; assigning ``base`` back
    removes the tracing.
    """
    namespace: Dict[str, object] = {"__slots__": ()}
    for attr, span_name in methods.items():
        if hasattr(base, attr):
            namespace[attr] = tracer.wrap(span_name, getattr(base, attr))
    return type(f"Traced{base.__name__}", (base,), namespace)
