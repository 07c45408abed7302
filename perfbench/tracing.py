"""Per-layer tracing for the benchmark, applied from outside the program.

Every hook wraps a *public* function, method or module binding of
``repro`` in the calling process; nothing under ``src/`` knows it is
being traced.  A wrapper records a span (name, start, end, parent) and
counts, and may observe the call's return value.  Self time per span
name is folded in as spans close (span time minus the time of wrapped
child spans), so a DES run with millions of wrapped calls needs no
per-span memory; the first ``raw_cap`` spans are also kept verbatim and
written out by :meth:`Tracer.dump`.

A hook whose target a later change renames or removes is reported as
missing: its metrics become ``null`` and a warning goes to stderr, but
the run itself is unaffected.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Tracer:
    """Span and counter recorder shared by all hooks of one process."""

    def __init__(self, raw_cap: int = 50_000) -> None:
        self.stack: List[list] = []  # open spans: [name, start, child_s, id]
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(float)
        self.raw: List[tuple] = []
        self.raw_cap = raw_cap
        self.raw_dropped = 0
        self.missing: List[str] = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``observe(result, args)`` runs after
        a successful call, outside the span."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [name, perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if len(tracer.raw) < tracer.raw_cap:
                    tracer.raw.append(
                        (span_id, name, frame[1], end,
                         parent[3] if parent is not None else None)
                    )
                else:
                    tracer.raw_dropped += 1
            if observe is not None:
                observe(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def count_only(self, fn: Callable, observe: Callable) -> Callable:
        """``fn`` with ``observe(args)`` called first and no span: for
        calls too frequent and too cheap to time (kernel scheduling)."""

        def counted(*args, **kwargs):
            observe(args)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @property
    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span (the caller of a hooked call)."""
        return self.stack[-1][0] if self.stack else None

    def add(self, key: str, amount: float = 1.0) -> None:
        self.values[key] += amount

    # -- patching ------------------------------------------------------
    def patch(self, hook: str, owner: object, attr: str, make: Callable) -> bool:
        """Replace ``owner.attr`` by ``make(original)``.

        Methods defined with ``@classmethod`` stay classmethods.  A
        missing target marks ``hook`` missing instead of raising.
        """
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None and not hasattr(owner, attr):
            self._missing(hook, f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(getattr(owner, attr)))
        return True

    def _missing(self, hook: str, target: str) -> None:
        if hook not in self.missing:
            self.missing.append(hook)
        print(
            f"perfbench: warning: trace hook {hook!r} has no target "
            f"{target}; its metrics are reported as null",
            file=sys.stderr,
        )

    # -- output --------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the kept raw spans as JSON lines (times in seconds)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.raw:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start,
                         "end": end, "parent": parent}
                    )
                    + "\n"
                )
            if self.raw_dropped:
                fh.write(json.dumps({"dropped": self.raw_dropped}) + "\n")
