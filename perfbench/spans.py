"""Spans recorded from the benchmark's own files.

The program is not instrumented. Instead the traced pass swaps timing
wrappers in for the public functions at each layer boundary (module
functions where the caller looks them up, methods on their classes) and
swaps the originals back afterwards. Each call becomes one span: name,
start, end, parent (the enclosing span on the same thread) and the job
ids it serves, when its arguments name them. Spans stay in memory and
are written out once, at the end of the run.

Work that the server does on its worker threads has no parent on that
thread; :func:`attach_by_key` links it to the client-side span of the
request it served, by job id and time containment.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "keys", "size")

    def __init__(self, name, parent, thread, keys, size):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.keys = keys
        self.size = size
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def plan_arg(position: int):
    """Key extractor: the job id of the plan at ``args[position]``."""
    return lambda args, kwargs: (args[position].job_id,)


def ids_arg(position: int):
    """Key extractor: the job ids listed at ``args[position]``."""
    return lambda args, kwargs: tuple(args[position])


class Tracer:
    """Records spans for wrapped functions while enabled."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: Boundaries :meth:`wrap` could not find (``owner.attr``).
        self.missing: list[str] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, keys: tuple = (), size: int = 1):
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, name, keys, size)

    def _open(self, name, keys, size) -> Span:
        stack = self._stack()
        span = Span(
            name, stack[-1] if stack else None, threading.get_ident(),
            keys, size,
        )
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, keys=None, size=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper (undone by unwrap).

        A boundary the program no longer has is skipped and listed in
        :attr:`missing`, so its row, which then reads zero, is flagged
        instead of passing for an infinitely fast layer.
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer._open(
                name,
                keys(args, kwargs) if keys is not None else None,
                size(args, kwargs) if size is not None else 1,
            )
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write every span as JSON lines (times relative to the first)."""
        if not self.spans:
            return
        origin = min(s.start for s in self.spans)
        ids = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, s in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start_us": round((s.start - origin) * 1e6, 1),
                            "end_us": round((s.end - origin) * 1e6, 1),
                            "parent": ids.get(id(s.parent)),
                            "thread": s.thread,
                            "keys": list(s.keys) if s.keys else None,
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    def __init__(self, tracer, name, keys, size):
        self._tracer, self._name, self._keys, self._size = (
            tracer, name, keys, size,
        )
        self.span = None

    def __enter__(self):
        if self._tracer.enabled:
            self.span = self._tracer._open(self._name, self._keys, self._size)
        return self

    def __exit__(self, *exc_info):
        if self.span is not None:
            self._tracer._close(self.span)


def attach_by_key(
    spans: list[Span], anchors: list[Span], slack: float = 1e-4
) -> dict[int, list[Span]]:
    """Map each parentless non-anchor span to the anchors it served.

    An anchor serves a span when they share a job id and the span lies
    inside the anchor's interval (``slack`` seconds of clock skew
    allowed at either end). Returns ``id(root span) -> anchors``.
    """
    by_key: dict[str, list[Span]] = defaultdict(list)
    anchor_ids = {id(a) for a in anchors}
    for anchor in anchors:
        for key in anchor.keys or ():
            by_key[key].append(anchor)
    served: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None or id(span) in anchor_ids:
            continue
        owners = []
        for key in span.keys or ():
            for anchor in by_key.get(key, ()):
                if (
                    anchor.start - slack <= span.start
                    and span.end <= anchor.end + slack
                ):
                    owners.append(anchor)
        if owners:
            served[id(span)] = owners
    return served


def self_times(spans: list[Span], extra_children=None) -> dict[int, float]:
    """Self time of every span: duration minus its children's durations.

    ``extra_children`` maps ``id(span)`` to cross-thread children (work
    a worker did for the request the span stands for).
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    for parent_id, children in (extra_children or {}).items():
        covered[parent_id] += sum(c.duration for c in children)
    return {
        id(s): max(0.0, s.duration - covered.get(id(s), 0.0)) for s in spans
    }
