"""Hierarchical span tracing for the analysis pipeline.

One process-wide :class:`Tracer` (the :data:`TRACE` singleton, aliased
:data:`trace`) records *spans* — named, tagged wall-clock intervals —
into a flat list with parent links, so a whole ``analyze()`` run
becomes one tree: parse under the root, constraint generation and the
per-wave solve loop under ``prepare``, VFG building, Opt I/II and
demand queries under each configuration.  Producers write spans with
the context-manager / decorator API::

    from repro.obs import TRACE

    with TRACE.span("vfg.build", config=config.name):
        ...                        # children nest automatically

    @traced("vfg.build")
    def build_vfg(...): ...

Tracing is **off by default** and a disabled tracer is a no-op behind
a single attribute check: ``TRACE.span(...)`` returns the shared
:data:`NOOP_SPAN` singleton without allocating, and hot loops guard
with ``if TRACE.enabled:`` so per-wave / per-query spans cost nothing
when nobody is looking (the bound is enforced by
``benchmarks/test_observability.py``).

Exports: :meth:`Tracer.chrome_trace` (the Chrome trace-event JSON
format — load the file in ``chrome://tracing`` or
https://ui.perfetto.dev) and :meth:`Tracer.render_tree` (an indented
text tree with durations, the ``repro report --sections trace``
shape).  :func:`validate_chrome_trace` is the schema check the test
suite and consumers share.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

__all__ = [
    "NOOP_SPAN",
    "SpanRecord",
    "TRACE",
    "Tracer",
    "trace",
    "traced",
    "validate_chrome_trace",
]


class SpanRecord:
    """One recorded span: a named interval with tags and a parent link.

    ``parent`` is the index of the enclosing span in the tracer's event
    list (``-1`` for a root).  ``end`` is ``None`` while the span is
    still open.  Times are ``time.perf_counter()`` values.
    """

    __slots__ = ("name", "tags", "parent", "start", "end", "pid", "tid")

    def __init__(
        self,
        name: str,
        tags: Dict[str, object],
        parent: int,
        start: float,
        end: Optional[float] = None,
    ) -> None:
        self.name = name
        self.tags = tags
        self.parent = parent
        self.start = start
        self.end = end
        self.pid = os.getpid()
        self.tid = threading.get_ident()

    @property
    def seconds(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:
        return (
            f"<span {self.name!r} {self.seconds * 1e3:.3f}ms "
            f"parent={self.parent} pid={self.pid}>"
        )


class _NoopSpan:
    """The disabled-mode span: a shared, stateless context manager.

    ``Tracer.span`` returns this singleton when tracing is off, so the
    disabled path allocates nothing and does no work beyond one
    attribute check plus the call itself.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """An enabled-mode span handle (one per ``with`` block).  A span an
    exception passes through is tagged ``error=<ExceptionType>``."""

    __slots__ = ("_tracer", "_name", "_tags", "_index")

    def __init__(self, tracer: "Tracer", name: str, tags: Dict) -> None:
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._index = -1

    def __enter__(self) -> "_LiveSpan":
        self._index = self._tracer._open(self._name, self._tags)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._tags["error"] = exc_type.__name__
        self._tracer._close(self._index)
        return False

    def tag(self, **tags) -> "_LiveSpan":
        """Attach tags discovered mid-span (e.g. a wave's width)."""
        self._tags.update(tags)
        return self


class Tracer:
    """The span recorder.  One process-wide instance (:data:`TRACE`).

    The open-span stack is thread-local so a multi-threaded consumer
    nests correctly; the event list itself is append-only and guarded
    by the GIL (list.append is atomic).
    """

    def __init__(self) -> None:
        self.enabled: bool = False
        self.events: List[SpanRecord] = []
        self._local = threading.local()

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **tags):
        """A context manager timing the enclosed block as one span.

        Disabled tracing returns the shared :data:`NOOP_SPAN` after a
        single attribute check.  Hot loops should guard the call itself
        with ``if TRACE.enabled:`` so not even the call happens.
        """
        if not self.enabled:
            return NOOP_SPAN
        return _LiveSpan(self, name, tags)

    def _open(self, name: str, tags: Dict) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.events)
        self.events.append(
            SpanRecord(name, tags, parent, time.perf_counter())
        )
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.events[index].end = time.perf_counter()
        stack = self._stack()
        # Tolerate exits out of order (a span object closed from a
        # different frame): unwind to — and including — this span.
        while stack:
            if stack.pop() == index:
                break

    def instant(self, name: str, **tags) -> None:
        """A zero-duration marker span (campaign progress ticks)."""
        if not self.enabled:
            return
        now = time.perf_counter()
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.events.append(SpanRecord(name, tags, parent, now, now))

    # -- lifecycle ------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self.events = []
        self._local = threading.local()

    def capture(self):
        """``with TRACE.capture():`` — clear, enable, and disable on
        exit, leaving ``events`` populated for export."""
        return _Capture(self)

    # -- export ---------------------------------------------------------
    def chrome_trace(self) -> Dict:
        """The Chrome trace-event JSON object (``traceEvents`` array of
        complete events, microsecond timestamps relative to the first
        span), loadable in ``chrome://tracing`` / Perfetto."""
        finished = [e for e in self.events if e.end is not None]
        origin = min((e.start for e in finished), default=0.0)
        events: List[Dict] = []
        for pid in sorted({e.pid for e in finished}):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": "repro"},
                }
            )
        for record in finished:
            events.append(
                {
                    "name": record.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round((record.start - origin) * 1e6, 3),
                    "dur": round((record.end - record.start) * 1e6, 3),
                    "pid": record.pid,
                    "tid": record.tid,
                    "args": {
                        key: _jsonable(value)
                        for key, value in record.tags.items()
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> int:
        """Write :meth:`chrome_trace` to ``path``; returns the number
        of span events written (metadata records excluded)."""
        payload = self.chrome_trace()
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return sum(1 for e in payload["traceEvents"] if e["ph"] == "X")

    def render_tree(self, min_fraction: float = 0.0) -> str:
        """An indented text tree of the recorded spans with durations.

        ``min_fraction`` prunes spans shorter than that share of their
        root (per-wave noise suppression for the report section).
        """
        finished = [
            (i, e) for i, e in enumerate(self.events) if e.end is not None
        ]
        children: Dict[int, List[int]] = {}
        roots: List[int] = []
        index_set = {i for i, _ in finished}
        for i, record in finished:
            if record.parent in index_set:
                children.setdefault(record.parent, []).append(i)
            else:
                roots.append(i)
        lines: List[str] = []

        def emit(index: int, depth: int, root_seconds: float) -> None:
            record = self.events[index]
            if root_seconds > 0 and record.seconds < min_fraction * root_seconds:
                return
            tags = ", ".join(
                f"{k}={v}" for k, v in sorted(record.tags.items())
            )
            suffix = f"  [{tags}]" if tags else ""
            lines.append(
                f"{'  ' * depth}{record.name:<{max(1, 32 - 2 * depth)}s}"
                f"{record.seconds * 1e3:>10.3f} ms{suffix}"
            )
            for child in children.get(index, ()):
                emit(child, depth + 1, root_seconds)

        for root in roots:
            emit(root, 0, self.events[root].seconds)
        return "\n".join(lines) if lines else "(no spans recorded)"


class _Capture:
    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        self._tracer.clear()
        self._tracer.enable()
        return self._tracer

    def __exit__(self, *exc) -> bool:
        self._tracer.disable()
        return False


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: The process-wide tracer every pipeline phase records into.
TRACE = Tracer()
#: Alias matching the ``trace.span(...)`` spelling of the docs.
trace = TRACE


def traced(name: str, **tags) -> Callable:
    """Decorator form of :meth:`Tracer.span` — the wrapped call becomes
    one span when tracing is enabled, a plain call otherwise."""

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not TRACE.enabled:
                return fn(*args, **kwargs)
            with TRACE.span(name, **tags):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Chrome trace-event schema validation (shared by tests and tooling)
# ----------------------------------------------------------------------
def validate_chrome_trace(payload) -> int:
    """Validate a Chrome trace-event JSON object; returns the number of
    complete (``"ph": "X"``) span events.  Raises :class:`ValueError`
    with a one-line reason on the first schema violation.

    Checks the subset of the trace-event format this tracer emits:
    the ``traceEvents`` array, per-event required fields and types,
    non-negative microsecond timestamps/durations, and JSON-safe
    ``args``.
    """
    if isinstance(payload, (str, bytes)):
        payload = json.loads(payload)
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload lacks a traceEvents array")
    spans = 0
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in ("X", "M"):
            raise ValueError(f"{where}: unsupported phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing or empty name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(f"{where}: {field} must be an integer")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{where}: args must be an object")
        if phase == "M":
            continue
        for field in ("ts", "dur"):
            value = event.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"{where}: {field} must be a non-negative number"
                )
        spans += 1
    return spans
