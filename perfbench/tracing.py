"""In-memory span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files only: the calls into
each layer's public functions are wrapped for the duration of the
traced run and restored afterwards, and ``CloudServer`` calls go
through :class:`CloudEndpointProxy` / :class:`BatchServerProxy`.
Nothing inside ``src/repro`` is changed or instrumented.

A span is ``(name, start_ns, end_ns, parent, request, attrs)``.  The
parent is taken from a :mod:`contextvars` variable, so spans opened by
different asyncio tasks (gateway requests) nest under their own
request, never under whichever task happened to run last.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    request: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return max(0, self.end_ns - self.start_ns)


class Recorder:
    """Collects spans in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Spans are only kept while recording (set-up and the timed
        #: region); input preparation and output checks are excluded.
        self.recording = False
        self.region = "setup"

    def open(
        self,
        name: str,
        request: str | None = None,
        root: bool = False,
        **attrs: Any,
    ) -> int:
        parent = -1 if root else _CURRENT.get()
        if request is None and parent >= 0:
            request = self.spans[parent].request
        attrs.setdefault("region", self.region)
        self.spans.append(
            Span(name, time.perf_counter_ns(), parent=parent, request=request, attrs=attrs)
        )
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()

    @contextlib.contextmanager
    def span(
        self, name: str, request: str | None = None, root: bool = False, **attrs: Any
    ) -> Iterator[Span | None]:
        if not self.recording:
            yield None
            return
        index = self.open(name, request=request, root=root, **attrs)
        token = _CURRENT.set(index)
        try:
            yield self.spans[index]
        finally:
            _CURRENT.reset(token)
            self.close(index)

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent >= 0:
                kids.setdefault(span.parent, []).append(index)
        return kids

    def self_time_ns(self, index: int, kids: dict[int, list[int]]) -> int:
        """Duration minus the part of it that child spans cover."""
        span = self.spans[index]
        covered = 0
        cursor = span.start_ns
        intervals = sorted(
            (self.spans[k].start_ns, self.spans[k].end_ns) for k in kids.get(index, [])
        )
        for start, end in intervals:
            start = max(start, cursor)
            end = min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration_ns - covered

    def select(self, name: str, region: str = "timed") -> list[Span]:
        return [
            s for s in self.spans if s.name == name and s.attrs.get("region") == region
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "parent": span.parent,
                    "request": span.request,
                }
                record.update(
                    {k: v for k, v in span.attrs.items() if _jsonable(v)}
                )
                handle.write(json.dumps(record) + "\n")


def root_span(recorder: Recorder | None, name: str, request: str) -> Any:
    """A root span for one request, or nothing when not tracing."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, request=request, root=True)


def _jsonable(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool)) or value is None


AttrHook = Callable[..., dict[str, Any]]


def wrap(
    recorder: Recorder,
    name: str,
    fn: Callable[..., Any],
    attrs: AttrHook | None = None,
    root: bool = False,
) -> Callable[..., Any]:
    """``fn`` recording one span per call; ``attrs(result, *args)``
    (positional arguments only) adds counts read at the boundary once
    the call returns."""

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not recorder.recording:
            return fn(*args, **kwargs)
        index = recorder.open(name, root=root)
        token = _CURRENT.set(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            recorder.close(index)
        if attrs is not None:
            recorder.spans[index].attrs.update(attrs(result, *args))
        return result

    return traced


@contextlib.contextmanager
def patched(
    recorder: Recorder,
    targets: list[tuple[object, str, str, AttrHook | None]],
) -> Iterator[None]:
    """Install span wrappers on ``(owner, attribute, span name, attrs)``
    targets and restore the originals on exit."""
    saved: list[tuple[object, str, Any]] = []
    try:
        for owner, attribute, name, attrs in targets:
            # A class attribute is read raw, so restoring it restores the
            # plain function; an instance attribute shadows a bound method
            # and is deleted again on exit.
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, wrap(recorder, name, original, attrs))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            if isinstance(owner, type):
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


class CloudEndpointProxy:
    """A ``CloudEndpoint`` in front of one ``CloudServer``.

    Every answer is kept (the output checks sample from them, and the
    Eq. 4 breakdowns give ``runtime.modelled_initial_s``); with a
    recorder, each call is also a ``cloud.server.handle_frame`` span.
    """

    def __init__(self, server: Any, recorder: Recorder | None = None) -> None:
        self.server = server
        self.recorder = recorder
        self.answers: list[tuple[Any, Any, Any]] = []

    @property
    def timing(self) -> Any:
        return self.server.timing

    def handle_frame(self, frame: Any) -> Any:
        if self.recorder is None:
            answer = self.server.handle_frame(frame)
        else:
            with self.recorder.span("cloud.server.handle_frame"):
                answer = self.server.handle_frame(frame)
        self.answers.append((frame, answer[0], answer[1]))
        return answer


@dataclass
class BatchRecord:
    start: float
    end: float
    frame_ids: list[int]
    generation: int
    slices: tuple[Any, ...]
    initial_s: list[float]


class BatchServerProxy:
    """The server surface ``ServingGateway`` uses, in front of one
    ``CloudServer``: records when each coalesced batch ran, which
    requests rode it and which MDB generation it searched."""

    def __init__(
        self,
        server: Any,
        clock: Callable[[], float],
        recorder: Recorder | None = None,
    ) -> None:
        self.server = server
        self.clock = clock
        self.recorder = recorder
        self.batches: list[BatchRecord] = []
        self.frame_requests: dict[int, str] = {}

    @property
    def timing(self) -> Any:
        return self.server.timing

    def handle_batch(self, frames: list[Any]) -> Any:
        start = self.clock()
        if self.recorder is None:
            served = self.server.handle_batch(frames)
        else:
            requests = [self.frame_requests.get(id(f), "?") for f in frames]
            with self.recorder.span(
                "gateway.batch",
                request=f"batch-{len(self.batches)}",
                root=True,
                size=len(frames),
                requests=",".join(requests),
            ):
                served = self.server.handle_batch(frames)
        epoch = self.server.plane.pin()
        self.batches.append(
            BatchRecord(
                start=start,
                end=self.clock(),
                frame_ids=[id(f) for f in frames],
                generation=epoch.source_generation,
                slices=epoch.slices,
                initial_s=[breakdown.initial_s for _, breakdown in served],
            )
        )
        return served
