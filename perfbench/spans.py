"""In-memory spans recorded around calls into the ``ris_rgsm`` modules.

The package is never edited: a :class:`Tracer` swaps a module attribute
(and every alias of it in other ``ris_rgsm`` modules) for a wrapper that
records a span, and puts the original back when tracing ends.  Spans stay in
memory and are written as JSON lines once the run is over.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A callable to wrap: ``owner`` is a module name, ``attr`` may be dotted
    (``Codebook.__init__``).  ``annotate(span, args, result)`` attaches counts."""

    owner: str
    attr: str
    span_name: str
    annotate: object = None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id, attrs)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, original, target: Target):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(target.span_name) as span:
                result = original(*args, **kwargs)
                if target.annotate is not None:
                    target.annotate(span, args, result)
                return result

        return traced

    def install(self, targets) -> None:
        """Wrap every target that exists; record the names of those that do not."""
        for target in targets:
            owner = sys.modules.get(target.owner)
            *path, leaf = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.add(f"{target.owner}.{target.attr}")
                continue
            wrapped = self._wrapper(original, target)
            if path:  # a method: patch the class only
                aliases = [owner]
            else:  # a function: patch every module that imported it by name
                aliases = [
                    mod
                    for name, mod in list(sys.modules.items())
                    if name.startswith("ris_rgsm") and getattr(mod, leaf, None) is original
                ]
            for alias in aliases:
                self._patches.append((alias, leaf, original))
                setattr(alias, leaf, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    # -- queries -------------------------------------------------------------------

    def under(self, root_name: str) -> list[Span]:
        """Every span that descends from a span named ``root_name``."""
        inside: set[int] = set()
        out = []
        for span in self.spans:  # parents are always recorded before children
            if span.name == root_name or span.parent in inside:
                inside.add(span.span_id)
                if span.name != root_name:
                    out.append(span)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of its interval its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.span_id] = span.duration - covered
        return out

    def write(self, path, header: dict) -> None:
        self_time = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "run_id": span.run_id,
                            "self_s": self_time[span.span_id],
                            **({"attrs": span.attrs} if span.attrs else {}),
                        }
                    )
                    + "\n"
                )
