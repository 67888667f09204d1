"""A small in-memory span recorder, used only by the traced run.

A span is ``(id, parent, name, op, cls, start_ns, end_ns)``: ``op``
groups every span of one benchmark operation, ``cls`` is the
operation's statement class. Spans are recorded from *outside* the
program, around calls into its public functions; they stay in memory
and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Dict, Iterable, List, Optional


class Span:
    __slots__ = ("recorder", "id", "parent", "name", "op", "cls", "start", "end")

    def __init__(self, recorder, span_id, parent, name, op, cls):
        self.recorder = recorder
        self.id = span_id
        self.parent = parent
        self.name = name
        self.op = op
        self.cls = cls
        self.start = 0
        self.end = 0

    def __enter__(self) -> "Span":
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter_ns()
        return False

    def child(self, name: str) -> "Span":
        return self.recorder.span(name, parent=self)

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    def to_json(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "op": self.op,
            "cls": self.cls,
            "start_ns": self.start,
            "end_ns": self.end,
        }


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []

    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        op: Optional[int] = None,
        cls: Optional[str] = None,
    ) -> Span:
        """A new span; a child inherits its parent's ``op`` and ``cls``."""
        if parent is not None:
            op, cls = parent.op, parent.cls
        span = Span(
            self, len(self.spans), parent.id if parent else None, name, op, cls
        )
        self.spans.append(span)
        return span

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


def load_jsonl(path: str) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times_ns(spans: Iterable[Dict[str, object]]) -> Dict[int, int]:
    """Self time per span id: its duration minus the part of its
    interval that its children cover (children are sequential here, so
    their clipped durations add)."""
    spans = list(spans)
    out = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        covered = min(s["end_ns"], parent["end_ns"]) - max(
            s["start_ns"], parent["start_ns"]
        )
        out[parent["id"]] -= max(covered, 0)
    return out
