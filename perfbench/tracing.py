"""In-memory span recording and the arithmetic the per-layer metrics use.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
returns a wrapper that times one call into a layer's public function and
remembers which enclosing span caused it.  Nothing inside the program is
instrumented.  This module imports nothing from the program, so its
arithmetic is tested on synthetic spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set


@dataclass
class Span:
    """One timed call.

    ``parent`` is the index of the span that caused it (-1 for a root);
    every span of one job therefore leads back to the same root.
    ``outcome`` is what the wrapper's ``classify`` made of the result.
    """

    name: str
    start: float
    end: float
    parent: int
    outcome: Optional[str] = None


class Tracer:
    """Records nested spans in memory; nothing is written until the end."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        func: Callable,
        classify: Optional[Callable[[object], str]] = None,
    ) -> Callable:
        """Return ``func`` wrapped in a span called ``name``.

        ``classify`` maps a call's result to the span's ``outcome``, so an
        outcome (for example an engaged or declined attach) is recorded
        where it occurs.
        """
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, clock(), 0.0, stack[-1] if stack else -1))
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if classify is not None:
                spans[index].outcome = classify(result)
            return result

        return traced


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time of every span name."""
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


def durations(spans: Sequence[Span], name: str) -> List[float]:
    """Durations of the spans called ``name``, in recording order."""
    return [span.end - span.start for span in spans if span.name == name]


def roots_with(
    spans: Sequence[Span], name: str, outcome: Optional[str] = None
) -> Set[int]:
    """Indices of the root spans that caused a ``name`` span (of ``outcome``)."""
    roots = set()
    for index, span in enumerate(spans):
        if span.name != name or (outcome is not None and span.outcome != outcome):
            continue
        while spans[index].parent >= 0:
            index = spans[index].parent
        roots.add(index)
    return roots


#: A reported tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10


def tail_percentile(n: int) -> int:
    """Highest whole percentile (50..99) with ``TAIL_SAMPLES`` samples beyond it.

    Under the nearest-rank rule the ``p``-th percentile of ``n`` samples is
    the ``ceil(p * n / 100)``-th smallest, so ``n - ceil(p * n / 100)``
    samples lie beyond it.  150 samples give p93, 84 give p88 and 20 give
    only the median.
    """
    for p in range(99, 49, -1):
        if n - (-(-p * n // 100)) >= TAIL_SAMPLES:
            return p
    raise ValueError(
        f"{n} samples leave fewer than {TAIL_SAMPLES} beyond even the median"
    )


def percentile(samples: Sequence[float], p: int) -> float:
    """Nearest-rank ``p``-th percentile of ``samples``."""
    ordered = sorted(samples)
    rank = -(-p * len(ordered) // 100)
    return ordered[rank - 1]
