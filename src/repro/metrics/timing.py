"""Timing harness for the scalability experiments (Tables II and III).

The paper reports wall-clock processing time of the edge device as the
number of served users grows.  This harness measures our implementation
the same way: run a callable over a user workload, repeat, and report the
per-size timings so the benches can print paper-style rows.

Beyond the scaling rows this module also defines the shared timing
records used across the perf infrastructure: :class:`ChunkTiming` is the
per-chunk wall-clock record that :func:`repro.parallel.parallel_map`
emits for every fan-out chunk, and :func:`summarize_chunks` reduces a
chunk list to the aggregate stats the benchmark JSON archives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

__all__ = [
    "TimingRow",
    "measure_scaling",
    "Stopwatch",
    "ChunkTiming",
    "summarize_chunks",
]


class Stopwatch:
    """Minimal context-manager stopwatch (monotonic clock)."""

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


@dataclass(frozen=True)
class TimingRow:
    """One (workload size, seconds) measurement.

    ``seconds`` is the best-of-N wall clock (the algorithmic cost);
    ``mean``/``std`` summarise the same repeats so noisy hosts are
    detectable from the reports.  Single-repeat rows have ``std == 0``.
    """

    size: int
    seconds: float
    mean: float = float("nan")
    std: float = float("nan")

    def __post_init__(self) -> None:
        # Default mean to the single measurement for 2-arg construction.
        if math.isnan(self.mean):
            object.__setattr__(self, "mean", self.seconds)
        if math.isnan(self.std):
            object.__setattr__(self, "std", 0.0)

    @property
    def per_item_ms(self) -> float:
        """Average milliseconds per processed item."""
        return 1_000.0 * self.seconds / self.size if self.size else 0.0


@dataclass(frozen=True)
class ChunkTiming:
    """Wall-clock of one parallel fan-out chunk (see ``repro.parallel``)."""

    index: int
    size: int
    seconds: float


def summarize_chunks(chunks: Sequence[ChunkTiming]) -> Dict[str, float]:
    """Aggregate per-chunk timings into the stats the bench JSON records."""
    if not chunks:
        return {"chunks": 0, "total_seconds": 0.0, "max_seconds": 0.0, "mean_seconds": 0.0}
    seconds = [c.seconds for c in chunks]
    return {
        "chunks": len(chunks),
        "total_seconds": float(sum(seconds)),
        "max_seconds": float(max(seconds)),
        "mean_seconds": float(sum(seconds) / len(seconds)),
    }


def measure_scaling(
    workload: Callable[[int], None],
    sizes: Sequence[int],
    repeats: int = 1,
    warmup: int = 0,
) -> List[TimingRow]:
    """Time ``workload(size)`` for each size, keeping the best of ``repeats``.

    Best-of-N is the standard way to suppress scheduler noise when the
    quantity of interest is the algorithmic cost; ``mean``/``std`` over
    the same repeats are reported alongside.  ``warmup`` extra unmeasured
    passes per size absorb first-call effects (allocator growth, numpy
    internals, imports resolving lazily) that otherwise dominate the
    smallest workload sizes.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    rows: List[TimingRow] = []
    for size in sizes:
        if size < 1:
            raise ValueError(f"workload sizes must be positive, got {size}")
        for _ in range(warmup):
            workload(size)
        samples: List[float] = []
        for _ in range(repeats):
            with Stopwatch() as sw:
                workload(size)
            samples.append(sw.elapsed)
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        rows.append(
            TimingRow(
                size=size,
                seconds=min(samples),
                mean=mean,
                std=math.sqrt(var),
            )
        )
    return rows
