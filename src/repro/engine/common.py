"""Shared helpers of the engine backends.

The engines promise *byte-identical* observable behaviour — including
error messages — so the plan types, strings and validations they share
live here instead of being copied between :mod:`repro.engine.engine`,
:mod:`repro.engine.fast` and :mod:`repro.engine.model`.

A scheduler's *plan* is an ordered list of :class:`AgentSpec`: one per
enrolled worker, each holding either the worker's fixed chunk stream
or a place on a shared demand-driven :class:`ChunkQueue`, plus its
buffer-generation gap.  Every engine consumes the same plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blocks.matrix import BlockMatrix
    from repro.blocks.shape import ProblemShape
    from repro.engine.chunks import Chunk
    from repro.platform.model import Platform
    from repro.scenarios.model import Scenario

__all__ = [
    "AgentSpec",
    "ChunkQueue",
    "bad_generation_gap",
    "check_scenario_platform",
    "memory_exceeded",
    "validate_block_data",
]


class ChunkQueue:
    """Shared FIFO of chunks for demand-driven dispatch."""

    def __init__(self, chunks: Iterable[Chunk]):
        self._chunks = list(chunks)
        self._next = 0

    def pop(self) -> Optional[Chunk]:
        """Next chunk, or ``None`` when exhausted."""
        if self._next >= len(self._chunks):
            return None
        chunk = self._chunks[self._next]
        self._next += 1
        return chunk

    def __len__(self) -> int:
        return len(self._chunks) - self._next

    def pending(self) -> list[Chunk]:
        """The chunks not yet popped, in queue order; the queue is unchanged."""
        return self._chunks[self._next:]

    def drain(self) -> Iterator[Chunk]:
        """Take every chunk not yet popped, as one iterator, in queue order."""
        rest = self.pending()
        self._next = len(self._chunks)
        return iter(rest)


class AgentSpec:
    """One worker's part of a plan.

    ``work`` is either the worker's fixed chunk list, processed in
    order (kept as :attr:`chunks`), or a :class:`ChunkQueue` shared
    with the other demand-driven agents (kept as :attr:`queue`).
    ``gap`` is 2 for layouts with a spare A/B buffer generation and 1
    otherwise; any other value raises :func:`bad_generation_gap`.
    """

    __slots__ = ("widx", "chunks", "queue", "gap")

    def __init__(self, widx: int, work: Union[Sequence[Chunk], ChunkQueue], gap: int):
        if gap not in (1, 2):
            raise bad_generation_gap(gap)
        self.widx = widx
        self.gap = gap
        if isinstance(work, ChunkQueue):
            self.chunks, self.queue = None, work
        else:
            self.chunks, self.queue = list(work), None

def bad_generation_gap(gap: int) -> ValueError:
    """The error raised for a ``generation_gap`` other than 1 or 2."""
    return ValueError(f"generation_gap must be 1 or 2, got {gap}")


def check_scenario_platform(
    scenario: "Optional[Scenario]", platform: "Platform"
) -> None:
    """Reject a ``scenario`` that wraps a platform other than ``platform``."""
    if scenario is not None and scenario.platform != platform:
        raise ValueError(
            f"scenario {scenario.name!r} wraps platform "
            f"{scenario.platform.name!r}, not {platform.name!r}"
        )


def memory_exceeded(widx: int, used: int, cap: int, now: float) -> RuntimeError:
    """The error raised when worker ``widx`` (0-based) overruns ``m_i``."""
    return RuntimeError(
        f"worker P{widx + 1} memory exceeded: "
        f"{used} > {cap} blocks at t={now:g}"
    )


def validate_block_data(
    data: "tuple[BlockMatrix, BlockMatrix, BlockMatrix]",
    shape: "ProblemShape",
) -> None:
    """Check that attached ``(A, B, C)`` matrices match ``shape``'s grids."""
    a, b, c = data
    if a.block_shape != (shape.r, shape.t):
        raise ValueError(f"A grid {a.block_shape} != ({shape.r},{shape.t})")
    if b.block_shape != (shape.t, shape.s):
        raise ValueError(f"B grid {b.block_shape} != ({shape.t},{shape.s})")
    if c.block_shape != (shape.r, shape.s):
        raise ValueError(f"C grid {c.block_shape} != ({shape.r},{shape.s})")
