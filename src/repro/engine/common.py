"""Shared helpers of the engine backends.

The engines promise *byte-identical* observable behaviour — including
error messages — so the strings, validations and launch scaffolding
they share live here instead of being copied between
:mod:`repro.engine.engine`, :mod:`repro.engine.fast` and
:mod:`repro.engine.model`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.blocks.matrix import BlockMatrix
    from repro.blocks.shape import ProblemShape

__all__ = [
    "AgentSpec",
    "Launchpad",
    "bad_generation_gap",
    "memory_exceeded",
    "validate_block_data",
]


class AgentSpec:
    """What ``static_agent``/``demand_agent`` return instead of a generator
    on the engines that replace the DES kernel (fast and model)."""

    __slots__ = ("widx", "chunks", "queue", "gap")

    def __init__(self, widx, chunks, queue, gap):
        self.widx = widx
        self.chunks = chunks
        self.queue = queue
        self.gap = gap


class Launchpad:
    """Stand-in for ``Engine.env`` accepting agent descriptors only.

    A raw generator process raises ``unsupported`` (the engine's own
    exception class) with a message that begins with ``refusal``.
    """

    __slots__ = ("agents", "unsupported", "refusal")

    def __init__(self, unsupported: type, refusal: str):
        self.agents: list[AgentSpec] = []
        self.unsupported = unsupported
        self.refusal = refusal

    def process(self, agent, name: str = "") -> AgentSpec:
        if not isinstance(agent, AgentSpec):
            raise self.unsupported(
                f"{self.refusal} chunk agents "
                "(static_agent/demand_agent); got a raw process "
                f"{agent!r} — run with engine='des'"
            )
        self.agents.append(agent)
        return agent


def bad_generation_gap(gap: int) -> ValueError:
    """The error raised for a ``generation_gap`` other than 1 or 2."""
    return ValueError(f"generation_gap must be 1 or 2, got {gap}")


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
