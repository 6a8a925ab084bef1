"""Scheduler base classes.

Two families cover all seven Section-8 algorithms:

* :class:`StaticChunkScheduler` — the assignment of chunks to workers is
  fixed before execution (HoLM, ORROML, OMMOML);
* :class:`DemandChunkScheduler` — a shared chunk queue is drained by
  whichever enrolled worker frees up first (ODDOML, DDOML, BMM, OBMM).

Subclasses specify the memory layout through two hooks: ``chunk_param``
(the tile side µ or σ derived from a worker's memory) and
``generation_gap`` (2 when the layout reserves a spare A/B generation
for overlap, 1 otherwise), plus ``build_chunks`` for tile geometry.

Either family turns these decisions into a *plan* with ``agents``: one
:class:`~repro.engine.common.AgentSpec` per enrolled worker, which every
engine (DES, fast, model) consumes as is.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.blocks.shape import ProblemShape
from repro.engine.chunks import Chunk
from repro.engine.common import AgentSpec, ChunkQueue
from repro.platform.model import Platform

__all__ = ["ChunkScheduler", "StaticChunkScheduler", "DemandChunkScheduler"]


class ChunkScheduler(ABC):
    """Common scaffolding: layout hooks and chunk construction."""

    #: Human-readable algorithm name (the paper's acronym).
    name: str = "scheduler"
    #: 2 with a spare A/B buffer generation (overlap), 1 without.
    generation_gap: int = 2

    @abstractmethod
    def chunk_param(self, m: int) -> int:
        """Tile side (µ or σ) for a worker with ``m`` block buffers."""

    @abstractmethod
    def build_chunks(self, shape: ProblemShape, param: int) -> list[Chunk]:
        """Partition the problem into chunks for tile side ``param``."""

    def common_param(self, platform: Platform) -> int:
        """Single tile side for a homogeneous run (smallest worker rules)."""
        return self.chunk_param(min(wk.m for wk in platform.workers))

    @abstractmethod
    def agents(self, platform: Platform, shape: ProblemShape) -> list[AgentSpec]:
        """The run's plan: one agent per enrolled worker, in creation order.

        Each call builds a fresh plan (new chunk lists and queues).
        """


class StaticChunkScheduler(ChunkScheduler):
    """Chunks are pre-assigned; each worker runs its list in order."""

    @abstractmethod
    def assign(
        self, platform: Platform, shape: ProblemShape, chunks: list[Chunk]
    ) -> dict[int, list[Chunk]]:
        """Map 0-based worker index → ordered chunk list."""

    def agents(self, platform: Platform, shape: ProblemShape) -> list[AgentSpec]:
        param = self.common_param(platform)
        chunks = self.build_chunks(shape, param)
        assignment = self.assign(platform, shape, chunks)
        assigned = sum(len(v) for v in assignment.values())
        if assigned != len(chunks):
            raise RuntimeError(
                f"{self.name}: assigned {assigned} of {len(chunks)} chunks"
            )
        return [
            AgentSpec(widx, worker_chunks, self.generation_gap)
            for widx, worker_chunks in sorted(assignment.items())
            if worker_chunks
        ]


class DemandChunkScheduler(ChunkScheduler):
    """Chunks live in a shared queue drained by free workers."""

    def enrolled(self, platform: Platform, shape: ProblemShape) -> Sequence[int]:
        """0-based indices of the workers allowed to participate.

        The demand-driven algorithms of Section 8 enroll everyone;
        subclasses may restrict.
        """
        return range(platform.p)

    def agents(self, platform: Platform, shape: ProblemShape) -> list[AgentSpec]:
        param = self.common_param(platform)
        queue = ChunkQueue(self.build_chunks(shape, param))
        return [
            AgentSpec(widx, queue, self.generation_gap)
            for widx in self.enrolled(platform, shape)
        ]
