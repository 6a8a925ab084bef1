"""OMMOML — Overlapped Min-Min with the optimized memory layout.

A static heuristic: chunks are considered in order and each is assigned
to the worker predicted to *complete* it first, given everything
assigned so far.  Predictions use the same linear cost model as the
engine: a chunk occupies the master port for its input blocks and the
worker's CPU for its updates; a worker's next chunk cannot start
computing before its previous one finished.

Because the estimate charges the full port time for every delivery, the
heuristic keeps re-selecting the first worker(s) until they are
genuinely saturated — which is exactly why the paper observes OMMOML
"performs some resource selection too" (it used only two workers in the
experiments) and pays for it with a longer makespan.
"""

from __future__ import annotations

from repro.blocks.shape import ProblemShape
from repro.core.layout import mu_overlap
from repro.engine.chunks import Chunk, tile_chunks
from repro.platform.model import Platform
from repro.schedulers.base import StaticChunkScheduler

__all__ = ["OMMOML"]


class OMMOML(StaticChunkScheduler):
    """Static min-min (earliest completion time) chunk assignment."""

    name = "OMMOML"
    generation_gap = 2

    def chunk_param(self, m: int) -> int:
        return mu_overlap(m)

    def build_chunks(self, shape: ProblemShape, param: int) -> list[Chunk]:
        return tile_chunks(shape, param)

    def assign(
        self, platform: Platform, shape: ProblemShape, chunks: list[Chunk]
    ) -> dict[int, list[Chunk]]:
        p = platform.p
        assignment: dict[int, list[Chunk]] = {w: [] for w in range(p)}
        port_free = 0.0
        worker_free = [0.0] * p
        cs = [wk.c for wk in platform.workers]
        ws = [wk.w for wk in platform.workers]
        for chunk in chunks:
            comm_blocks = chunk.comm_blocks
            updates = chunk.updates
            best_widx, best_finish = 0, float("inf")
            for widx in range(p):
                arrive = port_free + comm_blocks * cs[widx]
                free = worker_free[widx]
                # ``max(arrive, free)`` without the call: the same float.
                finish = (free if free > arrive else arrive) + updates * ws[widx]
                if finish < best_finish - 1e-12:
                    best_widx, best_finish = widx, finish
            port_free += comm_blocks * cs[best_widx]
            worker_free[best_widx] = best_finish
            assignment[best_widx].append(chunk)
        return assignment
