"""The maximum re-use algorithm (Section 4.1) as an executable scheduler.

Single-worker, memory split ``1 + µ + µ²``: one A buffer, a row of µ B
buffers, a µ×µ resident C tile.  The outer loop walks C tiles; the
inner loop walks the inner dimension, shipping a row of µ B blocks and
then the µ A blocks one at a time, each A block updating a row of the
C tile.

Within the engine's accounting this is a chunk scheduler whose phases
are *sub-k*: for every k there is one µ-B-block delivery phase (zero
updates) followed by µ single-A-block phases of µ updates each.  With
no spare buffers the generation gap is 1.  The achieved CCR is
``2/t + 2/µ`` (Section 4.2), asymptotically within √(32/27) ≈ 1.09 of
the lower bound ``sqrt(27/(8m))``.

Chunks are memoized on ``(r, s, t, µ)`` like the tile layouts of
:mod:`repro.engine.chunks`, and tiles of one row band and width share
one phase tuple; neither is ever mutated.
"""

from __future__ import annotations

from functools import lru_cache

from repro.blocks.shape import ProblemShape
from repro.core.layout import max_reuse_mu
from repro.engine.chunks import Chunk, Phase
from repro.schedulers.base import StaticChunkScheduler

__all__ = ["MaxReuse"]


@lru_cache(maxsize=32)
def _max_reuse_chunks(r: int, s: int, t: int, mu: int) -> tuple[Chunk, ...]:
    """µ×µ tiles, column-panel-major, with the sub-k phase stream above.

    The phases depend on the tile's row band and width only, so each
    distinct ``(r0, r1, cols)`` stream is built once and shared.
    """
    streams: dict[tuple[int, int, int], tuple[Phase, ...]] = {}
    tnew = tuple.__new__
    chunks: list[Chunk] = []
    for c0 in range(0, s, mu):
        c1 = min(c0 + mu, s)
        cols = c1 - c0
        for r0 in range(0, r, mu):
            r1 = min(r0 + mu, r)
            phases = streams.get((r0, r1, cols))
            if phases is None:
                phases = streams[r0, r1, cols] = tuple(
                    tnew(Phase, (
                        (k, k + 1), 1, cols if row == r0 else 0, cols,
                        (row, row + 1),
                    ))
                    for k in range(t)
                    for row in range(r0, r1)
                )
            chunks.append(Chunk((r0, r1), (c0, c1), phases))
    return tuple(chunks)


class MaxReuse(StaticChunkScheduler):
    """Single-worker maximum re-use scheduler.

    A/B streaming is modelled at row granularity: for each k the first
    sub-phase ships the µ-block B row together with the first A block
    (updating the tile's first row), and each further sub-phase ships
    one more A block (updating one more row).  Peak buffer usage is thus
    exactly ``µ² + µ + 1`` blocks — the Section 4.1 layout.
    """

    name = "MaxReuse"
    generation_gap = 1

    def chunk_param(self, m: int) -> int:
        return max_reuse_mu(m)

    def build_chunks(self, shape: ProblemShape, param: int) -> list[Chunk]:
        if param < 1:
            raise ValueError(f"mu must be >= 1, got {param}")
        # A fresh list over the memoized, never-mutated chunks.
        return list(_max_reuse_chunks(shape.r, shape.s, shape.t, param))

    def assign(self, platform, shape, chunks):  # type: ignore[override]
        if platform.p != 1:
            raise ValueError("MaxReuse is the single-worker algorithm (p=1)")
        return {0: chunks}
