"""HoLM and ORROML — the static round-robin algorithms.

**HoLM** is the paper's homogeneous algorithm (Algorithms 1 and 2): the
overlap layout (``µ² + 4µ ≤ m``), *resource selection*
(``P = min(p, ceil(µw/2c))``, with the small-matrix ν fallback), and
round-robin distribution of µ-wide C column panels over the enrolled
workers.

**ORROML** ("Overlapped Round-Robin, Optimized Memory Layout") is
identical except that it skips resource selection and spreads work over
all available workers.
"""

from __future__ import annotations

from repro.blocks.shape import ProblemShape
from repro.core.homogeneous import plan_homogeneous
from repro.core.layout import mu_overlap
from repro.engine.chunks import Chunk, tile_chunks
from repro.engine.common import AgentSpec
from repro.platform.model import Platform
from repro.schedulers.base import StaticChunkScheduler

__all__ = ["HoLM", "ORROML"]


class HoLM(StaticChunkScheduler):
    """The paper's homogeneous algorithm with resource selection."""

    name = "HoLM"
    generation_gap = 2

    def __init__(self) -> None:
        self._plan_workers: int | None = None

    def chunk_param(self, m: int) -> int:
        return mu_overlap(m)

    def build_chunks(self, shape: ProblemShape, param: int) -> list[Chunk]:
        return tile_chunks(shape, param)

    def common_param(self, platform: Platform) -> int:
        # The µ (possibly shrunk to ν for small matrices) is decided by
        # the Section 5 plan, computed in `assign`; default to overlap µ.
        return self._param

    def agents(self, platform: Platform, shape: ProblemShape) -> list[AgentSpec]:
        plan = plan_homogeneous(platform, shape)
        self._param = plan.mu
        self._plan_workers = plan.workers
        return super().agents(platform, shape)

    def enrolled_count(self, platform: Platform, shape: ProblemShape) -> int:
        """Number of workers HoLM enrolls for this run."""
        return plan_homogeneous(platform, shape).workers

    def assign(
        self, platform: Platform, shape: ProblemShape, chunks: list[Chunk]
    ) -> dict[int, list[Chunk]]:
        workers = self._plan_workers or platform.p
        assignment: dict[int, list[Chunk]] = {w: [] for w in range(workers)}
        # Chunks are emitted column-panel-major; deal panels round-robin so
        # each enrolled worker owns whole µ-wide column panels (Algorithm 1).
        panels: dict[tuple[int, int], list[Chunk]] = {}
        for chunk in chunks:
            panels.setdefault(chunk.col_range, []).append(chunk)
        if len(panels) >= workers:
            for pidx, (_cols, panel) in enumerate(sorted(panels.items())):
                assignment[pidx % workers].extend(panel)
        else:
            # Fewer µ-wide panels than enrolled workers (the paper assumes
            # s divisible by Pµ "for simplicity"; real shapes are not):
            # deal individual tiles round-robin so nobody is stranded.
            for cidx, chunk in enumerate(chunks):
                assignment[cidx % workers].append(chunk)
        return assignment


class ORROML(HoLM):
    """Overlapped Round-Robin: HoLM without resource selection."""

    name = "ORROML"

    def agents(self, platform: Platform, shape: ProblemShape) -> list[AgentSpec]:
        plan = plan_homogeneous(platform, shape)
        self._param = plan.mu
        self._plan_workers = platform.p  # enroll everyone
        return StaticChunkScheduler.agents(self, platform, shape)
