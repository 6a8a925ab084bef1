"""Heterogeneous execution — phase 2 of the Section 6.2 approach.

The two-phase design of the paper: *phase 1* runs an incremental
selection algorithm (global, local, or lookahead — see
:mod:`repro.core.heterogeneous`) to decide how many full µ_i-wide C
column panels each worker will own; *phase 2* executes, each worker
processing its panels chunk by chunk (µ_i×µ_i C tiles, single-k phases)
with the overlap layout, all transfers contending for the one port.

The per-worker panel widths differ (µ_i depends on each worker's
memory), which is exactly why the paper assigns "only full matrix
column blocks" — this module reproduces that columnwise partition.
"""

from __future__ import annotations

import math
from typing import Literal

from repro.blocks.shape import ProblemShape
from repro.core.heterogeneous import (
    SelectionResult,
    chunk_sizes,
    global_selection,
    local_selection,
    lookahead_selection,
)
from repro.engine.chunks import tile_grid
from repro.engine.common import AgentSpec
from repro.platform.model import Platform

__all__ = ["HeteroIncremental", "allocate_columns"]

Variant = Literal["global", "local", "lookahead"]


def allocate_columns(
    platform: Platform, shape: ProblemShape, selection: SelectionResult
) -> list[int]:
    """Turn a selection result into an exact per-worker column count.

    The selection's ``columns_per_worker`` may overshoot ``s`` (the last
    allocation round can run past the target); this clips the totals to
    exactly ``s`` columns, trimming the overshoot from the least
    work-efficient enrolled workers (highest ``2c_i/µ_i`` first) and
    topping up from the most efficient ones if the selection fell short.
    """
    mus = chunk_sizes(platform)
    cols = list(selection.columns_per_worker)
    total = sum(cols)
    order = sorted(
        range(platform.p), key=lambda i: 2.0 * platform.workers[i].c / mus[i]
    )
    # Trim overshoot from least efficient enrolled workers.
    for i in reversed(order):
        if total <= shape.s:
            break
        trim = min(cols[i], total - shape.s)
        cols[i] -= trim
        total -= trim
    # Top up any shortfall on the most efficient workers.
    for i in order:
        if total >= shape.s:
            break
        add = shape.s - total
        cols[i] += add
        total += add
    assert sum(cols) == shape.s
    return cols


class HeteroIncremental:
    """Executable scheduler following an incremental selection.

    Args:
        variant: which phase-1 algorithm decides the allocation —
            ``"global"`` (Algorithm 3), ``"local"``, or ``"lookahead"``.
        depth: lookahead depth (used only by the lookahead variant).
    """

    generation_gap = 2

    def __init__(self, variant: Variant = "global", depth: int = 2):
        if variant not in ("global", "local", "lookahead"):
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.depth = depth
        self.name = f"HeteroLM[{variant}]"
        self.last_selection: SelectionResult | None = None

    def select(self, platform: Platform, shape: ProblemShape) -> SelectionResult:
        """Run phase 1 and cache the result."""
        args = (platform, shape.r, shape.s, shape.t)
        if self.variant == "global":
            sel = global_selection(*args)
        elif self.variant == "local":
            sel = local_selection(*args)
        else:
            sel = lookahead_selection(*args, depth=self.depth)
        self.last_selection = sel
        return sel

    def agents(self, platform: Platform, shape: ProblemShape) -> list[AgentSpec]:
        """One static agent per enrolled worker."""
        selection = self.select(platform, shape)
        cols = allocate_columns(platform, shape, selection)
        mus = chunk_sizes(platform)
        plan = []
        col_start = 0
        for widx in range(platform.p):
            if cols[widx] == 0:
                continue
            col_span = (col_start, col_start + cols[widx])
            col_start = col_span[1]
            # µ_i×µ_i tiles with single-k phases over the worker's columns.
            chunks = tile_grid(shape.r, col_span, shape.t, mus[widx], 1)
            plan.append(AgentSpec(widx, chunks, self.generation_gap))
        return plan
