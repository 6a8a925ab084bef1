"""Chunks and phases: the work units the master hands to workers.

A **chunk** is a rectangular tile of C blocks (``row_range ×
col_range``) assigned to one worker: the worker receives the tile,
applies every inner-dimension update to it, and returns it.  A **phase**
is one delivery-plus-update step within a chunk, covering a contiguous
range of the inner dimension ``k``:

* the paper's optimized layout uses tiles of side µ and *single-k*
  phases (µ A blocks + µ B blocks enable µ² updates);
* Toledo's BMM layout uses tiles of side σ = ``floor(sqrt(m/3))`` and
  σ-wide phases (σ² A blocks + σ² B blocks enable σ³ updates).

Ranges are half-open 0-based ``(start, stop)`` over block indices, so
numeric execution reduces to contiguous numpy slice updates
``C[r0:r1, c0:c1] += A[r0:r1, k0:k1] @ B[k0:k1, c0:c1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from repro.blocks.shape import ProblemShape

__all__ = [
    "Phase", "Chunk", "tile_grid", "tile_chunks", "toledo_chunks",
    "check_chunk_cover",
]


class Phase(NamedTuple):
    """One delivery-plus-update step of a chunk.

    A ``NamedTuple``: layouts materialise one ``Phase`` per inner-k step
    of every distinct tile shape (chunks of one shape share the tuple),
    so construction cost and per-field access in the engines' inner
    loops both matter.  Phases, like chunks, are never mutated.

    Attributes:
        k_range: half-open block range of the inner dimension covered.
        a_blocks: A blocks delivered (= phase rows × k width).
        b_blocks: B blocks delivered (= k width × chunk cols).
        updates: block updates enabled (= phase rows × cols × k width).
        row_range: optional half-open row sub-range when the phase
            updates only part of the chunk's rows (used by the
            fine-grained maximum re-use streaming); ``None`` means the
            chunk's full row range.
    """

    k_range: tuple[int, int]
    a_blocks: int
    b_blocks: int
    updates: int
    row_range: tuple[int, int] | None = None

    @property
    def in_blocks(self) -> int:
        """Total blocks shipped to the worker for this phase."""
        return self.a_blocks + self.b_blocks


@dataclass(frozen=True)
class Chunk:
    """A tile of C assigned to one worker, with its phase decomposition.

    Chunks are immutable after construction, so the derived totals and
    per-phase labels below are ``cached_property``s: scheduler inner
    loops (min-min cost estimates, the engines' transfer bookkeeping)
    read them once per chunk instead of re-summing per access.

    Attributes:
        row_range: half-open block-row range of the C tile.
        col_range: half-open block-column range of the C tile.
        phases: the ordered phases covering the full inner dimension.
    """

    row_range: tuple[int, int]
    col_range: tuple[int, int]
    phases: tuple[Phase, ...]

    @property
    def rows(self) -> int:
        """Tile height in blocks."""
        return self.row_range[1] - self.row_range[0]

    @property
    def cols(self) -> int:
        """Tile width in blocks."""
        return self.col_range[1] - self.col_range[0]

    @cached_property
    def c_blocks(self) -> int:
        """Number of C blocks in the tile."""
        return self.rows * self.cols

    @cached_property
    def updates(self) -> int:
        """Total block updates over all phases."""
        return sum(map(_get_updates, self.phases))

    @cached_property
    def comm_blocks(self) -> int:
        """Total blocks moved for this chunk: C in + A/B in + C out."""
        return 2 * self.c_blocks + sum(
            map(_get_a, self.phases)
        ) + sum(map(_get_b, self.phases))

    @cached_property
    def ab_labels(self) -> tuple[str, ...]:
        """Per-phase labels of the A/B delivery transfers."""
        memo = _AB_LABELS
        labels = []
        for ph in self.phases:
            kr = ph.k_range
            label = memo.get(kr)
            if label is None:
                label = memo[kr] = f"AB[{kr[0]}:{kr[1]})"
            labels.append(label)
        return tuple(labels)

    @cached_property
    def upd_labels(self) -> tuple[str, ...]:
        """Per-phase labels of the compute intervals."""
        memo = _UPD_LABELS
        labels = []
        for ph in self.phases:
            kr = ph.k_range
            label = memo.get(kr)
            if label is None:
                label = memo[kr] = f"upd[{kr[0]}:{kr[1]})"
            labels.append(label)
        return tuple(labels)


#: Interned label strings, shared across every chunk touching the same
#: inner-k range (tiles of one problem all stream the same k sequence).
_AB_LABELS: dict[tuple[int, int], str] = {}
_UPD_LABELS: dict[tuple[int, int], str] = {}

#: C-level field extractors over the Phase tuples.
_get_a, _get_b, _get_updates = itemgetter(1), itemgetter(2), itemgetter(3)


def _ranges(lo: int, hi: int, width: int) -> list[tuple[int, int]]:
    """Split ``lo..hi`` into half-open ranges of at most ``width``."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return [(a, min(a + width, hi)) for a in range(lo, hi, width)]


def tile_grid(
    r: int, col_span: tuple[int, int], t: int, tile: int, k_width: int
) -> list[Chunk]:
    """Tiles of side ``tile`` over every row and the columns ``col_span``,
    column-panel-major, each streaming ``k_width``-wide phases over
    ``0..t``.

    Every tile of one ``(rows, cols)`` shape streams the same phases, so
    each shape's phase tuple is built once and shared by all its chunks:
    at most four per build (interior, right edge, bottom edge, corner).
    """
    k_widths = [(kr, kr[1] - kr[0]) for kr in _ranges(0, t, k_width)]
    streams: dict[tuple[int, int], tuple[Phase, ...]] = {}
    tnew = tuple.__new__
    chunks: list[Chunk] = []
    for col_range in _ranges(*col_span, tile):
        cols = col_range[1] - col_range[0]
        for row_range in _ranges(0, r, tile):
            rows = row_range[1] - row_range[0]
            phases = streams.get((rows, cols))
            if phases is None:
                rc = rows * cols
                # tuple.__new__ bypasses the generated NamedTuple __new__.
                phases = streams[rows, cols] = tuple(
                    tnew(Phase, (kr, rows * dk, dk * cols, rc * dk, None))
                    for kr, dk in k_widths
                )
            chunks.append(Chunk(row_range, col_range, phases))
    return chunks


@lru_cache(maxsize=32)
def _build_chunks_cached(
    r: int, s: int, t: int, tile: int, k_width: int
) -> tuple[Chunk, ...]:
    return tuple(tile_grid(r, (0, s), t, tile, k_width))


def _build_chunks(shape: ProblemShape, tile: int, k_width: int) -> list[Chunk]:
    # Memoized on the grid geometry: within one experiment sweep many
    # (workload, algorithm) points share a tiling (e.g. every overlap-
    # layout algorithm at the same memory size), and chunks are
    # immutable, so they are built once.  A fresh list is returned so
    # callers may reorder/slice freely.
    return list(_build_chunks_cached(shape.r, shape.s, shape.t, tile, k_width))


def tile_chunks(shape: ProblemShape, mu: int) -> list[Chunk]:
    """µ×µ tiles with single-k phases — the paper's optimized layout.

    Tiles are emitted column-panel-major (all row tiles of a column
    panel before the next panel), matching Algorithm 1's loop order.
    Edge tiles are ragged when ``r`` or ``s`` is not divisible by µ.
    """
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    return _build_chunks(shape, tile=mu, k_width=1)


def toledo_chunks(shape: ProblemShape, sigma: int) -> list[Chunk]:
    """σ×σ tiles with σ-wide phases — Toledo's BMM memory layout."""
    if sigma < 1:
        raise ValueError(f"sigma must be >= 1, got {sigma}")
    return _build_chunks(shape, tile=sigma, k_width=sigma)


def check_chunk_cover(shape: ProblemShape, chunks: Sequence[Chunk]) -> None:
    """Validate that ``chunks`` tile the C grid exactly once and cover
    the full inner dimension.  Raises ``ValueError`` on any violation.
    """
    seen: set[tuple[int, int]] = set()
    for ch in chunks:
        expected = ch.rows * ch.cols * shape.t
        if ch.updates != expected:
            raise ValueError(
                f"chunk {ch.row_range}x{ch.col_range} performs {ch.updates} "
                f"updates, expected {expected}"
            )
        for i in range(*ch.row_range):
            for j in range(*ch.col_range):
                if (i, j) in seen:
                    raise ValueError(f"C block ({i},{j}) covered twice")
                seen.add((i, j))
    if len(seen) != shape.r * shape.s:
        raise ValueError(
            f"chunks cover {len(seen)} C blocks, expected {shape.r * shape.s}"
        )
