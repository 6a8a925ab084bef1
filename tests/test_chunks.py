"""Tests for chunk/phase construction (repro.engine.chunks)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import ProblemShape, make_product_instance
from repro.core.heterogeneous import chunk_sizes
from repro.engine import run_scheduler
from repro.engine.chunks import (
    Chunk,
    Phase,
    _build_chunks_cached,
    check_chunk_cover,
    tile_chunks,
    toledo_chunks,
)
from repro.platform import Platform
from repro.schedulers import BMM, HoLM, MaxReuse, all_section8_schedulers
from repro.schedulers.hetero import HeteroIncremental, allocate_columns
from repro.schedulers.maxreuse import _max_reuse_chunks


def reference_tiles(r, cols, t, tile, k_width):
    """The plain tiling loop every tile builder must reproduce."""
    chunks = []
    for c0 in range(cols[0], cols[1], tile):
        c1 = min(c0 + tile, cols[1])
        for r0 in range(0, r, tile):
            r1 = min(r0 + tile, r)
            phases = []
            for k0 in range(0, t, k_width):
                dk = min(k0 + k_width, t) - k0
                phases.append(Phase(
                    (k0, k0 + dk), (r1 - r0) * dk, dk * (c1 - c0),
                    (r1 - r0) * (c1 - c0) * dk,
                ))
            chunks.append(Chunk((r0, r1), (c0, c1), tuple(phases)))
    return chunks


def reference_max_reuse(shape, mu):
    """The plain maximum re-use loop: sub-k phases, one row at a time."""
    chunks = []
    for c0 in range(0, shape.s, mu):
        c1 = min(c0 + mu, shape.s)
        for r0 in range(0, shape.r, mu):
            r1 = min(r0 + mu, shape.r)
            phases = [
                Phase((k, k + 1), 1, c1 - c0 if row == r0 else 0, c1 - c0,
                      (row, row + 1))
                for k in range(shape.t)
                for row in range(r0, r1)
            ]
            chunks.append(Chunk((r0, r1), (c0, c1), tuple(phases)))
    return chunks


#: Ragged r and s, t not divisible by σ, and r < µ.
SHAPES = [
    ProblemShape(r=4, s=6, t=3, q=2),
    ProblemShape(r=5, s=7, t=5, q=2),
    ProblemShape(r=7, s=3, t=7, q=2),
    ProblemShape(r=2, s=9, t=4, q=2),
]
HETERO = Platform.heterogeneous([0.3, 0.5, 0.4], [0.2, 0.3, 0.25], [21, 30, 45])


class TestPhase:
    def test_in_blocks(self):
        ph = Phase((0, 1), a_blocks=3, b_blocks=4, updates=12)
        assert ph.in_blocks == 7


class TestChunk:
    def test_geometry(self):
        ph = Phase((0, 2), 6, 8, 24)
        ch = Chunk((0, 3), (0, 4), (ph,))
        assert ch.rows == 3
        assert ch.cols == 4
        assert ch.c_blocks == 12
        assert ch.updates == 24
        assert ch.comm_blocks == 2 * 12 + 14


class TestTileChunks:
    def test_exact_tiling(self):
        shape = ProblemShape(r=4, s=6, t=3, q=2)
        chunks = tile_chunks(shape, mu=2)
        assert len(chunks) == 2 * 3
        check_chunk_cover(shape, chunks)
        for ch in chunks:
            assert len(ch.phases) == shape.t
            for ph in ch.phases:
                assert ph.a_blocks == 2 and ph.b_blocks == 2
                assert ph.updates == 4

    def test_ragged_tiling(self):
        shape = ProblemShape(r=5, s=7, t=2, q=2)
        chunks = tile_chunks(shape, mu=3)
        check_chunk_cover(shape, chunks)
        # 2 row groups (3+2) x 3 col groups (3+3+1).
        assert len(chunks) == 6
        sizes = sorted(ch.c_blocks for ch in chunks)
        assert sizes == [2, 3, 6, 6, 9, 9]

    def test_mu_larger_than_matrix(self):
        shape = ProblemShape(r=2, s=2, t=2, q=2)
        chunks = tile_chunks(shape, mu=10)
        assert len(chunks) == 1
        assert chunks[0].c_blocks == 4

    def test_column_panel_major_order(self):
        """All row tiles of a column panel precede the next panel
        (Algorithm 1's loop order)."""
        shape = ProblemShape(r=4, s=4, t=1, q=2)
        chunks = tile_chunks(shape, mu=2)
        cols = [ch.col_range for ch in chunks]
        assert cols == [(0, 2), (0, 2), (2, 4), (2, 4)]

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            tile_chunks(ProblemShape(r=2, s=2, t=1), mu=0)

    @given(
        r=st.integers(1, 12),
        s=st.integers(1, 12),
        t=st.integers(1, 6),
        mu=st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_cover_property(self, r, s, t, mu):
        shape = ProblemShape(r=r, s=s, t=t, q=2)
        chunks = tile_chunks(shape, mu)
        check_chunk_cover(shape, chunks)
        assert sum(ch.updates for ch in chunks) == shape.total_updates


class TestToledoChunks:
    def test_sigma_wide_phases(self):
        shape = ProblemShape(r=4, s=4, t=6, q=2)
        chunks = toledo_chunks(shape, sigma=2)
        check_chunk_cover(shape, chunks)
        for ch in chunks:
            assert len(ch.phases) == 3  # t=6 in sigma=2 groups
            for ph in ch.phases:
                assert ph.a_blocks == 4  # sigma x sigma tile of A
                assert ph.b_blocks == 4
                assert ph.updates == 8  # sigma^3

    def test_ragged_k(self):
        shape = ProblemShape(r=2, s=2, t=5, q=2)
        chunks = toledo_chunks(shape, sigma=2)
        check_chunk_cover(shape, chunks)
        widths = [ph.k_range[1] - ph.k_range[0] for ph in chunks[0].phases]
        assert widths == [2, 2, 1]

    @given(
        r=st.integers(1, 10),
        s=st.integers(1, 10),
        t=st.integers(1, 8),
        sigma=st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_cover_property(self, r, s, t, sigma):
        shape = ProblemShape(r=r, s=s, t=t, q=2)
        chunks = toledo_chunks(shape, sigma)
        check_chunk_cover(shape, chunks)
        assert sum(ch.updates for ch in chunks) == shape.total_updates


class TestCheckChunkCover:
    def test_detects_double_cover(self):
        shape = ProblemShape(r=2, s=2, t=1, q=2)
        chunks = tile_chunks(shape, 2) + tile_chunks(shape, 2)
        with pytest.raises(ValueError, match="twice"):
            check_chunk_cover(shape, chunks)

    def test_detects_missing_blocks(self):
        shape = ProblemShape(r=2, s=2, t=1, q=2)
        chunks = tile_chunks(shape, 2)[:0]
        with pytest.raises(ValueError, match="cover"):
            check_chunk_cover(shape, chunks)

    def test_detects_wrong_update_count(self):
        shape = ProblemShape(r=2, s=2, t=2, q=2)
        bad = Chunk((0, 2), (0, 2), (Phase((0, 1), 2, 2, 4),))  # misses k=1
        with pytest.raises(ValueError, match="updates"):
            check_chunk_cover(shape, [bad])


def _plan_streams(plan):
    """A plan as data: ``(widx, gap, work)`` per agent, where ``work`` is
    a static agent's chunk list or the ordinal of its shared queue,
    plus each distinct queue's chunks, drained once."""
    streams, queues = [], []
    for spec in plan:
        if spec.queue is None:
            streams.append((spec.widx, spec.gap, spec.chunks))
            continue
        ordinal = next(
            (i for i, (q, _) in enumerate(queues) if q is spec.queue), None
        )
        if ordinal is None:
            ordinal = len(queues)
            queues.append((spec.queue, list(spec.queue.drain())))
        streams.append((spec.widx, spec.gap, ordinal))
    return streams, [chunks for _, chunks in queues]


def _plan_cases():
    """``{id: (scheduler factory, platform)}`` for every in-tree scheduler."""
    platforms = {
        "homogeneous": Platform.homogeneous(3, c=0.3, w=0.2, m=21),
        "hetero": HETERO,
    }
    factories = [type(s) for s in all_section8_schedulers()] + [
        lambda variant=variant: HeteroIncremental(variant)
        for variant in ("global", "local", "lookahead")
    ]
    cases = {
        f"{make().name}/{pname}": (make, platform)
        for make in factories
        for pname, platform in platforms.items()
    }
    # MaxReuse is the single-worker algorithm.
    cases["MaxReuse/single"] = (MaxReuse, Platform.homogeneous(1, 0.3, 0.2, 21))
    return cases


PLAN_CASES = _plan_cases()


class TestPlanCoversProduct:
    """Every in-tree scheduler's plan computes the product exactly once."""

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize(
        "make, platform", PLAN_CASES.values(), ids=PLAN_CASES.keys()
    )
    def test_plan_covers_product_once(self, make, platform, shape):
        scheduler = make()
        streams, queues = _plan_streams(scheduler.agents(platform, shape))
        assert streams, "empty plan"
        chunks = [c for _, _, work in streams if isinstance(work, list) for c in work]
        for queue_chunks in queues:
            chunks += queue_chunks
        check_chunk_cover(shape, chunks)
        assert all(gap in (1, 2) for _, gap, _ in streams)
        assert all(0 <= widx < platform.p for widx, _, _ in streams)
        static = [widx for widx, _, work in streams if isinstance(work, list)]
        assert len(static) == len(set(static))
        # Schedulers keep per-plan state (HoLM's tile side): a second
        # plan from the same instance must repeat the first.
        assert _plan_streams(scheduler.agents(platform, shape)) == (streams, queues)


class TestBuildersMatchReference:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("side", [1, 2, 3, 4])
    def test_tile_and_toledo(self, shape, side):
        cols = (0, shape.s)
        assert tile_chunks(shape, side) == reference_tiles(
            shape.r, cols, shape.t, side, 1
        )
        assert toledo_chunks(shape, side) == reference_tiles(
            shape.r, cols, shape.t, side, side
        )

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_hetero_column_slices(self, shape):
        scheduler = HeteroIncremental("global")
        plan = scheduler.agents(HETERO, shape)
        cols = allocate_columns(HETERO, shape, scheduler.last_selection)
        mus = chunk_sizes(HETERO)
        expected, start = {}, 0
        for widx, n in enumerate(cols):
            if n:
                expected[widx] = reference_tiles(
                    shape.r, (start, start + n), shape.t, mus[widx], 1
                )
                start += n
        assert {spec.widx: spec.chunks for spec in plan} == expected
        assert all(spec.queue is None and spec.gap == 2 for spec in plan)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("mu", [1, 2, 3, 4])
    def test_max_reuse(self, shape, mu):
        assert MaxReuse().build_chunks(shape, mu) == reference_max_reuse(shape, mu)

    @pytest.mark.parametrize("mu", [0, -1])
    def test_max_reuse_rejects_bad_mu(self, mu):
        with pytest.raises(ValueError, match=f"mu must be >= 1, got {mu}"):
            MaxReuse().build_chunks(SHAPES[0], mu)


class TestPhaseSharing:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("side", [1, 2, 3, 4])
    @pytest.mark.parametrize("build", [tile_chunks, toledo_chunks])
    def test_one_phase_tuple_per_tile_shape(self, shape, side, build):
        chunks = build(shape, side)
        by_shape = {}
        for ch in chunks:
            assert by_shape.setdefault((ch.rows, ch.cols), ch.phases) is ch.phases
        assert len({id(ch.phases) for ch in chunks}) <= 4

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_max_reuse_shares_per_row_band(self, shape):
        chunks = MaxReuse().build_chunks(shape, 3)
        by_band = {}
        for ch in chunks:
            key = (ch.row_range, ch.cols)
            assert by_band.setdefault(key, ch.phases) is ch.phases
        assert len({id(ch.phases) for ch in chunks}) == len(by_band)


class TestSharedChunksStayIntact:
    """Memoized chunks are shared by every later build of the same
    geometry, so no engine or caller may change them."""

    def _check_caches(self, builds):
        for memo, args in builds:
            shared, fresh = memo(*args), memo.__wrapped__(*args)
            assert shared == fresh
            for a, b in zip(shared, fresh):
                assert (a.updates, a.comm_blocks, a.ab_labels, a.upd_labels) == (
                    b.updates, b.comm_blocks, b.ab_labels, b.upd_labels
                )

    def test_engines_do_not_mutate_shared_chunks(self):
        shape = ProblemShape(r=5, s=7, t=3, q=2)
        one = Platform.homogeneous(1, c=1.0, w=0.5, m=21)
        three = Platform.homogeneous(3, c=0.3, w=0.2, m=21)
        runs = [
            (MaxReuse, one), (HoLM, three), (BMM, three),
            (lambda: HeteroIncremental("global"), HETERO),
        ]
        for engine in ("fast", "des", "model"):
            for make, platform in runs:
                data = None
                if engine == "des":
                    data = make_product_instance(shape, seed=1)
                run_scheduler(make(), platform, shape, data=data, engine=engine)
        grid = (shape.r, shape.s, shape.t)
        mu, sigma = HoLM().chunk_param(21), BMM().chunk_param(21)
        self._check_caches([
            (_max_reuse_chunks, (*grid, MaxReuse().chunk_param(21))),
            (_build_chunks_cached, (*grid, mu, 1)),
            (_build_chunks_cached, (*grid, sigma, sigma)),
        ])

    @pytest.mark.parametrize(
        "build",
        [tile_chunks, toledo_chunks, MaxReuse().build_chunks],
        ids=["tile", "toledo", "maxreuse"],
    )
    def test_returned_list_is_the_callers(self, build):
        shape = SHAPES[1]
        expected = list(build(shape, 2))
        mine = build(shape, 2)
        mine.reverse()
        del mine[1:]
        assert build(shape, 2) == expected
