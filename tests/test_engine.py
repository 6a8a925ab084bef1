"""Tests for the master-worker execution engine (repro.engine.engine)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import ProblemShape, make_product_instance, verify_product
from repro.core.layout import (
    max_reuse_mu,
    mu_no_overlap,
    mu_overlap,
    overlapped_toledo_split,
    toledo_split,
)
from repro.engine import Engine, run_scheduler, tile_chunks
from repro.engine.common import ChunkQueue
from repro.platform import Platform
from repro.schedulers import (
    BMM,
    DDOML,
    HoLM,
    MaxReuse,
    OBMM,
    ODDOML,
    OMMOML,
    ORROML,
    all_section8_schedulers,
)

SMALL = ProblemShape(r=4, s=6, t=3, q=3)


def small_platform(p=2, m=21):
    return Platform.homogeneous(p, c=0.5, w=0.25, m=m)


class TestChunkQueue:
    def test_pop_order_and_exhaustion(self):
        chunks = tile_chunks(SMALL, 2)
        q = ChunkQueue(chunks)
        seen = []
        while (ch := q.pop()) is not None:
            seen.append(ch)
        assert seen == chunks
        assert q.pop() is None
        assert len(q) == 0


class TestEngineMechanics:
    def test_single_chunk_timeline(self):
        """One worker, one chunk: C-in, phases, C-out; check timings."""
        shape = ProblemShape(r=2, s=2, t=2, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=0.5, m=50)
        eng = Engine(plat, shape)
        chunks = tile_chunks(shape, 2)
        eng.env.process(eng.static_agent(0, chunks, generation_gap=2))
        eng.env.run()
        tr = eng.trace
        tr.check_invariants()
        # C-in: 4 blocks x 1.0 = [0,4]; phase0 AB 4 blocks [4,8];
        # compute0 [8,10]; phase1 [8,12]; compute1 [12,14];
        # C-out 4 blocks from 14 to 18.
        assert tr.comms[0].end == 4.0
        assert tr.computes[0].start == 8.0 and tr.computes[0].end == 10.0
        assert tr.computes[1].start == 12.0
        assert tr.makespan == 18.0

    def test_generation_gap_1_serializes(self):
        """Without spare buffers, phase j waits for compute j-1."""
        shape = ProblemShape(r=2, s=2, t=2, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=10.0, m=50)
        eng = Engine(plat, shape)
        eng.env.process(eng.static_agent(0, tile_chunks(shape, 2), 1))
        eng.env.run()
        tr = eng.trace
        # compute0 ends 8+40=48; phase1 send starts only then.
        phase1 = [c for c in tr.comms if c.label.startswith("AB")][1]
        assert phase1.start == pytest.approx(48.0)

    def test_generation_gap_2_overlaps(self):
        """With spare buffers, phase j+1 streams during compute j."""
        shape = ProblemShape(r=2, s=2, t=2, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=10.0, m=50)
        eng = Engine(plat, shape)
        eng.env.process(eng.static_agent(0, tile_chunks(shape, 2), 2))
        eng.env.run()
        phase1 = [c for c in eng.trace.comms if c.label.startswith("AB")][1]
        assert phase1.start == pytest.approx(8.0)  # right after phase 0

    def test_memory_cap_enforced(self):
        shape = ProblemShape(r=4, s=4, t=2, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=1.0, m=10)
        eng = Engine(plat, shape)
        # mu=4 tile needs 16 C buffers > 10.
        eng.env.process(eng.static_agent(0, tile_chunks(shape, 4), 2))
        with pytest.raises(RuntimeError, match="memory exceeded"):
            eng.env.run()

    def test_update_count_mismatch_detected(self):
        class HalfJob(HoLM):
            def build_chunks(self, shape, param):
                return super().build_chunks(shape, param)[:1]

            def assign(self, platform, shape, chunks):
                return {0: chunks}

        plat = small_platform(1)
        with pytest.raises(RuntimeError, match="block updates"):
            run_scheduler(HalfJob(), plat, SMALL)

    def test_data_shape_validated(self):
        a, b, c = make_product_instance(SMALL, 0)
        wrong = ProblemShape(r=5, s=6, t=3, q=3)
        with pytest.raises(ValueError):
            Engine(small_platform(), wrong, data=(a, b, c))

    def test_invalid_generation_gap(self):
        eng = Engine(small_platform(), SMALL)
        with pytest.raises(ValueError):
            list(eng.process_chunk(0, tile_chunks(SMALL, 2)[0], 3))


class TestMemoryPeaks:
    """Each layout's peak buffer usage must equal its formula."""

    def test_overlap_layout_peak(self):
        m = 60  # mu_overlap = 5 -> peak 45? mu=5: 25+20=45 <= 60
        mu = mu_overlap(m)
        shape = ProblemShape(r=mu, s=mu, t=4, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=1.0, m=m)
        tr = run_scheduler(ODDOML(), plat, shape)
        assert tr.memory_peak[1] == mu * mu + 4 * mu

    def test_single_generation_peak(self):
        m = 48  # mu_no_overlap(48) = 6 -> peak 36+12 = 48
        mu = mu_no_overlap(m)
        shape = ProblemShape(r=mu, s=mu, t=4, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=1.0, m=m)
        tr = run_scheduler(DDOML(), plat, shape)
        assert tr.memory_peak[1] == mu * mu + 2 * mu

    def test_bmm_peak_three_tiles(self):
        m = 75  # sigma = 5 -> peak 3*25
        sigma = toledo_split(m)
        shape = ProblemShape(r=sigma, s=sigma, t=2 * sigma, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=1.0, m=m)
        tr = run_scheduler(BMM(), plat, shape)
        assert tr.memory_peak[1] == 3 * sigma * sigma

    def test_obmm_peak_five_tiles(self):
        m = 125  # sigma = 5 -> peak 5*25
        sigma = overlapped_toledo_split(m)
        shape = ProblemShape(r=sigma, s=sigma, t=2 * sigma, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=1.0, m=m)
        tr = run_scheduler(OBMM(), plat, shape)
        assert tr.memory_peak[1] == 5 * sigma * sigma

    def test_max_reuse_peak(self):
        m = 21  # mu=4 -> peak 1+4+16 = 21
        mu = max_reuse_mu(m)
        shape = ProblemShape(r=mu, s=mu, t=3, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=1.0, m=m)
        tr = run_scheduler(MaxReuse(), plat, shape)
        assert tr.memory_peak[1] == 1 + mu + mu * mu


class TestNumericalCorrectness:
    @pytest.mark.parametrize("scheduler_cls", [
        HoLM, ORROML, OMMOML, ODDOML, DDOML, BMM, OBMM,
    ])
    def test_all_schedulers_compute_the_product(self, scheduler_cls):
        shape = ProblemShape(r=5, s=7, t=4, q=3)
        plat = Platform.homogeneous(3, c=0.3, w=0.2, m=21)
        a, b, c0 = make_product_instance(shape, seed=11)
        c = c0.copy()
        tr = run_scheduler(scheduler_cls(), plat, shape, data=(a, b, c))
        assert verify_product(a, b, c0, c)
        assert tr.total_updates == shape.total_updates

    def test_maxreuse_computes_the_product(self):
        shape = ProblemShape(r=5, s=7, t=4, q=3)
        plat = Platform.homogeneous(1, c=0.3, w=0.2, m=21)
        a, b, c0 = make_product_instance(shape, seed=12)
        c = c0.copy()
        run_scheduler(MaxReuse(), plat, shape, data=(a, b, c))
        assert verify_product(a, b, c0, c)

    @given(
        r=st.integers(1, 6),
        s=st.integers(1, 6),
        t=st.integers(1, 4),
        p=st.integers(1, 4),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_demand_driven_correct_on_random_shapes(self, r, s, t, p, seed):
        """Property: ODDOML computes C + A.B for arbitrary block grids
        and worker counts, and the trace passes all invariants."""
        shape = ProblemShape(r=r, s=s, t=t, q=2)
        plat = Platform.homogeneous(p, c=0.4, w=0.3, m=21)
        a, b, c0 = make_product_instance(shape, seed=seed)
        c = c0.copy()
        tr = run_scheduler(ODDOML(), plat, shape, data=(a, b, c))
        assert verify_product(a, b, c0, c)
        assert tr.comm_blocks > 0


class TestOnePortSemantics:
    def test_port_never_overlaps_across_workers(self):
        shape = ProblemShape(r=6, s=6, t=3, q=2)
        plat = Platform.homogeneous(4, c=0.5, w=0.1, m=21)
        tr = run_scheduler(ORROML(), plat, shape)
        tr.check_invariants()  # includes one-port non-overlap

    def test_two_port_separates_directions(self):
        shape = ProblemShape(r=6, s=6, t=3, q=2)
        plat = Platform.homogeneous(2, c=0.5, w=0.5, m=21)
        tr = run_scheduler(HoLM(), plat, shape, two_port=True)
        assert any(c.port == 1 for c in tr.comms)
        assert all(c.port == 1 for c in tr.comms if c.direction == "recv")

    def test_two_port_no_slower_than_one_port(self):
        shape = ProblemShape(r=8, s=8, t=3, q=2)
        plat = Platform.homogeneous(3, c=0.5, w=0.2, m=21)
        t1 = run_scheduler(HoLM(), plat, shape).makespan
        t2 = run_scheduler(HoLM(), plat, shape, two_port=True).makespan
        assert t2 <= t1 + 1e-9

    def test_makespan_at_least_send_volume(self):
        """Lower bound: all input blocks cross the single port."""
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        plat = Platform.homogeneous(4, c=0.7, w=0.01, m=21)
        tr = run_scheduler(ORROML(), plat, shape)
        send_blocks = sum(c.blocks for c in tr.comms if c.direction == "send")
        assert tr.makespan >= send_blocks * 0.7 - 1e-9

    def test_makespan_at_least_compute_over_p(self):
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        plat = Platform.homogeneous(2, c=0.01, w=1.0, m=21)
        tr = run_scheduler(ORROML(), plat, shape)
        assert tr.makespan >= shape.total_updates * 1.0 / 2 - 1e-9
