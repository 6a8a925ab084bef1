"""Tests for trace recording and metrics (repro.engine.trace)."""

import numpy as np
import pytest

from repro.analysis import summarize_trace
from repro.blocks import ProblemShape
from repro.engine.fast import FastEngine
from repro.engine.trace import CommInterval, ComputeInterval, Trace
from repro.platform import Platform
from repro.schedulers import HoLM


def build_trace() -> Trace:
    tr = Trace()
    tr.add_comm(CommInterval(1, "send", 0.0, 2.0, 4, "C-in"))
    tr.add_comm(CommInterval(2, "send", 2.0, 3.0, 2, "AB"))
    tr.add_comm(CommInterval(1, "recv", 3.0, 5.0, 4, "C-out"))
    tr.add_compute(ComputeInterval(1, 2.0, 6.0, 8, "upd"))
    tr.add_compute(ComputeInterval(2, 3.0, 4.0, 2, "upd"))
    return tr


class TestMetrics:
    def test_makespan_is_last_event(self):
        assert build_trace().makespan == 6.0

    def test_comm_blocks(self):
        assert build_trace().comm_blocks == 10

    def test_total_updates(self):
        assert build_trace().total_updates == 10

    def test_ccr(self):
        assert build_trace().ccr == pytest.approx(1.0)

    def test_ccr_without_compute_raises(self):
        with pytest.raises(ValueError):
            _ = Trace().ccr

    def test_enrolled_workers(self):
        assert build_trace().enrolled_workers == (1, 2)

    def test_port_busy_and_utilisation(self):
        tr = build_trace()
        assert tr.port_busy_time(0) == pytest.approx(5.0)
        assert tr.port_utilisation(0) == pytest.approx(5.0 / 6.0)

    def test_worker_busy_and_utilisation(self):
        tr = build_trace()
        assert tr.worker_busy_time(1) == pytest.approx(4.0)
        assert tr.worker_utilisation(2) == pytest.approx(1.0 / 6.0)

    def test_memory_peak_keeps_max(self):
        tr = Trace()
        tr.note_memory(1, 5)
        tr.note_memory(1, 9)
        tr.note_memory(1, 3)
        assert tr.memory_peak[1] == 9

    def test_empty_trace_makespan_zero(self):
        assert Trace().makespan == 0.0

    def test_summarize(self):
        s = summarize_trace(build_trace())
        assert s.makespan == 6.0
        assert s.workers_used == 2
        assert s.ccr == pytest.approx(1.0)
        assert 0 < s.mean_worker_utilisation < 1


class TestColumns:
    def test_intervals_round_trip_through_columns(self):
        tr = build_trace()
        assert tr.comms[2] == CommInterval(1, "recv", 3.0, 5.0, 4, "C-out", 0)
        assert tr.computes == [
            ComputeInterval(1, 2.0, 6.0, 8, "upd"),
            ComputeInterval(2, 3.0, 4.0, 2, "upd"),
        ]

    def test_column_views_are_read_only(self):
        worker, start, end, blocks, port = build_trace().comm_columns()
        assert start.tolist() == [0.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            start[0] = 9.0

    def test_failed_append_keeps_columns_aligned(self):
        tr = build_trace()
        start = tr.comm_columns()[1]  # a live view pins that buffer
        with pytest.raises(BufferError):
            tr.add_comm(CommInterval(3, "send", 6.0, 7.0, 1))
        del start
        with pytest.raises(TypeError):
            tr.add_compute(ComputeInterval(1, 6.0, 7.0, 2.5))
        assert tr == build_trace()
        tr.add_comm(CommInterval(3, "send", 6.0, 7.0, 1))
        assert tr.comms[-1] == CommInterval(3, "send", 6.0, 7.0, 1, "", 0)


class TestFastRecording:
    def test_run_stopped_by_an_error_keeps_the_recorded_prefix(self):
        from repro.engine import AgentSpec, tile_chunks

        shape = ProblemShape(r=4, s=4, t=2, q=2)
        plat = Platform.homogeneous(1, c=1.0, w=1.0, m=12)
        # Two 2x2 tiles fit; the 4x4 tile after them needs 16 > 12 buffers.
        chunks = tile_chunks(shape, 2)[:2] + tile_chunks(shape, 4)
        full = FastEngine(
            plat, shape, [AgentSpec(0, chunks, 2)], check_memory=False
        ).run()
        eng = FastEngine(plat, shape, [AgentSpec(0, chunks, 2)])
        with pytest.raises(RuntimeError, match="memory exceeded"):
            eng.run()
        assert eng.trace.comms == full.comms[:8]
        assert eng.trace.computes == full.computes[:4]
        assert eng.trace.makespan < full.makespan


class TestInvariants:
    def test_valid_trace_passes(self):
        build_trace().check_invariants()

    def test_port_overlap_detected(self):
        tr = Trace()
        tr.add_comm(CommInterval(1, "send", 0.0, 2.0, 1))
        tr.add_comm(CommInterval(2, "send", 1.0, 3.0, 1))
        with pytest.raises(AssertionError, match="port"):
            tr.check_invariants()

    def test_port_overlap_message(self):
        tr = Trace()
        tr.add_comm(CommInterval(3, "recv", 5.0, 6.0, 2, "C-out"))
        tr.add_comm(CommInterval(1, "send", 0.0, 2.0, 1))
        tr.add_comm(CommInterval(2, "send", 1.0, 3.0, 1, "AB[0:1)"))
        with pytest.raises(AssertionError) as err:
            tr.check_invariants()
        assert str(err.value) == (
            "port 0 overlap: "
            "CommInterval(worker=1, direction='send', start=0.0, end=2.0, "
            "blocks=1, label='', port=0) then "
            "CommInterval(worker=2, direction='send', start=1.0, end=3.0, "
            "blocks=1, label='AB[0:1)', port=0)"
        )

    def test_compute_overlap_message(self):
        tr = Trace()
        tr.add_compute(ComputeInterval(2, 0.0, 9.0, 4, "upd[0:1)"))
        tr.add_compute(ComputeInterval(1, 0.0, 2.0, 1))
        tr.add_compute(ComputeInterval(1, 1.0, 3.0, 5, "upd[1:2)"))
        with pytest.raises(AssertionError) as err:
            tr.check_invariants()
        assert str(err.value) == (
            "worker 1 compute overlap: "
            "ComputeInterval(worker=1, start=0.0, end=2.0, updates=1, "
            "label='') then "
            "ComputeInterval(worker=1, start=1.0, end=3.0, updates=5, "
            "label='upd[1:2)')"
        )

    def test_different_ports_may_overlap(self):
        tr = Trace()
        tr.add_comm(CommInterval(1, "send", 0.0, 2.0, 1, "", 0))
        tr.add_comm(CommInterval(2, "recv", 1.0, 3.0, 1, "", 1))
        tr.check_invariants()  # two-port model: fine

    def test_worker_compute_overlap_detected(self):
        tr = Trace()
        tr.add_compute(ComputeInterval(1, 0.0, 2.0, 1))
        tr.add_compute(ComputeInterval(1, 1.0, 3.0, 1))
        with pytest.raises(AssertionError, match="compute"):
            tr.check_invariants()

    def test_different_workers_may_compute_concurrently(self):
        tr = Trace()
        tr.add_compute(ComputeInterval(1, 0.0, 2.0, 1))
        tr.add_compute(ComputeInterval(2, 1.0, 3.0, 1))
        tr.check_invariants()


class _ShiftedTrace(Trace):
    """A trace whose columns report one interval starting earlier.

    The check reads the shifted columns; the error message names the
    intervals as the engine recorded them.
    """

    def __init__(self, kind, index, start):
        super().__init__()
        self.shift = (kind, index, start)

    def comm_columns(self):
        return self._shifted("comm", super().comm_columns())

    def compute_columns(self):
        return self._shifted("compute", super().compute_columns())

    def _shifted(self, kind, cols):
        cols = [np.array(col) for col in cols]
        if kind == self.shift[0]:
            cols[1][self.shift[1]] = self.shift[2]
        return tuple(cols)


def _fast_trace(trace):
    """One-worker HoLM run: C-in, AB[0:1), AB[1:2), C-out; two computes."""
    shape = ProblemShape(r=2, s=2, t=2, q=2)
    plat = Platform.homogeneous(1, c=1.0, w=0.5, m=50)
    eng = FastEngine(plat, shape, HoLM().agents(plat, shape))
    eng.trace = trace
    return eng.run()


class TestFastTraceOverlapMessages:
    def test_unshifted_run_passes(self):
        _fast_trace(_ShiftedTrace("none", 0, 0.0)).check_invariants()

    def test_port_overlap_names_recorded_intervals(self):
        tr = _fast_trace(_ShiftedTrace("comm", 2, 6.0))
        with pytest.raises(AssertionError) as err:
            tr.check_invariants()
        assert str(err.value) == (
            "port 0 overlap: "
            "CommInterval(worker=1, direction='send', start=4.0, end=8.0, "
            "blocks=4, label='AB[0:1)', port=0) then "
            "CommInterval(worker=1, direction='send', start=8.0, end=12.0, "
            "blocks=4, label='AB[1:2)', port=0)"
        )

    def test_compute_overlap_names_recorded_intervals(self):
        tr = _fast_trace(_ShiftedTrace("compute", 1, 9.0))
        with pytest.raises(AssertionError) as err:
            tr.check_invariants()
        assert str(err.value) == (
            "worker 1 compute overlap: "
            "ComputeInterval(worker=1, start=8.0, end=10.0, updates=4, "
            "label='upd[0:1)') then "
            "ComputeInterval(worker=1, start=12.0, end=14.0, updates=4, "
            "label='upd[1:2)')"
        )


class TestStorageBudget:
    """A finished trace holds its intervals as columns, not objects."""

    def test_fast_trace_holds_at_most_80_bytes_per_interval(self):
        import gc
        import tracemalloc

        from repro.engine import run_scheduler
        from repro.platform import ut_cluster_platform
        from repro.schedulers import section8_scheduler
        from repro.workloads import Workload

        # One verify-stage trace of the capacity-planning example: 12,120
        # intervals.  Counted is what the trace alone keeps alive after
        # the readers that need only numbers have run, so a reader that
        # builds (and caches) the interval lists breaks the budget too.
        shape = Workload("nightly batch", 8000, 8000, 32000).shape(80)
        plat = ut_cluster_platform(p=2, memory_mb=48.0, q=80)
        tracemalloc.start()
        try:
            trace = run_scheduler(section8_scheduler("ODDOML"), plat, shape)
            summarize_trace(trace)
            assert trace.work_makespan == trace.makespan
            gc.collect()
            with_trace = tracemalloc.get_traced_memory()[0]
            intervals = len(trace.comm_columns()[0]) + len(
                trace.compute_columns()[0]
            )
            del trace
            gc.collect()
            held = with_trace - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert intervals == 12_120
        assert held / intervals <= 80, f"{held / intervals:.1f} B per interval"
