"""Parity oracle: the fast timeline engine vs the discrete-event kernel.

The fast engine (:mod:`repro.engine.fast`) must reproduce the DES
*byte for byte*: identical comm/compute interval lists (same order,
same floats, same labels), identical memory peaks, identical numerics,
identical errors.  These tests sweep randomized platforms and shapes —
heterogeneous and homogeneous, one-port and two-port, including
integer-valued parameters that force massive event-time ties — across
every scheduler family.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.blocks import ProblemShape, make_product_instance
from repro.engine import AgentSpec, run_scheduler
from repro.platform import Platform
from repro.schedulers import (
    BMM,
    DDOML,
    HeteroIncremental,
    HoLM,
    MaxReuse,
    OBMM,
    ODDOML,
    OMMOML,
    ORROML,
)

ALL_SEVEN = (HoLM, ORROML, OMMOML, ODDOML, DDOML, BMM, OBMM)


def assert_traces_identical(des, fast, context=""):
    """Byte-for-byte equality of two traces (lists compare elementwise)."""
    assert des.comms == fast.comms, f"comm intervals differ: {context}"
    assert des.computes == fast.computes, f"compute intervals differ: {context}"
    assert des.memory_peak == fast.memory_peak, f"memory peaks differ: {context}"


def both(scheduler_cls, platform, shape, **kwargs):
    des = run_scheduler(scheduler_cls(), platform, shape, engine="des", **kwargs)
    fast = run_scheduler(scheduler_cls(), platform, shape, engine="fast", **kwargs)
    return des, fast


def random_platform(rng, p, integral=False):
    """A seeded platform; ``integral`` forces tie-heavy integer rates."""
    if integral:
        cs = [float(rng.randint(1, 3)) for _ in range(p)]
        ws = [float(rng.randint(1, 3)) for _ in range(p)]
    else:
        cs = [rng.uniform(0.1, 2.0) for _ in range(p)]
        ws = [rng.uniform(0.05, 2.0) for _ in range(p)]
    ms = [rng.choice([21, 35, 60, 120]) for _ in range(p)]
    if rng.random() < 0.4:
        return Platform.homogeneous(p, c=cs[0], w=ws[0], m=ms[0])
    return Platform.heterogeneous(cs, ws, ms)


class TestSevenSchedulerParity:
    @pytest.mark.parametrize("integral", [False, True])
    def test_randomized_platform_matrix(self, integral):
        """All seven Section 8 algorithms, randomized platforms/shapes,
        one-port and two-port, tie-free and tie-heavy rates."""
        rng = random.Random(1234 + integral)
        for _ in range(12):
            platform = random_platform(rng, rng.randint(1, 5), integral)
            shape = ProblemShape(
                r=rng.randint(1, 9), s=rng.randint(1, 9),
                t=rng.randint(1, 7), q=2,
            )
            two_port = rng.random() < 0.5
            for cls in ALL_SEVEN:
                des, fast = both(cls, platform, shape, two_port=two_port)
                assert_traces_identical(
                    des, fast, f"{cls.name} {platform.name} {shape} "
                    f"two_port={two_port}"
                )

    def test_identical_workers_maximal_ties(self):
        """Fully symmetric integer platform: every worker identical, so
        the demand queue order is decided purely by tie-breaking."""
        platform = Platform.homogeneous(4, c=1.0, w=1.0, m=21)
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        for cls in ALL_SEVEN:
            for two_port in (False, True):
                des, fast = both(cls, platform, shape, two_port=two_port)
                assert_traces_identical(des, fast, cls.name)


class TestOtherSchedulerParity:
    def test_max_reuse(self):
        platform = Platform.homogeneous(1, c=1.0, w=0.5, m=21)
        shape = ProblemShape(r=4, s=4, t=3, q=2)
        des, fast = both(MaxReuse, platform, shape)
        assert_traces_identical(des, fast, "MaxReuse")

    @pytest.mark.parametrize("variant", ["global", "local", "lookahead"])
    def test_hetero_incremental(self, variant):
        platform = Platform.heterogeneous(
            [0.3, 0.5, 0.4], [0.2, 0.3, 0.25], [21, 30, 25]
        )
        shape = ProblemShape(r=8, s=12, t=5, q=2)
        des = run_scheduler(
            HeteroIncremental(variant), platform, shape, engine="des"
        )
        fast = run_scheduler(
            HeteroIncremental(variant), platform, shape, engine="fast"
        )
        assert_traces_identical(des, fast, f"HeteroLM[{variant}]")


class TestNumericParity:
    def test_bitwise_identical_numeric_execution(self):
        """Same phase order ⇒ bit-identical float accumulation in C."""
        shape = ProblemShape(r=5, s=7, t=4, q=3)
        platform = Platform.homogeneous(3, c=0.3, w=0.2, m=21)
        for cls in (HoLM, ODDOML, BMM):
            a, b, c0 = make_product_instance(shape, seed=5)
            c_des = c0.copy()
            c_fast = c0.copy()
            run_scheduler(cls(), platform, shape, data=(a, b, c_des), engine="des")
            run_scheduler(cls(), platform, shape, data=(a, b, c_fast), engine="fast")
            assert np.array_equal(c_des.array, c_fast.array), cls.name


class TestEdgeCaseParity:
    def test_memory_gate_error_identical(self):
        """Exceeding a worker's buffer capacity raises the same error."""
        shape = ProblemShape(r=4, s=4, t=2, q=2)
        platform = Platform.homogeneous(1, c=1.0, w=1.0, m=10)

        class Oversized(HoLM):
            def agents(self, platform, shape):
                from repro.engine import tile_chunks

                # mu=4 tile needs 16 C buffers > 10.
                return [AgentSpec(0, tile_chunks(shape, 4), 2)]

            name = "Oversized"

        messages = {}
        for engine in ("des", "fast"):
            with pytest.raises(RuntimeError, match="memory exceeded") as exc:
                run_scheduler(Oversized(), platform, shape, engine=engine)
            messages[engine] = str(exc.value)
        assert messages["des"] == messages["fast"]

    def test_memory_error_parity_after_t0(self):
        """Oversized tile plans overrun a worker's buffers mid-run too:
        at a phase claim, or at a C-in claim that follows a C-out.  The
        engines stop at the same claim with the same message."""
        from repro.engine import ChunkQueue, tile_chunks

        class Plan:
            name = "Oversized"

            def __init__(self, mu, gap, shared, reverse):
                self.mu, self.gap, self.shared = mu, gap, shared
                self.reverse = reverse

            def agents(self, platform, shape):
                # Reversed, ragged edge tiles come first, so a larger C
                # tile's claim can overrun after an earlier C-out.
                chunks = tile_chunks(shape, self.mu)[::-1 if self.reverse else 1]
                if self.shared:
                    queue = ChunkQueue(chunks)
                    return [AgentSpec(w, queue, self.gap) for w in range(platform.p)]
                return [
                    AgentSpec(w, chunks[w::platform.p], self.gap)
                    for w in range(platform.p)
                ]

        def outcome(plan, platform, shape, engine, two_port):
            try:
                trace = run_scheduler(
                    plan, platform, shape, engine=engine, two_port=two_port
                )
            except RuntimeError as exc:
                assert "memory exceeded" in str(exc)
                return str(exc)
            return (trace.comms, trace.computes, trace.memory_peak)

        rng = random.Random(606)
        late = early = 0
        for _ in range(300):
            p = rng.randint(1, 4)
            ms = [rng.randint(6, 40) for _ in range(p)]
            cs = [rng.choice([0.5, 1.0, rng.uniform(0.1, 2.0)]) for _ in range(p)]
            ws = [rng.choice([0.5, 1.0, rng.uniform(0.05, 2.0)]) for _ in range(p)]
            platform = Platform.heterogeneous(cs, ws, ms)
            shape = ProblemShape(
                r=rng.randint(1, 8), s=rng.randint(1, 8), t=rng.randint(1, 5), q=2
            )
            plan = Plan(
                rng.randint(1, 4), rng.choice([1, 2]), rng.random() < 0.5,
                rng.random() < 0.5,
            )
            two_port = rng.random() < 0.5
            des = outcome(plan, platform, shape, "des", two_port)
            fast = outcome(plan, platform, shape, "fast", two_port)
            assert des == fast, (platform, shape, vars(plan), two_port)
            if isinstance(des, str):
                if des.endswith(" at t=0"):
                    early += 1
                else:
                    late += 1
        assert late >= 40 and early >= 5, (late, early)

    def test_memory_check_disabled_parity(self):
        """check_memory=False executes over-capacity layouts identically."""
        shape = ProblemShape(r=4, s=4, t=2, q=2)
        platform = Platform.homogeneous(2, c=1.0, w=1.0, m=10)

        class Oversized(ODDOML):
            def chunk_param(self, m):
                return 4

        des = run_scheduler(
            Oversized(), platform, shape, engine="des", check_memory=False
        )
        fast = run_scheduler(
            Oversized(), platform, shape, engine="fast", check_memory=False
        )
        assert_traces_identical(des, fast, "check_memory=False")
        assert des.memory_peak[1] > 10  # the gate really was exceeded

    def test_update_count_mismatch_same_error(self):
        class HalfJob(HoLM):
            def build_chunks(self, shape, param):
                return super().build_chunks(shape, param)[:1]

            def assign(self, platform, shape, chunks):
                return {0: chunks}

        platform = Platform.homogeneous(1, c=0.5, w=0.25, m=21)
        shape = ProblemShape(r=4, s=6, t=3, q=3)
        for engine in ("des", "fast"):
            with pytest.raises(RuntimeError, match="block updates"):
                run_scheduler(HalfJob(), platform, shape, engine=engine)

    def test_bad_generation_gap_same_error(self):
        class BadGap(ORROML):
            generation_gap = 3

        platform = Platform.homogeneous(1, c=0.5, w=0.25, m=21)
        shape = ProblemShape(r=2, s=2, t=2, q=2)
        for engine in ("des", "fast"):
            with pytest.raises(ValueError, match="generation_gap"):
                run_scheduler(BadGap(), platform, shape, engine=engine)


class TestDispatch:
    def test_unknown_engine_rejected(self):
        platform = Platform.homogeneous(1, c=0.5, w=0.25, m=21)
        with pytest.raises(ValueError, match="unknown engine"):
            run_scheduler(
                HoLM(), platform, ProblemShape(r=2, s=2, t=2, q=2),
                engine="warp",
            )



class TestExperimentRowParity:
    def test_fig10_rows_identical_at_smoke_scale(self):
        """End to end: the experiment rows are identical per engine."""
        from repro.experiments import fig10

        rows_fast = fig10.run(scale=8, engine="fast")
        rows_des = fig10.run(scale=8, engine="des")
        for rf, rd in zip(rows_fast, rows_des):
            rf = {k: v for k, v in rf.items()}
            rd = {k: v for k, v in rd.items()}
            assert rf == rd


def random_scenario(rng, platform, integral):
    """A seeded scenario mixing every non-stationarity feature.

    ``integral`` snaps event times, factors and durations to integers so
    scenario events collide with transfer/compute completion times and
    tie-breaking is exercised hard.
    """
    from repro.scenarios import Scenario

    sc = Scenario.stationary(platform)
    for _ in range(rng.randint(0, 4)):
        widx = rng.randint(1, platform.p)
        t = float(rng.randint(0, 30)) if integral else rng.uniform(0.0, 30.0)
        f = float(rng.choice([2, 3])) if integral else rng.uniform(0.4, 4.0)
        sc = sc.with_slowdown(widx, t, f)
    if rng.random() < 0.5:
        t = float(rng.randint(0, 20)) if integral else rng.uniform(0.0, 20.0)
        f = 2.0 if integral else rng.uniform(0.5, 2.5)
        sc = sc.with_bandwidth_step(t, f)
    if rng.random() < 0.3:
        sc = sc.with_dropout(
            rng.randint(1, platform.p), float(rng.randint(5, 25)), factor=40.0
        )
    times = set()
    for _ in range(rng.randint(0, 4)):
        t = float(rng.randint(0, 25)) if integral else rng.uniform(0.0, 25.0)
        if t in times:
            continue
        times.add(t)
        d = float(rng.randint(1, 4)) if integral else rng.uniform(0.2, 5.0)
        sc = sc.with_background(t, d)
    return sc


class TestScenarioParity:
    """Byte-for-byte engine parity extends to non-stationary platforms."""

    def test_identity_scenario_reproduces_stationary_trace(self):
        """All-1.0 factors and no background: the scenario path must be
        bit-identical to the plain stationary run on both engines."""
        from repro.scenarios import Scenario

        platform = Platform.heterogeneous(
            [0.4, 0.7, 0.5], [0.3, 0.2, 0.4], [21, 35, 30]
        )
        shape = ProblemShape(r=6, s=6, t=4, q=2)
        identity = Scenario.stationary(platform)
        for cls in ALL_SEVEN:
            for engine in ("fast", "des"):
                plain = run_scheduler(cls(), platform, shape, engine=engine)
                wrapped = run_scheduler(
                    cls(), platform, shape, engine=engine, scenario=identity
                )
                assert plain.comms == wrapped.comms, (cls.name, engine)
                assert plain.computes == wrapped.computes, (cls.name, engine)

    @pytest.mark.parametrize("integral", [False, True])
    def test_randomized_scenario_matrix(self, integral):
        """All seven algorithms under randomized scenarios (time-varying
        rates, dropout, background traffic), one-port and two-port,
        tie-free and tie-heavy."""
        rng = random.Random(4321 + integral)
        for _ in range(8):
            platform = random_platform(rng, rng.randint(1, 5), integral)
            shape = ProblemShape(
                r=rng.randint(1, 8), s=rng.randint(1, 8),
                t=rng.randint(1, 6), q=2,
            )
            scenario = random_scenario(rng, platform, integral)
            two_port = rng.random() < 0.5
            for cls in ALL_SEVEN:
                des, fast = both(
                    cls, platform, shape, two_port=two_port, scenario=scenario
                )
                assert_traces_identical(
                    des, fast,
                    f"{cls.name} {platform.name} {shape} two_port={two_port} "
                    f"{scenario.name}",
                )

    def test_background_at_t0_and_overdue_chain(self):
        """A hold starting at t=0 plus holds scheduled inside earlier
        holds (overdue re-requests) keep both engines in lockstep."""
        from repro.scenarios import Scenario

        platform = Platform.homogeneous(3, c=1.0, w=1.0, m=21)
        shape = ProblemShape(r=5, s=5, t=3, q=2)
        scenario = (
            Scenario.stationary(platform)
            .with_background(0.0, 2.5)
            .with_background(1.0, 3.0)   # overdue behind the first hold
            .with_background(2.0, 1.0)   # overdue behind the second
        )
        for cls in ALL_SEVEN:
            for two_port in (False, True):
                des, fast = both(
                    cls, platform, shape, two_port=two_port, scenario=scenario
                )
                assert_traces_identical(des, fast, f"{cls.name} bg-chain")
        trace = run_scheduler(ALL_SEVEN[0](), platform, shape, scenario=scenario)
        bg = [iv for iv in trace.comms if iv.worker == 0]
        assert len(bg) == 3  # every hold ran (serially, FIFO with workers)
        assert all(iv.blocks == 0 for iv in bg)

    def test_scenario_as_platform_argument(self):
        """run_scheduler accepts the Scenario itself in place of the
        platform (the wrapper carries its platform)."""
        from repro.scenarios import Scenario

        platform = Platform.homogeneous(2, c=0.5, w=0.25, m=21)
        shape = ProblemShape(r=4, s=4, t=3, q=2)
        scenario = Scenario.stationary(platform).with_slowdown(1, 3.0, 2.0)
        via_wrapper = run_scheduler(HoLM(), scenario, shape)
        via_kwarg = run_scheduler(HoLM(), platform, shape, scenario=scenario)
        assert via_wrapper.comms == via_kwarg.comms
        assert via_wrapper.computes == via_kwarg.computes
        with pytest.raises(ValueError, match="not both"):
            run_scheduler(HoLM(), scenario, shape, scenario=scenario)

    def test_scenario_platform_mismatch_rejected(self):
        from repro.scenarios import Scenario

        platform = Platform.homogeneous(2, c=0.5, w=0.25, m=21)
        other = Platform.homogeneous(3, c=0.5, w=0.25, m=21)
        scenario = Scenario.stationary(other)
        for engine in ("fast", "des", "model"):
            with pytest.raises(ValueError, match="wraps platform"):
                run_scheduler(
                    HoLM(), platform, ProblemShape(r=2, s=2, t=2, q=2),
                    engine=engine, scenario=scenario,
                )

    def test_max_reuse_and_hetero_scenario_parity(self):
        from repro.scenarios import Scenario

        p1 = Platform.homogeneous(1, c=1.0, w=0.5, m=21)
        sc = (
            Scenario.stationary(p1)
            .with_slowdown(1, 6.0, 2.5)
            .with_background(2.0, 1.5)
        )
        des, fast = both(MaxReuse, p1, ProblemShape(r=4, s=4, t=3, q=2), scenario=sc)
        assert_traces_identical(des, fast, "MaxReuse scenario")

        plat = Platform.heterogeneous(
            [0.3, 0.5, 0.4], [0.2, 0.3, 0.25], [21, 30, 25]
        )
        sc = (
            Scenario.stationary(plat)
            .with_slowdown(2, 10.0, 2.0)
            .with_background(5.0, 3.0)
        )
        shape = ProblemShape(r=8, s=12, t=5, q=2)
        for variant in ("global", "local", "lookahead"):
            des = run_scheduler(
                HeteroIncremental(variant), plat, shape, engine="des", scenario=sc
            )
            fast = run_scheduler(
                HeteroIncremental(variant), plat, shape, engine="fast", scenario=sc
            )
            assert_traces_identical(des, fast, f"HeteroLM[{variant}] scenario")

    def test_numeric_execution_identical_under_scenario(self):
        """Scenario timing shifts must not change the numeric result:
        same updates in the same per-worker order, bit-identical C."""
        from repro.scenarios import Scenario

        shape = ProblemShape(r=5, s=7, t=4, q=3)
        platform = Platform.homogeneous(3, c=0.3, w=0.2, m=21)
        scenario = (
            Scenario.stationary(platform)
            .with_slowdown(2, 4.0, 3.0)
            .with_background(1.0, 2.0)
        )
        for cls in (HoLM, ODDOML, BMM):
            a, b, c0 = make_product_instance(shape, seed=5)
            c_des = c0.copy()
            c_fast = c0.copy()
            run_scheduler(
                cls(), platform, shape, data=(a, b, c_des), engine="des",
                scenario=scenario,
            )
            run_scheduler(
                cls(), platform, shape, data=(a, b, c_fast), engine="fast",
                scenario=scenario,
            )
            assert np.array_equal(c_des.array, c_fast.array), cls.name


def _digest_runs():
    """The seeded run matrix behind :class:`TestPinnedTraceDigest`.

    Yields ``(scheduler, platform, shape, kwargs)`` for: random
    homogeneous and heterogeneous platforms with real and tie-heavy
    integer rates, one-port and two-port, under the seven Section 8
    schedulers, the three ``HeteroIncremental`` variants and MaxReuse,
    and the seven again under a random scenario; two tie-heavy two-port
    platforms; the 21 Figure 10 points at scale 8; and every scenario
    kind at two severities on four algorithms.
    """
    from repro.platform.named import ut_cluster_platform
    from repro.scenarios import SCENARIO_KINDS, build_scenario, scenario_spec
    from repro.workloads import fig10_workloads

    for integral in (False, True):
        rng = random.Random(2024 + integral)
        for _ in range(24):
            platform = random_platform(rng, rng.randint(1, 5), integral)
            shape = ProblemShape(
                r=rng.randint(1, 9), s=rng.randint(1, 9),
                t=rng.randint(1, 7), q=2,
            )
            kwargs = {"two_port": rng.random() < 0.5}
            for cls in ALL_SEVEN:
                yield cls(), platform, shape, kwargs
            for variant in ("global", "local", "lookahead"):
                yield HeteroIncremental(variant), platform, shape, kwargs
            yield MaxReuse(), platform.subset((1,)), shape, kwargs
            scenario = random_scenario(rng, platform, integral)
            for cls in ALL_SEVEN:
                yield cls(), platform, shape, dict(kwargs, scenario=scenario)

    # Two-port C-out bursts that grant both ports while another entry
    # shares the instant: the only multi-grant flush that takes the hop.
    for platform, shape in (
        (Platform.homogeneous(3, c=1.0, w=3.0, m=21),
         ProblemShape(r=9, s=5, t=6, q=2)),
        (Platform.heterogeneous([3.0, 3.0, 1.0], [3.0, 3.0, 2.0], [35, 60, 35]),
         ProblemShape(r=8, s=5, t=3, q=2)),
    ):
        for cls in ALL_SEVEN:
            yield cls(), platform, shape, {"two_port": True}

    cluster = ut_cluster_platform(p=8, memory_mb=512.0, q=80)
    workloads = fig10_workloads(8)
    for workload in workloads:
        for cls in ALL_SEVEN:
            yield cls(), cluster, workload.shape(80), {}

    shape = workloads[0].shape(80)
    for cls in (HoLM, ORROML, ODDOML, OBMM):
        horizon = run_scheduler(cls(), cluster, shape).work_makespan
        for kind in SCENARIO_KINDS:
            for severity in (0.5, 1.0):
                spec = scenario_spec(kind, severity, horizon=horizon, seed=3)
                scenario = build_scenario(cluster, spec)
                yield cls(), cluster, shape, {"scenario": scenario}


class TestPinnedTraceDigest:
    """One SHA-256 over every fast-engine trace of a seeded run matrix.

    The parity suites pay for a DES run per case; this digest pins the
    scan's output alone, cheaply, so a refactor of the fast engine that
    moves a single interval, float or memory peak fails here first.
    """

    DIGEST = "2c3a267a8f95fc0ddc5e9ab470217933b2632e8d1bc6791b95cbde3f31c7ba1c"
    RUNS = 955

    def test_fast_engine_traces_are_pinned(self):
        h = hashlib.sha256()
        runs = 0
        for scheduler, platform, shape, kwargs in _digest_runs():
            trace = run_scheduler(scheduler, platform, shape, engine="fast", **kwargs)
            h.update(repr((
                trace.comms, trace.computes, sorted(trace.memory_peak.items()),
            )).encode())
            runs += 1
        assert (runs, h.hexdigest()) == (self.RUNS, self.DIGEST)
