"""Validated error envelope of the analytic model engine.

The fast engine's contract is *byte-identical parity* with the DES
(``tests/test_fast_parity.py``).  The model engine deliberately trades
that away for O(1)-per-point cost, so its contract is different: a
**validated error envelope**.  This suite pins that envelope — every
Section 8 scheduler, across platform shapes, port configurations and
scenario timelines, must estimate the fast engine's makespan within a
per-regime relative tolerance:

* stationary paper-scale runs: tight (≤ 10 %; measured ≤ ~5 %);
* heterogeneous platforms, two-port mode: ≤ 10 %;
* small problems (few chunks per worker): looser (≤ 15 %) — the
  chunk-granularity model has fewer events to average over;
* time-varying scenarios with *static* schedulers: ≤ 15 %;
* scenarios with *demand-driven* schedulers: ≤ 40 % — the model
  resolves work at chunk granularity, so rate changes reorder its
  demand queue slightly earlier/later than the simulators';
* dropout scenarios: within a factor of 2 (the degenerate regime —
  a 50× rate cliff lands mid-chunk).

Counted quantities are *not* estimates: on every stationary run the
model's communicated blocks, update totals, enrolled-worker sets and
per-worker memory peaks must equal the fast engine's exactly.

docs/engines.md describes the three-tier contract; the tolerances here
are the normative statement of "validated".
"""

from __future__ import annotations

import pytest

from repro.analysis import summarize_trace
from repro.blocks import ProblemShape, make_product_instance
from repro.engine import AgentSpec, run_model, run_scheduler, tile_chunks
from repro.platform import Platform, Worker, table2_platform, ut_cluster_platform
from repro.scenarios import Scenario
from repro.schedulers import (
    SECTION8_SCHEDULERS,
    HeteroIncremental,
    HoLM,
    all_section8_schedulers,
    section8_scheduler,
)
from repro.schedulers.base import DemandChunkScheduler
from repro.workloads import fig10_workloads

ALGOS = tuple(SECTION8_SCHEDULERS)

#: Per-regime relative-makespan tolerances (the envelope itself).
TOL_STATIONARY = 0.10
TOL_SMALL = 0.15
TOL_SCENARIO_STATIC = 0.15
TOL_SCENARIO_DEMAND = 0.40
TOL_DROPOUT_FACTOR = 2.0


def rel_err(estimate, trace) -> float:
    # work_makespan: background-traffic holds outlasting the real work
    # extend the simulators' port window but delayed nothing; the model
    # estimates the work. Identical to makespan without background.
    ref = trace.work_makespan
    return abs(estimate.makespan - ref) / ref


def hetero5_platform() -> Platform:
    """A 5-worker fully heterogeneous star (distinct c, w and m)."""
    workers = tuple(
        Worker(i + 1, c=c, w=w, m=m)
        for i, (c, w, m) in enumerate(
            [
                (1.0, 2.0, 4000),
                (1.5, 1.2, 9000),
                (0.8, 3.0, 4500),
                (2.5, 0.9, 14000),
                (1.2, 1.6, 6000),
            ]
        )
    )
    return Platform(workers, name="het5")


def assert_counts_match(estimate, trace, scheduler) -> None:
    """Stationary runs: counted quantities are exact, not estimated.

    Per-worker memory peaks are exact for static schedulers.  Demand
    queues break ties by completion order, which the model resolves at
    chunk granularity — workers may swap chunks (and the tail chunk's
    smaller peak lands on a different worker), so there only the
    fleet-wide peak is pinned.
    """
    summary = summarize_trace(trace)
    assert estimate.comm_blocks == summary.comm_blocks
    assert estimate.total_updates == summary.updates
    assert estimate.enrolled_workers == trace.enrolled_workers
    if isinstance(scheduler, DemandChunkScheduler):
        assert max(estimate.memory_peak.values()) == max(
            trace.memory_peak.values()
        )
    else:
        assert estimate.memory_peak == trace.memory_peak


class TestStationaryPaperScale:
    """All seven algorithms × the three Section 8.3 workloads."""

    @pytest.mark.parametrize("algorithm", ALGOS)
    @pytest.mark.parametrize(
        "workload", fig10_workloads(), ids=lambda w: w.name
    )
    def test_envelope(self, workload, algorithm):
        platform = ut_cluster_platform(p=8)
        shape = workload.shape(80)
        scheduler = section8_scheduler(algorithm)
        trace = run_scheduler(scheduler, platform, shape)
        estimate = run_scheduler(scheduler, platform, shape, engine="model")
        assert rel_err(estimate, trace) <= TOL_STATIONARY
        assert_counts_match(estimate, trace, scheduler)

    def test_summary_interface_matches_trace_summary(self):
        """``ModelEstimate`` mirrors the Trace summary surface."""
        platform = ut_cluster_platform(p=8)
        shape = fig10_workloads()[0].shape(80)
        estimate = run_scheduler(HoLM(), platform, shape, engine="model")
        s = estimate.to_summary()
        assert s.makespan == pytest.approx(estimate.makespan)
        assert s.comm_blocks == estimate.comm_blocks
        assert s.updates == estimate.total_updates
        assert 0.0 < s.port_utilisation <= 1.0
        assert estimate.work_makespan == estimate.makespan
        assert estimate.check_invariants() is None


class TestHeterogeneousPlatforms:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_section8_on_het5(self, algorithm):
        platform = hetero5_platform()
        shape = ProblemShape(r=60, s=80, t=60, q=40)
        scheduler = section8_scheduler(algorithm)
        trace = run_scheduler(scheduler, platform, shape)
        estimate = run_scheduler(scheduler, platform, shape, engine="model")
        assert rel_err(estimate, trace) <= TOL_STATIONARY
        assert_counts_match(estimate, trace, scheduler)

    @pytest.mark.parametrize("variant", ["global", "local", "lookahead"])
    def test_hetero_incremental_on_table2(self, variant):
        platform = table2_platform()
        shape = ProblemShape(r=24, s=36, t=12, q=8)
        scheduler = HeteroIncremental(variant)
        trace = run_scheduler(scheduler, platform, shape)
        estimate = run_scheduler(
            HeteroIncremental(variant), platform, shape, engine="model"
        )
        assert rel_err(estimate, trace) <= TOL_STATIONARY
        assert_counts_match(estimate, trace, scheduler)


class TestTwoPort:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_envelope(self, algorithm):
        platform = ut_cluster_platform(p=8)
        shape = fig10_workloads()[0].shape(80)
        scheduler = section8_scheduler(algorithm)
        trace = run_scheduler(scheduler, platform, shape, two_port=True)
        estimate = run_scheduler(
            scheduler, platform, shape, two_port=True, engine="model"
        )
        assert estimate.two_port
        assert rel_err(estimate, trace) <= TOL_STATIONARY
        assert_counts_match(estimate, trace, scheduler)
        assert len(estimate.port_busy) == 2
        assert estimate.port_busy[1] > 0.0


class TestSmallProblems:
    """Few chunks per worker: discretization error peaks here."""

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_envelope(self, algorithm):
        platform = Platform.homogeneous(4, c=1.0, w=2.0, m=120)
        shape = ProblemShape(r=6, s=12, t=6, q=4)
        scheduler = section8_scheduler(algorithm)
        trace = run_scheduler(scheduler, platform, shape)
        estimate = run_scheduler(scheduler, platform, shape, engine="model")
        assert rel_err(estimate, trace) <= TOL_SMALL
        assert_counts_match(estimate, trace, scheduler)


def _scenario_tolerance(scheduler) -> float:
    if isinstance(scheduler, DemandChunkScheduler):
        return TOL_SCENARIO_DEMAND
    return TOL_SCENARIO_STATIC


class TestScenarios:
    """Piecewise-stationary timelines, regime-split tolerances.

    The shape runs in ~86 s stationary on the 8-worker UT cluster, so
    every disturbance below lands mid-run.
    """

    platform = staticmethod(lambda: ut_cluster_platform(p=8))
    shape = ProblemShape(r=50, s=80, t=50, q=80)

    def _compare(self, algorithm, scenario, tolerance=None):
        scheduler = section8_scheduler(algorithm)
        platform = scenario.platform
        trace = run_scheduler(
            scheduler, platform, self.shape, scenario=scenario
        )
        estimate = run_scheduler(
            scheduler, platform, self.shape, scenario=scenario,
            engine="model",
        )
        tol = tolerance if tolerance is not None else _scenario_tolerance(scheduler)
        assert rel_err(estimate, trace) <= tol
        # Counts stay exact under rate changes (the schedule's *structure*
        # is rate-independent for static schedulers); demand schedulers
        # may order chunks differently, but totals are conserved.
        summary = summarize_trace(trace)
        assert estimate.total_updates == summary.updates
        return estimate, trace

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_mid_run_slowdown(self, algorithm):
        platform = self.platform()
        scenario = (
            Scenario.stationary(platform)
            .with_slowdown(1, 25.0, 3.0)
            .with_slowdown(2, 50.0, 2.0)
        )
        self._compare(algorithm, scenario)

    @pytest.mark.parametrize("algorithm", ["HoLM", "ORROML", "BMM"])
    def test_brownout(self, algorithm):
        platform = self.platform()
        scenario = (
            Scenario.stationary(platform)
            .with_bandwidth_step(20.0, 2.5)
            .with_bandwidth_step(60.0, 1.0 / 2.5)
        )
        self._compare(algorithm, scenario)

    @pytest.mark.parametrize("algorithm", ["HoLM", "ODDOML", "OBMM"])
    def test_background_congestion(self, algorithm):
        platform = self.platform()
        scenario = Scenario.stationary(platform)
        for i, t in enumerate((15.0, 40.0, 65.0)):
            scenario = scenario.with_background(
                t, 8.0, label=f"burst-{i}"
            )
        self._compare(algorithm, scenario)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_dropout_within_factor(self, algorithm):
        """The degenerate regime: a 50x rate cliff mid-run.

        Point estimates drift (a cliff landing mid-chunk moves whole
        chunks across it), so the bound is a *ratio*: the model must
        stay within a factor of 2 of the simulator — still plenty to
        rank a crippled configuration against healthy ones.
        """
        platform = self.platform()
        scenario = Scenario.stationary(platform).with_slowdown(
            1, 30.0, 50.0
        )
        scheduler = section8_scheduler(algorithm)
        trace = run_scheduler(
            scheduler, platform, self.shape, scenario=scenario
        )
        estimate = run_scheduler(
            scheduler, platform, self.shape, scenario=scenario,
            engine="model",
        )
        ratio = estimate.makespan / trace.work_makespan
        assert 1.0 / TOL_DROPOUT_FACTOR <= ratio <= TOL_DROPOUT_FACTOR


class TestContract:
    """Edges of the model tier's API contract."""

    def test_rejects_numeric_data(self):
        platform = ut_cluster_platform(p=4)
        shape = ProblemShape(r=4, s=8, t=4, q=4)
        data = make_product_instance(shape, seed=0)
        with pytest.raises(ValueError, match="numeric block updates"):
            run_scheduler(
                HoLM(), platform, shape, data=data, engine="model"
            )

    def test_memory_cap_enforced(self):
        shape = ProblemShape(r=4, s=4, t=2, q=2)
        platform = Platform.homogeneous(2, c=1.0, w=1.0, m=10)

        class Oversized(HoLM):
            name = "Oversized"

            def agents(self, platform, shape):
                # mu=4 tile needs 16 C buffers > 10.
                return [AgentSpec(0, tile_chunks(shape, 4), 2)]

        with pytest.raises(RuntimeError, match="memory exceeded"):
            run_model(Oversized(), platform, shape)
        # check_memory=False estimates the over-capacity layout anyway.
        estimate = run_model(
            Oversized(), platform, shape, check_memory=False
        )
        assert estimate.makespan > 0.0

        class OversizedSecond(HoLM):
            name = "OversizedSecond"

            def agents(self, platform, shape):
                # A 1x1 tile fits; the mu=4 tile after it does not.
                chunks = [tile_chunks(shape, 1)[0], tile_chunks(shape, 4)[0]]
                return [AgentSpec(0, chunks, 2)]

        # The check fires when the oversized chunk starts, after the
        # first chunk's C tile has returned at t=7.
        with pytest.raises(RuntimeError) as excinfo:
            run_model(OversizedSecond(), platform, shape)
        assert str(excinfo.value) == (
            "worker P1 memory exceeded: 32 > 10 blocks at t=7"
        )

    def test_scenario_platform_mismatch(self):
        platform = ut_cluster_platform(p=4)
        other = ut_cluster_platform(p=8)
        shape = ProblemShape(r=4, s=8, t=4, q=4)
        with pytest.raises(ValueError):
            run_model(
                HoLM(), platform, shape,
                scenario=Scenario.stationary(other),
            )

    @pytest.mark.parametrize("engine", ["fast", "des", "model"])
    def test_update_totals_are_engine_invariant(self, engine):
        platform = ut_cluster_platform(p=4)
        shape = ProblemShape(r=8, s=16, t=8, q=8)
        result = run_scheduler(HoLM(), platform, shape, engine=engine)
        summary = summarize_trace(result)
        assert summary.updates == shape.total_updates
