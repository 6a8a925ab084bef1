"""Unit tests for the scenario subsystem (model, presets, robustness).

Engine *parity* under scenarios is covered by ``test_fast_parity.py``;
these tests pin the scenario model's semantics, the preset families'
determinism, and the robustness experiment's wiring through the sweep
runner, cache keys and CLI.
"""

import pytest

from repro.blocks import ProblemShape
from repro.engine import run_scheduler
from repro.platform import Platform
from repro.runner.hashing import point_key
from repro.scenarios import (
    SCENARIO_KINDS,
    BackgroundEvent,
    Scenario,
    StepTimeline,
    build_scenario,
    parse_scenario_arg,
    scenario_spec,
)
from repro.schedulers import DDOML, HoLM


class TestStepTimeline:
    def test_value_at_steps(self):
        tl = StepTimeline((0.0, 10.0, 20.0), (1.0, 2.0, 0.5))
        assert tl.value_at(0.0) == 1.0
        assert tl.value_at(9.999) == 1.0
        assert tl.value_at(10.0) == 2.0  # a step applies AT its instant
        assert tl.value_at(15.0) == 2.0
        assert tl.value_at(1e9) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="t=0"):
            StepTimeline((1.0,), (1.0,))
        with pytest.raises(ValueError, match="strictly increase"):
            StepTimeline((0.0, 5.0, 5.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="positive finite"):
            StepTimeline((0.0,), (0.0,))
        with pytest.raises(ValueError, match="positive finite"):
            StepTimeline((0.0,), (float("inf"),))
        with pytest.raises(ValueError, match="equal-length"):
            StepTimeline((0.0, 1.0), (1.0,))

    def test_scaled_from_composes(self):
        tl = StepTimeline.constant(1.0).scaled_from(10.0, 2.0).scaled_from(20.0, 3.0)
        assert tl.value_at(5.0) == 1.0
        assert tl.value_at(10.0) == 2.0
        assert tl.value_at(25.0) == 6.0  # slowdowns compound

    def test_scaled_from_existing_breakpoint(self):
        tl = StepTimeline((0.0, 10.0), (1.0, 2.0)).scaled_from(10.0, 2.0)
        assert tl.value_at(9.0) == 1.0
        assert tl.value_at(10.0) == 4.0

    def test_set_from_truncates(self):
        tl = StepTimeline((0.0, 10.0, 20.0), (1.0, 2.0, 3.0)).set_from(15.0, 9.0)
        assert tl.value_at(10.0) == 2.0
        assert tl.value_at(15.0) == 9.0
        assert tl.value_at(25.0) == 9.0  # the t=20 step was discarded

    def test_identity_detection(self):
        assert StepTimeline.constant(1.0).is_identity
        assert not StepTimeline.constant(2.0).is_identity
        assert not StepTimeline((0.0, 1.0), (1.0, 1.0)).is_identity


class TestScenarioModel:
    @pytest.fixture
    def platform(self):
        return Platform.heterogeneous([1.0, 2.0], [0.5, 0.25], [21, 21])

    def test_stationary_flags(self, platform):
        sc = Scenario.stationary(platform)
        assert sc.is_stationary
        assert not sc.has_rate_variation
        assert "stationary" in sc.describe()

    def test_effective_rates(self, platform):
        sc = Scenario.stationary(platform).with_slowdown(2, 10.0, 3.0)
        assert sc.c_rate(1, 5.0) == 2.0
        assert sc.c_rate(1, 10.0) == 6.0
        assert sc.w_rate(1, 10.0) == 0.75
        assert sc.c_rate(0, 10.0) == 1.0  # other worker untouched
        assert sc.has_rate_variation and not sc.is_stationary

    def test_with_rates_absolute(self, platform):
        sc = (
            Scenario.stationary(platform)
            .with_slowdown(1, 5.0, 4.0)
            .with_rates(1, 10.0, c_factor=2.0)
        )
        assert sc.c_rate(0, 7.0) == 4.0
        assert sc.c_rate(0, 10.0) == 2.0   # absolute, not 8.0
        assert sc.w_rate(0, 10.0) == 2.0   # w untouched by c_factor ⇒ still 4×0.5

    def test_bandwidth_step_hits_everyone(self, platform):
        sc = Scenario.stationary(platform).with_bandwidth_step(3.0, 2.0)
        assert sc.c_rate(0, 3.0) == 2.0 and sc.c_rate(1, 3.0) == 4.0
        assert sc.w_rate(0, 3.0) == 0.5  # compute rates untouched

    def test_worker_bounds(self, platform):
        sc = Scenario.stationary(platform)
        with pytest.raises(ValueError, match="out of range"):
            sc.with_slowdown(0, 1.0, 2.0)
        with pytest.raises(ValueError, match="out of range"):
            sc.with_dropout(3, 1.0)

    def test_background_sorted_and_distinct(self, platform):
        sc = (
            Scenario.stationary(platform)
            .with_background(5.0, 1.0)
            .with_background(2.0, 1.0)
        )
        assert [ev.time for ev in sc.background] == [2.0, 5.0]
        with pytest.raises(ValueError, match="distinct"):
            sc.with_background(5.0, 2.0)
        with pytest.raises(ValueError, match="positive"):
            BackgroundEvent(1.0, 0.0)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), -1.0])
    def test_background_time_must_be_finite_and_nonnegative(self, time):
        """NaN slipped past a bare ``time < 0`` check and placed a hold
        at an undefined time; inf made the trace's makespan infinite."""
        with pytest.raises(ValueError, match="finite and >= 0"):
            BackgroundEvent(time, 1.0)

    def test_factor_count_must_match_platform(self, platform):
        with pytest.raises(ValueError, match="cover all"):
            Scenario(platform, c_factors=(StepTimeline.constant(),))

    def test_slowdown_slows_the_simulation(self, platform):
        shape = ProblemShape(r=4, s=4, t=3, q=2)
        base = run_scheduler(HoLM(), platform, shape).makespan
        slowed = run_scheduler(
            HoLM(), platform, shape,
            scenario=Scenario.stationary(platform).with_bandwidth_step(0.0, 3.0),
        ).makespan
        assert slowed > base

    def test_work_makespan_ignores_background_tail(self, platform):
        """A background hold outlasting the real work extends makespan
        but not work_makespan — the degradation metric's foundation."""
        shape = ProblemShape(r=4, s=4, t=3, q=2)
        base = run_scheduler(HoLM(), platform, shape)
        assert base.work_makespan == base.makespan  # no background: equal
        tail = (
            Scenario.stationary(platform)
            .with_background(base.makespan * 0.99, base.makespan)
        )
        trace = run_scheduler(HoLM(), platform, shape, scenario=tail)
        assert trace.makespan > base.makespan * 1.5   # the hold's own end
        assert trace.work_makespan < base.makespan * 1.5  # work barely moved

    def test_dropout_terminates_with_finite_makespan(self, platform):
        import math

        shape = ProblemShape(r=4, s=4, t=3, q=2)
        trace = run_scheduler(
            DDOML(), platform, shape,
            scenario=Scenario.stationary(platform).with_dropout(1, 2.0),
        )
        assert math.isfinite(trace.makespan)
        assert trace.total_updates == shape.total_updates


class TestPresets:
    @pytest.fixture
    def platform(self):
        return Platform.homogeneous(4, c=1.0, w=0.5, m=21)

    def test_spec_roundtrip_and_validation(self):
        spec = scenario_spec("dropout", 0.5, horizon=100.0, seed=3)
        assert spec["scenario_kind"] == "dropout"
        with pytest.raises(ValueError, match="unknown scenario kind"):
            scenario_spec("meteor", 0.5, 1.0)
        with pytest.raises(ValueError, match="severity"):
            scenario_spec("drift", 1.5, 1.0)

    def test_build_is_deterministic(self, platform):
        for kind in SCENARIO_KINDS:
            spec = scenario_spec(kind, 0.7, horizon=50.0, seed=9)
            a = build_scenario(platform, spec)
            b = build_scenario(platform, spec)
            assert a.c_factors == b.c_factors
            assert a.w_factors == b.w_factors
            assert a.background == b.background

    def test_zero_severity_is_stationary(self, platform):
        for kind in SCENARIO_KINDS:
            sc = build_scenario(platform, scenario_spec(kind, 0.0, 10.0))
            assert sc.is_stationary, kind

    def test_families_have_their_signature(self, platform):
        horizon = 40.0
        drift = build_scenario(platform, scenario_spec("drift", 1.0, horizon))
        assert drift.has_rate_variation and not drift.background
        # adverse drift: factors never speed a worker up
        assert all(v >= 1.0 for tl in drift.c_factors for v in tl.values)
        dropout = build_scenario(platform, scenario_spec("dropout", 1.0, horizon))
        assert dropout.has_rate_variation
        congestion = build_scenario(
            platform, scenario_spec("congestion", 1.0, horizon)
        )
        assert congestion.background and not congestion.has_rate_variation
        brownout = build_scenario(platform, scenario_spec("brownout", 1.0, horizon))
        assert any(len(tl.times) == 3 for tl in brownout.c_factors)

    def test_randomwalk_is_adverse_and_bounded(self, platform):
        for severity in (0.25, 0.5, 1.0):
            walk = build_scenario(
                platform, scenario_spec("randomwalk", severity, 40.0, seed=3)
            )
            assert walk.has_rate_variation and not walk.background
            ceiling = 1.0 + 9.0 * severity
            for tl in (*walk.c_factors, *walk.w_factors):
                assert all(1.0 <= v <= ceiling for v in tl.values)
            # every worker's rates are re-pinned over the horizon
            assert all(len(tl.times) > 1 for tl in walk.c_factors)

    def test_randomwalk_severity_widens_the_walk(self, platform):
        spread = {}
        for severity in (0.25, 1.0):
            walk = build_scenario(
                platform, scenario_spec("randomwalk", severity, 40.0, seed=3)
            )
            spread[severity] = max(
                v for tl in walk.c_factors for v in tl.values
            )
        assert spread[1.0] > spread[0.25]

    def test_multidrop_is_a_correlated_cascade(self, platform):
        multi = build_scenario(
            platform, scenario_spec("multidrop", 1.0, 40.0, seed=3)
        )
        assert multi.has_rate_variation and not multi.background
        # a contiguous victim block starting at worker 1, others untouched
        degraded = [
            i for i, tl in enumerate(multi.c_factors) if not tl.is_identity
        ]
        assert degraded == list(range(len(degraded)))
        assert len(degraded) >= 2  # multi-worker by construction
        # correlated onsets: all victims drop within the small lag window
        onsets = [multi.c_factors[i].times[-1] for i in degraded]
        assert max(onsets) - min(onsets) <= 0.06 * 40.0
        # bounded factors keep degradation ratios finite
        assert all(
            v <= 25.0 for i in degraded for v in multi.c_factors[i].values
        )

    @pytest.mark.parametrize("kind", ["randomwalk", "multidrop"])
    def test_new_kinds_fast_des_parity(self, kind):
        """The new families ride the shared StepTimeline tables, so the
        fast engine must replay the DES oracle byte-for-byte."""
        from repro.analysis.metrics import summarize_trace
        from repro.engine import run_scheduler
        from repro.platform.named import ut_cluster_platform
        from repro.schedulers import section8_scheduler
        from repro.workloads import ProblemShape

        platform = ut_cluster_platform(p=8, memory_mb=512.0, q=80)
        shape = ProblemShape(r=6, s=6, t=50, q=80)
        spec = scenario_spec(kind, 1.0, horizon=3.3, seed=3)
        makespans = {}
        for engine in ("fast", "des"):
            trace = run_scheduler(
                section8_scheduler("DDOML"),
                build_scenario(platform, spec),
                shape,
                engine=engine,
            )
            makespans[engine] = summarize_trace(trace).makespan
        assert makespans["fast"] == makespans["des"]
        # and the family actually disturbs the run
        stationary = run_scheduler(
            section8_scheduler("DDOML"), platform, shape, engine="fast"
        )
        assert makespans["fast"] > summarize_trace(stationary).makespan

    def test_new_kinds_model_envelope(self):
        """Loose envelope: the analytic model tracks the fast engine on
        the new families (demand-driven tolerance, cf.
        tests/test_model_envelope.py)."""
        from repro.analysis.metrics import summarize_trace
        from repro.engine import run_scheduler
        from repro.platform.named import ut_cluster_platform
        from repro.schedulers import section8_scheduler
        from repro.workloads import ProblemShape

        platform = ut_cluster_platform(p=8, memory_mb=512.0, q=80)
        shape = ProblemShape(r=6, s=6, t=50, q=80)
        for kind in ("randomwalk", "multidrop"):
            spec = scenario_spec(kind, 0.5, horizon=3.3, seed=3)
            oracle = summarize_trace(
                run_scheduler(
                    section8_scheduler("DDOML"),
                    build_scenario(platform, spec),
                    shape,
                    engine="fast",
                )
            ).makespan
            estimate = run_scheduler(
                section8_scheduler("DDOML"),
                build_scenario(platform, spec),
                shape,
                engine="model",
            ).makespan
            assert abs(estimate - oracle) / oracle <= 0.40, kind

    def test_bad_horizon_rejected(self, platform):
        with pytest.raises(ValueError, match="horizon"):
            build_scenario(
                platform,
                {"scenario_kind": "drift", "scenario_severity": 0.5,
                 "scenario_horizon": 0.0},
            )

    def test_parse_scenario_arg(self):
        assert parse_scenario_arg("dropout") == ("dropout", None)
        assert parse_scenario_arg("drift:0.5") == ("drift", 0.5)
        with pytest.raises(ValueError, match="unknown scenario kind"):
            parse_scenario_arg("bogus")
        with pytest.raises(ValueError, match="severity"):
            parse_scenario_arg("drift:2.0")


class TestRobustnessExperiment:
    def test_rows_smoke(self):
        from repro.experiments import robustness

        rows = robustness.run(scale=8, kinds=("dropout",), severities=(1.0,))
        assert len(rows) == len(robustness.ALGORITHMS)
        for row in rows:
            assert row["base_makespan_s"] > 0
            assert row["degradation"] == pytest.approx(
                row["makespan_s"] / row["base_makespan_s"]
            )
        # dropping out half the cluster at full severity must bite
        assert max(r["degradation"] for r in rows) > 1.5

    def test_library_run_writes_nothing(self):
        """``run()`` passes no cache, so not even the stationary
        baselines may reach the default store."""
        import os
        from pathlib import Path

        from repro.experiments import robustness

        robustness.run(scale=8, kinds=("dropout",), severities=(0.25,))
        assert not any(Path(os.environ["REPRO_CACHE_DIR"]).iterdir())

    def test_scenario_params_enter_cache_key(self):
        from repro.experiments import robustness

        sweep = robustness.sweep(scale=8)
        points = sweep.points
        assert all("scenario_kind" in p and "severity" in p for p in points)
        keys = {point_key(sweep.name, p, code="c0") for p in points}
        assert len(keys) == len(points)  # kind/severity/algorithm all keyed

    def test_campaign_scenario_filter(self):
        from repro.experiments import campaign_for, robustness

        campaign = campaign_for("robustness", scale=8, scenario="dropout:0.5")
        (sweep,) = campaign.sweeps
        kinds = {p["scenario_kind"] for p in sweep.points}
        sevs = {p["severity"] for p in sweep.points}
        assert kinds == {"dropout"} and sevs == {0.5}
        with pytest.raises(ValueError, match="baseline"):
            robustness.campaign(scenario="stationary")

    def test_cli_rejects_bad_scenario(self, capsys):
        from repro.__main__ import main

        assert main(["sweep", "robustness", "--scenario", "bogus"]) == 2
        assert "bad --scenario" in capsys.readouterr().out
        # 'stationary' parses but the robustness campaign refuses it:
        # still a clean exit 2, never a traceback mid-run.
        assert main(["sweep", "robustness", "--scenario", "stationary"]) == 2
        assert "bad arguments" in capsys.readouterr().out

    def test_cli_sweep_runs_and_warms(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "sweep", "robustness", "--scale", "8", "--quiet",
            "--scenario", "brownout:1.0", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "robustness" in cold and "0 cached" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 computed" in warm
