"""Tests for the pluggable execution backends (repro.runner.backends).

Covers serial/process byte-identity (synthetic sweeps and every
registered experiment at smoke scale), warm-worker reuse across sweeps,
once-per-worker function shipping, batching order, per-point failure
isolation, and the unshippable-function fallback.
"""

import functools
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import ALL_EXPERIMENTS, campaign_for
from repro.runner import (
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    Sweep,
    SweepPointError,
    create_backend,
    resolve_backend,
    run_campaign,
    run_sweep,
)

BACKEND_NAMES = ("serial", "process")


def _square_point(params):
    return {"x": params["x"], "square": params["x"] ** 2}


def _pid_point(params):
    return {"x": params["x"], "pid": os.getpid()}


def _flaky_point(params):
    if params["x"] == 2:
        raise RuntimeError("boom at x=2")
    return {"x": params["x"]}


def _touch_probe(path, token=None):
    """Append one line to ``path``; used as the resolve probe."""
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")


def _sweep(n=8, name="bk"):
    return Sweep(
        name=name,
        run_fn=_square_point,
        points=tuple({"x": x} for x in range(n)),
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BACKEND_NAMES) <= set(BACKENDS)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            create_backend("quantum")

    def test_resolve_auto(self):
        backend, owned = resolve_backend(None, jobs=1)
        assert isinstance(backend, SerialBackend) and owned
        backend, owned = resolve_backend("auto", jobs=4)
        assert isinstance(backend, ProcessBackend) and owned

    def test_resolve_instance_not_owned(self):
        inst = SerialBackend()
        backend, owned = resolve_backend(inst, jobs=4)
        assert backend is inst and not owned

    def test_backends_load_by_name(self):
        """``BACKENDS`` names each backend's module: importing the runner
        loads none but the contract, building ``serial`` loads only its
        own, and the runner serves every class as the defining module's."""
        script = (
            "import json, sys\n"
            "import repro.runner as runner\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('repro.runner.backends.'))\n"
            "out = {'names': sorted(runner.BACKENDS), 'import': loaded()}\n"
            "runner.create_backend('serial').close()\n"
            "out['serial'] = loaded()\n"
            "out['multiprocessing'] = 'multiprocessing' in sys.modules\n"
            "try:\n"
            "    runner.create_backend('quantum')\n"
            "except ValueError as exc:\n"
            "    out['unknown'] = str(exc)\n"
            "out['built'] = {}\n"
            "for name in runner.BACKENDS:\n"
            "    backend = runner.create_backend(name, jobs=2)\n"
            "    out['built'][name] = backend.name\n"
            "    backend.close()\n"
            "from repro.runner import ChaosSpec, ProcessBackend\n"
            "from repro.runner.backends import chaos, process\n"
            "out['same'] = [ChaosSpec is chaos.ChaosSpec,\n"
            "    ProcessBackend is process.ProcessBackend]\n"
            "import repro.simple.thrifty\n"
            "from repro.simple import thrifty\n"
            "out['thrifty'] = thrifty is sys.modules['repro.simple.thrifty'].thrifty\n"
            "print(json.dumps(out))\n"
        )
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        out = json.loads(subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.splitlines()[-1])
        names = ["chaos", "process", "serial"]
        assert out["names"] == names
        assert out["import"] == ["repro.runner.backends.base"]
        assert out["serial"] == [
            "repro.runner.backends.base", "repro.runner.backends.serial"
        ]
        assert out["multiprocessing"] is False
        assert out["unknown"] == (
            "unknown execution backend 'quantum'; "
            "available: chaos, process, serial"
        )
        assert out["built"] == {name: name for name in names}
        assert out["same"] == [True] * 2
        assert out["thrifty"] is True


class TestByteIdentity:
    """Acceptance: both backends produce byte-identical rows."""

    def test_synthetic_sweep(self):
        reference = run_sweep(_sweep(), backend="serial")
        with create_backend("process", jobs=3) as backend:
            result = run_sweep(_sweep(), backend=backend)
        assert json.dumps(result.rows) == json.dumps(reference.rows)

    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_every_experiment_smoke_scale(self, name):
        """Serial and process rows match on every registered
        experiment (smoke scale, truncated to the first points of each
        sweep to keep the matrix fast)."""
        campaign = campaign_for(name, scale=8)
        sweeps = tuple(
            Sweep(
                name=s.name,
                run_fn=s.run_fn,
                points=s.points[:3],
                aggregate=s.aggregate,
                title=s.title,
            )
            for s in campaign.sweeps
        )
        rows = {}
        for backend_name in BACKEND_NAMES:
            with create_backend(backend_name, jobs=2) as backend:
                result = run_campaign(
                    type(campaign)(campaign.name, sweeps), backend=backend
                )
            rows[backend_name] = json.dumps(
                [s.rows for s in result.sweeps], sort_keys=True
            )
        assert rows["process"] == rows["serial"]


class TestPoolReuse:
    def test_workers_survive_across_sweeps(self):
        """The same worker pool serves every sweep of a campaign: across
        two maps at most ``jobs`` distinct processes ever run a point
        (a pool per sweep would show up to ``2 * jobs``)."""
        points = tuple({"x": x} for x in range(8))
        with ProcessBackend(jobs=2) as backend:
            first = [t.value["pid"] for t in backend.map(_pid_point, points)]
            second = [t.value["pid"] for t in backend.map(_pid_point, points)]
        assert first and second
        assert len(set(first) | set(second)) <= 2
        assert os.getpid() not in set(first) | set(second)  # really pooled

    def test_function_resolved_once_per_worker(self, tmp_path):
        """Two sweeps through warm workers resolve the point function at
        most once per worker — tasks never re-ship it."""
        probe_file = tmp_path / "resolves.txt"
        probe = functools.partial(_touch_probe, str(probe_file))
        points = tuple({"x": x} for x in range(12))
        with ProcessBackend(jobs=2, resolve_probe=probe) as backend:
            list(backend.map(_square_point, points))
            list(backend.map(_square_point, points))
        resolves = probe_file.read_text().splitlines()
        assert 1 <= len(resolves) <= 2  # once per worker, not per task/sweep
        assert len(set(resolves)) == len(resolves)

    def test_unshippable_function_falls_back_inline(self):
        """Closures have no importable address; the process backend
        must still evaluate them (inline) rather than fail or run the
        wrong code."""
        seen = []

        def closure_point(params):
            seen.append(params["x"])
            return params["x"] * 2

        points = tuple({"x": x} for x in range(4))
        with ProcessBackend(jobs=2) as backend:
            values = [t.value for t in backend.map(closure_point, points)]
        assert values == [0, 2, 4, 6]
        assert seen == [0, 1, 2, 3]  # ran in this process

    def test_batching_preserves_order(self):
        points = tuple({"x": x} for x in range(23))
        with ProcessBackend(jobs=3, batch_size=4) as backend:
            values = [t.value["x"] for t in backend.map(_square_point, points)]
        assert values == list(range(23))

    def test_close_and_reuse(self):
        points = tuple({"x": x} for x in range(4))
        backend = ProcessBackend(jobs=2)
        first = [t.value for t in backend.map(_square_point, points)]
        backend.close()
        second = [t.value for t in backend.map(_square_point, points)]
        backend.close()
        assert first == second


class TestErrorIsolation:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_keep_records_error_and_continues(self, name):
        sweep = Sweep(
            name="flaky",
            run_fn=_flaky_point,
            points=tuple({"x": x} for x in range(5)),
        )
        with create_backend(name, jobs=2) as backend:
            result = run_sweep(sweep, backend=backend, on_error="keep")
        statuses = [o.status for o in result.outcomes]
        assert statuses == ["ok", "ok", "error", "ok", "ok"]
        assert result.errors == 1
        failed = result.outcomes[2]
        assert failed.value is None and "boom at x=2" in failed.error
        assert result.rows == [{"x": 0}, {"x": 1}, {"x": 3}, {"x": 4}]

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_raise_policy_raises_sweep_point_error(self, name):
        sweep = Sweep(
            name="flaky",
            run_fn=_flaky_point,
            points=tuple({"x": x} for x in range(5)),
        )
        with create_backend(name, jobs=2) as backend:
            with pytest.raises(SweepPointError, match="boom at x=2"):
                run_sweep(sweep, backend=backend)

    def test_persistent_pool_survives_completed_sweeps(self):
        """Regression: run_sweep's generator close() after a fully
        served sweep must not be mistaken for an abort — the warm pool
        stays up across sweeps (the backend's whole point)."""
        backend = ProcessBackend(jobs=2)
        try:
            run_sweep(_sweep(n=8), backend=backend)
            workers = list(backend._workers)
            assert workers and backend.worker_pids()
            run_sweep(_sweep(n=8), backend=backend)
            # same worker processes, still warm — no respawn happened
            assert list(backend._workers) == workers
            assert backend.respawns == 0
        finally:
            backend.close()

    def test_persistent_abort_drops_queued_batches(self):
        """Abandoning an errored pool sweep must not silently
        drain the queued batches first: the pool is terminated and the
        next map starts a fresh one."""
        sweep = Sweep(
            name="flaky",
            run_fn=_flaky_point,
            points=tuple({"x": x} for x in range(40)),
        )
        backend = ProcessBackend(jobs=2, batch_size=1)
        try:
            with pytest.raises(SweepPointError):
                run_sweep(sweep, backend=backend)
            assert not backend.worker_pids()  # terminated, not drained
            # The backend is still usable afterwards.
            ok = run_sweep(_sweep(n=4), backend=backend)
            assert [o.value["x"] for o in ok.outcomes] == [0, 1, 2, 3]
        finally:
            backend.close()

    def test_serial_chains_original_exception(self):
        sweep = Sweep(name="flaky", run_fn=_flaky_point, points=({"x": 2},))
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(sweep, backend="serial")
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_keep_passes_positional_holes_to_aggregate(self):
        """A custom aggregate sees failed points as the FAILED sentinel
        in their original slots — later values never shift into earlier
        ones, and a legitimate None result is never mistaken for one."""
        from repro.runner import FAILED

        seen = []

        def aggregate(values):
            seen.append(list(values))
            return [v["x"] for v in values if v is not FAILED]

        sweep = Sweep(
            name="flaky",
            run_fn=_flaky_point,
            points=tuple({"x": x} for x in range(4)),
            aggregate=aggregate,
        )
        result = run_sweep(sweep, on_error="keep")
        assert seen == [[{"x": 0}, {"x": 1}, FAILED, {"x": 3}]]
        assert result.rows == [0, 1, 3]

    def test_legitimate_none_results_survive_default_aggregation(self):
        """A point function may validly return None; the default
        aggregation must keep it (only FAILED holes are dropped)."""

        def maybe_none(params):
            return None if params["x"] == 1 else params["x"]

        sweep = Sweep(
            name="nones",
            run_fn=maybe_none,
            points=tuple({"x": x} for x in range(3)),
        )
        result = run_sweep(sweep)
        assert result.rows == [0, None, 2]

    def test_keep_falls_back_when_aggregate_rejects_holes(self):
        """A positional aggregate that chokes on the None holes (e.g.
        indexing into a failed row) must not crash the sweep: the
        successful values publish unaggregated."""

        def positional(values):
            return [values[0]["x"], values[2]["x"]]  # blows up on None

        sweep = Sweep(
            name="flaky",
            run_fn=_flaky_point,
            points=tuple({"x": x} for x in range(4)),
            aggregate=positional,
        )
        result = run_sweep(sweep, on_error="keep")
        assert result.errors == 1
        assert result.rows == [{"x": 0}, {"x": 1}, {"x": 3}]

    def test_errored_points_are_not_cached(self, tmp_path):
        from repro.runner import ResultCache

        cache = ResultCache(tmp_path)
        sweep = Sweep(
            name="flaky",
            run_fn=_flaky_point,
            points=tuple({"x": x} for x in range(5)),
        )
        result = run_sweep(sweep, cache=cache, on_error="keep", code="v1")
        assert result.errors == 1
        assert cache.stats().entries == 4  # the four successes only
        # A resume re-runs exactly the failed point.
        again = run_sweep(
            sweep, cache=cache, on_error="keep", code="v1", resume=True
        )
        assert again.hits == 4 and again.misses == 1


class TestStreamingProgress:
    def test_progress_streams_before_later_points_compute(self, tmp_path):
        """Outcome k's progress event fires before point k+1 runs on the
        serial backend — progress is a stream, not a post-hoc replay."""
        order = []

        def point(params):
            order.append(("run", params["x"]))
            return params["x"]

        sweep = Sweep(
            name="stream",
            run_fn=point,
            points=tuple({"x": x} for x in range(3)),
        )
        run_sweep(
            sweep, progress=lambda ev: order.append(("progress", ev.index))
        )
        assert order == [
            ("run", 0), ("progress", 0),
            ("run", 1), ("progress", 1),
            ("run", 2), ("progress", 2),
        ]

    def test_progress_status_field(self):
        events = []
        sweep = Sweep(
            name="flaky",
            run_fn=_flaky_point,
            points=tuple({"x": x} for x in range(4)),
        )
        run_sweep(sweep, on_error="keep", progress=events.append)
        assert [e.status for e in events] == ["ok", "ok", "error", "ok"]


def _experiment_sweep(name):
    if name == "fig10":
        from repro.experiments import fig10

        return fig10.sweep(scale=8)
    if name == "fig11":
        from repro.experiments import fig11

        return fig11.sweep(runs=2, scale=16)
    if name == "table1":
        from repro.experiments import table1

        return table1.sweep()
    from repro.experiments import robustness

    return robustness.sweep(scale=8, kinds=("drift",), severities=(0.5,))


class TestExperimentBackendParity:
    """Whole experiment sweeps: every backend's rows equal serial's."""

    @pytest.mark.parametrize(
        "experiment", ("fig10", "fig11", "table1", "robustness")
    )
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_tables_byte_identical(
        self, experiment, backend, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reference = run_sweep(_experiment_sweep(experiment), backend="serial")
        with create_backend(backend, jobs=2) as exec_backend:
            result = run_sweep(
                _experiment_sweep(experiment), backend=exec_backend
            )
        assert json.dumps(result.rows) == json.dumps(reference.rows)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="inheritance through fork needs the fork start method",
)
class TestForkInheritance:
    """The parent loads the simulation stack lazily; the fork point
    loads it before forking so pool workers inherit it."""

    def test_forked_workers_inherit_the_simulation_stack(self):
        script = (
            "import json, os, sys\n"
            "from repro.runner import ProcessBackend, Sweep, run_sweep\n"
            "def probe(params):\n"
            "    return {'pid': os.getpid(), 'numpy': 'numpy' in sys.modules}\n"
            "assert 'numpy' not in sys.modules\n"
            "swp = Sweep('fork-probe', probe, ({'i': 0}, {'i': 1}))\n"
            "rows = run_sweep(swp, backend=ProcessBackend(jobs=2)).rows\n"
            "print(json.dumps([os.getpid(), rows]))\n"
        )
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        parent, rows = json.loads(out.splitlines()[-1])
        assert len(rows) == 2
        assert all(row["pid"] != parent for row in rows)
        assert [row["numpy"] for row in rows] == [True, True]
