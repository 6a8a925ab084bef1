"""Tests for the fault-tolerance layer (ISSUE 7).

Covers the tentpole surface: RetryPolicy determinism and validation,
per-point timeouts, the max-failures circuit breaker with its
structured report, quarantine lifecycle in the cache manifest, the
ChaosBackend fault injector (including real worker SIGKILLs healed by
the process pool), the byte-invisibility of the inert policy, and
crash recovery of a sweep whose worker is killed externally mid-run.
"""

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    ChaosBackend,
    ChaosFault,
    ChaosSpec,
    CircuitOpenError,
    ResultCache,
    RetryPolicy,
    Sweep,
    SweepPointError,
    create_backend,
    run_sweep,
)
from repro.runner.backends.chaos import decide

BACKEND_NAMES = ("serial", "process")


def _square_point(params):
    return {"x": params["x"], "square": params["x"] ** 2}


def _slow_point(params):
    time.sleep(params.get("sleep", 0.05))
    return {"x": params["x"]}


def _bulky_point(params):
    """A result far larger than a pipe buffer: sending it blocks until
    the parent reads."""
    return {"x": params["x"], "pad": "y" * 512_000}


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@contextlib.contextmanager
def _time_limit(seconds):
    """Fail (instead of hanging the suite) when the body overruns."""

    def overrun(signum, frame):
        raise AssertionError(f"still running after {seconds}s: deadlock?")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _sweep(n=8, name="ft", fn=_square_point, **extra):
    return Sweep(
        name=name, run_fn=fn, points=tuple({"x": x, **extra} for x in range(n))
    )


def _entry_shapes(cache, sweep):
    """Every stored record minus its write timestamp, for byte-identity."""
    out = {}
    for path in sorted((cache.root / sweep).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                record.pop("created")
                out[record["key"]] = record
    return out


class TestRetryPolicy:
    def test_inert_by_default(self):
        assert not RetryPolicy().active
        assert RetryPolicy(retries=1).active
        assert RetryPolicy(timeout=1.0).active
        assert RetryPolicy(max_failures=1).active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"retries": -1},
            {"backoff": -0.1},
            {"jitter": 1.5},
            {"timeout": 0.0},
            {"max_failures": 0},
            {"timeout": float("nan")},
            {"timeout": float("inf")},
            {"retries": 1, "backoff": float("nan")},
            {"retries": 1, "backoff_cap": float("nan")},
            {"retries": 1, "backoff": float("inf")},
            {"retries": 1, "backoff": float("inf"), "backoff_cap": float("inf")},
            {"retries": 1, "backoff_cap": float("-inf")},
            {"retries": float("nan")},
            {"retries": 2.5},
            {"retries": True},
            {"max_failures": float("nan")},
            {"max_failures": 1.5},
            {"timeout": True},
            {"backoff": True},
            {"backoff_cap": True},
            {"jitter": True},
            {"seed": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_delay_deterministic_and_bounded(self):
        policy = RetryPolicy(retries=4, backoff=0.1, backoff_cap=0.3, seed=7)
        delays = [policy.delay(r, "sweep-a") for r in (1, 2, 3, 4)]
        assert delays == [policy.delay(r, "sweep-a") for r in (1, 2, 3, 4)]
        for round_no, delay in enumerate(delays, start=1):
            base = min(0.1 * 2 ** (round_no - 1), 0.3)
            assert base * (1 - policy.jitter) <= delay <= base
        # distinct sweeps desynchronize, distinct seeds too
        assert policy.delay(1, "sweep-b") != delays[0]
        assert RetryPolicy(retries=4, seed=8).delay(1, "sweep-a") != delays[0]

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(retries=3, backoff=0.2, backoff_cap=10.0, jitter=0.0)
        assert [policy.delay(r) for r in (1, 2, 3)] == [0.2, 0.4, 0.8]

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"jitter": 0.0}, {"backoff": 0.0},
         {"backoff": 1e-300, "backoff_cap": 1e300, "jitter": 0.0}],
    )
    def test_delay_matches_the_plain_formula(self, kwargs):
        """Every round that could be computed as ``backoff * 2.0**(r-1)``
        still sleeps exactly that (capped, jittered) amount."""
        policy = RetryPolicy(retries=60, seed=3, **kwargs)

        def plain(round_no):
            base = min(policy.backoff * 2.0 ** (round_no - 1), policy.backoff_cap)
            if base <= 0 or not policy.jitter:
                return max(base, 0.0)
            digest = hashlib.sha256(
                f"{policy.seed}\0sw\0{round_no}".encode()
            ).digest()
            frac = int.from_bytes(digest[:8], "big") / 2.0**64
            return base * (1.0 - policy.jitter * frac)

        for round_no in range(1, 61):
            assert policy.delay(round_no, "sw") == plain(round_no)

    def test_delay_past_float_range_is_capped(self):
        # 2.0 ** 1099 overflows a float; the capped delay does not.
        policy = RetryPolicy(retries=2000, jitter=0.0)
        assert policy.delay(1100) == policy.backoff_cap
        jittered = RetryPolicy(retries=2000).delay(1100, "sw")
        assert 0.75 * 2.0 <= jittered <= 2.0
        assert RetryPolicy(retries=2000, backoff=0.0).delay(1100) == 0.0


class TestChaosSpec:
    def test_parse_roundtrip(self):
        spec = ChaosSpec.parse("fail=0.2,hang=0.1,crash=0.05,hang_s=2,seed=7,sticky=3")
        assert spec == ChaosSpec(
            fail=0.2, hang=0.1, crash=0.05, hang_s=2.0, seed=7, sticky=3
        )
        assert ChaosSpec.parse("fail=0.5,sticky=permanent").sticky == -1
        assert ChaosSpec.parse("seed=-1").seed == -1
        assert not ChaosSpec.parse("").active

    @pytest.mark.parametrize(
        "arg",
        ["fail", "bogus=1", "fail=2.0", "sticky=0", "hang_s=nan", "hang_s=inf",
         "drop=0.1", "seed=permanent"],
    )
    def test_parse_rejects(self, arg):
        with pytest.raises(ValueError):
            ChaosSpec.parse(arg)

    def test_decide_is_deterministic_and_attempt_free(self):
        spec = ChaosSpec(fail=0.5, seed=3)
        points = [{"x": i} for i in range(64)]
        first = [decide(spec, p, 0) for p in points]
        assert first == [decide(spec, p, 0) for p in points]
        assert any(first) and not all(first)  # some faulty, some not
        # sticky=1: every fault clears on attempt 1
        assert all(decide(spec, p, 1) is None for p in points)
        # permanent: never clears
        perm = ChaosSpec(fail=0.5, seed=3, sticky=-1)
        assert [decide(perm, p, 9) for p in points] == first

    def test_severity_order(self):
        spec = ChaosSpec(fail=1.0, hang=1.0, crash=1.0, seed=0)
        assert decide(spec, {"x": 1}, 0) == "crash"


class TestByteInvisibility:
    """The inert policy must not change a single backend call."""

    def test_default_run_issues_historic_map_calls(self):
        calls = []

        class SpyBackend:
            jobs = 1

            def map(self, fn, items, **kwargs):
                calls.append(kwargs)
                from repro.runner.backends.base import run_one

                for params in items:
                    yield run_one(fn, params)

            def close(self):
                pass

        run_sweep(_sweep(), backend=SpyBackend())
        run_sweep(_sweep(), backend=SpyBackend(), retry=RetryPolicy())
        assert calls == [{}, {}]  # no new keywords on the historic path

    def test_transient_chaos_converges_byte_identical(self, tmp_path):
        clean_cache = ResultCache(tmp_path / "clean")
        clean = run_sweep(_sweep(), cache=clean_cache, code="v")
        for name in BACKEND_NAMES:
            chaos_cache = ResultCache(tmp_path / f"chaos-{name}")
            with create_backend(name, jobs=3) as inner:
                backend = ChaosBackend(
                    inner=inner, spec=ChaosSpec(fail=0.4, seed=5)
                )
                result = run_sweep(
                    _sweep(), cache=chaos_cache, code="v", backend=backend,
                    retry=RetryPolicy(retries=2, backoff=0.001),
                    on_error="keep",
                )
            assert result.errors == 0
            assert [o.key for o in result.outcomes] == [
                o.key for o in clean.outcomes
            ]
            assert [o.value for o in result.outcomes] == [
                o.value for o in clean.outcomes
            ]
            assert _entry_shapes(chaos_cache, "ft") == _entry_shapes(
                clean_cache, "ft"
            )
            assert chaos_cache.manifest_keys("ft") == (
                clean_cache.manifest_keys("ft")
            )

    def test_crash_injection_heals_the_pool(self, tmp_path):
        clean = run_sweep(_sweep(16), code="v")
        with create_backend("process", jobs=3) as inner:
            backend = ChaosBackend(
                inner=inner, spec=ChaosSpec(crash=0.2, fail=0.1, seed=11)
            )
            result = run_sweep(
                _sweep(16), code="v", backend=backend,
                retry=RetryPolicy(retries=3, backoff=0.001), on_error="keep",
            )
            respawns = inner.respawns
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]
        assert respawns > 0  # the kills were real


class TestTimeout:
    @pytest.mark.parametrize("name", ("process",))
    def test_hang_reaped_and_retried(self, name):
        """A hang far longer than the timeout costs ~timeout, and the
        sticky=1 retry computes the correct value."""
        clean = run_sweep(_sweep(8), code="v")
        with create_backend(name, jobs=3) as inner:
            backend = ChaosBackend(
                inner=inner, spec=ChaosSpec(hang=0.4, hang_s=30.0, seed=7)
            )
            start = time.perf_counter()
            result = run_sweep(
                _sweep(8), code="v", backend=backend,
                retry=RetryPolicy(retries=1, timeout=0.5, backoff=0.001),
                on_error="keep",
            )
            elapsed = time.perf_counter() - start
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]
        assert elapsed < 10.0  # nowhere near the 30 s hangs

    def test_timeout_without_retries_fails_the_point(self):
        with create_backend("process", jobs=2) as inner:
            backend = ChaosBackend(
                inner=inner, spec=ChaosSpec(hang=1.0, hang_s=30.0, seed=0)
            )
            result = run_sweep(
                _sweep(2), backend=backend,
                retry=RetryPolicy(timeout=0.3), on_error="keep",
            )
        assert result.errors == 2
        assert [o.error for o in result.outcomes] == [
            "PointTimeout: point exceeded the 0.3s wall-clock timeout\n"
            f"params: {{'x': {x}}}\n"
            for x in range(2)
        ]

    def test_serial_backend_ignores_timeout(self):
        # Documented: serial never interrupts a point.
        result = run_sweep(
            _sweep(2, fn=_slow_point, sleep=0.05), backend="serial",
            retry=RetryPolicy(timeout=0.001), on_error="keep",
        )
        assert result.errors == 0


class TestCircuitBreaker:
    def test_breaker_trips_with_structured_report(self, tmp_path):
        cache = ResultCache(tmp_path)
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        with pytest.raises(CircuitOpenError) as excinfo:
            run_sweep(
                _sweep(), cache=cache, code="v", backend=backend,
                retry=RetryPolicy(
                    retries=1, backoff=0.001, max_failures=2
                ),
                on_error="keep",
            )
        report = excinfo.value.report
        assert report.sweep == "ft"
        assert report.max_failures == 2
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure["attempts"] == 2
            assert "ChaosFault" in failure["error"]
        payload = report.to_dict()
        assert json.dumps(payload)  # structured and serialisable
        assert payload["total"] == 8
        assert "circuit breaker opened" in report.render()

    def test_breaker_never_trips_below_threshold(self):
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        result = run_sweep(
            _sweep(), backend=backend,
            retry=RetryPolicy(retries=1, backoff=0.001, max_failures=100),
            on_error="keep",
        )
        assert 0 < result.errors < 8

    def test_on_error_raise_still_wins(self):
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        with pytest.raises(SweepPointError):
            run_sweep(
                _sweep(), backend=backend,
                retry=RetryPolicy(retries=1, backoff=0.001, max_failures=2),
            )


class TestQuarantine:
    def _fail_permanently(self, cache, max_failures=None):
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        return run_sweep(
            _sweep(), cache=cache, code="v", backend=backend,
            retry=RetryPolicy(
                retries=1, backoff=0.001, max_failures=max_failures
            ),
            on_error="keep",
        )

    def test_exhausted_retries_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = self._fail_permanently(cache)
        quarantined = cache.quarantined("ft")
        assert len(quarantined) == result.errors > 0
        for record in quarantined.values():
            assert record["op"] == "quarantine"
            assert "ChaosFault" in record["error"]
            assert "x" in record["params"]
        # quarantined keys are not in the live index: no result to serve
        assert not set(quarantined) & cache.manifest_keys("ft")
        stats = cache.stats()
        assert stats.quarantined == len(quarantined)
        assert stats.per_sweep == (("ft", stats.entries, stats.quarantined),)

    def test_no_quarantine_without_retry_budget(self, tmp_path):
        """retries=0 keeps the historic contract: failed points stay
        uncached and unquarantined, resume recomputes them."""
        cache = ResultCache(tmp_path)
        backend = ChaosBackend(
            inner="serial", spec=ChaosSpec(fail=0.5, seed=3, sticky=-1)
        )
        result = run_sweep(
            _sweep(), cache=cache, code="v", backend=backend, on_error="keep"
        )
        assert result.errors > 0
        assert cache.quarantined("ft") == {}

    def test_resume_skips_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = self._fail_permanently(cache)
        result = run_sweep(
            _sweep(), cache=cache, code="v", resume=True, on_error="keep",
            retry=RetryPolicy(retries=1, backoff=0.001),
        )
        assert result.quarantined == first.errors
        assert result.errors == 0
        assert result.misses == 0  # nothing recomputed
        assert result.hits == 8 - first.errors
        statuses = {o.status for o in result.outcomes}
        assert statuses == {"ok", "quarantined"}

    def test_retry_quarantined_clears_on_success(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = self._fail_permanently(cache)
        assert cache.quarantined("ft")
        # clean backend this time: the points compute and clear
        result = run_sweep(
            _sweep(), cache=cache, code="v", resume=True,
            retry_quarantined=True,
            retry=RetryPolicy(retries=1, backoff=0.001), on_error="keep",
        )
        assert result.errors == result.quarantined == 0
        assert result.misses == first.errors
        assert cache.quarantined("ft") == {}
        assert cache.stats().quarantined == 0
        assert len(cache.manifest_keys("ft")) == 8

    def test_torn_line_beside_quarantine_keeps_it(self, tmp_path):
        """A torn line next to a quarantine record must not amnesty the
        point: the resume still skips it."""
        cache = ResultCache(tmp_path)
        first = self._fail_permanently(cache)
        before = cache.quarantined("ft")
        assert before
        for key in before:
            path = tmp_path / "ft" / f"{key[:2]}.jsonl"
            with open(path, "a") as handle:
                handle.write('{"op":"put","key":"' + key + '","resu')
        fresh = ResultCache(tmp_path)
        assert fresh.quarantined("ft") == before
        assert len(fresh.manifest_keys("ft")) == 8 - first.errors
        result = run_sweep(
            _sweep(), cache=fresh, code="v", resume=True, on_error="keep",
            retry=RetryPolicy(retries=1, backoff=0.001),
        )
        assert result.quarantined == first.errors and result.misses == 0

    def test_breaker_leaves_quarantine_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(CircuitOpenError):
            self._fail_permanently(cache, max_failures=2)
        assert len(cache.quarantined("ft")) == 2


class TestCrashRecovery:
    """Acceptance: kill -9 of a worker mid-sweep costs only requeues."""

    def test_external_sigkill_mid_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = _sweep(16, fn=_slow_point, sleep=0.05)
        clean = run_sweep(sweep, code="v")
        killed = []

        with _time_limit(60), create_backend("process", jobs=2) as backend:
            def assassin(event):
                if not killed and event.index >= 1:
                    victims = backend.worker_pids()
                    os.kill(victims[0], signal.SIGKILL)
                    killed.append(victims[0])

            result = run_sweep(
                sweep, cache=cache, code="v", backend=backend,
                progress=assassin,
            )
            assert killed, "test never fired the kill"
            assert backend.respawns >= 1

        # the sweep completed correctly despite the murder
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]
        # segment integrity: parsable, no torn lines, no duplicates
        lines = [
            line
            for path in sorted((tmp_path / "ft").glob("*.jsonl"))
            for line in path.read_text().splitlines()
        ]
        records = [json.loads(line) for line in lines if line.strip()]
        put_keys = [r["key"] for r in records if r["op"] == "put"]
        assert len(put_keys) == len(set(put_keys)) == 16
        # resume recomputes nothing
        again = run_sweep(sweep, cache=cache, code="v", resume=True)
        assert again.hits == 16 and again.misses == 0

    def test_injected_crash_kills_workers_that_load_chaos_first(self):
        """Backend modules load on first use, so a pool worker can be the
        first process to import the chaos module.  Its never-kill PID
        must still be the orchestrator's: the injected crash is a real
        SIGKILL that the pool heals, not an inline ``ChaosFault``."""
        script = (
            "import json, sys\n"
            "from repro.runner.backends.process import ProcessBackend\n"
            "from repro.runner.hashing import canonical_params\n"
            "assert 'repro.runner.backends.chaos' not in sys.modules\n"
            "wrap = ('repro.runner.backends.chaos', 'chaos_wrap',\n"
            "        {'spec': {'crash': 1.0}, 'attempt': 0, 'kill': True})\n"
            "with ProcessBackend(jobs=2) as backend:\n"
            "    results = list(backend.map(canonical_params,\n"
            "                   [{'x': i} for i in range(4)], wrap=wrap))\n"
            "    respawns = backend.respawns\n"
            "print(json.dumps([[r.error for r in results], respawns]))\n"
        )
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        ).stdout
        errors, respawns = json.loads(out.splitlines()[-1])
        assert errors == [None] * 4
        assert respawns >= 1

    def test_worker_killed_mid_send_does_not_stall_survivors(self):
        """A worker killed while writing a result must cost only its own
        batch.  The parent pauses in the progress callback, so both
        workers block mid-way through sending a result bigger than a
        pipe buffer (or wait to send it); then both are killed.  Over a
        result channel shared under a lock, one of them dies holding
        the lock and the respawned workers can never report."""
        sweep = _sweep(8, fn=_bulky_point)
        clean = run_sweep(sweep, code="v")
        killed = []

        with _time_limit(60), create_backend("process", jobs=2) as backend:
            def assassin(event):
                if not killed:
                    time.sleep(0.3)
                    for victim in backend.worker_pids():
                        os.kill(victim, signal.SIGKILL)
                        killed.append(victim)

            result = run_sweep(
                sweep, code="v", backend=backend, progress=assassin
            )
            assert len(killed) == 2 and backend.respawns >= 2
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]

    def test_workers_exit_when_their_owner_is_sigkilled(self):
        """A SIGKILLed pool owner never sends the shutdown sentinel: its
        workers must notice the reparenting and exit on their own
        instead of waiting on a dead queue forever."""
        script = (
            "import json, sys, time\n"
            "from repro.runner.backends.process import ProcessBackend\n"
            "from repro.runner.hashing import canonical_params\n"
            "backend = ProcessBackend(jobs=2)\n"
            "list(backend.map(canonical_params, [{'x': i} for i in range(4)]))\n"
            "print(json.dumps(backend.worker_pids()), flush=True)\n"
            "time.sleep(60)\n"
        )
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_WORKER_ORPHAN_POLL_S"] = "0.2"
        owner = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, text=True,
        )
        alive = []
        try:
            with _time_limit(60):
                workers = json.loads(owner.stdout.readline())
                assert len(workers) == 2
                owner.send_signal(signal.SIGKILL)
                owner.wait(timeout=10)
                deadline = time.monotonic() + 10
                alive = workers
                while alive and time.monotonic() < deadline:
                    alive = [pid for pid in alive if _pid_alive(pid)]
                    time.sleep(0.1)
                assert not alive, f"orphaned workers survived: {alive}"
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait(timeout=10)
            owner.stdout.close()
            for pid in alive:  # a failed run must not leak its workers
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


class _Terminated(BaseException):
    """What the CLI's ``sweep`` SIGTERM handler raises."""


def _raise_terminated(signum, frame):
    raise _Terminated()


class TestWorkerSignals:
    def test_raising_sigterm_handler_never_stalls_pool_teardown(self):
        """``ProcessBackend.terminate`` SIGTERMs the pool's workers.
        Forked under a parent whose SIGTERM handler raises, a worker
        could unwind while holding its task queue's lock, or drop the
        exception inside an after-fork hook and live on, and the
        parent's join then waited forever.  Each iteration below
        builds a pool, maps, and tears the pool down while its workers
        wait on that queue."""
        items = [{"x": x} for x in range(4)]
        expected = [_square_point(params) for params in items]
        previous = signal.signal(signal.SIGTERM, _raise_terminated)
        try:
            with _time_limit(60):
                for _ in range(100):
                    backend = create_backend("process", jobs=4)
                    got = [r.value for r in backend.map(_square_point, items)]
                    assert got == expected
                    backend.terminate()
        finally:
            signal.signal(signal.SIGTERM, previous)


class TestHypothesisConvergence:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fail=st.floats(min_value=0.0, max_value=0.9),
        sticky=st.integers(min_value=1, max_value=2),
    )
    def test_transient_chaos_always_converges(self, seed, fail, sticky):
        """Property: any transient profile with enough retries produces
        exactly the failure-free outcome."""
        sweep = _sweep(6, name="hyp")
        clean = run_sweep(sweep, code="v")
        backend = ChaosBackend(
            inner="serial",
            spec=ChaosSpec(fail=fail, seed=seed, sticky=sticky),
        )
        result = run_sweep(
            sweep, code="v", backend=backend,
            retry=RetryPolicy(retries=sticky, backoff=0.0, jitter=0.0),
            on_error="keep",
        )
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]


class TestWorkerOwnsSigalrm:
    """Only pool workers arm per-point timers, with the handler they
    install at start-up; the caller's ``SIGALRM`` is never touched."""

    @pytest.fixture(autouse=True)
    def _pristine_sigalrm(self):
        handler = signal.getsignal(signal.SIGALRM)
        yield
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, handler)

    def test_parent_handler_does_not_shield_a_hang_from_the_timeout(self):
        """Workers inherit the parent's handlers at fork; a no-op
        ``SIGALRM`` handler there must not swallow the worker's timer."""
        signal.signal(signal.SIGALRM, lambda signum, frame: None)
        with create_backend("process", jobs=2) as inner:
            backend = ChaosBackend(
                inner=inner, spec=ChaosSpec(hang=1.0, hang_s=3.0, seed=0)
            )
            result = run_sweep(
                _sweep(2), backend=backend,
                retry=RetryPolicy(timeout=0.3), on_error="keep",
            )
        assert [o.error.splitlines()[0] for o in result.outcomes] == [
            "PointTimeout: point exceeded the 0.3s wall-clock timeout"
        ] * 2

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_in_process_sweep_leaves_the_callers_alarm_alone(self, name):
        """The serial backend and the pool's inline fallback (``jobs=1``)
        run points in the caller's process and ignore the timeout."""
        fired = []
        signal.signal(signal.SIGALRM, lambda signum, frame: fired.append(1))
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        handler = signal.getsignal(signal.SIGALRM)
        result = run_sweep(
            _sweep(2, fn=_slow_point, sleep=0.05), backend=name, jobs=1,
            retry=RetryPolicy(timeout=0.001), on_error="keep",
        )
        assert result.errors == 0
        assert signal.getsignal(signal.SIGALRM) is handler
        remaining = signal.setitimer(signal.ITIMER_REAL, 0.0)[0]
        assert 55.0 < remaining <= 60.0
        assert not fired
