"""Tests for the distributed sweep service (ISSUE 8).

Covers the tentpole surface: the length-prefixed frame protocol, the
journaled request log (fold, torn-line salvage, recovery, compaction),
session ring buffers with resume tokens, the daemon end-to-end through
the ``remote`` backend (including reconnect replay, fair interleaving
of concurrent clients, lease-expiry requeues and graceful drain), the
connection-chaos channels, and the acceptance crux: a ``kill -9``'d
daemon whose clients complete byte-identically via ``--resume``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.runner import (
    ChaosBackend,
    ChaosSpec,
    RemoteBackend,
    ResultCache,
    Sweep,
    run_sweep,
)
from repro.runner.backends.chaos import decide_connection
from repro.service.client import (
    DaemonUnreachable,
    ServeClient,
    ServeError,
)
from repro.service.daemon import ServeConfig, ServeDaemon
from repro.service.journal import ServiceJournal
from repro.service.protocol import (
    FrameError,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.service.session import Session, SessionRegistry

REPO = Path(__file__).resolve().parent.parent
#: Daemon subprocesses must import this module to resolve fn tokens.
SUBPROC_PYTHONPATH = f"{REPO / 'src'}{os.pathsep}{Path(__file__).parent}"


def _square_point(params):
    return {"x": params["x"], "square": params["x"] ** 2}


def _slow_point(params):
    time.sleep(params.get("sleep", 0.05))
    return {"x": params["x"]}


def _hang_once_point(params):
    """Hangs forever on its first execution, instant afterwards.

    The marker file is the cross-process memory: the lease monitor's
    worker kill re-runs the batch, which then completes immediately —
    exactly the transient-wedge scenario leases exist for.
    """
    marker = Path(params["marker"]) / f"seen-{params['x']}"
    if params["x"] == params.get("wedge") and not marker.exists():
        marker.write_text("")
        time.sleep(120)
    return {"x": params["x"]}


def _sweep(n=8, name="svc", fn=_square_point, **extra):
    return Sweep(
        name=name, run_fn=fn, points=tuple({"x": x, **extra} for x in range(n))
    )


def _short_tmpdir():
    """A /tmp-rooted dir: unix socket paths must stay under ~108 bytes,
    which pytest's tmp_path does not guarantee."""
    return Path(tempfile.mkdtemp(prefix="repro-serve-", dir="/tmp"))


@pytest.fixture
def servedir():
    path = _short_tmpdir()
    yield path
    import shutil

    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def daemon(servedir):
    """An in-process daemon on a short socket with its own cache."""
    d = ServeDaemon(ServeConfig(
        socket_path=str(servedir / "s.sock"),
        cache_dir=str(servedir / "cache"),
        jobs=2,
        lease_s=30.0,
        quiet=True,
    ))
    d.start()
    yield d
    d.stop()


def _remote(daemon_or_sock, **env):
    sock = (
        daemon_or_sock.socket_path
        if isinstance(daemon_or_sock, ServeDaemon)
        else daemon_or_sock
    )
    return RemoteBackend(jobs=2, socket_path=str(sock))


class TestProtocol:
    def _pair(self):
        return socket.socketpair()

    def test_roundtrip(self):
        a, b = self._pair()
        send_frame(a, {"op": "hello", "n": [1, 2, {"x": None}]})
        assert recv_frame(b) == {"op": "hello", "n": [1, 2, {"x": None}]}
        a.close(), b.close()

    def test_clean_eof_is_none(self):
        a, b = self._pair()
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_torn_frame_raises(self):
        a, b = self._pair()
        frame = encode_frame({"op": "x", "pad": "y" * 64})
        a.sendall(frame[: len(frame) - 5])  # die mid-body
        a.close()
        with pytest.raises(FrameError):
            recv_frame(b)
        b.close()

    def test_oversized_length_raises(self):
        import struct

        a, b = self._pair()
        a.sendall(struct.pack("!I", 2**31))
        with pytest.raises(FrameError):
            recv_frame(b)
        a.close(), b.close()

    def test_non_object_body_raises(self):
        import struct

        a, b = self._pair()
        body = b"[1,2,3]"
        a.sendall(struct.pack("!I", len(body)) + body)
        with pytest.raises(FrameError):
            recv_frame(b)
        a.close(), b.close()


class TestJournal:
    def test_fold_last_op_wins(self, tmp_path):
        j = ServiceJournal(tmp_path)
        j.request("t1", "s", 8)
        j.lease("t1", 0, [0, 1], expires=99.0)
        j.complete("t1", 0)
        j.lease("t1", 1, [2, 3], expires=99.0)
        j.done("t1")
        j.request("t2", "s", 4)
        j.lease("t2", 0, [0, 1], expires=99.0)
        states = j.fold()
        assert states["t1"].status == "done"
        assert states["t1"].completed == 1
        assert states["t2"].status == "open"
        assert states["t2"].leased == {0: [0, 1]}

    def test_torn_line_salvage(self, tmp_path):
        j = ServiceJournal(tmp_path)
        j.request("t1", "s", 2)
        j.done("t1")
        with open(j.path, "a") as fh:
            fh.write('{"op":"request","token":"t2","swee')  # torn by kill -9
        states = j.fold()
        assert set(states) == {"t1"}  # the torn record costs itself only

    def test_record_appended_after_torn_tail_survives(self, tmp_path):
        """A kill -9 mid-append leaves a line without its newline; the
        next append must not be glued onto it and lost with it."""
        j = ServiceJournal(tmp_path)
        j.request("t", "s", 4)
        j.lease("t", 0, [0, 1], expires=99.0)
        with open(j.path, "a") as fh:
            fh.write('{"op":"lease","token":"t","batch":1,"ind')
        j.complete("t", 0)
        state = j.fold()["t"]
        assert state.leased == {} and state.completed == 1

    def test_recover_closes_open_requests_and_compacts(self, tmp_path):
        j = ServiceJournal(tmp_path)
        j.request("t1", "s", 8)
        j.lease("t1", 0, [0, 1], expires=99.0)
        j.request("t2", "s", 4)
        j.done("t2")
        recovered = j.recover()
        assert [s.token for s in recovered] == ["t1"]
        assert recovered[0].leased == {0: [0, 1]}  # the in-flight work
        # after recovery everything is closed and the log is compacted
        assert j.fold() == {}
        assert j.path.read_text() == ""

    def test_compact_keeps_open_requests(self, tmp_path):
        j = ServiceJournal(tmp_path)
        for i in range(5):
            j.request(f"t{i}", "s", 1)
            j.done(f"t{i}")
        j.request("open", "s", 2)
        j.lease("open", 0, [0], expires=99.0)
        removed = j.compact()
        assert removed > 0
        states = j.fold()
        assert set(states) == {"open"}
        assert states["open"].leased == {0: [0]}

    def test_append_survives_missing_dir(self, tmp_path):
        j = ServiceJournal(tmp_path / "nested" / "deeper")
        j.request("t", "s", 1)
        assert j.fold()["t"].status == "open"


class TestSession:
    def _session(self, ring=64):
        return Session(
            token="tok", sweep="s", items=[{"x": i} for i in range(4)],
            keys=None, fn_token=("m", "f"), timeout=None, wrap=None,
            ring=ring,
        )

    def test_seq_monotonic_and_replay(self):
        s = self._session()
        for i in range(4):
            s.post_result(i, {"v": i}, 0.0, None)
        s.post({"event": "done"})
        events = s.events_after(0, timeout=0)
        assert [e["seq"] for e in events] == [1, 2, 3, 4, 5]
        assert s.closed
        # replay from the middle
        tail = s.events_after(3, timeout=0)
        assert [e["seq"] for e in tail] == [4, 5]

    def test_gap_when_ring_overflows(self):
        s = self._session(ring=16)  # the enforced minimum
        for i in range(40):
            s.post_result(i % 4, {"v": i}, 0.0, None)
        assert s.events_after(1, timeout=0) is None  # position evicted

    def test_registry_reaps_only_lingered_closed_sessions(self):
        reg = SessionRegistry(linger_s=0.0)
        s = self._session()
        reg.add(s)
        assert reg.reap() == 0  # open: never reaped
        s.post({"event": "done"})
        time.sleep(0.01)
        assert reg.reap() == 1
        assert reg.get("tok") is None


class TestDaemonEndToEnd:
    def test_remote_sweep_roundtrip_and_cache(self, daemon):
        sweep = _sweep(7)
        cache = ResultCache(daemon.cache.root)
        clean = run_sweep(sweep, code="v")
        result = run_sweep(
            sweep, cache=cache, code="v", backend=_remote(daemon)
        )
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]
        # the daemon journalled the request and closed it
        states = daemon.journal.fold()
        assert all(s.status == "done" for s in states.values())
        # second client: all hits, nothing recomputed
        again = run_sweep(
            sweep, cache=cache, code="v", backend=_remote(daemon)
        )
        assert again.hits == 7 and again.misses == 0

    def test_daemon_serves_its_cache_hits(self, daemon):
        """A point the daemon's cache already holds is served without
        recomputation — the ``cached`` flag on the wire proves it."""
        sweep = _sweep(4, name="hits")
        cache = ResultCache(daemon.cache.root)
        run_sweep(sweep, cache=cache, code="v", backend=_remote(daemon))
        from repro.runner import point_key

        keys = [point_key("hits", p, "v") for p in sweep.points]
        client = ServeClient(daemon.socket_path)
        client.connect()
        client.submit(
            "hits", list(sweep.points), keys,
            ("test_service", "_square_point"),
        )
        events = list(client.events())
        client.close()
        results = [e for e in events if e["event"] == "result"]
        assert len(results) == 4
        assert all(e["cached"] for e in results)
        assert events[-1]["event"] == "done"

    def test_reconnect_replays_from_resume_token(self, daemon):
        sweep = _sweep(10, fn=_slow_point, sleep=0.05)
        client = ServeClient(daemon.socket_path)
        client.connect()
        reply = client.submit(
            "rc", list(sweep.points), None,
            ("test_service", "_slow_point"),
        )
        token = reply["token"]
        seen = {}
        stream = client.events()
        for frame in stream:
            if frame["event"] == "result":
                seen[frame["index"]] = frame
                if len(seen) == 2:
                    break
        last_seq = max(f["seq"] for f in seen.values())
        client.drop_connection()  # the partition
        client.connect()
        client.attach(token, last_seq)
        for frame in client.events():
            if frame["event"] == "result":
                assert frame["seq"] > last_seq  # replay starts after us
                seen[frame["index"]] = frame
        client.close()
        assert sorted(seen) == list(range(10))

    def test_attach_unknown_token_is_explicit(self, daemon):
        client = ServeClient(daemon.socket_path)
        client.connect()
        with pytest.raises(ServeError, match="unknown-token"):
            client.attach("no-such-token", 0)
        client.close()

    def test_unreachable_daemon_raises_loudly(self, servedir):
        backend = RemoteBackend(socket_path=str(servedir / "nope.sock"))
        backend.reconnect_retries = 0
        client_gen = backend.map(_square_point, [{"x": 1}])
        with pytest.raises(DaemonUnreachable):
            next(client_gen)

    def test_closure_falls_back_inline(self, daemon):
        captured = 3

        def closure_point(params):
            return {"v": params["x"] * captured}

        results = list(_remote(daemon).map(closure_point, [{"x": 2}]))
        assert results[0].value == {"v": 6}

    def test_fair_interleaving_of_two_clients(self, servedir):
        """With single-point batches, two concurrent campaigns must
        alternate: neither client waits for the other's whole sweep."""
        d = ServeDaemon(ServeConfig(
            socket_path=str(servedir / "fair.sock"),
            cache_dir=str(servedir / "fair-cache"),
            jobs=1, batch_points=1, quiet=True,
        ))
        d.start()
        try:
            order = []

            def campaign(tag, start):
                client = ServeClient(d.socket_path)
                client.connect()
                client.submit(
                    f"fair-{tag}",
                    [{"x": x, "sleep": 0.05} for x in range(start, start + 4)],
                    None, ("test_service", "_slow_point"),
                )
                for frame in client.events():
                    if frame["event"] == "result":
                        order.append(tag)
                client.close()

            threads = [
                threading.Thread(target=campaign, args=(tag, i * 100))
                for i, tag in enumerate("ab")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert order.count("a") == order.count("b") == 4
            # interleaved, not serialized: the first client's last point
            # resolves after the second client's first.
            first_last = {t: order.index(t) for t in "ab"}
            assert max(first_last.values()) < 4, (
                f"batches were serialized per client: {order}"
            )
        finally:
            d.stop()

    def test_lease_expiry_kills_and_requeues(self, servedir):
        """A wedged batch loses its lease: workers are killed, the pool
        requeues, and the campaign still completes correctly."""
        d = ServeDaemon(ServeConfig(
            socket_path=str(servedir / "lease.sock"),
            cache_dir=str(servedir / "lease-cache"),
            jobs=2, lease_s=1.0, quiet=True,
        ))
        d.start()
        try:
            marker = servedir / "markers"
            marker.mkdir()
            points = [
                {"x": x, "marker": str(marker), "wedge": 1} for x in range(6)
            ]
            sweep = Sweep(
                name="lease", run_fn=_hang_once_point, points=tuple(points)
            )
            result = run_sweep(sweep, backend=_remote(d))
            assert result.errors == 0
            assert [o.value["x"] for o in result.outcomes] == list(range(6))
            assert d.scheduler.lease_expiries >= 1
            assert d.backend.respawns >= 1
        finally:
            d.stop()

    def test_graceful_drain_aborts_queued_requests(self, servedir):
        d = ServeDaemon(ServeConfig(
            socket_path=str(servedir / "drain.sock"),
            cache_dir=str(servedir / "drain-cache"),
            jobs=1, batch_points=2, quiet=True,
        ))
        d.start()
        client = ServeClient(d.socket_path)
        client.connect()
        client.submit(
            "drain", [{"x": x, "sleep": 0.2} for x in range(8)],
            None, ("test_service", "_slow_point"),
        )
        stopper = threading.Thread(target=d.stop, daemon=True)
        events = []
        for frame in client.events():
            events.append(frame)
            if len([e for e in events if e["event"] == "result"]) == 1:
                stopper.start()  # drain arrives mid-campaign
        client.close()
        stopper.join(timeout=30)
        assert events[-1]["event"] in ("abort", "done")
        # the journal closed the request either way (done or abort)
        assert all(
            s.status in ("done", "aborted")
            for s in d.journal.fold().values()
        )


class TestConnectionChaos:
    def test_decide_connection_deterministic(self):
        spec = ChaosSpec(drop=0.5, dkill=0.2, seed=9)
        first = [decide_connection(spec, {"x": x}) for x in range(50)]
        again = [decide_connection(spec, {"x": x}) for x in range(50)]
        assert first == again
        assert any(c == "drop" for c in first)
        assert any(c == "dkill" for c in first)
        # sticky clears connection faults on later attempts too
        assert all(
            decide_connection(spec, {"x": x}, attempt=1) is None
            for x in range(50)
        )

    def test_spec_parse_and_validation(self):
        spec = ChaosSpec.parse("drop=0.3,dkill=0.1,seed=4")
        assert spec.connection_active and not spec.point_active
        assert spec.active
        with pytest.raises(ValueError):
            ChaosSpec(drop=1.5)

    def test_chaos_drop_converges_byte_identical(self, daemon):
        """Injected connection drops are absorbed by reconnect+replay:
        the sweep result is byte-identical to the clean run."""
        sweep = _sweep(12, name="chaosdrop")
        clean = run_sweep(sweep, code="v")
        chaotic = ChaosBackend(
            inner=_remote(daemon), spec=ChaosSpec(drop=0.35, seed=7)
        )
        result = run_sweep(sweep, code="v", backend=chaotic)
        assert result.errors == 0
        assert [o.value for o in result.outcomes] == [
            o.value for o in clean.outcomes
        ]


def _spawn_daemon(servedir, jobs=2, lease=30.0):
    env = dict(
        os.environ,
        PYTHONPATH=SUBPROC_PYTHONPATH,
        REPRO_CACHE_DIR=str(servedir / "cache"),
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--socket", str(servedir / "d.sock"),
            "--cache-dir", str(servedir / "cache"),
            "--jobs", str(jobs), "--lease", str(lease), "--quiet",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 20
    sock = servedir / "d.sock"
    while time.monotonic() < deadline:
        if sock.exists():
            try:
                ServeClient(sock, connect_retries=1).ping()
                return proc
            except (DaemonUnreachable, ServeError):
                pass
        if proc.poll() is not None:
            raise RuntimeError(f"daemon died at startup: rc={proc.returncode}")
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError("daemon never came up")


class TestCrashRecovery:
    """The acceptance crux: kill -9 the daemon mid-campaign, restart,
    --resume, byte-identical final results."""

    def test_kill9_daemon_restart_resume_byte_identical(
        self, servedir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_REMOTE_RETRIES", "1")
        monkeypatch.setenv("REPRO_REMOTE_RETRY_DELAY", "0.05")
        sweep = _sweep(16, name="crash", fn=_slow_point, sleep=0.1)
        clean = run_sweep(sweep, code="v")
        cache = ResultCache(servedir / "cache")

        proc = _spawn_daemon(servedir)
        killed = []

        def assassin(event):
            # after a couple of points resolved, kill -9 the daemon
            if not killed and event.index >= 2:
                os.kill(proc.pid, signal.SIGKILL)
                killed.append(proc.pid)

        try:
            result = run_sweep(
                sweep, cache=cache, code="v",
                backend=_remote(servedir / "d.sock"),
                progress=assassin, on_error="keep",
            )
            assert killed, "test never fired the kill"
            proc.wait(timeout=10)
            # the campaign degraded, not crashed: missing points came
            # back as errored outcomes
            assert result.errors > 0
            completed_before = sum(
                1 for o in result.outcomes if o.status == "ok"
            )
            assert completed_before >= 1

            # restart: journal recovery closes the in-flight request
            proc = _spawn_daemon(servedir)
            journal = ServiceJournal(cache.root)
            assert all(
                s.status in ("done", "aborted")
                for s in journal.fold().values()
            )

            # --resume recomputes only what never landed in the cache
            resumed = run_sweep(
                sweep, cache=cache, code="v",
                backend=_remote(servedir / "d.sock"),
                resume=True,
            )
            assert resumed.errors == 0
            assert resumed.hits >= completed_before
            assert [o.value for o in resumed.outcomes] == [
                o.value for o in clean.outcomes
            ]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_chaos_dkill_then_restart_resume(self, servedir, monkeypatch):
        """The dkill chaos channel does the murdering through the real
        transport; the client degrades, a restarted daemon + --resume
        completes byte-identically."""
        monkeypatch.setenv("REPRO_REMOTE_RETRIES", "1")
        monkeypatch.setenv("REPRO_REMOTE_RETRY_DELAY", "0.05")
        # slow points: the daemon must still owe results when the kill
        # fires, or the client would drain them from its socket buffer
        sweep = _sweep(12, name="dkill", fn=_slow_point, sleep=0.1)
        clean = run_sweep(sweep, code="v")
        cache = ResultCache(servedir / "cache")

        proc = _spawn_daemon(servedir)
        try:
            # a seed under which exactly one point draws dkill, so the
            # daemon is murdered once, mid-campaign, deterministically
            seed = _seed_with_one_dkill(sweep.points, len(sweep.points))
            chaotic = ChaosBackend(
                inner=_remote(servedir / "d.sock"),
                spec=ChaosSpec(dkill=1.0 / len(sweep.points), seed=seed),
            )
            result = run_sweep(
                sweep, cache=cache, code="v", backend=chaotic,
                on_error="keep",
            )
            proc.wait(timeout=15)  # the chaos killed it
            assert result.errors > 0

            proc = _spawn_daemon(servedir)
            resumed = run_sweep(
                sweep, cache=cache, code="v",
                backend=_remote(servedir / "d.sock"), resume=True,
            )
            assert resumed.errors == 0
            assert [o.value for o in resumed.outcomes] == [
                o.value for o in clean.outcomes
            ]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def _seed_with_one_dkill(points, n):
    """A seed under which exactly one mid-campaign point draws dkill."""
    for seed in range(500):
        spec = ChaosSpec(dkill=1.0 / n, seed=seed)
        hits = [
            i for i, p in enumerate(points)
            if decide_connection(spec, p) == "dkill"
        ]
        if len(hits) == 1 and 2 <= hits[0] <= n - 4:
            return seed
    raise AssertionError("no seed with exactly one mid-sweep dkill")


def _children_of(pid):
    """Live child pids of ``pid`` (via /proc; the pool's workers)."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # raced with process exit
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry.name))
    return out


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestOrphanedWorkerHygiene:
    """Workers are *forked*, so a worker respawned while the daemon is
    serving inherits every daemon fd.  A later ``kill -9`` of the
    daemon must not leave those orphans keeping the listener half-alive
    (clients would connect to a zombie and hang mid-hello) or parked on
    a dead queue forever."""

    def test_hello_times_out_against_unresponsive_listener(self, servedir):
        # A bound-and-listening socket nobody ever accepts on: connect
        # succeeds into the backlog, the hello reply never comes.
        zombie_path = servedir / "zombie.sock"
        zombie = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        zombie.bind(str(zombie_path))
        zombie.listen(1)
        try:
            t0 = time.monotonic()
            with pytest.raises(DaemonUnreachable):
                ServeClient(
                    zombie_path, connect_retries=1, hello_timeout=0.3
                ).connect()
            assert time.monotonic() - t0 < 3.0
        finally:
            zombie.close()

    def test_healed_pool_survives_daemon_kill9_cleanly(
        self, servedir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKER_ORPHAN_POLL_S", "0.2")
        sweep = _sweep(24, name="heal", fn=_slow_point, sleep=0.15)
        cache = ResultCache(servedir / "cache")
        proc = _spawn_daemon(servedir)
        sock = servedir / "d.sock"
        killed = []

        def assassin(event):
            # murder one pool worker mid-campaign to force a heal: the
            # respawned worker is the fork that inherits live fds
            if not killed and event.index >= 1:
                workers = _children_of(proc.pid)
                if workers:
                    os.kill(workers[0], signal.SIGKILL)
                    killed.append(workers[0])

        try:
            result = run_sweep(
                sweep, cache=cache, code="v",
                backend=_remote(sock), progress=assassin, on_error="keep",
            )
            assert killed, "test never fired the worker kill"
            assert result.errors == 0  # the pool healed mid-campaign
            status = ServeClient(sock).status()
            assert status["respawns"] >= 1
            orphans_to_be = _children_of(proc.pid)
            assert orphans_to_be

            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)

            # fail-fast: the respawned worker closed its copy of the
            # listener at fork, so a fresh client is refused instantly
            # instead of hanging in the hello handshake
            t0 = time.monotonic()
            with pytest.raises(DaemonUnreachable):
                ServeClient(
                    sock, connect_retries=1, hello_timeout=1.0
                ).connect()
            assert time.monotonic() - t0 < 5.0

            # hygiene: orphaned workers notice the reparenting and exit
            deadline = time.monotonic() + 10
            alive = orphans_to_be
            while alive and time.monotonic() < deadline:
                alive = [w for w in alive if _pid_alive(w)]
                time.sleep(0.1)
            assert not alive, f"orphaned workers survived: {alive}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
