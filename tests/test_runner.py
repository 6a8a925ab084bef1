"""Tests for the unified sweep runner (repro.runner).

Covers the ISSUE-1 acceptance surface: cache hit/miss semantics, hash
stability across processes, parallel-vs-serial result equality,
corrupted-cache-entry recovery, and the guarantee that a warm cache
never re-invokes the per-point function.
"""

import json
import os
import subprocess
import time
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import campaign_for, fig10
from repro.runner import (
    Campaign,
    CircuitOpenError,
    ResultCache,
    RetryPolicy,
    Sweep,
    SweepPointError,
    TaskResult,
    canonical_params,
    code_version,
    point_key,
    run_campaign,
    run_sweep,
    stamp_points,
)


def _counting_point(params):
    """Pure point fn that tallies invocations in an append-only file."""
    with open(params["counter"], "a") as fh:
        fh.write("x")
    return {"x": params["x"], "square": params["x"] ** 2}


def _calls(counter: Path) -> int:
    return len(counter.read_text()) if counter.exists() else 0


def _segment(root: Path, sweep: str, key: str) -> Path:
    """The append-only segment holding ``key``'s records."""
    return Path(root) / sweep / f"{key[:2]}.jsonl"


def _tear_record(root: Path, sweep: str, key: str) -> None:
    """Cut ``key``'s put record in half in place, the shape a writer
    killed mid-append leaves behind."""
    path = _segment(root, sweep, key)
    lines = path.read_text().split("\n")
    [idx] = [i for i, line in enumerate(lines) if f'"key":"{key}"' in line]
    lines[idx] = lines[idx][: len(lines[idx]) // 2]
    path.write_text("\n".join(lines))


def _counting_sweep(tmp_path: Path, n: int = 4, name: str = "counting") -> Sweep:
    tmp_path.mkdir(parents=True, exist_ok=True)
    counter = tmp_path / "calls.txt"
    points = tuple({"x": x, "counter": str(counter)} for x in range(n))
    return Sweep(name=name, run_fn=_counting_point, points=points)


class TestHashing:
    def test_key_is_deterministic(self):
        params = {"a": 1, "b": [1, 2], "c": "x"}
        assert point_key("e", params, code="c0") == point_key("e", params, code="c0")

    def test_key_ignores_dict_order(self):
        assert point_key("e", {"a": 1, "b": 2}, code="c0") == point_key(
            "e", {"b": 2, "a": 1}, code="c0"
        )

    def test_key_separates_experiments_params_code(self):
        base = point_key("e", {"a": 1}, code="c0")
        assert point_key("f", {"a": 1}, code="c0") != base
        assert point_key("e", {"a": 2}, code="c0") != base
        assert point_key("e", {"a": 1}, code="c1") != base

    def test_canonical_params_rejects_non_json(self):
        with pytest.raises(TypeError):
            canonical_params({"fn": lambda: None})

    def test_canonical_params_rejects_multi_element_arrays(self):
        """``ndarray.item()`` raises ``ValueError`` past one element; the
        documented error is ``TypeError``."""
        import numpy as np

        with pytest.raises(TypeError, match="got ndarray"):
            canonical_params({"x": np.array([1.0, 2.0])})

    def test_numpy_scalars_render_as_python_scalars(self):
        import numpy as np

        params = {"a": np.float64(0.1), "b": np.int64(3), "c": np.array(2.5)}
        assert canonical_params(params) == '{"a":0.1,"b":3,"c":2.5}'

    def test_code_version_is_short_hex(self):
        version = code_version()
        assert len(version) == 16
        int(version, 16)

    def test_key_stable_across_processes(self):
        """sha256 of canonical JSON must not depend on the process."""
        params = {"d": 2.5, "c": "x", "b": [1, 2], "a": 1}
        expected = point_key("exp", params, code="deadbeef")
        src_dir = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        script = (
            "from repro.runner.hashing import point_key;"
            "print(point_key('exp',"
            " {'a': 1, 'b': [1, 2], 'c': 'x', 'd': 2.5}, code='deadbeef'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == expected


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k1", {"a": 1}, [{"row": 1}])
        value, hit = cache.get("s", "k1")
        assert hit and value == [{"row": 1}]

    def test_missing_is_miss(self, tmp_path):
        _, hit = ResultCache(tmp_path).get("s", "nope")
        assert not hit

    def test_corrupted_entry_is_healed(self, tmp_path):
        """A torn record is a miss, never an exception; the next put of
        the key is served again."""
        cache = ResultCache(tmp_path)
        cache.put("s", "k1", {}, {"ok": True})
        _tear_record(tmp_path, "s", "k1")
        assert cache.get("s", "k1") == (None, False)
        cache.put("s", "k1", {}, {"ok": True})
        assert cache.get("s", "k1") == ({"ok": True}, True)

    def test_key_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k1", {}, {"ok": True})
        path = _segment(tmp_path, "s", "k1")
        path.write_text(path.read_text().replace('"k1"', '"k1tampered"'))
        _, hit = cache.get("s", "k1")
        assert not hit

    def test_put_is_atomic_no_temp_left(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k1", {}, list(range(100)))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_put_rejects_unserializable(self, tmp_path):
        with pytest.raises(TypeError):
            ResultCache(tmp_path).put("s", "k1", {}, object())

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s1", "k1", {}, 1)
        cache.put("s2", "k2", {}, 2)
        stats = cache.stats()
        assert stats.entries == 2 and stats.sweeps == ("s1", "s2")
        assert cache.clear("s1") == 1
        assert cache.stats().entries == 1
        assert cache.clear() == 1
        assert cache.stats().entries == 0


class TestClearLeavesWhatIsNotASweep:
    """``clear`` removes a directory only if it holds a segment
    (``??.jsonl``) or is empty: a mistyped cache root must not lose
    whatever else lives there."""

    @pytest.mark.parametrize(
        "files",
        [
            {"a.py": "x = 1\n", "b.md": "# b\n"},
            {"sub/x.txt": "x"},
            {".env": "KEY=1\n"},
            {"notes.jsonl": "{}\n", "abc.jsonl": "{}\n"},
            {"sub/ab.jsonl": '{"op":"put","key":"ab","result":1}\n'},
        ],
        ids=["files", "nested-only", "dotfile-only", "not-a-segment-name",
             "segment-one-level-down"],
    )
    def test_directory_without_a_segment_stays(self, tmp_path, files):
        cache = ResultCache(tmp_path)
        cache.put("s", "k", {}, 1)
        for name, text in files.items():
            path = tmp_path / "foreign" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        assert cache.clear() == 1
        assert cache.clear("foreign") == 0
        assert not (tmp_path / "s").exists()
        for name, text in files.items():
            assert (tmp_path / "foreign" / name).read_text() == text

    def test_empty_directory_goes(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert ResultCache(tmp_path).clear("empty") == 0
        assert not (tmp_path / "empty").exists()

    def test_missing_root_is_left_missing(self, tmp_path):
        root = tmp_path / "nope"
        assert ResultCache(root).clear() == 0
        assert not root.exists()

    def test_linked_directory_keeps_its_target(self, tmp_path):
        """A symlink under the root is never followed into: the directory
        it points at keeps its segments."""
        elsewhere = ResultCache(tmp_path / "elsewhere")
        elsewhere.put("s", "k", {}, 1)
        root = tmp_path / "root"
        root.mkdir()
        (root / "link").symlink_to(tmp_path / "elsewhere" / "s")
        ResultCache(root).clear()
        assert elsewhere.manifest_keys("s") == {"k"}
        assert elsewhere.get("s", "k") == (1, True)


class TestStampPoints:
    def test_knob_lands_in_every_point(self):
        points = ({"x": 1}, {"x": 2})
        stamped = stamp_points(points, engine="model")
        assert stamped == ({"x": 1, "engine": "model"},
                           {"x": 2, "engine": "model"})
        assert points == ({"x": 1}, {"x": 2})

    def test_none_knobs_leave_the_points_as_they_are(self):
        points = [{"x": 1}, {"x": 2}]
        stamped = stamp_points(points, engine=None)
        assert stamped == tuple(points)
        assert all(a is b for a, b in zip(stamped, points))

    def test_knob_overrides_the_point_value(self):
        stamped = stamp_points(({"x": 1, "engine": "des"},), engine="fast")
        assert stamped == ({"x": 1, "engine": "fast"},)

    def test_knob_is_part_of_the_cache_key(self):
        (fast,) = stamp_points(({"x": 1},), engine="fast")
        (model,) = stamp_points(({"x": 1},), engine="model")
        assert point_key("s", fast, "c") != point_key("s", model, "c")
        assert point_key("s", fast, "c") != point_key("s", {"x": 1}, "c")

class TestRunSweep:
    def test_cold_run_computes_every_point(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        result = run_sweep(sweep, cache=ResultCache(tmp_path / "cache"))
        assert result.misses == 4 and result.hits == 0
        assert _calls(tmp_path / "calls.txt") == 4
        assert [r["square"] for r in result.rows] == [0, 1, 4, 9]

    def test_warm_run_never_calls_point_fn(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(sweep, cache=cache)
        warm = run_sweep(sweep, cache=cache)
        assert warm.hits == 4 and warm.misses == 0
        assert _calls(tmp_path / "calls.txt") == 4  # unchanged: zero re-runs
        assert warm.rows == cold.rows

    def test_no_cache_always_computes(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        run_sweep(sweep)
        run_sweep(sweep)
        assert _calls(tmp_path / "calls.txt") == 8

    def test_code_version_change_invalidates(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, cache=cache, code="v1")
        second = run_sweep(sweep, cache=cache, code="v2")
        assert second.misses == 4
        assert _calls(tmp_path / "calls.txt") == 8

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_sweep(_counting_sweep(tmp_path / "a", n=6))
        parallel = run_sweep(_counting_sweep(tmp_path / "b", n=6), jobs=3)
        strip = lambda rows: json.dumps(rows)  # noqa: E731
        assert strip(parallel.rows) == strip(serial.rows)
        assert _calls(tmp_path / "b" / "calls.txt") == 6

    def test_parallel_fills_cache_for_serial(self, tmp_path):
        sweep = _counting_sweep(tmp_path, n=6)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, jobs=3, cache=cache)
        warm = run_sweep(sweep, jobs=1, cache=cache)
        assert warm.hits == 6
        assert _calls(tmp_path / "calls.txt") == 6

    def test_corrupted_entry_recovery_end_to_end(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(sweep, cache=cache)
        _tear_record(cache.root, sweep.name, cold.outcomes[2].key)
        healed = run_sweep(sweep, cache=cache)
        assert healed.hits == 3 and healed.misses == 1
        assert healed.rows == cold.rows
        _, hit = cache.get(sweep.name, cold.outcomes[2].key)
        assert hit  # the repaired entry is valid again

    def test_progress_streams_in_point_order(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, cache=cache)
        events = []
        run_sweep(sweep, cache=cache, progress=events.append)
        assert [e.index for e in events] == [0, 1, 2, 3]
        assert all(e.cached and e.total == 4 for e in events)

    def test_campaign_totals(self, tmp_path):
        campaign = Campaign(
            "both",
            (
                _counting_sweep(tmp_path / "a", n=2, name="a"),
                _counting_sweep(tmp_path / "b", n=3, name="b"),
            ),
        )
        cache = ResultCache(tmp_path / "cache")
        cold = run_campaign(campaign, cache=cache)
        assert cold.misses == 5 and cold.hits == 0
        warm = run_campaign(campaign, cache=cache)
        assert warm.hits == 5 and warm.misses == 0
        assert list(warm.tables) == ["a", "b"]


class TestFig10Acceptance:
    """ISSUE 1 acceptance: parallel == serial bytes; warm cache = 0 runs."""

    def test_parallel_cached_run_matches_serial_and_warms(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = fig10.sweep(scale=8)
        serial_rows = fig10.run(scale=8)

        cold = run_sweep(sweep, jobs=4, cache=cache)
        assert json.dumps(cold.rows) == json.dumps(serial_rows)
        assert cold.misses == len(sweep.points)

        def forbidden(params):
            raise AssertionError("per-point function called on a warm cache")

        warm_sweep = Sweep(
            name=sweep.name,
            run_fn=forbidden,
            points=sweep.points,
            aggregate=sweep.aggregate,
            title=sweep.title,
        )
        warm = run_sweep(warm_sweep, jobs=4, cache=cache)
        assert warm.hits == len(sweep.points) and warm.misses == 0
        assert json.dumps(warm.rows) == json.dumps(serial_rows)


class TestCampaignRegistry:
    def test_every_experiment_has_a_campaign(self):
        from repro.experiments import ALL_EXPERIMENTS

        for name in ALL_EXPERIMENTS:
            campaign = campaign_for(name)
            assert campaign.sweeps, name
            for sweep in campaign.sweeps:
                assert sweep.points, f"{name}:{sweep.name}"
                for params in sweep.points:
                    json.dumps(params)  # points must be JSON-able data

    def test_default_campaign_cache_keys_are_pinned(self):
        """Every point of every default campaign — 13 experiments ×
        scale {1, 8} × engine {fast, des, model} — keeps its sweep name,
        cache key and canonical params byte for byte: one digest over
        the sorted ``(sweep, key, params)`` lines, keyed against a fixed
        code version.  A change here orphans every cached result."""
        import hashlib

        from repro.experiments import ALL_EXPERIMENTS

        lines = sorted(
            (sweep.name, point_key(sweep.name, params, code="X"),
             canonical_params(params))
            for name in ALL_EXPERIMENTS
            for scale in (1, 8)
            for engine in ("fast", "des", "model")
            for sweep in campaign_for(name, scale=scale, engine=engine).sweeps
            for params in sweep.points
        )
        assert len(lines) == 1734
        digest = hashlib.sha256(
            "".join("\t".join(line) + "\n" for line in lines).encode()
        ).hexdigest()
        assert digest == (
            "df5bca1e2777b6d13f16f6afbe679a5215724c4f7072451788b098607067c2f7"
        )

    def test_scale_forwarded_where_supported(self):
        scaled = campaign_for("fig10", scale=8)
        assert all("/8" in p["workload"] for p in scaled.sweeps[0].points)
        # fig04 has no scale parameter; passing one must not break it.
        assert campaign_for("fig04", scale=8).sweeps


class TestSweepCLI:
    def test_sweep_unknown_name_exits_2(self, capsys):
        from repro.__main__ import main as cli_main

        assert cli_main(["sweep", "nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_sweep_runs_and_warms(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        argv = ["sweep", "maxreuse", "--cache-dir", str(tmp_path), "--quiet"]
        assert cli_main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "maxreuse: 0 cached, 1 computed" in cold_out
        assert cli_main(argv) == 0
        warm_out = capsys.readouterr().out
        assert "maxreuse: 1 cached, 0 computed" in warm_out

    def test_sweep_no_cache_writes_nothing(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        argv = [
            "sweep", "maxreuse", "--cache-dir", str(tmp_path),
            "--no-cache", "--quiet",
        ]
        assert cli_main(argv) == 0
        assert "cache disabled" in capsys.readouterr().out
        assert not list(tmp_path.rglob("*.jsonl"))

    def test_cache_info_and_clear(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        ResultCache(tmp_path).put("s", "k", {}, 1)
        assert cli_main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
        assert "entries   : 1" in capsys.readouterr().out
        assert cli_main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert ResultCache(tmp_path).stats().entries == 0


class TestCodeVersionFreshness:
    """code_version must track source edits within one process."""

    def _fake_package(self, tmp_path: Path) -> Path:
        root = tmp_path / "pkg"
        root.mkdir(parents=True)
        (root / "a.py").write_text("x = 1\n")
        (root / "sub").mkdir()
        (root / "sub" / "b.py").write_text("y = 2\n")
        return root

    def test_edit_changes_version_in_process(self, tmp_path):
        """Regression: a process-lifetime lru_cache once pinned the first
        digest forever, serving stale cached sweep results to long-lived
        sessions (REPL/Jupyter) that edit code and re-run."""
        root = self._fake_package(tmp_path)
        before = code_version(root)
        assert code_version(root) == before  # snapshot-memoized
        (root / "a.py").write_text("x = 10  # edited\n")
        after = code_version(root)
        assert after != before
        assert code_version(root) == after

    def test_new_and_deleted_files_change_version(self, tmp_path):
        root = self._fake_package(tmp_path)
        v0 = code_version(root)
        (root / "c.py").write_text("z = 3\n")
        v1 = code_version(root)
        assert v1 != v0
        (root / "c.py").unlink()
        assert code_version(root) == v0  # back to the original source set

    def test_default_root_is_stable_within_run(self):
        assert code_version() == code_version()

    def test_run_sweep_picks_up_edits_between_runs(self, tmp_path):
        """End to end: editing the (fake) package between two sweeps of
        the same process yields different cache keys — the second run
        recomputes instead of serving the first run's entries."""
        root = self._fake_package(tmp_path / "src")
        cache = ResultCache(tmp_path / "cache")
        sweep = _counting_sweep(tmp_path / "w", n=2)
        counter = tmp_path / "w" / "calls.txt"
        run_sweep(sweep, cache=cache, code=code_version(root))
        assert _calls(counter) == 2
        run_sweep(sweep, cache=cache, code=code_version(root))
        assert _calls(counter) == 2  # warm
        (root / "a.py").write_text("x = 99\n")
        run_sweep(sweep, cache=cache, code=code_version(root))
        assert _calls(counter) == 4  # invalidated by the edit


def _records(cache, sweep):
    """Every record of a sweep, segment by segment."""
    return [
        json.loads(line)
        for path in sorted((cache.root / sweep).glob("*.jsonl"))
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestManifest:
    """The per-shard append-only segments: the cache's index and its
    data at once."""

    def test_put_appends_and_stats_fold(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put("s", f"k{i}", {"i": i}, i)
        assert cache.manifest_keys("s") == {"k0", "k1", "k2"}
        assert [r["op"] for r in _records(cache, "s")] == ["put"] * 3
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.bytes == sum(
            path.stat().st_size for path in (tmp_path / "s").iterdir()
        )
        assert stats.sweeps == ("s",)

    def test_stats_is_an_index_read(self, tmp_path, monkeypatch):
        """Acceptance: stats() reads each segment once and parses no
        result — O(segments), not O(entries)."""
        from repro.runner import jsonl_log

        cache = ResultCache(tmp_path)
        cache.put("s1", "ka1", {"a": 1}, [1])
        cache.put("s1", "ka2", {"a": 2}, [2])
        cache.put("s2", "ka2", {"a": 2}, [2])
        reads = []
        original = jsonl_log.read

        def counting(path):
            reads.append(path)
            return original(path)

        def forbidden(self, *a, **k):
            raise AssertionError("stats() looked up a result")

        monkeypatch.setattr(jsonl_log, "read", counting)
        monkeypatch.setattr(ResultCache, "get", forbidden)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.sweeps == ("s1", "s2")
        assert stats.bytes > 0
        assert len(reads) == 2  # one per segment: s1/ka, s2/ka

    def test_files_beside_the_shards_are_ignored_and_cleared(self, tmp_path):
        """What older layouts left under ``<sweep>/`` — flat entries, a
        sweep-level manifest, ``<key[:2]>/`` entry directories — is never
        served or indexed; ``clear`` removes it with the sweep."""
        cache = ResultCache(tmp_path)
        cache.put("s", "k0", {}, "segment")
        entry = json.dumps({
            "format": 1, "key": "k1", "sweep": "s", "params": {},
            "created": 0.0, "result": "old",
        })
        (tmp_path / "s" / "k1.json").write_text(entry)
        (tmp_path / "s" / "MANIFEST.jsonl").write_text(
            '{"op":"put","key":"k1","bytes":1}\n'
        )
        (tmp_path / "s" / "k1").mkdir()
        (tmp_path / "s" / "k1" / "k1.json").write_text(entry)
        (tmp_path / "s" / "k1" / "MANIFEST.jsonl").write_text(
            '{"op":"put","key":"k1","bytes":1}\n'
        )
        assert cache.get("s", "k1") == (None, False)
        assert cache.manifest_keys("s") == {"k0"}
        stats = cache.stats()
        assert stats.entries == 1 and dict(stats.shards_per_sweep) == {"s": 1}
        cache.clear()
        assert not (tmp_path / "s").exists()

    def test_entries_shard_by_key_prefix(self, tmp_path):
        """Layout acceptance: records land in ``<sweep>/<key[:2]>.jsonl``
        and the sweep directory holds nothing else, bounding its
        fan-out at 256 segments."""
        cache = ResultCache(tmp_path)
        cache.put("s", "abcd", {}, 1)
        cache.put("s", "abxy", {}, 2)
        cache.put("s", "cdef", {}, 3)
        cache.quarantine("s", "cdzz", {}, "permanent")
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "ab.jsonl", "cd.jsonl",
        ]
        assert cache.manifest_keys("s") == {"abcd", "abxy", "cdef"}
        assert dict(cache.stats().shards_per_sweep) == {"s": 2}

    def test_manifest_keys_tolerate_missing_sweep(self, tmp_path):
        assert ResultCache(tmp_path).manifest_keys("nope") == set()

    def test_concurrent_writers_share_one_journal(self, tmp_path):
        """Two cache handles appending to the same segment must both
        land, and each sees the other's write on its next read."""
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        a.put("s", "ab01", {}, 1)
        assert b.manifest_keys("s") == {"ab01"}  # b's memo now holds it
        b.put("s", "ab02", {}, 2)
        a.put("s", "ab03", {}, 3)
        for cache in (a, b):
            assert cache.manifest_keys("s") == {"ab01", "ab02", "ab03"}
            assert [cache.get("s", k) for k in ("ab01", "ab02", "ab03")] == [
                (1, True), (2, True), (3, True),
            ]
        assert len(list((tmp_path / "s").iterdir())) == 1

    def test_clear_counts_do_not_stat(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k", {"a": 1}, 1)
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_readonly_cache_still_serves_index_reads(
        self, tmp_path, monkeypatch
    ):
        """On a read-only mount every read still answers and no write
        touches a segment (root bypasses permission bits, so this is
        simulated by refusing every open-for-write and temp file)."""
        from repro.runner import jsonl_log

        cache = ResultCache(tmp_path)
        cache.put("s", "k0", {}, 0)
        cache.put("s", "k0", {}, 0)  # one dead record for compact
        cache.put("s", "k1", {}, 1)
        before = {p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()}

        def refuse(*a, **k):
            raise OSError("read-only file system")

        monkeypatch.setattr(jsonl_log.os, "open", refuse)
        monkeypatch.setattr(jsonl_log.tempfile, "mkstemp", refuse)
        fresh = ResultCache(tmp_path)
        stats = fresh.stats()
        assert stats.entries == 2 and stats.sweeps == ("s",)
        assert fresh.manifest_keys("s") == {"k0", "k1"}
        assert fresh.get("s", "k1") == (1, True)
        with pytest.raises(OSError):
            fresh.put("s", "k2", {}, 2)
        fresh.quarantine("s", "k3", {}, "boom")  # best-effort, no raise
        assert fresh.compact("s") == 0
        monkeypatch.undo()
        assert {
            p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()
        } == before


class TestResume:
    """run_sweep(resume=True): manifest-driven skip of existing points."""

    def test_resume_skips_listed_points(self, tmp_path):
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, cache=cache, code="v1")
        assert _calls(tmp_path / "calls.txt") == 4
        resumed = run_sweep(sweep, cache=cache, code="v1", resume=True)
        assert resumed.hits == 4 and resumed.misses == 0
        assert _calls(tmp_path / "calls.txt") == 4  # nothing recomputed

    def test_resume_after_partial_run(self, tmp_path):
        """The killed-sweep scenario: only some entries exist; resume
        computes exactly the rest and the rows match a full run."""
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        full = run_sweep(sweep, cache=ResultCache(tmp_path / "ref"), code="v1")
        # Simulate the kill: seed the cache with only the first 2 points.
        partial = Sweep(name=sweep.name, run_fn=sweep.run_fn,
                        points=sweep.points[:2])
        run_sweep(partial, cache=cache, code="v1")
        calls_before = _calls(tmp_path / "calls.txt")
        resumed = run_sweep(sweep, cache=cache, code="v1", resume=True)
        assert resumed.hits == 2 and resumed.misses == 2
        assert _calls(tmp_path / "calls.txt") == calls_before + 2
        assert json.dumps(resumed.rows) == json.dumps(full.rows)

    def test_resume_validates_stale_manifest_listings(self, tmp_path):
        """A key whose put record was torn is recomputed, not trusted:
        a record is served only if it parses intact."""
        sweep = _counting_sweep(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(sweep, cache=cache, code="v1")
        _tear_record(cache.root, sweep.name, cold.outcomes[1].key)
        resumed = run_sweep(sweep, cache=cache, code="v1", resume=True)
        assert resumed.hits == 3 and resumed.misses == 1
        assert json.dumps(resumed.rows) == json.dumps(cold.rows)

    def test_resume_requires_cache(self, tmp_path):
        with pytest.raises(ValueError, match="requires a cache"):
            run_sweep(_counting_sweep(tmp_path), resume=True)

    def test_retry_quarantined_requires_resume(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="requires resume=True"):
            run_sweep(_counting_sweep(tmp_path), cache=cache,
                      retry_quarantined=True)
        assert _calls(tmp_path / "calls.txt") == 0


class TestManifestCompaction:
    """Folding dead segment history away, crash-safely, and only when
    asked to."""

    @staticmethod
    def _churn(cache, n_keys=2, rewrites=12):
        for _ in range(rewrites):
            for i in range(n_keys):
                cache.put("s", f"k{i}", {"i": i}, i)

    def test_compact_drops_dead_records_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._churn(cache)
        records_before = _records(cache, "s")
        dropped = cache.compact("s")
        assert dropped == len(records_before) - 2
        records = _records(cache, "s")
        assert len(records) == 2  # exactly the fold: one put per live key
        assert cache.manifest_keys("s") == {"k0", "k1"}
        for i in range(2):
            value, hit = cache.get("s", f"k{i}")
            assert hit and value == i

    def test_compact_noop_when_nothing_dead(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("s", "k0", {}, 0)
        before = _records(cache, "s")
        assert cache.compact("s") == 0
        assert _records(cache, "s") == before

    def test_compaction_preserves_quarantine_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._churn(cache)
        cache.quarantine("s", "bad", {"x": -1}, "permanent failure")
        assert cache.compact("s") > 0
        assert "bad" in cache.quarantined("s")

    def test_index_reads_never_compact(self, tmp_path):
        """The log is the data, so only an explicit compact rewrites it:
        a read racing another writer must never drop a result."""
        cache = ResultCache(tmp_path)
        self._churn(cache)
        before = {p: p.read_bytes() for p in (tmp_path / "s").iterdir()}
        assert cache.manifest_keys("s") == {"k0", "k1"}
        cache.quarantined("s")
        cache.stats()
        cache.get("s", "k0")
        cache.get("s", "k1")
        assert {p: p.read_bytes() for p in (tmp_path / "s").iterdir()} == before

    def test_small_journals_never_churn(self, tmp_path):
        """A read leaves a segment with a dead record as it is."""
        cache = ResultCache(tmp_path)
        cache.put("s", "k0", {}, 0)
        cache.put("s", "k0", {}, 0)  # one dead record
        records = _records(cache, "s")
        cache.manifest_keys("s")
        assert _records(cache, "s") == records

    def test_torn_compaction_leaves_manifest_intact(
        self, tmp_path, monkeypatch
    ):
        """Crash between writing the compacted temp file and the rename:
        the old segment must survive byte for byte and no temp debris
        leak into the sweep directory."""
        from repro.runner import jsonl_log

        cache = ResultCache(tmp_path)
        self._churn(cache)
        before = {p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()}

        def torn_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(jsonl_log.os, "replace", torn_replace)
        assert cache.compact("s") == 0  # best-effort: reports nothing done
        monkeypatch.undo()
        # Both segments byte for byte, and no temp file left beside them.
        assert {
            p.name: p.read_bytes() for p in (tmp_path / "s").iterdir()
        } == before
        assert cache.compact("s") > 0  # the retry completes the fold
        assert sorted(cache.manifest_keys("s")) == ["k0", "k1"]


class TestBulkIO:
    """put_many: a resolved batch costs one journal append and one
    fsync per shard touched, never one per point."""

    ENTRIES = [
        ("ab0000", {"i": 0}, 0),
        ("ab0001", {"i": 1}, 1),
        ("ab0002", {"i": 2}, 2),
        ("cd0000", {"i": 3}, 3),
        ("cd0001", {"i": 4}, 4),
    ]

    def test_put_many_matches_scalar_puts(self, tmp_path):
        scalar, bulk = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
        for key, params, value in self.ENTRIES:
            scalar.put("s", key, params, value)
        assert bulk.put_many("s", self.ENTRIES) == len(self.ENTRIES)
        assert scalar.manifest_keys("s") == bulk.manifest_keys("s")
        for key, _, value in self.ENTRIES:
            got, hit = bulk.get("s", key)
            assert hit and got == value

    def test_put_many_one_append_one_fsync_per_shard(
        self, tmp_path, monkeypatch
    ):
        from repro.runner import jsonl_log

        cache = ResultCache(tmp_path)
        appends = []
        original = jsonl_log.append

        def counting(path, lines, fsync=False):
            appends.append((path.name, fsync))
            return original(path, lines, fsync)

        monkeypatch.setattr(jsonl_log, "append", counting)
        cache.put_many("s", self.ENTRIES)
        # 5 entries across 2 segments: exactly 2 writes, each fsynced.
        assert sorted(appends) == [("ab.jsonl", True), ("cd.jsonl", True)]
        assert sorted(cache.manifest_keys("s")) == sorted(
            k for k, _, _ in self.ENTRIES
        )

    def test_stats_fold_is_memoized_on_snapshot(self, tmp_path, monkeypatch):
        """Repeated reads of an unchanged segment cost one stat, not a
        re-read+re-fold (the code_version() trick)."""
        from repro.runner import jsonl_log

        cache = ResultCache(tmp_path)
        cache.put_many("s", self.ENTRIES)
        first = cache.stats()

        def forbidden(path):
            raise AssertionError(f"re-read unchanged segment {path}")

        monkeypatch.setattr(jsonl_log, "read", forbidden)
        assert cache.stats() == first  # folds served from memo
        assert cache.get("s", "ab0001") == (1, True)
        monkeypatch.undo()

        # Any write invalidates: the next read refolds and sees it.
        cache.put("s", "ab0077", {}, 7)
        assert cache.stats().entries == first.entries + 1


class TestSweepShards:
    def test_shards_count_the_shard_directories_written(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_sweep(_counting_sweep(tmp_path, n=8), cache=cache, code="v")
        assert result.shards == len({o.key[:2] for o in result.outcomes})
        assert result.shards == len(list((tmp_path / "counting").iterdir()))
        again = run_sweep(_counting_sweep(tmp_path, n=8), cache=cache, code="v")
        assert again.shards == 0  # nothing fresh was written
        assert run_sweep(_counting_sweep(tmp_path, n=8)).shards == 0


#: Point ``x`` of the scripted sweep fails on every attempt below
#: ``_FAILS_UNTIL[x]``: points 1 and 4 are transient failures, 6 and 7
#: permanent ones.  Point 2 is served from the cache.
_FAILS_UNTIL = {1: 1, 4: 2, 6: 99, 7: 99}


class _ScriptedStream:
    """A backend result stream that logs when the runner closes it."""

    def __init__(self, log, results):
        self.log, self.results = log, iter(results)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self.results)

    def close(self):
        self.log.append(("close",))


class _ScriptedBackend:
    """Spy backend: logs every ``map`` call and answers from the script;
    a point computed on attempt ``a`` took ``a + 0.5`` seconds."""

    name = "scripted"
    jobs = 1

    def __init__(self, log):
        self.log = log

    def map(self, fn, items, **kwargs):
        self.log.append(("map", [p["x"] for p in items], kwargs))
        attempt = kwargs.get("attempt", 0)
        results = []
        for params in items:
            x = params["x"]
            if attempt < _FAILS_UNTIL.get(x, 0):
                error = f"RuntimeError: x={x} attempt={attempt}"
                results.append(TaskResult(None, attempt + 0.5, error=error))
            else:
                results.append(TaskResult([10 * x], attempt + 0.5))
        return _ScriptedStream(self.log, results)

    def close(self):
        self.log.append(("backend-close",))


def _unreachable_point(params):
    raise AssertionError("the scripted backend never calls the point")


class TestSweepEventOrder:
    """The exact interleaving of progress events, cache writes, backend
    calls and retry sleeps, under every retry policy shape."""

    POINTS = tuple({"x": x} for x in range(9))
    KEYS = [point_key("order", p, "v") for p in POINTS]

    @pytest.fixture
    def cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("order", self.KEYS[2], self.POINTS[2], [20])
        return cache

    @pytest.fixture
    def log(self, monkeypatch):
        log = []
        real_put, real_quarantine = ResultCache.put, ResultCache.quarantine

        def put(cache, sweep, key, params, value):
            log.append(("put", self.KEYS.index(key)))
            real_put(cache, sweep, key, params, value)

        def quarantine(cache, sweep, key, params, error):
            log.append(("quarantine", self.KEYS.index(key)))
            real_quarantine(cache, sweep, key, params, error)

        monkeypatch.setattr(ResultCache, "put", put)
        monkeypatch.setattr(ResultCache, "quarantine", quarantine)
        monkeypatch.setattr(time, "sleep", lambda s: log.append(("sleep", s)))
        return log

    def _run(self, cache, log, **kwargs):
        def progress(ev):
            assert (ev.sweep, ev.total) == ("order", 9)
            assert ev.params == self.POINTS[ev.index]
            log.append(("ev", ev.index, ev.cached, ev.status, ev.seconds))

        sweep = Sweep(name="order", run_fn=_unreachable_point, points=self.POINTS)
        return run_sweep(
            sweep, cache=cache, progress=progress, code="v",
            backend=_ScriptedBackend(log), **kwargs,
        )

    def _shards(self, *indices):
        return len({self.KEYS[i][:2] for i in indices})

    #: Round 0 of every policy with retries: the whole sweep streams in
    #: declaration order, cached point 2 in place, failures queued.
    ROUND0_RETRYING = [
        ("map", [0, 1, 3, 4, 5, 6, 7, 8], {}),
        ("put", 0), ("ev", 0, False, "ok", 0.5),
        ("ev", 1, False, "retry", 0.5),
        ("ev", 2, True, "ok", 0.0),
        ("put", 3), ("ev", 3, False, "ok", 0.5),
        ("ev", 4, False, "retry", 0.5),
        ("put", 5), ("ev", 5, False, "ok", 0.5),
        ("ev", 6, False, "retry", 0.5),
        ("ev", 7, False, "retry", 0.5),
        ("put", 8), ("ev", 8, False, "ok", 0.5),
    ]

    def test_retries_keep(self, cache, log):
        policy = RetryPolicy(retries=2, backoff=0.01)
        result = self._run(cache, log, retry=policy, on_error="keep")
        assert log == self.ROUND0_RETRYING + [
            ("sleep", policy.delay(1, "order")),
            ("close",),
            ("map", [1, 4, 6, 7], {"timeout": None, "attempt": 1}),
            ("put", 1), ("ev", 1, False, "ok", 1.5),
            ("ev", 4, False, "retry", 1.5),
            ("ev", 6, False, "retry", 1.5),
            ("ev", 7, False, "retry", 1.5),
            ("sleep", policy.delay(2, "order")),
            ("close",),
            ("map", [4, 6, 7], {"timeout": None, "attempt": 2}),
            ("put", 4), ("ev", 4, False, "ok", 2.5),
            ("quarantine", 6), ("ev", 6, False, "error", 2.5),
            ("quarantine", 7), ("ev", 7, False, "error", 2.5),
            ("close",),
        ]
        assert [(o.status, o.cached, o.seconds) for o in result.outcomes] == [
            ("ok", False, 0.5), ("ok", False, 1.5), ("ok", True, 0.0),
            ("ok", False, 0.5), ("ok", False, 2.5), ("ok", False, 0.5),
            ("error", False, 2.5), ("error", False, 2.5), ("ok", False, 0.5),
        ]
        assert [o.error for o in result.outcomes if o.error] == [
            "RuntimeError: x=6 attempt=2", "RuntimeError: x=7 attempt=2",
        ]
        assert result.rows == [0, 10, 20, 30, 40, 50, 80]
        assert result.shards == self._shards(0, 1, 3, 4, 5, 8)
        assert set(cache.quarantined("order")) == {self.KEYS[6], self.KEYS[7]}

    def test_breaker_trips_mid_round(self, cache, log):
        policy = RetryPolicy(retries=1, backoff=0.01, max_failures=2)
        with pytest.raises(CircuitOpenError) as info:
            self._run(cache, log, retry=policy, on_error="keep")
        assert log == self.ROUND0_RETRYING + [
            ("sleep", policy.delay(1, "order")),
            ("close",),
            ("map", [1, 4, 6, 7], {"timeout": None, "attempt": 1}),
            ("put", 1), ("ev", 1, False, "ok", 1.5),
            ("quarantine", 4), ("ev", 4, False, "error", 1.5),
            ("quarantine", 6), ("ev", 6, False, "error", 1.5),
            ("close",),
        ]
        assert info.value.report.to_dict() == {
            "sweep": "order", "total": 9, "resolved": 8, "max_failures": 2,
            "failures": [
                {"params": {"x": 4}, "error": "RuntimeError: x=4 attempt=1",
                 "attempts": 2},
                {"params": {"x": 6}, "error": "RuntimeError: x=6 attempt=1",
                 "attempts": 2},
            ],
        }

    def test_no_retries_keep(self, cache, log):
        result = self._run(
            cache, log, retry=RetryPolicy(retries=0), on_error="keep"
        )
        assert log == [
            ("map", [0, 1, 3, 4, 5, 6, 7, 8], {}),
            ("put", 0), ("ev", 0, False, "ok", 0.5),
            ("ev", 1, False, "error", 0.5),
            ("ev", 2, True, "ok", 0.0),
            ("put", 3), ("ev", 3, False, "ok", 0.5),
            ("ev", 4, False, "error", 0.5),
            ("put", 5), ("ev", 5, False, "ok", 0.5),
            ("ev", 6, False, "error", 0.5),
            ("ev", 7, False, "error", 0.5),
            ("put", 8), ("ev", 8, False, "ok", 0.5),
            ("close",),
        ]
        assert [o.status for o in result.outcomes] == [
            "ok", "error", "ok", "ok", "error", "ok", "error", "error", "ok",
        ]
        assert result.rows == [0, 20, 30, 50, 80]
        assert result.shards == self._shards(0, 3, 5, 8)
        assert cache.quarantined("order") == {}

    def test_retries_raise(self, cache, log):
        policy = RetryPolicy(retries=2, backoff=0.01)
        with pytest.raises(SweepPointError) as info:
            self._run(cache, log, retry=policy)
        assert log == self.ROUND0_RETRYING + [
            ("sleep", policy.delay(1, "order")),
            ("close",),
            ("map", [1, 4, 6, 7], {"timeout": None, "attempt": 1}),
            ("put", 1), ("ev", 1, False, "ok", 1.5),
            ("ev", 4, False, "retry", 1.5),
            ("ev", 6, False, "retry", 1.5),
            ("ev", 7, False, "retry", 1.5),
            ("sleep", policy.delay(2, "order")),
            ("close",),
            ("map", [4, 6, 7], {"timeout": None, "attempt": 2}),
            ("put", 4), ("ev", 4, False, "ok", 2.5),
            ("close",),
        ]
        assert info.value.params == {"x": 6}
        assert info.value.error == "RuntimeError: x=6 attempt=2"
        assert cache.quarantined("order") == {}

    def test_resume_skips_quarantined_in_place(self, cache, log):
        policy = RetryPolicy(retries=1, backoff=0.01)
        first = self._run(cache, log, retry=policy, on_error="keep", resume=True)
        assert log == self.ROUND0_RETRYING + [
            ("sleep", policy.delay(1, "order")),
            ("close",),
            ("map", [1, 4, 6, 7], {"timeout": None, "attempt": 1}),
            ("put", 1), ("ev", 1, False, "ok", 1.5),
            ("quarantine", 4), ("ev", 4, False, "error", 1.5),
            ("quarantine", 6), ("ev", 6, False, "error", 1.5),
            ("quarantine", 7), ("ev", 7, False, "error", 1.5),
            ("close",),
        ]
        assert first.errors == 3 and first.shards == self._shards(0, 1, 3, 5, 8)
        log.clear()
        again = self._run(cache, log, retry=policy, on_error="keep", resume=True)
        assert log == [
            ("map", [], {}),
            ("ev", 0, True, "ok", 0.0),
            ("ev", 1, True, "ok", 0.0),
            ("ev", 2, True, "ok", 0.0),
            ("ev", 3, True, "ok", 0.0),
            ("ev", 4, False, "quarantined", 0.0),
            ("ev", 5, True, "ok", 0.0),
            ("ev", 6, False, "quarantined", 0.0),
            ("ev", 7, False, "quarantined", 0.0),
            ("ev", 8, True, "ok", 0.0),
            ("close",),
        ]
        assert [o.status for o in again.outcomes] == [
            "ok", "ok", "ok", "ok", "quarantined", "ok", "quarantined",
            "quarantined", "ok",
        ]
        assert [o.error for o in again.outcomes if o.error] == [
            "RuntimeError: x=4 attempt=1", "RuntimeError: x=6 attempt=1",
            "RuntimeError: x=7 attempt=1",
        ]
        assert again.rows == [0, 10, 20, 30, 50, 80]
        assert (again.hits, again.misses, again.shards) == (6, 0, 0)

    def test_inert_default(self, cache, log):
        with pytest.raises(SweepPointError) as info:
            self._run(cache, log)
        assert log == [
            ("map", [0, 1, 3, 4, 5, 6, 7, 8], {}),
            ("put", 0), ("ev", 0, False, "ok", 0.5),
            ("close",),
        ]
        assert info.value.params == {"x": 1}
        assert info.value.__cause__ is None
