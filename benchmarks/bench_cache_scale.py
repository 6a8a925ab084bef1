"""Cache at scale: 100k entries, one segment per shard, O(segments) reads.

The sharded cache exists so that million-point sweeps don't drown in
filesystem metadata: records land in one append-only segment per key
prefix, ``<sweep>/<key[:2]>.jsonl`` (256 segments at most), and reads
fold only the segments a query touches.  This module fills a sweep with
100k entries through the bulk ``put_many`` path and asserts the
acceptance surface:

* the fan-out stays bounded (<= 256 segment files, ~400 records per
  segment at 100k — no file or directory holds the whole sweep);
* ``stats()`` (the ``cache info`` read path) folds the segments in a
  bounded wall-clock budget;
* a warm re-read answers from the fold memo — no segment re-reads;
* ``get`` serves a resume wave from the same folds;
* resume semantics survive scale: removing K put records and re-running
  recomputes exactly those K points, nothing else.

The wall-clock budget is deliberately loose (CI runners are noisy);
the *shape* assertions (fan-out, exact recompute set) are the real
regression net.
"""

from __future__ import annotations

import time

from repro.runner import ResultCache, Sweep, jsonl_log, point_key, run_sweep

#: Entry count for the scale smoke.  100k is the ISSUE's acceptance
#: number: big enough that a flat directory or an O(entries) info read
#: would visibly blow the budget, small enough for a CI smoke job.
N_ENTRIES = 100_000

#: Wall-clock budget for one cold ``stats()`` over the full store.
#: Locally this folds ~256 segments in well under a second; the
#: budget allows a contended CI runner an order of magnitude of slack.
INFO_BUDGET_S = 10.0


def _fill(cache: ResultCache, n: int = N_ENTRIES) -> list:
    """Bulk-load ``n`` synthetic entries; returns the keys."""
    keys = []
    batch = []
    for i in range(n):
        key = point_key("scale", {"i": i}, code="bench")
        keys.append(key)
        batch.append((key, {"i": i}, {"i": i, "v": i * 3}))
        if len(batch) == 4096:
            cache.put_many("scale", batch)
            batch = []
    if batch:
        cache.put_many("scale", batch)
    return keys


def test_cache_scale_100k(tmp_path, benchmark):
    cache = ResultCache(tmp_path)
    t0 = time.perf_counter()
    keys = _fill(cache)
    fill_s = time.perf_counter() - t0

    # Bounded fan-out: 2-hex-char shards cap the segment count at 256
    # and spread 100k entries to ~400 records per segment; the sweep
    # directory holds the segments and nothing else.
    segments = list((tmp_path / "scale").iterdir())
    assert 0 < len(segments) <= 256
    assert all(p.name.endswith(".jsonl") and len(p.name) == 8 for p in segments)
    per_shard = [len(jsonl_log.read(p)) for p in segments]
    assert sum(per_shard) == N_ENTRIES
    assert max(per_shard) < 4 * (N_ENTRIES // len(segments))

    # Cold info read: O(segments) folds.
    fresh = ResultCache(tmp_path)
    t0 = time.perf_counter()
    stats = benchmark.pedantic(
        fresh.stats, rounds=1, iterations=1, warmup_rounds=0
    )
    round_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fresh.stats()
    warm_s = time.perf_counter() - t0
    assert stats.entries == N_ENTRIES
    assert dict(stats.shards_per_sweep)["scale"] == len(segments)
    # Under --benchmark-disable the plugin runs the round untimed.
    cold_s = benchmark.stats.stats.min if benchmark.stats else round_s
    assert cold_s < INFO_BUDGET_S, (
        f"cold stats() took {cold_s:.2f}s over {N_ENTRIES} entries "
        f"(budget {INFO_BUDGET_S:g}s) — index read is no longer O(shards)"
    )
    # The memoized re-read must be dramatically cheaper than the fold.
    assert warm_s < max(cold_s, 1e-3), (
        f"warm stats() ({warm_s:.4f}s) not served from the fold memo "
        f"(cold {cold_s:.4f}s)"
    )

    # Read-back: a full resume wave resolves from the same folds.
    sample = keys[:: max(1, N_ENTRIES // 500)]
    reads = [fresh.get("scale", key) for key in sample]
    assert all(hit for _, hit in reads)
    assert all(value["v"] == 3 * value["i"] for value, _ in reads)

    benchmark.extra_info["fill_s"] = fill_s
    benchmark.extra_info["entries_per_s"] = N_ENTRIES / fill_s
    benchmark.extra_info["segments"] = len(segments)
    benchmark.extra_info["warm_stats_s"] = warm_s
    print(
        f"\ncache scale: {N_ENTRIES:,} entries in {fill_s:.1f}s "
        f"({N_ENTRIES / fill_s:,.0f} entries/s) across "
        f"{len(segments)} segments; cold stats {cold_s * 1e3:.0f} ms, "
        f"warm {warm_s * 1e6:.0f} us"
    )


def _cheap_point(params: dict) -> dict:
    return {"x": params["x"], "y": params["x"] * 2}


def test_resume_recomputes_exactly_deleted(tmp_path):
    """Resume at (reduced) scale: drop K put records from a completed
    sweep and a resumed run recomputes exactly those K points."""
    n, k = 2_000, 7
    sweep = Sweep(
        name="resume-scale",
        run_fn=_cheap_point,
        points=tuple({"x": x} for x in range(n)),
    )
    cache = ResultCache(tmp_path)
    cold = run_sweep(sweep, cache=cache, code="bench")
    assert cold.misses == n

    victims = [o.key for o in cold.outcomes[:: n // k]][:k]
    for key in victims:
        segment = tmp_path / sweep.name / f"{key[:2]}.jsonl"
        assert jsonl_log.rewrite(segment, [
            line for line, record in jsonl_log.read(segment)
            if record["key"] != key
        ])

    resumed = run_sweep(
        sweep, cache=ResultCache(tmp_path), code="bench", resume=True
    )
    assert resumed.misses == len(victims)
    assert resumed.hits == n - len(victims)
    assert resumed.rows == cold.rows
