"""Fault injection at every write boundary of the result store.

The cache's segments (``<sweep>/<key[:2]>.jsonl``) are append-only
logs written through :mod:`repro.runner.jsonl_log`.  A writer killed
mid-append leaves the segment cut at an arbitrary byte; these tests cut
it at *every* byte of the last append and check that the store still
tells one consistent story and keeps working.
"""

import multiprocessing
from pathlib import Path

import pytest

from repro.runner import ResultCache

SWEEP = "s"
EARLIER = [("aa00", {"i": 0}, {"v": 0}), ("aa01", {"i": 1}, [1.5, None])]


def _consistent(cache: ResultCache, keys):
    """stats(), manifest_keys and get agree; returns the served keys."""
    listed = cache.manifest_keys(SWEEP)
    served = {key for key in keys if cache.get(SWEEP, key)[1]}
    assert served == listed
    assert cache.stats().entries == len(listed)
    return listed


def _each_cut(tmp_path: Path, write_last):
    """Yield ``(cache, cut, appended)`` for every truncation point of
    the last append, on a fresh cache handle each time."""
    cache = ResultCache(tmp_path)
    for key, params, value in EARLIER:
        cache.put(SWEEP, key, params, value)
    segment = tmp_path / SWEEP / "aa.jsonl"
    before = segment.read_bytes()
    write_last(cache)
    appended = segment.read_bytes()[len(before):]
    for cut in range(len(appended) + 1):
        segment.write_bytes(before + appended[:cut])
        yield ResultCache(tmp_path), cut, appended


def _complete(appended: bytes, cut: int, keys):
    """The keys whose whole record lies inside the first ``cut`` bytes."""
    whole = set(appended.split(b"\n")) & set(appended[:cut].split(b"\n"))
    return {
        key for key in keys
        if any(b'"key":"%s"' % key.encode() in line for line in whole)
    }


@pytest.mark.parametrize("bulk", [False, True], ids=["put", "put_many"])
def test_truncation_at_every_byte_of_the_last_append(tmp_path, bulk):
    last = [("aa10", {"i": 10}, {"v": 10}), ("aa11", {"i": 11}, {"v": 11}),
            ("aa12", {"i": 12}, "x" * 40)]
    if not bulk:
        last = last[:1]

    def write_last(cache):
        if bulk:
            assert cache.put_many(SWEEP, last) == len(last)
        else:
            cache.put(SWEEP, *last[0])

    last_keys = [key for key, _, _ in last]
    everything = [key for key, _, _ in EARLIER] + last_keys + ["aa99"]
    cuts = 0
    for cache, cut, appended in _each_cut(tmp_path, write_last):
        cuts += 1
        listed = _consistent(cache, everything)
        # Every earlier record is still served, whatever the cut.
        for key, _, value in EARLIER:
            assert cache.get(SWEEP, key) == (value, True)
        # Of the last append, exactly the records cut whole survive.
        assert listed - {k for k, _, _ in EARLIER} == _complete(
            appended, cut, last_keys
        )
        # The next append after the torn tail is readable, and the torn
        # record is not resurrected by it.
        cache.put(SWEEP, "aa99", {}, {"after": cut})
        assert cache.get(SWEEP, "aa99") == ({"after": cut}, True)
        after = _consistent(cache, everything)
        assert after == listed | {"aa99"}
    assert cuts == len(appended) + 1 > 3 * len(last)


def test_quarantine_append_after_torn_tail_survives(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SWEEP, "aa00", {}, 0)
    segment = tmp_path / SWEEP / "aa.jsonl"
    with open(segment, "a") as handle:
        handle.write('{"op":"put","key":"aa01","params":{},"res')
    cache.quarantine(SWEEP, "aa02", {"x": 2}, "permanent")
    assert set(cache.quarantined(SWEEP)) == {"aa02"}
    assert _consistent(cache, ["aa00", "aa01", "aa02"]) == {"aa00"}


def _hammer(root: str, worker: int, n: int) -> None:
    cache = ResultCache(root)
    for i in range(n):
        cache.put(SWEEP, f"aa{worker:02d}{i:04d}", {"w": worker}, [worker, i])


def test_concurrent_appenders_lose_nothing(tmp_path):
    """More writer processes than cores appending to one segment: every
    record lands whole (O_APPEND writes never interleave)."""
    workers, n = 4, 150
    ctx = multiprocessing.get_context("spawn")
    procs = [
        ctx.Process(target=_hammer, args=(str(tmp_path), w, n))
        for w in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=60)
    assert all(proc.exitcode == 0 for proc in procs)
    cache = ResultCache(tmp_path)
    keys = [f"aa{w:02d}{i:04d}" for w in range(workers) for i in range(n)]
    assert cache.manifest_keys(SWEEP) == set(keys)
    for key in keys:
        assert cache.get(SWEEP, key) == ([int(key[2:4]), int(key[4:])], True)
    lines = (tmp_path / SWEEP / "aa.jsonl").read_text().split("\n")
    assert sum(1 for line in lines if line) == workers * n
