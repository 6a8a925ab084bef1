"""Content-addressed on-disk cache for sweep-point results.

Layout: one append-only **segment** per shard, named by key prefix::

    <root>/<sweep-name>/<key[:2]>.jsonl

where ``key`` is the :func:`repro.runner.hashing.point_key` digest.
The two-character prefix bounds the fan-out: a sweep directory holds
at most 256 segments however many results it accrues.  Each line of a
segment is one complete record::

    {"op":"put","key":K,"params":{...},"result":...,"created":T}
    {"op":"quarantine","key":K,"params":{...},"error":"...","created":T}

The log *is* the store: there are no entry files and no separate
index.  A segment's fold — last ``put`` per key wins, and a live
``put`` outranks any ``quarantine`` of the same key — is both its
index and its data, memoized on the segment's ``(mtime_ns, size)`` so
repeated reads of an unchanged segment cost one ``stat``.  A
quarantine marks a *known-permanent failure* (a point that exhausted
its retry budget under the runner's fault-tolerance layer, see
``docs/runner.md``); a later successful ``put`` of the key clears it,
which is what a ``--retry-quarantined`` run does when the point
finally computes.  Records are human-readable JSON in Python's dialect
(``NaN`` where an experiment reports a missing paper value).

The append, salvage-read and atomic-rewrite rules every segment obeys
live in :mod:`repro.runner.jsonl_log`.  Directories an older layout
left under ``<sweep>/`` (``<key[:2]>/<key>.json`` entry files and
their manifests) are never read: their keys embed an older
``code_version()``, so no lookup can reach them, and
``python -m repro cache clear`` removes them.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Set, Tuple

from repro.runner import jsonl_log

__all__ = ["CacheStats", "ResultCache", "default_cache_dir"]


class _Fold(NamedTuple):
    """One segment folded: its index and its data at once."""

    live: Dict[str, str]  # key -> the line of its winning put record
    quarantined: Dict[str, dict]  # key -> quarantine record
    records: int  # intact records in the segment, dead ones included
    size: int  # segment bytes


_EMPTY = _Fold({}, {}, 0, 0)


def default_cache_dir() -> Path:
    """The sweep cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-sweeps"


def shard_prefix(key: str) -> str:
    """The segment name for ``key`` — its first two characters.

    ``point_key`` digests are 64 hex characters, giving 256 segments;
    the degenerate short-key case still lands in a well-formed name.
    """
    return key[:2] if len(key) >= 2 else (key + "__")[:2]


def _fold_records(pairs: List[Tuple[str, dict]], size: int) -> _Fold:
    live: Dict[str, str] = {}
    quarantined: Dict[str, dict] = {}
    for line, record in pairs:
        op, key = record.get("op"), record.get("key")
        if not isinstance(key, str):
            continue
        if op == "put" and "result" in record:
            live[key] = line
        elif op == "quarantine":
            quarantined[key] = record
    for key in live:
        quarantined.pop(key, None)  # a live result outranks a quarantine
    return _Fold(live, quarantined, len(pairs), size)


@dataclass(frozen=True)
class CacheStats:
    """Aggregate numbers for ``python -m repro cache info``.

    ``bytes`` is the on-disk size of the segments.  ``per_sweep`` maps
    sweep name to ``(entries, quarantined)`` so the CLI can surface
    known-permanent failures per namespace without another read.
    ``shards_per_sweep`` reports each namespace's segment count so
    fan-out is visible from ``cache info``.
    """

    entries: int
    bytes: int
    sweeps: Tuple[str, ...]
    quarantined: int = 0
    per_sweep: Tuple[Tuple[str, int, int], ...] = ()
    shards_per_sweep: Tuple[Tuple[str, int], ...] = ()


class ResultCache:
    """A directory of content-addressed sweep-point results."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        # str(segment path) -> ((mtime_ns, size), fold).  Every append
        # grows the file and every compaction shrinks it, so a changed
        # segment never matches its memo; read-after-write within one
        # process and across processes both see fresh data.
        self._memo: Dict[str, Tuple[Tuple[int, int], _Fold]] = {}

    def _segment(self, sweep: str, key: str) -> Path:
        return self.root / sweep / f"{shard_prefix(key)}.jsonl"

    def _segments(self, sweep: str) -> List[Path]:
        """The sweep's segments, ``??.jsonl`` and nothing else."""
        target = self.root / sweep
        try:
            names = sorted(os.listdir(target))
        except OSError:
            return []
        return [
            target / name for name in names
            if len(name) == 8 and name.endswith(".jsonl")
        ]

    def _fold(self, path: Path) -> _Fold:
        """The memoized fold of one segment; empty when it is missing.

        The ``stat`` comes before the read: a segment appended to in
        between folds newer than its memo signature, which the next
        ``stat`` notices and refolds — a memo is never staler than the
        file it names.
        """
        spath = str(path)
        try:
            st = os.stat(path)
        except OSError:
            self._memo.pop(spath, None)
            return _EMPTY
        sig = (st.st_mtime_ns, st.st_size)
        memo = self._memo.get(spath)
        if memo is not None and memo[0] == sig:
            return memo[1]
        try:
            fold = _fold_records(jsonl_log.read(path), st.st_size)
        except OSError:
            return _EMPTY
        self._memo[spath] = (sig, fold)
        return fold

    def _folded_sweep(self, sweep: str) -> List[_Fold]:
        """One fold per segment of ``sweep``: O(segments), and one
        ``stat`` each when nothing changed since the last read."""
        return [self._fold(path) for path in self._segments(sweep)]

    # -- results ----------------------------------------------------------

    def get(self, sweep: str, key: str) -> Tuple[Any, bool]:
        """Look up ``key``; returns ``(value, hit)``.

        Only a record that parsed intact is ever served: a torn or
        unparsable line is skipped by the fold, so its key reads as a
        miss (recomputed and re-put by the runner) — never an
        exception, never half a result.  The value is parsed afresh from
        the record's line on every hit, so callers may mutate it.
        """
        line = self._fold(self._segment(sweep, key)).live.get(key)
        if line is None:
            return None, False
        return json.loads(line)["result"], True

    @staticmethod
    def _put_line(key: str, params: Mapping[str, Any], value: Any) -> str:
        return jsonl_log.encode({
            "op": "put", "key": key, "params": dict(params),
            "result": value, "created": time.time(),
        })

    def put(
        self,
        sweep: str,
        key: str,
        params: Mapping[str, Any],
        value: Any,
    ) -> None:
        """Store ``value`` with one ``O_APPEND`` write to its segment.

        The record is encoded before the segment is opened, so a value
        that is not JSON-able raises ``TypeError`` having written
        nothing.  The single write is the commit point: an interrupt
        lands either before it (the point is simply missing) or after
        it (the point is stored) — there is no second write to drift
        from.  ``OSError`` (e.g. a read-only store) propagates.
        """
        line = self._put_line(key, params, value)
        jsonl_log.append(self._segment(sweep, key), [line])

    def put_many(
        self,
        sweep: str,
        entries: Iterable[Tuple[str, Mapping[str, Any], Any]],
    ) -> int:
        """Store ``(key, params, value)`` triples; returns how many.

        The records are grouped by segment and each touched segment
        receives **one** ``O_APPEND`` write followed by **one**
        ``fsync``, so a 256-entry call costs a handful of syncs, not
        256.  Every record is encoded before the first write, so an
        unencodable value raises ``TypeError`` having written nothing.
        """
        by_segment: Dict[Path, List[str]] = {}
        for key, params, value in entries:
            by_segment.setdefault(self._segment(sweep, key), []).append(
                self._put_line(key, params, value)
            )
        for path, lines in by_segment.items():
            jsonl_log.append(path, lines, fsync=True)
        return sum(len(lines) for lines in by_segment.values())

    def manifest_keys(self, sweep: str) -> Set[str]:
        """Keys stored for ``sweep``.

        Exactly the keys :meth:`get` serves, read from the same folds.
        """
        return {key for fold in self._folded_sweep(sweep) for key in fold.live}

    def compact(self, sweep: str) -> int:
        """Rewrite each segment of ``sweep`` down to its fold; returns
        the number of dead records (overwritten puts, cleared
        quarantines) dropped.

        Each segment is rewritten on its own through
        :func:`jsonl_log.rewrite` (write-new, then ``os.replace``), so a
        crash mid-compaction leaves every segment either fully old or
        fully folded, and a refused write (read-only store) leaves it
        old.  Compaction replaces the log that *is* the data: a record
        another process appends between the fold and the rename is
        lost.  That is why only ``python -m repro cache compact`` runs
        it — never an index read — and it must not race a live sweep.
        """
        dead = 0
        for path in self._segments(sweep):
            fold = self._fold(path)
            drop = fold.records - len(fold.live) - len(fold.quarantined)
            if drop <= 0:
                continue
            lines = [fold.live[key] for key in sorted(fold.live)] + [
                jsonl_log.encode(fold.quarantined[key])
                for key in sorted(fold.quarantined)
            ]
            if jsonl_log.rewrite(path, lines):
                dead += drop
        return dead

    # -- quarantine -----------------------------------------------------

    def quarantine(
        self, sweep: str, key: str, params: Mapping[str, Any], error: str
    ) -> None:
        """Record ``key`` as a known-permanent failure.

        Written by the runner when a point exhausts its retry budget
        under ``on_error="keep"``: resumes then skip the point instead
        of re-failing it (``--retry-quarantined`` opts back in), and
        ``cache info`` surfaces the count.  The record has no result,
        so it can never be served as data.  Best-effort: a read-only
        cache loses the record, never the run.
        """
        record = {
            "op": "quarantine", "key": key, "params": dict(params),
            "error": str(error), "created": time.time(),
        }
        line = jsonl_log.encode(record)
        try:
            jsonl_log.append(self._segment(sweep, key), [line])
        except OSError:
            pass

    def quarantined(self, sweep: str) -> Dict[str, dict]:
        """The sweep's known-permanent failures, ``{key: record}``.

        Each record carries the offending ``params`` and the final
        ``error`` string.  Keys with a live result (a later successful
        put) are never listed.
        """
        return {
            key: record
            for fold in self._folded_sweep(sweep)
            for key, record in fold.quarantined.items()
        }

    # -- aggregate views ------------------------------------------------

    def stats(self) -> CacheStats:
        """Entry count, segment bytes, and the sweep namespaces present.

        One memoized fold per segment: O(segments) reads cold, one
        ``stat`` per segment warm.
        """
        count = size = bad = 0
        sweeps, per_sweep, shards_per_sweep = [], [], []
        if self.root.is_dir():
            for child in sorted(self.root.iterdir()):
                if not child.is_dir():
                    continue
                folds = self._folded_sweep(child.name)
                live = sum(len(fold.live) for fold in folds)
                quarantined = sum(len(fold.quarantined) for fold in folds)
                if not live and not quarantined:
                    continue
                count += live
                size += sum(fold.size for fold in folds)
                bad += quarantined
                sweeps.append(child.name)
                per_sweep.append((child.name, live, quarantined))
                shards_per_sweep.append((child.name, len(folds)))
        return CacheStats(
            entries=count,
            bytes=size,
            sweeps=tuple(sweeps),
            quarantined=bad,
            per_sweep=tuple(per_sweep),
            shards_per_sweep=tuple(shards_per_sweep),
        )

    def clear(self, sweep: str | None = None) -> int:
        """Delete all results (or one sweep's); returns the count removed.

        Whole sweep directories go, so anything an older layout left
        beside the segments goes with them.  A directory counts as a
        sweep only if it holds a segment or is empty: anything else
        under the root (say a source tree behind a mistyped
        ``--cache-dir``) is left alone.
        """
        if sweep is not None:
            targets = [self.root / sweep]
        elif self.root.is_dir():
            targets = [c for c in self.root.iterdir() if c.is_dir()]
        else:
            targets = []
        removed = 0
        for target in targets:
            if not self._segments(target.name) and any(target.glob("*")):
                continue
            removed += len(self.manifest_keys(target.name))
            shutil.rmtree(target, ignore_errors=True)
        self._memo.clear()
        return removed
