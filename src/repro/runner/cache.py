"""Content-addressed on-disk cache for sweep-point results.

Layout: one JSON file per point, sharded by key prefix::

    <root>/<sweep-name>/<key[:2]>/<key>.json
    <root>/<sweep-name>/<key[:2]>/MANIFEST.jsonl

where ``key`` is the :func:`repro.runner.hashing.point_key` digest.
The two-hex-character prefix bounds every directory: a sweep directory
holds at most 256 shard directories however many entries it accrues,
so million-point campaigns never produce a directory listing that
chokes tooling (the bounded fan-out pattern of large content stores).
Each shard carries its own append-only **manifest** journalling every
entry written or healed away inside it.  Entries embed the key and
parameters that produced them, so a cache directory is self-describing
and human-readable.  (Entries may contain ``NaN`` tokens — Python's
JSON dialect — where an experiment reports a missing paper value, so
strict-JSON consumers need ``parse_constant``.)

Files a pre-sharding store left directly under ``<sweep>/`` are
never read: their keys embed an older ``code_version()``, so no lookup
can reach them, and ``python -m repro cache clear`` removes them.

The manifests are the cache's index: ``cache info``
(:meth:`ResultCache.stats`) and sweep resume
(:meth:`ResultCache.manifest_keys`) fold the journals instead of
globbing and stat-ing every entry file, so their cost is
O(shards-touched), not O(entries); per-file folds are additionally
memoized on ``(mtime_ns, size)`` — like ``code_version()`` — so
repeated index reads of an unchanged shard cost one ``stat``.
Journal records are single JSON lines::

    {"op": "put", "key": "<digest>", "bytes": N, "created": T}
    {"op": "del", "key": "<digest>"}

    {"op": "quarantine", "key": "<digest>", "params": {...}, "error": "...", "created": T}

and the index is the fold: last ``put`` wins, ``del`` removes, and
``quarantine`` marks a key as a *known-permanent failure* (a point that
exhausted its retry budget under the runner's fault-tolerance layer —
see ``docs/runner.md``).  Quarantined keys have **no entry file**;
they exist only in the journal, so they can never be served as data.
A later successful ``put`` of the same key clears its quarantine
record (the fold is last-op-wins), which is exactly what a
``--retry-quarantined`` run does when the point finally computes.

**Bulk I/O.**  :meth:`ResultCache.put_many` stores many results at
once — one atomic entry write per point, then a *single* ``O_APPEND``
write and a *single* ``fsync`` per touched shard manifest, instead of
one append per point; :meth:`ResultCache.get_many` is the bulk read.
A 256-entry call therefore costs at most a handful of manifest syncs
however it hashes.

Robustness rules:

* entry writes are atomic (temp file + :func:`os.replace`), so a killed
  run never leaves a half-written entry;
* unreadable, truncated, or key-mismatched entries are treated as
  misses and deleted (with a ``del`` journal record), so a corrupted
  cache heals itself on the next run;
* manifest appends are single ``O_APPEND`` writes, safe under
  concurrent writers;
* a missing, torn, or corrupt manifest is rebuilt from the entry
  files themselves (:meth:`ResultCache.rebuild_manifest`), shard by
  shard: the entry files are always the ground truth, the manifests
  only an index over them.  The manifests being advisory is also what
  makes them resume-safe (a stale listing is re-validated by
  :meth:`get` before anything trusts it);
* a journal dominated by dead history (overwritten puts, ``del``
  records, cleared quarantines) is **compacted** down to its fold —
  explicitly via ``python -m repro cache compact``
  (:meth:`ResultCache.compact`), or opportunistically whenever an
  index read notices the imbalance.  Compaction rewrites one shard
  journal at a time to a temp file and atomically renames it into
  place, so a crash mid-compaction leaves the old journal intact,
  never a torn hybrid.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Container, Dict, Iterable, Iterator, List, Mapping, Set, Tuple,
)

from repro.runner.hashing import point_key

__all__ = ["CacheStats", "ResultCache", "cached_call", "default_cache_dir"]

_FORMAT = 1  # bump to invalidate every existing entry
_MANIFEST = "MANIFEST.jsonl"

#: A folded journal: ``(live {key: bytes}, quarantine {key: record},
#: records-in-journal)``.
_Fold = Tuple[Dict[str, int], Dict[str, dict], int]


def _cache_disabled() -> bool:
    """Whether ``$REPRO_CACHE_DISABLE`` asks to bypass the store.

    Conventional 'off' spellings (unset, empty, ``0``, ``false``,
    ``no``) leave the cache on.
    """
    value = os.environ.get("REPRO_CACHE_DISABLE", "")
    return value.strip().lower() not in ("", "0", "false", "no")


def default_cache_dir() -> Path:
    """The sweep cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-sweeps"


def shard_prefix(key: str) -> str:
    """The shard directory name for ``key`` — its first two characters.

    ``point_key`` digests are 64 hex characters, giving 256 shards; the
    degenerate short-key case still lands in a well-formed directory.
    """
    return key[:2] if len(key) >= 2 else (key + "__")[:2]


def _fold_lines(text: str) -> _Fold | None:
    """Fold journal text into an index, ``None`` on any unparsable line
    (torn concurrent write, manual edit) — the caller rebuilds from the
    entry files."""
    live: Dict[str, int] = {}
    quar: Dict[str, dict] = {}
    records = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            op, key = record["op"], record["key"]
        except (ValueError, KeyError, TypeError):
            return None
        records += 1
        if op == "put":
            live[key] = int(record.get("bytes", 0))
            quar.pop(key, None)  # a success clears the quarantine
        elif op == "del":
            live.pop(key, None)
        elif op == "quarantine":
            quar[key] = record
        else:
            return None
    return live, quar, records


def _fold_records(fold: _Fold) -> str:
    """Serialise a fold back to minimal journal text (compaction and
    rebuild both converge here so the formats agree)."""
    live, quar, _ = fold
    return "".join(
        json.dumps(
            {"op": "put", "key": key, "bytes": size}, separators=(",", ":")
        ) + "\n"
        for key, size in sorted(live.items())
    ) + "".join(
        json.dumps(record, separators=(",", ":")) + "\n"
        for _, record in sorted(quar.items())
    )


@dataclass(frozen=True)
class CacheStats:
    """Aggregate numbers for ``python -m repro cache info``.

    ``per_sweep`` maps sweep name to ``(entries, quarantined)`` so the
    CLI can surface known-permanent failures per namespace without
    another index read.  ``shards_per_sweep`` reports each namespace's
    shard-directory count so fan-out is visible from ``cache info``.
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
        # str(path) -> ((mtime_ns, size), fold): index reads of an
        # unchanged journal cost one stat (invalidated explicitly by
        # every write path as well, belt and braces).
        self._fold_memo: Dict[str, Tuple[Tuple[int, int], _Fold]] = {}

    def path_for(self, sweep: str, key: str) -> Path:
        """The entry location for ``key`` in ``sweep``."""
        return self.root / sweep / shard_prefix(key) / f"{key}.json"

    def shard_manifest_path(self, sweep: str, prefix: str) -> Path:
        """The journal of one shard directory."""
        return self.root / sweep / prefix / _MANIFEST

    def _shard_dirs(self, sweep: str) -> List[Path]:
        """The sweep's shard directories (two-character children)."""
        target = self.root / sweep
        try:
            return sorted(
                child for child in target.iterdir()
                if len(child.name) == 2 and child.is_dir()
            )
        except OSError:
            return []

    # -- entries --------------------------------------------------------

    def get(self, sweep: str, key: str) -> Tuple[Any, bool]:
        """Look up ``key``; returns ``(value, hit)``.

        A malformed entry (truncated write, manual tampering, format
        drift) is deleted and reported as a miss — never an exception.
        """
        path = self.path_for(sweep, key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None, False
        except OSError:
            return self._heal_entry(sweep, key, path)
        try:
            entry = json.loads(text)
            if entry["format"] != _FORMAT or entry["key"] != key:
                raise ValueError("stale or mismatched cache entry")
            return entry["result"], True
        except (ValueError, KeyError, TypeError):
            return self._heal_entry(sweep, key, path)

    def _heal_entry(
        self, sweep: str, key: str, path: Path
    ) -> Tuple[Any, bool]:
        """Delete a bad entry and journal the del in its shard."""
        try:
            path.unlink(missing_ok=True)
            # Record the heal — but never *create* a manifest out of a
            # lone del record: an index-less shard must keep looking
            # index-less so the next read rebuilds it in full.
            manifest = self.shard_manifest_path(sweep, shard_prefix(key))
            if manifest.exists():
                self._append_lines(
                    manifest,
                    json.dumps({"op": "del", "key": key},
                               separators=(",", ":")) + "\n",
                )
        except OSError:
            pass  # e.g. a read-only shared cache: miss, don't crash
        return None, False

    def _entry_blob(
        self, sweep: str, key: str, params: Mapping[str, Any], value: Any
    ) -> bytes:
        record: Dict[str, Any] = {
            "format": _FORMAT,
            "key": key,
            "sweep": sweep,
            "params": dict(params),
            "created": time.time(),
            "result": value,
        }
        return json.dumps(record, indent=None).encode("utf-8")

    def _write_entry(self, path: Path, data: bytes) -> None:
        """Atomic entry write: temp file in the target dir + rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def put(
        self,
        sweep: str,
        key: str,
        params: Mapping[str, Any],
        value: Any,
    ) -> None:
        """Store ``value`` atomically; raises ``TypeError`` if not JSON-able."""
        data = self._entry_blob(sweep, key, params, value)
        prefix = shard_prefix(key)
        self._write_entry(self.path_for(sweep, key), data)
        try:
            if self._index_preexisting_shard(sweep, prefix, key):
                return
            self._append_manifest(
                sweep,
                {"op": "put", "key": key, "bytes": len(data),
                 "created": time.time()},
                prefix,
            )
        except OSError:
            pass  # entry files are the ground truth; the index can wait

    def put_many(
        self,
        sweep: str,
        entries: Iterable[Tuple[str, Mapping[str, Any], Any]],
    ) -> int:
        """Store ``(key, params, value)`` triples with bulk index I/O.

        Every entry file is still written atomically on its own, but
        the journal cost collapses: the put records are grouped by
        shard and each touched shard manifest receives **one**
        ``O_APPEND`` write followed by **one** ``fsync`` — a resolved
        256-entry call costs a handful of syncs, not 256.  Returns the
        number of entries stored.
        """
        by_shard: Dict[str, List[str]] = {}
        pending: Dict[str, set] = {}
        stored = 0
        for key, params, value in entries:
            data = self._entry_blob(sweep, key, params, value)
            prefix = shard_prefix(key)
            self._write_entry(self.path_for(sweep, key), data)
            record = {
                "op": "put", "key": key, "bytes": len(data),
                "created": time.time(),
            }
            mine = pending.setdefault(prefix, set())
            try:
                # A rebuild may index this entry from its file; the
                # queued record repeats that put, which the fold
                # absorbs, so queue unconditionally.
                self._index_preexisting_shard(sweep, prefix, key, mine)
            except OSError:
                pass
            by_shard.setdefault(prefix, []).append(
                json.dumps(record, separators=(",", ":")) + "\n"
            )
            mine.add(key)
            stored += 1
        for prefix, lines in by_shard.items():
            try:
                self._append_lines(
                    self.shard_manifest_path(sweep, prefix),
                    "".join(lines),
                    fsync=True,
                )
            except OSError:
                pass  # entry files are the ground truth
        return stored

    def get_many(self, sweep: str, keys: Iterable[str]) -> Dict[str, Any]:
        """Bulk lookup; returns ``{key: value}`` for the hits only.

        Misses (and healed-away corrupt entries) are simply absent, so
        callers resolve a whole resume wave with one call and compute
        the complement.
        """
        hits: Dict[str, Any] = {}
        for key in keys:
            value, hit = self.get(sweep, key)
            if hit:
                hits[key] = value
        return hits

    def _index_preexisting_shard(
        self, sweep: str, prefix: str, key: str, ignore: Container[str] = ()
    ) -> bool:
        """Heal an index-less shard that already holds *other* entries.

        First write into a shard directory whose manifest vanished:
        rebuild the shard's journal from its files — which indexes the entry just written
        too, so the caller must skip its own append.  Returns True when
        that happened.  ``put_many`` passes the keys it has already
        written this call as ``ignore`` — its own not-yet-journaled
        entries must not masquerade as a pre-existing index-less shard.
        """
        if self.shard_manifest_path(sweep, prefix).exists():
            return False
        shard_dir = self.root / sweep / prefix
        if any(
            p.suffix == ".json"
            and p.name != f"{key}.json"
            and p.stem not in ignore
            for p in shard_dir.iterdir()
        ):
            self._rebuild_shard(sweep, prefix)
            return True
        return False

    # -- manifest -------------------------------------------------------

    def _append_lines(
        self, path: Path, lines: str, fsync: bool = False
    ) -> None:
        """Append journal text with a single atomic ``O_APPEND`` write."""
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, lines.encode())
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        self._fold_memo.pop(str(path), None)

    def _append_manifest(
        self, sweep: str, record: Mapping[str, Any], prefix: str
    ) -> None:
        """Append one journal record to a shard's manifest."""
        self._append_lines(
            self.shard_manifest_path(sweep, prefix),
            json.dumps(record, separators=(",", ":")) + "\n",
        )

    def _fold_file(self, path: Path) -> _Fold | None:
        """Memoized fold of one journal file.

        ``None`` when the file is missing or torn.  The memo key is the
        ``(mtime_ns, size)`` snapshot — the ``code_version()`` trick —
        so an unchanged journal re-folds for the price of a ``stat``;
        every in-process write additionally drops the memo outright.
        """
        spath = str(path)
        try:
            st = os.stat(path)
        except OSError:
            self._fold_memo.pop(spath, None)
            return None
        sig = (st.st_mtime_ns, st.st_size)
        memo = self._fold_memo.get(spath)
        if memo is not None and memo[0] == sig:
            return memo[1]
        try:
            text = path.read_text()
        except OSError:
            return None
        fold = _fold_lines(text)
        if fold is None:
            self._fold_memo.pop(spath, None)
        else:
            self._fold_memo[spath] = (sig, fold)
        return fold

    def _fold_shard(
        self, sweep: str, prefix: str, heal: bool, compact: bool
    ) -> _Fold:
        """One shard's fold.

        A missing/torn journal is rebuilt from the shard's entry files
        when ``heal``; ``compact`` additionally folds away journals
        dominated by dead history.  Always returns a (possibly empty)
        fold — on a read-only store the derived index is served without
        being persisted.
        """
        path = self.shard_manifest_path(sweep, prefix)
        fold = self._fold_file(path)
        if fold is None:
            if not heal:
                return {}, {}, 0
            live = self._rebuild_shard(sweep, prefix)
            fold = self._fold_file(path)
            if fold is None:
                # Could not persist (read-only store): serve the
                # derived index; quarantine lines, if any, are gone
                # with the unreadable journal.
                return live, {}, len(live)
            return fold
        if compact and self._wants_compaction(fold):
            self._compact_shard(sweep, prefix)
            return self._fold_file(path) or fold
        return fold

    def _folded_sweep(
        self, sweep: str, heal: bool = True, compact: bool = False
    ) -> _Fold:
        """The sweep's index: the union of its shard folds.

        ``records`` sums every journal line so callers can see dead
        weight.  Cost is O(shards-touched): one directory listing plus
        one (memoized) fold per journal present.
        """
        live: Dict[str, int] = {}
        quar: Dict[str, dict] = {}
        records = 0
        for shard in self._shard_dirs(sweep):
            slive, squar, srecords = self._fold_shard(
                sweep, shard.name, heal, compact
            )
            live.update(slive)
            quar.update(squar)
            records += srecords
        for key in live:
            quar.pop(key, None)  # a live entry outranks any quarantine
        return live, quar, records

    def _rebuild_shard(self, sweep: str, prefix: str) -> Dict[str, int]:
        """Re-derive one shard's journal from its entry files."""
        target = self.root / sweep / prefix
        live: Dict[str, int] = {}
        if not target.is_dir():
            return live
        for path in target.glob("*.json"):
            try:
                live[path.stem] = path.stat().st_size
            except OSError:
                continue  # vanished mid-scan
        self._write_rebuilt(
            self.shard_manifest_path(sweep, prefix), target, live
        )
        return live

    def _write_rebuilt(
        self, manifest: Path, target: Path, live: Dict[str, int]
    ) -> None:
        """Atomically persist a rebuilt journal, salvaging quarantines."""
        quar: Dict[str, dict] = {}
        try:
            old = manifest.read_text()
        except OSError:
            old = ""
        for line in old.splitlines():
            try:
                record = json.loads(line)
                op, key = record["op"], record["key"]
            except (ValueError, KeyError, TypeError):
                continue  # salvage what parses, skip the torn line
            if op == "quarantine":
                quar[key] = record
            elif op == "put":
                quar.pop(key, None)
        for key in live:
            quar.pop(key, None)  # an entry file on disk outranks it
        lines = _fold_records((live, quar, 0))
        try:
            fd, tmp = tempfile.mkstemp(dir=target, suffix=".tmp")
        except OSError:
            return  # e.g. a read-only shared cache
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(lines)
            os.replace(tmp, manifest)
        except OSError:
            Path(tmp).unlink(missing_ok=True)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self._fold_memo.pop(str(manifest), None)

    def rebuild_manifest(self, sweep: str) -> Dict[str, int]:
        """Re-derive every shard journal of ``sweep`` from its entry files.

        Returns the sweep's live index.  A concurrent append racing a
        rebuild loses at most its own record, which the next ``put`` of
        that key — or the next rebuild — restores.
        """
        live: Dict[str, int] = {}
        for shard in self._shard_dirs(sweep):
            live.update(self._rebuild_shard(sweep, shard.name))
        return live

    def manifest(self, sweep: str) -> Dict[str, int]:
        """The sweep's live index, ``{key: bytes}`` (healed if needed).

        Opportunistically compacts any journal whose dead history
        (puts overwritten, ``del`` records, cleared quarantines)
        outnumbers its live entries, so a churned sweep's index read
        stays O(shards-touched) no matter how long its history grew.
        """
        live, _, _ = self._folded_sweep(sweep, heal=True, compact=True)
        return live

    @staticmethod
    def _wants_compaction(fold: _Fold) -> bool:
        """Whether a folded journal is worth rewriting: more dead
        records than live ones, with a small floor so tiny journals
        never churn."""
        live, quar, records = fold
        dead = records - len(live) - len(quar)
        return dead > max(len(live) + len(quar), 4)

    def _compact_shard(self, sweep: str, prefix: str) -> int:
        """Rewrite one journal down to its fold; returns dead records
        dropped.  Crash-safe: temp file + atomic rename, so a crash at
        any instant leaves either the full history or the complete fold
        — never a torn hybrid.  Best-effort on read-only caches."""
        path = self.shard_manifest_path(sweep, prefix)
        fold = self._fold_file(path)
        if fold is None:
            return 0
        live, quar, records = fold
        dead = records - len(live) - len(quar)
        if dead <= 0:
            return 0
        target = path.parent
        try:
            fd, tmp = tempfile.mkstemp(dir=target, suffix=".tmp")
        except OSError:
            return 0  # e.g. a read-only shared cache
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(_fold_records(fold))
            os.replace(tmp, path)
        except OSError:
            Path(tmp).unlink(missing_ok=True)
            return 0
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self._fold_memo.pop(str(path), None)
        return dead

    def compact(self, sweep: str) -> int:
        """Fold dead history away, journal by journal; returns the
        total number of dead records dropped.

        Each shard journal is rewritten independently and atomically,
        so a crash mid-compaction affects at most the one journal being
        renamed — and that one is either fully old or fully folded (the
        torn-compaction recovery guarantee).  Missing or torn journals
        are rebuilt from their entry files instead (already minimal;
        they count no dead records).
        """
        dead = 0
        for shard in self._shard_dirs(sweep):
            if self._fold_file(
                self.shard_manifest_path(sweep, shard.name)
            ) is None:
                self._rebuild_shard(sweep, shard.name)
            else:
                dead += self._compact_shard(sweep, shard.name)
        return dead

    # -- quarantine -----------------------------------------------------

    def quarantine(
        self, sweep: str, key: str, params: Mapping[str, Any], error: str
    ) -> None:
        """Journal ``key`` as a known-permanent failure.

        Written by the runner when a point exhausts its retry budget
        under ``on_error="keep"``: resumes then skip the point instead
        of re-failing it (``--retry-quarantined`` opts back in), and
        ``cache info`` surfaces the count.  The record lives in the
        key's *shard* manifest, so it follows the entry through every
        per-shard operation.  Best-effort like every index write — a
        read-only cache loses the record, never the run.
        """
        prefix = shard_prefix(key)
        shard_dir = self.root / sweep / prefix
        try:
            shard_dir.mkdir(parents=True, exist_ok=True)
            if not self.shard_manifest_path(sweep, prefix).exists() and any(
                p.suffix == ".json" for p in shard_dir.iterdir()
            ):
                # Index-less shard (lost journal): index the entries
                # first so the new journal is a complete fold.
                self._rebuild_shard(sweep, prefix)
            self._append_manifest(
                sweep,
                {"op": "quarantine", "key": key, "params": dict(params),
                 "error": str(error), "created": time.time()},
                prefix,
            )
        except OSError:
            pass

    def quarantined(self, sweep: str) -> Dict[str, dict]:
        """The sweep's known-permanent failures, ``{key: record}``.

        Each record carries the offending ``params`` and the final
        ``error`` string.  Keys with a live entry (a later successful
        put) are never listed.
        """
        _, quar, _ = self._folded_sweep(sweep, heal=True, compact=True)
        return quar

    def manifest_keys(self, sweep: str) -> Set[str]:
        """Keys the index lists for ``sweep`` — the resume fast path.

        One (memoized) journal fold per shard touched, O(1) in the
        number of *other* sweeps' entries and independent of entry
        sizes.  Listings are advisory: callers must still :meth:`get`
        (which validates) before trusting one.
        """
        return set(self.manifest(sweep))

    # -- aggregate views ------------------------------------------------

    def entries(self) -> Iterator[Path]:
        """All entry files currently on disk.

        A snapshot, not a lock: a concurrent sweep or :meth:`clear` may
        remove a listed file before the caller touches it, so consumers
        must tolerate vanished paths.  (:meth:`stats` no longer walks
        this — it folds the manifests — but :meth:`clear` and the
        rebuild path still ground-truth against the files.)
        """
        if not self.root.is_dir():
            return iter(())
        return (
            path
            for path in self.root.glob("*/*/*.json")
        )

    def stats(self) -> CacheStats:
        """Entry count, total size, and the sweep namespaces present.

        Reads one journal per shard present — never the entry files
        themselves — so ``cache info`` costs O(shards), not
        O(entries); with warm fold memos it is O(shards) ``stat``
        calls.  Shards without a readable journal (lost or torn) are
        healed on the way through.
        """
        count = 0
        size = 0
        bad = 0
        sweeps = []
        per_sweep = []
        shards_per_sweep = []
        if self.root.is_dir():
            for child in sorted(self.root.iterdir()):
                if not child.is_dir():
                    continue
                live, quar, _ = self._folded_sweep(
                    child.name, heal=True, compact=True
                )
                if not live and not quar:
                    continue
                count += len(live)
                size += sum(live.values())
                bad += len(quar)
                sweeps.append(child.name)
                per_sweep.append((child.name, len(live), len(quar)))
                nshards = len(self._shard_dirs(child.name))
                if nshards:
                    shards_per_sweep.append((child.name, nshards))
        return CacheStats(
            entries=count,
            bytes=size,
            sweeps=tuple(sweeps),
            quarantined=bad,
            per_sweep=tuple(per_sweep),
            shards_per_sweep=tuple(shards_per_sweep),
        )

    def clear(self, sweep: str | None = None) -> int:
        """Delete all entries (or one sweep's); returns the count removed.

        Counting ground-truths against the entry files (not the index):
        ``clear`` is the maintenance path, and the manifests die with
        their directories anyway.  Whole sweep directories go, so files
        a pre-sharding store left beside the shards go with them.
        """
        self._fold_memo.clear()
        if sweep is not None:
            target = self.root / sweep
            removed = (
                len(list(target.rglob("*.json"))) if target.is_dir() else 0
            )
            shutil.rmtree(target, ignore_errors=True)
            return removed
        removed = len(list(self.entries()))
        if self.root.is_dir():
            for child in self.root.iterdir():
                if child.is_dir():
                    shutil.rmtree(child, ignore_errors=True)
        return removed


def cached_call(
    tag: str,
    fn,
    *args: Any,
    cache: ResultCache | None = None,
    code: str | None = None,
    **kwargs: Any,
):
    """Memoize ``fn(*args, **kwargs)`` in the sweep cache.

    Used by the benchmark harness (so repeated ``pytest benchmarks/``
    runs are warm) and by point functions that share expensive
    sub-results across points and processes, e.g. the robustness
    sweep's stationary baselines.  Results that are not JSON-serialisable
    (e.g. trace objects) are computed normally and simply not cached.

    When no explicit ``cache`` is given the store lives at
    :func:`default_cache_dir` (``$REPRO_CACHE_DIR``), and setting
    ``$REPRO_CACHE_DISABLE`` (to anything but ``0``/``false``/``no``)
    bypasses the store — the CLI exports both for the duration of a
    ``sweep`` invocation, so ``--cache-dir``/``--no-cache`` also
    govern the ``cached_call`` lookups made inside worker processes.
    An explicitly passed ``cache`` always wins over the kill switch.
    """
    if cache is None and _cache_disabled():
        return fn(*args, **kwargs)
    cache = cache or ResultCache()
    try:
        params = {"tag": tag, "args": list(args), "kwargs": kwargs}
        key = point_key("bench", params, code)
    except TypeError:
        return fn(*args, **kwargs)
    value, hit = cache.get("bench", key)
    if hit:
        return value
    value = fn(*args, **kwargs)
    try:
        cache.put("bench", key, params, value)
    except (TypeError, OSError):
        # Not JSON-able, or the store is unwritable (read-only shared
        # cache): degrade to compute-without-caching, never crash a
        # point function over its memo store.
        pass
    return value
