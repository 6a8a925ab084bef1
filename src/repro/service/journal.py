"""The daemon's journaled request log.

An append-only JSONL file in the cache directory (``<cache-root>/
SERVICE.jsonl`` — a *file* in the root, so the cache never mistakes
it for a sweep namespace) recording every
request the daemon accepted and every batch it leased or completed::

    {"op": "request",  "token": t, "sweep": s, "total": N, "created": T}
    {"op": "lease",    "token": t, "batch": b, "indices": [...], "expires": T}
    {"op": "complete", "token": t, "batch": b}
    {"op": "done",     "token": t}
    {"op": "abort",    "token": t, "reason": "..."}

The fold is last-op-wins per token (``done``/``abort`` close a
request) and per ``(token, batch)`` (``complete`` clears a ``lease``).
Appending, torn-line salvage and compaction follow the rules of
:mod:`repro.runner.jsonl_log`, the same log primitive the result
cache's segments use: an unparsable line (the append a ``kill -9``
tore in half) is skipped, never trusted, and costs at most its own
record — the records appended after it survive.

What the journal buys after a crash: a restarted daemon folds it,
reports every request that was still open — whose *leased but
uncompleted* batches are exactly the work in flight at the kill — and
closes them with ``abort`` records (their sessions died with the old
process; clients finish via ``--resume``, recomputing only those
in-flight batches because every *completed* batch's results were
already in the result cache before its ``complete`` record was
written).  The journal then compacts itself (write-new → atomic
rename) so dead history never accumulates across restarts.

Appends are single ``O_APPEND`` writes, safe under the daemon's
scheduler/connection threads, and deliberately not fsynced: the crash
model is process death (``kill -9``), which loses nothing already
handed to the page cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Tuple

from repro.runner import jsonl_log

__all__ = ["JOURNAL_NAME", "RequestState", "ServiceJournal"]

JOURNAL_NAME = "SERVICE.jsonl"


@dataclass
class RequestState:
    """One request's folded journal state."""

    token: str
    sweep: str = "?"
    total: int = 0
    status: str = "open"  # open | done | aborted
    reason: str = ""
    #: batch id -> the indices its lease named; cleared on complete.
    leased: Dict[int, List[int]] = field(default_factory=dict)
    completed: int = 0


class ServiceJournal:
    """Append, fold, recover, and compact the daemon's request log."""

    def __init__(self, root: Path | str) -> None:
        self.path = Path(root) / JOURNAL_NAME

    # -- writes ---------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> None:
        """One journal record, one atomic ``O_APPEND`` write;
        best-effort (a read-only cache directory loses the record,
        never the daemon)."""
        try:
            jsonl_log.append(self.path, [jsonl_log.encode(record)])
        except OSError:
            pass

    def request(self, token: str, sweep: str, total: int) -> None:
        self.append(
            {"op": "request", "token": token, "sweep": sweep,
             "total": total, "created": time.time()}
        )

    def lease(self, token: str, batch: int, indices: List[int], expires: float) -> None:
        self.append(
            {"op": "lease", "token": token, "batch": batch,
             "indices": list(indices), "expires": expires}
        )

    def complete(self, token: str, batch: int) -> None:
        self.append({"op": "complete", "token": token, "batch": batch})

    def done(self, token: str) -> None:
        self.append({"op": "done", "token": token})

    def abort(self, token: str, reason: str) -> None:
        self.append({"op": "abort", "token": token, "reason": str(reason)})

    # -- fold -----------------------------------------------------------

    def fold(self) -> Dict[str, RequestState]:
        """Token → folded state; torn/unparsable lines are skipped."""
        try:
            records = jsonl_log.read(self.path)
        except OSError:
            return {}
        states: Dict[str, RequestState] = {}
        for _, record in records:
            try:
                op, token = record["op"], record["token"]
            except KeyError:
                continue
            state = states.setdefault(token, RequestState(token=token))
            if op == "request":
                state.sweep = record.get("sweep", "?")
                state.total = int(record.get("total", 0))
                state.status = "open"
            elif op == "lease":
                state.leased[int(record.get("batch", -1))] = list(
                    record.get("indices", [])
                )
            elif op == "complete":
                state.leased.pop(int(record.get("batch", -1)), None)
                state.completed += 1
            elif op == "done":
                state.status = "done"
            elif op == "abort":
                state.status = "aborted"
                state.reason = record.get("reason", "")
        return states

    # -- recovery & compaction ------------------------------------------

    def recover(self) -> List[RequestState]:
        """Close every request a dead daemon left open.

        Returns the recovered (previously open) states — their leased
        batches are the work that was in flight at the crash — after
        journalling an ``abort`` for each and compacting the log.
        """
        states = self.fold()
        recovered = [s for s in states.values() if s.status == "open"]
        for state in recovered:
            self.abort(state.token, "daemon restart: request was in flight")
            state.status = "aborted"
            state.reason = "daemon restart"
        self.compact()
        return recovered

    def compact(self) -> int:
        """Drop closed requests' history; returns records removed.

        Open requests keep their full record set (request + outstanding
        leases); ``done``/``aborted`` requests vanish entirely, and so
        do torn lines.  Write-new-then-atomic-rename
        (:func:`jsonl_log.rewrite`).
        """
        try:
            before = len(jsonl_log.read(self.path))
        except OSError:
            return 0
        lines = []
        for token, state in self.fold().items():
            if state.status != "open":
                continue
            lines.append(jsonl_log.encode(
                {"op": "request", "token": token, "sweep": state.sweep,
                 "total": state.total, "created": time.time()}
            ))
            for batch, indices in sorted(state.leased.items()):
                lines.append(jsonl_log.encode(
                    {"op": "lease", "token": token, "batch": batch,
                     "indices": indices, "expires": 0.0}
                ))
        if not jsonl_log.rewrite(self.path, lines):
            return 0
        return before - len(lines)

    def summary(self) -> Dict[str, Any]:
        """Folded counts for the ``status`` op / ``serve --status``."""
        states = self.fold()
        by_status: Dict[str, int] = {}
        in_flight: List[Tuple[str, str, int]] = []
        for state in states.values():
            by_status[state.status] = by_status.get(state.status, 0) + 1
            if state.status == "open" and state.leased:
                in_flight.append((state.token, state.sweep, len(state.leased)))
        return {"requests": by_status, "in_flight": in_flight}
