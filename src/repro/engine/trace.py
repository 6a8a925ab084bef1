"""Execution traces: every timed interval of a simulated run.

A :class:`Trace` records

* **communication intervals** — each master-port hold, with direction,
  worker, block count and a label,
* **computation intervals** — each worker-side phase execution,
* per-worker **memory high-water marks**.

It derives the metrics used throughout the experiments (makespan,
communication volume, CCR, port/worker utilisation, enrolled workers)
and checks the model's structural invariants (port holds never overlap,
per-worker computations never overlap).

Interval counts scale with the problem's block count, so each interval
kind is stored as columns in stdlib ``array`` buffers (``'d'`` start and
end; ``'q'`` worker, blocks or updates, port and an index into a
``(direction, label)`` table).  Metrics and invariant checks reduce
zero-copy numpy views of them; interval tuples are built only on read.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

import numpy as np

__all__ = ["CommInterval", "ComputeInterval", "Trace"]


class CommInterval(NamedTuple):
    """One master-port hold.

    The value form of one row of a :class:`Trace`'s comm columns: the
    DES and the LU simulator record through it, and ``Trace.comms``
    rebuilds these from the columns on demand.

    Attributes:
        worker: 1-based worker index.
        direction: ``"send"`` (master→worker) or ``"recv"``.
        start: port acquisition time.
        end: port release time.
        blocks: blocks transferred.
        label: human-readable description (e.g. ``"C-tile"``).
        port: port id (0 for the single one-port; 1 for the receive port
            in the two-port ablation).
    """

    worker: int
    direction: str
    start: float
    end: float
    blocks: int
    label: str = ""
    port: int = 0


class ComputeInterval(NamedTuple):
    """One worker-side phase execution."""

    worker: int
    start: float
    end: float
    updates: int
    label: str = ""


def _views(cols) -> tuple[np.ndarray, ...]:
    """Read-only numpy views sharing the columns' buffers."""
    return tuple(np.frombuffer(memoryview(c).toreadonly(), c.typecode) for c in cols)


def _assert_no_overlap(groups, starts, ends, intervals, what: str) -> None:
    """Assert no two same-group intervals overlap (beyond 1e-9 slack).

    ``intervals()`` builds the interval list, only to name a violation.
    """
    if len(groups) < 2:
        return
    order = np.lexsort((ends, starts, groups))
    g = groups[order]
    s = starts[order]
    e = ends[order]
    bad = np.nonzero((g[1:] == g[:-1]) & (s[1:] < e[:-1] - 1e-9))[0]
    if bad.size:
        i = int(bad[0])
        listed = intervals()
        prev = listed[int(order[i])]
        nxt = listed[int(order[i + 1])]
        raise AssertionError(f"{what.format(int(g[i]))}: {prev} then {nxt}")


class Trace:
    """Timed record of one engine run, stored as typed columns.

    The numpy views of :meth:`comm_columns`/:meth:`compute_columns` share
    the buffers: while one is alive the trace cannot grow (``array``
    raises ``BufferError``), so take them after recording.
    """

    __slots__ = ("memory_peak", "_labels", "_label_ids", "_comm", "_compute")

    def __init__(self) -> None:
        self.memory_peak: dict[int, int] = {}
        self._labels: list[tuple[str, str]] = []
        self._label_ids: dict[tuple[str, str], int] = {}
        self.reserve(0, 0)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.comms, self.computes, self.memory_peak) == (
            other.comms, other.computes, other.memory_peak
        )

    # -- recording -----------------------------------------------------------
    def label_id(self, direction: str, label: str) -> int:
        """Index of ``(direction, label)`` in the trace's label table."""
        key = (direction, label)
        idx = self._label_ids.get(key)
        if idx is None:
            idx = self._label_ids[key] = len(self._labels)
            self._labels.append(key)
        return idx

    def reserve(self, comms: int, computes: int) -> tuple[tuple, tuple]:
        """Give an empty trace this many zero rows of each kind.

        Returns the comm columns (worker, start, end, blocks, port, label
        id) and compute columns (worker, start, end, updates, label id)
        for a writer to fill in place and cut to the rows it wrote.
        """
        self._comm = tuple(array(code, [0]) * comms for code in "qddqqq")
        self._compute = tuple(array(code, [0]) * computes for code in "qddqq")
        return self._comm, self._compute

    def add_comm(self, interval: CommInterval) -> None:
        """Append a communication interval."""
        worker, direction, start, end, blocks, label, port = interval
        label = self.label_id(direction, label)
        _append(self._comm, (worker, start, end, blocks, port, label))

    def add_compute(self, interval: ComputeInterval) -> None:
        """Append a computation interval."""
        worker, start, end, updates, label = interval
        _append(self._compute, (worker, start, end, updates, self.label_id("", label)))

    def note_memory(self, worker: int, blocks_in_use: int) -> None:
        """Record a worker's instantaneous buffer usage (keeps the max)."""
        cur = self.memory_peak.get(worker, 0)
        if blocks_in_use > cur:
            self.memory_peak[worker] = blocks_in_use

    # -- intervals -------------------------------------------------------------
    @property
    def comms(self) -> list[CommInterval]:
        """The comm intervals, in order (a fresh list on every read)."""
        labels = self._labels
        return [
            CommInterval(w, labels[k][0], s, e, b, labels[k][1], p)
            for w, s, e, b, p, k in zip(*self._comm)
        ]

    @property
    def computes(self) -> list[ComputeInterval]:
        """The compute intervals, in order (a fresh list on every read)."""
        labels = self._labels
        return [
            ComputeInterval(w, s, e, u, labels[k][1])
            for w, s, e, u, k in zip(*self._compute)
        ]

    # -- column access -------------------------------------------------------
    def comm_columns(self) -> tuple[np.ndarray, ...]:
        """``(worker, start, end, blocks, port)`` arrays of the comms."""
        return _views(self._comm[:5])

    def compute_columns(self) -> tuple[np.ndarray, ...]:
        """``(worker, start, end, updates)`` arrays of the computes."""
        return _views(self._compute[:4])

    # -- metrics -----------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Time the last communication or computation finishes."""
        return max(_last(self.comm_columns()[2]), _last(self.compute_columns()[2]))

    @property
    def work_makespan(self) -> float:
        """Time the last *worker* communication or computation finishes.

        Unlike :attr:`makespan`, scenario background-traffic holds
        (recorded as worker-0 intervals) do not count: a synthetic hold
        outlasting the real work extends the port's busy window but did
        not delay the computation itself.  On traces without background
        intervals the two are identical.
        """
        worker, _, end, _, _ = self.comm_columns()
        return max(_last(end[worker > 0]), _last(self.compute_columns()[2]))

    @property
    def comm_blocks(self) -> int:
        """Total blocks moved through the master."""
        return int(self.comm_columns()[3].sum())

    @property
    def total_updates(self) -> int:
        """Total block updates computed."""
        return int(self.compute_columns()[3].sum())

    @property
    def ccr(self) -> float:
        """Communication-to-computation ratio, in blocks per update."""
        updates = self.total_updates
        if updates == 0:
            raise ValueError("no computation recorded; CCR undefined")
        return self.comm_blocks / updates

    @property
    def enrolled_workers(self) -> tuple[int, ...]:
        """Sorted indices of workers that computed at least one update."""
        worker, _, _, updates = self.compute_columns()
        # Not np.unique: it imports numpy.ma (~1 MB) on its first call.
        return tuple(sorted(set(worker[updates > 0].tolist())))

    def port_busy_time(self, port: int = 0) -> float:
        """Total time the given port was held."""
        _, start, end, _, ports = self.comm_columns()
        mask = ports == port
        return float(np.sum(end[mask] - start[mask]))

    def port_utilisation(self, port: int = 0) -> float:
        """Busy fraction of the given port over the makespan."""
        span = self.makespan
        return self.port_busy_time(port) / span if span > 0 else 0.0

    def worker_busy_time(self, worker: int) -> float:
        """Total compute time of one worker."""
        workers, start, end, _ = self.compute_columns()
        mask = workers == worker
        return float(np.sum(end[mask] - start[mask]))

    def worker_utilisation(self, worker: int) -> float:
        """Busy fraction of one worker over the makespan."""
        span = self.makespan
        return self.worker_busy_time(worker) / span if span > 0 else 0.0

    # -- invariants -----------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate the one-port and sequential-compute invariants.

        Raises ``AssertionError`` listing the first violation found.
        """
        _, start, end, _, ports = self.comm_columns()
        _assert_no_overlap(
            ports, start, end, lambda: self.comms, "port {} overlap"
        )
        workers, start, end, _ = self.compute_columns()
        _assert_no_overlap(
            workers, start, end, lambda: self.computes,
            "worker {} compute overlap",
        )


def _append(cols: tuple, row: tuple) -> None:
    """Append one row to the columns, all or nothing."""
    try:
        for col, value in zip(cols, row):
            col.append(value)
    except BaseException:  # e.g. BufferError while a view is alive
        for col in cols:
            del col[min(map(len, cols)):]
        raise


def _last(ends: np.ndarray) -> float:
    """Latest of some end times (0.0 when there are none)."""
    return float(ends.max()) if ends.size else 0.0
