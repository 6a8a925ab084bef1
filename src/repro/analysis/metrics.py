"""Summary metrics over engine traces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.trace import Trace

__all__ = ["TraceSummary", "summarize_trace"]


@dataclass(frozen=True)
class TraceSummary:
    """One-line summary of a run, as used in the experiment tables.

    Attributes:
        makespan: total time until the last result returned.
        comm_blocks: blocks moved through the master.
        updates: block updates computed.
        ccr: blocks per update.
        workers_used: number of workers that computed anything.
        port_utilisation: busy fraction of the master's (send) port.
        mean_worker_utilisation: mean busy fraction over used workers.
    """

    makespan: float
    comm_blocks: int
    updates: int
    ccr: float
    workers_used: int
    port_utilisation: float
    mean_worker_utilisation: float


def summarize_trace(trace: Trace) -> TraceSummary:
    """Condense a trace into a :class:`TraceSummary`.

    Vectorised over the trace's column views (shared with the invariant
    checks); it never builds the interval lists.  The naive
    property-by-property route re-walks the intervals once per metric
    (and once per worker for the utilisations), which at sweep scale
    costs as much as the simulation itself.

    Also accepts a :class:`~repro.engine.model.ModelEstimate` (anything
    with a ``to_summary``): the model engine has no interval lists, so
    it produces the summary directly and experiments stay
    engine-agnostic.
    """
    to_summary = getattr(trace, "to_summary", None)
    if to_summary is not None:
        return to_summary()
    _, c_start, c_end, c_blocks, c_port = trace.comm_columns()
    if c_end.size:
        comm_blocks = int(c_blocks.sum())
        on_port0 = c_port == 0
        port0_busy = float(np.sum(c_end[on_port0] - c_start[on_port0]))
        last_comm = float(c_end.max())
    else:
        comm_blocks = 0
        port0_busy = 0.0
        last_comm = 0.0
    k_worker, k_start, k_end, k_updates = trace.compute_columns()
    if k_end.size:
        updates = int(k_updates.sum())
        busy = np.bincount(k_worker, weights=k_end - k_start)
        did_update = np.bincount(k_worker, weights=k_updates) > 0
        used = np.nonzero(did_update)[0]
        last_comp = float(k_end.max())
    else:
        updates = 0
        used = np.empty(0, dtype=np.int64)
        busy = np.empty(0)
        last_comp = 0.0
    if updates == 0:
        raise ValueError("no computation recorded; CCR undefined")
    makespan = max(last_comm, last_comp)
    mean_util = (
        float(np.sum(busy[used])) / makespan / len(used)
        if len(used) and makespan > 0
        else 0.0
    )
    return TraceSummary(
        makespan=makespan,
        comm_blocks=comm_blocks,
        updates=updates,
        ccr=comm_blocks / updates,
        workers_used=len(used),
        port_utilisation=port0_busy / makespan if makespan > 0 else 0.0,
        mean_worker_utilisation=mean_util,
    )
