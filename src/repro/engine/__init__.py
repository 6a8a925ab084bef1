"""Master-worker execution engine.

Runs a scheduling algorithm against a :class:`~repro.platform.Platform`
inside the discrete-event simulator, under the strict one-port model:

* every master↔worker transfer holds the master's port resource for
  ``blocks × c_i`` seconds;
* workers compute delivered phases FIFO at ``w_i`` per block update;
* buffer-generation gating enforces each algorithm's memory layout
  (a worker with one spare A/B generation may receive phase ``j`` only
  once phase ``j−2`` has been computed; without spare buffers, once
  phase ``j−1`` has been computed);
* the result C blocks return to the master before the run completes.

Outputs a :class:`~repro.engine.trace.Trace` with every communication
and computation interval, from which makespan, communication volume,
CCR, utilisation and Gantt charts are derived.  When real
:class:`~repro.blocks.BlockMatrix` data is attached, the engine also
performs the numerical block updates so tests can verify that the
schedule really computes ``C + A·B``.

A scheduler hands every backend the same plan: a list of
:class:`~repro.engine.common.AgentSpec`, one per enrolled worker, each
with a fixed chunk stream or a place on a shared demand-driven queue
and a buffer-generation gap (``scheduler.agents(platform, shape)``).
Two byte-identical backends run the timeline — the event-free fast
scan of :mod:`repro.engine.fast` (default) and the discrete-event
kernel (the reference oracle) — and the analytic model of
:mod:`repro.engine.model` estimates it; select with
``run_scheduler(..., engine="fast"|"des"|"model")``.  See
``docs/performance.md`` and ``docs/engines.md``.

Both backends also accept a :class:`repro.scenarios.Scenario` for
non-stationary platforms — time-varying rates, worker dropout,
background port traffic — and stay byte-identical under it
(``run_scheduler(..., scenario=...)``; see ``docs/scenarios.md``).
"""

from repro.engine.chunks import Chunk, Phase, tile_chunks, toledo_chunks
from repro.engine.common import AgentSpec, ChunkQueue
from repro.engine.engine import ENGINES, Engine, run_scheduler
from repro.engine.fast import FastEngine, run_fast
from repro.engine.model import ModelEstimate, run_model
from repro.engine.model_batch import BatchItem, run_model_batch
from repro.engine.trace import CommInterval, ComputeInterval, Trace

__all__ = [
    "ENGINES",
    "AgentSpec",
    "BatchItem",
    "Chunk",
    "ChunkQueue",
    "CommInterval",
    "ComputeInterval",
    "Engine",
    "FastEngine",
    "ModelEstimate",
    "Phase",
    "Trace",
    "run_fast",
    "run_model",
    "run_model_batch",
    "run_scheduler",
    "tile_chunks",
    "toledo_chunks",
]
