"""The engine proper: simulate a scheduler on a platform.

Architecture: one simulation *agent* (a kernel process) per entry of
the scheduler's plan (:class:`~repro.engine.common.AgentSpec`).  Each
agent processes its stream of chunks sequentially — receive the C
tile, stream phases under the buffer-generation gate, return the C tile
— while all transfers contend for the master's one-port resource (FIFO).
Static algorithms precompute per-worker chunk lists; demand-driven
algorithms share a single chunk queue that agents pop as they become
free, so "send the next chunk to the first available worker" emerges
from the event ordering.

Worker computation needs no separate process: phases are computed FIFO,
so each phase's compute interval is ``[max(arrival, previous end),
… + updates·w_i]``, recorded as it is scheduled.
"""

from __future__ import annotations

from typing import Generator, Optional, Protocol, Sequence

from repro.blocks.matrix import BlockMatrix
from repro.blocks.shape import ProblemShape
from repro.engine.chunks import Chunk, Phase
from repro.engine.common import (
    AgentSpec,
    ChunkQueue,
    bad_generation_gap,
    check_scenario_platform,
    memory_exceeded,
    validate_block_data,
)
from repro.engine.fast import run_fast
from repro.engine.model import ModelEstimate, run_model
from repro.engine.trace import CommInterval, ComputeInterval, Trace
from repro.platform.model import Platform
from repro.scenarios.model import BackgroundEvent, Scenario
from repro.sim.core import Environment
from repro.sim.resources import Resource

__all__ = ["ENGINES", "Engine", "run_scheduler", "SchedulerProtocol"]

#: Selectable simulation engines: the event-free fast timeline scan
#: (default), the generator-based discrete-event kernel (the reference
#: oracle) — these two produce byte-identical traces — and the analytic
#: model estimator of :mod:`repro.engine.model`, whose contract is a
#: validated error envelope rather than parity (see ``docs/engines.md``).
ENGINES = ("fast", "des", "model")


class Engine:
    """Simulation state shared by all agents of one run.

    ``agents`` is the scheduler's plan: one kernel process is
    registered per entry, in plan order.
    """

    def __init__(
        self,
        platform: Platform,
        shape: ProblemShape,
        agents: Sequence[AgentSpec] = (),
        data: Optional[tuple[BlockMatrix, BlockMatrix, BlockMatrix]] = None,
        two_port: bool = False,
        check_memory: bool = True,
        scenario: Optional[Scenario] = None,
    ):
        check_scenario_platform(scenario, platform)
        self.platform = platform
        self.shape = shape
        self.data = data
        self.check_memory = check_memory
        self.env = Environment()
        self.send_port = Resource(self.env, capacity=1)
        self.recv_port = Resource(self.env, capacity=1) if two_port else self.send_port
        self.two_port = two_port
        self.trace = Trace()
        p = platform.p
        self.compute_done = [0.0] * p
        self._mem_used = [0] * p
        self._pending_free: list[list[tuple[float, int]]] = [[] for _ in range(p)]
        self.scenario = scenario
        self._varying = scenario is not None and scenario.has_rate_variation
        if data is not None:
            validate_block_data(data, shape)
        # The background-traffic process is registered before the
        # plan's agents, so its events sequence ahead of same-time agent
        # events — the fast engine replicates this creation order exactly.
        if scenario is not None and scenario.background:
            self.env.process(
                self._background_agent(scenario.background), name="background"
            )
        for spec in agents:
            if spec.queue is None:
                agent = self.static_agent(spec.widx, spec.chunks, spec.gap)
            else:
                agent = self.demand_agent(spec.widx, spec.queue, spec.gap)
            self.env.process(agent, name=f"P{spec.widx + 1}")

    # -- memory bookkeeping (lazy release keeps peaks exact) -----------------
    def _release_expired(self, widx: int) -> None:
        now = self.env.now
        pending = self._pending_free[widx]
        keep: list[tuple[float, int]] = []
        for end, blocks in pending:
            if end <= now + 1e-12:
                self._mem_used[widx] -= blocks
            else:
                keep.append((end, blocks))
        self._pending_free[widx] = keep

    def alloc(self, widx: int, blocks: int) -> None:
        """Claim ``blocks`` buffers on worker ``widx`` (0-based) now."""
        self._release_expired(widx)
        self._mem_used[widx] += blocks
        self.trace.note_memory(widx + 1, self._mem_used[widx])
        if self.check_memory:
            cap = self.platform.workers[widx].m
            if self._mem_used[widx] > cap:
                raise memory_exceeded(
                    widx, self._mem_used[widx], cap, self.env.now
                )

    def free_at(self, widx: int, blocks: int, when: float) -> None:
        """Release ``blocks`` buffers at simulated time ``when``."""
        self._pending_free[widx].append((when, blocks))

    def free_now(self, widx: int, blocks: int) -> None:
        """Release ``blocks`` buffers immediately."""
        self._release_expired(widx)
        self._mem_used[widx] -= blocks

    # -- port operations ---------------------------------------------------------
    def send(self, widx: int, blocks: int, label: str = "") -> Generator:
        """Hold the outbound port for ``blocks·c_i(t)``; returns arrival time.

        Under a scenario the rate is sampled at the instant the port is
        granted (``c_i(start)``) and held for the whole transfer.
        """
        wk = self.platform.workers[widx]
        with self.send_port.request() as req:
            yield req
            start = self.env.now
            rate = self.scenario.c_rate(widx, start) if self._varying else wk.c
            yield self.env.timeout(blocks * rate)
            self.trace.add_comm(
                CommInterval(widx + 1, "send", start, self.env.now, blocks, label, 0)
            )
        return self.env.now

    def receive(self, widx: int, blocks: int, label: str = "") -> Generator:
        """Hold the inbound port for ``blocks·c_i(t)`` (worker → master)."""
        wk = self.platform.workers[widx]
        port_id = 1 if self.two_port else 0
        with self.recv_port.request() as req:
            yield req
            start = self.env.now
            rate = self.scenario.c_rate(widx, start) if self._varying else wk.c
            yield self.env.timeout(blocks * rate)
            self.trace.add_comm(
                CommInterval(widx + 1, "recv", start, self.env.now, blocks, label, port_id)
            )
        return self.env.now

    def _background_agent(self, events: Sequence[BackgroundEvent]) -> Generator:
        """Kernel process holding the master's port for external traffic.

        One process services every event in time order, so overdue
        events (delayed behind a long transfer) queue immediately and
        back-to-back.  Holds are recorded as worker-0 ``send`` intervals
        with zero blocks: they occupy the port without moving payload.
        """
        for ev in events:
            yield from self.wait_until(ev.time)
            with self.send_port.request() as req:
                yield req
                start = self.env.now
                yield self.env.timeout(ev.duration)
                self.trace.add_comm(
                    CommInterval(0, "send", start, self.env.now, 0, ev.label, 0)
                )

    def wait_until(self, when: float) -> Generator:
        """Advance the calling agent to simulated time ``when``."""
        if when > self.env.now:
            yield self.env.timeout(when - self.env.now)

    # -- computation ---------------------------------------------------------------
    def queue_compute(
        self, widx: int, updates: int, arrival: float, label: str = ""
    ) -> float:
        """Schedule a phase's computation; returns its completion time.

        Under a scenario the compute rate is sampled at the phase's
        start time (``w_i(start)``) and held for the whole phase.
        """
        wk = self.platform.workers[widx]
        start = max(arrival, self.compute_done[widx])
        rate = self.scenario.w_rate(widx, start) if self._varying else wk.w
        end = start + updates * rate
        self.compute_done[widx] = end
        self.trace.add_compute(ComputeInterval(widx + 1, start, end, updates, label))
        return end

    def execute_phase(self, chunk: Chunk, phase: Phase) -> None:
        """Apply the phase's block updates to the attached matrices."""
        if self.data is None:
            return
        a, b, c = self.data
        q = self.shape.q
        r0, r1 = phase.row_range if phase.row_range is not None else chunk.row_range
        c0, c1 = chunk.col_range
        k0, k1 = phase.k_range
        c.array[r0 * q : r1 * q, c0 * q : c1 * q] += (
            a.array[r0 * q : r1 * q, k0 * q : k1 * q]
            @ b.array[k0 * q : k1 * q, c0 * q : c1 * q]
        )

    # -- the chunk protocol -----------------------------------------------------
    def process_chunk(self, widx: int, chunk: Chunk, generation_gap: int) -> Generator:
        """Run one chunk on worker ``widx`` (0-based).

        ``generation_gap`` is 2 for layouts with a spare A/B buffer
        generation (overlapped algorithms) and 1 otherwise: the send of
        phase ``j`` may not start before the computation of phase
        ``j − generation_gap`` has finished.
        """
        if generation_gap not in (1, 2):
            raise bad_generation_gap(generation_gap)
        self.alloc(widx, chunk.c_blocks)
        yield from self.send(widx, chunk.c_blocks, label="C-in")
        ends: list[float] = []
        ab_labels, upd_labels = chunk.ab_labels, chunk.upd_labels
        for idx, phase in enumerate(chunk.phases):
            if idx >= generation_gap:
                yield from self.wait_until(ends[idx - generation_gap])
            self.alloc(widx, phase.in_blocks)
            arrival = yield from self.send(
                widx, phase.in_blocks, label=ab_labels[idx]
            )
            end = self.queue_compute(
                widx, phase.updates, arrival, label=upd_labels[idx]
            )
            self.free_at(widx, phase.in_blocks, end)
            self.execute_phase(chunk, phase)
            ends.append(end)
        yield from self.wait_until(self.compute_done[widx])
        yield from self.receive(widx, chunk.c_blocks, label="C-out")
        self.free_now(widx, chunk.c_blocks)

    def static_agent(
        self, widx: int, chunks: Sequence[Chunk], generation_gap: int
    ) -> Generator:
        """Agent processing a fixed chunk list in order."""
        for chunk in chunks:
            yield from self.process_chunk(widx, chunk, generation_gap)

    def demand_agent(
        self, widx: int, queue: ChunkQueue, generation_gap: int
    ) -> Generator:
        """Agent popping chunks from a shared queue whenever it is free."""
        while True:
            chunk = queue.pop()
            if chunk is None:
                return
            yield from self.process_chunk(widx, chunk, generation_gap)


class SchedulerProtocol(Protocol):
    """What the engines require of a scheduler.

    ``agents(platform, shape)`` returns the run's plan: one
    :class:`~repro.engine.common.AgentSpec` per enrolled worker, in the
    order the engines create them.  Every call builds a fresh plan (a
    run drains the plan's shared queues).
    """

    name: str

    def agents(
        self, platform: Platform, shape: ProblemShape
    ) -> list[AgentSpec]:  # pragma: no cover - protocol
        ...


def run_scheduler(
    scheduler: "SchedulerProtocol",
    platform: Platform | Scenario,
    shape: ProblemShape,
    data: Optional[tuple[BlockMatrix, BlockMatrix, BlockMatrix]] = None,
    two_port: bool = False,
    check_memory: bool = True,
    check_invariants: bool = True,
    engine: str = "fast",
    scenario: Optional[Scenario] = None,
) -> Trace | ModelEstimate:
    """Simulate ``scheduler`` on ``platform`` and return the trace.

    When ``data`` is supplied the block updates are executed numerically
    (C is modified in place).  ``check_memory`` enforces each worker's
    ``m_i`` capacity online; ``check_invariants`` validates the one-port
    and sequential-compute properties after the run.

    ``engine`` selects the simulation backend: ``"fast"`` (default) is
    the event-free timeline scan of :mod:`repro.engine.fast`, ``"des"``
    the generator-based discrete-event kernel, and ``"model"`` the
    analytic estimator of :mod:`repro.engine.model`, which returns a
    :class:`~repro.engine.model.ModelEstimate` (mirroring the trace's
    summary interface, within a validated error envelope — see
    ``docs/engines.md``) and rejects ``data`` since it executes
    nothing.  Each backend runs the scheduler's one plan
    (``scheduler.agents(platform, shape)``); the two simulating
    backends produce byte-identical traces (see
    ``docs/performance.md``).

    ``scenario`` makes the platform non-stationary (time-varying rates,
    dropout, background traffic; see :mod:`repro.scenarios` and
    ``docs/scenarios.md``).  Passing a :class:`~repro.scenarios.Scenario`
    as ``platform`` is equivalent to passing its platform plus the
    scenario.  Both engines remain byte-identical under scenarios.
    """
    if isinstance(platform, Scenario):
        if scenario is not None:
            raise ValueError(
                "pass the scenario either as `platform` or as `scenario`, not both"
            )
        scenario, platform = platform, platform.platform
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r} (choose from {ENGINES})")
    if engine == "model":
        if data is not None:
            raise ValueError(
                "engine='model' estimates timing analytically and cannot "
                "execute numeric block updates; use engine='fast' or 'des'"
            )
        estimate = run_model(
            scheduler, platform, shape,
            two_port=two_port, check_memory=check_memory, scenario=scenario,
        )
        expected = shape.total_updates
        if estimate.total_updates != expected:
            raise RuntimeError(
                f"{scheduler.name}: executed {estimate.total_updates} "
                f"block updates, expected {expected}"
            )
        return estimate
    if engine == "fast":
        trace = run_fast(
            scheduler, platform, shape,
            data=data, two_port=two_port, check_memory=check_memory,
            scenario=scenario,
        )
    else:
        des = Engine(
            platform, shape, scheduler.agents(platform, shape), data=data,
            two_port=two_port, check_memory=check_memory, scenario=scenario,
        )
        des.env.run()
        trace = des.trace
    if check_invariants:
        trace.check_invariants()
    expected = shape.total_updates
    got = trace.total_updates
    if got != expected:
        raise RuntimeError(
            f"{scheduler.name}: executed {got} block updates, expected {expected}"
        )
    return trace
