"""Event-free fast timeline engine — the DES without the DES.

Under the strict one-port FIFO model the whole timeline of a run is a
deterministic function of the chunk streams: every transfer holds the
port for a known duration, the port serves requests in arrival order,
and each worker computes its phases FIFO.  Nothing in the model ever
*chooses* — so simulating it with generator processes, ``Event``
objects, resource context managers and callback lists (the
:mod:`repro.sim` kernel) pays a large constant factor purely for
bookkeeping the model does not need.

This module re-derives the identical timeline with a single
chronological scan.  Per worker it advances a tiny explicit state
machine over the chunk protocol (C-in → phases → C-out), keeping the
``(recv_done, compute_done)`` clocks in plain lists; the master's port
is a boolean plus a FIFO deque.  The only data structure shared with a
classical DES is a small heap of ``(time, code)`` pairs ordering the
three timed occurrences the model has — a request grant firing, a
transfer completion, and a buffer-generation (or final-compute) gate
opening.

Exactness, not approximation
----------------------------
The scan reproduces the kernel's schedule *byte for byte*, including
ties.  The kernel orders same-time events by ``(priority, seq)`` where
``seq`` is a global scheduling counter; the scan schedules the same
three occurrence kinds in the same relative order the kernel would
(grant hops included, because a grant's completion timeout is sequenced
only when the grant fires), so every ``(time, seq)`` comparison
resolves identically.  Even float rounding is replicated: a gate
opening at ``t`` is scheduled at ``now + (t - now)`` exactly as the
kernel's relative timeout would.  Demand-driven dispatch ("send the
next chunk to the first available worker") therefore pops the shared
queue in exactly the order the kernel's event interleaving produces.
The DES remains the reference oracle: the parity suite asserts
trace-for-trace equality across all schedulers on randomized platforms,
one-port and two-port.

:class:`FastEngine` runs the same plan as the DES — the scheduler's
list of :class:`~repro.engine.common.AgentSpec` — with one state
machine per entry, in plan order.
"""

from __future__ import annotations

import gc
from array import array
from collections import deque
from heapq import heappop, heappush
from typing import Optional, Sequence

from repro.blocks.matrix import BlockMatrix
from repro.blocks.shape import ProblemShape
from repro.engine.common import (
    AgentSpec,
    check_scenario_platform,
    memory_exceeded,
    validate_block_data,
)
from repro.engine.trace import Trace
from repro.platform.model import Platform
from repro.scenarios.model import Scenario

__all__ = ["FastEngine", "run_fast"]

# Heap-entry kinds, packed into the low bits of ``(seq << 2) | kind`` so
# entries are 3-tuples; ``seq`` is unique, so the agent never compares.
_HOP = 0   # a granted port request firing (the kernel's request event)
_DONE = 1  # a transfer completion (the kernel's transfer timeout)
_WAIT = 2  # a generation-gate / final-compute / background wake-up timeout

# Agent stages: what the pending _DONE means for this agent, and what
# its _WAIT starts (the phase behind a buffer-generation gate, the C-out
# behind the final compute, the background agent's next hold).
_CIN = 0    # C tile inbound
_PHASE = 1  # an A/B phase delivery
_COUT = 2   # C tile outbound
_BG = 3     # a background-traffic hold of the master's port
# Staged comm values (six per interval) that flush at a chunk start.
_FLUSH_AT = 6 * 1024


class _Agent:
    """Runtime state of one worker agent."""

    __slots__ = (
        "widx", "gap", "chunks", "cursor", "queue", "c", "w",
        "chunk", "phases", "nph", "ab_ids", "upd_ids",
        "end1", "end2",
        "pidx", "stage", "start", "duration", "blocks",
    )

    def __init__(self, spec: AgentSpec, worker):
        self.widx = spec.widx
        self.gap = spec.gap
        self.chunks = spec.chunks
        self.cursor = 0
        self.queue = spec.queue
        self.c = worker.c
        self.w = worker.w


class _BgAgent:
    """Runtime state of the background-traffic pseudo-agent.

    Mirrors the DES engine's single background process: it services the
    scenario's port holds in time order, queueing FIFO on the master's
    port like any worker request.  Quacks enough like :class:`_Agent`
    for the heap, the port queue and the grant-flush paths (``stage``
    is always :data:`_BG`, so scenario-rate recomputation skips it —
    hold durations are absolute seconds, not ``c``-scaled).
    """

    __slots__ = ("events", "cursor", "stage", "start", "duration", "widx")

    def __init__(self, events):
        self.events = events
        self.cursor = 0
        self.stage = _BG
        self.duration = events[0].duration
        self.widx = -1  # read (and ignored) by the shared dispatch paths


class FastEngine:
    """One run of a plan, with :class:`Engine`'s constructor surface."""

    def __init__(
        self,
        platform: Platform,
        shape: ProblemShape,
        agents: Sequence[AgentSpec],
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
        self.two_port = two_port
        self.agents = agents
        self.trace = Trace()
        self.compute_done = [0.0] * platform.p
        self.scenario = scenario
        if data is not None:
            validate_block_data(data, shape)

    # -- the chronological scan ----------------------------------------------
    def run(self) -> Trace:
        """Advance the timeline to completion; returns the trace.

        One monolithic event loop: the three occurrence kinds dispatch
        inline and hot state lives in local lists indexed by worker.
        Each step of the chunk protocol is written once.  Every transfer
        completion releases its port at the top of the dispatch.  Every
        phase delivery — after the previous phase, after a generation
        gate opens, after the C-in — sets a flag and runs the one inline
        claim-and-request block at the end of the dispatch, so the
        phase→phase steady state (the overwhelming majority of events)
        runs without a Python-level call beyond the heap primitives and
        the record staging below.  The C-in claim lives in
        ``start_chunk``; the cold port requests (C-in, C-out, background
        holds) share ``request``.

        Port grants are *deferred to the end of the current burst* and
        then, when no other heap entry shares the current timestamp,
        fused straight into their completion event.  Both halves mirror
        the kernel exactly: the kernel's grant event fires after the
        granting burst finishes (so the completion's place in the global
        scheduling order is decided only then), and when nothing else
        occupies the current instant the grant hop is unobservable.
        With ties present the hop is kept, so same-time ordering stays
        byte-exact.
        """
        workers = self.platform.workers
        p = self.platform.p
        trace = self.trace
        # Intervals are staged as flat rows (one list.extend each), then
        # copied into the trace's columns, sized once for the whole plan.
        comm_cols, compute_cols = trace.reserve(
            *_interval_counts(self.agents, self.scenario)
        )
        filled = [0, 0]
        comm_buf: list = []
        compute_buf: list = []
        record_comm = comm_buf.extend
        record_compute = compute_buf.extend
        label_id = trace.label_id
        cin_id = label_id("send", "C-in")
        cout_id = label_id("recv", "C-out")
        # Label ids per chunk label sequence, interned once per run.
        chunk_label_ids: dict[tuple, tuple[list[int], list[int]]] = {}
        compute_done = self.compute_done
        check_memory = self.check_memory
        recv_pid = 1 if self.two_port else 0
        # The port each stage's transfer holds: the receive port for a
        # C-out (the send port itself unless two-port), else port 0.
        stage_port = (0, 0, recv_pid, 0)
        q = self.shape.q
        data = self.data
        has_data = data is not None
        if has_data:
            a_arr, b_arr, c_arr = data[0].array, data[1].array, data[2].array

        scenario = self.scenario
        # Scenario hooks: rate lookups sampled at each operation's start
        # instant.  ``varying`` stays False for stationary scenarios so
        # the hot path is untouched; an identity scenario reproduces the
        # stationary timeline bit-for-bit (base · 1.0 == base).
        varying = scenario is not None and scenario.has_rate_variation
        if varying:
            c_rate = scenario.c_rate
            w_rate = scenario.w_rate

        caps = [wk.m for wk in workers]
        mem_used = [0] * p
        peaks = [0] * p
        # Per-worker deferred frees.  Entries are (compute_end, blocks)
        # appended in compute order; per-worker compute ends are
        # monotone (FIFO compute), so expiry is always a prefix.
        pending_free: list[list[tuple[float, int]]] = [[] for _ in range(p)]
        port_free = [True, True]
        port_queue: tuple[deque, deque] = (deque(), deque())
        heap: list[tuple[float, int, _Agent]] = []
        grants: list[_Agent] = []
        push = heappush
        pop = heappop
        # The kernel's global scheduling counter, stepped by 4 with the
        # entry kind packed in the low bits: entries stay 3-tuples and
        # heap comparisons never reach the agent.
        seq = 0

        def request(agent, pid: int, now: float) -> None:
            # Take port ``pid`` (granted at the end of the burst) or
            # queue FIFO for it.
            if port_free[pid]:
                port_free[pid] = False
                agent.start = now
                grants.append(agent)
            else:
                port_queue[pid].append(agent)

        def flush(cut: bool = False) -> None:
            # Copy the staged rows into the columns; ``cut`` also drops any
            # reserved rows past them (a run stopped by an error).
            for i, cols, buf in (0, comm_cols, comm_buf), (1, compute_cols, compute_buf):
                lo = filled[i]
                filled[i] = hi = lo + len(buf) // len(cols)
                for k, col in enumerate(cols):
                    col[lo:None if cut else hi] = array(col.typecode, buf[k::len(cols)])
                buf.clear()

        def start_chunk(agent: _Agent, now: float) -> None:
            # Next chunk (or retire the agent); then the C-in request.
            if len(comm_buf) >= _FLUSH_AT:
                flush()
            if agent.queue is not None:
                chunk = agent.queue.pop()
                if chunk is None:
                    return
            else:
                if agent.cursor >= len(agent.chunks):
                    return
                chunk = agent.chunks[agent.cursor]
                agent.cursor += 1
            agent.chunk = chunk
            agent.phases = chunk.phases
            agent.nph = len(chunk.phases)
            ids = chunk_label_ids.get(chunk.ab_labels)
            if ids is None:  # upd labels follow from the same k ranges
                ids = chunk_label_ids[chunk.ab_labels] = (
                    [label_id("send", label) for label in chunk.ab_labels],
                    [label_id("", label) for label in chunk.upd_labels],
                )
            agent.ab_ids, agent.upd_ids = ids
            blocks = chunk.c_blocks
            widx = agent.widx
            used = mem_used[widx]
            pend = pending_free[widx]
            if pend:
                lim = now + 1e-12
                i = 0
                while i < len(pend) and pend[i][0] <= lim:
                    used -= pend[i][1]
                    i += 1
                if i:
                    del pend[:i]
            used += blocks
            mem_used[widx] = used
            if used > peaks[widx]:
                peaks[widx] = used
                if check_memory and used > caps[widx]:
                    raise memory_exceeded(widx, used, caps[widx], now)
            agent.stage = _CIN
            agent.blocks = blocks
            agent.duration = blocks * agent.c
            request(agent, 0, now)

        def end_of_phases(agent: _Agent, now: float) -> None:
            nonlocal wait_agent, wait_time
            # All phases delivered: wait out the final compute, then C-out.
            blocks = agent.chunk.c_blocks
            agent.stage = _COUT
            agent.blocks = blocks
            agent.duration = blocks * agent.c
            final = compute_done[agent.widx]
            if final > now:
                wait_agent = agent
                wait_time = now + (final - now)
            else:
                request(agent, recv_pid, now)

        # The scan allocates many small tuples (heap entries, pending
        # frees, staged records); pausing generational GC for its
        # duration avoids pointless collection passes.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()

        # t=0: the kernel initialises processes (URGENT events) in
        # creation order before any normal event fires; each agent runs
        # to its first port request.  Grants flush per agent, exactly as
        # each Initialize burst would let its request event fire later.
        # The DES registers the scenario's background process before the
        # plan's agents, so its first timeout / port request sequences
        # ahead of theirs.
        if scenario is not None and scenario.background:
            bg = _BgAgent(scenario.background)
            first = bg.events[0].time
            seq += 4
            if first > 0.0:
                push(heap, (first, seq | _WAIT, bg))
            else:
                # The heap is still empty (nothing precedes the first
                # process), so the grant always fuses to its completion.
                request(bg, 0, 0.0)
                push(heap, (bg.duration, seq | _DONE, bg))
                grants.clear()
        agents = [_Agent(spec, workers[spec.widx]) for spec in self.agents]
        for agent in agents:
            start_chunk(agent, 0.0)
            if grants:
                granted = grants[0]
                if varying:
                    granted.duration = granted.blocks * c_rate(granted.widx, 0.0)
                seq += 4
                if heap and heap[0][0] <= 0.0:
                    push(heap, (0.0, seq, granted))
                else:
                    push(heap, (granted.duration, seq | _DONE, granted))
                grants.clear()

        pending: Optional[_Agent] = None
        pending_time = 0.0
        pending_kind = _DONE
        wait_agent: Optional[_Agent] = None
        wait_time = 0.0
        deliver = False
        try:
            while heap or pending is not None:
                if pending is None:
                    now, code, agent = pop(heap)
                    kind = code & 3
                else:
                    # Direct dispatch: an occurrence scheduled ahead of
                    # every heap entry needs no heap round trip.
                    now = pending_time
                    agent = pending
                    pending = None
                    kind = pending_kind
                if kind == _DONE:
                    stage = agent.stage
                    widx = agent.widx
                    # Release the transfer's port.
                    pid = stage_port[stage]
                    waiters = port_queue[pid]
                    if waiters:
                        nxt = waiters.popleft()
                        nxt.start = now
                        grants.append(nxt)
                    else:
                        port_free[pid] = True
                    if stage == _PHASE:
                        j = agent.pidx
                        blocks = agent.blocks
                        record_comm((widx + 1, agent.start, now, blocks, 0,
                                     agent.ab_ids[j]))
                        ph = agent.phases[j]
                        start = compute_done[widx]
                        if now > start:
                            start = now
                        updates = ph[3]
                        if varying:
                            end = start + updates * w_rate(widx, start)
                        else:
                            end = start + updates * agent.w
                        compute_done[widx] = end
                        record_compute((widx + 1, start, end, updates,
                                        agent.upd_ids[j]))
                        pending_free[widx].append((end, blocks))
                        if has_data:
                            chunk = agent.chunk
                            rr = ph[4]  # row_range override (max-re-use rows)
                            r0, r1 = rr if rr is not None else chunk.row_range
                            c0, c1 = chunk.col_range
                            k0, k1 = ph[0]
                            c_arr[r0 * q : r1 * q, c0 * q : c1 * q] += (
                                a_arr[r0 * q : r1 * q, k0 * q : k1 * q]
                                @ b_arr[k0 * q : k1 * q, c0 * q : c1 * q]
                            )
                        # Rolling compute-end window: the gate for phase j+1
                        # is ends[j+1-gap], i.e. the last (gap 1) or second-
                        # to-last (gap 2) compute end of this chunk.
                        agent.end2 = agent.end1
                        agent.end1 = end
                        j += 1
                        if j < agent.nph:
                            gate = now
                            if j >= agent.gap:
                                gate = agent.end1 if agent.gap == 1 else agent.end2
                            if gate > now:
                                # The kernel schedules timeout(gate - now): the
                                # fire time is now + (gate - now), replicated so
                                # ties resolve identically under float rounding.
                                agent.pidx = j
                                wait_agent = agent
                                wait_time = now + (gate - now)
                            else:
                                deliver = True
                        else:
                            end_of_phases(agent, now)
                    elif stage == _CIN:
                        record_comm((widx + 1, agent.start, now, agent.blocks,
                                     0, cin_id))
                        agent.end1 = agent.end2 = 0.0
                        if agent.nph:
                            agent.stage = _PHASE
                            j = 0
                            deliver = True
                        else:
                            end_of_phases(agent, now)
                    elif stage == _COUT:  # chunk complete: free C tile, next chunk
                        record_comm((widx + 1, agent.start, now, agent.blocks,
                                     recv_pid, cout_id))
                        # Free the C tile only.  Due frees settle lazily at
                        # the next claim: ``mem_used`` is read only right
                        # after the expiry that precedes every buffer claim
                        # (the inline phase delivery and ``start_chunk``), so
                        # the integers, peaks and error messages are the same.
                        mem_used[widx] -= agent.blocks
                        start_chunk(agent, now)
                    else:  # _BG — background hold over: next event
                        ev = agent.events[agent.cursor]
                        record_comm((0, agent.start, now, 0, 0,
                                     label_id("send", ev.label)))
                        agent.cursor += 1
                        if agent.cursor < len(agent.events):
                            ev = agent.events[agent.cursor]
                            agent.duration = ev.duration
                            if ev.time > now:
                                # Kernel: timeout(ev.time - now) scheduled
                                # in this burst.
                                wait_agent = agent
                                wait_time = now + (ev.time - now)
                            else:
                                # Overdue (delayed behind a long hold):
                                # re-request within the same burst.
                                request(agent, 0, now)
                elif kind == _WAIT:
                    # The stage says what the wake-up starts: a phase
                    # delivery once its generation gate opens, the C-out
                    # once the final compute is over, or a background hold.
                    stage = agent.stage
                    if stage == _PHASE:
                        j = agent.pidx
                        widx = agent.widx
                        deliver = True
                    else:
                        request(agent, stage_port[stage], now)
                else:  # _HOP
                    # The grant hop fired (a tie forced it): the completion
                    # is sequenced here, as the kernel would.  Varying rates
                    # are sampled now — the hop instant IS the grant time.
                    seq += 4
                    if varying and agent.stage != _BG:
                        agent.duration = agent.blocks * c_rate(agent.widx, now)
                    push(heap, (now + agent.duration, seq | _DONE, agent))
                    continue
                if deliver:
                    # Deliver phase j: claim its A/B buffers (after expiring
                    # the frees now due), then request the send port.
                    deliver = False
                    ph = agent.phases[j]
                    in_blocks = ph[1] + ph[2]  # a_blocks + b_blocks
                    used = mem_used[widx]
                    pend = pending_free[widx]
                    lim = now + 1e-12
                    i = 0
                    n = len(pend)
                    while i < n and pend[i][0] <= lim:
                        used -= pend[i][1]
                        i += 1
                    if i:
                        del pend[:i]
                    used += in_blocks
                    mem_used[widx] = used
                    if used > peaks[widx]:
                        peaks[widx] = used
                        # A capacity violation is necessarily a new peak, so
                        # the online check (same message as the DES) lives here.
                        if check_memory and used > caps[widx]:
                            raise memory_exceeded(widx, used, caps[widx], now)
                    agent.pidx = j
                    agent.blocks = in_blocks
                    agent.duration = in_blocks * agent.c
                    if port_free[0]:
                        port_free[0] = False
                        agent.start = now
                        grants.append(agent)
                    else:
                        port_queue[0].append(agent)
                if wait_agent is not None:
                    # End of burst: schedule the deferred gate timeout.
                    # Its sequence number precedes any grant of the same
                    # burst (the kernel schedules the timeout mid-burst,
                    # the grant's completion only when the grant fires);
                    # when nothing precedes it, dispatch it directly.
                    seq += 4
                    if grants or (heap and heap[0][0] <= wait_time):
                        push(heap, (wait_time, seq | _WAIT, wait_agent))
                    else:
                        pending = wait_agent
                        pending_time = wait_time
                        pending_kind = _WAIT
                    wait_agent = None
                if grants:
                    # End of burst: flush grants in order.  With a same-time
                    # entry pending, take the kernel's hop; otherwise fuse
                    # the grant into its completion directly — and when the
                    # completion precedes every heap entry, skip the heap
                    # round trip altogether (nothing can preempt it).
                    # (Specialised single-grant path: bursts grant at most
                    # one transfer per port, and two only in two-port
                    # C-out bursts.)
                    if varying:
                        # Every grant in the list was granted at ``now``:
                        # sample each transfer's rate here, exactly as the
                        # kernel computes the timeout after ``yield req``.
                        # Background holds keep their absolute durations.
                        for g in grants:
                            if g.stage != _BG:
                                g.duration = g.blocks * c_rate(g.widx, now)
                    if len(grants) == 1:
                        granted = grants.pop()
                        if heap:
                            head = heap[0][0]
                            if head <= now:
                                seq += 4
                                push(heap, (now, seq, granted))
                                continue
                            done_at = now + granted.duration
                            if head <= done_at:
                                seq += 4
                                push(heap, (done_at, seq | _DONE, granted))
                                continue
                        pending = granted
                        pending_time = now + granted.duration
                        pending_kind = _DONE
                    else:
                        hop = heap and heap[0][0] <= now
                        for granted in grants:
                            seq += 4
                            if hop:
                                push(heap, (now, seq, granted))
                            else:
                                push(heap, (now + granted.duration, seq | _DONE,
                                            granted))
                        grants.clear()

        finally:
            flush(cut=True)
            if gc_was_enabled:
                gc.enable()

        memory_peak = trace.memory_peak
        for widx in range(p):
            if peaks[widx]:
                memory_peak[widx + 1] = peaks[widx]
        return trace


def _interval_counts(agents: Sequence[AgentSpec], scenario) -> tuple[int, int]:
    """Comm and compute intervals a full run of the plan records: per
    chunk a C-in, a transfer and a computation per phase, and a C-out;
    one hold per background event."""
    queues = dict.fromkeys(a.queue for a in agents if a.queue is not None)
    chunks = [ch for a in agents if a.queue is None for ch in a.chunks]
    chunks += [ch for queue in queues for ch in queue.pending()]
    phases = sum(len(ch.phases) for ch in chunks)
    holds = len(scenario.background) if scenario is not None else 0
    return phases + 2 * len(chunks) + holds, phases


def run_fast(
    scheduler,
    platform: Platform,
    shape: ProblemShape,
    data: Optional[tuple[BlockMatrix, BlockMatrix, BlockMatrix]] = None,
    two_port: bool = False,
    check_memory: bool = True,
    scenario: Optional[Scenario] = None,
) -> Trace:
    """Run ``scheduler``'s plan on the fast engine and return its trace."""
    return FastEngine(
        platform, shape, scheduler.agents(platform, shape), data=data,
        two_port=two_port, check_memory=check_memory, scenario=scenario,
    ).run()
