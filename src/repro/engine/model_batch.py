"""Vectorized analytic-model evaluation: many estimates per heap walk.

The model engine (:mod:`repro.engine.model`) already reduced one point
to a 3-event-per-chunk heap walk, but capacity-planning grids evaluate
*millions* of such points and pay that walk once each — even when
hundreds of neighbouring points (the same scheduler on rate-perturbed
platforms) share the identical chunk streams and dispatch order.  For
such a group the walk's control flow is a function of the *structure*,
and only the clock arithmetic depends on ``c_i``/``w_i`` — which
vectorizes.  :func:`run_model_batch` makes "estimate N points" one
library call:

1. **Group by structure — without launching.**  Schedulers that can
   prove their launch structure from the platform rates alone publish
   cheap per-point plan tokens
   (:meth:`~repro.schedulers.base.ChunkScheduler.plan_signatures`:
   HoLM/ORROML from the Section 5 plan, the demand-driven family from
   the tile side); equal tokens place points in one group and only the
   group *representative* is ever launched.  Schedulers that cannot
   (``plan_signatures() is None``) fall back to launching each point on
   a throwaway :class:`~repro.engine.model.ModelEngine` and folding the
   agent descriptors into a structural signature (:func:`_signature`).
2. **One heap walk per group.**  The group's first point (the
   *representative*) drives a verbatim replay of ``model._estimate``'s
   stationary path; every time-valued scalar is shadowed by an ``(N,)``
   float64 array computed with the identical operation sequence, and
   every heap pop is verified against the representative's dispatch
   order (strict advance where the representative strictly advances,
   non-decreasing across representative ties).  All structural
   quantities — chunk stats, peak buffers, update counts, comm blocks —
   are group-invariant by the signature.
3. **Scalar fallback per item.**  Diverged rows, sub-minimum groups,
   scenario points (a rate-step crossing changes the *shape* of the
   estimate, not just its clocks), non-model items and schedulers the
   model engine rejects all take the ordinary scalar ``run_scheduler``
   path, so every returned :class:`~repro.engine.model.ModelEstimate`
   is float-identical to the scalar engine's — prescreen scores and
   cache keys cannot shift.

Why this is sound
-----------------
The estimator is a deterministic function of (structure, rates), and
numpy elementwise float64 arithmetic is IEEE-identical to Python float
arithmetic.  Fix a row ``k`` of a group: while ``k`` has followed the
representative's control path, every shadowed quantity of ``k``'s walk
equals row ``k`` of the corresponding array.  The walk's only control
decisions are heap-pop order (verified per pop, ties included, because
a tie is broken by the scheduling counter and the counter is itself
control-path determined), queue pops (determined by pop order), and
structural comparisons (group-invariant); the remaining ``max()``
selects are value selects computed with ``np.maximum``, which picks the
identical bytes the scalar ``if``/``else`` does.  A single failed
verification voids the row, never the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blocks.shape import ProblemShape
from repro.engine.common import memory_exceeded
from repro.engine.model import (
    _BULK,
    _COUT,
    _START,
    ModelEngine,
    ModelEngineUnsupported,
    ModelEstimate,
    _chunk_stats,
    _Run,
)
from repro.platform.model import Platform
from repro.scenarios.model import Scenario

__all__ = ["MIN_GROUP", "BatchItem", "run_model_batch"]

#: Smallest group worth vectorizing: below this the per-group setup
#: (shadow arrays, verification ops) costs more than it amortizes.
MIN_GROUP = 2


@dataclass(frozen=True)
class BatchItem:
    """One point of a batch evaluation.

    ``scheduler`` is a **factory** returning a fresh scheduler instance
    per call (launch consumes scheduler-built queues, and fallback
    paths re-launch), mirroring how the experiment modules construct
    one scheduler per :func:`~repro.engine.engine.run_scheduler` call.

    Only stationary ``engine="model"`` items vectorize; any other
    ``engine``/``scenario`` simply takes the scalar path.
    """

    scheduler: Callable[[], Any]
    platform: Platform
    shape: ProblemShape
    two_port: bool = False
    check_memory: bool = True
    engine: str = "fast"
    scenario: Optional[Scenario] = None


class _GroupAbort(Exception):
    """The representative's control flow raised (memory cap, update-count
    mismatch): the whole group re-runs scalar so each point raises — or
    survives — authentically."""


def _chunk_token(chunk, id_memo: Dict[int, int], content_ids: Dict[tuple, int]) -> int:
    """Small interned token for a chunk's full structural content.

    Tokens compare by *content equality* (the interning dict keys the
    complete ``(row_range, col_range, phases)`` tuple), never by hash
    alone, so two structurally different chunks can never collide into
    one group.  The ``id()`` memo makes repeat lookups O(1): the
    lru-cached tilings hand the same chunk objects to every point of a
    sweep.
    """
    token = id_memo.get(id(chunk))
    if token is None:
        content = (chunk.row_range, chunk.col_range, chunk.phases)
        token = content_ids.get(content)
        if token is None:
            token = content_ids[content] = len(content_ids)
        id_memo[id(chunk)] = token
    return token


def _signature(engine: ModelEngine, item: BatchItem, id_memo, content_ids):
    """Structural signature of one launched point.

    Two points with equal signatures present the walk with identical
    decision structure: same shape / port model / memory capacities and
    agent count, and per agent the same worker index, generation gap
    and exact chunk stream (chunk identity by content, queue sharing by
    position).  Only the platform's ``c``/``w`` rates may differ.
    """
    queue_ids: Dict[int, tuple] = {}
    agents = []
    for spec in engine.env.agents:
        if spec.queue is not None:
            qsig = queue_ids.get(id(spec.queue))
            if qsig is None:
                qsig = (
                    len(queue_ids),
                    spec.queue._next,
                    tuple(
                        _chunk_token(c, id_memo, content_ids)
                        for c in spec.queue._chunks
                    ),
                )
                queue_ids[id(spec.queue)] = qsig
            chunks_sig = None
        else:
            qsig = None
            chunks_sig = tuple(
                _chunk_token(c, id_memo, content_ids) for c in spec.chunks
            )
        agents.append((spec.widx, spec.gap, chunks_sig, qsig))
    return (
        item.shape,
        item.two_port,
        item.check_memory,
        item.platform.p,
        tuple(wk.m for wk in item.platform.workers),
        tuple(agents),
    )


def _scan_model_group(
    items: Sequence[BatchItem],
    rep: ModelEngine,
    c_m: np.ndarray,
    w_m: np.ndarray,
) -> Tuple[List[ModelEstimate], np.ndarray]:
    """Replay the stationary estimator once for the whole group.

    ``rep`` is the launched engine of the group's first point; ``c_m``
    and ``w_m`` are the group's ``(n, p)`` per-worker rate matrices
    (row 0 belongs to the representative).  The ``*_r`` locals mirror
    ``model._estimate``'s inlined stationary path statement for
    statement (they *are* that walk for point 0); each is shadowed by
    an ``(N,)`` array holding the same quantity for every point.
    Returns one estimate per row plus the validity mask.  Raises
    :class:`_GroupAbort` when the representative's
    own flow raises (memory cap — structural, so every member re-runs
    scalar and raises authentically).
    """
    rep_item = items[0]
    n = len(items)
    workers = rep.platform.workers
    p = rep.platform.p
    two_port = rep_item.two_port
    check_memory = rep_item.check_memory
    recv_pid = 1 if two_port else 0

    c_r = [wk.c for wk in workers]
    w_r = [wk.w for wk in workers]
    c_v = [np.ascontiguousarray(c_m[:, widx]) for widx in range(p)]
    w_v = [np.ascontiguousarray(w_m[:, widx]) for widx in range(p)]

    zeros = np.zeros(n)
    port_avail_r = [0.0, 0.0]
    port_avail_v = [zeros, zeros]
    comm_r = [0.0, 0.0]
    comm_v = [np.zeros(n), np.zeros(n)]
    busy_v = [np.zeros(n) for _ in range(p)]
    updates_done = [0] * p
    peaks = [0] * p
    comm_blocks_total = 0
    updates_total = 0
    makespan_v = np.zeros(n)

    ok = np.ones(n, dtype=bool)
    tb = np.empty(n, dtype=bool)  # comparison scratch

    # Entries are (time_r, seq, stage, run, time_v); seq is unique so
    # comparisons never reach the run object or the array.
    heap: list = []
    seq = 0
    for spec in rep.env.agents:
        heappush(heap, (0.0, seq, _START, _Run(spec), zeros))
        seq += 1

    prev_r = 0.0
    prev_v = zeros
    pop = heappop
    push = heappush
    while heap:
        now_r, _, stage, run, now_v = pop(heap)
        # Dispatch-order lock (see the module docstring): along the
        # representative's pop sequence every row must advance strictly
        # where the rep does and non-decreasingly across rep ties (a rep
        # tie resolves by seq, which is control-path determined and
        # therefore identical for a still-locked row).
        if now_r != prev_r:
            np.greater(now_v, prev_v, out=tb)
        else:
            np.less_equal(prev_v, now_v, out=tb)
        np.logical_and(ok, tb, out=ok)
        prev_r = now_r
        prev_v = now_v
        widx = run.widx
        cf_r = c_r[widx]
        cf_v = c_v[widx]
        if stage == _START:
            queue = run.queue
            if queue is not None:
                chunk = queue.pop()
            else:
                cursor = run.cursor
                if cursor < len(run.chunks):
                    chunk = run.chunks[cursor]
                    run.cursor = cursor + 1
                else:
                    chunk = None
            if chunk is None:
                continue
            stats = chunk.__dict__.get(run.stats_key)
            if stats is None:
                stats = _chunk_stats(chunk, run.gap)
            run.stats = stats
            peak = stats[5]
            if peak > peaks[widx]:
                peaks[widx] = peak
                if check_memory and peak > workers[widx].m:
                    raise _GroupAbort(
                        memory_exceeded(widx, peak, workers[widx].m, now_r)
                    )
            run.chunk = chunk
            blocks = stats[0] + stats[3]
            avail_r = port_avail_r[0]
            start_r = avail_r if avail_r > now_r else now_r
            fill_r = start_r + blocks * cf_r
            # Value select, not control flow: np.maximum picks the
            # identical bytes the scalar `avail if avail > now` does.
            start_v = np.maximum(port_avail_v[0], now_v)
            fill_v = start_v + blocks * cf_v
            port_avail_r[0] = fill_r
            port_avail_v[0] = fill_v
            comm_r[0] += fill_r - start_r
            comm_v[0] += fill_v - start_v
            push(heap, (fill_r, seq, _BULK, run, fill_v))
            seq += 1
        elif stage == _BULK:
            c_blocks, ab, ups, fill, last_ups, _ = run.stats
            avail_r = port_avail_r[0]
            bulk_start_r = avail_r if avail_r > now_r else now_r
            deliver_r = bulk_start_r + (ab - fill) * cf_r
            bulk_start_v = np.maximum(port_avail_v[0], now_v)
            deliver_v = bulk_start_v + (ab - fill) * cf_v
            port_avail_r[0] = deliver_r
            port_avail_v[0] = deliver_v
            comm_r[0] += deliver_r - bulk_start_r
            comm_v[0] += deliver_v - bulk_start_v
            wf_r = w_r[widx]
            wf_v = w_v[widx]
            nominal_r = now_r + ups * wf_r
            nominal_v = now_v + ups * wf_v
            busy_v[widx] += nominal_v - now_v
            updates_done[widx] += ups
            if run.gap == 1:
                comp_r = deliver_r + ups * wf_r
                comp_v = deliver_v + ups * wf_v
            else:
                gated_r = deliver_r + last_ups * wf_r
                gated_v = deliver_v + last_ups * wf_v
                comp_r = nominal_r if nominal_r > gated_r else gated_r
                comp_v = np.maximum(nominal_v, gated_v)
            push(heap, (comp_r, seq, _COUT, run, comp_v))
            seq += 1
        else:  # _COUT
            stats = run.stats
            c_blocks = stats[0]
            avail_r = port_avail_r[recv_pid]
            start_r = avail_r if avail_r > now_r else now_r
            done_r = start_r + c_blocks * cf_r
            start_v = np.maximum(port_avail_v[recv_pid], now_v)
            done_v = start_v + c_blocks * cf_v
            port_avail_r[recv_pid] = done_r
            port_avail_v[recv_pid] = done_v
            comm_r[recv_pid] += done_r - start_r
            comm_v[recv_pid] += done_v - start_v
            comm_blocks_total += stats[1] + 2 * c_blocks
            updates_total += stats[2]
            np.maximum(makespan_v, done_v, out=makespan_v)
            push(heap, (done_r, seq, _START, run, done_v))
            seq += 1

    # Bulk-extract the columns once (`.tolist()` yields the same Python
    # floats bit for bit) instead of 256×(p+3) scalar indexing calls.
    makespan_l = makespan_v.tolist()
    port0_l = comm_v[0].tolist()
    port1_l = comm_v[1].tolist()
    busy_rows = list(zip(*(col.tolist() for col in busy_v)))
    worker_updates = tuple(updates_done)
    peak_blocks = tuple(peaks)
    estimates = [
        ModelEstimate(
            makespan=makespan_l[row],
            comm_blocks=comm_blocks_total,
            total_updates=updates_total,
            port_busy=(port0_l[row], port1_l[row]),
            worker_busy=busy_rows[row],
            worker_updates=worker_updates,
            peak_blocks=peak_blocks,
            two_port=two_port,
        )
        for row in range(n)
    ]
    return estimates, ok


def _rate_matrices(
    members: Sequence[tuple], p: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, p)`` matrices of per-worker ``c``, ``w`` and memory."""
    flat = [wk for _, item, _ in members for wk in item.platform.workers]
    n = len(members)
    return (
        np.array([wk.c for wk in flat]).reshape(n, p),
        np.array([wk.w for wk in flat]).reshape(n, p),
        np.array([wk.m for wk in flat], dtype=np.int64).reshape(n, p),
    )


def _scan_rows(
    members: Sequence[tuple],
    rows: Sequence[int],
    shape: Any,
    c_m: np.ndarray,
    w_m: np.ndarray,
    results: List[Any],
    scalar: Callable[[int], Any],
    engine: ModelEngine | None = None,
) -> int:
    """Scan one structure-sharing group; scatter estimates and fallbacks.

    ``rows`` indexes into ``members`` (and the rate matrices); the
    first row is the representative.  ``engine`` is its launched
    engine when the caller already has one (the signature-fallback
    path); otherwise the representative is launched here — the plan
    token certifies every other row would build the same structure.
    Returns how many rows the vectorized path committed.
    """
    if engine is None:
        i0, item0, sch0 = members[rows[0]]
        engine = ModelEngine(item0.platform, item0.shape)
        try:
            sch0.launch(engine)
        except ModelEngineUnsupported:
            # No silent fallback tier for the model engine: the scalar
            # path re-raises the same rejection authentically.
            for row in rows:
                results[members[row][0]] = scalar(members[row][0])
            return 0
    sel = np.array(rows)
    try:
        estimates, ok = _scan_model_group(
            [members[row][1] for row in rows], engine, c_m[sel], w_m[sel]
        )
        # run_scheduler's post-run accounting check is structural: a
        # mismatch means every member raises, authentically, via the
        # scalar path.
        if estimates[0].total_updates != shape.total_updates:
            raise _GroupAbort()
    except _GroupAbort:
        for row in rows:
            results[members[row][0]] = scalar(members[row][0])
        return 0
    vectorized = 0
    for pos, flag in enumerate(ok.tolist()):
        i = members[rows[pos]][0]
        if flag:
            results[i] = estimates[pos]
            vectorized += 1
        else:
            results[i] = scalar(i)
    return vectorized


def _signature_groups(
    members: Sequence[tuple],
    results: List[Any],
    scalar: Callable[[int], Any],
    min_group: int,
    c_m: np.ndarray,
    w_m: np.ndarray,
) -> int:
    """Launch-everything fallback for ``plan_signatures() is None``.

    Each point's scheduler runs on a throwaway engine and the agent
    descriptors fold into :func:`_signature`; the
    signature's structural fields subsume the plan token, so this path
    is sound for any scheduler at a per-point launch cost.
    """
    id_memo: Dict[int, int] = {}
    content_ids: Dict[tuple, int] = {}
    groups: Dict[tuple, List[Tuple[int, ModelEngine]]] = {}
    for row, (i, item, sch) in enumerate(members):
        engine = ModelEngine(item.platform, item.shape)
        try:
            sch.launch(engine)
        except ModelEngineUnsupported:
            results[i] = scalar(i)
            continue
        sig = _signature(engine, item, id_memo, content_ids)
        groups.setdefault(sig, []).append((row, engine))
    vectorized = 0
    for sig, grouped in groups.items():
        rows = [row for row, _ in grouped]
        if len(rows) < min_group:
            for row in rows:
                results[members[row][0]] = scalar(members[row][0])
            continue
        vectorized += _scan_rows(
            members, rows, sig[0], c_m, w_m, results, scalar,
            engine=grouped[0][1],
        )
    return vectorized


def run_model_batch(
    items: Sequence[BatchItem],
    min_group: int = MIN_GROUP,
    counters: Dict[str, int] | None = None,
) -> List[Any]:
    """Evaluate model-engine ``items`` in structure-sharing groups.

    Returns one result per item, in order.  Items that are not
    stationary ``engine="model"`` points, or that diverge from their
    group, take the scalar :func:`~repro.engine.engine.run_scheduler`
    path — results are float-identical either way.

    Grouping is two-tier: a cheap pre-key (scheduler class, shape,
    port/memory flags, worker count) splits the batch without touching
    any engine, then
    :meth:`~repro.schedulers.base.ChunkScheduler.plan_signatures`
    refines each pre-group into structure-sharing runs with exactly one
    launch per group.  Schedulers that decline (``None``) take
    :func:`_signature_groups` instead.

    ``counters``, when given, receives ``{"vectorized": V, "scalar":
    S}`` so callers (the throughput gate) can assert the fast path
    actually ran.
    """
    from repro.engine.engine import run_scheduler

    items = list(items)
    results: List[Any] = [None] * len(items)

    def scalar(i: int) -> Any:
        item = items[i]
        return run_scheduler(
            item.scheduler(), item.platform, item.shape,
            two_port=item.two_port, check_memory=item.check_memory,
            engine=item.engine, scenario=item.scenario,
        )

    indices: List[int] = []
    for i, item in enumerate(items):
        if item.engine == "model" and item.scenario is None:
            indices.append(i)
        else:
            results[i] = scalar(i)
    min_group = max(min_group, 2)
    pregroups: Dict[tuple, List[tuple]] = {}
    for i in indices:
        item = items[i]
        sch = item.scheduler()
        key = (
            type(sch), item.shape, item.two_port, item.check_memory,
            item.platform.p,
        )
        pregroups.setdefault(key, []).append((i, item, sch))

    vectorized = 0
    for key, members in pregroups.items():
        if len(members) < min_group:
            for i, _, _ in members:
                results[i] = scalar(i)
            continue
        shape, p = key[1], key[4]
        c_m, w_m, m_m = _rate_matrices(members, p)
        # Non-chunk schedulers (no plan_signatures at all) go through
        # the launch-everything fallback, which also surfaces their
        # ModelEngineUnsupported exactly like the scalar path.
        signatures = getattr(members[0][2], "plan_signatures", None)
        tokens = (
            signatures(shape, c_m, w_m, m_m) if signatures is not None
            else None
        )
        if tokens is None:
            vectorized += _signature_groups(
                members, results, scalar, min_group, c_m, w_m
            )
            continue
        # The scan's memory-cap check reads the representative's
        # per-worker capacities, so rows sharing a token must also
        # share them; in the overwhelmingly common case (a rate sweep
        # over one hardware description) a single vector check settles
        # it for the whole pre-group.
        uniform_m = bool((m_m == m_m[0]).all())
        by_token: Dict[Any, List[int]] = {}
        for row, tok in enumerate(tokens):
            if not uniform_m:
                tok = (tok, tuple(m_m[row].tolist()))
            by_token.setdefault(tok, []).append(row)
        for rows in by_token.values():
            if len(rows) < min_group:
                for row in rows:
                    results[members[row][0]] = scalar(members[row][0])
                continue
            vectorized += _scan_rows(
                members, rows, shape, c_m, w_m, results, scalar
            )
    if counters is not None:
        counters["vectorized"] = vectorized
        counters["scalar"] = len(items) - vectorized
    return results
