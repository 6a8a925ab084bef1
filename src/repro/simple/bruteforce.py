"""Exhaustive search over send orders for tiny Section-3 instances.

Used as ground truth in tests (e.g. checking Proposition 1, or that
neither Thrifty nor Min-min is optimal).  The search branches over all
*useful* ``(worker, file)`` sends — a send is useful when it contributes
to at least one still-unclaimed task — and executes the greedy-claim
semantics of :func:`repro.simple.model.evaluate_schedule` incrementally.

Admissible pruning bounds keep tiny instances (``r·s ≤ ~9``, ``p ≤ 2``)
tractable; a node budget guards against accidental explosion.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.simple.model import Send, SimpleInstance, SimpleResult, evaluate_schedule

__all__ = ["brute_force_best"]


def brute_force_best(
    inst: SimpleInstance, node_budget: int = 2_000_000
) -> SimpleResult:
    """Best achievable makespan over all send orders (greedy claims).

    Raises ``RuntimeError`` when the search exceeds ``node_budget``
    nodes — a signal that the instance is too large for brute force.
    """
    best_makespan = math.inf
    best_schedule: Optional[list[Send]] = None
    nodes = 0

    held_a: list[set[int]] = [set() for _ in range(inst.p)]
    held_b: list[set[int]] = [set() for _ in range(inst.p)]
    busy = [0.0] * inst.p
    unclaimed = {(i, j) for i in range(1, inst.r + 1) for j in range(1, inst.s + 1)}
    prefix: list[Send] = []
    seen: dict[tuple, float] = {}

    def state_key(tau: float) -> tuple:
        per_worker = tuple(
            (frozenset(held_a[k]), frozenset(held_b[k]), busy[k])
            for k in range(inst.p)
        )
        return (per_worker, frozenset(unclaimed), tau)

    def lower_bound(tau: float) -> float:
        n = len(unclaimed)
        lb = max(busy) if any(busy) else 0.0
        if n:
            lb = max(
                lb,
                tau + inst.c + inst.w,
                tau + inst.c + n * inst.w / inst.p,
            )
        return lb

    def dfs(tau: float) -> None:
        nonlocal best_makespan, best_schedule, nodes
        nodes += 1
        if nodes > node_budget:
            raise RuntimeError(
                f"brute force exceeded {node_budget} nodes on {inst}"
            )
        if not unclaimed:
            makespan = max(busy)
            if makespan < best_makespan:
                best_makespan = makespan
                best_schedule = list(prefix)
            return
        if lower_bound(tau) >= best_makespan:
            return
        key = state_key(tau)
        prev = seen.get(key)
        if prev is not None and prev <= tau:
            return
        seen[key] = tau

        for widx in range(inst.p):
            for kind, limit, held in (
                ("A", inst.r, held_a[widx]),
                ("B", inst.s, held_b[widx]),
            ):
                for index in range(1, limit + 1):
                    if index in held:
                        continue
                    if kind == "A":
                        useful = any((index, j) in unclaimed for j in range(1, inst.s + 1))
                    else:
                        useful = any((i, index) in unclaimed for i in range(1, inst.r + 1))
                    if not useful:
                        continue
                    arrival = tau + inst.c
                    if kind == "A":
                        held_a[widx].add(index)
                        enabled = sorted(
                            (index, j) for j in held_b[widx] if (index, j) in unclaimed
                        )
                    else:
                        held_b[widx].add(index)
                        enabled = sorted(
                            (i, index) for i in held_a[widx] if (i, index) in unclaimed
                        )
                    old_busy = busy[widx]
                    b = old_busy
                    for task in enabled:
                        unclaimed.discard(task)
                        b = max(b, arrival) + inst.w
                    busy[widx] = b
                    prefix.append(Send(widx + 1, kind, index))

                    dfs(arrival)

                    prefix.pop()
                    busy[widx] = old_busy
                    for task in enabled:
                        unclaimed.add(task)
                    if kind == "A":
                        held_a[widx].discard(index)
                    else:
                        held_b[widx].discard(index)

    dfs(0.0)
    # ``dfs`` reaches itself through its closure, so this frame's memo
    # would otherwise live until a cyclic GC pass; a long-lived pool
    # worker would pay that pass in the middle of a later sweep.
    seen.clear()
    assert best_schedule is not None
    return evaluate_schedule(inst, best_schedule, require_complete=True)
