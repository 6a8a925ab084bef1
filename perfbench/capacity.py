"""The ``capacity_plan`` workload: a seeded configuration grid, three stages.

It mirrors ``examples/capacity_planning.py`` through library calls that
do not depend on the sweep runner:

1. estimate every (memory, workers, link speed, algorithm) configuration
   with :func:`repro.engine.run_model_batch`;
2. shortlist the cheapest configurations whose estimate meets the target;
3. re-simulate the shortlist with ``run_scheduler(..., engine="fast")``.

The grid's axes are fixed, so every seed costs the same work; the seed
draws the jitter of the 6 of 48 (memory, workers) pairs that run on
jittered, heterogeneous platforms.  :func:`repro.engine.run_model_batch`
groups the configurations that share a launch structure and scans each
group as numpy rows; a row whose dispatch order leaves its group's, and
every configuration left in a group too small to scan, takes the scalar
model path.  Measured on the full grid (2688 configurations): about
1100-1130 vectorize, depending on the seed, and the scalar path takes the
rest, most of them homogeneous configurations at link speeds far from
their group's representative.  Per-layer metrics ``engine.model_batch_s``
(grouping and the vectorized scan) and ``engine.model_scalar_s`` (the
scalar fallback) show the two paths apart.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

#: Seeds map onto this many distinct grids, each with a reference digest.
INSTANCES = 16
#: The nightly-batch workload and turnaround target of the example.
WORKLOAD = ("nightly batch", 8000, 8000, 32000)
TARGET_S = 1200.0
Q = 80
WORKERS = tuple(range(2, 17, 2))
MEMORY_POINTS = 6
LINK_POINTS = 8
#: (memory, workers) pairs per grid that run on jittered platforms.
JITTERED_PAIRS = 6
KEEP = 4


@dataclass(frozen=True)
class Config:
    """The scalars that identify one grid point (they make up its row)."""

    memory_mb: float
    p: int
    link: float
    jittered: bool
    algorithm: str


def instance_for(seed: int) -> int:
    return seed % INSTANCES


def build_grid(seed: int, scale: int = 1) -> Tuple[List[Config], List[Any]]:
    """The seeded grid as configurations plus matching model-engine items."""
    import numpy as np

    from repro import engine, platform, schedulers, workloads

    batch_item = getattr(engine, "BatchItem", None)
    if batch_item is None:  # moved next to run_model_batch
        from repro.engine.model_batch import BatchItem as batch_item

    rng = np.random.default_rng(instance_for(seed))
    memories = [
        round(48.0 * 16.0 ** (i / (MEMORY_POINTS - 1)), 1)
        for i in range(MEMORY_POINTS)
    ]
    links = [
        round(2.0 ** (2.0 * i / (LINK_POINTS - 1) - 1.0), 3)
        for i in range(LINK_POINTS)
    ]
    pairs = [(m, p) for m in memories for p in WORKERS]
    stride = len(pairs) // JITTERED_PAIRS
    name, n_a, n_ab, n_b = WORKLOAD
    shape = workloads.Workload(
        name, max(n_a // scale, 4 * Q), max(n_ab // scale, 4 * Q),
        max(n_b // scale, 4 * Q),
    ).shape(Q)
    algorithms = list(schedulers.SECTION8_SCHEDULERS)
    factories = {a: functools.partial(schedulers.section8_scheduler, a) for a in algorithms}

    configs: List[Config] = []
    items: List[Any] = []
    for index, (memory_mb, p) in enumerate(pairs):
        base = platform.ut_cluster_platform(p=p, memory_mb=memory_mb, q=Q)
        for link in links:
            plat = platform.scaled_bandwidth(base, link)
            jitter = index % stride == stride // 2
            if jitter:
                plat = platform.perturbed(plat, rng, sigma=0.03)
            for algorithm in algorithms:
                configs.append(Config(memory_mb, p, link, jitter, algorithm))
                items.append(
                    batch_item(
                        scheduler=factories[algorithm], platform=plat,
                        shape=shape, engine="model",
                    )
                )
    return configs, items


def target(scale: int = 1) -> float:
    return TARGET_S / scale


def _row(config: Config, result) -> Dict[str, Any]:
    return {
        "memory_mb": config.memory_mb,
        "p": config.p,
        "link": config.link,
        "jittered": config.jittered,
        "algorithm": config.algorithm,
        "makespan_s": result.makespan,
        "workers": len(result.enrolled_workers),
        "gb_machines": config.p * config.memory_mb / 1024.0,
    }


def estimate(items: Sequence[Any], counters: Dict[str, int]) -> List[Any]:
    """Stage 1: every configuration through the batched model engine."""
    from repro import engine

    return engine.run_model_batch(items, counters=counters)


def shortlist(
    configs: Sequence[Config], estimates: Sequence[Any], scale: int = 1
) -> Tuple[List[Dict[str, Any]], List[int]]:
    """Stage 2: estimate rows, and the indices of the cheapest feasible."""
    rows = [_row(c, e) for c, e in zip(configs, estimates)]
    limit = target(scale)
    feasible = [i for i, row in enumerate(rows) if row["makespan_s"] <= limit]
    feasible.sort(key=lambda i: (rows[i]["gb_machines"], rows[i]["makespan_s"], i))
    return rows, feasible[:KEEP]


def verify(
    configs: Sequence[Config], items: Sequence[Any], picks: Sequence[int],
    scale: int = 1,
) -> List[Dict[str, Any]]:
    """Stage 3: re-simulate the shortlist with the fast engine."""
    from repro import engine

    rows = []
    for i in picks:
        item = items[i]
        trace = engine.run_scheduler(
            item.scheduler(), item.platform, item.shape, engine="fast"
        )
        row = _row(configs[i], trace)
        row["meets_target"] = row["makespan_s"] <= target(scale)
        rows.append(row)
    return rows


def digest(rows: Sequence[Dict[str, Any]]) -> str:
    blob = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
