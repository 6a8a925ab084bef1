"""Batched model-engine throughput: ``run_model_batch`` vs scalar.

The batched model evaluator (:mod:`repro.engine.model_batch`) groups
items by structural signature and replays the scalar estimator's
3-event recurrence as numpy rows, one pass per group.  This benchmark
measures points/second of both paths on the shape the batch layer was
built for — one algorithm, one paper-size workload, a dense axis of
nearby bandwidth scalings — and enforces the ISSUE's >=10x
model-engine throughput gate both locally and in CI.

It deliberately ignores ``--scale``: at toy
sizes the fixed per-group cost dominates and the ratio says nothing
about the million-point sweeps the gate is about.  ``--engine des`` /
``--engine fast`` suite runs skip it — this path only exists for the
model engine (``--engine model`` runs it, as does the default suite).
"""

import time

import conftest
import pytest

from repro.engine import BatchItem, run_model, run_model_batch
from repro.platform import scaled_bandwidth, ut_cluster_platform
from repro.schedulers import section8_scheduler
from repro.workloads import fig10_workloads

#: Group size for the throughput gate — the ISSUE names a 256-point
#: uniform group as the acceptance shape.
GROUP = 256

SPEEDUP_GATE = 10.0


def _items(group: int = GROUP, algo: str = "OBMM") -> list:
    """A structurally-uniform paper-scale group: one Section 8
    scheduler on the first Section 8.3 workload under ``group`` nearby
    link-speed scalings (p=16: the widest configuration Figure 10
    sweeps, so the per-point scalar recurrence is at its longest)."""
    platform = ut_cluster_platform(p=16)
    shape = fig10_workloads()[0].shape(80)
    return [
        BatchItem(
            scheduler=lambda a=algo: section8_scheduler(a),
            platform=scaled_bandwidth(platform, 1.0 + 0.0002 * i),
            shape=shape,
            engine="model",
        )
        for i in range(group)
    ]


def _best_of(fn, rounds: int = 3) -> float:
    """Round minimum — scheduling jitter only ever adds time."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_model_batch_point_throughput(benchmark):
    """>=10x model-engine points/second on a 256-point uniform group
    (the ISSUE gate), with every row actually vectorized."""
    if conftest._engine not in (None, "model"):
        pytest.skip("batched model evaluation is a model-engine path")
    items = _items()

    def scalar():
        for item in items:
            run_model(
                item.scheduler(), item.platform, item.shape,
                two_port=item.two_port, check_memory=item.check_memory,
            )

    scalar_s = _best_of(scalar)

    counters: dict = {}
    batch_s = _best_of(
        lambda: run_model_batch(items, counters=counters)
    )
    speedup = scalar_s / batch_s

    # Recorded round: the batched path, so the ledger tracks the time
    # the gate's numerator is compared against.
    benchmark.pedantic(
        run_model_batch, args=(items,), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    assert counters.get("scalar", 0) == 0 and (
        counters.get("vectorized") == len(items)
    ), f"group no longer fully vectorizes ({counters}) — gate is measuring fallback"

    # Context row: HoLM's chunk ladder vectorizes too; record its ratio
    # so the ledger shows the gate is not an OBMM-only artefact.
    holm = _items(group=64, algo="HoLM")
    holm_scalar = _best_of(lambda: [
        run_model(i.scheduler(), i.platform, i.shape) for i in holm
    ])
    holm_batch = _best_of(lambda: run_model_batch(holm))

    benchmark.extra_info["scalar_points_per_s"] = len(items) / scalar_s
    benchmark.extra_info["batch_points_per_s"] = len(items) / batch_s
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["holm_speedup"] = holm_scalar / holm_batch
    print(
        f"\nmodel batch throughput: {len(items) / batch_s:,.0f} points/s vs "
        f"{len(items) / scalar_s:,.0f} scalar ({speedup:.2f}x, gate "
        f">={SPEEDUP_GATE:g}x); HoLM context {holm_scalar / holm_batch:.2f}x"
    )
    assert speedup >= SPEEDUP_GATE, (
        f"batched model evaluation only {speedup:.2f}x faster than scalar "
        f"(gate {SPEEDUP_GATE:g}x) over {len(items)} uniform points"
    )
