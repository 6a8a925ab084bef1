"""Golden model estimates and the parity of the estimator's two loops.

``tests/golden/model_estimates.json`` pins every field of the
:class:`~repro.engine.model.ModelEstimate` of a grid of runs: the seven
Section 8 algorithms on a homogeneous, a jittered and a heterogeneous
platform, one-port and two-port, on a shape with ragged edge tiles and
on one small enough for HoLM's ν fallback, plus one over-capacity run
with ``check_memory=False``.  Floats are stored as ``float.hex``, so
any change to the estimator's arithmetic — even in the last bit — fails
here.  ``pytest tests/test_model_golden.py --update-golden`` rewrites
the fixture after an intentional change.

``_estimate`` runs a stationary loop when ``scenario is None`` and the
general loop otherwise; the identity scenario drives the general loop
over the same platform, so the two must agree exactly.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.blocks import ProblemShape
from repro.engine import AgentSpec, ChunkQueue, run_scheduler, tile_chunks
from repro.platform import Platform, Worker, perturbed, ut_cluster_platform
from repro.scenarios import Scenario
from repro.schedulers import SECTION8_SCHEDULERS, section8_scheduler
from repro.schedulers.base import DemandChunkScheduler, StaticChunkScheduler

GOLDEN = Path(__file__).parent / "golden" / "model_estimates.json"

_HOMOGENEOUS = ut_cluster_platform(p=4, memory_mb=4.0, q=80)
PLATFORMS = {
    "homogeneous": _HOMOGENEOUS,
    "jittered": perturbed(_HOMOGENEOUS, np.random.default_rng(11), sigma=0.05),
    "heterogeneous": Platform(
        (
            Worker(1, c=0.5, w=2.0, m=60),
            Worker(2, c=0.8, w=1.5, m=78),
            Worker(3, c=0.3, w=3.0, m=45),
            Worker(4, c=1.0, w=1.0, m=100),
        ),
        name="het4",
    ),
}
SHAPES = {
    # 17 x 23 blocks leave ragged edge tiles for every tile side in use.
    "ragged": ProblemShape(r=17, s=23, t=9, q=80),
    # Fewer blocks than one µ x µ tile per enrolled worker: HoLM's ν path.
    "small": ProblemShape(r=4, s=6, t=5, q=80),
}
PORTS = {"one-port": False, "two-port": True}


class Oversized(StaticChunkScheduler):
    """One static agent whose µ = 4 tiles need 16 C buffers."""

    name = "Oversized"

    def chunk_param(self, m: int) -> int:
        return 4

    def build_chunks(self, shape, param):
        return tile_chunks(shape, param)

    def assign(self, platform, shape, chunks):
        return {0: list(chunks)}


class MixedGapQueue(DemandChunkScheduler):
    """A gap-1 and a gap-2 agent draining one shared queue."""

    name = "MixedGapQueue"

    def chunk_param(self, m: int) -> int:
        return 3

    def build_chunks(self, shape, param):
        return tile_chunks(shape, param)

    def agents(self, platform, shape):
        queue = ChunkQueue(self.build_chunks(shape, self.chunk_param(0)))
        return [AgentSpec(0, queue, 1), AgentSpec(1, queue, 2)]


def _cases():
    """Case id → ``(scheduler factory, platform, shape, two_port, check_memory)``."""
    cases = {}
    for algo in SECTION8_SCHEDULERS:
        for pname, platform in PLATFORMS.items():
            for sname, shape in SHAPES.items():
                for port, two_port in PORTS.items():
                    cases[f"{algo}/{pname}/{sname}/{port}"] = (
                        lambda algo=algo: section8_scheduler(algo),
                        platform, shape, two_port, True,
                    )
    cases["Oversized/m10/no-memory-check"] = (
        Oversized, Platform.homogeneous(2, c=1.0, w=1.0, m=10),
        ProblemShape(r=4, s=4, t=2, q=2), False, False,
    )
    return cases


CASES = _cases()


def _estimate(case_id: str, scenario: bool = False):
    factory, platform, shape, two_port, check_memory = CASES[case_id]
    return run_scheduler(
        factory(), platform, shape, two_port=two_port,
        check_memory=check_memory, engine="model",
        scenario=Scenario.stationary(platform) if scenario else None,
    )


def _encode(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def estimate_payload(estimate) -> dict:
    """Every ``ModelEstimate`` field, floats as ``float.hex``."""
    return {
        f.name: _encode(getattr(estimate, f.name))
        for f in dataclasses.fields(estimate)
    }


def test_golden_model_estimates(request):
    got = {case_id: estimate_payload(_estimate(case_id)) for case_id in CASES}
    if request.config.getoption("--update-golden"):
        GOLDEN.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return
    want = json.loads(GOLDEN.read_text())
    assert sorted(got) == sorted(want)
    diverged = [case_id for case_id in CASES if got[case_id] != want[case_id]]
    assert not diverged, (
        f"{len(diverged)} estimates diverged from {GOLDEN.name}, first "
        f"{diverged[0]}: {got[diverged[0]]} != {want[diverged[0]]}"
    )


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_stationary_loop_matches_general_loop(case_id):
    assert _estimate(case_id) == _estimate(case_id, scenario=True)


def test_shared_queue_is_drained_once():
    platform = Platform.homogeneous(2, c=1.0, w=3.0, m=100)
    shape = ProblemShape(r=7, s=8, t=3, q=2)
    first, second = MixedGapQueue().agents(platform, shape)
    assert first.queue is second.queue and (first.gap, second.gap) == (1, 2)
    stationary = run_scheduler(MixedGapQueue(), platform, shape, engine="model")
    general = run_scheduler(
        MixedGapQueue(), platform, shape, engine="model",
        scenario=Scenario.stationary(platform),
    )
    assert stationary == general
    # Every block is updated once, by whichever agent drew its chunk.
    assert stationary.total_updates == shape.total_updates
    assert all(stationary.worker_updates)
