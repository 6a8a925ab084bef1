"""The scheduling algorithms compared in Section 8.

Algorithms using the paper's optimized memory layout (µ×µ C tile plus
streamed A/B generations):

* :class:`HoLM` — the paper's homogeneous algorithm with resource
  selection (``P = min(p, ceil(µw/2c))``), round-robin service.
* :class:`ORROML` — HoLM without resource selection (all workers).
* :class:`OMMOML` — static min-min chunk assignment (earliest finish).
* :class:`ODDOML` — demand-driven with the spare buffer generation.
* :class:`DDOML` — demand-driven without spare buffers (bigger µ, no
  receive/compute overlap).

Algorithms using Toledo's memory layout:

* :class:`BMM` — memory in three equal square tiles, demand-driven, no
  overlap.
* :class:`OBMM` — five-way split so A/B tiles stream while computing.

Heterogeneous execution:

* :class:`HeteroIncremental` — phase-2 execution of the Section 6.2
  incremental selection (global/local/lookahead variants).

Single-worker reference:

* :class:`MaxReuse` — the Section 4.1 maximum re-use algorithm.

Use :func:`repro.engine.run_scheduler` to simulate any of them, or the
convenience :func:`all_section8_schedulers` registry for the benchmark
harness.
"""

from repro.schedulers.base import StaticChunkScheduler, DemandChunkScheduler
from repro.schedulers.bmm import BMM, OBMM
from repro.schedulers.ddo import DDOML, ODDOML
from repro.schedulers.hetero import HeteroIncremental
from repro.schedulers.holm import HoLM, ORROML
from repro.schedulers.maxreuse import MaxReuse
from repro.schedulers.omm import OMMOML
from repro.workloads import SECTION8_ALGORITHMS

__all__ = [
    "BMM",
    "DDOML",
    "DemandChunkScheduler",
    "HeteroIncremental",
    "HoLM",
    "MaxReuse",
    "OBMM",
    "ODDOML",
    "OMMOML",
    "ORROML",
    "SECTION8_SCHEDULERS",
    "StaticChunkScheduler",
    "all_section8_schedulers",
    "section8_scheduler",
]

#: The seven Section 8 algorithms by acronym, in the order of
#: :data:`repro.workloads.SECTION8_ALGORITHMS` (a name without a class
#: fails here, at import).
_BY_NAME = {
    cls.name: cls for cls in (HoLM, ORROML, OMMOML, ODDOML, DDOML, BMM, OBMM)
}
SECTION8_SCHEDULERS = {name: _BY_NAME[name] for name in SECTION8_ALGORITHMS}


def all_section8_schedulers() -> list:
    """Fresh instances of the seven algorithms of Section 8, in the
    paper's order (optimized-layout group first, then Toledo group)."""
    return [cls() for cls in SECTION8_SCHEDULERS.values()]


def section8_scheduler(name: str):
    """Fresh instance of the Section 8 algorithm with acronym ``name``.

    Sweep points carry algorithms by name (names are JSON-able and hash
    stably); per-point functions rebuild the instance through this.
    """
    try:
        return SECTION8_SCHEDULERS[name]()
    except KeyError:
        known = ", ".join(SECTION8_SCHEDULERS)
        raise KeyError(f"unknown Section 8 algorithm {name!r} (known: {known})")
