"""The paper's core contribution.

* :mod:`repro.core.layout` — memory layouts: how a worker's ``m`` block
  buffers are split among A, B and C, including the *maximum re-use*
  layout (Section 4.1) and the variants used by the Section 8 algorithms.
* :mod:`repro.core.bounds` — communication-to-computation lower bounds:
  the refined Toledo bound and the Loomis–Whitney bound
  ``CCR_opt = sqrt(27/(8m))`` (Section 4.2).
* :mod:`repro.core.homogeneous` — resource selection for homogeneous
  platforms (Section 5): ``P = min(p, ceil(µw/2c))`` plus the
  small-matrix fallback.
* :mod:`repro.core.heterogeneous` — Section 6: bandwidth-centric
  steady-state LP, its memory-feasibility check, and the global / local /
  lookahead incremental selection algorithms.

Import the submodule you need: this package re-exports nothing, so a
caller of :mod:`repro.core.layout` does not pay for the LP code.
"""
