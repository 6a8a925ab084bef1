"""The simplified scheduling model of Section 3.

Simplifications relative to the full problem: fully homogeneous platform
(cost ``c`` per file, ``w`` per task, ``p`` workers), rank-one updates
(``t = 1``), results not returned, and unlimited worker memory.  A *file*
is either an A-stripe ``A_i`` (1 ≤ i ≤ r) or a B-stripe ``B_j``
(1 ≤ j ≤ s); *task* ``(i, j)`` needs both on the same worker.

The section's point is that even this stripped-down problem is
combinatorially hard:

* with a single worker, the **alternating greedy** algorithm is optimal
  (Proposition 1) — :mod:`repro.simple.alternating`;
* with two or more workers, the natural greedy algorithms **Thrifty**
  and **Min-min** are *both* suboptimal, each beating the other on one
  of the Figure 4 instances — :mod:`repro.simple.thrifty`,
  :mod:`repro.simple.minmin`;
* a branch-and-bound :mod:`repro.simple.bruteforce` searches all useful
  send orders on tiny instances, for ground truth in tests.
"""

import importlib

from repro.simple.alternating import alternating_greedy, alternating_sequence
from repro.simple.bruteforce import brute_force_best
from repro.simple.minmin import min_min
from repro.simple.model import (
    Send,
    SimpleInstance,
    SimpleResult,
    evaluate_schedule,
    greedy_task_count,
)
from repro.simple.thrifty import thrifty

__all__ = [
    "Send",
    "SimpleInstance",
    "SimpleResult",
    "alternating_greedy",
    "alternating_sequence",
    "brute_force_best",
    "evaluate_schedule",
    "greedy_task_count",
    "min_min",
    "simulate_schedule_des",
    "thrifty",
]


def __getattr__(name: str):  # the DES cross-check loads repro.sim on first use
    if name == "simulate_schedule_des":
        return importlib.import_module("repro.simple.dessim").simulate_schedule_des
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
