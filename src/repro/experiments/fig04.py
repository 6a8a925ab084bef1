"""Figure 4 — neither Thrifty nor Min-min is optimal.

Runs both greedy algorithms (plus the alternating-greedy single-worker
reference and, when tractable, the brute-force optimum) on the paper's
two counterexample instances:

* (a) ``p=2, c=4, w=7, r=s=3`` — Min-min wins;
* (b) ``p=2, c=8, w=9, r=6, s=3`` — Thrifty wins.

One sweep point = one counterexample instance.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.runner import Campaign, Sweep, run_sweep, stamp_points

__all__ = ["INSTANCE_A", "INSTANCE_B", "run", "main", "sweep", "campaign"]

#: Figure 4(a): Min-min beats Thrifty (``SimpleInstance`` parameters).
INSTANCE_A = {"r": 3, "s": 3, "p": 2, "c": 4.0, "w": 7.0}
#: Figure 4(b): Thrifty beats Min-min.
INSTANCE_B = {"r": 6, "s": 3, "p": 2, "c": 8.0, "w": 9.0}


def _point(params: Mapping) -> dict:
    """Evaluate both heuristics (and maybe brute force) on one instance."""
    from repro.simple.bruteforce import brute_force_best
    from repro.simple.minmin import min_min
    from repro.simple.model import SimpleInstance
    from repro.simple.thrifty import thrifty

    inst = SimpleInstance(
        r=params["r"], s=params["s"], p=params["p"], c=params["c"], w=params["w"]
    )
    t = thrifty(inst)
    m = min_min(inst)
    row = {
        "instance": params["instance"],
        "r": inst.r,
        "s": inst.s,
        "c": inst.c,
        "w": inst.w,
        "thrifty": t.makespan,
        "min_min": m.makespan,
        "winner": "Min-min" if m.makespan < t.makespan else "Thrifty",
    }
    if params["brute_force"] and inst.tasks <= 9:
        # Instance (b) (18 tasks, duplicable files) is beyond
        # exhaustive search; only (a) gets a certified optimum.
        row["optimal"] = brute_force_best(inst).makespan
    return row


def sweep(brute_force: bool = True, engine: str = "fast") -> Sweep:
    """Declare one point per counterexample instance.

    ``engine`` is stamped for interface uniformity with the simulation
    sweeps; the greedy/brute-force evaluations here do not use the
    chunk engine, so the knob is inert.
    """
    points = tuple(
        {"instance": label, **inst, "brute_force": brute_force}
        for label, inst in (("Fig4(a)", INSTANCE_A), ("Fig4(b)", INSTANCE_B))
    )
    return Sweep(
        name="fig04",
        run_fn=_point,
        points=stamp_points(points, engine=engine),
        title="Figure 4: Thrifty vs Min-min (makespans)",
    )


def campaign(engine: str = "fast") -> Campaign:
    """The Figure 4 campaign (a single two-point sweep)."""
    return Campaign("fig04", (sweep(engine=engine),))


def run(brute_force: bool = True, engine: str = "fast") -> list[dict]:
    """Evaluate both heuristics on both instances.

    ``brute_force`` additionally reports the exhaustive optimum (slow
    for (b); disable for quick runs).
    """
    return run_sweep(sweep(brute_force=brute_force, engine=engine)).rows


def main() -> None:
    """Print the Figure 4 comparison."""
    print(format_table(run(), title="Figure 4: Thrifty vs Min-min (makespans)"))
    print(
        "\nPaper's claim: Min-min wins (a), Thrifty wins (b); "
        "neither greedy is optimal."
    )


if __name__ == "__main__":
    main()
