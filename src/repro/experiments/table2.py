"""Table 2, Figures 7 and 8 — the incremental selection algorithms.

On the three-worker platform ``c = (2,3,5), w = (2,3,1), µ = (6,18,10)``
the paper derives:

* global selection (Algorithm 3): the first selections are P2 then
  alternating P1/P3, a 13-communication cyclic pattern; asymptotic
  computation-per-communication ratio ≈ 1.17 (Figure 7);
* local selection: same first 13 decisions, diverges at the 14th;
  ratio ≈ 1.21 (Figure 8);
* two-step lookahead: ratio ≈ 1.30;
* steady-state upper bound (no memory limits): 25/18 ≈ 1.39.

``run()`` reproduces all four numbers; ``main()`` also renders the two
Gantt charts.  One sweep point = one selection variant.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.tables import format_table
from repro.platform.named import table2_platform
from repro.runner import Campaign, Sweep, run_sweep, stamp_points

__all__ = ["run", "main", "sweep", "campaign"]

#: Large horizon used to estimate asymptotic ratios.
_R, _S, _T = 10**6, 10**7, 10**6


def _point(params: Mapping) -> dict:
    """Asymptotic ratio of one selection variant on the Table 2 platform."""
    from repro.core.heterogeneous import (
        bandwidth_centric_steady_state,
        global_selection,
        local_selection,
        lookahead_selection,
    )

    platform = table2_platform()
    variant = params["variant"]
    r, s, t = params["r"], params["s"], params["t"]
    if variant == "steady":
        steady = bandwidth_centric_steady_state(platform)
        return {
            "algorithm": "steady-state bound",
            "ratio": steady.throughput,
            "paper": 1.39,
            "first_selections": "-",
        }
    if variant == "global":
        g = global_selection(platform, r, s, t, max_steps=params["steps"])
        return {
            "algorithm": "global (Algorithm 3)",
            "ratio": g.ratio,
            "paper": 1.17,
            "first_selections": "".join(map(str, g.sequence[:14])),
        }
    if variant == "local":
        l = local_selection(platform, r, s, t, max_steps=params["steps"])
        return {
            "algorithm": "local",
            "ratio": l.ratio,
            "paper": 1.21,
            "first_selections": "".join(map(str, l.sequence[:14])),
        }
    depth = params["depth"]
    la = lookahead_selection(
        platform, r, s, t, depth=depth, max_steps=params["steps"]
    )
    return {
        "algorithm": f"lookahead depth={depth}",
        "ratio": la.ratio,
        "paper": 1.30 if depth == 2 else float("nan"),
        "first_selections": "".join(map(str, la.sequence[:14])),
    }


def sweep(
    steps: int = 2000, lookahead_depths: tuple[int, ...] = (2, 3),
    engine: str = "fast",
) -> Sweep:
    """Declare one point per selection variant, in the paper's order.

    ``engine`` is stamped for interface uniformity; the selection
    algorithms do not use the chunk engine, so the knob is inert.
    """
    base = {"r": _R, "s": _S, "t": _T, "steps": steps}
    points: list[dict] = [{"variant": "steady", **base}]
    points.append({"variant": "global", **base})
    points.append({"variant": "local", **base})
    for depth in lookahead_depths:
        points.append({"variant": "lookahead", "depth": depth, **base})
    return Sweep(
        name="table2",
        run_fn=_point,
        points=stamp_points(tuple(points), engine=engine),
        title="Table 2 platform: computation-per-communication ratios",
    )


def campaign(engine: str = "fast") -> Campaign:
    """The Table 2 campaign (a single sweep)."""
    return Campaign("table2", (sweep(engine=engine),))


def run(
    steps: int = 2000, lookahead_depths: tuple[int, ...] = (2, 3),
    engine: str = "fast",
) -> list[dict]:
    """Measure asymptotic ratios of every selection variant."""
    return run_sweep(
        sweep(steps=steps, lookahead_depths=lookahead_depths, engine=engine)
    ).rows


def main() -> None:
    """Print the ratio table and the Figure 7/8 Gantt charts."""
    from repro.analysis.gantt import gantt_selection
    from repro.core.heterogeneous import global_selection, local_selection

    print(
        format_table(
            run(),
            title="Table 2 platform: computation-per-communication ratios",
        )
    )
    platform = table2_platform()
    g = global_selection(platform, _R, _S, _T, max_steps=40)
    l = local_selection(platform, _R, _S, _T, max_steps=40)
    horizon = min(g.completion_time, l.completion_time)
    print("\nFigure 7 (global selection):")
    print(gantt_selection(g, workers=3, width=100, max_time=horizon))
    print("\nFigure 8 (local selection):")
    print(gantt_selection(l, workers=3, width=100, max_time=horizon))


if __name__ == "__main__":
    main()
