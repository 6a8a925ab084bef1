"""Resource selection on homogeneous platforms — Section 5.

With the overlap layout (``µ² + 4µ ≤ m``), one *round* on a worker
consists of exchanging ``2µ²`` C blocks with the master, receiving
``µ·t`` A blocks and ``µ·t`` B blocks, and computing ``µ²·t`` updates.
Neglecting the C traffic (the paper's "Impact of the start-up overhead"
argument bounds the loss), a worker consumes master-port time at rate
``2µc`` per ``µ²w`` of its own compute; the master port saturates at

    ``P = ceil(µ²·t·w / (2µ·t·c)) = ceil(µw / 2c)``

workers, hence the enrolment rule ``P = min(p, ceil(µw/2c))``.

For "small" matrices (fewer than ``P·µ²`` C blocks) the paper shrinks
the chunk to ``ν ≤ µ``: the largest ν such that ``ceil(νw/2c)·ν² ≤ r·s``,
enrolling ``Q = ceil(νw/2c)`` workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.blocks.shape import ProblemShape
from repro.core.layout import mu_overlap
from repro.platform.model import Platform

__all__ = [
    "optimal_worker_count",
    "small_matrix_nu",
    "HomogeneousPlan",
    "plan_homogeneous",
    "startup_overhead_fraction",
]


def optimal_worker_count(mu: int, c: float, w: float, p: int) -> int:
    """The paper's enrolment rule ``P = min(p, ceil(µw / 2c))``.

    This is the smallest worker count saturating the master's port:
    fewer workers leave the port idle, more workers starve.
    """
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    if c <= 0 or w <= 0:
        raise ValueError("c and w must be positive")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return min(p, math.ceil(mu * w / (2.0 * c)))


def small_matrix_nu(r: int, s: int, c: float, w: float, mu: int, p: int) -> tuple[int, int]:
    """Chunk size and worker count for small matrices.

    Returns ``(ν, Q)``: the largest ``ν ≤ µ`` with
    ``ceil(νw/2c) · ν² ≤ r·s`` and ``Q = min(p, ceil(νw/2c))``.  Falls
    back to ``ν = 1`` when even a single column tile is too big (the
    degenerate case of a tiny C).
    """
    if r < 1 or s < 1:
        raise ValueError("r and s must be >= 1")
    best = 1
    for nu in range(1, mu + 1):
        workers = math.ceil(nu * w / (2.0 * c))
        if workers * nu * nu <= r * s:
            best = nu
    q_workers = min(p, math.ceil(best * w / (2.0 * c)))
    return best, max(1, q_workers)


@dataclass(frozen=True)
class HomogeneousPlan:
    """Outcome of homogeneous resource selection.

    Attributes:
        mu: chunk side actually used (µ, or the shrunken ν).
        workers: number of enrolled workers (P, or Q for small matrices).
        small_matrix: True when the ν fallback was taken.
        saturated: True when the selection is limited by the platform
            size ``p`` rather than by the port-saturation rule.
    """

    mu: int
    workers: int
    small_matrix: bool
    saturated: bool


def plan_homogeneous(platform: Platform, shape: ProblemShape) -> HomogeneousPlan:
    """Run the full Section 5 selection for ``shape`` on ``platform``.

    Defined for homogeneous platforms; on a *nearly* homogeneous one
    (e.g. the jittered platforms of the Figure 11 study) the plan is
    computed conservatively from the slowest link, slowest CPU and
    smallest memory, which keeps the schedule feasible on every worker.
    """
    c = max(wk.c for wk in platform.workers)
    w = max(wk.w for wk in platform.workers)
    m = min(wk.m for wk in platform.workers)
    mu = mu_overlap(m)
    p_opt = math.ceil(mu * w / (2.0 * c))
    enrolled = min(platform.p, p_opt)
    if enrolled * mu * mu <= shape.r * shape.s:
        return HomogeneousPlan(
            mu=mu,
            workers=enrolled,
            small_matrix=False,
            saturated=p_opt > platform.p,
        )
    nu, q_workers = small_matrix_nu(shape.r, shape.s, c, w, mu, platform.p)
    return HomogeneousPlan(
        mu=nu, workers=q_workers, small_matrix=True, saturated=False
    )


def startup_overhead_fraction(mu: int, t: int, c: float, w: float) -> float:
    """Upper bound on the time lost to unoverlapped C traffic.

    Section 5 ("Impact of the start-up overhead"): each worker loses
    ``2c`` per C block, i.e. per ``t·w`` time units, and with
    ``P ≤ µw/2c + 1`` workers the total loss fraction is below
    ``µ/t + 2c/(t·w)``.  The paper's example (c=2, w=4.5, µ=4, t=100)
    gives ≈ 4 %.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return mu / t + 2.0 * c / (t * w)
