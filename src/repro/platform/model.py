"""Dataclasses describing star platforms.

The linear cost model of the paper: sending a message of ``X`` blocks to
worker ``Pi`` costs ``X * c_i`` seconds of master-port time; executing
``X`` block updates on ``Pi`` costs ``X * w_i`` seconds of its CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Worker", "Platform", "perturbed", "scaled_bandwidth"]


@dataclass(frozen=True)
class Worker:
    """One worker ``Pi`` of the star platform.

    Attributes:
        index: 1-based worker index (``P0`` is the master).
        c: seconds to transfer one q×q block between master and this
            worker, in either direction (one-port model).
        w: seconds for one block update (q×q×q multiply-accumulate).
        m: memory capacity, in q×q block buffers.
        name: optional human-readable label.
    """

    index: int
    c: float
    w: float
    m: int
    name: str = ""

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"worker index must be >= 1, got {self.index}")
        # Written so NaN fails too: a NaN rate would poison the engines'
        # heap comparisons and every makespan without an error.
        if not (0 < self.c < math.inf and 0 < self.w < math.inf):
            raise ValueError(
                f"c and w must be positive finite (c={self.c}, w={self.w})"
            )
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise TypeError(f"m must be an int, got {type(self.m).__name__}")
        if self.m < 1:
            raise ValueError(f"memory must be >= 1 block, got {self.m}")

    @property
    def label(self) -> str:
        """Display label (``name`` if given, otherwise ``P<i>``)."""
        return self.name or f"P{self.index}"


@dataclass(frozen=True)
class Platform:
    """A star platform: master ``P0`` plus a tuple of workers.

    The master holds all matrix data, performs no computation (Section
    2.2: "Without loss of generality, we assume that the master has no
    processing capability"), and owns a single network port under the
    one-port model.
    """

    workers: tuple[Worker, ...]
    name: str = "platform"

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("a platform needs at least one worker")
        indices = [wk.index for wk in self.workers]
        if indices != list(range(1, len(indices) + 1)):
            raise ValueError(f"worker indices must be 1..p contiguous, got {indices}")

    # -- construction helpers ---------------------------------------------
    @staticmethod
    def homogeneous(p: int, c: float, w: float, m: int, name: str = "") -> "Platform":
        """Build a fully homogeneous platform of ``p`` identical workers."""
        workers = tuple(Worker(i, c, w, m) for i in range(1, p + 1))
        return Platform(workers, name or f"homogeneous(p={p},c={c},w={w},m={m})")

    @staticmethod
    def heterogeneous(
        c: Sequence[float], w: Sequence[float], m: Sequence[int], name: str = ""
    ) -> "Platform":
        """Build a heterogeneous platform from parallel parameter lists.

        The three lists must have equal lengths; a mismatch raises
        ``ValueError`` (never silently zip-truncates workers away).
        """
        if not (len(c) == len(w) == len(m)):
            raise ValueError(
                f"c, w, m must have equal lengths, got "
                f"len(c)={len(c)}, len(w)={len(w)}, len(m)={len(m)}"
            )
        workers = tuple(
            Worker(i + 1, ci, wi, mi) for i, (ci, wi, mi) in enumerate(zip(c, w, m))
        )
        return Platform(workers, name or f"heterogeneous(p={len(workers)})")

    # -- queries -------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of workers."""
        return len(self.workers)

    @property
    def is_homogeneous(self) -> bool:
        """True when every worker has identical ``(c, w, m)``."""
        first = self.workers[0]
        return all(
            wk.c == first.c and wk.w == first.w and wk.m == first.m
            for wk in self.workers
        )

    def worker(self, index: int) -> Worker:
        """Return worker ``P<index>`` (1-based)."""
        if not 1 <= index <= self.p:
            raise IndexError(f"worker index {index} out of range 1..{self.p}")
        return self.workers[index - 1]

    def __iter__(self) -> Iterator[Worker]:
        return iter(self.workers)

    def __len__(self) -> int:
        return self.p

    def subset(self, indices: Iterable[int], name: str = "") -> "Platform":
        """Platform restricted to the given 1-based worker indices.

        Workers are re-indexed 1..k in the order given.  Used by resource
        selection: enrolling workers means simulating on a subset.
        """
        chosen = [self.worker(i) for i in indices]
        if not chosen:
            raise ValueError("subset needs at least one worker")
        workers = tuple(
            replace(wk, index=j + 1, name=wk.name or f"P{wk.index}")
            for j, wk in enumerate(chosen)
        )
        return Platform(workers, name or f"{self.name}[subset]")

    def describe(self) -> str:
        """Multi-line human-readable description (one row per worker)."""
        lines = [f"Platform {self.name!r} with p={self.p} workers:"]
        for wk in self.workers:
            lines.append(
                f"  {wk.label}: c={wk.c:g} s/block, w={wk.w:g} s/update, m={wk.m} blocks"
            )
        return "\n".join(lines)


def perturbed(
    platform: Platform,
    rng: np.random.Generator,
    sigma: float = 0.03,
) -> Platform:
    """Return a jittered copy of ``platform`` for run-to-run variation studies.

    Each worker's ``c`` and ``w`` are multiplied by independent lognormal
    factors ``exp(N(0, sigma))``.  With the paper's observation of ~6 %
    spread between extreme runs (Figure 11), ``sigma ≈ 0.02`` reproduces a
    comparable band.  Memory capacities are left untouched (they are
    deterministic hardware facts).
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    import numpy as np

    workers = tuple(
        replace(
            wk,
            c=wk.c * float(np.exp(rng.normal(0.0, sigma))),
            w=wk.w * float(np.exp(rng.normal(0.0, sigma))),
        )
        for wk in platform.workers
    )
    return Platform(workers, f"{platform.name}~jitter")


def scaled_bandwidth(platform: Platform, factor: float) -> Platform:
    """Return a copy of ``platform`` with every link ``c`` scaled.

    ``factor > 1`` means *slower* links (``c`` is seconds per block).
    Scaling every worker uniformly preserves the relative bandwidth
    ranking, so scheduler decisions are usually unchanged for nearby
    factors.
    """
    if not 0 < factor < math.inf:
        raise ValueError(f"bandwidth factor must be positive finite, got {factor}")
    if factor == 1.0:
        return platform
    workers = tuple(replace(wk, c=wk.c * factor) for wk in platform.workers)
    return Platform(workers, f"{platform.name}~c×{factor:g}")
