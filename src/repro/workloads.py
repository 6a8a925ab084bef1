"""Workload definitions for the Section 8 experiments.

The three matrix shapes of the first experiment set (Section 8.3), the
block-size variants of the second, and the memory sweep of the third.
All shapes are expressed in elements and converted to block grids via
:meth:`repro.blocks.ProblemShape.from_elements`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.blocks.shape import ProblemShape

__all__ = [
    "Workload",
    "FIG10_WORKLOADS",
    "FIG12_BLOCK_SIZES",
    "FIG13_MEMORY_MB",
    "FIG13_WORKLOAD",
    "SECTION8_ALGORITHMS",
    "fig10_workloads",
]


@dataclass(frozen=True)
class Workload:
    """A named matrix-product instance.

    Attributes:
        name: label used in tables ("A 8000x8000, B 8000x64000").
        n_a: rows of A (and C), elements.
        n_ab: inner dimension, elements.
        n_b: columns of B (and C), elements.
    """

    name: str
    n_a: int
    n_ab: int
    n_b: int

    def shape(self, q: int = 80) -> ProblemShape:
        """Block-grid shape for block size ``q``.

        Dimensions are rounded down to the nearest multiple of ``q``
        (identity for the paper's workloads, which are exact multiples;
        only scaled-down quick-run variants need the rounding).
        """
        dims = [max(q, (n // q) * q) for n in (self.n_a, self.n_ab, self.n_b)]
        return ProblemShape.from_elements(*dims, q=q)

    def scaled(self, factor: int) -> "Workload":
        """Shrink every dimension by ``factor`` (for fast CI runs)."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        return Workload(
            f"{self.name}/{factor}",
            self.n_a // factor,
            self.n_ab // factor,
            self.n_b // factor,
        )


#: The seven Section 8 algorithms by acronym, in the paper's order;
#: :data:`repro.schedulers.SECTION8_SCHEDULERS` maps them to classes.
SECTION8_ALGORITHMS: tuple[str, ...] = (
    "HoLM", "ORROML", "OMMOML", "ODDOML", "DDOML", "BMM", "OBMM",
)

#: The three matrix sizes of the first experiment set (Figure 10).
FIG10_WORKLOADS: tuple[Workload, ...] = (
    Workload("A 8000x8000,  B 8000x64000", 8000, 8000, 64000),
    Workload("A 16000x16000, B 16000x128000", 16000, 16000, 128000),
    Workload("A 8000x64000, B 64000x64000", 8000, 64000, 64000),
)

#: Block sizes compared in the second experiment set (Figure 12).
FIG12_BLOCK_SIZES: tuple[int, ...] = (40, 80)

#: Worker memory sweep of the third experiment set (Figure 13), in MB.
FIG13_MEMORY_MB: tuple[float, ...] = (132.0, 198.0, 264.0, 330.0, 396.0, 462.0, 512.0)

#: The matrix pair used for the memory sweep.
FIG13_WORKLOAD = Workload("A 16000x16000, B 16000x64000", 16000, 16000, 64000)


def fig10_workloads(scale: int = 1) -> list[Workload]:
    """The Figure 10 workloads, optionally shrunk by ``scale``."""
    return [w.scaled(scale) if scale > 1 else w for w in FIG10_WORKLOADS]
