"""Block-partitioned matrices (Section 2.1 of the paper).

The atomic data unit throughout the paper is a square q×q *block* of
matrix elements (q chosen to make Level-3 BLAS efficient; 80 or 100).
For the product ``C ← C + A·B``:

* ``A`` is ``r`` stripes × ``t`` blocks  (size ``n_A × n_AB`` elements),
* ``B`` is ``t`` blocks × ``s`` stripes  (size ``n_AB × n_B``),
* ``C`` is ``r × s`` blocks.

This subpackage provides:

* :class:`~repro.blocks.shape.ProblemShape` — the pure-size view
  ``(r, s, t, q)`` used by schedulers and cost analysis,
* :class:`~repro.blocks.matrix.BlockMatrix` — a numpy-backed matrix with
  block get/set accessors, used by the execution engine to verify that a
  schedule really computes ``C + A·B``,
* verification helpers in :mod:`repro.blocks.verify`.
"""

import importlib

from repro.blocks.shape import ProblemShape

__all__ = [
    "BlockMatrix",
    "ProblemShape",
    "make_product_instance",
    "max_block_error",
    "verify_product",
]

def __getattr__(name: str):  # numpy-backed names load on first use
    module = {"BlockMatrix": "matrix", "make_product_instance": "verify",
              "max_block_error": "verify", "verify_product": "verify"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
