"""Communication-to-computation ratio (CCR) bounds — Section 4.

Everything is counted in *blocks*: a communication is moving one q×q
block to or from the master; a computation is one block update
``C_ij += A_ik · B_kj``.

Results reproduced here:

* the **maximum re-use algorithm** achieves
  ``CCR(m, t) = 2/t + 2/µ`` with ``µ = max_reuse_mu(m)``, hence
  asymptotically ``CCR∞ = 2/sqrt(m)`` (Section 4.2);
* the **refined Toledo bound**: any standard algorithm has
  ``CCR ≥ sqrt(27/(32 m))`` (via the Hong–Kung-style lemma of [38]);
* the **Loomis–Whitney bound** (the paper's headline result):
  ``CCR ≥ sqrt(27/(8 m))``, obtained by replacing the lemma with the
  inequality ``K ≤ sqrt(N_A · N_B · N_C)`` of Irony–Toledo–Tiskin [27];
* both improve on the best previously published ``sqrt(1/(8m))`` of [27];
* the gap: ``CCR∞ / CCR_opt = sqrt(32/27) ≈ 1.088``.

The underlying maximisation (find the best constant ``k``) is exposed in
:func:`solve_k_bound` both in closed form and via ``scipy.optimize`` so
the tests can cross-check the paper's algebra.
"""

from __future__ import annotations

import math
from typing import Literal

from repro.core.layout import max_reuse_mu

__all__ = [
    "hong_kung_bound",
    "loomis_whitney_bound",
    "ccr_max_reuse",
    "ccr_max_reuse_asymptotic",
    "ccr_lower_bound_toledo_refined",
    "ccr_lower_bound_loomis_whitney",
    "ccr_lower_bound_irony_toledo_tiskin",
    "solve_k_bound",
]


def hong_kung_bound(n_a: float, n_b: float, n_c: float) -> float:
    """Max block updates doable touching ``n_a``/``n_b``/``n_c`` blocks.

    The lemma quoted from Toledo [38]: for any standard (non-Strassen)
    algorithm accessing ``N_A`` elements of A, ``N_B`` of B and ``N_C``
    of C, at most
    ``K = min{(N_A+N_B)·sqrt(N_C), (N_A+N_C)·sqrt(N_B), (N_B+N_C)·sqrt(N_A)}``
    elementary multiply-accumulates are possible.  Stated here directly in
    block units (the q³ factors cancel in the CCR).
    """
    if min(n_a, n_b, n_c) < 0:
        raise ValueError("block counts must be non-negative")
    return min(
        (n_a + n_b) * math.sqrt(n_c),
        (n_a + n_c) * math.sqrt(n_b),
        (n_b + n_c) * math.sqrt(n_a),
    )


def loomis_whitney_bound(n_a: float, n_b: float, n_c: float) -> float:
    """Loomis–Whitney bound ``K = sqrt(N_A · N_B · N_C)`` (block units).

    From Irony, Toledo and Tiskin [27]: the number of useful
    multiply-accumulates is at most the square root of the product of the
    accessed-element counts.  Tighter than :func:`hong_kung_bound` for
    balanced access patterns.
    """
    if min(n_a, n_b, n_c) < 0:
        raise ValueError("block counts must be non-negative")
    return math.sqrt(n_a * n_b * n_c)


def ccr_max_reuse(m: int, t: int) -> float:
    """CCR of the maximum re-use algorithm: ``2/t + 2/µ``.

    One outer iteration moves ``2µ²`` C blocks (in and out) plus
    ``2µ·t`` A and B blocks, and performs ``µ²·t`` updates.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    mu = max_reuse_mu(m)
    return 2.0 / t + 2.0 / mu


def ccr_max_reuse_asymptotic(m: int) -> float:
    """Asymptotic (t → ∞) CCR of maximum re-use.

    The paper states ``CCR∞ = 2/sqrt(m)`` (folding ``µ ≈ sqrt(m)``);
    we report the exact ``2/µ`` with the integer µ, which converges to
    ``2/sqrt(m)`` and equals the paper's ``sqrt(32/(8m))`` rewriting.
    """
    return 2.0 / max_reuse_mu(m)


def ccr_lower_bound_toledo_refined(m: int) -> float:
    """The paper's refinement of Toledo's analysis: ``sqrt(27/(32 m))``."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.sqrt(27.0 / (32.0 * m))


def ccr_lower_bound_loomis_whitney(m: int) -> float:
    """The paper's headline lower bound: ``CCR_opt = sqrt(27/(8 m))``.

    Any standard matrix-product algorithm on a worker with ``m`` block
    buffers communicates at least ``sqrt(27/(8m))`` blocks per block
    update, asymptotically.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.sqrt(27.0 / (8.0 * m))


def ccr_lower_bound_irony_toledo_tiskin(m: int) -> float:
    """The best previously known bound, ``sqrt(1/(8m))``, from [27].

    Kept for the comparison the paper makes: its new bound improves this
    by a factor ``sqrt(27) ≈ 5.2``.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.sqrt(1.0 / (8.0 * m))


def solve_k_bound(
    lemma: Literal["hong-kung", "loomis-whitney"] = "loomis-whitney",
    method: Literal["closed-form", "numeric"] = "closed-form",
) -> tuple[float, tuple[float, float, float]]:
    """Solve the Section 4.2 maximisation for the constant ``k``.

    During ``m`` consecutive communication steps, write the accessed
    block fractions as ``α·m``, ``β·m``, ``γ·m`` with the constraint
    ``α + β + γ ≤ 2`` (old content plus received/sent blocks).  The
    number of updates is ``K = k·m·sqrt(m)·q³`` where

    * Hong–Kung lemma:  ``k = min((α+β)√γ, (β+γ)√α, (γ+α)√β)``,
      maximised at ``α = β = γ = 2/3`` giving ``k = sqrt(32/27)``;
    * Loomis–Whitney:  ``K = sqrt(N_A N_B N_C)`` gives ``k = sqrt(αβγ)``,
      maximised at ``α = β = γ = 2/3`` giving ``k = sqrt(8/27)``.

    Returns ``(k, (α, β, γ))`` at the optimum.  ``method="numeric"``
    solves the program with scipy instead of quoting the closed form,
    which the test-suite uses to validate the algebra.
    """
    if lemma not in ("hong-kung", "loomis-whitney"):
        raise ValueError(f"unknown lemma {lemma!r}")
    if method == "closed-form":
        point = (2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)
        if lemma == "hong-kung":
            return math.sqrt(32.0 / 27.0), point
        return math.sqrt(8.0 / 27.0), point
    if method != "numeric":
        raise ValueError(f"unknown method {method!r}")
    import numpy as np
    from scipy.optimize import minimize

    def negative_k(x: np.ndarray) -> float:
        a, b, g = np.maximum(x, 1e-12)
        if lemma == "hong-kung":
            val = min(
                (a + b) * math.sqrt(g), (b + g) * math.sqrt(a), (g + a) * math.sqrt(b)
            )
        else:
            val = math.sqrt(a * b * g)
        return -val

    best_val, best_x = -math.inf, None
    # The objective is concave-ish on the simplex slice; multi-start for safety.
    for start in ([0.6, 0.7, 0.7], [0.5, 0.5, 1.0], [0.9, 0.6, 0.5], [2 / 3] * 3):
        res = minimize(
            negative_k,
            np.asarray(start),
            method="SLSQP",
            bounds=[(1e-9, 2.0)] * 3,
            constraints=[{"type": "ineq", "fun": lambda x: 2.0 - float(np.sum(x))}],
        )
        if res.success and -res.fun > best_val:
            best_val, best_x = -res.fun, res.x
    if best_x is None:  # pragma: no cover - scipy failure
        raise RuntimeError("numeric k-bound optimisation failed")
    return best_val, (float(best_x[0]), float(best_x[1]), float(best_x[2]))
