"""Inline execution — the zero-overhead reference backend.

Runs every point in the calling process, in order.  Closures and
monkeypatched functions work (nothing is pickled), there is no pool to
spin up, and the original exception object is preserved so ``on_error=
"raise"`` can chain it.  This is the default for ``jobs <= 1`` and the
oracle the pooled backends are tested byte-identical against.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.runner.backends.base import PointFn, TaskResult, run_one

__all__ = ["SerialBackend"]


class SerialBackend:
    """Evaluate points inline in the calling process.

    ``timeout`` is accepted but **not enforced**: only pool workers,
    which own their ``SIGALRM`` (:mod:`repro.runner.backends.process`),
    arm a per-point timer, so the caller's own alarms stay untouched.
    Pick the process backend when timeout enforcement matters (see
    ``docs/runner.md``).
    """

    name = "serial"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = 1  # by definition

    def map(
        self,
        fn: PointFn,
        items: Sequence[Mapping[str, Any]],
        *,
        timeout: Optional[float] = None,
        attempt: int = 0,
    ) -> Iterator[TaskResult]:
        for params in items:
            yield run_one(fn, params)

    def close(self) -> None:  # nothing held
        pass

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
