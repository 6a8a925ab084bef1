"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper:
it runs the corresponding :mod:`repro.experiments` module under
pytest-benchmark (so regressions in simulation speed are visible),
prints the same rows/series the paper reports, and asserts the paper's
qualitative claims on the output.

Every benchmark measures the computation itself: the harness never
reads or writes the sweep result cache, so a figure is always a
simulation's time, never a disk read's.

Two suite-wide knobs forward into every experiment entry point whose
signature accepts them:

* ``--engine {fast,des}`` — simulation backend (the event-free fast
  timeline engine vs the discrete-event reference kernel).  The CI
  bench-smoke job runs the suite under both and asserts the fast
  engine wins on the Figure 10 size sweep.
* ``--scale K`` — divide matrix dimensions by ``K`` where supported
  (smoke runs).  Paper-claim assertions that only hold at publication
  scale are guarded by :func:`at_paper_scale`.

The execution backend is not an experiment parameter: the benches run
each experiment's points inline.  Backend comparisons live in
``bench_runner.py`` and in ``python -m repro sweep --jobs N``.

Run with::

    pytest benchmarks/ --benchmark-only

Add ``-s`` to see the reproduced tables.
"""

from __future__ import annotations

import inspect

_engine: str | None = None
_scale: int | None = None


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        choices=("fast", "des", "model"),
        default=None,
        help="simulation backend forwarded to every experiment that "
        "accepts it (default: each experiment's own default, i.e. fast); "
        "'model' runs the analytic estimator (no trace, estimates only)",
    )
    parser.addoption(
        "--scale",
        type=int,
        default=None,
        metavar="K",
        help="divide matrix dimensions by K where supported; "
        "paper-claim assertions are skipped off paper scale",
    )


def pytest_configure(config):
    global _engine, _scale
    _engine = config.getoption("--engine")
    _scale = config.getoption("--scale")


def at_paper_scale() -> bool:
    """True unless ``--scale``/``--engine model`` override the benches'
    paper-scale runs.

    Quantitative claims of the paper (worker counts, spread bands,
    ranking margins) are asserted only when the suite runs the
    publication-size instances (no override, or an explicit
    ``--scale 1``) on a real simulator — the model engine's estimates
    live inside a validated error envelope, not on the claims' margins.
    """
    return _scale in (None, 1) and _engine != "model"


def one_shot(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with one warm-up round, then one measured round.

    The experiment simulations are deterministic; a single round gives
    a stable wall-clock figure without multiplying multi-second
    simulations.  The warm-up round makes the figure reflect
    steady-state sweep throughput — in-process memo caches primed,
    exactly as a real multi-point sweep runs — rather than interpreter
    cold-start.

    The suite-wide ``--engine`` / ``--scale`` overrides are injected
    into ``kwargs`` whenever ``fn``'s signature accepts the parameter.
    """
    try:
        accepted = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins / C callables
        accepted = {}
    if _engine is not None and "engine" in accepted:
        kwargs["engine"] = _engine
    if _scale is not None and "scale" in accepted:
        kwargs["scale"] = _scale
    return benchmark.pedantic(
        fn, args=args, kwargs=kwargs,
        rounds=1, iterations=1, warmup_rounds=1,
    )
