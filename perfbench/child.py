"""One measured process of the benchmark; :mod:`perfbench.run` starts it.

Usage::

    python -m perfbench.child '<spec as JSON>'

The spec's ``kind`` picks what the process does:

``warmup``
    import everything the workloads use (compiling ``.pyc`` files and
    warming the page cache) and report the program's code version.
``paper``
    run the CLI (``python -m repro <argv>``) in this process.  Its
    tables go to this process's standard output.
``capacity``
    build the seeded grid, run one untimed round of the three stages,
    then timed rounds until ``seconds`` have passed (or exactly
    ``rounds`` rounds).

``stop_at_setup`` ends the process as soon as the inputs are built, so a
set-up time can be sampled without the work.  Untraced ``paper`` and
``capacity`` processes also record progress marks, ``(monotonic,
process_time)`` pairs: in ``paper`` after every sweep start and cache
write, in ``capacity`` after each stage of a round.  The same work
produces the same marks in every process, so :mod:`perfbench.run` can
compare the stretches between them across repetitions.  ``trace`` wraps the program
(see :mod:`perfbench.layers`) and writes the spans to ``spans``.  The
result, with timestamps on the system-wide monotonic clock, goes to
``result`` as JSON.
"""

import time

T_START = time.monotonic()
PC_START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from perfbench.layers import install, patch_function, patch_method  # noqa: E402


class SetupDone(BaseException):
    """Raised at the first point resolution when only set-up is sampled."""


def _mark():
    return [time.monotonic(), time.process_time()]


def _mark_setup(state, stop, marks):
    """Record when the first sweep starts (all inputs built by then), and
    a progress mark at every sweep start."""

    def make(fn):
        def first_call(*args, **kwargs):
            if state["t_setup"] is None:
                state["t_setup"] = time.monotonic()
                if stop:
                    raise SetupDone()
            marks.append(_mark())
            return fn(*args, **kwargs)

        return first_call

    return make


def _mark_after(marks):
    def make(fn):
        def marked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(_mark())

        return marked

    return make


def _corrupt_first_row(fn):
    """Alter one cell of the first table: a stand-in for a wrong result."""
    done = []

    def corrupted(rows, *args, **kwargs):
        if rows and not done:
            done.append(True)
            first = dict(rows[0])
            key = list(first)[-1]
            first[key] = f"{first[key]}~corrupted"
            rows = [first, *rows[1:]]
        return fn(rows, *args, **kwargs)

    return corrupted


def run_paper(spec, tracer, result):
    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("import"):
        import repro.__main__ as cli
        import repro.analysis.tables
        import repro.runner
        import repro.runner.sweep
    if tracer:
        with span("bench.harness"):
            install(tracer)
    marks = result["marks"] = []
    mark = _mark_setup(result, spec.get("stop_at_setup", False), marks)
    for attr in ("run_campaign", "run_sweep"):
        patch_function(repro.runner.sweep, attr, mark)
    if not tracer:
        cache = getattr(repro.runner, "ResultCache", None)
        for attr in ("put", "put_many"):
            if cache is not None:
                patch_method(cache, attr, _mark_after(marks))
    if spec.get("corrupt_row"):
        patch_function(repro.analysis.tables, "format_table", _corrupt_first_row)
    try:
        result["rc"] = cli.main(list(spec["argv"]))
    except SetupDone:
        result["rc"] = 0
    sys.stdout.flush()


def run_capacity(spec, tracer, result):
    from perfbench import capacity

    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("import"):
        import numpy  # noqa: F401
        import repro.engine
        import repro.platform
        import repro.schedulers
        import repro.workloads  # noqa: F401
    if tracer:
        with span("bench.harness"):
            install(tracer)
    seed, scale = spec["seed"], spec.get("scale", 1)
    with span("capacity.grid_build"):
        configs, items = capacity.build_grid(seed, scale)
    result["t_setup"] = time.monotonic()
    result["rc"] = 0
    if spec.get("stop_at_setup"):
        return

    corrupt = [bool(spec.get("corrupt_row"))]

    def one_round(marks):
        counters = {}
        marks.append(_mark())
        estimates = capacity.estimate(items, counters)
        marks.append(_mark())
        with span("capacity.shortlist"):
            rows, picks = capacity.shortlist(configs, estimates, scale)
        marks.append(_mark())
        verified = capacity.verify(configs, items, picks, scale)
        marks.append(_mark())
        return rows, verified, counters

    def check(rows, verified, counters):
        if corrupt[0]:
            corrupt[0] = False
            rows[0] = dict(rows[0], makespan_s=rows[0]["makespan_s"] + 1.0)
        return {
            "points": len(rows) + len(verified),
            "estimate": capacity.digest(rows),
            "shortlist": capacity.digest(verified),
            "shortlisted": len(verified),
            "vectorized": counters.get("vectorized", 0),
            "scalar": counters.get("scalar", 0),
            "items": len(rows),
        }

    warm = one_round([])  # untimed: lazy set-up and memo caches fill here
    with span("bench.harness"):
        result["warmup"] = check(*warm)
        del warm
        gc.collect()
    rounds = []
    limit = spec.get("rounds")
    loop_start = time.perf_counter()
    while True:
        marks = []
        out = one_round(marks)
        with span("bench.harness"):
            record = check(*out)
            del out  # the round's rows are freed here, outside the timing
        record["marks"] = marks
        rounds.append(record)
        if limit is not None:
            if len(rounds) >= limit:
                break
        elif time.perf_counter() - loop_start >= spec["seconds"]:
            break
    result["rounds"] = rounds


def run_warmup(spec, tracer, result):
    import repro.__main__  # noqa: F401
    import repro.engine  # noqa: F401
    from perfbench import capacity, layers  # noqa: F401
    from repro.runner import code_version

    result["code_version"] = code_version()
    result["rc"] = 0


KINDS = {"paper": run_paper, "capacity": run_capacity, "warmup": run_warmup}


def main(argv):
    spec = json.loads(argv[0])
    tracer = None
    if spec.get("trace"):
        from perfbench.tracer import Tracer

        tracer = Tracer()
    result = {"t_start": T_START, "t_setup": None, "rc": None}
    try:
        KINDS[spec["kind"]](spec, tracer, result)
    finally:
        result["t_end"] = time.monotonic()
        result["wall_internal"] = time.perf_counter() - PC_START
        if tracer is not None:
            from perfbench.layers import layer_metrics, self_time_table

            tracer.flush_counters()
            # Span times are perf_counter readings; the traced wall runs
            # from this process's first statement to the end of its work.
            wall = result["wall_internal"]
            shifted = [[n, s - PC_START, e - PC_START, p] for n, s, e, p in tracer.spans]
            result["layers"] = layer_metrics(shifted, tracer.counts, wall)
            result["table"] = self_time_table(shifted, wall)
            tracer.spans = shifted
            tracer.dump(spec["spans"])
        with open(spec["result"], "w") as handle:
            json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
