"""Command-line entry point: run any experiment by name.

Usage::

    python -m repro list              # show available experiments
    python -m repro fig10             # run the Figure 10 reproduction
    python -m repro all               # run everything (slow)
    python -m repro sweep fig10 --jobs 4        # parallel + cached
    python -m repro sweep all --jobs 8 --scale 8
    python -m repro sweep fig10 --engine des    # force the DES oracle
    python -m repro sweep fig10 --engine model  # analytic estimates only
    python -m repro sweep fig10 --resume        # finish a killed sweep
    python -m repro sweep robustness --scenario dropout:0.5
    python -m repro sweep fig10 --retries 2 --timeout 60      # fault tolerant
    python -m repro sweep fig10 --retries 2 --max-failures 5  # + breaker
    python -m repro sweep fig10 --chaos "fail=0.2,seed=7" --retries 2
    python -m repro sweep fig10 --resume --retry-quarantined
    python -m repro cache info        # cache location, entries, size
    python -m repro cache compact     # fold dead segment history away
    python -m repro cache clear       # drop every cached result

``sweep`` runs an experiment's campaign through the unified runner
(:mod:`repro.runner`): cache-miss points execute inline under
``--jobs 1`` and on a self-healing pool of ``--jobs`` warm workers,
shared by every sweep of the invocation, otherwise.  Results are
memoized in a log-structured content-addressed on-disk cache, so a
repeated invocation completes without re-running any simulation and a
killed one picks up where it stopped (``--resume``).  Aggregated
tables are identical for every ``--jobs``.

The fault-tolerance layer (``docs/runner.md``) rides on top:
``--retries`` re-attempts failed points with deterministic backoff,
``--timeout`` bounds each point's wall clock inside the worker,
``--max-failures`` trips a circuit breaker that aborts the sweep with
a structured failure report, points that exhaust their retry budget
are quarantined in the cache (skipped by later ``--resume``
runs unless ``--retry-quarantined``), and ``--chaos`` wraps the
backend in the deterministic fault injector to rehearse all of it.

Exit codes: 0 on success, 1 when a sweep point failed (aborting the
run, recorded under ``--keep-going``, or skipped as quarantined), 2
for unknown experiment/sweep names or bad arguments, 130/143 when an
in-flight ``sweep`` was interrupted by SIGINT/SIGTERM (workers are
torn down, the cache stays consistent, ``--resume`` finishes the run).
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import ALL_EXPERIMENTS, campaign_for


def _print_experiment_list() -> None:
    print("Available experiments:")
    for name, module in ALL_EXPERIMENTS.items():
        headline = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<10s} {headline}")
    print("  all        run every experiment in sequence")
    print(
        "\nSubcommands:\n"
        "  sweep NAME [--jobs N] [--resume] [--keep-going] [--no-cache]\n"
        "             [--cache-dir D] [--scale K] [--engine fast|des|model]\n"
        "             [--scenario KIND[:SEVERITY]]\n"
        "             [--retries N] [--timeout S] [--max-failures M]\n"
        "             [--chaos SPEC] [--retry-quarantined]\n"
        "             run NAME's campaign through the parallel cached runner\n"
        "  cache [info|compact|clear] [--cache-dir D]\n"
        "             inspect, compact or empty the result cache"
    )


def _not_a_directory(cache) -> bool:  # noqa: ANN001 — repro.runner.ResultCache
    """Report (exit-2 wording) a cache root that is, or lies below, an
    existing file: the store could never be created there."""
    root = cache.root
    try:
        if next(p for p in (root, *root.parents) if p.exists()).is_dir():
            return False
    except OSError:  # unreadable ancestor: leave the verdict to the store
        return False
    print(f"bad arguments: --cache-dir {root} is not a directory")
    return True


def _cmd_sweep(argv: list[str]) -> int:
    """``python -m repro sweep NAME`` — the parallel/cached runner."""
    from repro.analysis.tables import format_table
    from repro.runner import ResultCache, run_campaign

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run an experiment campaign through the sweep runner.",
    )
    parser.add_argument(
        "name", help="experiment name (see 'python -m repro list') or 'all'"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for cache-miss points: 1 (default) runs "
             "them inline, N > 1 on a self-healing pool of warm workers "
             "kept alive across every sweep of this invocation",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="finish a previously killed run: like every cached run it "
             "loads the points the cache holds and computes the "
             "missing/failed rest, and it also skips points quarantined "
             "as known-permanent failures; requires the cache",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="record a failing point as an errored row and continue the "
             "sweep instead of aborting on the first failure",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point and write nothing to the cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (default $REPRO_CACHE_DIR or ~/.cache/repro-sweeps)",
    )
    parser.add_argument(
        "--scale", type=int, default=None, metavar="K",
        help="divide matrix dimensions by K where supported (quick runs)",
    )
    parser.add_argument(
        "--engine", choices=("fast", "des", "model"), default="fast",
        help="simulation backend: the event-free fast timeline engine "
             "(default), the discrete-event kernel (reference oracle), or "
             "the analytic model estimator (orders of magnitude faster, "
             "validated error envelope — see docs/engines.md)",
    )
    parser.add_argument(
        "--scenario", default=None, metavar="KIND[:SEVERITY]",
        help="narrow scenario-aware campaigns (e.g. 'sweep robustness') to "
             "one non-stationarity family: drift, dropout, congestion, "
             "brownout, randomwalk or multidrop, optionally pinning a "
             "severity in [0, 1] (see docs/scenarios.md); other campaigns "
             "ignore the knob",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-attempt each failed point up to N extra times with "
             "exponential, deterministically jittered backoff; points "
             "that fail every attempt are quarantined in the cache "
             "so later --resume runs skip them",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-point wall-clock limit in seconds, enforced inside the "
             "pool workers of --jobs N > 1 (--jobs 1 never interrupts a "
             "point); a timed-out point counts "
             "as a failure and is retried like any other",
    )
    parser.add_argument(
        "--max-failures", type=int, default=None, metavar="M",
        help="circuit breaker: abort the sweep with a structured failure "
             "report once M points have permanently failed (implies "
             "--keep-going semantics up to the threshold)",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="wrap the backend in the deterministic fault injector; SPEC "
             "is comma-separated key=value over fail/hang/crash rates, "
             "hang_s, seed and sticky (e.g. 'fail=0.2,seed=7' or "
             "'fail=0.5,sticky=permanent').  Injected faults never touch "
             "cache keys: a transient profile plus --retries converges to "
             "results byte-identical to the clean run",
    )
    parser.add_argument(
        "--retry-quarantined", action="store_true",
        help="with --resume: re-attempt points previously quarantined as "
             "known-permanent failures instead of skipping them (a "
             "success clears the quarantine record)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress lines"
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    names = list(ALL_EXPERIMENTS) if args.name == "all" else [args.name]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; try 'python -m repro list'")
        return 2
    if args.scenario is not None:
        from repro.scenarios import parse_scenario_arg

        try:
            parse_scenario_arg(args.scenario)
        except ValueError as exc:
            print(f"bad --scenario: {exc}")
            return 2

    if args.resume and args.no_cache:
        print("bad arguments: --resume needs the cache (drop --no-cache)")
        return 2
    if args.scale is not None and args.scale < 1:
        print("bad arguments: --scale must be a positive integer")
        return 2
    if args.jobs < 1:
        print("bad arguments: --jobs must be a positive integer")
        return 2
    if args.retry_quarantined and not args.resume:
        print("bad arguments: --retry-quarantined only applies with --resume")
        return 2

    from repro.runner import RetryPolicy

    chaos_spec = None
    if args.chaos is not None:
        from repro.runner.backends.chaos import ChaosSpec

        try:
            chaos_spec = ChaosSpec.parse(args.chaos)
        except ValueError as exc:
            print(f"bad --chaos: {exc}")
            return 2
    try:
        retry_policy = RetryPolicy(
            retries=args.retries,
            timeout=args.timeout,
            max_failures=args.max_failures,
        )
    except ValueError as exc:
        print(f"bad arguments: {exc}")
        return 2

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if cache is not None and _not_a_directory(cache):
        return 2
    progress = None
    if not args.quiet:
        counts = {"error": 0, "quarantined": 0}
        markers = {
            "ok": "", "error": "  FAILED", "retry": "  RETRYING",
            "quarantined": "  QUARANTINED",
        }

        def progress(ev):  # noqa: ANN001 — repro.runner.Progress
            if ev.status in counts:
                counts[ev.status] += 1
            if ev.cached:
                source = "cache"
            elif ev.status == "quarantined":
                source = "skipped"
            else:
                source = f"{ev.seconds:6.2f}s"
            marker = markers.get(ev.status, f"  {ev.status.upper()}")
            tail = ""
            if counts["error"] or counts["quarantined"]:
                tail = (
                    f"  [{counts['error']} failed, "
                    f"{counts['quarantined']} quarantined]"
                )
            print(
                f"[{ev.sweep} {ev.index + 1}/{ev.total}] {source}{marker}{tail}",
                file=sys.stderr,
            )

    # Build every campaign before running any: a bad knob combination
    # (e.g. --scenario stationary on robustness) must fail fast with
    # exit 2, not crash mid-run after earlier campaigns computed.
    try:
        campaigns = [
            campaign_for(
                name, scale=args.scale, engine=args.engine,
                scenario=args.scenario,
            )
            for name in names
        ]
    except ValueError as exc:
        print(f"bad arguments: {exc}")
        return 2

    from repro.runner import (
        CircuitOpenError, SweepPointError, code_version, resolve_backend,
    )
    from repro.runner.sweep import _error_summary

    # One backend instance for the whole invocation: the process pool
    # keeps its warm workers across every sweep and campaign of
    # `sweep all`.  --chaos wraps it without touching the
    # points (cache keys stay those of the clean run — the whole point
    # of the byte-identity acceptance check).
    exec_backend, owned = resolve_backend(None, args.jobs)
    if chaos_spec is not None and chaos_spec.active:
        from repro.runner.backends.chaos import ChaosBackend

        exec_backend = ChaosBackend(inner=exec_backend, spec=chaos_spec)
    # --max-failures tolerates failures up to its threshold, which only
    # makes sense under keep semantics; an explicit breaker therefore
    # implies --keep-going.
    on_error = "keep" if (args.keep_going or args.max_failures) else "raise"
    failed = 0
    quarantined = 0
    failing_points: list = []  # (status, sweep, params, summary) per bad point

    import signal as signal_module

    class _Terminated(BaseException):
        """SIGTERM arrived: unwind like KeyboardInterrupt does for SIGINT."""

    def _on_sigterm(signum, frame):  # noqa: ARG001
        raise _Terminated()

    # One code version for the whole invocation, not one source re-scan
    # per sweep: this process runs the modules it imported at start, so
    # their version is the one that produces every result it stores.
    code = code_version() if cache is not None else None
    try:
        prev_sigterm = signal_module.signal(
            signal_module.SIGTERM, _on_sigterm
        )
    except ValueError:  # not the main thread (embedded callers)
        prev_sigterm = None
    try:
        for name, campaign in zip(names, campaigns):
            result = run_campaign(
                campaign,
                jobs=args.jobs,
                cache=cache,
                progress=progress,
                code=code,
                backend=exec_backend,
                resume=args.resume,
                on_error=on_error,
                retry=retry_policy,
                retry_quarantined=args.retry_quarantined,
            )
            failed += result.errors
            quarantined += result.quarantined
            for sweep_result in result.sweeps:
                for outcome in sweep_result.outcomes:
                    if outcome.status != "ok":
                        failing_points.append(
                            (outcome.status, sweep_result.name,
                             outcome.params, _error_summary(outcome.error))
                        )
                print(format_table(sweep_result.rows, title=sweep_result.title))
                print()
            summary = (
                f"{name}: {result.hits} cached, {result.misses} computed"
            )
            if result.shards:
                summary += f" [{result.shards} shards]"
            if result.errors:
                summary += f" ({result.errors} failed)"
            if result.quarantined:
                summary += f" ({result.quarantined} quarantined, skipped)"
            print(
                summary + f" in {result.elapsed:.2f}s"
                + ("" if cache else " (cache disabled)")
            )
    except CircuitOpenError as exc:
        print(f"sweep aborted: {exc.report.render()}", file=sys.stderr)
        return 1
    except SweepPointError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, _Terminated) as exc:
        # Tear the workers down *now* — terminate, not close: close
        # would first drain everything already queued.  Each result is
        # one whole-record append, so the cache is consistent mid-kill
        # and --resume completes the campaign from exactly the points
        # that never resolved.
        print(
            "sweep interrupted: terminating workers; rerun with --resume "
            "to finish",
            file=sys.stderr,
        )
        terminate = getattr(exec_backend, "terminate", None)
        (terminate or exec_backend.close)()
        return 130 if isinstance(exc, KeyboardInterrupt) else 143
    finally:
        if prev_sigterm is not None:
            signal_module.signal(signal_module.SIGTERM, prev_sigterm)
        if owned:
            exec_backend.close()
    if failing_points:
        print(
            f"{failed + quarantined} point(s) did not produce results:",
            file=sys.stderr,
        )
        for status, sweep_name, params, reason in failing_points:
            print(
                f"  [{sweep_name}] {dict(params)!r} ({status}): {reason}",
                file=sys.stderr,
            )
    return 1 if (failed or quarantined) else 0


def _cmd_cache(argv: list[str]) -> int:
    """``python -m repro cache [info|clear]`` — cache maintenance."""
    from repro.runner import ResultCache

    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect or empty the sweep result cache.",
    )
    parser.add_argument(
        "action", nargs="?", default="info",
        choices=("info", "clear", "compact"),
    )
    parser.add_argument("--cache-dir", default=None, metavar="DIR")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    cache = ResultCache(args.cache_dir)
    if _not_a_directory(cache):
        return 2
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    if args.action == "compact":
        dropped = 0
        if cache.root.is_dir():
            for child in sorted(cache.root.iterdir()):
                if child.is_dir():
                    dropped += cache.compact(child.name)
        print(f"compacted segments: {dropped} dead record(s) dropped")
        return 0
    stats = cache.stats()
    print(f"cache dir : {cache.root}")
    print(f"entries   : {stats.entries}")
    print(f"size      : {stats.bytes / 1024:.1f} KiB")
    print(f"sweeps    : {', '.join(stats.sweeps) if stats.sweeps else '(none)'}")
    if stats.shards_per_sweep:
        shards = ", ".join(
            f"{name}: {count}" for name, count in stats.shards_per_sweep
        )
        print(f"shards    : {shards}")
    if stats.quarantined:
        print(f"quarantined: {stats.quarantined} known-permanent failure(s)")
        for name, _, quarantined in stats.per_sweep:
            if quarantined:
                print(f"  {name}: {quarantined} point(s) (see --retry-quarantined)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Dispatch to a subcommand or an experiment's ``main()``."""
    args = argv if argv is not None else sys.argv[1:]
    if not args or args[0] in ("-h", "--help", "list"):
        _print_experiment_list()
        return 0
    name = args[0]
    if name == "sweep":
        return _cmd_sweep(args[1:])
    if name == "cache":
        return _cmd_cache(args[1:])
    if name == "all":
        for key, module in ALL_EXPERIMENTS.items():
            print(f"\n{'=' * 72}\n== {key}\n{'=' * 72}")
            module.main()
        return 0
    module = ALL_EXPERIMENTS.get(name)
    if module is None:
        print(f"unknown experiment {name!r}; try 'python -m repro list'")
        return 2
    module.main()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
