"""Benchmark regression ledger: trimmed history + >20% slowdown gate.

``check_engine_speedup.py`` gates *ratios within one run* (fast vs DES,
model vs fast) and is immune to machine speed.  This script gates
*absolute drift across runs*: every CI run appends one trimmed record
per gate benchmark to ``benchmarks/history/ledger.jsonl`` (committed,
so the history travels with the repo), and the ``check`` subcommand
fails when a gate is more than ``--tolerance`` (default 20%) slower
than the median of its recent ledger baseline.

Records carry a ``runner`` label and ``check`` only compares
like-with-like: CI runs label themselves ``--runner github-ci`` and are
never judged against the (differently-provisioned) machine that seeded
the ledger.  A gate with no same-runner baseline passes with a note —
the first run on a new runner class *is* the baseline.

Usage::

    python benchmarks/check_regression.py check  BENCH.json [--runner L]
        [--tolerance 0.20] [--window 10] [--ledger PATH]
    python benchmarks/check_regression.py append BENCH.json [--runner L]
        [--commit SHA] [--ledger PATH]

Both subcommands silently skip gates absent from ``BENCH.json``, so
any gate subset can be checked or appended.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Gate benchmark -> pytest-benchmark stat to track.  Means for the
#: single-round full-scale run; round minima for throughput gates
#: (timing noise is strictly additive, so the min is the least-noise
#: estimator of true cost).
GATES = {
    # engine tower (bench_fig10_sizes.py)
    "test_fig10_full_scale": "mean",
    "test_fig10_point_throughput": "min",
    # sharded cache (bench_cache_scale.py): the single recorded round
    # is the cold stats() fold over 100k entries / 256 segments.
    "test_cache_scale_100k": "min",
    # runner backends (bench_runner.py).  The warm-campaign and retry-
    # overhead gates time themselves in-test (no fixture record lands
    # in the JSON) and enforce their ratios by assertion, so the ledger
    # tracks the recorded backend sweeps.
    "test_backend_serial": "min",
    "test_backend_process": "min",
}

DEFAULT_LEDGER = Path(__file__).parent / "history" / "ledger.jsonl"


def _gate_seconds(bench_json: str) -> dict:
    """Extract {gate name: seconds} for every gate present in the file."""
    with open(bench_json) as fh:
        data = json.load(fh)
    found = {}
    for bench in data.get("benchmarks", []):
        stat = GATES.get(bench["name"])
        if stat is not None:
            found[bench["name"]] = float(bench["stats"][stat])
    return found


def _load_ledger(path: Path) -> list:
    if not path.exists():
        return []
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _append(args: argparse.Namespace) -> int:
    with open(args.bench_json) as fh:
        data = json.load(fh)
    gates = _gate_seconds(args.bench_json)
    if not gates:
        print(f"{args.bench_json}: no gate benchmarks found; nothing to append")
        return 0
    commit = args.commit or (data.get("commit_info") or {}).get("id") or "unknown"
    record = {
        "recorded": data.get("datetime"),
        "commit": commit,
        "runner": args.runner,
        "machine": (data.get("machine_info") or {}).get("node"),
        "gates": gates,
    }
    ledger = Path(args.ledger)
    ledger.parent.mkdir(parents=True, exist_ok=True)
    with open(ledger, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"appended {len(gates)} gate(s) for {commit[:12]} to {ledger}")
    return 0


def _check(args: argparse.Namespace) -> int:
    current = _gate_seconds(args.bench_json)
    if not current:
        print(f"{args.bench_json}: no gate benchmarks found; nothing to check")
        return 0
    history = [
        r for r in _load_ledger(Path(args.ledger))
        if r.get("runner") == args.runner
    ]
    failures = 0
    for name, seconds in sorted(current.items()):
        baseline_values = [
            r["gates"][name] for r in history if name in r.get("gates", {})
        ][-args.window:]
        if not baseline_values:
            print(
                f"{name}: {seconds * 1000:.1f} ms — no {args.runner!r} "
                f"baseline in ledger, skipping (this run seeds it)"
            )
            continue
        baseline = statistics.median(baseline_values)
        limit = baseline * (1.0 + args.tolerance)
        verdict = "OK" if seconds <= limit else "FAIL"
        print(
            f"{name}: {seconds * 1000:.1f} ms vs baseline median "
            f"{baseline * 1000:.1f} ms over {len(baseline_values)} run(s) "
            f"(limit {limit * 1000:.1f} ms) {verdict}"
        )
        if seconds > limit:
            failures += 1
    if failures:
        print(
            f"FAIL: {failures} gate(s) regressed more than "
            f"{args.tolerance:.0%} vs the ledger baseline"
        )
        return 1
    print("OK")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("check", _check), ("append", _append)):
        p = sub.add_parser(name)
        p.add_argument("bench_json", help="pytest-benchmark JSON file")
        p.add_argument(
            "--ledger", default=str(DEFAULT_LEDGER),
            help="ledger path (default benchmarks/history/ledger.jsonl)",
        )
        p.add_argument(
            "--runner", default="local",
            help="runner-class label; check compares only same-label records",
        )
        p.set_defaults(fn=fn)
    sub.choices["check"].add_argument(
        "--tolerance", type=float, default=0.20,
        help="allowed slowdown vs the baseline median (default 0.20)",
    )
    sub.choices["check"].add_argument(
        "--window", type=int, default=10,
        help="number of most-recent baseline records to median (default 10)",
    )
    sub.choices["append"].add_argument(
        "--commit", default=None,
        help="commit id to record (default: the JSON's commit_info)",
    )
    args = parser.parse_args(argv[1:])
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
