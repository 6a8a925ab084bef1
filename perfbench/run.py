"""End-to-end benchmark of the repro CLI and library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_warm --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload capacity_plan --report 5 --seconds 30
    python3 perfbench/run.py --write-reference

Workloads (``BENCHMARK.json`` says why each was chosen):

``paper_cold``
    ``python -m repro sweep all --quiet --jobs 1`` at paper scale into a
    fresh, empty cache directory, once per process, as often as fits in
    ``--seconds``.  Runs on request only: ``BENCHMARK.json`` does not
    declare it.  One invocation takes 14-20 s, so a run holds only three,
    and the host's slow spells last longer than that; its run-to-run
    spread exceeds the largest bound a metric may have.
``paper_warm``
    the same command against a cache that this code version filled
    before timing; every point is a cache hit.
``capacity_plan``
    a seeded (memory x workers x link speed x algorithm) grid through the
    three stages of ``examples/capacity_planning.py``, in a closed loop.

On a shared host the CPU a process gets drops by a third or more for
stretches of 10-30 seconds.  The program does the same work, in the same
order, in every timed process of a run (every ``sweep`` invocation, every
capacity round), and each process records progress marks as it goes:
sweep starts and cache writes for ``paper_*``, stage ends for
``capacity_plan``.  ``wall_s`` and ``cpu_s`` add up each stretch between
two marks at its fastest repetition in the run, so a slow stretch of the
host costs nothing as long as one repetition of that stretch ran at full
speed; ``points_per_s`` is the points of one repetition over ``wall_s``.
``setup_s`` is likewise the fastest set-up time in the run, over the probe
processes spread through it and the timed processes.

Every measured process is a fresh, single-threaded child
(:mod:`perfbench.child`); an untimed warm-up process comes first, and
set-up probes run between the timed processes.  Each run's outputs are
checked against the reference digests in ``perfbench/reference``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
separate traced run with ``--trace 1``.  The exit code is 0 only when
every output matched.

``--report N`` runs the workload (each declared one by default) N times
(seeds ``--seed`` .. ``--seed + N - 1``) and prints, per metric, the
median, the quartiles and the spread, flagging any metric whose spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import capacity  # noqa: E402
from perfbench.layers import PER_LAYER  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
WORKLOADS = ("paper_cold", "paper_warm", "capacity_plan")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Set-up probes per run, spread over it.
PROBES = 8
#: Seconds of timed rounds in one ``capacity_plan`` process.
CAPACITY_CHILD_S = 11.0
#: Timed capacity rounds per process in a traced run.
TRACE_ROUNDS = 2
#: No child may outlive this many seconds.
CHILD_LIMIT = 170.0
SUMMARY = re.compile(r"^(\S+): (\d+) cached, (\d+) computed.* in [\d.]+s")
FAILED = re.compile(r"\((\d+) (?:failed|quarantined)")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


# -- child processes --------------------------------------------------------


def child_env(work: Path) -> Dict[str, str]:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        # Every cache the program opens stays inside the work directory.
        REPRO_CACHE_DIR=str(work / "default-cache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(spec: Dict[str, Any], run_dir: Path, tag: str, importtime: bool = False) -> Dict[str, Any]:
    """Run one child to completion; returns its result plus rusage facts."""
    spec = dict(spec, result=str(run_dir / f"{tag}.result.json"))
    if spec.get("trace"):
        spec["spans"] = str(run_dir / f"{tag}.spans.json")
    out_path = run_dir / f"{tag}.out"
    err_path = run_dir / f"{tag}.err"
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += ["-m", "perfbench.child", json.dumps(spec)]
    gc.collect()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(run_dir.parent), stdout=out, stderr=err
        )
        watchdog = threading.Timer(CHILD_LIMIT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(Path(spec["result"]).read_text())
    except (OSError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"child {tag} exited with {proc.returncode}:\n{tail}")
    result.update(
        t0=t0,
        t1=t1,
        wall=t1 - t0,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=str(out_path),
        stderr=str(err_path),
        spans=spec.get("spans"),
    )
    if result.get("t_setup") is not None:
        result["setup"] = result["t_setup"] - t0
    return result


def scipy_import_s(stderr_path: str) -> float:
    """Summed self time of every ``scipy`` module in ``-X importtime`` output."""
    total_us = 0
    for line in Path(stderr_path).read_text(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            try:
                total_us += int(parts[0])
            except ValueError:
                pass
    return total_us / 1e6


def tree_bytes(path: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except OSError:
                pass
    return total


# -- output checks ------------------------------------------------------------


def paper_output(stdout_path: str) -> Dict[str, Any]:
    """Split the CLI's output into table digests and point counts.

    Summary lines (``NAME: H cached, M computed ... in X.XXs``) carry
    timings and are left out of the digests.
    """
    tables: List[List[str]] = []
    points = failed = 0
    block: List[str] = []

    def flush():
        if block:
            text = "\n".join(block)
            tables.append([block[0], hashlib.sha256(text.encode()).hexdigest()])
            block.clear()

    for line in Path(stdout_path).read_text(errors="replace").splitlines():
        match = SUMMARY.match(line)
        if match:
            flush()
            points += int(match.group(2)) + int(match.group(3))
            failed += sum(int(n) for n in FAILED.findall(line))
        elif line.strip():
            block.append(line)
        else:
            flush()
    flush()
    return {"tables": tables, "points": points, "failed": failed}


def table_mismatches(got: List[List[str]], want: List[List[str]]) -> List[str]:
    bad = [g[0] for g, w in zip(got, want) if g != w]
    if len(got) != len(want):
        bad.append(f"{len(got)} tables instead of {len(want)}")
    return bad


def load_reference(name: str) -> Dict[str, Any]:
    path = REFERENCE / name
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"missing reference digests {path}: {exc}") from None


class Tally:
    """Points attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.reasons.append(reason)


def check_paper(sample: Dict[str, Any], reference: Dict[str, Any], tally: Tally) -> None:
    out = paper_output(sample["stdout"])
    sample["points"] = out["points"]
    tally.attempted += max(out["points"], 1)
    if out["failed"]:
        tally.fail(out["failed"], f"{out['failed']} point(s) failed")
    elif sample.get("rc") not in (0, None):
        tally.fail(1, f"CLI exited with {sample['rc']}")
    bad = table_mismatches(out["tables"], reference["tables"])
    if bad:
        tally.fail(len(bad), "digest mismatch: " + "; ".join(bad[:5]))


def check_capacity(result: Dict[str, Any], reference: Dict[str, Any], seed: int, tally: Tally) -> None:
    want = reference["instances"][str(capacity.instance_for(seed))]
    for index, record in enumerate([result["warmup"], *result["rounds"]]):
        tally.attempted += record["points"]
        for part in ("estimate", "shortlist"):
            if record[part] != want[part]:
                tally.fail(1, f"round {index}: {part} rows digest mismatch")


# -- workloads ----------------------------------------------------------------


def paper_argv(cache_dir: Path, scale: int) -> List[str]:
    argv = ["sweep", "all", "--quiet", "--jobs", "1", "--cache-dir", str(cache_dir)]
    if scale > 1:
        argv += ["--scale", str(scale)]
    return argv


def warm_fill(work: Path, run_dir: Path, code: str, scale: int, reference, tally: Tally) -> Path:
    """The cache ``paper_warm`` reads: filled once per code version and
    kept in the work directory; the filling run is untimed."""
    fill = work / "warm-fill" / f"{code}-scale{scale}"
    marker = fill / "filled.json"
    if marker.is_file():
        return fill / "cache"
    shutil.rmtree(fill, ignore_errors=True)
    fill.mkdir(parents=True)
    sample = spawn(
        {"kind": "paper", "argv": paper_argv(fill / "cache", scale)}, run_dir, "fill"
    )
    check = Tally()
    check_paper(sample, reference, check)
    if check.failed:
        tally.fail(check.failed, "warm fill: " + "; ".join(check.reasons))
        return fill / "cache"
    marker.write_text(json.dumps({"code_version": code, "scale": scale}))
    return fill / "cache"


def stretches(marks: List[List[float]]) -> List[List[float]]:
    """``[wall, cpu]`` of each stretch between consecutive progress marks."""
    return [[b[0] - a[0], b[1] - a[1]] for a, b in zip(marks, marks[1:])]


def fastest_stretches(samples: List[List[List[float]]]) -> List[float]:
    """``[wall, cpu]`` of the same work done ``len(samples)`` times: each
    stretch at its fastest repetition, summed.  Samples whose marks do not
    line up count as one stretch each."""
    if len({len(sample) for sample in samples}) != 1:
        samples = [[[sum(w for w, _ in s), sum(c for _, c in s)]] for s in samples]
    return [
        sum(min(sample[i][k] for sample in samples) for i in range(len(samples[0])))
        for k in (0, 1)
    ]


def measure(workload: str, args, work: Path, run_dir: Path, code: str, tally: Tally) -> Dict[str, Any]:
    """Untraced run: the end-to-end metrics."""
    setups: List[float] = []
    samples: List[List[List[float]]] = []
    rss: List[float] = []
    facts: Dict[str, Any] = {}
    points = 0
    if workload == "capacity_plan":
        reference = load_reference(f"capacity-scale{args.scale}.json")
    else:
        reference = load_reference(f"paper-scale{args.scale}.json")
    fill = None
    if workload == "paper_warm":
        fill = warm_fill(work, run_dir, code, args.scale, reference, tally)
    facts["cache_fs"] = fs_type(fill or run_dir)
    spent = longest = 0.0
    probes = 0
    while True:
        n = len(rss)
        if workload == "capacity_plan":
            spec = {"kind": "capacity", "seed": args.seed, "scale": args.scale,
                    "seconds": min(CAPACITY_CHILD_S, args.seconds)}
            probe = dict(spec, stop_at_setup=True)
        else:
            cache_dir = fill or run_dir / f"cold{n}"
            spec = {"kind": "paper", "argv": paper_argv(cache_dir, args.scale)}
            probe = {"kind": "paper", "stop_at_setup": True,
                     "argv": paper_argv(fill or run_dir / "probe-cache", args.scale)}
        # Probes between the timed processes, kept in step with the time
        # spent, spread the set-up samples over the whole run.
        while probes < PROBES and probes * args.seconds <= PROBES * spent:
            setups.append(spawn(probe, run_dir, f"probe{probes}")["setup"])
            probes += 1
        result = spawn(dict(spec, corrupt_row=args.corrupt_row and n == 0), run_dir, f"timed{n}")
        setups.append(result["setup"])
        rss.append(result["rss_mb"])
        if workload == "capacity_plan":
            check_capacity(result, reference, args.seed, tally)
            samples += [stretches(record["marks"]) for record in result["rounds"]]
            first = result["rounds"][0]
            points = first["points"]
            facts.update(vectorized=first["vectorized"], scalar=first["scalar"])
        else:
            check_paper(result, reference, tally)
            marks = [[result["t0"], 0.0], *result["marks"], [result["t1"], result["cpu"]]]
            samples.append(stretches(marks))
            points = result["points"]
            if workload == "paper_cold":
                facts["bytes_written"] = tree_bytes(cache_dir)
                shutil.rmtree(cache_dir, ignore_errors=True)
        spent += result["wall"]
        longest = max(longest, result["wall"])
        if spent + longest > args.seconds:
            break  # the next timed process would not fit
    wall, cpu = fastest_stretches(samples)
    facts.update(timed_processes=len(rss), samples=len(samples), points=points,
                 setup_samples=len(setups))
    return {
        "wall_s": wall,
        "setup_s": min(setups),
        "cpu_s": cpu,
        "points_per_s": points / wall,
        "peak_rss_mb": statistics.median(rss),
        "facts": facts,
    }


def traced(workload: str, args, work: Path, run_dir: Path, code: str, tally: Tally) -> Dict[str, Any]:
    """Pairs of untraced and traced processes: the per-layer metrics."""
    pairs: List[Dict[str, float]] = []
    tables: List[str] = []
    start = time.monotonic()
    if workload == "capacity_plan":
        reference = load_reference(f"capacity-scale{args.scale}.json")
    else:
        reference = load_reference(f"paper-scale{args.scale}.json")
        fill = None
        if workload == "paper_warm":
            fill = warm_fill(work, run_dir, code, args.scale, reference, tally)
    # ``-X importtime`` slows the imports it reports on, so it runs in an
    # import-only process of its own, never in a timed one.
    imports = spawn({"kind": "warmup"}, run_dir, "importtime", importtime=True)
    scipy_s = scipy_import_s(imports["stderr"])
    while True:
        n = len(pairs)
        if workload == "capacity_plan":
            spec = {"kind": "capacity", "seed": args.seed, "scale": args.scale,
                    "rounds": TRACE_ROUNDS}
            plain = spawn(spec, run_dir, f"plain{n}")
            check_capacity(plain, reference, args.seed, tally)
            deep = spawn(dict(spec, trace=True), run_dir, f"traced{n}")
            check_capacity(deep, reference, args.seed, tally)
            written = 0
        else:
            cache_dirs = [fill, fill] if fill else [run_dir / f"plain{n}", run_dir / f"traced{n}"]
            plain = spawn({"kind": "paper", "argv": paper_argv(cache_dirs[0], args.scale)},
                          run_dir, f"plain{n}")
            check_paper(plain, reference, tally)
            before = tree_bytes(cache_dirs[1]) if cache_dirs[1].exists() else 0
            deep = spawn({"kind": "paper", "argv": paper_argv(cache_dirs[1], args.scale),
                          "trace": True}, run_dir, f"traced{n}")
            check_paper(deep, reference, tally)
            written = tree_bytes(cache_dirs[1]) - before
            if not fill:
                for d in cache_dirs:
                    shutil.rmtree(d, ignore_errors=True)
        layers = dict(deep["layers"])
        layers["import.scipy_s"] = scipy_s
        layers["runner.cache.bytes_written"] = written
        layers["trace.overhead_s"] = deep["wall_internal"] - plain["wall_internal"]
        pairs.append(layers)
        tables.append(deep["table"])
        spans = Path(deep["spans"])
        keep = work / "traces" / f"{workload}-seed{args.seed}.json"
        keep.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(spans, keep)
        elapsed = time.monotonic() - start
        if elapsed * (len(pairs) + 1) / len(pairs) > args.seconds:
            break  # the next pair would not fit
    print(f"self time per layer (last traced process of {len(pairs)}; spans in {keep}):")
    print(tables[-1])
    return {
        name: statistics.median(pair.get(name, 0.0) for pair in pairs)
        for name in PER_LAYER
    }


# -- host facts ---------------------------------------------------------------


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from mountinfo)."""
    path = path.resolve()
    while not path.exists():
        path = path.parent
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return kind
    for line in lines:
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4]
        if (str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
            best, kind = mount, right.split()[0]
    return kind


def steal_seconds() -> float:
    """CPU time the hypervisor gave other guests, summed over all CPUs."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def host_facts() -> Dict[str, Any]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "nproc": cpus,
        "loadavg_start": round(os.getloadavg()[0], 2),
        "python": sys.version.split()[0],
        "steal_s": steal_seconds(),
    }


# -- entry points -------------------------------------------------------------


def run_once(args) -> int:
    work = args.workdir
    work.mkdir(parents=True, exist_ok=True)
    run_dir = work / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    host = host_facts()
    tally = Tally()
    try:
        code = spawn({"kind": "warmup"}, run_dir, "warmup")["code_version"]
        if args.trace:
            values = traced(args.workload, args, work, run_dir, code, tally)
            units = PER_LAYER
            facts = {}
        else:
            values = measure(args.workload, args, work, run_dir, code, tally)
            facts = values.pop("facts")
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    host["loadavg_end"] = round(os.getloadavg()[0], 2)
    host["steal_s"] = round(steal_seconds() - host["steal_s"], 2)
    host.update(cache_fs=facts.pop("cache_fs", fs_type(work)), code_version=code)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={int(args.trace)}")
    print("host " + json.dumps(host, sort_keys=True))
    if facts:
        print("facts " + json.dumps(facts, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<32s} {values[name]:>14.6g} {unit}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':<32s} {frac:>14.6g} 1  ({tally.failed} of {tally.attempted} points)")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


def report(args) -> int:
    """Run each workload ``args.report`` times and print its spread."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    flagged = 0
    for workload in workloads:
        runs = []
        for i in range(args.report):
            seed = args.seed + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
                   "--scale", str(args.scale), "--workdir", str(args.workdir)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} run {i} (seed {seed}) failed:\n{proc.stdout}{proc.stderr}")
                flagged += 1
                continue
            runs.append((seed, json.loads(lines[-1])["metrics"]))
            print(f"{workload} run {i} (seed {seed}): " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1][1].items()), flush=True)
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<14s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
        for name in bounds:
            values = [m[name]["value"] for _, m in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / med if med else 0.0
            spread = (max(values) - min(values)) / med if med else 0.0
            bound = bounds[name]
            line = (f"  {name:<14s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                    f"{iqr:8.3f} {spread:9.3f} {bound:6.3f}")
            if bound is not None and spread > bound:
                seed, worst = max(runs, key=lambda r: abs(r[1][name]["value"] - med))
                line += (f"  FLAG: spread over bound; worst run seed {seed} "
                         f"= {worst[name]['value']:.4g}")
                flagged += 1
            elif bound is not None and iqr > bound / 3:
                line += "  warn: quartile spread over a third of the bound"
            print(line)
    return 1 if flagged else 0


def write_reference(args) -> int:
    """Regenerate the reference digests from the current program."""
    work = args.workdir
    run_dir = work / f"reference-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    REFERENCE.mkdir(exist_ok=True)
    try:
        code = spawn({"kind": "warmup"}, run_dir, "warmup")["code_version"]
        for scale in (1, 8):
            sample = spawn({"kind": "paper", "argv": paper_argv(run_dir / f"c{scale}", scale)},
                           run_dir, f"paper{scale}")
            out = paper_output(sample["stdout"])
            if out["failed"] or sample["rc"] != 0:
                raise BenchError(f"paper scale {scale}: {out['failed']} failed points")
            data = {"code_version": code, "scale": scale, "points": out["points"],
                    "tables": out["tables"]}
            (REFERENCE / f"paper-scale{scale}.json").write_text(json.dumps(data, indent=1) + "\n")
            print(f"paper scale {scale}: {len(out['tables'])} tables, {out['points']} points")
        for scale in (1, 4):
            instances = {}
            for i in range(capacity.INSTANCES):
                result = spawn({"kind": "capacity", "seed": i, "scale": scale, "rounds": 1},
                               run_dir, f"capacity{scale}-{i}")
                record = result["rounds"][0]
                if record["shortlisted"] == 0:
                    raise BenchError(f"capacity instance {i} shortlists nothing")
                instances[str(i)] = {k: record[k] for k in
                                     ("estimate", "shortlist", "shortlisted", "items", "vectorized")}
            data = {"code_version": code, "scale": scale, "instances": instances}
            (REFERENCE / f"capacity-scale{scale}.json").write_text(json.dumps(data, indent=1) + "\n")
            print(f"capacity scale {scale}: {len(instances)} instances")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload to run (default: each in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=int, default=0, metavar="N",
                        help="run the workload (all workloads without --workload) "
                             "N times and print each metric's spread")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference digests")
    parser.add_argument("--scale", type=int, default=1,
                        help="shrink the inputs (paper: 1 or 8; capacity: 1 or 4)")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench-work",
                        help="where caches, fills and traces go")
    parser.add_argument("--corrupt-row", action="store_true",
                        help="alter one output row (checks the output check)")
    args = parser.parse_args(argv)
    args.workdir = args.workdir.resolve()
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference(args)
        if args.report:
            return report(args)
        if args.workload:
            return run_once(args)
        failed = 0
        for workload in WORKLOADS:
            args.workload = workload
            failed |= run_once(args)
        return failed
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
