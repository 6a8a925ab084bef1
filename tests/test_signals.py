"""Graceful interruption of in-flight CLI sweeps.

SIGINT and SIGTERM of a ``python -m repro sweep`` subprocess must tear
the worker pool down (no orphaned processes), exit with the
conventional 130/143 code, leave the sweep's cache segments
well-formed, and let ``--resume`` finish the campaign with results
byte-identical to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import ResultCache

REPO = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

#: Injected per-point hang: every fig10 point sleeps this long before
#: completing with its correct value, so the campaign is reliably
#: in-flight when the signal lands (21 points ≈ 21s on 2 workers).
HANG_S = 2.0
CHAOS = f"hang=1,hang_s={HANG_S:g},seed=0"


def _sweep_cmd(cache_dir, *extra):
    return [
        sys.executable, "-m", "repro", "sweep", "fig10",
        "--cache-dir", str(cache_dir), "--scale", "8",
        "--jobs", "2", "--quiet", *extra,
    ]


def journal_records(root):
    """Every record of the segments under ``root``; each line must
    parse (call only once the writer has exited)."""
    return [
        json.loads(line)
        for segment in sorted(Path(root).glob("*.jsonl"))
        for line in segment.read_text().splitlines()
        if line.strip()
    ]


def _entry_shapes(cache_dir):
    """Every fig10 put record minus its write timestamp, for
    byte-identity."""
    out = {}
    for record in journal_records(Path(cache_dir, "fig10")):
        if record["op"] == "put":
            record.pop("created", None)
            out[record["key"]] = record
    return out


def _wait_for_entries(cache_dir, n, deadline_s=30.0):
    """Block until ``n`` completed points have been cached.  The sweep
    is still writing, so an append in progress is not counted."""
    deadline = time.monotonic() + deadline_s
    cache = ResultCache(cache_dir)
    while time.monotonic() < deadline:
        if len(cache.manifest_keys("fig10")) >= n:
            return
        time.sleep(0.05)
    raise AssertionError(f"no {n} cache entries within {deadline_s}s")


def _assert_group_gone(pgid, deadline_s=10.0):
    """The sweep process group (CLI + pool workers) fully exited."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise AssertionError(f"orphaned processes survive in group {pgid}")


class TestInterruptedSweep:
    @pytest.mark.parametrize(
        "signo,code",
        [(signal.SIGINT, 130), (signal.SIGTERM, 143)],
        ids=["sigint", "sigterm"],
    )
    def test_interrupt_then_resume_byte_identical(
        self, tmp_path, signo, code
    ):
        interrupted = tmp_path / "interrupted"
        clean = tmp_path / "clean"

        # Uninterrupted reference run (no chaos: the hang only delays,
        # never changes values, so the caches must end up identical).
        subprocess.run(
            _sweep_cmd(clean), env=ENV, check=True, timeout=120,
            capture_output=True,
        )
        reference = _entry_shapes(clean)
        assert len(reference) == 21

        proc = subprocess.Popen(
            _sweep_cmd(interrupted, "--chaos", CHAOS),
            env=ENV, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            _wait_for_entries(interrupted, 2)
            proc.send_signal(signo)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)

        assert proc.returncode == code, err
        assert "rerun with --resume" in err
        _assert_group_gone(proc.pid)

        # The segments survived the interrupt well-formed: every line
        # parses, no duplicate puts, and each put is served.
        records = journal_records(interrupted / "fig10")
        puts = [r["key"] for r in records if r["op"] == "put"]
        assert len(puts) == len(set(puts)) >= 2
        assert ResultCache(interrupted).manifest_keys("fig10") == set(puts)
        done_before = len(puts)

        # --resume completes only the remainder, byte-identically.
        result = subprocess.run(
            _sweep_cmd(interrupted, "--resume"),
            env=ENV, timeout=120, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert _entry_shapes(interrupted) == reference
        again = journal_records(interrupted / "fig10")
        final_puts = {r["key"] for r in again if r["op"] == "put"}
        assert len(final_puts) == 21 and set(puts) <= final_puts
        assert done_before < 21  # the interrupt really landed mid-sweep
