"""Append-only JSON-lines logs: the primitive under the result cache's
shard segments.

A log is a text file of one JSON object per line.  Three operations,
each with one crash-consistency rule:

* :func:`append` writes a batch of records with a **single**
  ``O_APPEND`` ``os.write`` (atomic under concurrent appenders) that
  **starts with a newline**.  A writer killed mid-append leaves at most
  one torn line at the tail; the next append's leading newline ends
  that line, so the torn bytes cost only their own record and can never
  swallow the record written after them.
* :func:`read` returns every line that parses as a JSON object and
  skips the rest (blank lines, torn tails, manual edits): an unparsable
  line is never trusted and never poisons its neighbours.
* :func:`rewrite` replaces a log wholesale by writing a temp file in
  the same directory and :func:`os.replace`-ing it into place, so a
  crash at any instant leaves either the old log or the new one, never
  a hybrid.

Records are written compactly (no spaces) with Python's JSON dialect,
so ``NaN`` round-trips.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, List, Mapping, Tuple

__all__ = ["append", "encode", "read", "rewrite"]


def encode(record: Mapping[str, Any]) -> str:
    """One record as one line of text, without the newline.

    Raises ``TypeError`` for a record that is not JSON-able, before
    anything touches the disk.
    """
    return json.dumps(record, separators=(",", ":"))


def append(path: Path, lines: Iterable[str], fsync: bool = False) -> None:
    """Append encoded ``lines`` with one write.

    The parent directory is created on first use.  ``fsync`` flushes
    the write to stable storage before returning.
    """
    data = ("\n" + "".join(line + "\n" for line in lines)).encode()
    flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
    try:
        fd = os.open(path, flags, 0o644)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read(path: Path) -> List[Tuple[str, dict]]:
    """Every intact record of the log as ``(line, record)`` pairs.

    Raises ``OSError`` when the file cannot be read (``FileNotFoundError``
    for a log never written).
    """
    text = path.read_bytes().decode("utf-8", errors="replace")
    lines = [line for line in text.split("\n") if line.strip()]
    # Fast path: an intact log parses as one JSON array, in one call.  A
    # torn line is a prefix of an object, so it leaves a bracket or a
    # string open that no later (balanced) line can close: the array
    # fails to parse, and each line is then parsed on its own.
    try:
        records = json.loads("[" + ",".join(lines) + "]")
    except ValueError:
        records = []
    if len(records) != len(lines) or not all(
        isinstance(record, dict) for record in records
    ):
        records = [_parse(line) for line in lines]
    return [
        (line, record)
        for line, record in zip(lines, records)
        if isinstance(record, dict)
    ]


def _parse(line: str) -> Any:
    try:
        return json.loads(line)
    except ValueError:
        return None


def rewrite(path: Path, lines: Iterable[str]) -> bool:
    """Atomically replace the log with ``lines``.

    Returns ``False``, leaving the old log untouched and no temp file
    behind, when the directory refuses the write (e.g. a read-only
    store).
    """
    text = "".join(line + "\n" for line in lines)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError:
        return False
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        Path(tmp).unlink(missing_ok=True)
        return False
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return True
