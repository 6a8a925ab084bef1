"""Stable content hashing for sweep points.

Cache keys must be reproducible across processes and machines (Python's
built-in ``hash`` is salted per process), and must change when the code
that produced a result changes.  Keys are therefore SHA-256 digests of

* the experiment (sweep) name,
* the point's parameters, rendered as canonical JSON (sorted keys, no
  whitespace, tuples coerced to lists, numpy scalars to Python ones),
* a *code version* — a digest over every ``.py`` source file of the
  :mod:`repro` package, so editing any module invalidates old entries.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping, Optional, Tuple

__all__ = ["canonical_params", "code_version", "point_key"]


def _coerce(value: Any) -> Any:
    """JSON fallback for the scalar types sweeps are allowed to carry.

    Anything else — a multi-element numpy array, whose ``item()``
    raises ``ValueError``, included — raises ``TypeError``.
    """
    try:
        if hasattr(value, "item"):
            return value.item()
        if hasattr(value, "__float__"):
            return float(value)
        if hasattr(value, "__int__"):
            return int(value)
    except ValueError:
        pass
    raise TypeError(
        f"sweep parameters must be JSON-serialisable scalars/lists/dicts, "
        f"got {type(value).__name__}: {value!r}"
    )


def canonical_params(params: Mapping[str, Any]) -> str:
    """Render ``params`` as canonical JSON (stable across processes)."""
    return json.dumps(
        params, sort_keys=True, separators=(",", ":"), default=_coerce
    )


def _source_snapshot(root: Path) -> Tuple[Tuple[str, int, int], ...]:
    """``(relative path, mtime_ns, size)`` of every source file under ``root``.

    Files vanishing mid-scan (a concurrent editor save or branch switch)
    are skipped — they are equally absent from the digest pass below.
    """
    entries = []
    for path in sorted(root.rglob("*.py")):
        try:
            st = path.stat()
        except OSError:
            continue
        entries.append((path.relative_to(root).as_posix(), st.st_mtime_ns, st.st_size))
    return tuple(entries)


#: Last computed version, keyed by the (root, snapshot) that produced it.
_code_cache: Optional[Tuple[Tuple[Path, tuple], str]] = None


def code_version(root: Path | str | None = None) -> str:
    """Digest of the :mod:`repro` package sources (or of ``root``).

    Any edit to any ``repro/**/*.py`` file yields a new version, so the
    cache never serves results computed by stale code — *including
    within one process*: the digest is memoized against a cheap
    ``(path, mtime_ns, size)`` snapshot that is re-taken on every call,
    so a long-lived session (REPL, Jupyter) that edits a module and
    re-runs a sweep gets a fresh key.  (A process-lifetime ``lru_cache``
    here once served stale results in exactly that workflow.)
    ``python -m repro sweep`` calls this once per invocation and passes
    the result down as ``code=``; direct ``run_sweep``/``run_campaign``
    calls without ``code=`` still re-snapshot once per sweep.
    """
    global _code_cache
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    else:
        root = Path(root).resolve()
    snapshot = _source_snapshot(root)
    cached = _code_cache
    if cached is not None and cached[0] == (root, snapshot):
        return cached[1]
    digest = hashlib.sha256()
    for rel, _mtime, _size in snapshot:
        try:
            blob = (root / rel).read_bytes()
        except OSError:
            continue  # vanished since the snapshot: treated as absent
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update(blob)
    version = digest.hexdigest()[:16]
    _code_cache = ((root, snapshot), version)
    return version


def point_key(
    experiment: str, params: Mapping[str, Any], code: str | None = None
) -> str:
    """Content address of one sweep point.

    Args:
        experiment: sweep name (cache namespace).
        params: the point's parameters (JSON-able mapping).
        code: code-version override; defaults to :func:`code_version`.
            Tests pass explicit values to simulate code changes.
    """
    payload = (
        f'{{"code":"{code if code is not None else code_version()}",'
        f'"experiment":{json.dumps(experiment)},'
        f'"params":{canonical_params(params)}}}'
    )
    return hashlib.sha256(payload.encode()).hexdigest()
