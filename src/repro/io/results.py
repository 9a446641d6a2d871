"""Serialization of simulation results and benchmark tables."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.simulator import QAOAResult
from .locking import FileLock

__all__ = [
    "result_to_dict",
    "save_result",
    "load_result_dict",
    "save_rows",
    "load_rows",
    "append_jsonl",
    "read_jsonl",
    "write_json_atomic",
]


def result_to_dict(result: QAOAResult, *, include_statevector: bool = False) -> dict:
    """JSON-serializable summary of a :class:`~repro.core.simulator.QAOAResult`."""
    payload = {
        "expectation": result.expectation(),
        "ground_state_probability": result.ground_state_probability(),
        "norm": result.norm(),
        "p": result.p,
        "angles": result.angles.tolist(),
        "optimum": result.cost.optimum,
        "dim": result.cost.dim << result.cost.flip_pairs,  # the full space's
    }
    if include_statevector:
        payload["statevector_real"] = np.real(result.statevector).tolist()
        payload["statevector_imag"] = np.imag(result.statevector).tolist()
    return payload


def save_result(path: str | Path, result: QAOAResult, *, include_statevector: bool = False) -> Path:
    """Write a result summary to a JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result_to_dict(result, include_statevector=include_statevector), handle, indent=2)
    return path


def load_result_dict(path: str | Path) -> dict:
    """Load a result summary written by :func:`save_result`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_rows(path: str | Path, rows: Sequence[dict]) -> Path:
    """Write benchmark table rows (list of dicts) to a JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(list(rows), handle, indent=2, default=float)
    return path


def load_rows(path: str | Path) -> list[dict]:
    """Load benchmark table rows written by :func:`save_rows`."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list):
        raise ValueError("expected a list of rows")
    return data


def append_jsonl(
    path: str | Path, records: Sequence[dict], *, lock: FileLock | None = None
) -> Path:
    """Append one JSON object per line to ``path``, fsyncing before returning.

    This is the append-only persistence primitive behind the experiment run
    store: records survive a crash as soon as the call returns, and a partial
    final line (torn write) is tolerated by :func:`read_jsonl`.

    If the file ends in a torn line from a previous crashed append, that
    partial line is truncated away first — otherwise the new record would
    concatenate onto it and corrupt both.  When several *processes* may append
    to the same file, pass the shared ``lock``: the truncation check is a
    read-then-truncate on the whole file, so unlocked it can destroy another
    writer's in-flight (not yet newline-terminated) bytes.  ``FileLock`` is
    reentrant per object, so passing a lock the caller already holds is safe.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with lock if lock is not None else nullcontext():
        if path.exists():
            with open(path, "rb") as tail:
                size = tail.seek(0, os.SEEK_END)
                if size:
                    tail.seek(size - 1)
                    if tail.read(1) != b"\n":
                        # Rare torn tail: only now pay for a full read to find
                        # the last complete line (appends stay O(1) in size).
                        tail.seek(0)
                        os.truncate(path, tail.read().rfind(b"\n") + 1)
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, default=float) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
    return path


def read_jsonl(path: str | Path) -> list[dict]:
    """Read records written by :func:`append_jsonl`.

    A torn final line (a crash mid-append leaves partial bytes without a
    trailing newline) is silently dropped; corruption anywhere else —
    including a damaged but newline-terminated final record — raises
    ``ValueError`` rather than silently losing data.
    """
    path = Path(path)
    if not path.exists():
        return []
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.splitlines()
    ends_complete = text.endswith("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1 and not ends_complete:
                break  # torn final line from an interrupted append
            raise ValueError(f"corrupt JSONL record at {path}:{i + 1}") from None
    return records


def write_json_atomic(path: str | Path, payload: dict) -> Path:
    """Write a JSON document via a temp file + rename so readers never see a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=float)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path
