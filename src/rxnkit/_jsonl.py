"""JSONL streaming helpers and the order-stable parallel map."""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator


class SchemaError(ValueError):
    """An input line does not follow the documented record schema."""

    def __init__(self, path: str, lineno: int, message: str) -> None:
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno
        self.message = message


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict | SchemaError]]:
    """Yield (lineno, record) pairs; malformed lines yield a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
                yield lineno, SchemaError(str(path), lineno, f"bad JSON: {exc}")
                continue
            if not isinstance(record, dict):
                yield lineno, SchemaError(str(path), lineno, "record is not an object")
                continue
            yield lineno, record


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path: str | Path | None, records: Iterable[dict]) -> int:
    """Write records one per line (stdout when path is None); returns count."""
    count = 0
    if path is None:
        for record in records:
            sys.stdout.write(dumps(record) + "\n")
            count += 1
        return count
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(dumps(record) + "\n")
            count += 1
    return count


def write_json(path: str | Path | None, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def parallel_map(func: Callable, items: list, workers: int) -> Iterator:
    """Map preserving input order; a process pool when workers > 1.

    Items go to the workers in chunks of up to 64, and an input of fewer
    than 64 items per worker is split evenly, so every worker gets a share.
    Results are identical for any worker count: the pool's ordered imap
    plus pure per-record functions make output independent of scheduling.
    """
    if workers <= 1 or len(items) <= 1:
        yield from map(func, items)
        return
    chunksize = min(64, math.ceil(len(items) / workers))
    with multiprocessing.Pool(processes=workers) as pool:
        yield from pool.imap(func, items, chunksize=chunksize)
