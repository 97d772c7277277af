"""JSONL streaming helpers, atomic output and the order-stable parallel map."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import pickle
import shutil
import stat
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, suppress
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

CHUNK = 64  # items per chunk sent to a worker
TEMP_SUFFIX = ".rxnkit-tmp"  # the name ending of an output still being written


def iter_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (lineno, line) for each line that is not blank.

    Bytes that are not UTF-8 come through as surrogates (surrogateescape),
    so such a line reaches read_record, which rejects it.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def read_record(line: str) -> dict:
    """The JSON object a line holds; a ValueError says why it holds none.

    No decoded text holds a surrogate, so a line that is not UTF-8 is found
    by failing to encode it again.
    """
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ValueError(f"not UTF-8: byte 0x{byte:02x} at character {exc.start + 1}") from None
    try:
        record = loads(line.strip())
    except ValueError as exc:
        raise ValueError(f"bad JSON: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    return record


def record_id(record: dict) -> str | int:
    """The id of a record where the id is a key: a JSON string or integer, as
    given, so 1 and "1" are different ids. KeyError('id') when it is missing."""
    rid = record["id"]
    if type(rid) not in (str, int):  # bool is not an id
        raise ValueError(f"id must be a string or an integer, got {dumps(rid)}")
    return rid


def id_order(rid: str | int) -> tuple[bool, str | int]:
    """The sort key of record ids: integers in numeric order, then strings."""
    return isinstance(rid, str), rid


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, separators=(",", ":")), from one encoder."""
    return _ENCODER.encode(obj)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("a number that is not finite is not JSON")
    return value


# json.loads from one decoder that refuses NaN and Infinity, and 1e999 (read
# as infinity): RFC 8259 has no such values, and a record holding one would
# be written back out as a line that is not JSON.
loads = json.JSONDecoder(parse_constant=_finite, parse_float=_finite).decode


def _staged_target(path: str | Path) -> str | None:
    """The regular file to replace for path (through its symlinks), or None.

    None means path names something else that exists (a device such as
    /dev/null, a FIFO, /dev/stdout on a pipe), which is written in place.
    """
    real = os.path.realpath(path)
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:  # a dangling symlink is created at its target
        return real
    # /dev/stdout on a deleted file resolves to a name that is not that file
    return real if regular and os.path.exists(real) and os.path.samefile(path, real) else None


@contextmanager
def atomic_output(path: str | Path | None) -> Iterator[TextIO]:
    """A text file that becomes path (stdout when None) only if the block succeeds.

    The text goes to a temporary file beside path (in the temporary directory
    for stdout). When the block ends without error the file is renamed over
    path, or copied to stdout; either way it is then gone, so a failed run
    leaves path as it was and writes nothing to stdout. A symlinked path is
    followed, and a replaced file keeps its mode (and its owner, where the
    user may set it). A path that exists but is not a regular file is
    written in place.
    """
    target = None if path is None else _staged_target(path)
    if path is not None and target is None:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    directory, name = os.path.split(target) if target else (tempfile.gettempdir(), "stdout")
    temp = Path(directory, f".{name}.{os.getpid()}-{os.urandom(4).hex()}{TEMP_SUFFIX}")
    try:
        fh = open(temp, "x", encoding="utf-8")
    except OSError as exc:  # name the output, not its temporary file
        raise OSError(f"cannot write {path or 'stdout'}: {exc.strerror}") from None
    try:
        with fh:
            if target and os.path.exists(target):
                old = os.stat(target)
                with suppress(PermissionError):
                    os.chown(fh.fileno(), old.st_uid, old.st_gid)
                os.chmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            yield fh
        if target is not None:
            os.replace(temp, target)
            return
        with open(temp, encoding="utf-8") as fh:
            shutil.copyfileobj(fh, sys.stdout)
    finally:
        temp.unlink(missing_ok=True)


def write_jsonl(path: str | Path | None, records: Iterable[dict]) -> None:
    """Write records one per line (stdout when path is None)."""
    with atomic_output(path) as fh:
        for record in records:
            fh.write(dumps(record) + "\n")


def write_json(path: str | Path | None, obj) -> None:
    with atomic_output(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _exit_with_parent() -> None:
    """A thread ends this worker once the parent it started with (the CLI, or
    a fork server that ends with it) has died."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _serve(pipe) -> None:
    """A worker: func over the items of each chunk it is sent, until it is sent None.

    The first chunk of a map comes with the map's func, which the worker keeps
    for the chunks after it. What func raises, or a result that cannot be
    pickled, goes back in place of the chunk's results, to be raised there.
    """
    _exit_with_parent()
    func = None
    while (task := pipe.recv()) is not None:
        sent, chunk = task
        if sent is not None:
            func = sent
        try:
            reply = True, [func(item) for item in chunk]
        except BaseException as exc:  # re-raised by the caller of parallel_map
            reply = False, exc
        try:
            pipe.send(reply)
        except Exception as exc:  # send pickles first, so nothing was sent
            pipe.send((False, pickle.PicklingError(f"a result could not be sent back: {exc!r}")))


class Workers:
    """The worker processes of a run: n of them, started on first use.

    With n == 1 no process is started and parallel_map runs in this one.
    Each worker has one pipe, which the calling thread alone drives: there
    is no helper thread. close() ends and joins the workers, so no worker
    outlives its owner, and a worker whose owner dies without closing it
    ends itself.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self._pipes: dict = {}  # this end of each worker's pipe -> the worker's Process
        self._busy: dict = {}  # pipe -> sequence number of the chunk its worker holds

    def _idle_pipes(self) -> list:
        """Every worker's pipe, the workers started if there are none, and no
        chunk left out (the results of a map closed early are dropped)."""
        if not self._pipes:
            for _ in range(self.n):
                here, there = multiprocessing.Pipe()
                worker = multiprocessing.Process(target=_serve, args=(there,), daemon=True)
                worker.start()
                there.close()
                self._pipes[here] = worker
        self._drain()
        return list(self._pipes)

    def _drain(self) -> None:
        for pipe in self._busy:
            with suppress(EOFError, OSError):
                pipe.recv_bytes()  # dropped unread
        self._busy.clear()

    def map_chunks(self, func: Callable, chunks: Iterator[list]) -> Iterator:
        """func over the items of each chunk, in chunk order, on the workers.

        A chunk goes to an idle worker, with func if that worker has not had
        it in this map. At most 2 * n chunks are out or held here before
        their results are yielded. Before each chunk's results are yielded
        the replies that have arrived are taken, so a worker that is done
        gets its next chunk first. Only an idle worker is sent a chunk, so
        neither end of a pipe can block the other. One map runs at a time.
        """
        from multiprocessing.connection import wait

        idle = self._idle_pipes()
        fresh = set(idle)  # the workers without func
        replies = {}  # sequence number -> (ok, results or exception) not yet yielded
        sent = yielded = 0
        while True:
            while idle and sent - yielded < 2 * self.n:
                chunk = next(chunks, None)
                if chunk is None:
                    break
                pipe = idle.pop()
                pipe.send((func if pipe in fresh else None, chunk))
                fresh.discard(pipe)
                self._busy[pipe] = sent
                sent += 1
            if yielded == sent:
                return
            ready = wait(list(self._busy), 0 if yielded in replies else None) if self._busy else []
            for pipe in ready:
                sequence = self._busy.pop(pipe)  # not busy, even if recv fails
                try:
                    replies[sequence] = pipe.recv()
                except EOFError:
                    raise ChildProcessError("a worker ended before it sent its results") from None
                idle.append(pipe)
            if ready:
                continue
            ok, results = replies.pop(yielded)
            yielded += 1
            if not ok:
                raise results
            yield from results

    def close(self, kill: bool = False) -> None:
        """Let the workers finish the chunks they hold, then end them.

        Each is sent None, as with fork every worker holds this end of the
        pipes of the workers started before it, so no pipe reads as closed.
        A result still out is received and dropped, since a worker blocked
        sending it would never read the None. kill=True (an interrupt)
        terminates them at once.
        """
        pipes, self._pipes = self._pipes, {}
        for pipe, worker in pipes.items():
            if kill:
                worker.terminate()
            else:
                with suppress(OSError):
                    pipe.send(None)
        if not kill:
            self._drain()
        self._busy.clear()
        for pipe, worker in pipes.items():
            worker.join()
            pipe.close()

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.close(kill=exc_type is not None and not issubclass(exc_type, Exception))


def _guided(items: list, parts: int) -> Iterator[list]:
    """items in chunks of ceil(remaining / parts), at least one item each
    (guided self-scheduling): large chunks first, single items last."""
    start = 0
    while start < len(items):
        end = start + math.ceil((len(items) - start) / parts)
        yield items[start:end]
        start = end


def parallel_map(func: Callable, items: Iterable, workers: Workers) -> Iterator:
    """func over items, in input order, on the workers when there are several.

    The input is pulled as the results are consumed, so memory stays bounded
    whatever its length. Up to n * CHUNK items are read ahead: an input that
    ends within them is dealt in guided chunks of ceil(remaining / (2 * n))
    items, so every worker gets a share and none waits long for the last;
    a longer one goes out in chunks of CHUNK. At most 2 * n chunks are out
    or held, so no more than 2 * n * CHUNK items are pulled ahead of the
    result yielded. Results are identical for any worker count, as func is
    a pure function of its item.
    """
    items = iter(items)
    if workers.n == 1:
        yield from map(func, items)
        return
    head = list(islice(items, workers.n * CHUNK))
    if len(head) <= 1:
        yield from map(func, head)
        return
    if len(head) < workers.n * CHUNK:
        chunks = _guided(head, 2 * workers.n)
    else:
        stream = chain(head, items)
        chunks = iter(lambda: list(islice(stream, CHUNK)), [])
    yield from workers.map_chunks(func, chunks)
