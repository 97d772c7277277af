"""JSONL helpers, atomic output and the order-stable parallel map."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rxnkit._jsonl import (
    CHUNK,
    TEMP_SUFFIX,
    Workers,
    atomic_output,
    dumps,
    iter_lines,
    parallel_map,
    read_record,
    write_jsonl,
)

SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def _pid_after_a_nap(item):
    time.sleep(0.2)
    return item, os.getpid()


def _square(item):
    return item * item


def _negate(item):
    return -item


def _pid_slow_first(item):
    if item == 0:
        time.sleep(1.0)
    return os.getpid()


class _CountedSquare:
    """_square, counting in this process how often it is pickled."""

    reduced = 0

    def __reduce__(self):
        type(self).reduced += 1
        return _CountedSquare, ()

    def __call__(self, item):
        return item * item


class TestParallelMap:
    def test_small_input_is_shared_by_the_workers(self):
        with Workers(2) as workers:
            results = list(parallel_map(_pid_after_a_nap, [0, 1, 2], workers))
        assert [item for item, _ in results] == [0, 1, 2]
        assert len({pid for _, pid in results}) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2, 127, 128, 129, 1000])
    def test_results_in_input_order(self, workers, n):
        with Workers(workers) as pool:
            assert list(parallel_map(_square, iter(range(n)), pool)) == [i * i for i in range(n)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_read_ahead_is_bounded(self, workers):
        pulled = 0

        def source():
            nonlocal pulled
            for i in range(3000):
                pulled += 1
                yield i

        ahead = []
        with Workers(workers) as pool:
            for index, result in enumerate(parallel_map(_square, source(), pool)):
                assert result == index * index
                ahead.append(pulled - index)
        assert len(ahead) == 3000
        assert max(ahead) <= 2 * workers * CHUNK

    def test_no_pool_until_one_is_needed(self, monkeypatch):
        made = []
        monkeypatch.setattr(multiprocessing, "Process", lambda *a, **k: made.append(a))
        with Workers(2) as pool:
            assert list(parallel_map(_square, [3], pool)) == [9]
        with Workers(1) as pool:
            assert list(parallel_map(_square, range(300), pool))[-1] == 299 * 299
        assert made == []

    def test_close_ends_the_workers(self):
        with Workers(2) as pool:
            assert list(parallel_map(_square, range(10), pool))[-1] == 81
            assert len(multiprocessing.active_children()) == 2
        assert multiprocessing.active_children() == []

    def test_an_error_lets_the_chunks_in_flight_finish(self, monkeypatch):
        """An error ends the workers once they have sent what they hold; only
        an interrupt terminates them."""

        def terminate(worker):
            raise AssertionError("terminate() with chunks in flight")

        monkeypatch.setattr(multiprocessing.Process, "terminate", terminate)
        with pytest.raises(RuntimeError):
            with Workers(2) as pool:
                results = parallel_map(_square, range(1000), pool)
                assert next(results) == 0
                raise RuntimeError("the consumer fails")
        assert multiprocessing.active_children() == []

    def test_a_slow_first_record_leaves_the_rest_to_the_other_worker(self):
        # 12 items are dealt as chunks of 3, 3, 2, 1, 1, 1, 1: while the
        # first worker naps on item 0, the other takes the next three
        # chunks, up to the 2 * n chunks that may be out or held.
        with Workers(2) as workers:
            pids = list(parallel_map(_pid_slow_first, range(12), workers))
        assert len(set(pids[3:9])) == 1
        assert pids[3] != pids[0]

    def test_the_function_is_pickled_once_per_worker_per_map(self):
        _CountedSquare.reduced = 0
        with Workers(2) as workers:
            for maps in (1, 2):
                got = list(parallel_map(_CountedSquare(), range(1000), workers))
                assert got == [i * i for i in range(1000)]
                assert _CountedSquare.reduced == 2 * maps

    @pytest.mark.parametrize("func, error, then", [
        ("stop", "Stop", "[3, 2, 1]"), ("unpicklable", "PicklingError", "[3, 2, 1]"),
        ("unloadable", "TypeError", "[3, 2, 1]"), ("dies", "ChildProcessError", "BrokenPipeError")])
    def test_a_failed_chunk_raises_in_the_caller(self, func, error, then):
        """A row function that raises BaseException, whose result cannot be
        pickled or unpickled, or that ends its worker, fails the map; a child
        process bounds the wait."""
        script = (
            "import multiprocessing, os, sys\n"
            "from rxnkit._jsonl import Workers, parallel_map\n"
            "class Stop(BaseException): pass\n"
            "def stop(item):\n"
            "    if item == 5: raise Stop(item)\n"
            "    return item\n"
            "def unpicklable(item):\n"
            "    return (lambda: item) if item == 5 else item\n"
            "class Odd(Exception):\n"
            "    def __init__(self, a, b): super().__init__(a)\n"
            "def unloadable(item):  # Odd(5, 0) pickles, but Odd(5) cannot be made\n"
            "    if item == 5: raise Odd(item, 0)\n"
            "    return item\n"            "def dies(item):\n"
            "    if item == 5: os._exit(3)\n"
            "    return item\n"
            "workers = Workers(2)\n"
            "try:\n"
            "    list(parallel_map(globals()[sys.argv[1]], range(300), workers))\n"
            "except BaseException as exc:\n"
            "    print(type(exc).__name__)\n"
            "try:  # the workers still serve, but for one that died\n"
            "    print(list(parallel_map(abs, range(-3, 0), workers)))\n"
            "except OSError as exc:\n"
            "    print(type(exc).__name__)\n"
            "workers.close()\n"
            "print(len(multiprocessing.active_children()))\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", script, func], env=SRC_ENV,
                                start_new_session=True, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        try:
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the workers with it
                proc.wait()
        assert out == f"{error}\n{then}\n0\n"

    def test_a_map_closed_early_leaves_no_result_to_the_next(self):
        with Workers(2) as workers:
            first = parallel_map(_square, range(1000), workers)
            assert next(first) == 0
            first.close()  # chunks are still out
            assert list(parallel_map(_negate, range(300), workers)) == [-i for i in range(300)]
            assert list(parallel_map(_negate, range(5), workers)) == [-i for i in range(5)]

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_other_start_methods_give_the_fork_results(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        sizes = [0, 1, 2, 12, 129, 300]
        items = [{"n": i, "s": "x" * (i % 7)} for i in range(max(sizes))]
        with Workers(2) as workers:
            want = [list(parallel_map(dumps, items[:n], workers)) for n in sizes]
        child = (
            "import json, multiprocessing, sys\n"
            "from rxnkit._jsonl import Workers, dumps, parallel_map\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "items, sizes = json.loads(sys.argv[2])\n"
            "with Workers(2) as workers:\n"
            "    print(json.dumps([list(parallel_map(dumps, items[:n], workers))"
            " for n in sizes]))\n"
        )
        done = subprocess.run([sys.executable, "-c", child, method, json.dumps([items, sizes])],
                              env=SRC_ENV, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == want


def _record_or_error(line):
    try:
        return read_record(line)
    except ValueError as exc:
        return str(exc)


class TestReadRecord:
    def test_a_line_that_is_not_utf8_is_one_bad_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"a": 1}\r\n\n {"b": "\xff\xfe"}\r{"c": "\xc3\xa9"}\n\xe9\n{"d": 4}')
        rows = list(iter_lines(path))
        assert [lineno for lineno, _ in rows] == [1, 3, 4, 5, 6]
        assert [_record_or_error(line) for _, line in rows] == [
            {"a": 1}, "not UTF-8: byte 0xff at character 9", {"c": "\u00e9"},
            "not UTF-8: byte 0xe9 at character 1", {"d": 4}]

    def test_a_line_that_holds_no_object(self):
        assert [_record_or_error(line) for line in ['  [1, 2]\n', '\t{"a": \n', ' 5']] == [
            "record is not an object",
            "bad JSON: Expecting value: line 1 column 6 (char 5)",
            "record is not an object"]


class TestDumps:
    @pytest.mark.parametrize("obj", [
        {"text": "caf\u00e9 \u6c34 \U0001f9ea \ud800", "esc": "\"\\\n\t\x00"},
        [0.1, -0.0, 1e308, 1.5e-320, float("nan"), float("inf"), float("-inf"), 3, True, None],
        {"b": [{"z": [], "a": {}}, [[1, [2]], "x"]], "a": {"d": {"c": [None]}}},
        {10: "ten", 2: "two", -1: [1, {3: "c", 1: "a"}]},
        "plain", 7, None,
    ])
    def test_equals_compact_sorted_json_dumps(self, obj):
        assert dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestAtomicOutput:
    def test_replaces_the_file_on_success(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text("old\n")
        write_jsonl(out, [{"b": 1, "a": 2}])
        assert out.read_text() == '{"a":2,"b":1}\n'

    def test_failure_keeps_the_old_bytes(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text("old\n")

        def rows():
            yield {"id": 1}
            raise RuntimeError("record 2")

        with pytest.raises(RuntimeError):
            write_jsonl(out, rows())
        assert out.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_stdout_only_on_success(self, tmp_path, capsys):
        with atomic_output(None) as fh:
            fh.write("row\n")
            assert capsys.readouterr().out == ""
        assert capsys.readouterr().out == "row\n"
        with pytest.raises(RuntimeError):
            with atomic_output(None) as fh:
                fh.write("half\n")
                raise RuntimeError
        assert capsys.readouterr().out == ""
        assert not list(tmp_path.glob(f"*{TEMP_SUFFIX}"))
