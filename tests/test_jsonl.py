"""JSONL helpers, atomic output and the order-stable parallel map."""

import json
import multiprocessing
import multiprocessing.pool
import os
import time

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


def _pid_after_a_nap(item):
    time.sleep(0.2)
    return item, os.getpid()


def _square(item):
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
        monkeypatch.setattr(multiprocessing, "Pool", lambda *a, **k: made.append(a))
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
        """Killing a worker that is sending a result can hang Pool.terminate()."""

        def terminate(pool):
            raise AssertionError("terminate() with chunks in flight")

        monkeypatch.setattr(multiprocessing.pool.Pool, "terminate", terminate)
        with pytest.raises(RuntimeError):
            with Workers(2) as pool:
                results = parallel_map(_square, range(1000), pool)
                assert next(results) == 0
                raise RuntimeError("the consumer fails")
        assert multiprocessing.active_children() == []


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
