"""JSONL helpers and the order-stable parallel map."""

import os
import time

from rxnkit._jsonl import parallel_map


def _pid_after_a_nap(item):
    time.sleep(0.2)
    return item, os.getpid()


class TestParallelMap:
    def test_small_input_is_shared_by_the_workers(self):
        results = list(parallel_map(_pid_after_a_nap, [0, 1, 2], 2))
        assert [item for item, _ in results] == [0, 1, 2]
        assert len({pid for _, pid in results}) == 2
