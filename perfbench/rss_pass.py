"""One 1-worker pass of a workload in a fresh process; prints its peak RSS.

    python3 perfbench/rss_pass.py ROOT WORK PIPELINES_JSON

Each pipeline runs in a child of its own, as every CLI call is a process of
its own. Prints one JSON line: peak_rss_mb, the largest peak resident set of
those children (from getrusage), the output digests and the number of failed
records.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main() -> int:
    root, work, spec = (Path(a) for a in sys.argv[1:4])
    cli = harness.import_rxnkit(root)
    pipes = [harness.Pipeline(**p) for p in json.loads(spec.read_text())]
    results = harness.run_pass(cli, pipes, work, 1)
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "peak_rss_mb": peak_kib / 1024,
        "digests": {n: d for r in results for n, d in r.digests.items()},
        "failed": sum(r.failed for r in results),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
