"""Print, regenerate or compare the sha256 digest of every pipeline output.

    python3 perfbench/digests.py              # compare with perfbench/digests.json
    python3 perfbench/digests.py --write      # regenerate perfbench/digests.json
    python3 perfbench/digests.py --small      # self-test sizes (printed only)

Run from the root of a checkout. Each workload's inputs are generated from
``--seed`` (default 1), every pipeline runs once at ``--workers 1`` and once
at ``--workers $(nproc)``, and the two digests must agree. A change that
claims to keep the program's outputs byte for byte runs this script before
and after: the comparison exits 1 on the first differing digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STORE = Path(__file__).with_name("digests.json")


def digests(cli, root: Path, workload: str, seed: int, small: bool) -> tuple[dict, list[str]]:
    work = root / ".perfbench_work" / f"digests-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = WORKLOADS[workload].generate(work, seed, small=small)
        out: dict[str, str] = {}
        problems = []
        for workers in (1, harness.worker_count()):
            for result in harness.run_pass(cli, plan.pipelines + plan.rss_extra, work, workers):
                if result.failed:
                    problems.append(f"{workload} {result.name}: {result.failed} records failed")
                for name, digest in result.digests.items():
                    if out.setdefault(name, digest) != digest:
                        problems.append(f"{workload} {name}: --workers {workers} differs")
        return out, problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--write", action="store_true", help="store as the new reference")
    args = parser.parse_args()
    root = Path.cwd()
    try:
        cli = harness.import_rxnkit(root)
    except (harness.BenchError, ImportError) as exc:
        print(f"digests: {exc}", file=sys.stderr)
        return 2
    found: dict[str, dict] = {}
    problems: list[str] = []
    for workload in sorted(WORKLOADS):
        found[workload], bad = digests(cli, root, workload, args.seed, args.small)
        problems += bad
        for name, digest in sorted(found[workload].items()):
            print(f"{workload:14} {name:24} {digest}")
    key = f"seed {args.seed}" + (" small" if args.small else "")
    stored = json.loads(STORE.read_text()) if STORE.is_file() else {}
    if args.write:
        stored[key] = found
        STORE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    elif key in stored:
        problems += [f"{w} {name}: {digest} differs from the stored {stored[key][w].get(name)}"
                     for w, table in found.items() for name, digest in table.items()
                     if stored[key].get(w, {}).get(name) != digest]
    for line in problems:
        print(f"digests: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
