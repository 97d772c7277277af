"""Running rxnkit pipelines through the public CLI entry point, one child each.

The program is imported from ``<root>/src`` of the checkout the benchmark
runs in, never from an installed copy, so the figures belong to the code
next to the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# CPU seconds are reported at the speed of a machine on which the reference
# loop takes this long; on the 2-CPU machine of the figures in README.md
# (Python 3.11.7) it takes 0.05-0.07 s.
REFERENCE_S = 0.06
# What one fresh interpreter does before it can handle its first record.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import rxnkit.cli; "
    "from rxnkit.fingerprint import load_key_table; load_key_table()"
)


class BenchError(Exception):
    """The benchmark cannot run here; it prints no result."""


def import_rxnkit(root: Path):
    """Import ``rxnkit.cli`` from ``root/src`` or raise BenchError."""
    src = (root / "src").resolve()
    if not (src / "rxnkit" / "cli.py").is_file():
        raise BenchError(f"no rxnkit sources under {src}")
    sys.path.insert(0, str(src))
    import rxnkit
    import rxnkit.cli

    if Path(rxnkit.__file__).resolve().parent != src / "rxnkit":
        raise BenchError(f"rxnkit was imported from {rxnkit.__file__}, not {src}")
    return rxnkit.cli


def _reference_loop() -> float:
    import molgen

    rng = random.Random("reference")
    start = time.process_time()
    for _ in range(100):
        g, _ = molgen.druglike(rng)
        molgen.formula_of_smiles(molgen.write_smiles(g, rng))
    return time.process_time() - start


def reference_seconds() -> float:
    """CPU seconds of a fixed, rxnkit-free loop of object-heavy Python.

    Other tenants of a shared machine change its CPU speed by 10-30% over
    minutes, and the loop's CPU time moves with them. It runs in a child
    forked for it, like every CLI call, so the benchmark's own heap does not
    slow it.
    """
    return in_child(_reference_loop, "the reference loop")


def steal_seconds() -> float:
    """Seconds the hypervisor has taken from this process's CPUs, summed over them.

    Read from ``/proc/stat`` (clock ticks); 0 where that file or its steal
    column is missing.
    """
    cpus = {f"cpu{i}" for i in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = sum(int(fields[8]) for fields in map(str.split, fh)
                        if fields and fields[0] in cpus and len(fields) > 8)
    except OSError:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def worker_count() -> int:
    """The machine's usable CPUs, as `nproc` reports them."""
    return len(os.sched_getaffinity(0))


@dataclass
class Pipeline:
    """One CLI invocation of a workload's fixed list.

    ``argv`` names files relative to the work directory: inputs under
    ``in/``, outputs under ``out/``. Relative names keep the outputs (an
    eval report records its details path) the same in every checkout.
    """

    name: str
    argv: list[str]
    records: int
    outputs: list[str]


@dataclass
class PipelineResult:
    name: str
    seconds: float
    records: int
    failed: int
    digests: dict[str, str] = field(default_factory=dict)
    stderr: str = ""
    cpu_seconds: float = 0.0  # CPU time of the call and of any processes it waited for
    steal_seconds: float = 0.0  # time taken from this process's CPUs during the call


def run_pipeline(cli, pipe: Pipeline, work: Path, workers: int, tracer=None) -> PipelineResult:
    """Run one pipeline in ``work``; record errors and a nonzero exit count as failed.

    The call runs in a child forked for it alone, from a process that has
    imported rxnkit but runs none of its code. So each call starts as a fresh
    CLI process would: nothing one call memoizes or leaves on the heap
    reaches the next, whatever the inputs share. The child times
    ``cli.main`` itself (wall time, CPU time and the CPUs' steal time), so the
    fork is not timed. A ``tracer`` installed
    before the call gets the child's spans merged into it.
    """
    for d in ("out", "check"):
        (work / d).mkdir(parents=True, exist_ok=True)

    def call():
        if tracer is not None:
            tracer.clear()  # the parent keeps what earlier calls recorded
        try:
            code, times, text = _call_main(cli, pipe, work, workers)
        except BaseException:
            return None, (0.0, 0.0, 0.0), traceback.format_exc(), None
        return code, times, text, tracer.state() if tracer is not None else None

    code, (seconds, cpu, steal), text, state = in_child(call, f"running {pipe.name}")
    if tracer is not None and state is not None:
        tracer.merge(state)
    failed = 0
    if code != 0:
        failed = pipe.records
    else:
        for line in text.splitlines():
            try:
                report = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(report, dict):
                failed += int(report.get("count", 0))
    digests = {name: sha256_file(work / "out" / name) for name in pipe.outputs}
    return PipelineResult(pipe.name, seconds, pipe.records, min(failed, pipe.records),
                          digests, text, cpu, steal)


def in_child(fn, what: str):
    """``fn()``, called in a child forked for it alone and sent back pickled."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: run, report, and leave without any cleanup of the parent's
        os.close(read_end)
        try:
            payload = pickle.dumps(fn())
        except BaseException:
            traceback.print_exc()
            payload = b""
        with os.fdopen(write_end, "wb") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if not payload or status != 0:
        raise BenchError(f"the child {what} ended with status {status} and no result")
    return pickle.loads(payload)


def _call_main(cli, pipe: Pipeline, work: Path,
               workers: int) -> tuple[int, tuple[float, float, float], str]:
    """Exit code, (wall, CPU, steal seconds) and standard error of one ``cli.main`` call."""
    err = io.StringIO()
    os.chdir(work)
    steal = steal_seconds()
    cpu = cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(pipe.argv + ["--workers", str(workers)])
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    wall = time.perf_counter() - start
    return code, (wall, cpu_seconds() - cpu, steal_seconds() - steal), err.getvalue()


def run_pass(cli, pipes: list[Pipeline], work: Path, workers: int) -> list[PipelineResult]:
    return [run_pipeline(cli, p, work, workers) for p in pipes]


def sha256_file(path: Path) -> str:
    if not path.is_file():
        return "missing"
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path: Path, records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
