"""rxnkit benchmark: seeded workloads through the public CLI entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload druglike --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of that checkout and driven through
``rxnkit.cli.main``, each call in a child forked for it alone, in whole
rounds of the workload's fixed pipeline list, alternating ``--workers 1``
and ``--workers $(nproc)``. Every output is checked and every round's output
digests must equal the first round's. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (``--trace 0``) or the per-layer metrics of a traced 1-worker pass
(``--trace 1``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from trace import TARGETS, Tracer, growth_exponent  # noqa: E402
from workloads import WORKLOADS, SizeLadder  # noqa: E402

SETUP_FIRST = 4  # set-up samples before the first pass; one more follows every pair
PIPELINES = ("canon", "validate", "scaffold", "fp_circular", "fp_path", "fp_key", "sim",
             "split", "leakcheck", "interleave", "nameconv", "render", "eval_gen")
FAMILIES = SizeLadder.FAMILIES
E2E_UNITS = {"setup_s": "s", "rec_per_s_1w": "1/s", "rec_per_s_nw": "1/s", "peak_rss_mb": "MB"}

# Spans each workload must reach; a traced pass that records no call to one
# of them has lost a layer and fails.
USES = {
    "druglike": ("cli.main", "parser.parse_draft", "perception.molecule_from_draft",
                 "model._non_bridge_edges", "canon.canonical_ranks", "canon.canonical_smiles",
                 "fingerprint.circular", "fingerprint.path", "fingerprint.key",
                 "fingerprint.serialize", "substructure.find_matches",
                 "scaffold.murcko_scaffold"),
    "size_ladder": ("cli.main", "parser.parse_draft", "perception.parse_smiles",
                    "perception.molecule_from_draft", "model._non_bridge_edges",
                    "canon.canonical_ranks", "canon.canonical_smiles", "fingerprint.circular",
                    "fingerprint.serialize", "scaffold.murcko_scaffold"),
    "dataset_build": ("cli.main", "parser.parse_draft", "perception.parse_smiles",
                      "perception.molecule_from_draft", "canon.canonical_ranks",
                      "canon.canonical_smiles", "fingerprint.circular", "fingerprint.path",
                      "fingerprint.key", "fingerprint.tanimoto",
                      "substructure.find_matches", "scaffold.max_similarity_to_set",
                      "scaffold.resample_test_set", "scaffold.detect_leakage",
                      "reaction.parse_reaction", "reaction.reaction_key",
                      "corpus.build_interleaved", "corpus.build_name_conversion",
                      "templates.render", "metrics.eval_generation", "metrics.levenshtein"),
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    us = [
        "parser.parse_draft.us", "perception.molecule_from_draft.us",
        "canon.canonical_ranks.us", "canon.write.us", "fingerprint.circular.us",
        "fingerprint.path.us", "fingerprint.key.us", "fingerprint.serialize.us",
        "fingerprint.tanimoto.us_per_pair", "substructure.find_matches.us",
        "scaffold.murcko_scaffold.us", "scaffold.max_similarity_to_set.us_per_ref",
        "reaction.parse_reaction.us", "reaction.reaction_key.us",
        "corpus.build_interleaved.us", "corpus.build_name_conversion.us",
        "templates.render.us", "metrics.levenshtein.us",
    ]
    spec = [("cli.main.self_us_per_rec", "us", "lower")]
    spec += [(f"jsonl.parallel_map.scaling.{p}", "ratio", "higher") for p in PIPELINES]
    spec += [(name, "us", "lower") for name in us]
    spec += [
        ("parser.parse_draft.calls_per_rec", "count", "lower"),
        ("model.ring_scans_per_mol", "count", "lower"),
        ("fingerprint.tanimoto.pairs", "count", "lower"),
        ("substructure.find_matches.calls_per_mol", "count", "lower"),
        ("metrics.parses_per_pair", "count", "lower"),
        ("scaffold.resample_test_set.s", "s", "lower"),
        ("scaffold.detect_leakage.s", "s", "lower"),
        ("metrics.eval_generation.ms_per_pair", "ms", "lower"),
    ]
    spec += [(f"perception.parse_smiles.growth_exp.{f}", "exponent", "lower") for f in FAMILIES]
    spec += [(f"canon.canonical_ranks.growth_exp.{f}", "exponent", "lower") for f in FAMILIES]
    return spec


class SetupTimer:
    """CPU time of a fresh interpreter importing the CLI and loading the key table.

    Samples are spread over the run (a few at the start, one after every
    pair of passes) so that one burst of load on the machine cannot set the
    median. The run reports it at the reference machine's speed, as it does
    the pipelines.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.times: list[float] = []

    def sample(self) -> None:
        start = harness.cpu_seconds()
        subprocess.run([sys.executable, "-c", harness.SETUP_CODE, str(self.root / "src")],
                       check=True, cwd=self.root)
        self.times.append(harness.cpu_seconds() - start)

    def median(self) -> float:
        return statistics.median(self.times)


def measure_rss(root: Path, work: Path, plan) -> tuple[float, dict, int]:
    """Peak RSS (MB) of a fresh process running the 1-worker pass.

    The pass includes the workload's ``rss_extra`` pipelines, which run only
    here. Returns the peak, the output digests and the failed record count.
    """
    spec = work / "pipelines.json"
    spec.write_text(json.dumps([p.__dict__ for p in plan.pipelines + plan.rss_extra]))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("rss_pass.py")), str(root), str(work),
         str(spec)],
        check=True, cwd=root, capture_output=True, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["peak_rss_mb"], result["digests"], result["failed"]


class Rounds:
    """Whole passes over the pipeline list, with their times and digests."""

    def __init__(self, cli, plan, work: Path) -> None:
        self.cli, self.plan, self.work = cli, plan, work
        self.passes: list[tuple[int, list[harness.PipelineResult]]] = []
        self.reference: list[float] = []  # a reference loop sample after every timed call

    def run(self, workers: int, tracer: Tracer | None = None) -> list[harness.PipelineResult]:
        """One pass; a traced pass is kept apart from the timed ones."""
        results = []
        for pipe in self.plan.pipelines:
            if tracer is not None:
                tracer.pipeline = pipe.name
            results.append(harness.run_pipeline(self.cli, pipe, self.work, workers, tracer))
            if tracer is None:
                self.reference.append(harness.reference_seconds())
        self.passes.append((0 if tracer else workers, results))
        return results

    @staticmethod
    def seconds(result: harness.PipelineResult, workers: int) -> float:
        """A call's time: its CPU time at one worker; at N workers its wall
        time less the mean time the hypervisor took from each of the N CPUs.
        Neither counts time in which the machine ran someone else.
        """
        if workers == 1:
            return result.cpu_seconds
        return result.seconds - result.steal_seconds / workers

    def scale(self) -> float:
        """Factor that puts this run's seconds at the reference machine's speed."""
        return harness.REFERENCE_S / statistics.median(self.reference)

    def rate(self, workers: int) -> float:
        """Records per second of a pass, each pipeline at its median time.

        The median over passes, taken per pipeline, drops a pipeline that
        ran through a burst of load on the machine.
        """
        passes = [res for w, res in self.passes if w == workers]
        seconds = sum(statistics.median(self.seconds(res[i], workers) for res in passes)
                      for i in range(len(self.plan.pipelines))) * self.scale()
        return self.plan.records / seconds

    def attempted(self) -> int:
        return sum(r.records for _, res in self.passes for r in res)

    def failed(self) -> int:
        return sum(r.failed for _, res in self.passes for r in res)

    def digest_problems(self) -> list[str]:
        """Every pass must write the bytes of the first one."""
        first = {name: d for r in self.passes[0][1] for name, d in r.digests.items()}
        problems = []
        for workers, res in self.passes[1:]:
            for r in res:
                for name, d in r.digests.items():
                    if d != first[name]:
                        where = "the traced pass" if workers == 0 else f"--workers {workers}"
                        problems.append(f"digest: {name} from {where} differs from the "
                                        "first 1-worker pass")
        return sorted(set(problems))

    def errors(self) -> list[str]:
        return sorted({f"{r.name}: {r.stderr.strip()[:300]}" for _, res in self.passes
                       for r in res if r.failed})


def timed_rounds(rounds: Rounds, seconds: float, nworkers: int,
                 setup: SetupTimer | None) -> None:
    """Alternate 1-worker and N-worker passes for about ``seconds``.

    A pair of passes starts only if it is likely to end less than half a
    pair past the budget, judged by the last pair, so runs average about
    ``seconds`` of passes; at least one pair always runs.
    """
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        rounds.run(1)
        rounds.run(nworkers)
        if setup is not None:
            setup.sample()
        now = time.perf_counter()
        if now - start + (now - pair_start) / 2 > seconds:
            return


def layer_metrics(tracer: Tracer, plan, rounds: Rounds, nworkers: int) -> dict[str, float]:
    values: dict[str, float] = {}
    records = plan.records
    by_name: dict[str, int] = {}
    for p in plan.pipelines:
        by_name[p.name] = by_name.get(p.name, 0) + p.records

    values["cli.main.self_us_per_rec"] = tracer.total("cli.main")[1] / records * 1e6
    for pipe in PIPELINES:
        if pipe not in by_name:
            values[f"jsonl.parallel_map.scaling.{pipe}"] = 0.0
            continue
        # Wall times at both worker counts, as a user would time the calls.
        secs = {w: statistics.median(sum(r.seconds for r in res if r.name == pipe)
                                     for ww, res in rounds.passes if ww == w)
                for w in (1, nworkers)}
        values[f"jsonl.parallel_map.scaling.{pipe}"] = secs[1] / secs[nworkers]

    us = {
        "parser.parse_draft.us": "parser.parse_draft",
        "perception.molecule_from_draft.us": "perception.molecule_from_draft",
        "canon.canonical_ranks.us": "canon.canonical_ranks",
        "canon.write.us": "canon.canonical_smiles",
        "fingerprint.circular.us": "fingerprint.circular",
        "fingerprint.path.us": "fingerprint.path",
        "fingerprint.key.us": "fingerprint.key",
        "fingerprint.serialize.us": "fingerprint.serialize",
        "fingerprint.tanimoto.us_per_pair": "fingerprint.tanimoto",
        "substructure.find_matches.us": "substructure.find_matches",
        "scaffold.murcko_scaffold.us": "scaffold.murcko_scaffold",
        "reaction.parse_reaction.us": "reaction.parse_reaction",
        "reaction.reaction_key.us": "reaction.reaction_key",
        "corpus.build_interleaved.us": "corpus.build_interleaved",
        "corpus.build_name_conversion.us": "corpus.build_name_conversion",
        "templates.render.us": "templates.render",
        "metrics.levenshtein.us": "metrics.levenshtein",
    }
    for name, span in us.items():
        values[name] = tracer.self_per_call(span, 1e6)
    _, self_s, _, refs = tracer.total("scaffold.max_similarity_to_set")
    values["scaffold.max_similarity_to_set.us_per_ref"] = self_s / refs * 1e6 if refs else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values["parser.parse_draft.calls_per_rec"] = ratio(tracer.calls("parser.parse_draft"), records)
    # Measured on `canon` alone: parse plus canonical ranking of each record.
    values["model.ring_scans_per_mol"] = ratio(
        tracer.calls("model._non_bridge_edges", "canon"),
        tracer.calls("perception.molecule_from_draft", "canon"))
    values["fingerprint.tanimoto.pairs"] = float(tracer.calls("fingerprint.tanimoto"))
    values["substructure.find_matches.calls_per_mol"] = ratio(
        tracer.calls("substructure.find_matches"), tracer.calls("fingerprint.key"))
    pairs = by_name.get("eval_gen", 0)
    values["metrics.parses_per_pair"] = ratio(
        tracer.calls("perception.parse_smiles", "eval_gen"), pairs)
    values["scaffold.resample_test_set.s"] = tracer.self_per_call("scaffold.resample_test_set", 1)
    values["scaffold.detect_leakage.s"] = tracer.self_per_call("scaffold.detect_leakage", 1)
    values["metrics.eval_generation.ms_per_pair"] = ratio(
        tracer.total("metrics.eval_generation")[1] * 1e3, pairs)

    ladder = plan.workload == "size_ladder"
    for span, metric in (("perception.parse_smiles", "perception.parse_smiles.growth_exp"),
                         ("canon.canonical_ranks", "canon.canonical_ranks.growth_exp")):
        for family in FAMILIES:
            points = [(n, t) for n, t, label in tracer.samples.get(span, [])
                      if ladder and SizeLadder.family_of_text(label) == family]
            values[f"{metric}.{family}"] = growth_exponent(points)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test sizes: every workload in a few seconds")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        cli = harness.import_rxnkit(root)
    except (harness.BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nworkers = harness.worker_count()
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        setup = None
        if not args.trace:
            setup = SetupTimer(root)
            for _ in range(SETUP_FIRST):
                setup.sample()
        plan = workload.generate(work, args.seed, small=args.small)
        # Keep the generator's objects out of the collector's way, as they
        # would be in a CLI process that never held them.
        gc.collect()
        gc.freeze()
        # The lazy loads every CLI call pays in set-up, done once here.
        from rxnkit.fingerprint import load_key_table
        from rxnkit.templates import builtin_registry

        load_key_table()
        builtin_registry()
        rounds = Rounds(cli, plan, work)
        timed_rounds(rounds, args.seconds, nworkers, setup)
        problems: list[str] = []
        if args.trace:
            with Tracer() as tracer:
                traced = rounds.run(1, tracer)
            metrics = layer_metrics(tracer, plan, rounds, nworkers)
            problems += [f"trace: no call reached {span}" for span in USES[plan.workload]
                         if tracer.calls(span) == 0]
            overhead = (rounds.rate(1) * rounds.scale() * sum(r.cpu_seconds for r in traced)
                        / plan.records)
            print(f"perfbench: traced/untraced 1-worker time {overhead:.3f}; wrappers in "
                  + json.dumps(tracer.installed, sort_keys=True), file=sys.stderr)
            wall = sum(r.seconds for r in traced)
            shares = {span: tracer.total(span)[1] / wall for _, _, span in TARGETS}
            print("perfbench: self-time share of the traced pass: " + ", ".join(
                f"{span} {share:.1%}" for span, share in
                sorted(shares.items(), key=lambda kv: -kv[1]) if share >= 0.001),
                file=sys.stderr)
            units = {name: unit for name, unit, _ in per_layer_spec()}
        else:
            peak_rss, rss_digests, rss_failed = measure_rss(root, work, plan)
            first = {n: d for r in rounds.passes[0][1] for n, d in r.digests.items()}
            if {n: rss_digests.get(n) for n in first} != first:
                problems.append("digest: the fresh-process 1-worker pass wrote other bytes")
            problems += [f"digest: the fresh-process pass wrote no {name}"
                         for p in plan.rss_extra for name in p.outputs
                         if rss_digests.get(name, "missing") == "missing"]
            extra = sum(p.records for p in plan.rss_extra)
            metrics = {
                "setup_s": setup.median() * rounds.scale(),
                "rec_per_s_1w": rounds.rate(1),
                "rec_per_s_nw": rounds.rate(nworkers),
                "peak_rss_mb": peak_rss,
            }
            units = E2E_UNITS
        problems += rounds.digest_problems()
        problems += rounds.errors()
        problems += workload.check(plan, cli, work)
        attempted, failed = rounds.attempted(), rounds.failed()
        if not args.trace:
            attempted += plan.records + extra
            failed += rss_failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for line in problems[:50]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds.passes)} passes, "
          f"--workers 1 and {nworkers}, reference loop {statistics.median(rounds.reference):.4f} s, "
          f"{len(problems)} problems", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
