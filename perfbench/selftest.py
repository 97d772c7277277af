"""Self-tests for the benchmark; run from the root of a checkout.

    python3 perfbench/selftest.py

1. Each workload runs end to end at its small size through run.py, and its
   outputs pass every check.
2. Each check is fed a deliberately corrupted output and must report it,
   with the problem that corruption should raise.
3. The traced run installs its wrappers in every namespace that looks the
   traced functions up, and BENCHMARK.json names exactly the metrics
   run.py prints.
4. In a directory holding only BENCHMARK.json and the benchmark, run.py
   exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import molgen  # noqa: E402
import run  # noqa: E402
from trace import Tracer  # noqa: E402
from workloads import EMPTY_SCAFFOLD, WORKLOADS  # noqa: E402


def edit_jsonl(path: Path, fn, plan) -> None:
    rows = harness.read_jsonl(path)
    fn(rows, plan)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def edit_json(path: Path, fn, plan) -> None:
    doc = json.loads(path.read_text())
    fn(doc, plan)
    path.write_text(json.dumps(doc))


def _set(rows, i, key, value):
    rows[i][key] = value


def _first(rows, pred):
    return next(i for i, r in enumerate(rows) if pred(r))


def _swap_first_two_fps(rows, plan):
    rows[0]["fp"], rows[1]["fp"] = rows[1]["fp"], rows[0]["fp"]


def _respell(rows, plan):
    """Each canonical SMILES becomes another spelling of the same molecule, so
    its formula still checks out and only the canonical-form checks can tell."""
    rng = random.Random("selftest-respell")
    for row in rows:
        graph = plan.expect["graphs"][row["id"]][0]
        for _ in range(20):
            text = molgen.write_smiles(graph, rng)
            if text != row["smiles"]:
                row["smiles"] = text
                break


# (workload, what is broken, file under out/, editor, pattern a reported problem must match)
CORRUPTIONS = [
    ("druglike", "canon formula", "canon.jsonl",
     lambda rows, plan: _set(rows, 0, "smiles", rows[0]["smiles"] + "C"), "reads as"),
    ("druglike", "canon not a fixed point", "canon.jsonl", _respell, "is not a fixed point"),
    ("druglike", "canon changes under renumbering", "canon.jsonl", _respell,
     r"^canon: \S+ changes under renumbering"),
    ("druglike", "validate status", "validate.jsonl",
     lambda rows, plan: _set(rows, 3, "status", "syntax_error"), "is syntax_error"),
    ("druglike", "validate status of the peak-RSS file", "validate_rss.jsonl",
     lambda rows, plan: _set(rows, 5, "status", "syntax_error"), "validate_rss: s000005"),
    ("druglike", "scaffold of a ring", "scaffold.jsonl",
     lambda rows, plan: _set(rows, _first(rows, lambda r: r["scaffold"] != EMPTY_SCAFFOLD),
                             "scaffold", EMPTY_SCAFFOLD), "generator added ring"),
    ("druglike", "fingerprint hex length", "fp_circular.jsonl",
     lambda rows, plan: _set(rows, 2, "fp", rows[2]["fp"][:-2]), "not 2048 bits"),
    ("druglike", "key bits past the width", "fp_key.jsonl",
     lambda rows, plan: _set(rows, 1, "fp", rows[1]["fp"][:-2] + "f" + rows[1]["fp"][-1]),
     "not 166 bits"),
    ("druglike", "fingerprint renumbering", "fp_circular.jsonl",
     lambda rows, plan: [r.update(fp=rows[0]["fp"]) for r in rows[1:]],
     r"^fp_circular: \S+ changes under renumbering"),
    ("size_ladder", "chain canon", "canon.jsonl",
     lambda rows, plan: _set(rows, _first(rows, lambda r: r["id"].startswith("chain")),
                             "smiles", "CC"), "gave CC"),
    ("size_ladder", "peptide formula", "canon.jsonl",
     lambda rows, plan: _set(rows, _first(rows, lambda r: r["id"].startswith("peptide")),
                             "smiles", "NCC(=O)O"), "is not C"),
    ("size_ladder", "macrocycle scaffold", "scaffold.jsonl",
     lambda rows, plan: _set(rows, _first(rows, lambda r: r["id"].startswith("macro")),
                             "scaffold", EMPTY_SCAFFOLD), "scaffold: macrocycle"),
    ("size_ladder", "family fingerprints", "fp_circular.jsonl", _swap_first_two_fps,
     "sizes disagree"),
    ("dataset_build", "sim value", "sim.jsonl",
     lambda rows, plan: [r.update(max_similarity=r["max_similarity"] * 0.5) for r in rows],
     "popcount gives"),
    ("dataset_build", "split overlap count", "split.json",
     lambda d, plan: d.update(rejected_overlap=d["rejected_overlap"] + 1), "rejected_overlap"),
    ("dataset_build", "split order", "split.json",
     lambda d, plan: d["selected"].reverse(), "ascending order"),
    ("dataset_build", "split selection from train", "split.json",
     lambda d, plan: d["selected"].__setitem__(0, {"id": "t00000", "max_train_similarity": 0.0}),
     "is in train"),
    ("dataset_build", "split above the band", "split.json",
     lambda d, plan: d["selected"][-1].update(max_train_similarity=0.99), "upper bound"),
    ("dataset_build", "leak cross pairs", "leak.json",
     lambda d, plan: d["cross"][0]["pairs"].pop(), "cross pairs"),
    ("dataset_build", "interleave reconstruction", "interleaved.jsonl",
     lambda rows, plan: rows[0]["segments"][-1].update(
         value=rows[0]["segments"][-1]["value"] + " "), "does not reconstruct"),
    ("dataset_build", "interleave rejections", "corpus_stats.json",
     lambda d, plan: d["rejected"].update(NO_ENTITY=d["rejected"]["NO_ENTITY"] - 1),
     "interleave: stats"),
    ("dataset_build", "nameconv formula", "nameconv.jsonl",
     lambda rows, plan: _set(rows, _first(rows, lambda r: r["task"].endswith("formula")),
                             "target", "C2H6O"), "formula C2H6O"),
    ("dataset_build", "render wording", "render_forward.jsonl",
     lambda rows, plan: _set(rows, 0, "instruction", rows[0]["instruction"].lower()),
     "differs from the template"),
    ("dataset_build", "eval exact", "eval.json",
     lambda d, plan: d["metrics"].update(exact=d["metrics"]["exact"] + 0.01), "exact is"),
    ("dataset_build", "eval levenshtein", "eval.json",
     lambda d, plan: d["metrics"].update(levenshtein_mean=d["metrics"]["levenshtein_mean"] + 1),
     "levenshtein_mean is"),
]


def main() -> int:
    root = Path.cwd()
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for name in sorted(WORKLOADS):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "0", "--trace", trace, "--small"],
                cwd=root, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            expect(proc.returncode == 0 and result.get("correct") is True
                   and result.get("failed") == 0 and result.get("attempted", 0) > 0,
                   f"{name} --trace {trace} runs clean at the small size")
            printed = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            expect(printed == {m["name"]: m["unit"] for m in spec[section]},
                   f"{name} --trace {trace} prints every {section} metric of BENCHMARK.json")

    cli = harness.import_rxnkit(root)
    work = root / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        for name, workload in sorted(WORKLOADS.items()):
            shutil.rmtree(work, ignore_errors=True)
            plan = workload.generate(work, 3, small=True)
            harness.run_pass(cli, plan.pipelines + plan.rss_extra, work, 1)
            expect(workload.check(plan, cli, work) == [], f"{name} outputs pass the checks")
            pristine = work.parent / f"pristine-{os.getpid()}"
            shutil.copytree(work / "out", pristine, dirs_exist_ok=True)
            for wl, what, filename, fn, wanted in CORRUPTIONS:
                if wl != name:
                    continue
                path = work / "out" / filename
                (edit_jsonl if filename.endswith(".jsonl") else edit_json)(path, fn, plan)
                problems = workload.check(plan, cli, work)
                caught = any(re.search(wanted, p) for p in problems)
                expect(caught, f"{name} check catches: {what}"
                       + ("" if caught else f" (got {problems[:3]})"))
                shutil.copy(pristine / filename, path)
            shutil.rmtree(pristine)

        rounds = run.Rounds(cli, plan, work)
        rounds.passes = [(1, [harness.PipelineResult("x", 1.0, 1, 0, {"x.jsonl": "a"})]),
                         (2, [harness.PipelineResult("x", 1.0, 1, 0, {"x.jsonl": "b"})])]
        expect(rounds.digest_problems() != [], "a 1-worker/N-worker digest mismatch is caught")

        with Tracer() as tracer:
            installed = tracer.installed
        wanted = {"perception.parse_smiles": {"rxnkit.cli", "rxnkit.scaffold", "rxnkit.metrics",
                                              "rxnkit.corpus"},
                  "model._non_bridge_edges": {"rxnkit.molgraph.perception"},
                  "fingerprint.tanimoto": {"rxnkit.cli", "rxnkit.scaffold"}}
        for span, modules in wanted.items():
            expect(modules <= set(installed[span]), f"trace wraps {span} in {sorted(modules)}")
        import rxnkit.cli

        expect(not hasattr(rxnkit.cli.parse_smiles, "__wrapped__"),
               "trace wrappers are removed afterwards")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == run.per_layer_spec(), "BENCHMARK.json per_layer matches run.py")
    expect({m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS)
           and all(run.E2E_UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"]),
           "BENCHMARK.json end_to_end matches run.py")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads match")

    bare = root / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "druglike", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program's sources run.py exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
