"""The three workloads: seeded inputs, the fixed pipeline list, output checks.

Each workload writes its inputs under ``<work>/in`` from a seed and returns a
Plan: the pipelines to run, in order, and what the generator knows about
the right answers. ``check`` reads a pass's outputs and returns one line per
problem; an empty list means every output was right. Checks rely on the
generator's own bookkeeping and on properties canonicalization and
fingerprints must have, never on a second run of the same code path.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import molgen
from harness import Pipeline, read_jsonl, run_pipeline, write_jsonl

EMPTY_SCAFFOLD = "∅"
FP_WIDTH = {"circular": 2048, "path": 2048, "key": 166}  # the documented widths


@dataclass
class Plan:
    workload: str
    seed: int
    pipelines: list[Pipeline]
    expect: dict = field(default_factory=dict)
    # Run only in the fresh-process pass that measures peak RSS.
    rss_extra: list[Pipeline] = field(default_factory=list)

    @property
    def records(self) -> int:
        return sum(p.records for p in self.pipelines)


def hill(counts: Counter) -> str:
    """Hill-order formula: C, then H, then the rest alphabetically."""
    def part(sym: str) -> str:
        return sym if counts[sym] == 1 else f"{sym}{counts[sym]}"

    present = sorted(s for s, c in counts.items() if c)
    if "C" in present:
        rest = [s for s in present if s not in ("C", "H")]
        return "".join(part(s) for s in ["C"] + (["H"] if "H" in present else []) + rest)
    return "".join(part(s) for s in present)


def levenshtein(a: str, b: str) -> int:
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def tanimoto_hex(a: str, b: str) -> float:
    """Tanimoto over two serialized fingerprints, by integer popcount."""
    wa, _, ha = a.partition(":")
    wb, _, hb = b.partition(":")
    if wa != wb:
        raise ValueError("fingerprint widths differ")
    x = int.from_bytes(bytes.fromhex(ha), "little")
    y = int.from_bytes(bytes.fromhex(hb), "little")
    union = (x | y).bit_count()
    return 1.0 if union == 0 else (x & y).bit_count() / union


def fp_problems(rows: list[dict], kind: str, where: str) -> list[str]:
    width = FP_WIDTH[kind]
    problems = []
    for row in rows:
        w, _, hexpart = str(row.get("fp", "")).partition(":")
        ok = w == str(width) and len(hexpart) == 2 * ((width + 7) // 8)
        if ok:
            value = int.from_bytes(bytes.fromhex(hexpart), "little")
            ok = value >> width == 0
        if not ok:
            problems.append(f"{where}: {row.get('id')} has fingerprint {row.get('fp')!r:.40}, "
                            f"not {width} bits")
    return problems


def ids_problems(rows: list[dict], ids: list[str], where: str) -> list[str]:
    got = [r.get("id") for r in rows]
    if got != ids:
        return [f"{where}: {len(got)} rows, expected ids of the {len(ids)} inputs in order"]
    return []


def _sample(rng: random.Random, items: list, k: int) -> list:
    return sorted(rng.sample(range(len(items)), min(k, len(items))))


# --- druglike ---------------------------------------------------------------

class Druglike:
    """Seeded drug-like molecules, bare ``{"id", "smiles"}`` records.

    The timed passes read a few hundred records. The pass that measures peak
    RSS also validates many respellings of them (``validate_rss``), so that
    a reader holding the whole input, as ``cli._load_records`` does, shows in
    ``peak_rss_mb``; a streaming reader would not.
    """

    name = "druglike"
    # records, path slice, key slice, records of the peak-RSS file
    SIZES = {"full": (800, 128, 128, 10000), "small": (120, 40, 20, 480)}
    SAMPLE = {"recanon": 100, "renumber": 50}

    def generate(self, work: Path, seed: int, small: bool = False) -> Plan:
        n, n_path, n_key, n_rss = self.SIZES["small" if small else "full"]
        rng = random.Random(f"druglike:{seed}")
        shape = random.Random("druglike-shape")  # sizes and ring counts fixed across seeds
        records, graphs = [], {}
        for i in range(n):
            g, ring = molgen.druglike(rng, shape=shape)
            rid = f"d{i:06d}"
            graphs[rid] = (g, ring)
            records.append({"id": rid, "smiles": molgen.write_smiles(g, rng)})
        write_jsonl(work / "in/mols.jsonl", records)
        write_jsonl(work / "in/mols_path.jsonl", records[:n_path])
        write_jsonl(work / "in/mols_key.jsonl", records[:n_key])
        rss_ids = [f"s{i:06d}" for i in range(n_rss)]
        write_jsonl(work / "in/mols_rss.jsonl", (
            {"id": rid, "smiles": molgen.write_smiles(graphs[records[i % n]["id"]][0], rng)}
            for i, rid in enumerate(rss_ids)))
        fp = ["fp", "--fp-kind"]
        pipes = [
            Pipeline("canon", ["canon", "--in", "in/mols.jsonl", "--out", "out/canon.jsonl"],
                     n, ["canon.jsonl"]),
            Pipeline("validate", ["validate", "--in", "in/mols.jsonl", "--out",
                                  "out/validate.jsonl"], n, ["validate.jsonl"]),
            Pipeline("scaffold", ["scaffold", "--in", "in/mols.jsonl", "--out",
                                  "out/scaffold.jsonl"], n, ["scaffold.jsonl"]),
            Pipeline("fp_circular", fp + ["circular", "--in", "in/mols.jsonl", "--out",
                                          "out/fp_circular.jsonl"], n, ["fp_circular.jsonl"]),
            Pipeline("fp_path", fp + ["path", "--in", "in/mols_path.jsonl", "--out",
                                      "out/fp_path.jsonl"], n_path, ["fp_path.jsonl"]),
            Pipeline("fp_key", fp + ["key", "--in", "in/mols_key.jsonl", "--out",
                                     "out/fp_key.jsonl"], n_key, ["fp_key.jsonl"]),
        ]
        ids = [r["id"] for r in records]
        rss = [Pipeline("validate_rss", ["validate", "--in", "in/mols_rss.jsonl", "--out",
                                         "out/validate_rss.jsonl"], n_rss, ["validate_rss.jsonl"])]
        return Plan(self.name, seed, pipes, {
            "ids": ids, "graphs": graphs, "n_path": n_path, "n_key": n_key, "rss_ids": rss_ids,
        }, rss)

    def check(self, plan: Plan, cli, work: Path) -> list[str]:
        out = work / "out"
        exp = plan.expect
        ids = exp["ids"]
        problems: list[str] = []
        canon = read_jsonl(out / "canon.jsonl")
        problems += ids_problems(canon, ids, "canon")
        for row in canon:
            g, _ = exp["graphs"].get(row.get("id"), (None, None))
            if g is None:
                continue
            try:
                got = molgen.formula_of_smiles(row["smiles"])
            except (KeyError, ValueError) as exc:
                problems.append(f"canon: {row.get('id')}: {exc}")
                continue
            if got != g.formula():
                problems.append(f"canon: {row['id']} reads as {hill(got)}, "
                                f"generator built {hill(g.formula())}")

        for name, want in (("validate", ids), ("validate_rss", exp["rss_ids"])):
            if name == "validate_rss" and not (out / "validate_rss.jsonl").is_file():
                continue  # written only by the peak-RSS pass, which checks it ran
            validate = read_jsonl(out / f"{name}.jsonl")
            problems += ids_problems(validate, want, name)
            problems += [f"{name}: {r.get('id')} is {r.get('status')}"
                         for r in validate if r.get("status") != "valid"]

        scaffold = read_jsonl(out / "scaffold.jsonl")
        problems += ids_problems(scaffold, ids, "scaffold")
        for row in scaffold:
            _, ring = exp["graphs"].get(row.get("id"), (None, None))
            if ring is not None and (row.get("scaffold") == EMPTY_SCAFFOLD) == ring:
                problems.append(f"scaffold: {row['id']} is {row.get('scaffold')!r} but the "
                                f"generator {'added' if ring else 'added no'} ring")

        fps = {}
        for kind, count in (("circular", len(ids)), ("path", exp["n_path"]),
                            ("key", exp["n_key"])):
            rows = read_jsonl(out / f"fp_{kind}.jsonl")
            problems += ids_problems(rows, ids[:count], f"fp {kind}")
            problems += fp_problems(rows, kind, f"fp {kind}")
            fps[kind] = rows
        if problems:
            return problems

        # Canonical strings are fixed points, and a respelled molecule (atoms
        # renumbered by the benchmark's own writer) gets the same canonical
        # string and circular fingerprint.
        rng = random.Random(f"druglike-check:{plan.seed}")
        picks = _sample(rng, canon, self.SAMPLE["recanon"])
        write_jsonl(work / "in/recanon.jsonl", [canon[i] for i in picks])
        res = run_pipeline(cli, Pipeline("recanon", ["canon", "--in", "in/recanon.jsonl",
                                                     "--out", "check/recanon.jsonl"],
                                         len(picks), []), work, 1)
        again = read_jsonl(work / "check/recanon.jsonl") if res.failed == 0 else []
        for i, row in zip(picks, again):
            if row.get("smiles") != canon[i]["smiles"]:
                problems.append(f"canon: {canon[i]['id']} is not a fixed point: "
                                f"{canon[i]['smiles']} -> {row.get('smiles')}")
        if res.failed or len(again) != len(picks):
            problems.append("canon: re-canonicalizing the sample failed")

        picks = _sample(rng, canon, self.SAMPLE["renumber"])
        write_jsonl(work / "in/renumbered.jsonl", [
            {"id": ids[i], "smiles": molgen.write_smiles(exp["graphs"][ids[i]][0], rng)}
            for i in picks
        ])
        for name, argv, ref in (
            ("canon", ["canon"], canon),
            ("fp_circular", ["fp", "--fp-kind", "circular"], fps["circular"]),
        ):
            pipe = Pipeline(f"renumbered_{name}", argv + ["--in", "in/renumbered.jsonl", "--out",
                                                          f"check/renumbered_{name}.jsonl"],
                            len(picks), [])
            res = run_pipeline(cli, pipe, work, 1)
            rows = read_jsonl(work / f"check/renumbered_{name}.jsonl") if res.failed == 0 else []
            if len(rows) != len(picks):
                problems.append(f"{name}: renumbered sample failed")
            for i, row in zip(picks, rows):
                if row != ref[i]:
                    problems.append(f"{name}: {ids[i]} changes under renumbering: "
                                    f"{json.dumps(ref[i])[:80]} vs {json.dumps(row)[:80]}")
        return problems


# --- size_ladder ------------------------------------------------------------

class SizeLadder:
    """Linear chains, glycine oligomers and aromatic macrocycles by size.

    Sizes are fixed; the seed picks each record's spelling (the atom the
    SMILES starts from, or the ring-bond label) and the record order, so
    every seed asks for the same work on differently numbered molecules.
    """

    name = "size_ladder"
    FAMILIES = ("chain", "peptide", "macrocycle")
    SIZES = {"full": (48, 96, 192, 384), "small": (24, 48)}

    @staticmethod
    def spell(family: str, n: int, rng: random.Random) -> tuple[str, int]:
        """(SMILES, heavy atoms) for one ladder molecule of about n atoms."""
        if family == "chain":
            k = rng.randrange(n - 1)  # start at atom k, left part as a branch
            return ("C" + f"({'C' * k})" + "C" * (n - 1 - k) if k else "C" * n), n
        if family == "peptide":
            m = (n - 1) // 4  # H-(Gly)m-OH, 4 heavy atoms a residue plus the OH
            j = rng.randrange(m)
            if j == 0:
                text = "NCC(=O)" * m + "O"
            else:  # start at residue j's nitrogen, the N-terminal part as a branch
                text = "N(" + "C(=O)CN" * j + ")CC(=O)" + "NCC(=O)" * (m - j - 1) + "O"
            return text, 4 * m + 1
        n -= n % 2  # an even ring has a Kekule structure
        label = rng.choice([str(d) for d in range(1, 10)] + [f"%{d}" for d in range(10, 100)])
        return f"c{label}" + "c" * (n - 2) + f"c{label}", n

    @staticmethod
    def family_of_text(text: str) -> str:
        return "macrocycle" if "c" in text else "peptide" if "N" in text else "chain"

    def generate(self, work: Path, seed: int, small: bool = False) -> Plan:
        rng = random.Random(f"size_ladder:{seed}")
        rows = []
        for family in self.FAMILIES:
            for n in self.SIZES["small" if small else "full"]:
                text, atoms = self.spell(family, n, rng)
                rows.append({"id": f"{family}-{atoms:04d}", "smiles": text})
        rng.shuffle(rows)
        write_jsonl(work / "in/ladder.jsonl", rows)
        pipes = [
            Pipeline("canon", ["canon", "--in", "in/ladder.jsonl", "--out", "out/canon.jsonl"],
                     len(rows), ["canon.jsonl"]),
            Pipeline("scaffold", ["scaffold", "--in", "in/ladder.jsonl", "--out",
                                  "out/scaffold.jsonl"], len(rows), ["scaffold.jsonl"]),
            Pipeline("fp_circular", ["fp", "--fp-kind", "circular", "--in", "in/ladder.jsonl",
                                     "--out", "out/fp_circular.jsonl"],
                     len(rows), ["fp_circular.jsonl"]),
        ]
        return Plan(self.name, seed, pipes, {"ids": [r["id"] for r in rows]})

    @staticmethod
    def known(rid: str) -> tuple[str, int, str | None, str]:
        """(family, atoms, canonical SMILES or None, scaffold) from the id."""
        family, _, size = rid.partition("-")
        n = int(size)
        if family == "chain":
            return family, n, "C" * n, EMPTY_SCAFFOLD
        if family == "macrocycle":
            ring = "c1" + "c" * (n - 2) + "c1"
            return family, n, ring, ring
        return family, n, None, EMPTY_SCAFFOLD

    def check(self, plan: Plan, cli, work: Path) -> list[str]:
        out = work / "out"
        ids = plan.expect["ids"]
        problems: list[str] = []
        canon = read_jsonl(out / "canon.jsonl")
        problems += ids_problems(canon, ids, "canon")
        for row in canon:
            family, n, want, _ = self.known(row["id"])
            got = row.get("smiles", "")
            if want is not None and got != want:
                problems.append(f"canon: {row['id']} gave {got[:40]}...")
            if family == "peptide":
                m = (n - 1) // 4
                formula = Counter({"C": 2 * m, "H": 3 * m + 2, "N": m, "O": m + 1})
                try:
                    ok = molgen.formula_of_smiles(got) == formula
                except ValueError:
                    ok = False
                if not ok:
                    problems.append(f"canon: {row['id']} is not {hill(formula)}")
        scaffold = read_jsonl(out / "scaffold.jsonl")
        problems += ids_problems(scaffold, ids, "scaffold")
        for row in scaffold:
            if row.get("scaffold") != self.known(row["id"])[3]:
                problems.append(f"scaffold: {row['id']} gave {str(row.get('scaffold'))[:40]}")
        fps = read_jsonl(out / "fp_circular.jsonl")
        problems += ids_problems(fps, ids, "fp circular")
        problems += fp_problems(fps, "circular", "fp circular")
        # Radius-2 environments repeat along a chain, a ring or a peptide
        # backbone, so every member of a family has the same fingerprint.
        by_family: dict[str, set] = {}
        for row in fps:
            by_family.setdefault(self.known(row["id"])[0], set()).add(row.get("fp"))
        problems += [f"fp circular: {family} sizes disagree ({len(v)} distinct)"
                     for family, v in sorted(by_family.items()) if len(v) != 1]
        return problems


# --- dataset_build ----------------------------------------------------------

_VOCAB = (
    "the mixture was stirred at room temperature for two hours then filtered "
    "washed with brine dried over sodium sulfate and concentrated under reduced "
    "pressure residue purified by column chromatography on silica gel to give "
    "title compound as a white solid yield analysis found calculated for "
    "reported assay potency selectivity solubility batch lot vendor catalogue"
).split()
_SYLLABLES = ("meth", "eth", "prop", "but", "pent", "hex", "oxo", "aza", "thia",
              "cyclo", "benz", "pyr", "idin", "yl", "amide", "ol", "one", "ate")
_NO_S = ("C", "N", "O", "F", "Cl", "Br", "P")
_BENZENOID = molgen.RING_UNITS[:2]
_THIOPHENE = molgen.RING_UNITS[2:]
_INVALID = (  # ways a generated string can be broken, all rejected by SMILES rules
    lambda s: s + "(", lambda s: s + ")", lambda s: "X" + s, lambda s: "C(F)(F)(F)(F)" + s,
)
RENDER_TASKS = {
    "forward": (
        "You are a chemist. Your task is to predict the SMILES representation of the "
        "product molecule, given the molecule representations of the reactants.",
        "Using {reactants} as the reactants and reagents, tell me the potential product.",
        "Sure. A potential product: {products}.",
    ),
    "retro": (
        "You are a chemist. Your task is to predict the SMILES representation of the "
        "reactant molecules, given the molecule representations of the product.",
        "Using {products} as the products, predict the possible reactants that could "
        "have been utilized to synthesize these products.",
        "Here are possible reactants: {reactants}.",
    ),
    "caption": (
        "You are a chemist. Now you are given a representation of a molecule. Please "
        "help me to understand the molecule.",
        "Provide a brief overview of this molecule: {molecule}.",
        "Sure! Here is a description of this molecule. {caption}.",
    ),
}


def _prose(rng: random.Random, words: int) -> str:
    return " ".join(rng.choices(_VOCAB, k=words)) + "."


def _name(rng: random.Random) -> str:
    return "".join(rng.choices(_SYLLABLES, k=rng.randint(2, 5)))


class _Unique:
    """Hands out molecules no earlier call returned (by WL key)."""

    def __init__(self, rng: random.Random, shape: random.Random) -> None:
        self.rng = rng
        self.shape = shape
        self.seen: set = set()

    def molecule(self, **kw) -> molgen.Graph:
        while True:
            g, _ = molgen.druglike(self.rng, shape=self.shape, **kw)
            key = molgen.wl_key(g)
            if key not in self.seen:
                self.seen.add(key)
                return g

    def reaction(self, units: tuple, symbols: tuple) -> tuple[molgen.Graph, ...]:
        """Two reactants and their coupled product; products are all distinct."""
        while True:
            a, _ = molgen.druglike(self.rng, 5, 14, units=units, symbols=symbols, min_rings=1,
                                   shape=self.shape)
            b, _ = molgen.druglike(self.rng, 4, 10, units=_BENZENOID, symbols=symbols,
                                   shape=self.shape)
            p = molgen.coupled(a, b, self.rng)
            if p is None:
                continue
            key = molgen.wl_key(p)
            if key not in self.seen:
                self.seen.add(key)
                return a, b, p


def _rxn_text(parts: tuple[molgen.Graph, ...], rng: random.Random) -> str:
    a, b, p = parts
    reactants = [molgen.write_smiles(a, rng), molgen.write_smiles(b, rng)]
    rng.shuffle(reactants)
    return ".".join(reactants) + ">>" + molgen.write_smiles(p, rng)


class DatasetBuild:
    """A PRESTO-style train/evaluation build from seeded reactions and text.

    Train reactions are sulfur-free; split candidates carry a thiophene, so
    no candidate's scaffold fingerprint equals a train one and the number of
    Tanimoto pairs the split scores is fixed by the sizes alone.
    """

    name = "dataset_build"
    SIZES = {
        "full": dict(queries=160, refs=240, train=110, candidates=110, overlap=11, split_n=30,
                     leak=100, leak_cross=14, leak_within=4, procedures=140, entries=200,
                     bindings=4000, pairs=36),
        "small": dict(queries=24, refs=30, train=16, candidates=16, overlap=2, split_n=5,
                      leak=15, leak_cross=3, leak_within=1, procedures=40, entries=30,
                      bindings=200, pairs=12),
    }
    BAND = "0.05:0.45"
    REJECTS = {"NO_ENTITY": 10, "ENTITY_LIMIT": 6, "TOKEN_LIMIT": 6, "PARSE_FAIL": 8}
    SIM_SAMPLE = 20

    def generate(self, work: Path, seed: int, small: bool = False) -> Plan:
        size = self.SIZES["small" if small else "full"]
        rng = random.Random(f"dataset_build:{seed}")
        uniq = _Unique(rng, random.Random("dataset_build-shape"))
        exp: dict = {}
        pipes: list[Pipeline] = []

        # sim: queries against references, few fingerprints and many pairs.
        queries = [{"id": f"q{i:05d}", "smiles": molgen.write_smiles(uniq.molecule(), rng)}
                   for i in range(size["queries"])]
        refs = [{"id": f"r{i:05d}", "smiles": molgen.write_smiles(uniq.molecule(), rng)}
                for i in range(size["refs"])]
        write_jsonl(work / "in/queries.jsonl", queries)
        write_jsonl(work / "in/refs.jsonl", refs)
        pipes.append(Pipeline("sim", ["sim", "--in", "in/queries.jsonl", "--ref", "in/refs.jsonl",
                                      "--out", "out/sim.jsonl"],
                              len(queries) + len(refs), ["sim.jsonl"]))
        exp["queries"] = [q["id"] for q in queries]

        # split: candidates against train, with planted exact overlaps.
        train_parts = [uniq.reaction(_BENZENOID, _NO_S) for _ in range(size["train"])]
        train = [{"id": f"t{i:05d}", "rxn": _rxn_text(parts, rng)}
                 for i, parts in enumerate(train_parts)]
        candidates = [{"id": f"c{i:05d}", "rxn": _rxn_text(uniq.reaction(_THIOPHENE, _NO_S), rng)}
                      for i in range(size["candidates"] - size["overlap"])]
        overlap = []
        for k, i in enumerate(rng.sample(range(len(train)), size["overlap"])):
            overlap.append({"id": f"c9{k:04d}", "rxn": _rxn_text(train_parts[i], rng)})
        candidates += overlap
        rng.shuffle(candidates)
        write_jsonl(work / "in/split_train.jsonl", train)
        write_jsonl(work / "in/split_candidates.jsonl", candidates)
        pipes.append(Pipeline("split", [
            "split", "--candidates", "in/split_candidates.jsonl", "--train",
            "in/split_train.jsonl", "--band", self.BAND, "--n", str(size["split_n"]),
            "--out", "out/split.json"], len(candidates) + len(train), ["split.json"]))
        exp["split"] = {"overlap": sorted(r["id"] for r in overlap), "n": size["split_n"],
                        "train": sorted(r["id"] for r in train),
                        "candidates": sorted(r["id"] for r in candidates)}

        # leakcheck: planted cross-split and within-split respellings.
        leak_parts = [uniq.reaction(molgen.RING_UNITS, _NO_S) for _ in range(2 * size["leak"])]
        leak_train = [{"id": f"tr{i:04d}", "rxn": _rxn_text(p, rng)}
                      for i, p in enumerate(leak_parts[:size["leak"]])]
        leak_test = [{"id": f"te{i:04d}", "rxn": _rxn_text(p, rng)}
                     for i, p in enumerate(leak_parts[size["leak"]:])]
        cross, within = [], []
        picks = rng.sample(range(size["leak"]), size["leak_cross"] + size["leak_within"])
        for k, i in enumerate(picks[:size["leak_cross"]]):
            dup = {"id": f"te9{k:03d}", "rxn": _rxn_text(leak_parts[i], rng)}
            leak_test.append(dup)
            cross.append([dup["id"], leak_train[i]["id"]])
        for k, i in enumerate(picks[size["leak_cross"]:]):
            dup = {"id": f"tr9{k:03d}", "rxn": _rxn_text(leak_parts[i], rng)}
            leak_train.append(dup)
            within.append(sorted([leak_train[i]["id"], dup["id"]]))
        rng.shuffle(leak_train)
        rng.shuffle(leak_test)
        write_jsonl(work / "in/leak_train.jsonl", leak_train)
        write_jsonl(work / "in/leak_test.jsonl", leak_test)
        pipes.append(Pipeline("leakcheck", [
            "leakcheck", "--split", "train=in/leak_train.jsonl", "--split",
            "test=in/leak_test.jsonl", "--out", "out/leak.json"],
            len(leak_train) + len(leak_test), ["leak.json"]))
        exp["leak"] = {"cross": sorted(cross), "within": sorted(within)}

        # corpus interleave: procedures with entity spans, planted rejections.
        procedures, kept = self._procedures(rng, uniq, size["procedures"])
        write_jsonl(work / "in/procedures.jsonl", procedures)
        pipes.append(Pipeline("interleave", [
            "corpus", "interleave", "--in", "in/procedures.jsonl", "--out",
            "out/interleaved.jsonl", "--stats", "out/corpus_stats.json"],
            len(procedures), ["interleaved.jsonl", "corpus_stats.json"]))
        exp["interleave"] = kept

        # corpus nameconv: entries with and without names and formulas.
        entries, expected = [], {}
        for i in range(size["entries"]):
            g = uniq.molecule()
            entry = {"id": f"n{i:05d}", "smiles": molgen.write_smiles(g, rng)}
            if rng.random() < 0.5:
                entry["iupac"] = _name(rng)
            if rng.random() < 0.5:
                entry["formula"] = hill(g.formula())
            entries.append(entry)
            expected[entry["id"]] = (hill(g.formula()), "iupac" in entry)
        write_jsonl(work / "in/entries.jsonl", entries)
        pipes.append(Pipeline("nameconv", ["corpus", "nameconv", "--in", "in/entries.jsonl",
                                           "--out", "out/nameconv.jsonl"],
                              len(entries), ["nameconv.jsonl"]))
        exp["nameconv"] = expected

        # render: cheap records through the CLI's per-record loop, three tasks.
        smiles_pool = [q["smiles"] for q in queries] + [r["smiles"] for r in refs]
        exp["render"] = {}
        for task in RENDER_TASKS:
            bindings = []
            for i in range(size["bindings"]):
                if task == "caption":
                    b = {"molecule": rng.choice(smiles_pool), "caption": _prose(rng, 12)[:-1]}
                else:
                    b = {"reactants": rng.sample(smiles_pool, 2),
                         "products": [rng.choice(smiles_pool)]}
                bindings.append({"id": f"{task}-{i:05d}", **b})
            write_jsonl(work / f"in/render_{task}.jsonl", bindings)
            pipes.append(Pipeline("render", [
                "render", "--task", task, "--in", f"in/render_{task}.jsonl",
                "--out", f"out/render_{task}.jsonl"], len(bindings), [f"render_{task}.jsonl"]))

        # eval gen: exact respellings, wrong molecules and invalid text.
        n = size["pairs"]
        kinds = ["exact"] * (n // 2) + ["wrong"] * (n // 3)
        kinds += ["invalid"] * (n - len(kinds))
        rng.shuffle(kinds)
        preds, refs_eval, pairs = [], [], []
        for i, kind in enumerate(kinds):
            g = uniq.molecule(n_min=5, n_max=16)
            ref = molgen.write_smiles(g, rng)
            if kind == "exact":
                pred = molgen.write_smiles(g, rng)
            elif kind == "wrong":
                other = uniq.molecule(n_min=len(g) + 1, n_max=len(g) + 4)
                pred = molgen.write_smiles(other, rng)
            else:
                pred = rng.choice(_INVALID)(molgen.write_smiles(g, rng))
            preds.append({"id": f"e{i:05d}", "prediction": pred})
            refs_eval.append({"id": f"e{i:05d}", "reference": ref, "task": "forward"})
            pairs.append((pred, ref, kind))
        rng.shuffle(preds)
        write_jsonl(work / "in/eval_pred.jsonl", preds)
        write_jsonl(work / "in/eval_ref.jsonl", refs_eval)
        pipes.append(Pipeline("eval_gen", [
            "eval", "gen", "--pred", "in/eval_pred.jsonl", "--ref", "in/eval_ref.jsonl",
            "--out", "out/eval.json", "--details", "out/eval_details.jsonl"],
            n, ["eval.json", "eval_details.jsonl"]))
        exp["eval"] = pairs
        return Plan(self.name, seed, pipes, exp)

    def _procedures(self, rng: random.Random, uniq: _Unique, count: int):
        """Annotated procedures and, for each kept one, its source text.

        Rejections are planted in fixed numbers: no entity, too many
        entities, too many tokens, and an entity whose SMILES is broken.
        """
        plan = [kind for kind, k in self.REJECTS.items() for _ in range(k)]
        plan += ["KEEP"] * (count - len(plan))
        rng.shuffle(plan)
        records, kept = [], {}
        for i, kind in enumerate(plan):
            n_entities = {"NO_ENTITY": 0, "ENTITY_LIMIT": rng.randint(21, 24)}.get(
                kind, rng.randint(1, 4))
            text, entities = "", []
            for _ in range(n_entities):
                text += _prose(rng, rng.randint(3, 12))[:-1] + " "
                g = uniq.molecule(n_min=5, n_max=14)
                surface = _name(rng) if rng.random() < 0.7 else molgen.write_smiles(g, rng)
                entities.append({"span": [len(text), len(text) + len(surface)],
                                 "smiles": molgen.write_smiles(g, rng), "formula": g.formula()})
                text += surface
            text += " " + _prose(rng, 1100 if kind == "TOKEN_LIMIT" else rng.randint(4, 20))
            if kind == "PARSE_FAIL":
                e = rng.choice(entities)
                e["smiles"] = rng.choice(_INVALID)(e["smiles"])
            rid = f"p{i:05d}"
            if kind == "KEEP":
                kept[rid] = (text, [hill(e["formula"]) for e in entities])
            records.append({"id": rid, "text": text, "entities": [
                {"span": e["span"], "smiles": e["smiles"]} for e in entities]})
        return records, kept

    def check(self, plan: Plan, cli, work: Path) -> list[str]:
        out = work / "out"
        exp = plan.expect
        problems: list[str] = []

        sim = read_jsonl(out / "sim.jsonl")
        problems += ids_problems(sim, exp["queries"], "sim")
        if not problems:
            problems += self._check_sim(plan, cli, work, sim)

        split = json.loads((out / "split.json").read_text())
        s = exp["split"]
        train = set(s["train"])
        selected = split.get("selected", [])
        sims = [row["max_train_similarity"] for row in selected]
        high = float(self.BAND.split(":")[1])
        if split.get("rejected_overlap") != len(s["overlap"]):
            problems.append(f"split: rejected_overlap {split.get('rejected_overlap')}, "
                            f"planted {len(s['overlap'])}")
        if not 0 < len(selected) <= s["n"] or split.get("delivered_n") != len(selected):
            problems.append(f"split: delivered {len(selected)} of {s['n']}")
        if any(row["id"] in train or row["id"] in s["overlap"] for row in selected):
            problems.append("split: a selection is in train")
        if any(row["id"] not in s["candidates"] for row in selected):
            problems.append("split: a selection is not a candidate")
        if any(v > high for v in sims):
            problems.append(f"split: a selection is above the band's upper bound {high}")
        keys = [(row["max_train_similarity"], row["id"]) for row in selected]
        if keys != sorted(keys):
            problems.append("split: selections are not in ascending order")

        leak = json.loads((out / "leak.json").read_text())
        # Cross pairs list the test id first: the splits sort as test, train.
        cross = sorted(list(p) for c in leak.get("cross", []) for p in c["pairs"])
        if cross != sorted(exp["leak"]["cross"]):
            problems.append(f"leakcheck: {len(cross)} cross pairs, planted "
                            f"{len(exp['leak']['cross'])}")
        within = sorted(sorted(p) for w in leak.get("within", []) for p in w["pairs"])
        if within != exp["leak"]["within"] or leak.get("errors"):
            problems.append(f"leakcheck: {len(within)} within pairs, planted "
                            f"{len(exp['leak']['within'])}, {len(leak.get('errors', []))} errors")

        problems += self._check_corpus(exp, out)
        problems += self._check_nameconv(exp, out)
        problems += self._check_render(plan, work, out)
        problems += self._check_eval(exp, out)
        return problems

    def _check_sim(self, plan: Plan, cli, work: Path, sim: list[dict]) -> list[str]:
        """Recompute a sample's max similarity by popcount over `fp` output."""
        rng = random.Random(f"dataset_build-check:{plan.seed}")
        queries = read_jsonl(work / "in/queries.jsonl")
        picks = _sample(rng, queries, self.SIM_SAMPLE)
        write_jsonl(work / "in/sim_sample.jsonl", [queries[i] for i in picks])
        fps = {}
        for name in ("sim_sample", "refs"):
            pipe = Pipeline(f"fp_{name}", ["fp", "--fp-kind", "circular", "--in",
                                           f"in/{name}.jsonl", "--out", f"check/fp_{name}.jsonl"],
                            len(picks) if name == "sim_sample" else len(sim), [])
            if run_pipeline(cli, pipe, work, 1).failed:
                return [f"sim: fingerprinting {name} failed"]
            fps[name] = [r["fp"] for r in read_jsonl(work / f"check/fp_{name}.jsonl")]
        problems = []
        for i, qfp in zip(picks, fps["sim_sample"]):
            want = max(tanimoto_hex(qfp, r) for r in fps["refs"])
            if sim[i].get("max_similarity") != want:
                problems.append(f"sim: {sim[i]['id']} is {sim[i].get('max_similarity')}, "
                                f"popcount gives {want}")
        return problems

    def _check_corpus(self, exp: dict, out: Path) -> list[str]:
        problems = []
        kept = exp["interleave"]
        rows = read_jsonl(out / "interleaved.jsonl")
        if [r["id"] for r in rows] != sorted(kept):
            problems.append(f"interleave: kept {len(rows)} records, expected {len(kept)}")
        for row in rows:
            text, formulas = kept.get(row["id"], ("", []))
            segs = row.get("segments", [])
            rebuilt = "".join(s["value"] if s["kind"] == "text" else s["surface"] for s in segs)
            if rebuilt != text:
                problems.append(f"interleave: {row['id']} does not reconstruct its source")
            got = []
            for seg in segs:
                if seg["kind"] == "mol":
                    try:
                        got.append(hill(molgen.formula_of_smiles(seg["smiles"])))
                    except ValueError as exc:
                        got.append(str(exc))
            if got != formulas:
                problems.append(f"interleave: {row['id']} molecules read as {got}")
        stats = json.loads((out / "corpus_stats.json").read_text())
        if stats.get("rejected") != dict(sorted(self.REJECTS.items())) or \
                stats.get("kept") != len(kept):
            problems.append(f"interleave: stats {stats.get('kept')} kept, "
                            f"rejected {stats.get('rejected')}, planted {self.REJECTS}")
        return problems

    def _check_nameconv(self, exp: dict, out: Path) -> list[str]:
        problems = []
        rows = read_jsonl(out / "nameconv.jsonl")
        want = exp["nameconv"]
        count = sum(5 if named else 2 for _, named in want.values())
        if len(rows) != count:
            problems.append(f"nameconv: {len(rows)} records, expected {count}")
        smiles_by_id: dict[str, set] = {}
        for row in rows:
            formula, named = want.get(row.get("id"), (None, False))
            task = row.get("task", "")
            if formula is None or (task.startswith("iupac") or task.endswith("iupac")) and not named:
                problems.append(f"nameconv: unexpected {row.get('id')} {task}")
            elif task.endswith("formula") and row.get("target") != formula:
                problems.append(f"nameconv: {row['id']} formula {row.get('target')} != {formula}")
            elif task.endswith("smiles"):
                smiles_by_id.setdefault(row["id"], set()).add(row.get("target"))
                try:
                    ok = hill(molgen.formula_of_smiles(row.get("target", ""))) == formula
                except ValueError:
                    ok = False
                if not ok:
                    problems.append(f"nameconv: {row['id']} SMILES is not {formula}")
        problems += [f"nameconv: {rid} has {len(v)} different SMILES targets"
                     for rid, v in smiles_by_id.items() if len(v) != 1]
        return problems

    def _check_render(self, plan: Plan, work: Path, out: Path) -> list[str]:
        problems = []
        for task, (system, instruction, output) in RENDER_TASKS.items():
            bindings = read_jsonl(work / f"in/render_{task}.jsonl")
            rows = read_jsonl(out / f"render_{task}.jsonl")
            if len(rows) != len(bindings):
                problems.append(f"render {task}: {len(rows)} of {len(bindings)} records")
            for b, row in zip(bindings, rows):
                values = {k: ".".join(v) if isinstance(v, list) else v for k, v in b.items()}
                want = {"id": b["id"], "task": task, "system": system,
                        "instruction": instruction.format(**values),
                        "output": output.format(**values)}
                if row != want:
                    problems.append(f"render {task}: {b['id']} differs from the template")
        return problems

    def _check_eval(self, exp: dict, out: Path) -> list[str]:
        pairs = exp["eval"]
        report = json.loads((out / "eval.json").read_text())
        m = report.get("metrics", {})
        n = len(pairs)
        counts = Counter(kind for _, _, kind in pairs)
        want = {
            "exact": counts["exact"] / n,
            "validity": (counts["exact"] + counts["wrong"]) / n,
            "levenshtein_mean": sum(levenshtein(p, r) for p, r, _ in pairs) / n,
        }
        problems = [f"eval gen: {k} is {m.get(k)}, planted {v}"
                    for k, v in want.items() if m.get(k) != v]
        if report.get("sample_count") != n or report.get("errors"):
            problems.append(f"eval gen: {report.get('sample_count')} scored of {n}, "
                            f"{len(report.get('errors', []))} errors")
        return problems


WORKLOADS = {w.name: w for w in (Druglike(), SizeLadder(), DatasetBuild())}
