"""Murcko scaffolds, split resampling, leakage auditing."""

import math
import random
import time
from collections import defaultdict

import pytest

from rxnkit.cli import main
from rxnkit.fingerprint import FingerprintSpec, tanimoto
from rxnkit.molgraph import canon, canonicalize, parse_smiles
from rxnkit.scaffold import (
    EMPTY_SCAFFOLD,
    detect_leakage,
    max_similarity_to_set,
    murcko_scaffold,
    record_key,
    resample_test_set,
    scaffold_molecule,
    split_features,
)
from rxnkit.fingerprint import BitFingerprint

from conftest import shuffled
from test_cli import read_jsonl, write_jsonl
from oracles import (
    reference_fragment_molecule,
    reference_fragments,
    reference_scaffold_molecule,
)


def same_molecule(a, b) -> bool:
    return (a.atoms, a.bonds, a.chirality) == (b.atoms, b.bonds, b.chirality)


class TestSubgraph:
    def test_equals_the_fragment_builder(self, corpus):
        rng = random.Random(11)
        for smiles in corpus + ["F/C=C/F.Cl", "C/C(F)=C(/Cl)C1CC1.[Na+]"]:
            mol = shuffled(parse_smiles(smiles), rng)
            subsets = reference_fragments(mol)
            for _ in range(4):
                atoms = rng.sample(range(len(mol)), rng.randint(1, len(mol)))
                subsets += [atoms, sorted(atoms)]
            for atoms in subsets:
                assert same_molecule(mol.subgraph(atoms),
                                     reference_fragment_molecule(mol, atoms))

    def test_scaffold_equals_the_scaffold_builder(self, corpus):
        rng = random.Random(12)
        for smiles in corpus + ["C/C=C/c1ccccc1C=O", "O=C1CC/C(=C/C)CC1", "O=C1CCC(=O)CC1",
                                "C=C1CCCC1", "CC(=O)C1CC1", "CS(=O)(=O)c1ccccc1", "C=C=C1CC1"]:
            mol = shuffled(parse_smiles(smiles), rng)
            got, want = scaffold_molecule(mol), reference_scaffold_molecule(mol)
            assert (got is None) == (want is None)
            assert got is None or same_molecule(got, want)
            # The ring bonds handed to the scaffold are those its bonds give.
            assert got is None or got.ring_bonds == want.ring_bonds

    def test_pruning_a_long_chain_costs_no_more_than_parsing_it(self):
        # The chain is numbered away from its ring, so the one leaf is always
        # the highest-numbered atom left; a pass over the atoms per leaf would
        # make pruning quadratic.
        smiles = "C1CCCCC1" + "C" * 4000
        parse = prune = math.inf
        for _ in range(3):
            start = time.perf_counter()
            mol = parse_smiles(smiles)
            parse = min(parse, time.perf_counter() - start)
            start = time.perf_counter()
            scaffold = scaffold_molecule(mol)
            prune = min(prune, time.perf_counter() - start)
        assert len(scaffold) == 6
        assert prune <= parse, f"scaffold {prune * 1e3:.1f} ms, parse {parse * 1e3:.1f} ms"


class TestMurcko:
    def test_acyclic_is_empty_sentinel(self):
        assert murcko_scaffold(parse_smiles("CCO")) == EMPTY_SCAFFOLD

    def test_ethylbenzene_gives_benzene(self):
        got = murcko_scaffold(parse_smiles("CCc1ccccc1"))
        assert got == canonicalize("c1ccccc1")

    def test_diphenylmethane_is_its_own_scaffold(self):
        s = "c1ccccc1Cc1ccccc1"
        assert murcko_scaffold(parse_smiles(s)) == canonicalize(s)

    def test_exocyclic_double_bond_retained(self):
        got = murcko_scaffold(parse_smiles("O=C1CCCC1CC"))
        assert got == canonicalize("O=C1CCCC1")

    def test_idempotent(self, corpus):
        for s in corpus:
            key = murcko_scaffold(parse_smiles(s))
            if key == EMPTY_SCAFFOLD:
                continue
            assert murcko_scaffold(parse_smiles(key)) == key

    def test_renumbering_invariant(self, corpus):
        rng = random.Random(31)
        for s in corpus[:40]:
            mol = parse_smiles(s)
            base = murcko_scaffold(mol)
            for _ in range(3):
                assert murcko_scaffold(shuffled(mol, rng)) == base

    def test_counterion_dropped(self):
        assert murcko_scaffold(parse_smiles("[Na+].OC(=O)c1ccccc1")) == canonicalize(
            "c1ccccc1"
        )


def spellings(smiles: str, count: int, rng: random.Random) -> list[str]:
    """SMILES of one molecule written from random atom orders: the writer's
    depth-first walk led by random ranks instead of canonical ones."""
    mol = parse_smiles(smiles)
    out = []
    for _ in range(count):
        ranks = list(range(len(mol)))
        rng.shuffle(ranks)
        (text,) = canon._write_fragments(mol, ranks)
        out.append(text)
    return out


class TestScaffoldCarriesNoStereo:
    """Pruning removes the substituents a direction mark is stated against,
    so a scaffold keeps no stereo."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_one_scaffold_over_renumberings(self, tmp_path, workers):
        inputs = ["CC1CCC/C1=C/c1ccccc1", "C/C=C/1CCCC1C", "O=C1CC/C(=C/C)CC1"]
        rng = random.Random(26)
        records = []
        for k, smiles in enumerate(inputs):
            written = spellings(smiles, 60, rng)
            assert len(set(written)) >= 20
            records += [{"id": f"{k}-{i}", "smiles": text} for i, text in enumerate(written)]
        write_jsonl(tmp_path / "in.jsonl", records)
        out = tmp_path / "out.jsonl"
        assert main(["scaffold", "--in", str(tmp_path / "in.jsonl"), "--out", str(out),
                     "--workers", workers]) == 0
        found = defaultdict(set)
        for row in read_jsonl(out):
            found[row["id"].partition("-")[0]].add(row["scaffold"])
        assert found == {"0": {"C(c1ccccc1)=C1CCCC1"}, "1": {"C=C1CCCC1"},
                         "2": {"C=C1CCC(CC1)=O"}}

    def test_trans_stilbene(self):
        assert murcko_scaffold(parse_smiles("C(=C/c1ccccc1)\\c1ccccc1")) == (
            "C(=Cc1ccccc1)c1ccccc1")


class TestMaxSimilarity:
    def test_contains_query(self):
        fp = BitFingerprint(16, 0b110)
        assert max_similarity_to_set(fp, [BitFingerprint(16, 1 << 3), fp]) == 1.0

    def test_empty_reference(self):
        assert max_similarity_to_set(BitFingerprint(16, 1 << 1), []) == 0.0

    def test_spec_arithmetic_example(self):
        q = BitFingerprint(16, 0b110)
        refs = [
            BitFingerprint(16, 0b11110),
            BitFingerprint(16, 1 << 2),
        ]
        assert max_similarity_to_set(q, refs) == 0.5


def _mol_record(rid, smiles):
    return {"id": rid, "smiles": smiles}


def _rxn_record(rid, rxn):
    return {"id": rid, "rxn": rxn}


def _resample(candidates, train, band, n):
    """resample_test_set on the split features of records."""
    spec = FingerprintSpec(kind="circular")
    return resample_test_set([(r["id"], *split_features(r, spec)) for r in candidates],
                             [split_features(r, spec) for r in train], band, n)


def _leakage(splits):
    """detect_leakage on the (id, key) pairs of records."""
    return detect_leakage({name: [(str(r["id"]), record_key(r)) for r in records]
                           for name, records in splits.items()})


def cross_counts(report) -> dict:
    """(split, split) -> duplicate pairs, from the cross entries of the report."""
    return {tuple(c["splits"]): c["count"] for c in report["cross"]}


class TestSplitFeatures:
    def test_key_and_scaffold_fingerprint(self):
        spec = FingerprintSpec(kind="circular")
        record = _rxn_record("r", "CCO.CC(=O)O>>CC(=O)OCC")
        _, product_fp = split_features(_mol_record("p", "CC(=O)OCC"), spec)
        assert split_features(record, spec) == (record_key(record), product_fp)

    def test_acyclic_anchor_runs_no_key_pattern(self, monkeypatch):
        def no_masks(pred, memo):
            raise AssertionError("a key pattern ran against the empty molecule")

        monkeypatch.setattr("rxnkit.substructure._predicate_mask", no_masks)
        _, fp = split_features(_rxn_record("r", "CCO.CC(=O)O>>CC(=O)OCC"),
                               FingerprintSpec(kind="key"))
        assert (fp.width, fp.bits) == (166, 0)

    @pytest.mark.parametrize("record, match", [
        ({"id": "t1"}, "'t1' has neither 'rxn' nor 'smiles'"),
        (_rxn_record("r", "not>>"), "cannot parse reactants fragment 0"),
        (_rxn_record("r", 5), "reaction SMILES must be a string, not int"),
        (_mol_record("m", 5), "SMILES must be a string, not int"),
    ])
    def test_bad_record_raises(self, record, match):
        with pytest.raises(ValueError, match=match):
            split_features(record, FingerprintSpec(kind="circular"))


class TestResample:
    def test_train_equals_candidates(self):
        pool = [_rxn_record(f"r{i}", f"CCO>>CC{'C' * i}N") for i in range(5)]
        report = _resample(pool, pool, band=(0.5, 0.6), n=3)
        assert report["delivered_n"] == 0
        assert report["rejected_overlap"] == 5

    def test_disjoint_zero_similarity_orders_by_id(self):
        candidates = [_mol_record(f"c{i}", "C1CCCCC1" + "C" * i) for i in range(4)]
        train = [_mol_record("t0", "CCCCO")]  # acyclic scaffold: empty fp
        # Candidate scaffolds are cyclohexane (non-empty) vs train empty: sim 0
        report = _resample(candidates, train, band=(0.0, 0.6), n=3)
        assert report["delivered_n"] == 3
        assert [row["id"] for row in report["selected"]] == ["c0", "c1", "c2"]
        assert all(row["max_train_similarity"] == 0.0 for row in report["selected"])

    def test_planted_similarity_structure(self):
        rng = random.Random(17)
        motifs = [
            "c1ccccc1", "c1ccncc1", "C1CCCCC1", "C1CCNCC1", "c1ccc2ccccc2c1",
            "C1CCOC1", "c1cnc2[nH]ccc2c1", "C1CC2CCC1CC2", "c1ccsc1", "C1CCCC1",
        ]
        train = [_mol_record(f"t{i}", m + "CC") for i, m in enumerate(motifs[:4])]
        candidates = [
            _mol_record(f"c{i:02d}", rng.choice(motifs) + "C" * rng.randint(0, 3))
            for i in range(40)
        ]
        spec = FingerprintSpec(kind="circular")
        report = _resample(candidates, train, band=(0.5, 0.6), n=10)

        # Independent scoring straight from fingerprints.
        train_fps = [split_features(r, spec)[1] for r in train]
        expected = []
        for r in candidates:
            sim = max(tanimoto(split_features(r, spec)[1], t) for t in train_fps)
            if sim <= 0.6:
                expected.append((sim, r["id"]))
        expected.sort()
        k = len(expected)
        assert report["delivered_n"] == min(k, 10)
        assert report["selected"] == [{"id": rid, "max_train_similarity": sim}
                                      for sim, rid in expected[:10]]
        sims = [row["max_train_similarity"] for row in report["selected"]]
        assert all(sim <= 0.6 for sim in sims)
        assert sims == sorted(sims)

    def test_postconditions(self):
        candidates = [_mol_record(f"c{i}", "C1CCCCC1" + "O" * (i % 3)) for i in range(12)]
        train = [_mol_record("t", "c1ccccc1CC")]
        report = _resample(candidates, train, band=(0.5, 0.6), n=5)
        assert report["delivered_n"] <= 5
        assert all(row["max_train_similarity"] <= 0.6 for row in report["selected"])

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            _resample([], [_mol_record("t", "C")], band=(0.5, 0.6), n=1)


class TestLeakage:
    def test_disjoint_splits_clean(self):
        report = _leakage(
            {
                "train": [_rxn_record("a", "CCO>>CCN")],
                "test": [_rxn_record("b", "CCO>>CCF")],
            }
        )
        assert report == {"cross": [], "within": []}

    def test_planted_duplicates_counted_exactly(self):
        rng = random.Random(5)
        shared = [f"CCO.CC{'C' * i}>>CC{'C' * i}OCC" for i in range(72)]
        train = [_rxn_record(f"tr{i}", s) for i, s in enumerate(shared)]
        train += [_rxn_record(f"tx{i}", f"CCN.C{'C' * i}O>>CCNC{'C' * i}") for i in range(30)]
        test = [_rxn_record(f"te{i}", s) for i, s in enumerate(shared)]
        test += [_rxn_record(f"ty{i}", f"CCF.C{'C' * i}O>>FCC{'C' * i}") for i in range(10)]
        rng.shuffle(train)
        rng.shuffle(test)
        report = _leakage({"train": train, "test": test})
        assert cross_counts(report) == {("test", "train"): 72}
        assert report["within"] == []

    def test_permuted_fragments_still_detected(self):
        report = _leakage(
            {
                "a": [_rxn_record("x", "CCO.CC(=O)O>>CC(=O)OCC")],
                "b": [_rxn_record("y", "CC(=O)O.OCC>>CC(=O)OCC")],
            }
        )
        assert cross_counts(report) == {("a", "b"): 1}

    def test_within_split_duplicates(self):
        report = _leakage(
            {"a": [_rxn_record("x", "CCO>>CCN"), _rxn_record("y", "OCC>>NCC")]}
        )
        assert report["within"] == [{"split": "a", "count": 1, "pairs": [["x", "y"]]}]

    def test_randomized_fixture_no_false_results(self):
        rng = random.Random(99)
        base = [f"C{'C' * i}O>>C{'C' * i}N" for i in range(60)]
        planted = rng.sample(range(60), 25)
        train = [_rxn_record(f"tr{i}", base[i]) for i in range(60)]
        test = [_rxn_record(f"te{i}", base[i]) for i in planted]
        test += [_rxn_record(f"tn{i}", f"CCBr.C{'C' * i}O>>CCOC{'C' * i}") for i in range(20)]
        rng.shuffle(test)
        report = _leakage({"train": train, "test": test})
        got = {(p[0], p[1]) for c in report["cross"] for p in c["pairs"]}
        # Split names sort alphabetically, so pairs read (test id, train id).
        expected = {(f"te{i}", f"tr{i}") for i in planted}
        assert got == expected


class TestPrincipalMolecule:
    """A reaction's scaffold fingerprint is that of its principal product."""

    @staticmethod
    def scaffold_fp(record):
        return split_features(record, FingerprintSpec(kind="circular"))[1]

    def test_largest_product_fragment(self):
        fp = self.scaffold_fp(_rxn_record("r", "CCO>>CC(=O)Oc1ccccc1.C1CC1"))
        assert fp == self.scaffold_fp(_mol_record("p", "CC(=O)Oc1ccccc1"))
        assert fp != self.scaffold_fp(_mol_record("p", "C1CC1"))

    def test_tie_breaks_lexicographically(self):
        fp = self.scaffold_fp(_rxn_record("r", "C>>C1CCOC1.C1CCNC1"))
        assert canonicalize("C1CCNC1") < canonicalize("C1CCOC1")  # five heavy atoms each
        assert fp == self.scaffold_fp(_mol_record("p", "C1CCNC1"))
        assert fp != self.scaffold_fp(_mol_record("p", "C1CCOC1"))
