"""Fingerprint families and Tanimoto similarity."""

import random

import pytest

from rxnkit.fingerprint import (
    BitFingerprint,
    FingerprintSpec,
    circular_fingerprint,
    fingerprint,
    key_fingerprint,
    load_key_table,
    path_fingerprint,
    tanimoto,
)
from rxnkit.molgraph import parse_smiles

from conftest import random_smiles, shuffled
from oracles import reference_key_fingerprint, reference_path_fingerprint


class TestTanimoto:
    def test_identical(self):
        fp = BitFingerprint(width=16, bits=frozenset({1, 5, 9}))
        assert tanimoto(fp, fp) == 1.0

    def test_half_overlap(self):
        a = BitFingerprint(width=16, bits=frozenset({1, 2, 3}))
        b = BitFingerprint(width=16, bits=frozenset({2, 3, 4}))
        assert tanimoto(a, b) == 0.5

    def test_disjoint(self):
        a = BitFingerprint(width=16, bits=frozenset({1}))
        b = BitFingerprint(width=16, bits=frozenset({2}))
        assert tanimoto(a, b) == 0.0

    def test_both_empty_is_one(self):
        a = BitFingerprint(width=16, bits=frozenset())
        assert tanimoto(a, a) == 1.0

    def test_width_mismatch(self):
        a = BitFingerprint(width=16, bits=frozenset())
        b = BitFingerprint(width=32, bits=frozenset())
        with pytest.raises(ValueError):
            tanimoto(a, b)

    def test_bounds_and_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            a = BitFingerprint(64, frozenset(rng.sample(range(64), rng.randint(0, 20))))
            b = BitFingerprint(64, frozenset(rng.sample(range(64), rng.randint(0, 20))))
            t = tanimoto(a, b)
            assert 0.0 <= t <= 1.0
            assert t == tanimoto(b, a)


class TestCircular:
    def test_single_atom_radius_zero(self):
        fp = circular_fingerprint(parse_smiles("C"), FingerprintSpec(radius=0))
        assert len(fp.bits) == 1

    def test_renumbering_invariance(self):
        assert circular_fingerprint(parse_smiles("OCC")) == circular_fingerprint(
            parse_smiles("CCO")
        )

    def test_bit_count_bound(self):
        fp = circular_fingerprint(parse_smiles("CCO"), FingerprintSpec(radius=2))
        assert len(fp.bits) <= 9  # 3 atoms x 3 radii

    def test_radius_superset(self, corpus):
        for s in corpus[:30]:
            mol = parse_smiles(s)
            prev = circular_fingerprint(mol, FingerprintSpec(radius=0)).bits
            for r in (1, 2, 3):
                cur = circular_fingerprint(mol, FingerprintSpec(radius=r)).bits
                assert prev <= cur
                prev = cur

    def test_differs_between_molecules(self):
        a = circular_fingerprint(parse_smiles("CCO"))
        b = circular_fingerprint(parse_smiles("CCN"))
        assert a.bits != b.bits


class TestPath:
    def test_single_bond_single_bit(self):
        fp = path_fingerprint(parse_smiles("CC"))
        assert len(fp.bits) == 1

    def test_butane_bit_bound(self):
        # path multiset {C-C x3, C-C-C x2, C-C-C-C x1} collapses to <= 3 bits
        fp = path_fingerprint(parse_smiles("CCCC"))
        assert 1 <= len(fp.bits) <= 3

    def test_renumbering_invariance(self):
        assert path_fingerprint(parse_smiles("OCC")) == path_fingerprint(
            parse_smiles("CCO")
        )

    def test_path_window(self):
        spec = FingerprintSpec(kind="path", min_path=2, max_path=2)
        fp = path_fingerprint(parse_smiles("CC"), spec)
        assert len(fp.bits) == 0


class TestKeys:
    def test_default_table_size(self):
        assert len(load_key_table()) == 166

    def test_benzene_oxygen_key_clear(self, tmp_path):
        table = tmp_path / "keys.txt"
        table.write_text("1\t[#8]\t1\n")
        kt = load_key_table(table)
        assert key_fingerprint(parse_smiles("c1ccccc1"), kt).bits == frozenset()
        assert key_fingerprint(parse_smiles("CCO"), kt).bits == frozenset({0})

    def test_min_count(self, tmp_path):
        table = tmp_path / "keys.txt"
        table.write_text("1\t[#8]\t2\n")
        kt = load_key_table(table)
        assert key_fingerprint(parse_smiles("CCO"), kt).bits == frozenset()
        assert key_fingerprint(parse_smiles("OCCO"), kt).bits == frozenset({0})

    def test_empty_table_rejected(self, tmp_path):
        table = tmp_path / "keys.txt"
        table.write_text("# nothing here\n")
        with pytest.raises(ValueError):
            load_key_table(table)

    def test_width_equals_table_length(self):
        fp = key_fingerprint(parse_smiles("CCO"), load_key_table())
        assert fp.width == 166


class TestInvariance:
    def test_all_kinds_invariant_under_renumbering(self, corpus):
        rng = random.Random(11)
        table = load_key_table()
        for s in corpus[:25]:
            mol = parse_smiles(s)
            base = (
                circular_fingerprint(mol),
                path_fingerprint(mol),
                key_fingerprint(mol, table),
            )
            twin = shuffled(mol, rng)
            assert circular_fingerprint(twin) == base[0]
            assert path_fingerprint(twin) == base[1]
            assert key_fingerprint(twin, table) == base[2]

    def test_self_similarity_exactly_one(self, corpus):
        for s in corpus[:25]:
            mol = parse_smiles(s)
            for kind in ("circular", "path"):
                fp = fingerprint(mol, FingerprintSpec(kind=kind))
                assert tanimoto(fp, fp) == 1.0


class TestSerialization:
    def test_round_trip(self):
        fp = circular_fingerprint(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"))
        text = fp.serialize()
        width, _, payload = text.partition(":")
        assert int(width) == 2048
        assert BitFingerprint.deserialize(text) == fp

    def test_deterministic_across_runs(self):
        # FNV-1a is seedless: a frozen value guards against drift
        fp = circular_fingerprint(parse_smiles("C"), FingerprintSpec(radius=0, width=64))
        assert fp == BitFingerprint.deserialize(fp.serialize())
        assert len(fp.bits) == 1


# A key table beyond the shipped one: counts above one, ring closures, and
# the '~', ':', '!' and ',' query forms.
CUSTOM_KEYS = """\
1\t[#8]\t2
2\tc1ccccc1\t1
3\t[#6]1~[#6]~[#6]~[#6]~[#6]1\t1
4\t[#6]~[#7]\t2
5\tc:c:c\t2
6\t[!#6&!#1]\t3
7\t[#7,#8]~[#6]=[#8]\t1
8\t[#6](~[#8])~[#8]\t2
9\t[!R]-[R]\t3
10\t[D3,D4]~[!#6]\t1
11\t[#6]1[#6][#6][#6]1\t1
12\t[#7,#8,#16&H1]\t1
"""


class TestReferenceEquality:
    """The loop-based key and path fingerprints equal the recursive references."""

    WINDOWS = [(1, 7), (0, 3), (2, 5)]

    def test_conftest_molecules_with_renumberings(self):
        rng = random.Random(40411)
        table = load_key_table()
        specs = [
            FingerprintSpec(kind="path", min_path=lo, max_path=hi, width=64)
            for lo, hi in self.WINDOWS
        ]
        checked = 0
        for _ in range(1000):
            mol = parse_smiles(random_smiles(rng, 5, 14))
            key_ref = reference_key_fingerprint(mol, table).serialize()
            twins = (mol, shuffled(mol, rng), shuffled(mol, rng))
            # Each numbering checks the keys and one path window.
            for spec, twin in zip(specs, twins):
                assert key_fingerprint(twin, table).serialize() == key_ref
                assert (
                    path_fingerprint(twin, spec).serialize()
                    == reference_path_fingerprint(mol, spec).serialize()
                )
                checked += 1
        assert checked == 3000

    def test_default_path_spec_on_corpus(self, corpus):
        rng = random.Random(3)
        for s in corpus:
            mol = parse_smiles(s)
            ref = reference_path_fingerprint(mol).serialize()
            assert path_fingerprint(mol).serialize() == ref
            assert path_fingerprint(shuffled(mol, rng)).serialize() == ref

    def test_custom_key_table(self, tmp_path, corpus):
        path = tmp_path / "keys.txt"
        path.write_text(CUSTOM_KEYS)
        table = load_key_table(path)
        rng = random.Random(17)
        smiles = corpus + [random_smiles(rng) for _ in range(150)]
        set_bits = set()
        for s in smiles:
            mol = parse_smiles(s)
            ref = reference_key_fingerprint(mol, table)
            set_bits |= ref.bits
            assert key_fingerprint(mol, table) == ref
            assert key_fingerprint(shuffled(mol, rng), table) == ref
        assert len(set_bits) == len(table)  # every key is hit somewhere
