"""Pattern parsing and subgraph matching, checked against the all-injections oracle."""

import random

import pytest

from rxnkit.fingerprint import key_fingerprint, load_key_table
from rxnkit.molgraph import parse_smiles
from rxnkit.substructure import (
    Pattern,
    PatternSyntaxError,
    count_matches,
    find_matches,
    has_match,
    parse_pattern,
)

from conftest import random_smiles, shuffled
from oracles import all_injections_matches, backtracking_matches


class TestParsePattern:
    def test_single_element(self):
        pat = parse_pattern("[#8]")
        assert len(pat) == 1
        assert pat.atoms[0] == ("elem", 8)

    def test_aromatic_ring(self):
        pat = parse_pattern("c1ccccc1")
        assert len(pat) == 6
        assert len(pat.bonds) == 6

    def test_and_expression(self):
        pat = parse_pattern("[#6&R]")
        assert pat.atoms[0] == ("and", (("elem", 6), ("ring",)))

    def test_implicit_and(self):
        assert parse_pattern("[#6R]").atoms[0] == parse_pattern("[#6&R]").atoms[0]

    def test_or_and_not(self):
        pat = parse_pattern("[!#6,#7]")
        assert pat.atoms[0][0] == "or"

    @pytest.mark.parametrize("text", ["", "[", "[]", "[Q]", "(C)C(", "[R3]", "C1CC", "[#600]"])
    def test_errors(self, text):
        with pytest.raises(PatternSyntaxError):
            parse_pattern(text)


class TestMatching:
    def test_oxygen_in_ethanol(self):
        mol = parse_smiles("CCO")
        pat = parse_pattern("[#8]")
        assert has_match(pat, mol)
        assert count_matches(pat, mol) == 1

    def test_benzene_in_toluene(self):
        assert has_match(parse_pattern("c1ccccc1"), parse_smiles("Cc1ccccc1"))

    def test_no_nitrogen_in_ethanol(self):
        assert not has_match(parse_pattern("[#7]"), parse_smiles("CCO"))

    def test_aromatic_vs_aliphatic_case(self):
        benzene, hexane = parse_smiles("c1ccccc1"), parse_smiles("C1CCCCC1")
        assert has_match(parse_pattern("c"), benzene)
        assert not has_match(parse_pattern("C"), benzene)
        assert has_match(parse_pattern("C"), hexane)
        assert not has_match(parse_pattern("c"), hexane)

    def test_degree_and_hydrogens(self):
        iso = parse_smiles("CC(C)C")
        assert count_matches(parse_pattern("[D3]"), iso) == 1
        assert count_matches(parse_pattern("[H3]"), iso) == 3

    def test_charge(self):
        mol = parse_smiles("CC(=O)[O-]")
        assert count_matches(parse_pattern("[-]"), mol) == 1
        assert not has_match(parse_pattern("[+]"), mol)

    def test_ring_membership(self):
        mol = parse_smiles("CC1CCC1")
        assert count_matches(parse_pattern("[#6&R]"), mol) == 4
        assert count_matches(parse_pattern("[#6&!R]"), mol) == 1

    def test_any_bond(self):
        mol = parse_smiles("C=C")
        assert has_match(parse_pattern("C~C"), mol)
        assert has_match(parse_pattern("C=C"), mol)
        assert not has_match(parse_pattern("C-C"), mol)

    def test_default_bond_matches_aromatic(self):
        assert has_match(parse_pattern("[#6][#6]"), parse_smiles("c1ccccc1"))
        assert not has_match(parse_pattern("[#6]=[#6]"), parse_smiles("c1ccccc1"))

    def test_count_collapses_atom_sets(self):
        # 12 benzene automorphisms, one atom set
        assert count_matches(parse_pattern("c1ccccc1"), parse_smiles("c1ccccc1")) == 1

    def test_multiple_sites(self):
        assert count_matches(parse_pattern("[#8&H1]"), parse_smiles("OCCO")) == 2

    def test_embedding_order_follows_pattern(self):
        mol = parse_smiles("CCO")
        (match,) = find_matches(parse_pattern("[#8][#6]"), mol)
        assert mol.atoms[match[0]].atomic_number == 8
        assert mol.atoms[match[1]].atomic_number == 6


PATTERNS = [
    "[#6]", "[#8]", "[#7]", "c", "C", "[R]", "[!R]", "[D2]", "[H2]",
    "C=O", "[#6]~[#7]", "C-C-C", "[#8&H1]", "c1ccccc1", "[#6](~[#8])~[#8]",
    "[!#6&!#1]", "[#7,#8]", "C1CCC1",
]


class TestOracleAgreement:
    def test_matches_all_injections_oracle(self):
        rng = random.Random(60451)
        mols = [parse_smiles(random_smiles(rng, 4, 10)) for _ in range(12)]
        mols += [parse_smiles(s) for s in
                 ["c1ccccc1", "Cc1ccc(O)cc1", "CC(=O)OC", "C1CCC1CO", "OCCN"]]
        pats = [parse_pattern(p) for p in PATTERNS]
        checked = 0
        for mol in mols:
            for pat in pats:
                if len(pat) > 8 or len(mol) > 10:
                    continue
                ours = {frozenset(m) for m in find_matches(pat, mol)}
                assert ours == all_injections_matches(pat, mol), pat.text
                checked += 1
        assert checked > 100

    def test_count_invariant_under_renumbering(self):
        rng = random.Random(7)
        for s in ["Cc1ccc(O)cc1", "CC(=O)OC1CCC1", "OCC(N)CO"]:
            mol = parse_smiles(s)
            for p in PATTERNS:
                pat = parse_pattern(p)
                base = count_matches(pat, mol)
                for _ in range(5):
                    assert count_matches(pat, shuffled(mol, rng)) == base


class TestBacktrackingReference:
    def test_same_embeddings_in_the_same_order(self, corpus):
        patterns = [pattern for _, pattern, _ in load_key_table().entries]
        patterns += [parse_pattern(p) for p in PATTERNS]
        for s in corpus[:40]:
            mol = parse_smiles(s)
            for pat in patterns:
                for limit in (None, 1, 3):
                    assert find_matches(pat, mol, limit) == backtracking_matches(
                        pat, mol, limit
                    ), (pat.text, s, limit)

    def test_disconnected_pattern(self):
        # The grammar only builds connected patterns; a Pattern made by hand
        # may have several components, each started from its candidates.
        pat = Pattern(
            text="[#8].[#6]~[#7]",
            atoms=(("elem", 8), ("elem", 6), ("elem", 7)),
            bonds=((1, 2, "any"),),
        )
        for s in ["OCCN", "OCC(N)CO", "CCN", "c1ccncc1O"]:
            mol = parse_smiles(s)
            for limit in (None, 1):
                assert find_matches(pat, mol, limit) == backtracking_matches(
                    pat, mol, limit
                )
        assert count_matches(pat, parse_smiles("OCC(N)CO")) == 2

    def test_pattern_adjacency_built_at_parse(self):
        pat = parse_pattern("C1CC1=O")
        assert pat.adjacency == (
            ((1, "default"), (2, "default")),
            ((0, "default"), (2, "default")),
            ((1, "default"), (0, "default"), (3, "double")),
            ((2, "double"),),
        )

    def test_long_chain_key_does_not_recurse(self, tmp_path):
        table = tmp_path / "keys.txt"
        table.write_text("1\t" + "C" * 1100 + "\t1\n")
        keys = load_key_table(table)
        assert key_fingerprint(parse_smiles("C" * 1300), keys).bits == frozenset({0})
