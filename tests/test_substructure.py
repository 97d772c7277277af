"""Pattern parsing and subgraph matching, checked against the all-injections oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnkit.fingerprint import key_fingerprint, load_key_table
from rxnkit.molgraph import parse_smiles
from rxnkit.substructure import (
    Pattern,
    PatternSyntaxError,
    find_matches,
    parse_pattern,
)

from conftest import random_smiles, shuffled
from oracles import all_injections_matches, backtracking_matches

# The pattern grammar's characters, a few it lacks, and digits from other
# scripts: Arabic-Indic three, which int() reads as 3, and superscript two,
# which str.isdigit() admits but int() rejects.
PATTERN_ALPHABET = "CNOSPFIBrclnosp[]()=#~:-+!&,%0123456789RDHQ*٣²"


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

    @pytest.mark.parametrize("text", ["", "[", "[]", "[Q]", "(C)C(", "[R3]", "C1CC", "[#600]",
                                      "C٣CC٣", "[#٦]", "[D٢]", "C²CC²"])
    def test_errors(self, text):
        with pytest.raises(PatternSyntaxError):
            parse_pattern(text)

    @pytest.mark.parametrize("text", ["[#" + "1" * 5000 + "]", "[D" + "1" * 5000 + "]",
                                      "[+" + "1" * 5000 + "]"], ids=["elem", "deg", "charge"])
    def test_digit_run_past_the_int_limit(self, text):
        with pytest.raises(PatternSyntaxError):
            parse_pattern(text)

    def test_conflicting_ring_bond(self):
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern("C-1CC=1")
        assert str(err.value) == "conflicting ring bond in 'C-1CC=1'"

    def test_charges_read_as_in_smiles(self):
        texts = ("+", "++", "+2", "-", "--")
        charges = [parse_pattern(f"[{text}]").atoms[0] for text in texts]
        assert charges == [("charge", q) for q in (1, 2, 2, -1, -2)]


class TestParsePatternRaisesOnlyItsError:
    """Parsing any pattern text raises PatternSyntaxError, nothing else."""

    @settings(max_examples=2000, deadline=None, database=None)
    @given(st.text(alphabet=PATTERN_ALPHABET, max_size=30))
    def test_text_over_the_pattern_alphabet(self, text):
        try:
            parse_pattern(text)
        except PatternSyntaxError:
            pass


class TestMatching:
    def test_oxygen_in_ethanol(self):
        mol = parse_smiles("CCO")
        pat = parse_pattern("[#8]")
        assert find_matches(pat, mol, max_matches=1)
        assert len(find_matches(pat, mol)) == 1

    def test_benzene_in_toluene(self):
        assert find_matches(parse_pattern("c1ccccc1"), parse_smiles("Cc1ccccc1"), max_matches=1)

    def test_no_nitrogen_in_ethanol(self):
        assert not find_matches(parse_pattern("[#7]"), parse_smiles("CCO"), max_matches=1)

    def test_aromatic_vs_aliphatic_case(self):
        benzene, hexane = parse_smiles("c1ccccc1"), parse_smiles("C1CCCCC1")
        assert find_matches(parse_pattern("c"), benzene, max_matches=1)
        assert not find_matches(parse_pattern("C"), benzene, max_matches=1)
        assert find_matches(parse_pattern("C"), hexane, max_matches=1)
        assert not find_matches(parse_pattern("c"), hexane, max_matches=1)

    def test_degree_and_hydrogens(self):
        iso = parse_smiles("CC(C)C")
        assert len(find_matches(parse_pattern("[D3]"), iso)) == 1
        assert len(find_matches(parse_pattern("[H3]"), iso)) == 3

    def test_charge(self):
        mol = parse_smiles("CC(=O)[O-]")
        assert len(find_matches(parse_pattern("[-]"), mol)) == 1
        assert not find_matches(parse_pattern("[+]"), mol, max_matches=1)

    def test_ring_membership(self):
        mol = parse_smiles("CC1CCC1")
        assert len(find_matches(parse_pattern("[#6&R]"), mol)) == 4
        assert len(find_matches(parse_pattern("[#6&!R]"), mol)) == 1
        assert find_matches(parse_pattern("[R0]"), parse_smiles("CC1CC1")) == [(0,)]

    def test_any_bond(self):
        mol = parse_smiles("C=C")
        assert find_matches(parse_pattern("C~C"), mol, max_matches=1)
        assert find_matches(parse_pattern("C=C"), mol, max_matches=1)
        assert not find_matches(parse_pattern("C-C"), mol, max_matches=1)

    # Each pattern bond against a single, double, triple and aromatic bond.
    BOND_TABLE = {
        "-": (True, False, False, False),
        "=": (False, True, False, False),
        "#": (False, False, True, False),
        ":": (False, False, False, True),
        "~": (True, True, True, True),
        "": (True, False, False, True),
    }

    @pytest.mark.parametrize("bond", sorted(BOND_TABLE))
    def test_pattern_bond_table(self, bond):
        molecules = ["CC", "C=C", "C#C", "c1ccccc1"]
        got = tuple(bool(find_matches(parse_pattern(f"[#6]{bond}[#6]"), parse_smiles(s)))
                    for s in molecules)
        assert got == self.BOND_TABLE[bond]

    def test_default_bond_matches_aromatic(self):
        benzene = parse_smiles("c1ccccc1")
        assert find_matches(parse_pattern("[#6][#6]"), benzene, max_matches=1)
        assert not find_matches(parse_pattern("[#6]=[#6]"), benzene, max_matches=1)

    def test_count_collapses_atom_sets(self):
        # 12 benzene automorphisms, one atom set
        assert len(find_matches(parse_pattern("c1ccccc1"), parse_smiles("c1ccccc1"))) == 1

    def test_multiple_sites(self):
        assert len(find_matches(parse_pattern("[#8&H1]"), parse_smiles("OCCO"))) == 2

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
                base = len(find_matches(pat, mol))
                for _ in range(5):
                    assert len(find_matches(pat, shuffled(mol, rng))) == base


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
            bonds=((1, 2, frozenset({1, 2, 3, 4})),),
        )
        for s in ["OCCN", "OCC(N)CO", "CCN", "c1ccncc1O"]:
            mol = parse_smiles(s)
            for limit in (None, 1):
                assert find_matches(pat, mol, limit) == backtracking_matches(
                    pat, mol, limit
                )
        assert len(find_matches(pat, parse_smiles("OCC(N)CO"))) == 2

    def test_pattern_adjacency_built_at_parse(self):
        pat = parse_pattern("C1CC1=O")
        unwritten, double = frozenset({1, 4}), frozenset({2})
        assert pat.adjacency == (
            ((1, unwritten), (2, unwritten)),
            ((0, unwritten), (2, unwritten)),
            ((1, unwritten), (0, unwritten), (3, double)),
            ((2, double),),
        )

    def test_long_chain_key_does_not_recurse(self, tmp_path):
        table = tmp_path / "keys.txt"
        table.write_text("1\t" + "C" * 1100 + "\t1\n")
        keys = load_key_table(table)
        assert key_fingerprint(parse_smiles("C" * 1300), keys).bits == 1


class TestInternedSlots:
    def test_equal_predicates_share_a_slot(self):
        a, b = parse_pattern("[#8]~[#6]=[#8]"), parse_pattern("[#6]=[#8]")
        assert a.slots[0] == a.slots[2] == b.slots[1]
        assert a.slots[1] == b.slots[0] != b.slots[1]

    def test_pickled_pattern_takes_the_slots_of_the_loading_process(self, monkeypatch):
        import pickle

        from rxnkit import substructure

        pattern = parse_pattern("[#7,#8]~[#6]=[#8]")
        mol = parse_smiles("CC(=O)NCC(=O)O")
        expected = find_matches(pattern, mol)
        data = pickle.dumps(pattern)
        # A process that interned other predicates first numbers them otherwise.
        monkeypatch.setattr(substructure, "_SLOTS", {})
        monkeypatch.setattr(substructure, "_RULES", [])
        parse_pattern("[#16]~[#9]")
        loaded = pickle.loads(data)
        assert loaded == pattern and loaded.slots != pattern.slots
        assert find_matches(loaded, parse_smiles("CC(=O)NCC(=O)O")) == expected

    def test_one_plan_per_atom_order(self, corpus):
        pattern = parse_pattern("[#6]~[#8]~[#6]=[#8]")
        for s in corpus:
            find_matches(pattern, parse_smiles(s))
        assert pattern.plans
        for order, steps in pattern.plans.items():
            assert sorted(order) == [0, 1, 2, 3]
            assert [p for p, _ in steps] == list(order)

    def test_pruned_candidates_keep_the_embeddings(self, corpus):
        # Rings joined by a chain, whose chain atoms need not lie on a ring,
        # and stars, whose centres need three or four neighbours.
        patterns = [parse_pattern(p) for p in (
            "C1CC1CC1CC1", "c1ccccc1CCc1ccccc1", "[#6](~[#6])(~[#6])(~[#6])~[#6]",
            "[R]~[!R](~[#8])~[R]", "[#6]1~[#6]~[#6]2~[#6]~[#6]~[#6]~[#6]2~[#6]1",
        )]
        smiles = corpus[:40] + ["C1CC1CC1CC1", "c1ccc(cc1)CCc1ccccc1", "CC(C)(C)C(C)(C)C",
                                "OC(C1CC1)C1CCC1", "C1CCC2CCCCC2C1"]
        rng = random.Random(8)
        for s in smiles:
            mol = parse_smiles(s)
            for twin in (mol, shuffled(mol, rng)):
                for pat in patterns:
                    for limit in (None, 1):
                        assert find_matches(pat, twin, limit) == backtracking_matches(
                            pat, twin, limit), (pat.text, s, limit)
        assert find_matches(patterns[0], parse_smiles("C1CC1CC1CC1"))
