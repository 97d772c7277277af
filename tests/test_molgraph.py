"""Molecular graph core: parsing, canonicalization, formulas, records."""

import dataclasses
import hashlib
import json
import pickle
import random
import time
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxnkit.molgraph import (
    ChemistryError,
    SmilesSyntaxError,
    canonical_ranks,
    canonical_smiles,
    canonicalize,
    molecular_formula,
    parse_smiles,
    to_graph_record,
    validate,
)
from rxnkit.fingerprint import circular_fingerprint
from rxnkit.molgraph import Atom, Bond, Molecule, canon, model, perception
from rxnkit.molgraph.parser import parse_draft
from rxnkit.scaffold import EMPTY_SCAFFOLD, murcko_scaffold

from conftest import (
    CURATED_SMILES,
    build_random_molecule,
    kekule_acene,
    ladder_polymer,
    renumbered,
    shuffled,
)
from oracles import (
    bond_keys,
    full_resort_ranks,
    reference_molecule_from_draft,
    reference_fragments,
    reference_non_bridge_edges,
    reference_small_cycles,
    reference_write_fragment,
)


class TestParse:
    def test_methane(self):
        mol = parse_smiles("C")
        assert len(mol.atoms) == 1
        assert mol.atoms[0].atomic_number == 6
        assert mol.atoms[0].implicit_hydrogens == 4

    def test_unclosed_ring_is_syntax_error(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("C1CC")

    def test_benzene(self):
        mol = parse_smiles("c1ccccc1")
        assert len(mol.atoms) == 6
        assert all(a.is_aromatic for a in mol.atoms)
        assert all(a.implicit_hydrogens == 1 for a in mol.atoms)
        assert sum(1 for b in mol.bonds if b.is_aromatic) == 6

    def test_multi_fragment(self):
        mol = parse_smiles("CC(=O)O.OCC")
        assert len(reference_fragments(mol)) == 2

    def test_bracket_features(self):
        mol = parse_smiles("[13CH3][O-]")
        assert mol.atoms[0].isotope == 13
        assert mol.atoms[0].implicit_hydrogens == 3
        assert mol.atoms[1].formal_charge == -1

    def test_atom_map_accepted_and_dropped(self):
        assert canonicalize("[CH3:5][OH:2]") == canonicalize("CO")

    def test_explicit_h_folding(self):
        assert canonicalize("C([H])([H])([H])[H]") == "C"
        assert molecular_formula(parse_smiles("[H][H]")) == "H2"
        mol = parse_smiles("[2H]OC")
        assert len(mol.atoms) == 3  # isotopic hydrogen kept as a node
        # The folded H makes a CH2: its chiral tag cannot be kept.
        assert canonicalize("[C@H]([H])(F)Cl") == "[CH2](F)Cl"

    def test_percent_ring_numbers(self):
        assert canonicalize("C%10CCCCC%10") == canonicalize("C1CCCCC1")

    def test_ring_digit_reuse(self):
        assert canonicalize("C1CC1C1CC1") == canonicalize("C2CC2C3CC3")

    @pytest.mark.parametrize(
        "text",
        ["", "  ", "C(C", "C)C", "CC(", "C=", "C.=C", "C..C", ".C", "C.",
         "[Xx]", "[C", "C1CC2", "CC--C", "C=1CC-1", "1CC", "C%1C", "[]"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("C11", "ring bond connects an atom to itself"),
            ("C%10%10", "ring bond connects an atom to itself"),
            ("C1%01", "ring bond connects an atom to itself"),
            ("C1C1", "duplicate bond between atoms 0 and 1"),
            ("C%10C%10", "duplicate bond between atoms 0 and 1"),
            ("C1(C1)", "duplicate bond between atoms 0 and 1"),
            ("C=1C=1", "duplicate bond between atoms 0 and 1"),
            ("C12CC12", "duplicate bond between atoms 0 and 2"),
            ("C%10%11CC%10%11", "duplicate bond between atoms 0 and 2"),
            ("[C@H]12CC12", "duplicate bond between atoms 0 and 2"),
            ("C1CC2C12", "duplicate bond between atoms 2 and 3"),
        ],
    )
    def test_ring_closure_errors(self, text, message):
        with pytest.raises(SmilesSyntaxError) as err:
            parse_smiles(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", [
        ("=C", "bond symbol with no preceding atom (position 1 in '=C')"),
        ("C=(C)", "bond symbol before '(' (position 2 in 'C=(C)')"),
        ("C(C=)C", "dangling bond symbol before ')' (position 4 in 'C(C=)C')"),
        ("C=.C", "bond symbol before '.' (position 2 in 'C=.C')"),
        ("C(.C)", "'.' inside a branch (position 2 in 'C(.C)')"),
        (".C", "empty fragment before '.' (position 0 in '.C')"),
        ("C..C", "empty fragment before '.' (position 2 in 'C..C')"),
        ("C.", "empty fragment after '.'"),
        ("C==C", "two consecutive bond symbols (position 2 in 'C==C')"),
        ("C=/C", "two consecutive bond symbols (position 2 in 'C=/C')"),
        ("C//C", "two consecutive bond symbols (position 2 in 'C//C')"),
        ("C=", "dangling bond symbol at end of input"),
        ("C11", "ring bond connects an atom to itself"),
        ("C/1CCCC/1", "conflicting bond symbols on ring bond 1 (position 8 in 'C/1CCCC/1')"),
        ("C=1CCCC-1", "conflicting bond symbols on ring bond 1 (position 8 in 'C=1CCCC-1')"),
        ("C=1CCCC/1", "conflicting bond symbols on ring bond 1 (position 8 in 'C=1CCCC/1')"),
    ])
    def test_draft_error_messages(self, text, message):
        with pytest.raises(SmilesSyntaxError) as err:
            parse_draft(text)
        assert (type(err.value), str(err.value)) == (SmilesSyntaxError, message)

    @pytest.mark.parametrize("text, bond", [
        # Two opposite directions agree: the opening mark, read from atom 0.
        ("C/1CCCC\\1", (0, 4, None, "/")),
        # A mark at the closing atom alone reads from it, so it is flipped.
        ("F/C=C1.Br/1", (2, 3, None, "\\")),
        ("F/C=C/1.Br\\1", (2, 3, None, "/")),
    ])
    def test_ring_closure_direction_marks(self, text, bond):
        ring_bond = parse_draft(text).bonds[-1]
        assert (ring_bond.a, ring_bond.b, ring_bond.symbol, ring_bond.stereo) == bond

    @pytest.mark.parametrize("text, bonds", [("C1.C1", 1), ("C1C2.C12", 3), ("C12C(C1)C2", 5)])
    def test_ring_closures_that_are_new_bonds(self, text, bonds):
        assert len(parse_smiles(text).bonds) == bonds

    @pytest.mark.parametrize(
        "text",
        ["C(C)(C)(C)(C)C", "cC", "n1cccc1", "O=C(=O)C", "C:C", "FF(F)F"],
    )
    def test_chemistry_errors(self, text):
        with pytest.raises(ChemistryError):
            parse_smiles(text)

    def test_large_aromatic_ring_kekulizes(self):
        mol = parse_smiles("c1" + "c" * 2198 + "c1")
        assert len(mol) == 2200
        assert all(b.is_aromatic for b in mol.bonds)
        assert sum(b.order == 2 for b in mol.bonds) == 1100

    def test_large_kekule_ring_parses(self):
        # Ring perception walks the shortest paths around the ring as a loop.
        mol = parse_smiles("C1=C" + "C=C" * 499 + "1")
        assert len(mol) == 1000
        assert sum(b.order == 2 for b in mol.bonds) == 500
        assert all(mol.ring_membership)

    def test_ring_bonds_found_once_per_parse(self, monkeypatch):
        calls = []
        find = model._non_bridge_edges

        def counting(*args):
            calls.append(args)
            return find(*args)

        monkeypatch.setattr(perception, "_non_bridge_edges", counting)
        monkeypatch.setattr(model, "_non_bridge_edges", counting)
        mol = parse_smiles("C1CC2CCC1CC2OCc1ccccc1")
        canonical_smiles(mol)
        assert len(calls) == 1
        assert mol.ring_bonds == reference_non_bridge_edges(len(mol), mol.neighbors,
                                                            bond_keys(mol))
        # Molecules built another way still find their ring bonds lazily.
        again = renumbered(mol, list(reversed(range(len(mol)))))
        assert "ring_bonds" not in vars(again)
        assert sum(again.ring_membership) == sum(mol.ring_membership)

    def test_untabulated_element_warns_instead_of_failing(self):
        mol = parse_smiles("[Fe](Cl)(Cl)Cl")
        assert molecular_formula(mol) == "Cl3Fe"


SMILES_ALPHABET = "CNOSPFIBrclnosp[]()=#$:/\\@+-.%0123456789H*"
NON_TEXT = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.binary(),
                     st.lists(st.text(max_size=3), max_size=3),
                     st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


class TestParseRaisesOnlyParseErrors:
    """Parsing any input raises SmilesSyntaxError or ChemistryError, nothing else."""

    @settings(max_examples=2000, deadline=None, database=None)
    @given(st.text(alphabet=SMILES_ALPHABET, max_size=40))
    def test_text_over_the_smiles_alphabet(self, text):
        try:
            parse_smiles(text)
        except (SmilesSyntaxError, ChemistryError):
            pass

    @settings(max_examples=200, deadline=None, database=None)
    @given(NON_TEXT)
    def test_values_that_are_not_text(self, value):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles(value)
        assert validate(value)["status"] == "syntax_error"


class TestValidate:
    def test_valid(self):
        assert validate("CC(=O)O")["status"] == "valid"

    def test_syntax_error(self):
        assert validate("C(C")["status"] == "syntax_error"

    def test_chemistry_error(self):
        verdict = validate("C(C)(C)(C)(C)C")
        assert verdict["status"] == "chemistry_error"
        assert "valence" in verdict["detail"]

    def test_verdicts_distinguishable(self):
        assert validate("C(C")["status"] != validate("C(C)(C)(C)(C)C")["status"]


class TestCanonical:
    def test_equivalent_inputs_agree(self):
        assert canonicalize("OCC") == canonicalize("CCO")
        assert canonicalize("C(O)C") == canonicalize("CCO")

    def test_idempotent(self, corpus):
        for s in corpus:
            assert canonicalize(s) == s

    def test_kekule_and_aromatic_forms_agree(self):
        assert canonicalize("C1=CC=CC=C1") == canonicalize("c1ccccc1")

    def test_fragments_sorted(self):
        out = canonicalize("OCC.CC(=O)O.[Na+]")
        assert out == ".".join(sorted(out.split(".")))

    def test_thirty_atom_renumberings_single_string(self):
        rng = random.Random(99)
        mol = build_random_molecule(rng, 30, 30)
        seen = {canonical_smiles(mol)}
        for _ in range(20):
            seen.add(canonical_smiles(shuffled(mol, rng)))
        assert len(seen) == 1

    def test_renumbering_invariance_corpus(self, corpus):
        rng = random.Random(4242)
        for s in corpus:
            mol = parse_smiles(s)
            base = canonical_smiles(mol)
            for _ in range(5):
                assert canonical_smiles(shuffled(mol, rng)) == base

    def test_round_trip(self, corpus):
        for s in corpus:
            assert canonicalize(s) == s  # corpus is pre-canonicalized

    def test_formula_conserved_by_canonicalization(self, corpus):
        for s in corpus:
            mol = parse_smiles(s)
            again = parse_smiles(canonical_smiles(mol))
            assert molecular_formula(mol) == molecular_formula(again)

    def test_lowercase_output_is_aromatic_ring_member(self, corpus):
        for s in corpus:
            mol = parse_smiles(s)
            for idx, atom in enumerate(mol.atoms):
                if atom.is_aromatic:
                    assert mol.ring_membership[idx]

    def test_enantiomers_distinct(self):
        assert canonicalize("N[C@@H](C)C(=O)O") != canonicalize("N[C@H](C)C(=O)O")

    def test_cis_trans_distinct(self):
        assert canonicalize("F/C=C/F") != canonicalize("F/C=C\\F")

    def test_stereo_round_trip(self):
        for s in ["N[C@@H](C)C(=O)O", "F/C=C/F", "C/C=C\\C", "OC[C@H](N)C(=O)O"]:
            assert canonicalize(canonicalize(s)) == canonicalize(s)

    def test_direction_mark_at_chain_ring_opening_or_ring_closing_atom(self):
        # One bond, F-C, marked at the chain atom, at the ring-opening atom and
        # at the ring-closing atom: a direction is stored read from a to b.
        mols = [parse_smiles(s) for s in ["F/C=C/F", "F/C=C/1.F1", "F/C=C1.F\\1"]]
        assert mols[0].bonds == mols[1].bonds == mols[2].bonds
        assert len({canonical_smiles(mol) for mol in mols}) == 1
        assert canonicalize("F/C=C1.F/1") == canonicalize("F/C=C\\F")


LADDER_SIZES = (48, 96, 192, 384)


def ladder_smiles():
    """Chains, glycine oligomers and aromatic macrocycles of 48-384 atoms."""
    for n in LADDER_SIZES:
        yield "C" * n
        yield "NCC(=O)" * ((n - 1) // 4) + "O"
        yield "c1" + "c" * (n - 2) + "c1"


SYMMETRIC_SMILES = [
    "C.C.C.C",
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1CC2CCC1CC2",
    "c1ccc2ccccc2c1",
    "CCO.CCO.OCC",
    "c1ccccc1.c1ccccc1.C1CCCCC1",
    "C1C2CC3CC1CC(C2)C3",  # adamantane
    "CC(C)(C)CC(C)(C)C",
]


class TestRanking:
    """Cell refinement gives the ranks of full re-sorting Morgan refinement."""

    def test_matches_full_resort_on_corpus_and_renumberings(self, corpus):
        rng = random.Random(31)
        for s in corpus:
            mol = parse_smiles(s)
            assert canonical_ranks(mol) == full_resort_ranks(mol)
            for _ in range(3):
                other = shuffled(mol, rng)
                assert canonical_ranks(other) == full_resort_ranks(other)

    def test_matches_full_resort_on_symmetric_molecules(self):
        rng = random.Random(32)
        for s in SYMMETRIC_SMILES:
            mol = parse_smiles(s)
            for other in [mol] + [shuffled(mol, rng) for _ in range(5)]:
                assert canonical_ranks(other) == full_resort_ranks(other)

    def test_matches_full_resort_on_size_ladder(self):
        rng = random.Random(33)
        for s in ladder_smiles():
            mol = parse_smiles(s)
            assert canonical_ranks(mol) == full_resort_ranks(mol)
            other = shuffled(mol, rng)
            assert canonical_ranks(other) == full_resort_ranks(other)

    @pytest.mark.parametrize("unit, budget_s", [("C", 1.0), ("C(C)", 2.0)],
                             ids=["chain", "branched_chain"])
    def test_2000_units_within_budget(self, unit, budget_s):
        mol = parse_smiles(unit * 2000)
        t0 = time.perf_counter()
        out = canonical_smiles(mol)
        assert time.perf_counter() - t0 < budget_s
        assert canonicalize(out) == out


# Stereo, charges, isotopes, an aromatic-aromatic single bond and several
# fragments: each token and bond text the writer can produce.
WRITER_CASES = [
    "N[C@@H](C)C(=O)O",
    "N[C@H](C)C(=O)O",
    "[C@@H](F)(Cl)Br",
    "F[C@]1(Cl)CCCC1",
    "C[C@@H]1CC[C@H](O)CC1",
    "OC[C@@H](O)[C@@H](O)[C@H](O)[C@H](O)CO",
    "F/C=C/F",
    "C/C=C\\C",
    "F/C=C/1.F1",
    "F/C=C1.F\\1",
    "C/1=C/CCCCCC1",
    "C1CCC/C=C/CC1",
    "C/C=C/C1CC/C(=C/C)CC1",
    "c1ccccc1-c1ccccc1",
    "c1ccc(-c2ccncc2)cc1",
    "[NH4+].CC(=O)[O-]",
    "C[N+](C)(C)C.[Cl-]",
    "[Fe+3].[O-2]",
    "[13CH4]",
    "[2H]OC",
    "[13CH3][C@@H]1CC[C@H](O)CC1/C=C/Br",
    "[Na+].[Cl-].CCO.c1ccccc1",
    "C1CC1.C1CC1",
    "[C@H]([H])(F)Cl",
    "c1ccccc1.C1CCC2CC2C1",
    "c1cc[nH]c1",
    "O=S(=O)(O)O",
    "N#Cc1ccccc1",
    kekule_acene(12),
    ladder_polymer(60),
]


def written_both_ways(mol: Molecule, ranks) -> tuple[list[str], list[str]]:
    """The writer's fragments, and the reference's in the rank order of their
    lowest-ranked atoms."""
    frags = sorted(reference_fragments(mol), key=lambda frag: min(ranks[i] for i in frag))
    return (canon._write_fragments(mol, ranks),
            [reference_write_fragment(mol, ranks, frag) for frag in frags])


class TestWriterMatchesReference:
    """The writer's tables give the strings of the writer that looked each
    bond up, byte for byte, under canonical and random ranks."""

    def check(self, smiles_list, rng, orders=3):
        for s in smiles_list:
            mol = parse_smiles(s)
            new, old = written_both_ways(mol, mol.ranks)
            assert new == old, s
            for _ in range(orders):
                ranks = list(range(len(mol)))
                rng.shuffle(ranks)
                new, old = written_both_ways(mol, ranks)
                assert new == old, s

    def test_corpus(self, corpus):
        self.check(corpus, random.Random(41))

    def test_size_ladder(self):
        self.check(ladder_smiles(), random.Random(42), orders=1)

    def test_symmetric_molecules(self):
        self.check(SYMMETRIC_SMILES, random.Random(43))

    @pytest.mark.parametrize("text", ["[NH4+].CC(=O)[O-]", "[Na+].[Cl-]"])
    def test_fragments_come_in_rank_order(self, text):
        # Not in atom-index order, which a renumbering changes.
        mol = parse_smiles(text)
        rng = random.Random(45)
        written = {tuple(canon._write_fragments(again, again.ranks))
                   for again in (shuffled(mol, rng) for _ in range(24))}
        assert len(written) == 1

    def test_stereo_charge_isotope_and_fragment_cases(self):
        self.check(WRITER_CASES, random.Random(44), orders=10)
        # The cases reach ring numbers above 9.
        assert "%1" in canonical_smiles(parse_smiles(ladder_polymer(60)))


class TestRingNumberLimit:
    """Ring numbers above 99 would need %(nnn), which the parser does not
    read: `%100` reads back as ring 10 and ring 0, another molecule."""

    def test_ninety_nine_open_ring_numbers_are_written(self):
        out = canonical_smiles(parse_smiles(ladder_polymer(396)))
        assert "%99" in out
        assert canonicalize(out) == out

    def test_a_hundredth_is_refused(self):
        mol = parse_smiles(ladder_polymer(400))
        assert (len(mol.atoms), len(mol.bonds)) == (400, 598)
        with pytest.raises(ChemistryError, match="more than 99 ring-closure numbers"):
            canonical_smiles(mol)
        # The reference writer has no limit; its `%100` reads back as another molecule.
        (old,) = [reference_write_fragment(mol, mol.ranks, frag)
                  for frag in reference_fragments(mol)]
        assert "%100" in old
        assert len(parse_smiles(old).bonds) == 599


class TestFormula:
    @pytest.mark.parametrize(
        "smiles,expected",
        [
            ("CCO", "C2H6O"),
            ("c1ccccc1", "C6H6"),
            ("[Na+].[Cl-]", "ClNa"),
            ("O", "H2O"),
            ("O=C=O", "CO2"),
            ("CC(=O)O", "C2H4O2"),
            ("C", "CH4"),
            ("[H][H]", "H2"),
            ("OS(=O)(=O)O", "H2O4S"),
        ],
    )
    def test_hill_order(self, smiles, expected):
        assert molecular_formula(parse_smiles(smiles)) == expected

    def test_fragments_merge(self):
        assert molecular_formula(parse_smiles("CC.CC")) == "C4H12"


def compact_json(graph: dict) -> str:
    """The graph object as render writes it: compact JSON, nodes first."""
    return json.dumps(graph, separators=(",", ":"))


class TestGraphRecord:
    def test_methane(self):
        rec = to_graph_record(parse_smiles("C"))
        assert rec == {"nodes": [[6, 0, 4, False, 0]], "edges": []}

    def test_carbon_dioxide(self):
        rec = to_graph_record(parse_smiles("O=C=O"))
        assert len(rec["nodes"]) == 3
        assert sorted(e[2] for e in rec["edges"]) == [2, 2]

    def test_deterministic_across_renumbering(self):
        a = compact_json(to_graph_record(parse_smiles("OCC")))
        b = compact_json(to_graph_record(parse_smiles("CCO")))
        assert a == b

    def test_json_round_trip(self):
        rec = to_graph_record(parse_smiles("c1ccncc1"))
        assert json.loads(compact_json(rec)) == rec

    @pytest.mark.parametrize("smiles, sha", [
        ("CC(=O)Oc1ccccc1C(=O)O", "1beab3b5120b000d404179e8acf62b337439e8424d72e0af99e086a055be5eba"),
        ("[NH3+]C(C)C(=O)[O-].C#N", "26a1c753b7c3119f99a1133e09d8152b8c311834ed294daa89ce38842ee05f3f"),
    ])
    def test_compact_json_bytes(self, smiles, sha):
        text = compact_json(to_graph_record(parse_smiles(smiles)))
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    def test_nodes_in_rank_order(self, corpus):
        for s in corpus[:40]:
            rec = to_graph_record(parse_smiles(s))
            assert all(i < j for i, j, _ in rec["edges"])


class TestRenumbered:
    def test_preserves_molecule(self):
        rng = random.Random(1)
        mol = parse_smiles("CC(=O)OC1=CC=CC=C1C(=O)O")
        twin = shuffled(mol, rng)
        assert molecular_formula(twin) == molecular_formula(mol)
        assert canonical_smiles(twin) == canonical_smiles(mol)

    def test_rejects_non_permutation(self):
        mol = parse_smiles("CCO")
        with pytest.raises(ValueError):
            renumbered(mol, [0, 0, 1])


ONE_PASS_CASES = {
    "fold": ["C([H])([H])([H])[H]", "[H][H]", "[2H]OC", "[H]C#N", "[H]/C=C/[H]", "[H+]",
             "[H-].[Na+]", "[H][C@@](F)(Cl)Br", "F[C@@]([H])(Cl)Br", "C1([H])CC1",
             "[H]c1ccccc1", "[H]N([H])C", "[H][H][H]", "[H]", "[H]O[H]", "[H]=C",
             "[H]1CC1", "[H][2H]", "[H]Cl.[H]Br", "[H]C1=CC=CC=C1[H]", "[H]1.C1",
             "[H]%10.C%10", "[H]-C", "[H]\\C=C/F", "[H][C@H](F)Cl", "C[H].[H]C"],
    "kekule": ["C1=CC=CC=C1", "C1=CC=C2C=CC=CC2=C1", "C1=CC=CC=CC=C1", "O=C1C=CC=C1",
               "C1=CNC=C1", "C1=COC=C1", "C1=CC=C(C=C1)C1=CC=CC=C1", "C1=CC2=CC=CC=CC2=C1",
               "C1=CC=C(C=C1)" * 4, "C1=C" + "C=C" * 20 + "1", "[O-][N+](=O)C1=CC=CC=C1",
               "B1C=CC=C1", "C1=C[CH-]C=C1", "C1=CC=C[CH+]1", "C1=CC2=C3C1=CC=C3C=C2",
               "C1=CC=C2C(=C1)C=CC1=CC=CC=C21"],
    # Kekule rings, alone and fused, and fused systems next to separate rings.
    "huckel": ["C1=CC=C(C=C1)" * 30, "C1=CC=C(C=C1)C1=CC=C(C=C1)C1=CC=CC=C1",
               *map(kekule_acene, (2, 3, 4, 6, 12)),
               kekule_acene(3) + "C1=CC=CC=C1", "C1=CC=C(C=C1)" + kekule_acene(4),
               "C1=CC=C2C(=C1)C=CC1=CC=C(C=C21)C1=CC=CC=C1",
               "C1=CC2=CC=C3C=CC=C4C=CC(=C1)C2=C34.C1=CC=CC=C1",
               "C1=CC2=C3C(=C1)C=CC4=CC=CC(=C43)C=C2.C1=CC=CC=C1",
               "C1=CC2=CC=CC=CC2=C1C1=CC=CC=C1", "C1=CC=C2C=CC=C2C=C1.C1=CC=C1",
               "C1=CC=C2C(=C1)C1=CC=CC=C1C1=CC=CC=C21.C1=CC=C(C=C1)C1=CCC=C1",
               "O=C1C=CC(=O)C2=CC=CC=C12.C1=COC=C1C1=CNC=C1"],
    "charged": ["[NH4+]", "CC(=O)[O-]", "[13CH4]", "[2H]C([2H])([2H])[2H]", "[Fe+3]",
                "C[N+](=O)[O-]", "c1cc[n+](C)cc1", "C[N+](C)(C)C", "[C-]#[O+]", "[999C]",
                "[Cu+12]", "[O--]", "[Na+].[Cl-]", "[NH3+]CC([O-])=O", "[Se]", "[se]1cccc1",
                "[13c]1ccccc1", "[nH+]1ccccc1", "[S+2]", "[N-]=[N+]=[N-]"],
    "stereo": ["N[C@@H](C)C(=O)O", "F/C=C/F", "C/C=C\\C", "OC[C@@H](O)[C@@H](O)[C@H](O)CO",
               "[C@@H]1(F)CC1", "F[C@]1(Cl)CCC1", "C/C(F)=C(/Cl)C1CC1", "F/C=C/C=C/F",
               "C1CC/C=C/CCC1", "[C@H](F)(Cl)Br", "F/C=C1/CCC1", "C[C@@]12CC[C@H](C1)C2",
               "F/C=C/1.C1"],
    "errors": ["C(C)(C)(C)(C)C", "cC", "n1cccc1", "O=C(=O)C", "C:C", "FF(F)F", "c1cccc1",
               "C1:CC1", "c1ccccc1:C", "c1cc:cc1C:C", "C1=CC=CC=C1=C", "[NH5]", "c1ccccc1c",
               "C=c1ccccc1", "[CH5+2]", "N1=CC=CC=C1=O"],
}


class TestOnePassBuilder:
    """molecule_from_draft builds the reference builder's molecule, field by field."""

    @staticmethod
    def same_as_reference(text) -> bool:
        """Check one input; False when it does not parse to a draft."""
        try:
            draft = parse_draft(text)
        except SmilesSyntaxError:
            return False
        try:
            want = reference_molecule_from_draft(parse_draft(text))
        except Exception as exc:
            with pytest.raises(Exception) as info:
                perception.molecule_from_draft(draft)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc)), text
            return True
        got = perception.molecule_from_draft(draft)
        for name in ("atoms", "bonds", "chirality"):
            assert getattr(got, name) == getattr(want, name), (text, name)
        # The same ring bonds, in the same order.
        assert list(got.ring_bonds) == list(want.ring_bonds), text
        # The adjacency handed in is what the bonds give, in bond order.
        nbrs: list[list[int]] = [[] for _ in got.atoms]
        for b in got.bonds:
            nbrs[b.a].append(b.b)
            nbrs[b.b].append(b.a)
        assert got.neighbors == tuple(map(tuple, nbrs)), text
        assert got.degrees == tuple(map(len, nbrs)), text
        return True

    def test_corpus(self, corpus):
        for text in corpus + CURATED_SMILES + SYMMETRIC_SMILES:
            assert self.same_as_reference(text)

    @pytest.mark.parametrize("group", sorted(ONE_PASS_CASES))
    def test_cases(self, group):
        for text in ONE_PASS_CASES[group]:
            assert self.same_as_reference(text)

    def test_size_ladder(self):
        for text in ladder_smiles():
            assert self.same_as_reference(text)

    def test_hostile_strings(self, corpus):
        # Text over the fuzz tests' alphabet, and one-character edits of real
        # SMILES, which reach the builder far more often.
        rng = random.Random(77)
        texts = ["".join(rng.choice(SMILES_ALPHABET) for _ in range(rng.randint(1, 40)))
                 for _ in range(3000)]
        for _ in range(3000):
            text = list(rng.choice(corpus))
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(text) + 1)
                edit = rng.choice("ids")
                if edit == "d" and at < len(text):
                    del text[at]
                else:
                    text[at:at + (edit == "s")] = [rng.choice(SMILES_ALPHABET)]
            texts.append("".join(text))
        built = sum(self.same_as_reference(text) for text in texts)
        assert built > 500

    def test_ring_bonds_of_renumbered_molecules(self, corpus):
        rng = random.Random(78)
        for text in corpus:
            mol = shuffled(parse_smiles(text), rng)
            assert mol.ring_bonds == reference_non_bridge_edges(len(mol), mol.neighbors,
                                                                bond_keys(mol))

    def test_shared_atoms_are_bounded(self):
        perception._shared_atom.cache_clear()
        for isotope in range(1, 3000):
            parse_smiles(f"[{isotope}CH4]")
        info = perception._shared_atom.cache_info()
        assert info.currsize <= info.maxsize < 3000


class TestHuckelBySystem:
    """Hueckel perception tests one fused ring system at a time."""

    @staticmethod
    def cpu_s(text: str) -> float:
        """Best of 5 process-CPU times of parsing text."""
        times = []
        for _ in range(5):
            start = time.process_time()
            parse_smiles(text)
            times.append(time.process_time() - start)
        return min(times)

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 40])
    def test_acenes_are_aromatic(self, n):
        mol = parse_smiles(kekule_acene(n))
        assert len(mol.atoms) == 4 * n + 2
        assert all(a.is_aromatic for a in mol.atoms)
        assert all(b.is_aromatic for b in mol.bonds)

    @pytest.mark.parametrize("kekule, aromatic", [
        ("C1=CC=C(C=C1)" * 200, "c1ccc(cc1)" * 200),
        ("C1=C" + "C=C" * 500 + "1", "c1c" + "cc" * 500 + "1"),
    ], ids=["polyphenylene_200", "ring_1002"])
    def test_kekule_within_2x_of_aromatic_spelling(self, kekule, aromatic):
        assert canonical_smiles(parse_smiles(kekule)) == canonical_smiles(parse_smiles(aromatic))
        kekule_s, aromatic_s = self.cpu_s(kekule), self.cpu_s(aromatic)
        assert kekule_s < 2 * aromatic_s, (kekule_s, aromatic_s)

    def test_acene_within_5x_of_aromatic_spelling(self):
        # The ring triples of a fused system are listed from each ring's fused
        # neighbours; testing every triple of rings is cubic in them.
        kekule = kekule_acene(96)
        aromatic = kekule.replace("=", "").replace("C", "c")
        assert canonical_smiles(parse_smiles(kekule)) == canonical_smiles(parse_smiles(aromatic))
        kekule_s, aromatic_s = self.cpu_s(kekule), self.cpu_s(aromatic)
        assert kekule_s < 5 * aromatic_s, (kekule_s, aromatic_s)

    def test_acenes_match_the_every_triple_reference(self):
        for n in range(2, 100):
            assert TestOnePassBuilder.same_as_reference(kekule_acene(n)), n

    def test_small_cycles_match_search_from_every_edge(self, corpus):
        texts = [*corpus, *CURATED_SMILES, *ladder_smiles(), *ONE_PASS_CASES["huckel"],
                 "C1=C" + "C=C" * 60 + "1", "C1CC2CCC1" + "C" * 40 + "2", "C12C3C1C23",
                 "C1CC2(C1)CC2", "C1C2CC3CC1CC(C2)C3", "C1CC1C1CCCC1" * 5]
        for text in texts:
            ring_keys = parse_smiles(text).ring_bonds
            assert perception._small_cycles(ring_keys) == reference_small_cycles(ring_keys), text


class TestDerivedOnce:
    def test_parsed_adjacency_serves_canon_fingerprint_and_scaffold(self, monkeypatch):
        mol = parse_smiles("CC(=O)Nc1ccc(O)cc1C1CCN(C)CC1C(=O)C1=CC=CC=C1")
        scans = []
        find = model._non_bridge_edges

        def counting(*args):
            scans.append(args)
            return find(*args)

        monkeypatch.setattr(perception, "_non_bridge_edges", counting)
        monkeypatch.setattr(model, "_non_bridge_edges", counting)
        derived = []
        for name in ("neighbors", "degrees"):
            def derive(self, _derive=vars(Molecule)[name].func, _name=name):
                derived.append((_name, self))
                return _derive(self)

            prop = cached_property(derive)
            prop.__set_name__(Molecule, name)
            monkeypatch.setattr(Molecule, name, prop)

        canonical_smiles(mol)
        circular_fingerprint(mol)
        assert murcko_scaffold(mol) != EMPTY_SCAFFOLD
        assert scans == []
        assert [name for name, of in derived if of is mol] == []
        # Only tables that more than one layer reads are kept with the molecule.
        assert set(vars(mol)) == {"ring_bonds", "neighbors", "degrees", "ring_membership",
                                  "ranks"}


class TestAsciiDigits:
    @pytest.mark.parametrize("text", ["C\u00b2", "C1CC\u0661", "[\u00b2C]", "C%1\u00b2",
                                      "[CH\u00b2]", "[C+\u00b2]", "[C:\u00b2]"])
    def test_other_digits_are_syntax_errors(self, text):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles(text)

    @pytest.mark.parametrize("template", ["[{}C]", "[CH{}]", "[C+{}]"],
                             ids=["isotope", "hydrogens", "charge"])
    def test_digit_run_past_the_int_limit_is_a_syntax_error(self, template):
        # int() refuses more than 4,300 digits by default.
        with pytest.raises(SmilesSyntaxError):
            parse_smiles(template.format("1" * 5000))


class TestAtomAndBondValues:
    """Atom and Bond keep the behaviour of frozen dataclasses."""

    @pytest.mark.parametrize("cls, args, kwargs", [
        (Atom, (6,), {"atomic_number": 6, "formal_charge": 0, "implicit_hydrogens": 0,
                      "is_aromatic": False, "isotope": None}),
        (Bond, (0, 1), {"a": 0, "b": 1, "order": 1, "is_aromatic": False, "stereo": None}),
    ])
    def test_frozen_value(self, cls, args, kwargs):
        value = cls(*args)
        assert value == cls(**kwargs) and hash(value) == hash(cls(**kwargs))
        assert vars(value) == kwargs
        assert [f.name for f in dataclasses.fields(cls)] == list(kwargs)
        assert pickle.loads(pickle.dumps(value)) == value
        first = next(iter(kwargs))
        changed = dataclasses.replace(value, **{first: 7})
        assert getattr(changed, first) == 7 and changed != value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, first, 7)
        fields = ", ".join(f"{k}={v!r}" for k, v in kwargs.items())
        assert repr(value) == f"{cls.__name__}({fields})"
