"""Molecular graph core: parsing, canonicalization, formulas, records."""

import json
import random
import time

import pytest

from rxnkit.molgraph import (
    ChemistryError,
    GraphRecord,
    SmilesSyntaxError,
    canonical_ranks,
    canonical_smiles,
    canonicalize,
    molecular_formula,
    parse_smiles,
    to_graph_record,
    validate,
)
from rxnkit.molgraph import model, perception

from conftest import build_random_molecule, shuffled
from oracles import full_resort_ranks


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
        assert len(mol.fragments) == 2

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
        assert mol.ring_bonds == find(len(mol), mol.neighbors, mol.bond_lookup)
        # Molecules built another way still find their ring bonds lazily.
        again = mol.renumbered(list(reversed(range(len(mol)))))
        assert "ring_bonds" not in vars(again)
        assert sum(again.ring_membership) == sum(mol.ring_membership)

    def test_untabulated_element_warns_instead_of_failing(self):
        mol = parse_smiles("[Fe](Cl)(Cl)Cl")
        assert mol.problems  # valence unchecked, flagged
        assert molecular_formula(mol) == "Cl3Fe"


class TestValidate:
    def test_valid(self):
        assert validate("CC(=O)O").is_valid

    def test_syntax_error(self):
        assert validate("C(C").status == "syntax_error"

    def test_chemistry_error(self):
        verdict = validate("C(C)(C)(C)(C)C")
        assert verdict.status == "chemistry_error"
        assert "valence" in verdict.detail

    def test_verdicts_distinguishable(self):
        assert validate("C(C").status != validate("C(C)(C)(C)(C)C").status


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


class TestGraphRecord:
    def test_methane(self):
        rec = to_graph_record(parse_smiles("C"))
        assert rec.nodes == ((6, 0, 4, False, 0),)
        assert rec.edges == ()

    def test_carbon_dioxide(self):
        rec = to_graph_record(parse_smiles("O=C=O"))
        assert len(rec.nodes) == 3
        assert sorted(e[2] for e in rec.edges) == [2, 2]

    def test_deterministic_across_renumbering(self):
        a = to_graph_record(parse_smiles("OCC")).to_json()
        b = to_graph_record(parse_smiles("CCO")).to_json()
        assert a == b

    def test_json_round_trip(self):
        rec = to_graph_record(parse_smiles("c1ccncc1"))
        again = GraphRecord.from_dict(json.loads(rec.to_json()))
        assert again == rec

    def test_nodes_in_rank_order(self, corpus):
        for s in corpus[:40]:
            rec = to_graph_record(parse_smiles(s))
            assert all(i < j for i, j, _ in rec.edges)


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
            mol.renumbered([0, 0, 1])
