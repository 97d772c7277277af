"""Reaction parsing, role handling, canonical keys."""

import pytest

from rxnkit.reaction import (
    Reaction,
    ReactionError,
    parse_reaction,
    reaction_key,
)


class TestParseReaction:
    def test_double_arrow_form(self):
        rxn = parse_reaction("CCO.CC(=O)O>>CC(=O)OCC")
        assert len(rxn.reactants) == 2
        assert len(rxn.reagents) == 0
        assert len(rxn.products) == 1

    def test_agent_form(self):
        rxn = parse_reaction("CCO>[Na+].[Cl-]>CCN")
        assert len(rxn.reactants) == 1
        assert len(rxn.reagents) == 2
        assert len(rxn.products) == 1

    def test_empty_product_side(self):
        with pytest.raises(ReactionError):
            parse_reaction("CCO>>")

    def test_empty_reactant_side(self):
        with pytest.raises(ReactionError):
            parse_reaction(">>CCO")

    def test_missing_arrow(self):
        with pytest.raises(ReactionError):
            parse_reaction("CCO.CCN")

    def test_fragment_error_reports_role_and_index(self):
        with pytest.raises(ReactionError, match="reactants fragment 1"):
            parse_reaction("CCO.C(C>>CCN")

    def test_conditions(self):
        rxn = parse_reaction(
            "CCO>>CCN", conditions={"catalyst": ["[Na+]"], "solvent": ["O"]}
        )
        assert set(rxn.conditions) == {"catalyst", "solvent"}

    def test_unknown_condition_role(self):
        with pytest.raises(ReactionError):
            parse_reaction("CCO>>CCN", conditions={"flavor": ["O"]})


class TestYield:
    def test_fraction_accepted(self):
        assert parse_reaction("C>>C", yield_value=0.85).yield_fraction == 0.85

    def test_percentage_string(self):
        assert parse_reaction("C>>C", yield_value="85%").yield_fraction == 0.85

    def test_out_of_range_is_error_not_clamp(self):
        with pytest.raises(ReactionError):
            parse_reaction("C>>C", yield_value=1.5)
        with pytest.raises(ReactionError):
            parse_reaction("C>>C", yield_value="120%")


class TestReactionKey:
    def test_fragment_order_irrelevant(self):
        a = reaction_key(parse_reaction("OCC.CC(=O)O>>CC(=O)OCC"))
        b = reaction_key(parse_reaction("CC(=O)O.CCO>>CC(=O)OCC"))
        assert a == b

    def test_smiles_rewriting_irrelevant(self):
        a = reaction_key(parse_reaction("C(O)C>>C(=O)C"))
        b = reaction_key(parse_reaction("CCO>>CC=O"))
        assert a == b

    def test_product_change_changes_key(self):
        assert reaction_key(parse_reaction("CCO>>CCN")) != reaction_key(parse_reaction("CCO>>CCF"))

    def test_roles_significant(self):
        assert (reaction_key(parse_reaction("CCO.O>>CCN"))
                != reaction_key(parse_reaction("CCO>O>CCN")))

    def test_merge_agents_collapses_roles(self):
        a = reaction_key(parse_reaction("CCO.O>>CCN"), merge_agents=True)
        b = reaction_key(parse_reaction("CCO>O>CCN"), merge_agents=True)
        assert a == b

    def test_round_trip(self):
        rxn = parse_reaction("OCC.CC(=O)O>[Na+]>CC(=O)OCC")
        text = reaction_key(rxn)
        assert reaction_key(parse_reaction(text)) == reaction_key(rxn)

    def test_key_shape(self):
        key = reaction_key(parse_reaction("CCO>O>CCN"))
        assert key.count(">") == 2


class TestRecordLoading:
    def test_full_record(self):
        from rxnkit.reaction import reaction_from_record

        rxn = reaction_from_record({
            "id": "r1",
            "rxn": "CCO.CC(=O)O>>CC(=O)OCC",
            "catalyst": ["OS(=O)(=O)O"],
            "yield": "85%",
            "class": 42,
        })
        assert rxn.yield_fraction == 0.85
        assert rxn.reaction_class == "42"
        assert len(rxn.conditions["catalyst"]) == 1


class TestReactionInvariants:
    def test_needs_reactant_and_product(self):
        with pytest.raises(ReactionError):
            Reaction(reactants=(), products=())

    def test_yield_invariant(self):
        from rxnkit.molgraph import parse_smiles

        with pytest.raises(ReactionError):
            Reaction(
                reactants=(parse_smiles("C"),),
                products=(parse_smiles("C"),),
                yield_fraction=2.0,
            )
