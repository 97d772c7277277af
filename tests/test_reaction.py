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


class TestReactionInvariants:
    def test_needs_reactant_and_product(self):
        with pytest.raises(ReactionError):
            Reaction(reactants=(), products=())
