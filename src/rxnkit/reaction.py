"""Reaction data model: reaction SMILES, role partitioning, canonical keys."""

from __future__ import annotations

from dataclasses import dataclass

from .molgraph import Molecule, canonical_smiles, parse_smiles

ROLES = ("reactants", "reagents", "products")


class ReactionError(ValueError):
    """The text is not a usable reaction."""


@dataclass(frozen=True)
class Reaction:
    """Role-partitioned multiset of molecules."""

    reactants: tuple[Molecule, ...]
    reagents: tuple[Molecule, ...] = ()
    products: tuple[Molecule, ...] = ()

    def __post_init__(self):
        if not self.reactants or not self.products:
            raise ReactionError("a reaction needs at least one reactant and one product")


def parse_reaction(text: str) -> Reaction:
    """Parse "A.B>>C" / "A>B>C" reaction SMILES into a Reaction.

    Fragment parse failures report the role and fragment index.
    """
    if not isinstance(text, str):
        raise ReactionError(f"reaction SMILES must be a string, not {type(text).__name__}")
    parts = text.split(">")
    if len(parts) != 3:
        raise ReactionError(
            f"reaction SMILES needs two '>' separators (or '>>'): {text!r}"
        )
    role_mols: list[tuple[Molecule, ...]] = []
    for role, part in zip(ROLES, parts):
        mols = []
        if part:
            for i, fragment in enumerate(part.split(".")):
                try:
                    mols.append(parse_smiles(fragment))
                except ValueError as exc:
                    raise ReactionError(
                        f"cannot parse {role} fragment {i} ({fragment!r}): {exc}"
                    ) from exc
        role_mols.append(tuple(mols))
    if not role_mols[2]:
        raise ReactionError(f"empty product side in {text!r}")
    if not role_mols[0]:
        raise ReactionError(f"empty reactant side in {text!r}")

    return Reaction(reactants=role_mols[0], reagents=role_mols[1], products=role_mols[2])


def reaction_key(rxn: Reaction, merge_agents: bool = False) -> str:
    """Canonical dedup key "R1.R2>G1>P1.P2".

    Fragments are canonicalized and sorted within each role, so the key is
    invariant under fragment reordering and SMILES rewriting. Reactant and
    reagent roles stay significant unless ``merge_agents`` folds reagents
    into the reactant side (lenient key for audits of corpora with
    inconsistent role assignment).
    """
    return key_of_roles(*role_smiles(rxn), merge_agents=merge_agents)


def role_smiles(rxn: Reaction) -> tuple[list[str], list[str], list[str]]:
    """Canonical SMILES of the reactants, reagents and products, in input order."""
    return (
        [canonical_smiles(m) for m in rxn.reactants],
        [canonical_smiles(m) for m in rxn.reagents],
        [canonical_smiles(m) for m in rxn.products],
    )


def key_of_roles(
    reactants: list[str], reagents: list[str], products: list[str],
    merge_agents: bool = False,
) -> str:
    """reaction_key from the canonical SMILES of each role (see role_smiles)."""
    if merge_agents:
        reactants = reactants + reagents
        reagents = []
    return ">".join(
        ".".join(sorted(group)) for group in (reactants, reagents, products)
    )

