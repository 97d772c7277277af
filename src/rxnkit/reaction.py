"""Reaction data model: reaction SMILES, role partitioning, canonical keys."""

from __future__ import annotations

from dataclasses import dataclass, field

from .molgraph import Molecule, canonical_smiles, parse_smiles

ROLES = ("reactants", "reagents", "products")


class ReactionError(ValueError):
    """The text is not a usable reaction."""


@dataclass(frozen=True)
class Reaction:
    """Role-partitioned multiset of molecules.

    ``conditions`` may carry extra role-tagged molecules (catalyst, solvent,
    reagent) from dataset records; ``yield_fraction`` is normalized to [0, 1].
    """

    reactants: tuple[Molecule, ...]
    reagents: tuple[Molecule, ...] = ()
    products: tuple[Molecule, ...] = ()
    conditions: dict[str, tuple[Molecule, ...]] = field(default_factory=dict)
    yield_fraction: float | None = None
    reaction_class: str | None = None

    def __post_init__(self):
        if not self.reactants or not self.products:
            raise ReactionError("a reaction needs at least one reactant and one product")
        if self.yield_fraction is not None and not 0.0 <= self.yield_fraction <= 1.0:
            raise ReactionError(
                f"yield_fraction {self.yield_fraction} outside [0, 1]"
            )


def parse_reaction(
    text: str,
    conditions: dict[str, list[str]] | None = None,
    yield_value: float | str | None = None,
    reaction_class: str | None = None,
) -> Reaction:
    """Parse "A.B>>C" / "A>B>C" reaction SMILES into a Reaction.

    Fragment parse failures report the role and fragment index. Yields given
    as percentage strings ("85%") are divided by 100; values outside [0, 1]
    after normalization are an error, never silently clamped.
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

    parsed_conditions: dict[str, tuple[Molecule, ...]] = {}
    for name, smiles_list in (conditions or {}).items():
        if name not in ("catalyst", "solvent", "reagent"):
            raise ReactionError(f"unknown condition role {name!r}")
        parsed_conditions[name] = tuple(parse_smiles(s) for s in smiles_list)

    return Reaction(
        reactants=role_mols[0],
        reagents=role_mols[1],
        products=role_mols[2],
        conditions=parsed_conditions,
        yield_fraction=_normalize_yield(yield_value),
        reaction_class=None if reaction_class is None else str(reaction_class),
    )


def _normalize_yield(value: float | str | None) -> float | None:
    if value is None:
        return None
    if isinstance(value, str):
        text = value.strip()
        if text.endswith("%"):
            fraction = float(text[:-1]) / 100.0
        else:
            fraction = float(text)
    else:
        fraction = float(value)
    if not 0.0 <= fraction <= 1.0:
        raise ReactionError(f"yield {value!r} outside [0, 1] after normalization")
    return fraction


def reaction_key(rxn: Reaction, merge_agents: bool = False) -> str:
    """Canonical dedup key "R1.R2>G1>P1.P2".

    Fragments are canonicalized and sorted within each role, so the key is
    invariant under fragment reordering and SMILES rewriting. Reactant and
    reagent roles stay significant unless ``merge_agents`` folds reagents
    into the reactant side (lenient key for audits of corpora with
    inconsistent role assignment).
    """
    reactants = [canonical_smiles(m) for m in rxn.reactants]
    reagents = [canonical_smiles(m) for m in rxn.reagents]
    products = [canonical_smiles(m) for m in rxn.products]
    if merge_agents:
        reactants += reagents
        reagents = []
    return ">".join(
        ".".join(sorted(group)) for group in (reactants, reagents, products)
    )


def write_reaction(rxn: Reaction) -> str:
    """Canonical reaction SMILES (identical to the strict key)."""
    return reaction_key(rxn)


def reaction_key_of_text(text: str, merge_agents: bool = False) -> str:
    """Convenience: parse reaction SMILES and return its canonical key."""
    return reaction_key(parse_reaction(text), merge_agents=merge_agents)


def reaction_from_record(record: dict) -> Reaction:
    """Load a reaction JSONL record.

    Schema: {"id", "rxn", optional "catalyst"/"solvent"/"reagent" SMILES
    lists, optional "yield", optional "class"}.
    """
    conditions = {
        role: list(record[role])
        for role in ("catalyst", "solvent", "reagent")
        if record.get(role)
    }
    return parse_reaction(
        record["rxn"],
        conditions=conditions or None,
        yield_value=record.get("yield"),
        reaction_class=record.get("class"),
    )
