"""Molecular graph core: parsing, canonicalization, formulas, serialization."""

from .canon import (
    canonical_ranks,
    canonical_smiles,
    molecular_formula,
    to_graph_record,
)
from .model import (
    Atom,
    Bond,
    ChemistryError,
    Molecule,
    SmilesSyntaxError,
)
from .perception import parse_smiles

__all__ = [
    "Atom",
    "Bond",
    "ChemistryError",
    "Molecule",
    "SmilesSyntaxError",
    "canonical_ranks",
    "canonical_smiles",
    "canonicalize",
    "molecular_formula",
    "parse_smiles",
    "to_graph_record",
    "validate",
]


def canonicalize(text: str) -> str:
    """Parse SMILES text and return its canonical form."""
    return canonical_smiles(parse_smiles(text))


def validate(text: str) -> dict:
    """The {"status", "detail"} of SMILES text, without raising (docs/formats.md)."""
    try:
        parse_smiles(text)
    except SmilesSyntaxError as exc:
        return {"status": "syntax_error", "detail": str(exc)}
    except ChemistryError as exc:
        return {"status": "chemistry_error", "detail": str(exc)}
    return {"status": "valid", "detail": ""}
