"""rxnkit: molecule, reaction, corpus, and evaluation tooling.

The package splits into a molecular-graph core (parsing, canonical SMILES,
formulas), structure queries and fingerprints, scaffold-based dataset
splitting and leakage auditing, molecule-text corpus construction,
instruction-template rendering, and the downstream evaluation metric suite.
"""

from .molgraph import (
    Atom,
    Bond,
    ChemistryError,
    Molecule,
    SmilesSyntaxError,
    canonical_ranks,
    canonical_smiles,
    canonicalize,
    molecular_formula,
    parse_smiles,
    to_graph_record,
    validate,
)

__version__ = "0.1.0"

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
