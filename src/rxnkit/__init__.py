"""rxnkit: molecule, reaction, corpus, and evaluation tooling.

The package splits into a molecular-graph core (parsing, canonical SMILES,
formulas), structure queries and fingerprints, scaffold-based dataset
splitting and leakage auditing, molecule-text corpus construction,
instruction-template rendering, and the downstream evaluation metric suite.
The package namespace re-exports the molecular-graph core's public names.
"""

from .molgraph import *  # noqa: F403
from .molgraph import __all__

__version__ = "0.1.0"
