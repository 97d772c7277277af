"""Molecular graph basics: parsing, canonical SMILES, formulas, records.

Run with: python demos/01_molecules.py
"""

import json

from rxnkit import (
    canonicalize,
    molecular_formula,
    parse_smiles,
    to_graph_record,
    validate,
)

# One molecular graph, many spellings. Canonicalization picks a single
# deterministic string for all of them.
spellings = ["CCO", "OCC", "C(O)C", "C(C)O"]
print("ethanol spellings ->", {canonicalize(s) for s in spellings})

# Kekule and aromatic forms of benzene converge too: the parser applies a
# Hueckel check to rings written with alternating double bonds.
print("benzene:", canonicalize("C1=CC=CC=C1"), "==", canonicalize("c1ccccc1"))

# Formulas follow the Hill convention (C, H, then alphabetical).
for smiles in ["CC(=O)Oc1ccccc1C(=O)O", "[Na+].[Cl-]", "O"]:
    print(f"formula({smiles}) = {molecular_formula(parse_smiles(smiles))}")

# Validity comes in three flavors: fine, bad grammar, impossible chemistry.
for text in ["CC(=O)O", "C(C", "C(C)(C)(C)(C)C"]:
    print(f"validate({text!r}) -> {validate(text)['status']}")

# A molecule's graph object lists its atoms in canonical rank order, so any
# input numbering of the same molecule yields byte-identical compact JSON.
a = json.dumps(to_graph_record(parse_smiles("OCC")), separators=(",", ":"))
b = json.dumps(to_graph_record(parse_smiles("CCO")), separators=(",", ":"))
print("graph records identical across numberings:", a == b)
print(a)
