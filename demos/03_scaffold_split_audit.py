"""Scaffold extraction, test-set resampling, and leakage auditing.

Run with: python demos/03_scaffold_split_audit.py
"""

from rxnkit import parse_smiles
from rxnkit.fingerprint import FingerprintSpec
from rxnkit.scaffold import (
    detect_leakage,
    murcko_scaffold,
    record_key,
    resample_test_set,
    split_features,
)

# A Murcko scaffold keeps ring systems and the linkers between them; side
# chains prune away (exocyclic double bonds to a ring stay). Acyclic
# molecules collapse to the empty sentinel.
for smiles in ["CCc1ccccc1", "c1ccccc1Cc1ccccc1", "O=C1CCCC1CC", "CCO"]:
    print(f"scaffold({smiles}) = {murcko_scaffold(parse_smiles(smiles))}")

# Resampling a test set: drop candidates whose canonical reaction key
# already appears in train, then keep the candidates whose scaffolds are
# least similar to the train scaffolds (similarity ceiling 0.6 here). The
# set logic takes each record's features: its canonical key and the
# fingerprint of its scaffold (`rxnkit split` computes them per record).
train = [
    {"id": "t0", "rxn": "c1ccccc1CBr.OB(O)C>>c1ccccc1CC"},
    {"id": "t1", "rxn": "c1ccncc1CBr.OB(O)C>>c1ccncc1CC"},
]
candidates = [
    {"id": "c0", "rxn": "OB(O)C.c1ccccc1CBr>>c1ccccc1CC"},   # train dup, reordered
    {"id": "c1", "rxn": "c1ccccc1CCl.CO>>c1ccccc1CO"},        # same scaffold family
    {"id": "c2", "rxn": "C1CC2CCC1CC2Cl.CO>>C1CC2CCC1CC2O"},  # unseen scaffold
    {"id": "c3", "rxn": "C1CCOC1Cl.CO>>C1CCOC1O"},            # unseen scaffold
]
spec = FingerprintSpec(kind="circular")
report = resample_test_set(
    [(r["id"], *split_features(r, spec)) for r in candidates],
    [split_features(r, spec) for r in train],
    band=(0.5, 0.6),
    n=2,
)
print("\nsplit report:")
print("  rejected as train overlap:", report.rejected_overlap)
for rid, sim in report.selected:
    print(f"  selected {rid} with max train similarity {sim:.3f}")

# Leakage audit: identical reactions hiding behind fragment reordering or
# alternative SMILES spellings still collide on their canonical keys. Each
# split is given as (record id, canonical key) pairs.
splits = {
    "train": [{"id": "a", "rxn": "CCO.CC(=O)O>>CC(=O)OCC"}],
    "test": [
        {"id": "b", "rxn": "CC(=O)O.OCC>>CC(=O)OCC"},  # same reaction in disguise
        {"id": "c", "rxn": "CCN.CC(=O)O>>CC(=O)NCC"},  # genuinely different
    ],
}
leak = detect_leakage(
    {name: [(r["id"], record_key(r)) for r in records] for name, records in splits.items()}
)
for a, b, pairs in leak.cross:
    print(f"\nduplicates between {a} and {b}: {list(pairs)}")
