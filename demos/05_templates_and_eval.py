"""Instruction templates and the downstream evaluation metrics.

Run with: python demos/05_templates_and_eval.py
"""

from rxnkit.metrics import (
    eval_classification,
    eval_generation,
    eval_regression,
    generation_specs,
    score_generation,
)
from rxnkit.templates import TASKS, extract, render

# 16 tasks ship with exact instruction wording; multi-molecule slots join
# with '.' and the reaction arrow renders as " >> ".
print(f"{len(TASKS)} tasks: {', '.join(TASKS)}\n")

rendered = render(
    "forward",
    {"reactants": ["CCO", "CC(=O)O"], "products": ["CC(=O)OCC"]},
)
print("instruction:", rendered["instruction"])
print("output:     ", rendered["output"])

# The per-task extractor inverts rendering, recovering the bound molecule
# strings from an instruction (used when ingesting model transcripts).
slots = extract("forward", rendered["instruction"])
print("extracted:  ", slots)

# Generation metrics: exact match after canonicalization, character BLEU,
# Levenshtein, fingerprint similarities over valid pairs, and validity.
# Each pair is scored on its own (a reference that does not parse raises
# ValueError), then the scored pairs are aggregated into one report.
records = [
    {"id": 1, "prediction": "OCC", "reference": "CCO"},        # exact (canonical)
    {"id": 2, "prediction": "CCN", "reference": "CCOC"},       # near miss
    {"id": 3, "prediction": "C1CC", "reference": "C1CCCCC1"},  # invalid prediction
]
specs = generation_specs()  # the default spec with each fingerprint kind
metrics, _ = eval_generation([score_generation(record, specs) for record in records])
print("\ngeneration metrics:")
for name, value in sorted(metrics.items()):
    shown = "n/a" if value is None else f"{value:.3f}"
    print(f"  {name:16s} {shown}")

# Classification: accuracy, confusion entropy (0 = perfect), multiclass MCC.
pairs = [(0, 0), (1, 1), (2, 2), (2, 1), (0, 0), (1, 1)]
print("\nclassification:", eval_classification(pairs)[0])

# Regression: MAE, MSE, and R^2.
series = [(0.85, 0.80), (0.40, 0.45), (0.95, 0.90), (0.10, 0.25)]
print("regression:   ", eval_regression(series)[0])
