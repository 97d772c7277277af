"""Interleaved molecule-text records and name-conversion expansion.

Run with: python demos/04_corpus.py
"""

from rxnkit.corpus import (
    build_interleaved,
    build_name_conversion,
    filter_and_stat,
    reconstruct,
)

# A procedure paragraph with pre-annotated entity spans becomes an ordered
# sequence of text and molecule segments. The original surface text stays
# on each molecule segment, so the paragraph reconstructs exactly.
text = "Add ethanol to the acetic acid and stir."
proc = {
    "id": "demo-1",
    "text": text,
    "entities": [{"span": [4, 11], "smiles": "CCO"}, {"span": [19, 30], "smiles": "CC(=O)O"}],
}
record = build_interleaved(proc)
for seg in record["segments"]:
    if seg["kind"] == "text":
        print(f"  text: {seg['value']!r}")
    else:
        print(f"  mol:  {seg['surface']!r} -> {seg['smiles']}")
print("reconstructs exactly:", reconstruct(record) == text)

# Corpus filters reject records with no entities, too many entities (> 20),
# or too many tokens (> 1024), with per-reason counts. build_interleaved
# applies the limits and returns the reason of a rejection; filter_and_stat
# counts its outcomes in the stats report.
stream = [
    proc,
    {"id": "demo-2", "text": "no molecules here", "entities": []},
    {
        "id": "demo-3",
        "text": "x " * 30,
        "entities": [{"span": [2 * i, 2 * i + 1], "smiles": "C"} for i in range(21)],
    },
]
kept, stats = filter_and_stat(build_interleaved(p) for p in stream)
kept = list(kept)
print("\nfilter stats:", stats["rejected"])

# One molecule entry expands into up to five name-conversion samples.
records = build_name_conversion({"id": "m1", "smiles": "CCO", "iupac": "ethanol"})
print("\nname-conversion tasks:")
for r in records:
    target = r["target"] if isinstance(r["target"], str) else "..."
    source = r["input"] if isinstance(r["input"], str) else "<graph>"
    print(f"  {r['task']:18s} {source!r:12} -> {target!r}")
