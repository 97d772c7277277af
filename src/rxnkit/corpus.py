"""Molecule-text corpus construction.

Procedure paragraphs with pre-annotated entity spans become interleaved
records: text segments and molecule segments in original character order,
with the entity surface text kept on the molecule segment so the paragraph
is reconstructible byte for byte. Records violating the corpus filters are
rejected with a reason rather than raised. Records and reports are the JSON
objects of docs/formats.md.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .molgraph import canonical_smiles, molecular_formula, parse_smiles, to_graph_record

DEFAULT_ENTITY_LIMIT = 20
DEFAULT_TOKEN_LIMIT = 1024
_TOKEN_BIN_WIDTH = 128  # token_histogram bins: 0-127, 128-255, ...

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")


def default_tokenizer(text: str) -> list[str]:
    """Whitespace-split words; every other non-alphanumeric char is a token."""
    return _TOKEN_RE.findall(text)


def build_interleaved(
    record: dict,
    entity_limit: int = DEFAULT_ENTITY_LIMIT,
    token_limit: int = DEFAULT_TOKEN_LIMIT,
) -> dict | str:
    """The interleaved record of an annotated-procedure record, or the reason
    it is rejected: NO_ENTITY, ENTITY_LIMIT, TOKEN_LIMIT or PARSE_FAIL (of an
    entity's SMILES), checked in that order.

    The record holds the id, the text and molecule segments in source order
    and the entity and token counts under "stats". A record that breaks the
    schema raises, before any rejection: its entity spans and SMILES strings
    are checked, then its id and text, then the span order.
    """
    entities = []
    for entity in record.get("entities", ()):
        span = entity["span"]
        if not (isinstance(span, list) and len(span) == 2
                and all(type(end) is int for end in span)):  # bool is not an end
            raise ValueError(f"entity span must be a list of two integers, got {span!r}")
        smiles = entity["smiles"]
        if not isinstance(smiles, str):
            raise ValueError(f"SMILES must be a string, not {type(smiles).__name__}")
        entities.append((*span, smiles))
    rid, text = record["id"], record["text"]
    last = 0
    for start, end, _ in entities:
        if start < last or end <= start or end > len(text):
            raise ValueError(f"procedure {rid!r}: entity spans must be ascending, "
                             "non-overlapping, and inside the text")
        last = end

    if not entities:
        return "NO_ENTITY"
    if len(entities) > entity_limit:
        return "ENTITY_LIMIT"
    token_count = len(default_tokenizer(text))
    if token_count > token_limit:
        return "TOKEN_LIMIT"

    segments: list[dict] = []
    cursor = 0
    for start, end, smiles in entities:
        if start > cursor:
            segments.append({"kind": "text", "value": text[cursor:start]})
        try:
            mol = parse_smiles(smiles)
        except ValueError:
            return "PARSE_FAIL"
        segments.append(
            {
                "kind": "mol",
                "smiles": canonical_smiles(mol),
                "surface": text[start:end],
                "graph": to_graph_record(mol),
            }
        )
        cursor = end
    if cursor < len(text):
        segments.append({"kind": "text", "value": text[cursor:]})
    return {
        "id": rid,
        "segments": segments,
        "stats": {"entity_count": len(entities), "token_count": token_count},
    }


def reconstruct(record: dict) -> str:
    """The source paragraph of an interleaved record: its text values and
    molecule surfaces in segment order."""
    return "".join(
        seg["value"] if seg["kind"] == "text" else seg["surface"]
        for seg in record["segments"]
    )


def build_name_conversion(entry: dict) -> list[dict]:
    """Expand one molecule entry into its conversion-task rows: {id, task,
    input, target}, the input a graph object or a name.

    graph_to_smiles and graph_to_formula are always emitted; the IUPAC tasks
    only when the entry carries an (opaque) iupac string. A formula given in
    the entry is cross-checked against the computed one; mismatches raise.
    """
    smiles = entry["smiles"]
    mol = parse_smiles(smiles)
    canonical = canonical_smiles(mol)
    formula = molecular_formula(mol)
    given = entry.get("formula")
    if given is not None and given != formula:
        raise ValueError(
            f"entry {entry.get('id')!r}: given formula {given!r} does not match "
            f"computed {formula!r}"
        )
    graph = to_graph_record(mol)
    tasks = [("graph_to_smiles", graph, canonical), ("graph_to_formula", graph, formula)]
    iupac = entry.get("iupac")
    if iupac is not None:
        tasks += [("iupac_to_smiles", iupac, canonical), ("iupac_to_formula", iupac, formula),
                  ("graph_to_iupac", graph, iupac)]
    return [{"id": entry.get("id", canonical), "task": task, "input": source, "target": target}
            for task, source, target in tasks]


def filter_and_stat(outcomes: Iterable[dict | str]) -> tuple[Iterator[dict], dict]:
    """Stream the kept records of build outcomes while counting them all in
    the stats report: kept, rejected (by reason), unique_molecule_count,
    token_histogram and entity_histogram.

    The outcomes come from build_interleaved, which applies the limits. The
    report is complete only after the returned iterator is exhausted;
    unique molecules are counted by canonical SMILES over kept records.
    """
    stats = {"kept": 0, "rejected": {}, "unique_molecule_count": 0,
             "token_histogram": {}, "entity_histogram": {}}
    molecules: set[str] = set()

    def count(histogram: dict, key) -> None:
        histogram[key] = histogram.get(key, 0) + 1

    def generate() -> Iterator[dict]:
        for outcome in outcomes:
            if isinstance(outcome, str):
                count(stats["rejected"], outcome)
                continue
            stats["kept"] += 1
            molecules.update(seg["smiles"] for seg in outcome["segments"]
                             if seg["kind"] == "mol")
            counts = outcome["stats"]
            low = counts["token_count"] // _TOKEN_BIN_WIDTH * _TOKEN_BIN_WIDTH
            count(stats["token_histogram"], f"{low}-{low + _TOKEN_BIN_WIDTH - 1}")
            # Integer keys, so write_json writes them in numeric order.
            count(stats["entity_histogram"], counts["entity_count"])
            yield outcome
        stats["unique_molecule_count"] = len(molecules)

    return generate(), stats
