"""Molecule-text corpus construction.

Procedure paragraphs with pre-annotated entity spans become interleaved
records: text segments and molecule segments in original character order,
with the entity surface text kept on the molecule segment so the paragraph
is reconstructible byte for byte. Records violating the corpus filters are
rejected with a reason rather than raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .molgraph import canonical_smiles, molecular_formula, parse_smiles, to_graph_record

DEFAULT_ENTITY_LIMIT = 20
DEFAULT_TOKEN_LIMIT = 1024
_TOKEN_BIN_WIDTH = 128  # token_histogram bins: 0-127, 128-255, ...

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")


def default_tokenizer(text: str) -> list[str]:
    """Whitespace-split words; every other non-alphanumeric char is a token."""
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class AnnotatedProcedure:
    """A procedure paragraph with non-overlapping entity spans."""

    id: object  # the record's id, as given
    text: str
    entities: tuple[tuple[int, int, str], ...]  # (start, end, smiles)

    def __post_init__(self):
        last = 0
        for start, end, _ in self.entities:
            if start < last or end <= start or end > len(self.text):
                raise ValueError(
                    f"procedure {self.id!r}: entity spans must be ascending, "
                    "non-overlapping, and inside the text"
                )
            last = end

    @classmethod
    def from_dict(cls, record: dict) -> "AnnotatedProcedure":
        entities = []
        for e in record.get("entities", ()):
            span = e["span"]
            if not (isinstance(span, list) and len(span) == 2
                    and all(type(end) is int for end in span)):  # bool is not an end
                raise ValueError(f"entity span must be a list of two integers, got {span!r}")
            entities.append((*span, str(e["smiles"])))
        return cls(id=record["id"], text=record["text"], entities=tuple(entities))


@dataclass(frozen=True)
class Rejection:
    """Why a record was dropped: NO_ENTITY, ENTITY_LIMIT, TOKEN_LIMIT, PARSE_FAIL."""

    id: object
    reason: str
    detail: str = ""


def build_interleaved(
    proc: AnnotatedProcedure,
    entity_limit: int = DEFAULT_ENTITY_LIMIT,
    token_limit: int = DEFAULT_TOKEN_LIMIT,
) -> dict | Rejection:
    """The interleaved record of one annotated procedure, or its rejection.

    The record holds the id, the text and molecule segments in source order
    and the entity and token counts under "stats".

    Checks run in a fixed order: NO_ENTITY, then ENTITY_LIMIT, then
    TOKEN_LIMIT, then PARSE_FAIL on the entity SMILES.
    """
    if not proc.entities:
        return Rejection(proc.id, "NO_ENTITY")
    if len(proc.entities) > entity_limit:
        return Rejection(
            proc.id, "ENTITY_LIMIT", f"{len(proc.entities)} > {entity_limit}"
        )
    token_count = len(default_tokenizer(proc.text))
    if token_count > token_limit:
        return Rejection(proc.id, "TOKEN_LIMIT", f"{token_count} > {token_limit}")

    segments: list[dict] = []
    cursor = 0
    for start, end, smiles in proc.entities:
        if start > cursor:
            segments.append({"kind": "text", "value": proc.text[cursor:start]})
        try:
            mol = parse_smiles(smiles)
        except ValueError as exc:
            return Rejection(proc.id, "PARSE_FAIL", f"{smiles!r}: {exc}")
        segments.append(
            {
                "kind": "mol",
                "smiles": canonical_smiles(mol),
                "surface": proc.text[start:end],
                "graph": to_graph_record(mol),
            }
        )
        cursor = end
    if cursor < len(proc.text):
        segments.append({"kind": "text", "value": proc.text[cursor:]})
    return {
        "id": proc.id,
        "segments": segments,
        "stats": {"entity_count": len(proc.entities), "token_count": token_count},
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


@dataclass
class CorpusStats:
    """Single-pass accounting over an interleaved-corpus build."""

    kept: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    unique_molecules: set[str] = field(default_factory=set)
    token_histogram: dict[str, int] = field(default_factory=dict)
    entity_histogram: dict[int, int] = field(default_factory=dict)

    def observe(self, outcome: dict | Rejection) -> None:
        if isinstance(outcome, Rejection):
            self.rejected[outcome.reason] = self.rejected.get(outcome.reason, 0) + 1
            return
        self.kept += 1
        for seg in outcome["segments"]:
            if seg["kind"] == "mol":
                self.unique_molecules.add(seg["smiles"])
        counts = outcome["stats"]
        low = counts["token_count"] // _TOKEN_BIN_WIDTH * _TOKEN_BIN_WIDTH
        bin_label = f"{low}-{low + _TOKEN_BIN_WIDTH - 1}"
        self.token_histogram[bin_label] = self.token_histogram.get(bin_label, 0) + 1
        self.entity_histogram[counts["entity_count"]] = (
            self.entity_histogram.get(counts["entity_count"], 0) + 1
        )

    def to_dict(self) -> dict:
        return {
            "kept": self.kept,
            "rejected": dict(sorted(self.rejected.items())),
            "unique_molecule_count": len(self.unique_molecules),
            "token_histogram": dict(
                sorted(self.token_histogram.items(), key=lambda kv: int(kv[0].split("-")[0]))
            ),
            "entity_histogram": dict(sorted(self.entity_histogram.items())),
        }


def filter_and_stat(
    outcomes: Iterable[dict | Rejection],
) -> tuple[Iterator[dict], CorpusStats]:
    """Stream the kept records of build outcomes while counting them all.

    The outcomes come from build_interleaved, which applies the limits. The
    stats object is complete only after the returned iterator is exhausted;
    unique molecules are counted by canonical SMILES over kept records.
    """
    stats = CorpusStats()

    def generate() -> Iterator[dict]:
        for outcome in outcomes:
            stats.observe(outcome)
            if not isinstance(outcome, Rejection):
                yield outcome

    return generate(), stats
