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
from typing import Callable, Iterable, Iterator

from .molgraph import (
    GraphRecord,
    canonical_smiles,
    molecular_formula,
    parse_smiles,
    to_graph_record,
)

DEFAULT_ENTITY_LIMIT = 20
DEFAULT_TOKEN_LIMIT = 1024

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")


def default_tokenizer(text: str) -> list[str]:
    """Whitespace-split words; every other non-alphanumeric char is a token."""
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class AnnotatedProcedure:
    """A procedure paragraph with non-overlapping entity spans."""

    id: str
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
        entities = tuple(
            (int(e["span"][0]), int(e["span"][1]), str(e["smiles"]))
            for e in record.get("entities", ())
        )
        return cls(id=str(record["id"]), text=record["text"], entities=entities)


@dataclass(frozen=True)
class Rejection:
    """Why a record was dropped: NO_ENTITY, ENTITY_LIMIT, TOKEN_LIMIT, PARSE_FAIL."""

    id: str
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class InterleavedRecord:
    """Ordered text and molecule segments preserving source order."""

    id: str
    segments: tuple[dict, ...]
    entity_count: int
    token_count: int

    def reconstruct(self) -> str:
        return "".join(
            seg["value"] if seg["kind"] == "text" else seg["surface"]
            for seg in self.segments
        )

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "segments": [dict(seg) for seg in self.segments],
            "stats": {
                "entity_count": self.entity_count,
                "token_count": self.token_count,
            },
        }


def build_interleaved(
    proc: AnnotatedProcedure,
    entity_limit: int = DEFAULT_ENTITY_LIMIT,
    token_limit: int = DEFAULT_TOKEN_LIMIT,
    tokenizer: Callable[[str], list[str]] = default_tokenizer,
) -> InterleavedRecord | Rejection:
    """Convert one annotated procedure, or reject it with a reason.

    Checks run in a fixed order: NO_ENTITY, then ENTITY_LIMIT, then
    TOKEN_LIMIT, then PARSE_FAIL on the entity SMILES.
    """
    if not proc.entities:
        return Rejection(proc.id, "NO_ENTITY")
    if len(proc.entities) > entity_limit:
        return Rejection(
            proc.id, "ENTITY_LIMIT", f"{len(proc.entities)} > {entity_limit}"
        )
    token_count = len(tokenizer(proc.text))
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
                "graph": to_graph_record(mol).to_dict(),
            }
        )
        cursor = end
    if cursor < len(proc.text):
        segments.append({"kind": "text", "value": proc.text[cursor:]})
    return InterleavedRecord(
        id=proc.id,
        segments=tuple(segments),
        entity_count=len(proc.entities),
        token_count=token_count,
    )


def caption_record(record_id: str, smiles: str, caption: str) -> InterleavedRecord:
    """Molecule-caption pair as a degenerate two-segment interleaved record."""
    mol = parse_smiles(smiles)
    return InterleavedRecord(
        id=record_id,
        segments=(
            {
                "kind": "mol",
                "smiles": canonical_smiles(mol),
                "surface": smiles,
                "graph": to_graph_record(mol).to_dict(),
            },
            {"kind": "text", "value": caption},
        ),
        entity_count=1,
        token_count=len(default_tokenizer(caption)),
    )


NAME_CONVERSION_TASKS = (
    "iupac_to_formula",
    "iupac_to_smiles",
    "graph_to_formula",
    "graph_to_iupac",
    "graph_to_smiles",
)


@dataclass(frozen=True)
class NameConversionRecord:
    """One conversion sample: graph or name in, string representation out."""

    id: str
    task: str
    input: str | dict
    target: str

    def to_dict(self) -> dict:
        return {"id": self.id, "task": self.task, "input": self.input,
                "target": self.target}


def build_name_conversion(entry: dict) -> list[NameConversionRecord]:
    """Expand one molecule entry into its conversion-task records.

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
    graph = to_graph_record(mol).to_dict()
    rid = str(entry.get("id", canonical))
    records = [
        NameConversionRecord(rid, "graph_to_smiles", graph, canonical),
        NameConversionRecord(rid, "graph_to_formula", graph, formula),
    ]
    iupac = entry.get("iupac")
    if iupac is not None:
        records.append(NameConversionRecord(rid, "iupac_to_smiles", iupac, canonical))
        records.append(NameConversionRecord(rid, "iupac_to_formula", iupac, formula))
        records.append(NameConversionRecord(rid, "graph_to_iupac", graph, iupac))
    return records


@dataclass
class CorpusStats:
    """Single-pass accounting over an interleaved-corpus build."""

    kept: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    unique_molecules: set[str] = field(default_factory=set)
    token_histogram: dict[str, int] = field(default_factory=dict)
    entity_histogram: dict[int, int] = field(default_factory=dict)
    token_bin_width: int = 128

    def observe(self, outcome: InterleavedRecord | Rejection) -> None:
        if isinstance(outcome, Rejection):
            self.rejected[outcome.reason] = self.rejected.get(outcome.reason, 0) + 1
            return
        self.kept += 1
        for seg in outcome.segments:
            if seg["kind"] == "mol":
                self.unique_molecules.add(seg["smiles"])
        low = (outcome.token_count // self.token_bin_width) * self.token_bin_width
        bin_label = f"{low}-{low + self.token_bin_width - 1}"
        self.token_histogram[bin_label] = self.token_histogram.get(bin_label, 0) + 1
        self.entity_histogram[outcome.entity_count] = (
            self.entity_histogram.get(outcome.entity_count, 0) + 1
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
    outcomes: Iterable[InterleavedRecord | Rejection],
) -> tuple[Iterator[InterleavedRecord], CorpusStats]:
    """Stream the kept records of build outcomes while counting them all.

    The outcomes come from build_interleaved, which applies the limits. The
    stats object is complete only after the returned iterator is exhausted;
    unique molecules are counted by canonical SMILES over kept records.
    """
    stats = CorpusStats()

    def generate() -> Iterator[InterleavedRecord]:
        for outcome in outcomes:
            stats.observe(outcome)
            if isinstance(outcome, InterleavedRecord):
                yield outcome

    return generate(), stats
