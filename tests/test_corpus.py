"""Interleaved corpus construction and name-conversion expansion."""

import pytest

from rxnkit.corpus import (
    AnnotatedProcedure,
    InterleavedRecord,
    Rejection,
    build_interleaved,
    build_name_conversion,
    caption_record,
    default_tokenizer,
    filter_and_stat,
)
from rxnkit.molgraph import canonicalize


def proc(pid, text, entities):
    return AnnotatedProcedure(
        id=pid, text=text, entities=tuple((s, e, sm) for s, e, sm in entities)
    )


class TestTokenizer:
    def test_words_and_punctuation(self):
        assert default_tokenizer("Add 5 mL of H2O.") == ["Add", "5", "mL", "of", "H2O", "."]

    def test_symbols_are_single_tokens(self):
        assert default_tokenizer("(2:1)") == ["(", "2", ":", "1", ")"]

    def test_empty(self):
        assert default_tokenizer("") == []


class TestBuildInterleaved:
    def test_segment_order_preserved(self):
        p = proc("p1", "Add X to Y.", [(4, 5, "CCO"), (9, 10, "CCN")])
        rec = build_interleaved(p)
        assert isinstance(rec, InterleavedRecord)
        kinds = [s["kind"] for s in rec.segments]
        assert kinds == ["text", "mol", "text", "mol", "text"]
        assert rec.segments[0]["value"] == "Add "
        assert rec.segments[1]["smiles"] == canonicalize("CCO")
        assert rec.segments[1]["surface"] == "X"
        assert rec.segments[4]["value"] == "."

    def test_reconstruction(self):
        text = "Dissolve A in B, then add C dropwise."
        p = proc("p2", text, [(9, 10, "CCO"), (14, 15, "O"), (26, 27, "CC(=O)O")])
        rec = build_interleaved(p)
        assert rec.reconstruct() == text

    def test_entity_limit(self):
        text = "x " * 25
        entities = [(2 * i, 2 * i + 1, "C") for i in range(21)]
        rec = build_interleaved(proc("p3", text, entities))
        assert isinstance(rec, Rejection)
        assert rec.reason == "ENTITY_LIMIT"

    def test_exactly_at_entity_limit_kept(self):
        text = "x " * 25
        entities = [(2 * i, 2 * i + 1, "C") for i in range(20)]
        rec = build_interleaved(proc("p4", text, entities))
        assert isinstance(rec, InterleavedRecord)

    def test_no_entity_rejected(self):
        rec = build_interleaved(proc("p5", "no molecules here", []))
        assert isinstance(rec, Rejection)
        assert rec.reason == "NO_ENTITY"

    def test_token_limit(self):
        text = "word " * 30 + "X"
        rec = build_interleaved(
            proc("p6", text, [(len(text) - 1, len(text), "C")]), token_limit=30
        )
        assert isinstance(rec, Rejection)
        assert rec.reason == "TOKEN_LIMIT"

    def test_parse_fail(self):
        rec = build_interleaved(proc("p7", "Add X.", [(4, 5, "C(C")]))
        assert isinstance(rec, Rejection)
        assert rec.reason == "PARSE_FAIL"

    def test_graph_attached(self):
        rec = build_interleaved(proc("p8", "X", [(0, 1, "O=C=O")]))
        assert len(rec.segments[0]["graph"]["nodes"]) == 3

    def test_span_invariant_enforced(self):
        with pytest.raises(ValueError):
            proc("p9", "short", [(0, 3, "C"), (2, 4, "C")])
        with pytest.raises(ValueError):
            proc("p10", "short", [(0, 99, "C")])

    def test_adjacent_entities_no_empty_text_segment(self):
        rec = build_interleaved(proc("p11", "XY", [(0, 1, "C"), (1, 2, "O")]))
        assert [s["kind"] for s in rec.segments] == ["mol", "mol"]
        assert rec.reconstruct() == "XY"


class TestCaptionRecord:
    def test_two_segments(self):
        rec = caption_record("c1", "CCO", "An alcohol.")
        assert [s["kind"] for s in rec.segments] == ["mol", "text"]
        assert rec.entity_count == 1


class TestNameConversion:
    def test_with_iupac_gives_five_records(self):
        records = build_name_conversion({"id": "m1", "smiles": "CCO", "iupac": "ethanol"})
        assert len(records) == 5
        by_task = {r.task: r for r in records}
        assert by_task["graph_to_formula"].target == "C2H6O"
        assert by_task["iupac_to_smiles"].input == "ethanol"
        assert by_task["iupac_to_smiles"].target == canonicalize("CCO")
        assert by_task["graph_to_iupac"].target == "ethanol"

    def test_without_iupac_gives_two_records(self):
        records = build_name_conversion({"id": "m2", "smiles": "CCO"})
        assert sorted(r.task for r in records) == ["graph_to_formula", "graph_to_smiles"]

    def test_formula_cross_check(self):
        with pytest.raises(ValueError):
            build_name_conversion({"id": "m3", "smiles": "CCO", "formula": "C2H5O"})
        records = build_name_conversion({"id": "m4", "smiles": "CCO", "formula": "C2H6O"})
        assert len(records) == 2

    def test_smiles_targets_canonical(self):
        records = build_name_conversion({"id": "m5", "smiles": "OCC"})
        by_task = {r.task: r for r in records}
        assert by_task["graph_to_smiles"].target == canonicalize("CCO")

    def test_invalid_smiles(self):
        with pytest.raises(ValueError):
            build_name_conversion({"id": "m6", "smiles": "C(C"})


class TestFilterAndStat:
    def test_empty_stream(self):
        kept, stats = filter_and_stat([])
        assert list(kept) == []
        assert stats.to_dict()["kept"] == 0

    def test_synthetic_stream_counts(self):
        stream = []
        for i in range(6):  # kept
            stream.append(proc(f"k{i}", "Use X now.", [(4, 5, "CCO")]))
        for i in range(2):  # entity limit
            text = "y " * 30
            stream.append(
                proc(f"e{i}", text, [(2 * j, 2 * j + 1, "C") for j in range(21)])
            )
        for i in range(3):  # token limit (limit lowered below)
            text = "w " * 40 + "X"
            stream.append(proc(f"t{i}", text, [(len(text) - 1, len(text), "C")]))
        stream.append(proc("n0", "nothing", []))  # no entity
        kept, stats = filter_and_stat(build_interleaved(p, token_limit=30) for p in stream)
        kept_list = list(kept)
        report = stats.to_dict()
        assert len(kept_list) == 6
        assert report["kept"] == 6
        assert report["rejected"] == {"ENTITY_LIMIT": 2, "NO_ENTITY": 1, "TOKEN_LIMIT": 3}

    def test_unique_molecules_deduplicated(self):
        stream = [
            proc("a", "X", [(0, 1, "CCO")]),
            proc("b", "Y", [(0, 1, "OCC")]),
            proc("c", "Z", [(0, 1, "CCN")]),
        ]
        kept, stats = filter_and_stat(map(build_interleaved, stream))
        list(kept)
        assert stats.to_dict()["unique_molecule_count"] == 2

    def test_filter_monotonicity(self):
        stream = [
            proc(f"p{i}", "x " * (i + 1), [(0, 1, "C")]) for i in range(10)
        ]

        def kept_count(limit):
            kept, _ = filter_and_stat(build_interleaved(p, entity_limit=limit) for p in stream)
            return len(list(kept))

        counts = [kept_count(limit) for limit in (1, 2, 5, 20)]
        assert counts == sorted(counts)

    def test_reconstruction_of_all_kept(self):
        stream = [
            proc("a", "Mix X with Y carefully.", [(4, 5, "CCO"), (11, 12, "O")]),
            proc("b", "Heat Z.", [(5, 6, "c1ccccc1")]),
        ]
        kept, _ = filter_and_stat(map(build_interleaved, stream))
        originals = {"a": "Mix X with Y carefully.", "b": "Heat Z."}
        for rec in kept:
            assert rec.reconstruct() == originals[rec.id]
