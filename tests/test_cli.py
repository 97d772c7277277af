"""CLI pipelines: schemas, exit codes, determinism across worker counts."""

import contextlib
import hashlib
import json
import multiprocessing
import os
import random
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from rxnkit import _jsonl
from rxnkit.cli import main

from conftest import kekule_acene, ladder_polymer

ROOT = Path(__file__).resolve().parent.parent


def run(argv):
    return main(argv)


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def strict_row(capsys, path):
    """The one error row a --strict run lists, once its error line is seen to
    name that row's line of path."""
    rows, error = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    (row,) = rows["record_errors"]
    assert rows["count"] == 1
    assert error == {"error": f"--strict: line {row['line']} of {path} is an error row"}
    return row


@pytest.fixture
def mols(tmp_path):
    path = tmp_path / "mols.jsonl"
    write_jsonl(path, [
        {"id": "a", "smiles": "OCC"},
        {"id": "b", "smiles": "C1=CC=CC=C1"},
        {"id": "c", "smiles": "CC(=O)O"},
    ])
    return path


class TestCanon:
    def test_basic(self, tmp_path, mols):
        out = tmp_path / "out.jsonl"
        assert run(["canon", "--in", str(mols), "--out", str(out)]) == 0
        records = read_jsonl(out)
        assert records[0]["smiles"] == "CCO"
        assert records[1]["smiles"] == "c1ccccc1"

    def test_canon_of_canon_is_identity(self, tmp_path, mols):
        once = tmp_path / "once.jsonl"
        twice = tmp_path / "twice.jsonl"
        run(["canon", "--in", str(mols), "--out", str(once)])
        run(["canon", "--in", str(once), "--out", str(twice)])
        assert digest(once) == digest(twice)

    def test_bad_record_collected_not_fatal(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        write_jsonl(src, [{"id": "x", "smiles": "C(C"}, {"id": "y", "smiles": "C"}])
        out = tmp_path / "out.jsonl"
        assert run(["canon", "--in", str(src), "--out", str(out)]) == 0
        assert len(read_jsonl(out)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["count"] == 1
        assert err["record_errors"][0]["id"] == "x"

    def test_strict_mode_fails_fast(self, tmp_path, mols, capsys):
        src = tmp_path / "bad.jsonl"
        write_jsonl(src, [{"id": "x", "smiles": "C(C"}])
        out = tmp_path / "out.jsonl"
        assert run(["canon", "--in", str(src), "--out", str(out), "--strict"]) == 1
        assert strict_row(capsys, src) == {
            "line": 1, "id": "x", "error": "unbalanced parentheses: missing ')'"}
        assert not out.exists()

    def test_more_than_99_open_ring_numbers_is_an_error_row(self, tmp_path, capsys):
        # The 400-carbon ladder polymer needs ring number 100 in canonical
        # order; `%100` would read back as another molecule.
        src = tmp_path / "ladder.jsonl"
        write_jsonl(src, [{"id": "a", "smiles": "CCO"},
                          {"id": "ladder", "smiles": ladder_polymer(400)},
                          {"id": "b", "smiles": ladder_polymer(396)}])
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}.jsonl"
            assert run(["canon", "--in", str(src), "--out", str(out),
                        "--workers", workers]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().err))
        assert outputs[0] == outputs[1]
        assert [r["id"] for r in read_jsonl(tmp_path / "out1.jsonl")] == ["a", "b"]
        assert json.loads(outputs[0][1]) == {"record_errors": [{
            "line": 2, "id": "ladder",
            "error": "cannot write SMILES with more than 99 ring-closure numbers open at once",
        }], "count": 1}

    def test_schema_error_points_to_line(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"id": "ok", "smiles": "C"}\nnot json\n')
        out = tmp_path / "out.jsonl"
        assert run(["canon", "--in", str(src), "--out", str(out)]) == 0
        err = json.loads(capsys.readouterr().err)
        assert err["record_errors"][0]["line"] == 2


class TestValidateFpSimScaffold:
    def test_validate(self, tmp_path):
        src = tmp_path / "v.jsonl"
        write_jsonl(src, [
            {"id": 1, "smiles": "CC(=O)O"},
            {"id": 2, "smiles": "C(C"},
            {"id": 3, "smiles": "C(C)(C)(C)(C)C"},
        ])
        out = tmp_path / "out.jsonl"
        run(["validate", "--in", str(src), "--out", str(out)])
        statuses = [r["status"] for r in read_jsonl(out)]
        assert statuses == ["valid", "syntax_error", "chemistry_error"]

    def test_fp_serialization_and_overrides(self, tmp_path, mols):
        out = tmp_path / "fp.jsonl"
        run(["fp", "--in", str(mols), "--out", str(out), "--fp-kind", "path",
             "--width", "256"])
        for record in read_jsonl(out):
            width, _, payload = record["fp"].partition(":")
            assert int(width) == 256
            assert len(payload) == 64  # 256 bits hex-packed

    def test_validate_survives_a_large_aromatic_ring(self, tmp_path):
        src = tmp_path / "v.jsonl"
        write_jsonl(src, [
            {"id": 1, "smiles": "CCO"},
            {"id": 2, "smiles": "c1" + "c" * 2198 + "c1"},
            {"id": 3, "smiles": "c1ccccc1"},
        ])
        out = tmp_path / "out.jsonl"
        assert run(["validate", "--in", str(src), "--out", str(out)]) == 0
        assert [r["status"] for r in read_jsonl(out)] == ["valid"] * 3

    def test_validate_survives_a_large_kekule_ring(self, tmp_path):
        src = tmp_path / "v.jsonl"
        write_jsonl(src, [
            {"id": 1, "smiles": "CCO"},
            {"id": 2, "smiles": "C1=C" + "C=C" * 499 + "1"},
            {"id": 3, "smiles": "c1ccccc1"},
        ])
        out = tmp_path / "out.jsonl"
        assert run(["validate", "--in", str(src), "--out", str(out)]) == 0
        assert [r["status"] for r in read_jsonl(out)] == ["valid"] * 3

    def test_fp_long_paths_on_a_long_chain(self, tmp_path):
        src = tmp_path / "chain.jsonl"
        write_jsonl(src, [{"id": "chain", "smiles": "C" * 1200}])
        out = tmp_path / "fp.jsonl"
        assert run(["fp", "--fp-kind", "path", "--max-path", "1100",
                    "--in", str(src), "--out", str(out)]) == 0
        (row,) = read_jsonl(out)
        assert row["id"] == "chain" and row["fp"].startswith("2048:")

    def test_fp_key_table_read_once_per_run(self, tmp_path, mols, monkeypatch):
        from rxnkit import cli as cli_module
        from rxnkit import fingerprint as fp_module

        table = tmp_path / "keys.txt"
        table.write_text("1\t[#8]\t1\n2\tc1ccccc1\t1\n")
        loads = []
        load = fp_module.load_key_table

        def counting(path=None):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(fp_module, "load_key_table", counting)
        monkeypatch.setattr(cli_module, "load_key_table", counting)
        out = tmp_path / "fp.jsonl"
        assert run(["fp", "--fp-kind", "key", "--key-table", str(table),
                    "--in", str(mols), "--out", str(out)]) == 0
        assert [r["fp"] for r in read_jsonl(out)] == ["2:01", "2:02", "2:01"]
        assert loads == [str(table)]

    def test_fp_malformed_key_table_is_fatal(self, tmp_path, mols, capsys):
        table = tmp_path / "keys.txt"
        table.write_text("1\t[#8]\t1\n2\t[Q]\t1\n")
        out = tmp_path / "fp.jsonl"
        assert run(["fp", "--fp-kind", "key", "--key-table", str(table),
                    "--in", str(mols), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "key table" in json.loads(lines[0])["error"]
        assert not out.exists()

    def test_fp_missing_key_table_is_fatal(self, tmp_path, mols, capsys):
        out = tmp_path / "fp.jsonl"
        assert run(["fp", "--fp-kind", "key", "--key-table",
                    str(tmp_path / "absent.txt"),
                    "--in", str(mols), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "absent.txt" in json.loads(lines[0])["error"]

    def test_fp_radius_zero_is_radius_zero(self, tmp_path):
        src = tmp_path / "butane.jsonl"
        write_jsonl(src, [{"id": "a", "smiles": "CCCC"}])
        out = tmp_path / "fp.jsonl"
        assert run(["fp", "--in", str(src), "--out", str(out),
                    "--radius", "0", "--width", "64"]) == 0
        assert read_jsonl(out)[0]["fp"] == "64:0002000008000000"

    @pytest.mark.parametrize("command", ["fp", "sim", "split", "eval gen"])
    @pytest.mark.parametrize("flags, wanted", [
        (["--radius", "-1"], "radius"),
        (["--min-path", "0"], "min_path"),
        (["--max-path", "0"], "max_path"),
        (["--min-path", "5", "--max-path", "3"], "max_path"),
    ])
    def test_fp_range_it_cannot_honour_is_rejected(self, tmp_path, mols, capsys,
                                                    command, flags, wanted):
        out = tmp_path / "out.json"
        inputs = {"fp": ["--in", str(mols)], "sim": ["--in", str(mols), "--ref", str(mols)],
                  "split": ["--candidates", str(mols), "--train", str(mols), "--n", "1"],
                  "eval gen": ["--pred", str(mols), "--ref", str(mols)]}[command]
        assert run(command.split() + inputs + flags + ["--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert wanted in json.loads(line)["error"]
        assert not out.exists()

    def test_fp_width_zero_is_rejected(self, tmp_path, mols, capsys):
        out = tmp_path / "fp.jsonl"
        assert run(["fp", "--in", str(mols), "--out", str(out), "--width", "0"]) == 2
        assert "width" in json.loads(capsys.readouterr().err)["error"]

    def test_sim(self, tmp_path, mols):
        out = tmp_path / "sim.jsonl"
        run(["sim", "--in", str(mols), "--ref", str(mols), "--out", str(out)])
        assert all(r["max_similarity"] == 1.0 for r in read_jsonl(out))

    def test_scaffold(self, tmp_path, mols):
        out = tmp_path / "sc.jsonl"
        run(["scaffold", "--in", str(mols), "--out", str(out)])
        by_id = {r["id"]: r["scaffold"] for r in read_jsonl(out)}
        assert by_id["a"] == "∅"
        assert by_id["b"] == "c1ccccc1"


def make_procedures(path, count=40, seed=5):
    rng = random.Random(seed)
    records = []
    for i in range(count):
        n_words = rng.randint(3, 40)
        text = " ".join(["mix"] * n_words)
        entities = []
        for j in range(rng.randint(0, 3)):
            start = 4 * j
            entities.append({"span": [start, start + 3],
                             "smiles": rng.choice(["CCO", "c1ccccc1", "CC(=O)O"])})
        records.append({"id": f"p{i}", "text": text, "entities": entities})
    write_jsonl(path, records)


class TestCorpusCommands:
    def test_interleave_with_stats(self, tmp_path):
        src = tmp_path / "procs.jsonl"
        make_procedures(src)
        out = tmp_path / "out.jsonl"
        stats = tmp_path / "stats.json"
        assert run(["corpus", "interleave", "--in", str(src), "--out", str(out),
                    "--stats", str(stats), "--token-limit", "30"]) == 0
        report = json.loads(stats.read_text())
        kept = read_jsonl(out)
        assert report["kept"] == len(kept)
        assert report["rejected"].get("NO_ENTITY", 0) > 0
        assert report["rejected"].get("TOKEN_LIMIT", 0) > 0

    def test_interleave_deterministic_across_workers(self, tmp_path):
        src = tmp_path / "procs.jsonl"
        make_procedures(src, count=60)
        digests = set()
        for workers in (1, 4, 8):
            out = tmp_path / f"out{workers}.jsonl"
            stats = tmp_path / f"stats{workers}.json"
            run(["corpus", "interleave", "--in", str(src), "--out", str(out),
                 "--stats", str(stats), "--workers", str(workers)])
            digests.add((digest(out), digest(stats)))
        assert len(digests) == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_span_that_is_not_two_integers_is_an_error_row(self, tmp_path, capsys, workers):
        spans = [[4, 11], [4.9, 11.2], [4, 11, 99], [True, 11]]
        src, out = tmp_path / "procs.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [{"id": f"p{i}", "text": "add ethanol", "entities": [
            {"span": span, "smiles": "CCO"}]} for i, span in enumerate(spans)])
        assert run(["corpus", "interleave", "--in", str(src), "--out", str(out),
                    "--workers", workers]) == 0
        errors = json.loads(capsys.readouterr().err)["record_errors"]
        assert errors == [{"line": i + 1, "id": f"p{i}",
                           "error": f"entity span must be a list of two integers, got {span!r}"}
                          for i, span in enumerate(spans) if i]
        assert [r["id"] for r in read_jsonl(out)] == ["p0"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_stats_report_bytes(self, tmp_path, workers):
        # Entity counts 1, 2 and 12 and a token bin past 1023: the report's
        # histograms in the order it writes them.
        src, stats = tmp_path / "procs.jsonl", tmp_path / "stats.json"
        long_text = "w " * 1100 + "X"
        write_jsonl(src, [
            {"id": "two", "text": "add X and Y", "entities": [
                {"span": [4, 5], "smiles": "CCO"}, {"span": [10, 11], "smiles": "O"}]},
            {"id": "twelve", "text": "x " * 12, "entities": [
                {"span": [2 * i, 2 * i + 1], "smiles": "C" * (i + 1)} for i in range(12)]},
            {"id": "long", "text": long_text, "entities": [
                {"span": [len(long_text) - 1, len(long_text)], "smiles": "CCO"}]},
            {"id": "mid", "text": "w " * 200 + "X", "entities": [
                {"span": [400, 401], "smiles": "N"}]},
            {"id": "none", "text": "nothing here", "entities": []},
        ])
        assert run(["corpus", "interleave", "--in", str(src), "--out", os.devnull,
                    "--stats", str(stats), "--entity-limit", "30", "--token-limit", "5000",
                    "--workers", workers]) == 0
        report = json.loads(stats.read_text())
        assert list(report["entity_histogram"]) == ["1", "2", "12"]
        assert list(report["token_histogram"]) == ["0-127", "1024-1151", "128-255"]
        assert digest(stats) == (
            "c941156b6bbf26591581585c3b09cd788bc8d2481f6f4513bbb43bd4c84f5740")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_rows_of_records_with_several_faults(self, tmp_path, capsys, workers):
        # The spans are checked first, then the id, the text and the span
        # order, all before the limits.
        src, out = tmp_path / "procs.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [
            {"text": "add ethanol", "entities": [{"span": [4.5, 11], "smiles": "CCO"}]},
            {"id": "no-text", "entities": [{"span": [0, 1], "smiles": "C"}]},
            {"id": "order", "text": "x " * 5, "entities": [
                {"span": [2, 3], "smiles": "C"}, {"span": [0, 1], "smiles": "C"}]},
            {"id": "no-smiles", "text": "add ethanol", "entities": [{"span": [4, 11]}]},
            {"id": "ok", "text": "add ethanol", "entities": [{"span": [4, 11], "smiles": "CCO"}]},
        ])
        assert run(["corpus", "interleave", "--in", str(src), "--out", str(out),
                    "--entity-limit", "1", "--workers", workers]) == 0
        assert json.loads(capsys.readouterr().err)["record_errors"] == [
            {"line": 1, "error": "entity span must be a list of two integers, got [4.5, 11]"},
            {"line": 2, "id": "no-text", "error": "'text'"},
            {"line": 3, "id": "order", "error": "procedure 'order': entity spans must be "
                                                "ascending, non-overlapping, and inside the text"},
            {"line": 4, "id": "no-smiles", "error": "'smiles'"}]
        assert [r["id"] for r in read_jsonl(out)] == ["ok"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_smiles_that_is_not_a_string_is_an_error_row(self, tmp_path, capsys, workers):
        # Checked with the schema, before the limits: not a PARSE_FAIL.
        src, stats = tmp_path / "procs.jsonl", tmp_path / "stats.json"
        write_jsonl(src, [
            {"id": "int", "text": "add X and Y", "entities": [
                {"span": [4, 5], "smiles": "CCO"}, {"span": [10, 11], "smiles": 5}]},
            {"id": "null", "text": "x " * 3, "entities": [
                {"span": [0, 1], "smiles": None}, {"span": [4, 5], "smiles": "C"}]},
            {"id": "ok", "text": "add ethanol", "entities": [{"span": [4, 11], "smiles": "CCO"}]},
        ])
        assert run(["corpus", "interleave", "--in", str(src), "--out", os.devnull,
                    "--stats", str(stats), "--entity-limit", "1", "--workers", workers]) == 0
        assert json.loads(capsys.readouterr().err)["record_errors"] == [
            {"line": 1, "id": "int", "error": "SMILES must be a string, not int"},
            {"line": 2, "id": "null", "error": "SMILES must be a string, not NoneType"}]
        assert json.loads(stats.read_text())["rejected"] == {}

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_row_has_no_id_when_the_record_has_none(self, tmp_path, capsys, workers):
        src = tmp_path / "procs.jsonl"
        bad = {"text": "add ethanol", "entities": [{"span": [4], "smiles": "CCO"}]}
        write_jsonl(src, [bad, {"id": None, **bad}])
        assert run(["corpus", "interleave", "--in", str(src), "--out", os.devnull,
                    "--workers", workers]) == 0
        error = "entity span must be a list of two integers, got [4]"
        assert json.loads(capsys.readouterr().err)["record_errors"] == [
            {"line": 1, "error": error}, {"line": 2, "id": None, "error": error}]

    # Each subcommand: a record without its id, and the rows it gives.
    ECHO = {"interleave": ({"text": "add ethanol", "entities": [
        {"span": [4, 11], "smiles": "CCO"}]}, 1), "nameconv": ({"smiles": "OCC"}, 2)}

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", sorted(ECHO))
    def test_ids_are_echoed_as_given(self, tmp_path, command, workers):
        record, rows = self.ECHO[command]
        ids = [7, "7", None, True, [1], 1.5]
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(src, [{"id": rid, **record} for rid in ids])
        assert run(["corpus", command, "--in", str(src), "--out", str(out),
                    "--workers", workers]) == 0
        assert [r["id"] for r in read_jsonl(out)] == [rid for rid in ids for _ in range(rows)]

    def test_nameconv(self, tmp_path):
        src = tmp_path / "entries.jsonl"
        write_jsonl(src, [
            {"id": "m1", "smiles": "CCO", "iupac": "ethanol"},
            {"id": "m2", "smiles": "C"},
        ])
        out = tmp_path / "nc.jsonl"
        run(["corpus", "nameconv", "--in", str(src), "--out", str(out)])
        records = read_jsonl(out)
        assert len(records) == 7  # 5 with iupac + 2 without
        tasks = {r["task"] for r in records}
        assert "graph_to_smiles" in tasks and "iupac_to_formula" in tasks

    def test_stats_command(self, tmp_path):
        src = tmp_path / "procs.jsonl"
        make_procedures(src)
        out = tmp_path / "stats.json"
        assert run(["corpus", "interleave", "--in", str(src), "--out", os.devnull,
                    "--stats", str(out)]) == 0
        assert "unique_molecule_count" in json.loads(out.read_text())


class TestSplitAndLeakcheck:
    def test_split_report(self, tmp_path):
        rng = random.Random(9)
        motifs = ["c1ccccc1", "C1CCCCC1", "c1ccncc1", "C1CCOC1"]
        train = [{"id": f"t{i}", "rxn": f"{rng.choice(motifs)}CBr.CO>>{rng.choice(motifs)}CC"}
                 for i in range(10)]
        cands = [{"id": f"c{i}", "rxn": f"{rng.choice(motifs)}CCl.CO>>{rng.choice(motifs)}CO"}
                 for i in range(30)]
        t, c = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        write_jsonl(t, train)
        write_jsonl(c, cands)
        out = tmp_path / "split.json"
        assert run(["split", "--candidates", str(c), "--train", str(t),
                    "--band", "0.5:0.6", "--n", "5", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["requested_n"] == 5
        assert report["delivered_n"] <= 5
        sims = [s["max_train_similarity"] for s in report["selected"]]
        assert all(s <= 0.6 for s in sims)
        assert sims == sorted(sims)

    def test_split_same_bytes_at_two_workers(self, tmp_path):
        rng = random.Random(5)
        motifs = ["c1ccccc1", "c1ccncc1", "C1CCCCC1", "C1CCNCC1", "c1ccsc1", "C1CCOC1",
                  "c1ccc2ccccc2c1", "C1CC2CCC1CC2"]
        t, c = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        write_jsonl(t, [{"id": f"t{i}", "smiles": rng.choice(motifs[:4]) + "C" * i}
                        for i in range(70)])
        write_jsonl(c, [{"id": f"c{i}", "smiles": rng.choice(motifs) + "O" * (i % 4)}
                        for i in range(90)])
        outs = [tmp_path / f"split{workers}.json" for workers in (1, 2)]
        for workers, out in zip((1, 2), outs):
            assert run(["split", "--candidates", str(c), "--train", str(t), "--band", "0:0.9",
                        "--n", "20", "--out", str(out), "--workers", str(workers)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        report = json.loads(outs[0].read_text())
        assert report["rejected_overlap"] > 0 and report["delivered_n"] == 20
        sims = [s["max_train_similarity"] for s in report["selected"]]
        assert 0.0 < sims[0] < sims[-1] < 1.0

    def test_split_parses_each_record_once(self, tmp_path, monkeypatch):
        rng = random.Random(10)
        motifs = ["c1ccccc1", "c1ccncc1", "C1CCCCC1", "C1CCOC1", "c1ccsc1"]
        train = [{"id": f"t{i}", "rxn": f"{rng.choice(motifs)}CBr.CO>>{rng.choice(motifs)}CC"}
                 for i in range(12)]
        train += [{"id": f"s{i}", "smiles": rng.choice(motifs) + "C" * i} for i in range(6)]
        cands = [{"id": f"c{i}", "rxn": f"{rng.choice(motifs)}CCl.CO>>{rng.choice(motifs)}"
                                       f"{'C' * (i % 3)}{rng.choice(motifs)}O."
                                       f"{rng.choice(motifs)}CN"}
                 for i in range(24)]
        cands += [{"id": f"m{i}", "smiles": rng.choice(motifs) + "O" * (i % 3)} for i in range(8)]
        cands.append(dict(train[3], id="dup"))
        # Products that tie on heavy atoms: the smaller canonical SMILES anchors.
        cands += [{"id": "tie1", "rxn": "CCO.CC>>c1ccccc1O.OC1CCCCC1"},
                  {"id": "tie2", "rxn": "CCO.CC>>OC1CCNCC1.c1ccncc1C"}]
        t, c = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        write_jsonl(t, train)
        write_jsonl(c, cands)
        molecules = sum(len(r["rxn"].replace(">>", ".").split(".")) if "rxn" in r else 1
                        for r in train + cands)

        from rxnkit.molgraph import parse_smiles
        calls = []

        def counting(text):
            calls.append(text)
            return parse_smiles(text)

        monkeypatch.setattr("rxnkit.reaction.parse_smiles", counting)
        monkeypatch.setattr("rxnkit.scaffold.parse_smiles", counting)
        out = tmp_path / "split.json"
        assert run(["split", "--candidates", str(c), "--train", str(t), "--band", "0:1",
                    "--n", "12", "--out", str(out)]) == 0
        assert len(calls) == molecules  # one parse of each molecule of each record
        # The bytes the run gave when each record was parsed twice.
        assert digest(out) == "a29ca6ec5a2245f8f16079bcc4ce8453f7a2d6360e5280b49f6b4cc04243d7ac"

    def test_bad_band_is_fatal(self, tmp_path, capsys):
        t = tmp_path / "t.jsonl"
        write_jsonl(t, [{"id": "x", "rxn": "C>>C"}])
        out = tmp_path / "split.json"
        for band in ("high", "nan:nan", "-inf:inf", "0.5:inf", "nan:0.6", "0.1:0.2:0.3"):
            code = run(["split", "--candidates", str(t), "--train", str(t),
                        f"--band={band}", "--n", "1", "--out", str(out)])
            assert code == 2, band
            assert json.loads(capsys.readouterr().err) == {
                "error": f"--band must look like 0.5:0.6, got {band!r}"}
            assert not out.exists()
        assert run(["split", "--candidates", str(t), "--train", str(t), "--band=0.6:0.5",
                    "--n", "1", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "--band low must be <= high, got '0.6:0.5'"}
        assert not out.exists()

    def test_n_below_one_is_fatal_before_fingerprinting(self, tmp_path, capsys, monkeypatch):
        t = tmp_path / "t.jsonl"
        write_jsonl(t, [{"id": "x", "rxn": "C>>C"}])
        monkeypatch.setattr("rxnkit.cli.split_features", None)  # must not be reached
        assert run(["split", "--candidates", str(t), "--train", str(t), "--n", "0"]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "--n must be >= 1, got 0"}

    def test_leakcheck(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_jsonl(a, [{"id": "x", "rxn": "CCO.CC(=O)O>>CC(=O)OCC"}])
        write_jsonl(b, [{"id": "y", "rxn": "CC(=O)O.OCC>>CC(=O)OCC"}])
        out = tmp_path / "leak.json"
        assert run(["leakcheck", "--split", f"a={a}", "--split", f"b={b}",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["cross"][0]["count"] == 1

    def test_leakcheck_split_name_given_twice_is_fatal(self, tmp_path, capsys, monkeypatch):
        a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
        write_jsonl(a, [{"id": "a1", "rxn": "CCO>>CC=O"}])
        write_jsonl(b, [{"id": "b1", "rxn": "C>>C"}])
        write_jsonl(c, [{"id": "c1", "rxn": "OCC>>O=CC"}])
        monkeypatch.setattr("rxnkit.cli.iter_lines", None)  # no file may be read
        out = tmp_path / "leak.json"
        assert run(["leakcheck", "--split", f"x={a}", "--split", f"x={b}",
                    "--split", f"y={c}", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "--split name 'x' is given twice"}
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_leakcheck_empty_split_name_is_fatal(self, tmp_path, capsys, monkeypatch, workers):
        a = tmp_path / "a.jsonl"
        write_jsonl(a, [{"id": "a1", "rxn": "CCO>>CC=O"}])
        monkeypatch.setattr("rxnkit.cli.iter_lines", None)  # no file may be read
        out = tmp_path / "leak.json"
        assert run(["leakcheck", "--split", f"={a}", "--split", f"y={a}",
                    "--out", str(out), "--workers", workers]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"--split must be NAME=PATH, got '={a}'"}
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_leakcheck_record_without_id_is_an_error_row(self, tmp_path, capsys, workers):
        # Two id-less spellings of one reaction would both be listed as "None",
        # the id of the third record.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, [{"rxn": "CCO.CC(=O)O>>CC(=O)OCC"}, {"rxn": "CC(=O)O.OCC>>CC(=O)OCC"},
                        {"id": "None", "rxn": "OCC.CC(=O)O>>CC(=O)OCC"}])
        write_jsonl(b, [{"id": "y", "rxn": "CC(=O)O.OCC>>CC(=O)OCC"}])
        out = tmp_path / "leak.json"
        assert run(["leakcheck", "--split", f"a={a}", "--split", f"b={b}",
                    "--out", str(out), "--workers", workers]) == 0
        rows = [{"line": line, "error": "'id'"} for line in (1, 2)]
        assert json.loads(capsys.readouterr().err)["record_errors"] == rows
        assert json.loads(out.read_text()) == {
            "cross": [{"splits": ["a", "b"], "count": 1, "pairs": [["None", "y"]]}],
            "within": [], "errors": [{"split": "a", **row} for row in rows]}

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_split_writes_ids_as_given_in_id_order(self, tmp_path, capsys, workers):
        # Ties on similarity list integer ids in numeric order, then strings;
        # null and true are no ids.
        ids = [10, "b", 2, "1", 1, "None", None, "True", True, "a"]
        t, c, out = tmp_path / "t.jsonl", tmp_path / "c.jsonl", tmp_path / "split.json"
        write_jsonl(t, [{"id": "t", "smiles": "C1CCCCC1"}])
        write_jsonl(c, [{"id": rid, "smiles": "c1ccccc1O"} for rid in ids])
        assert run(["split", "--candidates", str(c), "--train", str(t), "--band", "0:1",
                    "--n", "20", "--out", str(out), "--workers", workers]) == 0
        not_id = "id must be a string or an integer, got "
        assert json.loads(capsys.readouterr().err)["record_errors"] == [
            {"line": 7, "id": None, "error": not_id + "null"},
            {"line": 9, "id": True, "error": not_id + "true"}]
        assert [s["id"] for s in json.loads(out.read_text())["selected"]] == [
            1, 2, 10, "1", "None", "True", "a", "b"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_split_candidate_id_that_repeats_is_a_run_error(self, tmp_path, capsys, workers):
        t, c, out = tmp_path / "t.jsonl", tmp_path / "c.jsonl", tmp_path / "split.json"
        write_jsonl(t, [{"id": "t", "smiles": "C1CCCCC1"}])
        write_jsonl(c, [{"id": "c", "smiles": "c1ccccc1O"}, {"smiles": "c1ccccc1"},
                        {"id": "c", "smiles": "c1ccncc1"}])
        assert run(["split", "--candidates", str(c), "--train", str(t), "--band", "0:1",
                    "--n", "5", "--out", str(out), "--workers", workers]) == 2
        rows, error = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert rows["record_errors"] == [{"line": 2, "error": "'id'"}]
        assert error == {"error": 'candidate id "c" repeats'}
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_leakcheck_ids_are_keys_as_given(self, tmp_path, capsys, workers):
        # One reaction under every id: 1 and "1" are two ids; null, true and
        # a list are none. Pairs list integer ids in numeric order, then strings.
        a, b, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "leak.json"
        write_jsonl(a, [{"id": rid, "rxn": "CCO.CC(=O)O>>CC(=O)OCC"}
                        for rid in [2, "1", None, "None", 10]])
        write_jsonl(b, [{"id": rid, "rxn": "OCC.CC(=O)O>>CC(=O)OCC"}
                        for rid in [1, True, "True", [1]]])
        assert run(["leakcheck", "--split", f"a={a}", "--split", f"b={b}",
                    "--out", str(out), "--workers", workers]) == 0
        not_id = "id must be a string or an integer, got "
        rows = [{"line": 3, "id": None, "error": not_id + "null"},
                {"line": 2, "id": True, "error": not_id + "true"},
                {"line": 4, "id": [1], "error": not_id + "[1]"}]
        assert json.loads(capsys.readouterr().err)["record_errors"] == rows
        assert json.loads(out.read_text()) == {
            "cross": [{"splits": ["a", "b"], "count": 8, "pairs": [
                [2, 1], [2, "True"], [10, 1], [10, "True"],
                ["1", 1], ["1", "True"], ["None", 1], ["None", "True"]]}],
            "within": [
                {"split": "a", "count": 6, "pairs": [
                    [2, 10], [2, "1"], [2, "None"], ["1", 10], ["1", "None"], ["None", 10]]},
                {"split": "b", "count": 1, "pairs": [[1, "True"]]}],
            "errors": [{"split": s, **row} for s, row in zip("abb", rows)]}

    def test_leakcheck_collects_unparseable_records(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, [{"id": "bad", "rxn": "not>>"}, {"id": "ok", "rxn": "C>>C"}])
        write_jsonl(b, [{"id": "ok2", "rxn": "C>>C"}])
        out = tmp_path / "leak.json"
        assert run(["leakcheck", "--split", f"a={a}", "--split", f"b={b}",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        (error,) = report["errors"]
        assert (error["split"], error["id"]) == ("a", "bad")
        assert error["error"].startswith("cannot parse reactants fragment 0")
        assert report["cross"][0]["count"] == 1
        (row,) = json.loads(capsys.readouterr().err)["record_errors"]
        assert (row["line"], row["id"], row["error"]) == (1, "bad", error["error"])

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_fields_other_than_id_and_rxn_are_ignored(self, tmp_path, capsys, workers):
        motifs = ["c1ccccc1", "C1CCCCC1", "c1ccncc1", "C1CCOC1"]
        pairs = [(a, b) for a in motifs for b in motifs]
        train = [{"id": f"t{i}", "rxn": f"{a}CBr.CO>>{b}CC"} for i, (a, b) in enumerate(pairs)]
        cands = train[:3] + [{"id": f"c{i}", "rxn": f"{a}CCl.CO>>{b}CO"}
                             for i, (a, b) in enumerate(pairs)]
        extra = {"yield": "500%", "catalyst": ["C(C"], "class": 42}
        t, c = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        split, leak = tmp_path / "split.json", tmp_path / "leak.json"
        reports = []
        for fields in ({}, extra):
            write_jsonl(t, [{**r, **fields} for r in train])
            write_jsonl(c, [{**r, **fields} for r in cands])
            assert run(["split", "--candidates", str(c), "--train", str(t), "--n", "5",
                        "--band", "0:0.9", "--out", str(split), "--workers", workers]) == 0
            assert run(["leakcheck", "--split", f"train={t}", "--split", f"test={c}",
                        "--out", str(leak), "--workers", workers]) == 0
            assert capsys.readouterr().err == ""
            reports.append((split.read_bytes(), leak.read_bytes()))
        assert reports[0] == reports[1]
        assert json.loads(reports[0][0])["rejected_overlap"] == 3
        assert json.loads(reports[0][1])["cross"][0]["count"] == 3


# Fixed eval cls|reg|sel pairs: (reference fields, predictions) and the
# sha256 of the report and of the --details file that they give.
EVAL_PINS = {
    "cls": ([{"reference": g} for g in (0, 1, 2, 1, 7, 2, 0)], [0, 2, 2, 1, 0, 2, 1],
            "797782c8b63926805ebf5e8a3e8e3d08f146e2ead08dd2492713ec9357bd1356",
            "79e078fadd290138aef6decf0cde9807ee7340567ebe7a6ef59e84d6cf16267d"),
    "reg": ([{"reference": g} for g in (1.0, 2.5, -3, 0.1, 7.25)],
            [1.5, 2.0, -2.0, 0.3, 7],
            "efcba3208d300353e8067606274979a316f7adc55de0b200d9e8ae2bf66a4115",
            "ce03cf440950ec951719b45ac2562dd95d7a7db7576d3f4707206a5d04a60fc2"),
    "sel": ([{"reference": "A", "candidates": ["A", "B", "C"], "candidate_yield_ranks": [2, 1, 3]},
             {"reference": "B", "candidates": ["A", "B"], "candidate_yield_ranks": [1, 2]},
             {"reference": "C", "candidates": ["C", "D", "E", "F"],
              "candidate_yield_ranks": [4, 3, 2, 1]}],
            ["B", "Z", "C"],
            "f9c9647e89b211a1d5bec010114c26146742f22a6ca376db11a0b5c0fc6991ff",
            "553a77f6f1369ed5bbca4ebb3aa252f483d1e36ee4abc5064731610d1737e38f"),
}


class TestRenderAndEval:
    def test_render(self, tmp_path):
        src = tmp_path / "bind.jsonl"
        write_jsonl(src, [{"id": "r", "reactants": ["r1", "r2"], "products": ["p1"]}])
        out = tmp_path / "rend.jsonl"
        run(["render", "--task", "forward", "--in", str(src), "--out", str(out)])
        record = read_jsonl(out)[0]
        assert record["instruction"] == (
            "Using r1.r2 as the reactants and reagents, tell me the potential product."
        )

    def test_render_variant_file_with_seed(self, tmp_path, monkeypatch):
        from rxnkit import cli as cli_module

        variants = tmp_path / "variants.json"
        text = json.dumps([
            {"task": "forward", "system": "alt system",
             "instruction": "ALT: {reactants}?", "output": "ALT: {products}."},
        ])
        src = tmp_path / "bind.jsonl"
        write_jsonl(src, [
            {"id": i, "reactants": ["r"], "products": ["p"]} for i in range(30)
        ])
        real = cli_module._run_records

        def without_the_file(*args):
            variants.unlink()  # read before the first record; no worker reads it
            return real(*args)

        monkeypatch.setattr(cli_module, "_run_records", without_the_file)
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out, workers in ((out_a, 1), (out_b, 4)):
            variants.write_text(text)
            assert run(["render", "--task", "forward", "--in", str(src),
                        "--out", str(out), "--templates", str(variants),
                        "--seed", "7", "--workers", str(workers)]) == 0
        assert digest(out_a) == digest(out_b)  # seeded draw per record line
        # The bytes the run gave when each worker read the file for itself.
        assert digest(out_a) == "6973c6841e63c7e4e5f22d1d547dfeec32ffab6a54d7259160333c9b6255712e"
        instructions = {r["instruction"] for r in read_jsonl(out_a)}
        assert len(instructions) == 2  # both variants appear across records

    def test_render_templates_reach_spawned_workers(self, tmp_path):
        # Workers started by spawn import the CLI afresh, after the file is
        # gone: the registry reaches them with the row function.
        variants, src = tmp_path / "variants.json", tmp_path / "bind.jsonl"
        variants.write_text(json.dumps([
            {"task": "forward", "system": "alt system",
             "instruction": "ALT: {reactants}?", "output": "ALT: {products}."},
        ]))
        write_jsonl(src, [{"id": i, "reactants": ["r"], "products": ["p"]} for i in range(30)])
        argv = ["render", "--task", "forward", "--in", str(src), "--templates", str(variants),
                "--seed", "7", "--out"]
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        assert run(argv + [str(want)]) == 0
        child = (
            "import multiprocessing, sys\n"
            "from pathlib import Path\n"
            "from rxnkit import cli\n"
            "real = cli._run_records\n"
            "def without_the_file(*args):\n"
            "    Path(sys.argv[1]).unlink()\n"
            "    return real(*args)\n"
            "cli._run_records = without_the_file\n"
            "multiprocessing.set_start_method('spawn')\n"
            "sys.exit(cli.main(sys.argv[2:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", child, str(variants), *argv, str(got), "--workers", "2"],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert not variants.exists()
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("bad", ["malformed", "missing", "not_a_list", "slots_not_a_list"])
    def test_render_bad_templates_file_is_fatal(self, tmp_path, capsys, monkeypatch, bad):
        templates = tmp_path / "t.json"
        if bad == "malformed":
            templates.write_text("{bad")
        elif bad == "not_a_list":
            templates.write_text("[1]")
        elif bad == "slots_not_a_list":  # a string is no list of slot names
            templates.write_text(json.dumps([{"task": "forward", "system": "s", "instruction": "i",
                                              "output": "o", "molecule_slots": "reactants"}]))
        src = tmp_path / "bind.jsonl"
        write_jsonl(src, [{"id": i, "reactants": ["r"], "products": ["p"]} for i in range(2)])
        out = tmp_path / "rend.jsonl"
        monkeypatch.setattr("rxnkit.cli.render_template", None)  # must not be reached
        assert run(["render", "--task", "forward", "--in", str(src), "--out", str(out),
                    "--templates", str(templates)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)["error"]
        assert error.startswith("cannot load templates: ")
        if bad == "missing":
            assert "No such file or directory" in error
        if bad == "slots_not_a_list":
            assert error.endswith("molecule_slots must be a list, got 'reactants'")
        assert not out.exists()

    def test_render_template_without_system_is_fatal(self, tmp_path, capsys):
        templates, out = tmp_path / "t.json", tmp_path / "rend.jsonl"
        templates.write_text(json.dumps([{"task": "forward", "instruction": "i", "output": "o"}]))
        src = tmp_path / "bind.jsonl"
        write_jsonl(src, [{"id": 0, "reactants": ["r"], "products": ["p"]}])
        assert run(["render", "--task", "forward", "--in", str(src), "--out", str(out),
                    "--templates", str(templates)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "cannot load templates: 'system'"}
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_render_templates_nested_too_deep_is_fatal(self, tmp_path, capsys, workers):
        templates, out = tmp_path / "deep.json", tmp_path / "rend.jsonl"
        templates.write_text("[" * 100_000)
        out.write_text("kept\n")
        src = tmp_path / "bind.jsonl"
        write_jsonl(src, [{"id": i, "reactants": ["r"], "products": ["p"]} for i in range(2)])
        assert run(["render", "--task", "forward", "--in", str(src), "--out", str(out),
                    "--templates", str(templates), "--workers", workers]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"].startswith("cannot load templates: ")
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("flags, error", [
        (["--task", "forward", "--variant", "7", "--seed", "1"],
         "--variant and --seed exclude each other: the seed draws the variant"),
        (["--task", "nope"], "unknown task 'nope'"),
        (["--task", "forward", "--variant", "7"], "task 'forward' has no variant 7 (1 registered)"),
        (["--task", "forward", "--variant", "-1"],
         "task 'forward' has no variant -1 (1 registered)"),
    ], ids=["variant-and-seed", "unknown-task", "variant-past-the-last", "negative-variant"])
    def test_render_flags_it_cannot_honour_fail_the_run(self, tmp_path, capsys, monkeypatch,
                                                        flags, error, workers):
        src = tmp_path / "bind.jsonl"
        write_jsonl(src, [{"id": i, "reactants": ["r"], "products": ["p"]} for i in range(3)])
        out = tmp_path / "rend.jsonl"
        monkeypatch.setattr("rxnkit.cli.render_template", None)  # no record is rendered
        assert run(["render", *flags, "--in", str(src), "--out", str(out),
                    "--workers", workers]) == 2
        (line,) = capsys.readouterr().err.splitlines()  # no error row, one error
        assert json.loads(line) == {"error": error}
        assert not out.exists()

    def test_eval_gen_table_columns(self, tmp_path):
        ref = tmp_path / "ref.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "CCO"}, {"id": 2, "reference": "CCN"}])
        write_jsonl(pred, [{"id": 1, "prediction": "OCC"}, {"id": 2, "prediction": "CCN"}])
        out = tmp_path / "m.json"
        details = tmp_path / "d.jsonl"
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out), "--details", str(details)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert set(metrics) == {
            "exact", "bleu", "levenshtein_mean", "validity",
            "fts_path", "fts_key", "fts_circular",
        }
        assert metrics["exact"] == 1.0
        assert len(read_jsonl(details)) == 2

    def _gen_files(self, tmp_path):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "CCN"}, {"id": 2, "reference": "Oc1ccccc1C"}])
        write_jsonl(pred, [{"id": 1, "prediction": "OCCN"}, {"id": 2, "prediction": "c1ccccc1O"}])
        table = tmp_path / "tiny.txt"
        table.write_text("1\t[#7]\t1\n2\t[#8]\t1\n")
        return ["eval", "gen", "--pred", str(pred), "--ref", str(ref)], table

    def test_eval_gen_uses_the_fingerprint_options(self, tmp_path):
        from rxnkit.fingerprint import FingerprintSpec, load_key_table
        from rxnkit.metrics import eval_generation, generation_specs, score_generation

        argv, table = self._gen_files(tmp_path)
        out = tmp_path / "m.json"
        assert run(argv + ["--out", str(out), "--key-table", str(table), "--radius", "1",
                           "--width", "64", "--max-path", "3"]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["fts_key"] == 0.75  # {7, 8} against {7}, then {8} against {8}
        specs = generation_specs(FingerprintSpec(radius=1, width=64, max_path=3,
                                                 key_table=load_key_table(table)))
        records = [{"id": 1, "prediction": "OCCN", "reference": "CCN"},
                   {"id": 2, "prediction": "c1ccccc1O", "reference": "Oc1ccccc1C"}]
        assert metrics == eval_generation([score_generation(r, specs) for r in records])[0]
        assert run(argv + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["metrics"]["fts_key"] != 0.75

    @pytest.mark.parametrize("bad", ["missing", "malformed"])
    def test_eval_gen_bad_key_table_is_fatal(self, tmp_path, capsys, bad):
        argv, table = self._gen_files(tmp_path)
        if bad == "malformed":
            table.write_text("1\t[Q]\t1\n")
        else:
            table = tmp_path / "absent.txt"
        with open(tmp_path / "pred.jsonl", "a") as fh:
            fh.write("not json\n")  # a row, were the records read
        out = tmp_path / "m.json"
        assert run(argv + ["--out", str(out), "--key-table", str(table)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line)["error"].startswith("cannot load key table: ")
        assert not out.exists()

    def test_eval_gen_has_no_fp_kind(self, tmp_path, capsys):
        argv, _ = self._gen_files(tmp_path)
        with pytest.raises(SystemExit) as info:
            run(argv + ["--fp-kind", "key"])
        assert info.value.code == 2
        assert "--fp-kind" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["circular", "path"])
    def test_fp_key_table_is_loaded_for_any_kind(self, tmp_path, mols, capsys, kind):
        out = tmp_path / "fp.jsonl"
        assert run(["fp", "--fp-kind", kind, "--key-table", str(tmp_path / "absent.txt"),
                    "--in", str(mols), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line)["error"].startswith("cannot load key table: ")
        assert not out.exists()

    def test_eval_cls(self, tmp_path):
        ref = tmp_path / "ref.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": i, "reference": i % 3} for i in range(9)])
        write_jsonl(pred, [{"id": i, "prediction": i % 3} for i in range(9)])
        out = tmp_path / "m.json"
        run(["eval", "cls", "--pred", str(pred), "--ref", str(ref), "--out", str(out)])
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["accuracy"] == 1.0 and metrics["cen"] == 0.0

    def test_eval_reg(self, tmp_path):
        ref = tmp_path / "ref.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": i, "reference": float(v)} for i, v in enumerate([1, 2, 3])])
        write_jsonl(pred, [{"id": i, "prediction": float(v)} for i, v in enumerate([1, 2, 4])])
        out = tmp_path / "m.json"
        run(["eval", "reg", "--pred", str(pred), "--ref", str(ref), "--out", str(out)])
        assert json.loads(out.read_text())["metrics"]["r2"] == pytest.approx(0.5)

    def test_eval_sel(self, tmp_path):
        ref = tmp_path / "ref.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl(ref, [{
            "id": 1, "reference": "A", "candidates": ["A", "B", "C", "D"],
            "candidate_yield_ranks": [1, 2, 3, 4],
        }])
        write_jsonl(pred, [{"id": 1, "prediction": "B"}])
        out = tmp_path / "m.json"
        run(["eval", "sel", "--pred", str(pred), "--ref", str(ref), "--out", str(out)])
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["selection_top1"] == 0.0
        assert metrics["selection_top50"] == 1.0

    @pytest.mark.parametrize("task", sorted(EVAL_PINS))
    def test_eval_report_and_details_bytes(self, tmp_path, monkeypatch, task):
        refs, preds, report_sha, details_sha = EVAL_PINS[task]
        monkeypatch.chdir(tmp_path)  # the report names its details path
        write_jsonl("ref.jsonl", [{"id": i, **ref} for i, ref in enumerate(refs)])
        write_jsonl("pred.jsonl", [{"id": i, "prediction": p} for i, p in enumerate(preds)])
        assert run(["eval", task, "--pred", "pred.jsonl", "--ref", "ref.jsonl",
                    "--out", "m.json", "--details", "d.jsonl"]) == 0
        assert (digest("m.json"), digest("d.jsonl")) == (report_sha, details_sha)

    def test_missing_prediction_reported(self, tmp_path, capsys):
        ref = tmp_path / "ref.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "CCO"}, {"id": 2, "reference": "CCN"}])
        write_jsonl(pred, [{"id": 1, "prediction": "CCO"}])
        out = tmp_path / "m.json"
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 0
        err = json.loads(capsys.readouterr().err)
        assert err["record_errors"][0]["error"] == "no prediction"


class TestConfig:
    def test_config_defaults_and_flag_override(self, tmp_path, mols):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"width": 128, "fp_kind": "path"}))
        out1 = tmp_path / "o1.jsonl"
        run(["--config", str(config), "fp", "--in", str(mols), "--out", str(out1)])
        assert read_jsonl(out1)[0]["fp"].startswith("128:")
        out2 = tmp_path / "o2.jsonl"
        run(["--config", str(config), "fp", "--in", str(mols), "--out", str(out2),
             "--width", "64"])
        assert read_jsonl(out2)[0]["fp"].startswith("64:")


class TestNotJsonNumbers:
    """NaN, Infinity and a number past the float range are not JSON (RFC 8259):
    the line, --config or --templates file that holds one is refused, so
    none is ever written back out."""

    def outputs(self, tmp_path, capsys, argv, code):
        """(output bytes or None, stderr) of argv at 1 and at 2 workers."""
        got = []
        for workers in ("1", "2"):
            out = tmp_path / f"out{workers}.jsonl"
            assert run([*argv, "--out", str(out), "--workers", workers]) == code
            got.append((out.read_bytes() if out.exists() else None, capsys.readouterr().err))
        assert got[0] == got[1]
        for text in map(str, got[0]):
            assert "NaN" not in text and "Infinity" not in text
        return got[0]

    def test_record_is_an_error_row(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"id": NaN, "smiles": "CCO"}\n{"id": "a", "smiles": "OCC"}\n'
                       '{"id": -Infinity, "smiles": "C"}\n{"id": 1e999, "smiles": "C"}\n')
        out, err = self.outputs(tmp_path, capsys, ["canon", "--in", str(src)], 0)
        assert out == b'{"id":"a","smiles":"CCO"}\n'
        assert json.loads(err) == {"count": 3, "record_errors": [
            {"line": 1, "error": "bad JSON: a number that is not finite is not JSON"},
            {"line": 3, "error": "bad JSON: a number that is not finite is not JSON"},
            {"line": 4, "error": "bad JSON: a number that is not finite is not JSON"},
        ]}

    def test_eval_lines_are_error_rows(self, tmp_path, capsys):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        ref.write_text('{"id": 0, "reference": 1.0}\n{"id": 1, "reference": NaN}\n'
                       '{"id": 2, "reference": 2.0}\n{"id": 3, "reference": 3.0}\n')
        pred.write_text('{"id": 0, "prediction": 1.5}\n{"id": 1, "prediction": 1.0}\n'
                        '{"id": 2, "prediction": -Infinity}\n{"id": 3, "prediction": 3.0}\n')
        out, err = self.outputs(tmp_path, capsys, [
            "eval", "reg", "--pred", str(pred), "--ref", str(ref)], 0)
        assert json.loads(out)["sample_count"] == 2
        bad = "bad JSON: a number that is not finite is not JSON"
        assert json.loads(err) == {"count": 3, "record_errors": [
            {"line": 3, "error": bad}, {"line": 2, "error": bad},
            {"line": 3, "id": 2, "error": "no prediction"}]}

    def test_templates_file_is_a_run_error(self, tmp_path, capsys):
        templates = tmp_path / "t.json"
        templates.write_text('[{"task": "forward", "system": NaN, "instruction": "i", '
                             '"output": "o"}]')
        src = tmp_path / "bind.jsonl"
        write_jsonl(src, [{"id": 0, "reactants": ["r"], "products": ["p"]}])
        out, err = self.outputs(tmp_path, capsys, [
            "render", "--task", "forward", "--variant", "1", "--in", str(src),
            "--templates", str(templates)], 2)
        assert out is None
        assert json.loads(err) == {"error": "cannot load templates: a number that is not finite is not JSON"}

    def test_config_file_is_a_run_error(self, tmp_path, capsys, mols):
        config = tmp_path / "config.json"
        config.write_text('{"width": Infinity}')
        out, err = self.outputs(tmp_path, capsys, [
            "--config", str(config), "fp", "--in", str(mols)], 2)
        assert out is None
        assert json.loads(err) == {
            "error": f"cannot read config {config}: a number that is not finite is not JSON"}


# Each per-record subcommand: its argv (before --in/--out) and one good record.
PER_RECORD = {
    "canon": (["canon"], {"id": "a", "smiles": "OCC"}),
    "validate": (["validate"], {"id": "a", "smiles": "OCC"}),
    "fp": (["fp", "--fp-kind", "path"], {"id": "a", "smiles": "OCC"}),
    "scaffold": (["scaffold"], {"id": "a", "smiles": "CCc1ccccc1"}),
    "sim": (["sim", "--ref", "REF"], {"id": "a", "smiles": "OCC"}),
    "render": (["render", "--task", "forward"],
               {"id": "a", "reactants": ["CCO"], "products": ["CC"]}),
    "nameconv": (["corpus", "nameconv"], {"id": "a", "smiles": "CCO", "iupac": "ethanol"}),
    "interleave": (["corpus", "interleave"],
                   {"id": "a", "text": "add ethanol", "entities": [
                       {"span": [4, 11], "smiles": "CCO"}]}),
    "stats": (["corpus", "interleave", "--out", os.devnull, "--stats", "OUT"],
              {"id": "a", "text": "add ethanol", "entities": [
                  {"span": [4, 11], "smiles": "CCO"}]}),
}


def with_io(argv, src, out):
    """argv reading src, its output written to out: at OUT when argv has it
    (the stats entry writes its report there), else by --out."""
    if "OUT" in argv:
        return [str(out) if a == "OUT" else a for a in argv] + ["--in", str(src)]
    return argv + ["--in", str(src), "--out", str(out)]


# Every subcommand that reads records: its arguments and a good record of
# the file MIXED, where a failed record and then a line that is not JSON come
# between two copies of it. A reference of eval fails for want of a prediction.
EVAL_PAIR = {"gen": ("CCO", "OCC"), "cls": (1, 0), "reg": (1.0, 1.5), "sel": ("A", "B")}
LINE_ORDER = {
    **{name: (argv + ["--in", "MIXED"], good) for name, (argv, good) in PER_RECORD.items()},
    "split": (["split", "--train", "REF", "--candidates", "MIXED", "--n", "1"],
              {"id": "a", "smiles": "c1ccccc1"}),
    "leakcheck": (["leakcheck", "--split", "a=REF", "--split", "b=MIXED"],
                  {"id": "a", "smiles": "OCC"}),
    **{f"eval-{task}": (["eval", task, "--pred", "PRED", "--ref", "MIXED"],
                        {"id": "a", "reference": ref, "candidates": [ref, pred]})
       for task, (ref, pred) in EVAL_PAIR.items()},
}


class TestBadRecords:
    """No bad record crashes a run: each becomes one error row on stderr."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(PER_RECORD))
    def test_per_record_subcommands(self, tmp_path, capsys, name, workers):
        argv, good = PER_RECORD[name]
        ref = tmp_path / "ref.jsonl"
        write_jsonl(ref, [{"id": "r", "smiles": "CCO"}])
        argv = [str(ref) if a == "REF" else a for a in argv]
        only_good = tmp_path / "good.jsonl"
        write_jsonl(only_good, [good])
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join([
            json.dumps(good), "[1, 2]", json.dumps({"id": "m"}),
            json.dumps({"id": "b", "smiles": 5}),
        ]) + "\n")
        want, got = tmp_path / "want.out", tmp_path / "got.out"
        assert run(with_io(argv, only_good, want)) == 0
        capsys.readouterr()
        assert run(with_io(argv, mixed, got) + ["--workers", str(workers)]) == 0
        errors = json.loads(capsys.readouterr().err)["record_errors"]
        if name == "validate":
            # A SMILES that is not a string is a verdict, not an error row.
            assert [e["line"] for e in errors] == [2, 3]
            rows = read_jsonl(got)
            assert rows[0] == read_jsonl(want)[0]
            assert rows[1]["id"] == "b" and rows[1]["status"] == "syntax_error"
        else:
            assert [e["line"] for e in errors] == [2, 3, 4]
            assert [e.get("id") for e in errors] == [None, "m", "b"]
            assert got.read_bytes() == want.read_bytes()

    def test_sim_reference_errors_are_rows(self, tmp_path, capsys, mols):
        ref = tmp_path / "ref.jsonl"
        write_jsonl(ref, [{"id": "r1", "smiles": 5}, {"id": "r2", "smiles": "CCO"}])
        out = tmp_path / "sim.jsonl"
        assert run(["sim", "--in", str(mols), "--ref", str(ref), "--out", str(out)]) == 0
        (error,) = json.loads(capsys.readouterr().err)["record_errors"]
        assert (error["line"], error["id"]) == (1, "r1")
        assert read_jsonl(out)[0]["max_similarity"] == 1.0

    @pytest.mark.parametrize("refs", [[], [{"id": "r1", "smiles": 5}, {"id": "r2"}]])
    def test_sim_without_a_reference_fingerprint_fails(self, tmp_path, capsys, mols, refs):
        ref, out = tmp_path / "ref.jsonl", tmp_path / "sim.jsonl"
        write_jsonl(ref, refs)
        assert run(["sim", "--in", str(mols), "--ref", str(ref), "--out", str(out)]) == 2
        *rows, error = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [e["id"] for row in rows for e in row["record_errors"]] == [r["id"] for r in refs]
        assert error == {"error": f"no reference fingerprint ({len(refs)} error rows)"}
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_line_not_utf8_is_an_error_row(self, tmp_path, capsys, workers):
        good = [json.dumps({"id": i, "smiles": s}).encode()
                for i, s in enumerate(["OCC", "c1ccccc1"] * 40)]
        clean, dirty = tmp_path / "clean.jsonl", tmp_path / "dirty.jsonl"
        clean.write_bytes(b"\n".join(good) + b"\n")
        bad = b'{"id": "x", "smiles": "C\xffC"}'
        dirty.write_bytes(b"\n".join(good[:3] + [bad] + good[3:]) + b"\n")
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        assert run(["canon", "--in", str(clean), "--out", str(want)]) == 0
        argv = ["canon", "--in", str(dirty), "--workers", str(workers)]
        assert run(argv + ["--out", str(got)]) == 0
        assert got.read_bytes() == want.read_bytes()
        assert json.loads(capsys.readouterr().err)["record_errors"] == [
            {"line": 4, "error": "not UTF-8: byte 0xff at character 25"}]
        strict = tmp_path / "strict.jsonl"
        assert run(argv + ["--out", str(strict), "--strict"]) == 1
        assert strict_row(capsys, dirty) == {
            "line": 4, "error": "not UTF-8: byte 0xff at character 25"}
        assert not strict.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_line_nested_too_deep_is_an_error_row(self, tmp_path, capsys, workers):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text(json.dumps({"id": "a", "smiles": "OCC"}) + "\n" + "[" * 100_000 + "\n")
        assert run(["canon", "--in", str(src), "--out", str(out),
                    "--workers", str(workers)]) == 0
        assert read_jsonl(out) == [{"id": "a", "smiles": "CCO"}]
        assert json.loads(capsys.readouterr().err)["record_errors"] == [{
            "line": 2,
            "error": "maximum recursion depth exceeded while decoding a JSON array "
                     "from a unicode string"}]

    def test_eval_reference_line_not_utf8_is_an_error_row(self, tmp_path, capsys):
        refs = [json.dumps({"id": i, "reference": s}).encode()
                for i, s in enumerate(["CCO", "CCN"])]
        pred = tmp_path / "pred.jsonl"
        write_jsonl(pred, [{"id": 0, "prediction": "OCC"}, {"id": 1, "prediction": "CCC"}])
        outputs = {}
        for name, lines in (("clean", refs), ("dirty", [refs[0], b"\xfe", refs[1]])):
            ref = tmp_path / f"{name}.jsonl"
            ref.write_bytes(b"\n".join(lines) + b"\n")
            out, details = tmp_path / f"{name}.json", tmp_path / "details.jsonl"
            assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                        "--out", str(out), "--details", str(details)]) == 0
            outputs[name] = out.read_bytes(), details.read_bytes()
        assert outputs["dirty"] == outputs["clean"]
        assert json.loads(capsys.readouterr().err)["record_errors"] == [
            {"line": 2, "error": "not UTF-8: byte 0xfe at character 1"}]

    def test_strict_fails_before_writing(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"id": "a", "smiles": "C"}\nnot json\n')
        out = tmp_path / "out.jsonl"
        assert run(["canon", "--in", str(src), "--out", str(out), "--strict"]) == 1
        assert not out.exists()
        assert strict_row(capsys, src) == {
            "line": 2, "error": "bad JSON: Expecting value: line 1 column 1 (char 0)"}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad_file", ["train", "candidates"])
    def test_split_bad_rows(self, tmp_path, capsys, bad_file, workers):
        files = {
            "train": [{"id": "t0", "smiles": "c1ccccc1CC"}, {"id": "t1", "rxn": "CO>>C1CCCCC1O"}],
            "candidates": [{"id": f"c{i}", "smiles": s} for i, s in enumerate(
                ["c1ccncc1C", "C1CCOC1", "c1ccccc1CC", "C1CC2CCC1CC2", "CCO"])],
        }
        paths = {}
        for name, good in files.items():
            paths[name] = tmp_path / f"{name}.jsonl"
            write_jsonl(paths[name], good)
        want, got = tmp_path / "want.json", tmp_path / "got.json"
        argv = ["split", "--candidates", str(paths["candidates"]), "--train",
                str(paths["train"]), "--band", "0:0.9", "--n", "3", "--workers", str(workers)]
        assert run(argv + ["--out", str(want)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads(want.read_text())["rejected_overlap"] == 1
        with open(paths[bad_file], "a") as fh:
            fh.write("\n".join(["[1, 2]", json.dumps({"id": "m"}),
                                json.dumps({"id": "b", "smiles": 5}),
                                json.dumps({"id": "r", "rxn": 5})]) + "\n")
        assert run(argv + ["--out", str(got)]) == 0
        errors = json.loads(capsys.readouterr().err)["record_errors"]
        first = len(files[bad_file]) + 1
        assert [e["line"] for e in errors] == list(range(first, first + 4))
        assert [e.get("id") for e in errors] == [None, "m", "b", "r"]
        assert [e["error"] for e in errors] == [
            "record is not an object", "record 'm' has neither 'rxn' nor 'smiles'",
            "SMILES must be a string, not int", "reaction SMILES must be a string, not int"]
        assert got.read_bytes() == want.read_bytes()

    def test_split_rows_list_train_before_candidates(self, tmp_path, capsys):
        t, c = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        write_jsonl(t, [{"id": "t0", "smiles": 5}, {"id": "t1", "smiles": "C1CCCCC1"}])
        write_jsonl(c, [{"id": "c0", "smiles": "c1ccccc1"}, {"id": "c1", "smiles": 5}])
        assert run(["split", "--candidates", str(c), "--train", str(t), "--n", "1",
                    "--out", str(tmp_path / "s.json")]) == 0
        errors = json.loads(capsys.readouterr().err)["record_errors"]
        assert [(e["line"], e["id"]) for e in errors] == [(1, "t0"), (2, "c1")]

    def test_split_every_candidate_fails(self, tmp_path, capsys):
        t, c = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        write_jsonl(t, [{"id": "t0", "smiles": "C1CCCCC1"}])
        write_jsonl(c, [{"id": "c2", "smiles": 5}, {"id": "c3"}])
        out = tmp_path / "s.json"
        assert run(["split", "--candidates", str(c), "--train", str(t), "--n", "1",
                    "--out", str(out)]) == 2
        rows, fatal = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(e["line"], e["id"]) for e in rows["record_errors"]] == [(1, "c2"), (2, "c3")]
        assert fatal == {"error": "empty candidate pool"}
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_leakcheck_bad_rows(self, tmp_path, capsys, workers):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("\n".join([
            json.dumps({"id": "x", "rxn": "CCO.CC(=O)O>>CC(=O)OCC"}), "not json",
            json.dumps({"id": "m"}), json.dumps({"rxn": 5}),
        ]) + "\n")
        b.write_text("\n".join([
            "[1, 2]", json.dumps({"id": "y", "rxn": "CC(=O)O.OCC>>CC(=O)OCC"}),
            json.dumps({"id": "b", "smiles": 5}),
        ]) + "\n")
        out = tmp_path / "leak.json"
        assert run(["leakcheck", "--split", f"b={b}", "--split", f"a={a}",
                    "--out", str(out), "--workers", str(workers)]) == 0
        errors = json.loads(capsys.readouterr().err)["record_errors"]
        assert [(e["line"], e.get("id")) for e in errors] == [
            (1, None), (3, "b"), (2, None), (3, "m"), (4, None)]
        report = json.loads(out.read_text())
        assert report["cross"] == [{"count": 1, "pairs": [["x", "y"]], "splits": ["a", "b"]}]
        assert report["errors"] == [
            {"split": "b", "line": 1, "error": "record is not an object"},
            {"split": "b", "line": 3, "id": "b", "error": "SMILES must be a string, not int"},
            {"split": "a", "line": 2,
             "error": "bad JSON: Expecting value: line 1 column 1 (char 0)"},
            {"split": "a", "line": 3, "id": "m",
             "error": "record 'm' has neither 'rxn' nor 'smiles'"},
            {"split": "a", "line": 4, "error": "reaction SMILES must be a string, not int"}]
        assert report["errors"] == [{"split": s, **row} for s, row in zip("bbaaa", errors)]

    @pytest.mark.parametrize("command", ["split", "leakcheck"])
    def test_split_and_leakcheck_strict(self, tmp_path, capsys, command):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        write_jsonl(good, [{"id": "g", "smiles": "C1CCCCC1"}])
        write_jsonl(bad, [{"id": "c", "smiles": "c1ccccc1"}, {"id": "b", "rxn": 5}])
        out = tmp_path / "out.json"
        argv = (["split", "--candidates", str(bad), "--train", str(good), "--n", "1"]
                if command == "split" else
                ["leakcheck", "--split", f"a={good}", "--split", f"b={bad}"])
        assert run(argv + ["--out", str(out), "--strict"]) == 1
        assert strict_row(capsys, bad) == {
            "line": 2, "id": "b", "error": "reaction SMILES must be a string, not int"}
        assert not out.exists()

    def test_leakcheck_lists_a_non_string_smiles(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, [{"id": "x", "smiles": "CCO"}, {"id": "bad", "smiles": 5}])
        write_jsonl(b, [{"id": "y", "smiles": "OCC"}])
        out = tmp_path / "leak.json"
        assert run(["leakcheck", "--split", f"a={a}", "--split", f"b={b}",
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert [e["id"] for e in report["errors"]] == ["bad"]
        assert report["cross"][0]["count"] == 1


# Each eval task: two good (reference, prediction) pairs, then pairs that
# miss or mistype a field. One more reference has no prediction at all.
EVAL_CASES = {
    "cls": ([(0, 0), (1, 0)], [({}, {"prediction": 1}), ({"reference": 1}, {}),
                               ({"reference": 1}, {"prediction": "x"}),
                               ({"reference": 1}, {"prediction": True}),
                               ({"reference": 1}, {"prediction": 1.7}),
                               ({"reference": "0"}, {"prediction": 0}),
                               ({"reference": -1}, {"prediction": 0})]),
    "reg": ([(1.0, 1.5), (2, 2.0)], [({}, {"prediction": 1.0}),
                                     ({"reference": 1.0}, {}),
                                     ({"reference": None}, {"prediction": 1.0}),
                                     ({"reference": True}, {"prediction": 1.0}),
                                     ({"reference": 1.0}, {"prediction": "1.5"}),
                                     ({"reference": "nan"}, {"prediction": 1.0}),
                                     ({"reference": 1.0}, {"prediction": "inf"})]),
    "sel": ([("A", "A"), ("B", "A")], [({"reference": "A"}, {"prediction": "A"}),
                                       ({"candidates": ["A"]}, {"prediction": "A"}),
                                       ({"reference": "C", "candidates": "CCO"},
                                        {"prediction": "C"}),
                                       ({"reference": "A", "candidates": ["A"]}, {})]),
    "gen": ([("CCO", "OCC"), ("CCN", "CCC")], [({}, {"prediction": "C"}),
                                               ({"reference": "C"}, {}),
                                               ({"reference": "C(C"}, {"prediction": "C"})]),
}


# Each eval task: two values that score perfectly against themselves, and the
# metric that says so. MISSING stands for an id left out.
ID_VALUES = {"gen": ("CCO", "CCN"), "cls": (0, 1), "reg": (1.0, 2.0), "sel": ("A", "B")}
ID_PERFECT = {"gen": ("exact", 1.0), "cls": ("accuracy", 1.0), "reg": ("mae", 0.0),
              "sel": ("selection_top1", 1.0)}
MISSING = object()


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def write_eval_pairs(tmp_path, task):
    good, bad = EVAL_CASES[task]
    refs, preds = [], []
    for i, (reference, prediction) in enumerate(good):
        ref = {"id": f"g{i}", "reference": reference}
        if task == "sel":
            ref["candidates"] = ["A", "B"]
        refs.append(ref)
        preds.append({"id": f"g{i}", "prediction": prediction})
    for i, (ref, pred) in enumerate(bad):
        refs.append({"id": f"b{i}", **ref})
        preds.append({"id": f"b{i}", **pred})
    refs.append({"id": "alone", "reference": good[0][0]})
    ref_path, pred_path = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
    write_jsonl(ref_path, refs)
    write_jsonl(pred_path, preds)
    return ref_path, pred_path, len(bad) + 1


class TestEvalBadPairs:
    @pytest.mark.parametrize("task", sorted(EVAL_CASES))
    def test_bad_pairs_become_error_rows(self, tmp_path, capsys, task):
        ref, pred, n_bad = write_eval_pairs(tmp_path, task)
        out = tmp_path / "m.json"
        assert run(["eval", task, "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 0
        errors = json.loads(capsys.readouterr().err)["record_errors"]
        assert [e["line"] for e in errors] == list(range(3, 3 + n_bad))
        assert errors[-1] == {"line": 3 + n_bad - 1, "id": "alone", "error": "no prediction"}
        assert json.loads(out.read_text(), parse_constant=_not_json)["sample_count"] == 2

    def test_cls_label_past_n_classes_is_an_error_row(self, tmp_path, capsys):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": i, "reference": i % 3} for i in range(4)])
        write_jsonl(pred, [{"id": i, "prediction": p} for i, p in enumerate([0, 5, 2, 1])])
        out = tmp_path / "m.json"
        assert run(["eval", "cls", "--n-classes", "3", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 0
        (row,) = json.loads(capsys.readouterr().err)["record_errors"]
        assert row == {"line": 2, "id": 1, "error": "class label 5 outside 0..2"}
        report = json.loads(out.read_text())
        assert report["sample_count"] == 3
        assert report["metrics"]["accuracy"] == 2 / 3

    def test_cls_label_may_be_any_size(self, tmp_path):
        # Only the classes seen are counted, so a label of 10**9 costs no more
        # than a label of 2; mapping one onto the other keeps accuracy and MCC.
        metrics = {}
        for big in (2, 1_000_000_000):
            ref, pred = tmp_path / f"ref{big}.jsonl", tmp_path / f"pred{big}.jsonl"
            write_jsonl(ref, [{"id": i, "reference": g} for i, g in enumerate([0, 1, big, big, 1])])
            write_jsonl(pred, [{"id": i, "prediction": p} for i, p in enumerate([0, big, big, 1, 1])])
            out = tmp_path / f"m{big}.json"
            assert run(["eval", "cls", "--pred", str(pred), "--ref", str(ref),
                        "--out", str(out)]) == 0
            metrics[big] = json.loads(out.read_text())["metrics"]
        assert metrics[1_000_000_000]["accuracy"] == metrics[2]["accuracy"] == 0.6
        assert metrics[1_000_000_000]["mcc"] == metrics[2]["mcc"]

    @pytest.mark.parametrize("pairs, metric", [
        ([(1e308, -1e308), (-1e308, 1e308)], "mae"),  # pred - gold overflows
        ([(1e308, 1e308), (1e308, 1e308), (0.0, 1.0)], "r2"),  # the sum of golds does
    ])
    def test_reg_overflow_is_a_run_error(self, tmp_path, capsys, pairs, metric):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": i, "reference": g} for i, (g, _) in enumerate(pairs)])
        write_jsonl(pred, [{"id": i, "prediction": p} for i, (_, p) in enumerate(pairs)])
        out = tmp_path / "m.json"
        assert run(["eval", "reg", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": f"regression metric {metric} is not finite (a float overflows)"}
        assert not out.exists()

    @pytest.mark.parametrize("drop", ["row", "field"])
    def test_gen_strict_missing_prediction_is_fatal(self, tmp_path, capsys, drop):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "CCO"}, {"id": 2, "reference": "CCN"}])
        write_jsonl(pred, [{"id": 1, "prediction": "CCO"}] + [{"id": 2}] * (drop == "field"))
        out = tmp_path / "m.json"
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out), "--strict"]) == 1
        error = {"row": "no prediction", "field": "'prediction'"}[drop]
        assert strict_row(capsys, ref) == {"line": 2, "id": 2, "error": error}
        assert not out.exists()

    @pytest.mark.parametrize("strict", [False, True])
    def test_sel_ranks_are_checked_per_pair(self, tmp_path, capsys, strict):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        bad_ranks = [[1, "x"], [1, True], [1.0, 2], [1], [1, 2, 3], "12"]
        write_jsonl(ref, [{"id": "g", "reference": "A", "candidates": ["A", "B"],
                           "candidate_yield_ranks": [2, 1]}]
                    + [{"id": f"b{i}", "reference": "A", "candidates": ["A", "B"],
                        "candidate_yield_ranks": ranks} for i, ranks in enumerate(bad_ranks)])
        write_jsonl(pred, [{"id": "g", "prediction": "B"}]
                    + [{"id": f"b{i}", "prediction": "B"} for i in range(len(bad_ranks))])
        out = tmp_path / "m.json"
        code = run(["eval", "sel", "--pred", str(pred), "--ref", str(ref), "--out", str(out)]
                   + ["--strict"] * strict)
        if strict:
            assert code == 1
            assert strict_row(capsys, ref) == {
                "line": 2, "id": "b0",
                "error": "candidate_yield_ranks must be integers, got 'x'"}
            assert not out.exists()
            return
        assert code == 0
        errors = json.loads(capsys.readouterr().err)["record_errors"]
        assert [e["id"] for e in errors] == [f"b{i}" for i in range(len(bad_ranks))]
        assert [e["line"] for e in errors] == list(range(2, 2 + len(bad_ranks)))
        assert "'x'" in errors[0]["error"] and "True" in errors[1]["error"]
        assert all("one rank per candidate" in e["error"] for e in errors[3:])
        report = json.loads(out.read_text())
        assert report["sample_count"] == 1
        assert report["metrics"] == {"selection_top1": 0.0, "selection_top50": 1.0}

    @pytest.mark.parametrize("task", sorted(EVAL_CASES))
    def test_nothing_left_to_score_lists_the_rows(self, tmp_path, capsys, task):
        # A reference without its field, one without a prediction, and the
        # task's last bad pair (for gen, a reference that does not parse).
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        reference = EVAL_CASES[task][0][0][0]
        bad_ref, bad_pred = EVAL_CASES[task][1][-1]
        extra = {"candidates": ["A", "B"]} if task == "sel" else {}
        write_jsonl(ref, [{"id": 1, **extra}, {"id": 2, "reference": reference, **extra},
                          {"id": 3, **extra, **bad_ref}])
        write_jsonl(pred, [{"id": 1, "prediction": reference}, {"id": 3, **bad_pred}])
        out = tmp_path / "m.json"
        assert run(["eval", task, "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 2
        rows, fatal = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert rows["count"] == 3
        assert rows["record_errors"][:2] == [
            {"line": 1, "id": 1, "error": "'reference'"},
            {"line": 2, "id": 2, "error": "no prediction"}]
        assert (rows["record_errors"][2]["line"], rows["record_errors"][2]["id"]) == (3, 3)
        assert fatal == {"error": "no pair left to score (3 error rows)"}
        assert not out.exists()

    def test_gen_unparseable_references_are_listed(self, tmp_path, capsys):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "C(C"}, {"id": 2, "reference": "C1CC"},
                          {"id": 3, "reference": "CCO"}])
        write_jsonl(pred, [{"id": 1, "prediction": "CCO"}, {"id": 2, "prediction": "CCO"}])
        out = tmp_path / "m.json"
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 2
        rows, fatal = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(e["line"], e["id"]) for e in rows["record_errors"]] == [
            (1, 1), (2, 2), (3, 3)]
        assert all(e["error"].startswith("invalid reference: ")
                   for e in rows["record_errors"][:2])
        assert rows["record_errors"][2]["error"] == "no prediction"
        assert fatal == {"error": "no pair left to score (3 error rows)"}
        assert not out.exists()

    def test_gen_unparseable_reference_row_has_its_line(self, tmp_path, capsys):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "CCO"}, {"id": 2, "reference": "CC"},
                          {"id": 3, "reference": "C(C"}, {"id": 4, "reference": "CN"}])
        write_jsonl(pred, [{"id": 1, "prediction": "CCO"}, {"id": 3, "prediction": "CCO"}])
        out = tmp_path / "m.json"
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 0
        rows = json.loads(capsys.readouterr().err)["record_errors"]
        assert [(row["line"], row["id"]) for row in rows] == [(2, 2), (3, 3), (4, 4)]
        assert rows[1]["error"].startswith("invalid reference: ")
        report = json.loads(out.read_text())
        assert (report["sample_count"], report["errors"]) == (1, [])

    def test_gen_strict_unparseable_reference_is_fatal(self, tmp_path, capsys):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "C(C"}, {"id": 2, "reference": "CCO"}])
        write_jsonl(pred, [{"id": 1, "prediction": "CCO"}, {"id": 2, "prediction": "CCO"}])
        out = tmp_path / "m.json"
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out), "--strict"]) == 1
        assert strict_row(capsys, ref) == {
            "line": 1, "id": 1, "error": "invalid reference: unbalanced parentheses: missing ')'"}
        assert not out.exists()

    def test_gen_strict_ends_at_the_first_row_when_no_reference_parses(self, tmp_path,
                                                                        capsys):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "C1"}, {"id": 2, "reference": "XX"}])
        write_jsonl(pred, [{"id": 1, "prediction": "CCO"}, {"id": 2, "prediction": "CCO"}])
        out = tmp_path / "m.json"
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out), "--strict"]) == 1
        assert strict_row(capsys, ref) == {
            "line": 1, "id": 1, "error": "invalid reference: ring bond 1 never closed"}
        assert not out.exists()

    def test_gen_texts_that_are_not_strings_are_error_rows(self, tmp_path, capsys):
        # Not scored as their Python spellings "None", "5" and "['CCO']".
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": i, "reference": "CCO"} for i in range(1, 4)]
                    + [{"id": 4, "reference": 5}, {"id": 5, "reference": "CCO"}])
        write_jsonl(pred, [{"id": 1, "prediction": None}, {"id": 2, "prediction": 5},
                           {"id": 3, "prediction": ["CCO"]}, {"id": 4, "prediction": "C"},
                           {"id": 5, "prediction": "OCC"}])
        not_text = "prediction must be a string, got "
        rows = [{"line": 1, "id": 1, "error": not_text + "null"},
                {"line": 2, "id": 2, "error": not_text + "5"},
                {"line": 3, "id": 3, "error": not_text + '["CCO"]'},
                {"line": 4, "id": 4, "error": "reference must be a string, got 5"}]
        outputs = set()
        for workers in ("1", "2"):
            out, details = tmp_path / f"m{workers}.json", tmp_path / f"d{workers}.jsonl"
            assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref), "--out", str(out),
                        "--details", str(details), "--workers", workers]) == 0
            err = capsys.readouterr().err
            assert json.loads(err)["record_errors"] == rows
            assert json.loads(details.read_text()) == {
                "exact": True, "fts_circular": 1.0, "fts_key": 1.0, "fts_path": 1.0, "id": 5,
                "levenshtein": 2, "valid": True}
            outputs.add((err, out.read_text().replace(str(details), "DETAILS"),
                         details.read_text()))
        assert len(outputs) == 1
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(tmp_path / "strict.json"), "--strict"]) == 1
        assert strict_row(capsys, ref) == rows[0]

    @staticmethod
    def id_files(tmp_path, task, refs, preds):
        """The eval files of (id, value) pairs; an id of MISSING leaves it out."""
        extra = {"candidates": list(ID_VALUES["sel"])} if task == "sel" else {}
        paths = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        for path, field, pairs in zip(paths, ("reference", "prediction"), (refs, preds)):
            write_jsonl(path, [{**({} if rid is MISSING else {"id": rid}), field: value,
                                **(extra if field == "reference" else {})}
                               for rid, value in pairs])
        return ["eval", task, "--ref", str(paths[0]), "--pred", str(paths[1])]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("task", sorted(EVAL_CASES))
    def test_ids_pair_by_json_value(self, tmp_path, capsys, task, workers):
        # 1 and "1" are two ids; null, true and a missing id are none. Each
        # prediction whose id is no id comes after the one its string spells.
        x, y = ID_VALUES[task]
        argv = self.id_files(
            tmp_path, task,
            [(1, x), ("1", y), ("None", x), ("True", y), (None, y), (True, x), (MISSING, y)],
            [("1", y), (1, x), ("None", x), (None, y), ("True", y), (True, x), (MISSING, x)])
        out = tmp_path / "m.json"
        assert run(argv + ["--out", str(out), "--workers", workers]) == 0
        not_id = "id must be a string or an integer, got "
        assert json.loads(capsys.readouterr().err)["record_errors"] == [
            {"line": 4, "id": None, "error": not_id + "null"},
            {"line": 6, "id": True, "error": not_id + "true"},
            {"line": 7, "error": "'id'"},
            {"line": 5, "id": None, "error": not_id + "null"},
            {"line": 6, "id": True, "error": not_id + "true"},
            {"line": 7, "error": "'id'"}]
        report = json.loads(out.read_text())
        metric, perfect = ID_PERFECT[task]
        assert (report["sample_count"], report["metrics"][metric]) == (4, perfect)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("task", sorted(EVAL_CASES))
    def test_repeated_prediction_id_is_an_error_row(self, tmp_path, capsys, task, workers):
        x, y = ID_VALUES[task]
        argv = self.id_files(tmp_path, task, [("a", x), (2, y)],
                             [("a", x), (2, y), ("a", y), (2, x), ("2", x)])
        argv += ["--out", str(tmp_path / "m.json"), "--workers", workers]
        assert run(argv) == 0
        rows = [{"line": 3, "id": "a", "error": "id repeats the prediction on line 1"},
                {"line": 4, "id": 2, "error": "id repeats the prediction on line 2"}]
        assert json.loads(capsys.readouterr().err)["record_errors"] == rows
        report = json.loads((tmp_path / "m.json").read_text())
        metric, perfect = ID_PERFECT[task]
        assert (report["sample_count"], report["metrics"][metric]) == (2, perfect)
        assert run(argv + ["--strict"]) == 1
        assert strict_row(capsys, tmp_path / "pred.jsonl") == rows[0]

    def test_strict_schema_error_in_predictions(self, tmp_path, capsys):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": 1}, {"id": 2, "reference": 2}])
        pred.write_text('{"id": 1, "prediction": 1}\nnot json\n')
        assert run(["eval", "reg", "--pred", str(pred), "--ref", str(ref), "--strict"]) == 1
        assert strict_row(capsys, pred) == {
            "line": 2, "error": "bad JSON: Expecting value: line 1 column 1 (char 0)"}


class TestConfigErrors:
    @pytest.mark.parametrize("text, wanted", [
        ('{"wrokers": 4}', "wrokers"),
        ('{"width": 64, "entity_limit": 3}', "entity_limit"),
        ("{not json", "cannot read config"),
        ("[1, 2]", "not a JSON object"),
    ])
    def test_bad_config_is_one_error_line(self, tmp_path, mols, capsys, text, wanted):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "o.jsonl"
        assert run(["--config", str(config), "fp", "--in", str(mols),
                    "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert wanted in json.loads(line)["error"]
        assert not out.exists()

    @pytest.mark.parametrize("text, wanted", [
        ('{"workers": "2"}', "'workers' must be int, got '2'"),
        ('{"radius": "3"}', "'radius' must be int, got '3'"),
        ('{"width": 64.0}', "'width' must be int, got 64.0"),
        ('{"strict": 1}', "'strict' must be true or false, got 1"),
        ('{"fp_kind": "ring"}', "'fp_kind' must be one of"),
        ('{"key_table": 3}', "'key_table' must be str, got 3"),
        ('{"input": "x.jsonl"}', "'input' is not an option of fp"),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, mols, capsys, text, wanted):
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "o.jsonl"
        assert run(["--config", str(config), "fp", "--in", str(mols),
                    "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert wanted in json.loads(line)["error"]
        assert not out.exists()

    def test_config_switches_turn_on(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        src = tmp_path / "in.jsonl"
        write_jsonl(src, [{"id": "a", "smiles": "C"}, {"id": "b", "smiles": 5}])
        config.write_text('{"strict": true}')
        assert run(["--config", str(config), "canon", "--in", str(src)]) == 1
        capsys.readouterr()

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, [{"id": "x", "rxn": "CCO.CC(=O)O>>CC(=O)OCC"}])
        write_jsonl(b, [{"id": "y", "rxn": "CCO>CC(=O)O>CC(=O)OCC"}])
        counts = []
        for merge in ("false", "true"):
            config.write_text(f'{{"merge_agents": {merge}}}')
            out = tmp_path / f"leak_{merge}.json"
            assert run(["--config", str(config), "leakcheck", "--split", f"a={a}",
                        "--split", f"b={b}", "--out", str(out)]) == 0
            counts.append(len(json.loads(out.read_text())["cross"]))
        assert counts == [0, 1]

        bindings = tmp_path / "bind.jsonl"
        write_jsonl(bindings, [{"id": "r", "reactants": ["CCO"], "products": ["CC"]}])
        config.write_text('{"sentinel": true}')
        plain, sentinel = tmp_path / "plain.jsonl", tmp_path / "sentinel.jsonl"
        assert run(["render", "--task", "forward", "--in", str(bindings),
                    "--out", str(plain)]) == 0
        assert run(["--config", str(config), "render", "--task", "forward",
                    "--in", str(bindings), "--out", str(sentinel)]) == 0
        assert read_jsonl(sentinel) != read_jsonl(plain)
        assert run(["render", "--task", "forward", "--in", str(bindings),
                    "--out", str(plain), "--sentinel"]) == 0
        assert read_jsonl(sentinel) == read_jsonl(plain)

    def test_config_sets_options_that_have_defaults(self, tmp_path):
        t, c = tmp_path / "t.jsonl", tmp_path / "c.jsonl"
        write_jsonl(t, [{"id": "t0", "smiles": "c1ccccc1CC"}])
        write_jsonl(c, [{"id": "c1", "smiles": "c1ccncc1C"}])
        config = tmp_path / "config.json"
        config.write_text('{"band": "0.1:0.2"}')
        out = tmp_path / "split.json"
        assert run(["--config", str(config), "split", "--candidates", str(c),
                    "--train", str(t), "--n", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["threshold_band"] == [0.1, 0.2]
        assert run(["--config", str(config), "split", "--candidates", str(c),
                    "--train", str(t), "--n", "1", "--out", str(out), "--band", "0:1"]) == 0
        assert json.loads(out.read_text())["threshold_band"] == [0.0, 1.0]

        src = tmp_path / "procs.jsonl"
        write_jsonl(src, [{"id": "a", "text": "add ethanol", "entities": [
            {"span": [4, 11], "smiles": "CCO"}]}])
        config.write_text('{"entity_limit": 0}')
        assert run(["--config", str(config), "corpus", "interleave", "--in", str(src),
                    "--out", os.devnull, "--stats", str(out)]) == 0
        assert json.loads(out.read_text())["rejected"] == {"ENTITY_LIMIT": 1}

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_workers_below_one_is_fatal(self, tmp_path, mols, capsys, monkeypatch,
                                        source, workers):
        out = tmp_path / "o.jsonl"
        argv = ["canon", "--in", str(mols), "--out", str(out)]
        if source == "flag":
            argv += ["--workers", str(workers)]
        elif source == "config":
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"workers": workers}))
            argv = ["--config", str(config)] + argv
        else:
            monkeypatch.setenv("RXNKIT_WORKERS", str(workers))
        assert run(argv) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": f"workers must be at least 1, got {workers}"}
        assert not out.exists()

    def test_workers_env_that_is_not_an_integer_is_fatal(self, tmp_path, mols, capsys,
                                                         monkeypatch):
        out = tmp_path / "o.jsonl"
        monkeypatch.setenv("RXNKIT_WORKERS", "abc")
        assert run(["canon", "--in", str(mols), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "RXNKIT_WORKERS must be an integer, got 'abc'"}
        assert not out.exists()

    @pytest.mark.parametrize("command", [["corpus", "interleave"],
                                         ["corpus", "interleave", "--stats", "STATS"]])
    @pytest.mark.parametrize("flag", ["--entity-limit", "--token-limit"])
    def test_negative_limit_is_fatal(self, tmp_path, capsys, monkeypatch, command, flag):
        src, out, stats = tmp_path / "procs.jsonl", tmp_path / "out", tmp_path / "stats.json"
        write_jsonl(src, [{"id": "a", "text": "add ethanol", "entities": [
            {"span": [4, 11], "smiles": "CCO"}]}])
        monkeypatch.setattr("rxnkit.cli.iter_lines", None)  # no file may be read
        command = [str(stats) if a == "STATS" else a for a in command]
        assert run(command + ["--in", str(src), "--out", str(out), flag, "-1"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": f"{flag} must be >= 0, got -1"}
        assert not out.exists() and not stats.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_config_nested_too_deep_is_fatal(self, tmp_path, mols, capsys, workers):
        config, out = tmp_path / "deep.json", tmp_path / "o.jsonl"
        config.write_text("[" * 100_000)
        out.write_text("kept\n")
        assert run(["--config", str(config), "canon", "--in", str(mols),
                    "--out", str(out), "--workers", workers]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"].startswith(f"cannot read config {config}: ")
        assert out.read_text() == "kept\n"

    def test_missing_config_file(self, tmp_path, mols, capsys):
        assert run(["--config", str(tmp_path / "absent.json"), "canon",
                    "--in", str(mols)]) == 2
        assert "absent.json" in json.loads(capsys.readouterr().err)["error"]

    def test_hyphenated_key_names_an_option(self, tmp_path, mols):
        config = tmp_path / "config.json"
        config.write_text('{"fp-kind": "path", "workers": 2}')
        out = tmp_path / "o.jsonl"
        assert run(["--config", str(config), "fp", "--in", str(mols),
                    "--out", str(out), "--width", "64"]) == 0
        assert read_jsonl(out)[0]["fp"].startswith("64:")


class TestErrorRowOrder:
    """Error rows come in line order, so the plain run lists first the row that
    --strict ends at."""

    LINES = [json.dumps({"id": "r1", "smiles": 5}), "not json",
             json.dumps({"id": "ok", "smiles": "C"}), "[3]"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_come_in_line_order(self, tmp_path, capsys, workers):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text("\n".join(self.LINES) + "\n")
        assert run(["canon", "--in", str(src), "--out", str(out),
                    "--workers", str(workers)]) == 0
        rows = json.loads(capsys.readouterr().err)["record_errors"]
        assert [(e["line"], e.get("id")) for e in rows] == [(1, "r1"), (2, None), (4, None)]
        assert read_jsonl(out) == [{"id": "ok", "smiles": "C"}]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_fails_on_the_first_bad_line(self, tmp_path, capsys, workers):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        src.write_text("\n".join(self.LINES) + "\n")
        argv = ["canon", "--in", str(src), "--out", str(out), "--strict",
                "--workers", str(workers)]
        assert run(argv) == 1
        assert strict_row(capsys, src) == {
            "line": 1, "id": "r1", "error": "SMILES must be a string, not int"}
        src.write_text("\n".join(self.LINES[1:]) + "\n")
        assert run(argv) == 1
        assert strict_row(capsys, src) == {
            "line": 1, "error": "bad JSON: Expecting value: line 1 column 1 (char 0)"}
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(LINE_ORDER))
    def test_plain_run_lists_first_the_row_strict_ends_at(self, tmp_path, capsys, name,
                                                          workers):
        argv, good = LINE_ORDER[name]
        paths = {stem: tmp_path / f"{stem}.jsonl" for stem in ("REF", "PRED", "MIXED")}
        write_jsonl(paths["REF"], [{"id": "r", "smiles": "CCO"}])
        _, prediction = EVAL_PAIR.get(name.removeprefix("eval-"), (None, None))
        write_jsonl(paths["PRED"], [{"id": "a", "prediction": prediction}])
        # Twice, as eval reg needs two pairs: eval repeats the reference id, as
        # references may; split gives the second candidate its own id, as it must.
        twice = [json.dumps({**good, "id": rid}) for rid in ("ab" if name == "split" else "aa")]
        paths["MIXED"].write_text(f'{twice[0]}\n{{"id": "m"}}\nnot json\n{twice[1]}\n')
        for stem, path in paths.items():
            argv = [a.replace(stem, str(path)) for a in argv]
        out = tmp_path / "out"
        argv = [str(out) if a == "OUT" else a for a in argv]
        argv += ["--out", str(out)] * (str(out) not in argv) + ["--workers", str(workers)]
        assert run(argv) == 0
        rows = json.loads(capsys.readouterr().err)["record_errors"]
        assert [(e["line"], e.get("id")) for e in rows] == [(2, "m"), (3, None)]
        assert rows[1]["error"].startswith("bad JSON")
        if name == "leakcheck":
            errors = json.loads(out.read_text())["errors"]
            assert errors == [{"split": "b", **row} for row in rows]
            assert errors[1] == {"split": "b", "line": 3, "error": rows[1]["error"]}
        out.unlink()
        assert run(argv + ["--strict"]) == 1
        strict_rows, error = [json.loads(e) for e in capsys.readouterr().err.splitlines()]
        assert strict_rows == {"count": 1, "record_errors": [rows[0]]}
        assert error == {"error": f"--strict: line 2 of {paths['MIXED']} is an error row"}
        assert not out.exists()

    @staticmethod
    def fail_the_100th_write(monkeypatch):
        written = []

        def full_disk(obj):
            written.append(obj)
            if len(written) == 100:
                raise OSError("no space left")
            return json.dumps(obj)

        monkeypatch.setattr(_jsonl, "dumps", full_disk)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_seen_are_listed_when_writing_fails(self, tmp_path, capsys, monkeypatch,
                                                     workers):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        good = [json.dumps({"id": i, "smiles": "C"}) for i in range(300)]
        src.write_text("\n".join(self.LINES + good) + "\n")
        self.fail_the_100th_write(monkeypatch)
        assert run(["canon", "--in", str(src), "--out", str(out),
                    "--workers", str(workers)]) == 2
        rows, error = capsys.readouterr().err.splitlines()
        rows = json.loads(rows)["record_errors"]
        assert [(e["line"], e.get("id")) for e in rows] == [(1, "r1"), (2, None), (4, None)]
        assert json.loads(error) == {"error": "no space left"}
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("write_fails", [False, True])
    def test_rows_of_an_earlier_file_come_first(self, tmp_path, capsys, monkeypatch, workers,
                                                write_fails):
        # sim reads --ref before --in: the failed reference record is listed
        # before the query rows.
        ref, src, out = tmp_path / "ref.jsonl", tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        write_jsonl(ref, [{"id": "c", "smiles": "CCO"}, {"id": "x", "smiles": 5}])
        good = [json.dumps({"id": i, "smiles": "C"}) for i in range(300)]
        src.write_text("\n".join(self.LINES + good) + "\n")
        if write_fails:
            self.fail_the_100th_write(monkeypatch)
        code = run(["sim", "--in", str(src), "--ref", str(ref), "--out", str(out),
                    "--workers", str(workers)])
        rows, *error = capsys.readouterr().err.splitlines()
        rows = json.loads(rows)["record_errors"]
        assert [(e["line"], e.get("id")) for e in rows] == [
            (2, "x"), (1, "r1"), (2, None), (4, None)]
        if write_fails:
            assert (code, [json.loads(e) for e in error]) == (2, [{"error": "no space left"}])
            assert not out.exists()
        else:
            assert (code, error) == (0, [])
            assert len(read_jsonl(out)) == 301


def _records_with_a_bad_line(path, n, bad_line):
    """n good molecule records (also good render bindings) with {"id": "bad"} on bad_line."""
    write_jsonl(path, [
        {"id": "bad"} if i == bad_line else
        {"id": i, "smiles": "C" * (1 + i % 5), "reactants": ["CCO"], "products": ["CC"]}
        for i in range(1, n + 1)])


ATOMIC = {
    "canon": ["canon"],
    "fp": ["fp", "--fp-kind", "path"],
    "render": ["render", "--task", "forward"],
}


class TestAtomicOutput:
    """A run that fails leaves --out as it was; one that succeeds replaces it."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(ATOMIC))
    @pytest.mark.parametrize("bad_line", [2, 300])
    def test_strict_failure_writes_nothing(self, tmp_path, capsys, name, workers, bad_line):
        src = tmp_path / "in.jsonl"
        _records_with_a_bad_line(src, 400, bad_line)
        argv = ATOMIC[name] + ["--in", str(src), "--strict", "--workers", str(workers)]
        fresh, kept = tmp_path / "fresh.jsonl", tmp_path / "kept.jsonl"
        kept.write_bytes(b"earlier bytes\n")
        error = ("task 'forward': placeholder 'reactants' is not bound" if name == "render"
                 else "'smiles'")
        assert run(argv + ["--out", str(fresh)]) == 1
        assert strict_row(capsys, src) == {"line": bad_line, "id": "bad", "error": error}
        assert run(argv + ["--out", str(kept)]) == 1
        assert strict_row(capsys, src) == {"line": bad_line, "id": "bad", "error": error}
        assert not fresh.exists()
        assert kept.read_bytes() == b"earlier bytes\n"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_success_replaces_the_file(self, tmp_path, workers):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        _records_with_a_bad_line(src, 300, 0)
        out.write_bytes(b"earlier bytes\n")
        assert run(["canon", "--in", str(src), "--out", str(out),
                    "--workers", str(workers)]) == 0
        assert [r["id"] for r in read_jsonl(out)] == list(range(1, 301))

    def test_stdout_gets_the_rows_only_on_success(self, tmp_path, capsys, mols):
        out = tmp_path / "out.jsonl"
        assert run(["canon", "--in", str(mols), "--out", str(out)]) == 0
        assert run(["canon", "--in", str(mols)]) == 0
        assert capsys.readouterr().out == out.read_text()
        src = tmp_path / "in.jsonl"
        _records_with_a_bad_line(src, 10, 5)
        assert run(["canon", "--in", str(src), "--strict"]) == 1
        assert capsys.readouterr().out == ""

    def test_output_may_be_the_input(self, tmp_path, mols):
        once = tmp_path / "once.jsonl"
        assert run(["canon", "--in", str(mols), "--out", str(once)]) == 0
        assert run(["canon", "--in", str(mols), "--out", str(mols)]) == 0
        assert mols.read_bytes() == once.read_bytes()

    def test_unwritable_output_is_named(self, tmp_path, capsys, mols):
        out = tmp_path / "absent" / "out.jsonl"
        assert run(["canon", "--in", str(mols), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": f"cannot write {out}: No such file or directory"}

    @pytest.mark.parametrize("strict_bad_line", [None, 5])
    def test_symlinked_output_is_written_through(self, tmp_path, capsys, strict_bad_line):
        src, real, link = tmp_path / "in.jsonl", tmp_path / "real.jsonl", tmp_path / "link.jsonl"
        _records_with_a_bad_line(src, 10, strict_bad_line or 0)
        real.write_bytes(b"earlier bytes\n")
        link.symlink_to(real.name)
        code = run(["canon", "--in", str(src), "--out", str(link), "--strict"])
        capsys.readouterr()
        assert link.is_symlink() and os.readlink(link) == real.name
        if strict_bad_line:
            assert code == 1 and real.read_bytes() == b"earlier bytes\n"
        else:
            assert code == 0 and [r["id"] for r in read_jsonl(real)] == list(range(1, 11))

    def test_dangling_symlink_creates_its_target(self, tmp_path, mols):
        real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
        link.symlink_to(real.name)
        assert run(["canon", "--in", str(mols), "--out", str(link)]) == 0
        assert link.is_symlink() and len(read_jsonl(real)) == len(read_jsonl(mols))

    def test_fifo_output_is_written_in_place(self, tmp_path, mols):
        fifo, once = tmp_path / "out.fifo", tmp_path / "once.jsonl"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert run(["canon", "--in", str(mols), "--out", str(fifo)]) == 0
        finally:
            reader.join(timeout=30)
        assert run(["canon", "--in", str(mols), "--out", str(once)]) == 0
        assert got == [once.read_bytes()]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_replaced_file_keeps_its_mode(self, tmp_path, mols):
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"earlier bytes\n")
        out.chmod(0o600)
        assert run(["canon", "--in", str(mols), "--out", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert len(read_jsonl(out)) == len(read_jsonl(mols))

    def test_exit_2_keeps_the_old_bytes(self, tmp_path, capsys):
        t, c, out = tmp_path / "t.jsonl", tmp_path / "c.jsonl", tmp_path / "split.json"
        write_jsonl(t, [{"id": "t0", "smiles": "C1CCCCC1"}, {"id": "t1", "smiles": "CCO"}])
        write_jsonl(c, [{"id": "c0", "smiles": 5}, {"id": "c1"}])
        out.write_bytes(b"earlier bytes\n")
        assert run(["split", "--candidates", str(c), "--train", str(t), "--n", "1",
                    "--out", str(out), "--workers", "2"]) == 2
        assert out.read_bytes() == b"earlier bytes\n"
        capsys.readouterr()


class TestOnePoolPerRun:
    @pytest.fixture
    def pools(self, monkeypatch):
        made = []
        pool = multiprocessing.Pool

        def counting(*args, **kwargs):
            made.append(args or kwargs)
            return pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", counting)
        return made

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["sim", "split", "leakcheck"])
    def test_pools_started(self, tmp_path, pools, command, workers):
        paths = []
        for i in range(3):
            paths.append(tmp_path / f"{i}.jsonl")
            write_jsonl(paths[-1], [{"id": f"{i}-{j}", "smiles": s}
                                    for j, s in enumerate(["c1ccccc1CC", "C1CCOC1", "CCO"])])
        argv = {
            "sim": ["sim", "--in", str(paths[0]), "--ref", str(paths[1])],
            "split": ["split", "--candidates", str(paths[0]), "--train", str(paths[1]),
                      "--n", "1", "--band", "0:1"],
            "leakcheck": ["leakcheck"] + [f"--split=s{i}={p}" for i, p in enumerate(paths)],
        }[command]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out), "--workers", str(workers)]) == 0
        assert len(pools) == (workers > 1)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("outcome", ["ok", "strict", "fatal"])
    def test_no_worker_outlives_the_run(self, tmp_path, capsys, outcome):
        src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        _records_with_a_bad_line(src, 200, 150 if outcome == "strict" else 0)
        argv = ["fp", "--in", str(src), "--out", str(out), "--workers", "2"]
        if outcome == "fatal":  # the pool is running when the last output fails
            argv = ["corpus", "interleave", "--in", str(src), "--out", str(out),
                    "--stats", str(tmp_path / "absent" / "stats.json"), "--workers", "2"]
        code = run(argv + ["--strict"] * (outcome == "strict"))
        assert code == {"ok": 0, "strict": 1, "fatal": 2}[outcome]
        assert multiprocessing.active_children() == []
        capsys.readouterr()

    def test_strict_failures_with_chunks_in_flight_end(self, tmp_path):
        """Killing workers while they send large results can hang the pool's
        shutdown; a child process in its own session bounds the wait."""
        src = tmp_path / "in.jsonl"
        _records_with_a_bad_line(src, 400, 150)
        script = (
            "import sys\n"
            "from rxnkit.cli import main\n"
            "argv = ['fp', '--width', '65536', '--in', sys.argv[1], '--out', sys.argv[2],\n"
            "        '--strict', '--workers', '3']\n"
            "sys.exit(sum(main(argv) != 1 for _ in range(15)))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen([sys.executable, "-c", script, str(src), str(tmp_path / "out")],
                                env=env, start_new_session=True, stderr=subprocess.DEVNULL)
        try:
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)  # the pool's workers with it
                proc.wait()


    @pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                        reason="needs /proc/<pid>/task/<pid>/children")
    def test_workers_end_when_the_run_is_killed(self, tmp_path):
        """A killed CLI runs no cleanup; the pool's workers end themselves.

        Each of the two records keeps its worker busy for minutes: the simple
        paths of a 20-ring ladder are too many to walk. A worker that only
        waits for work, or sends a result, already fails once its CLI is gone.
        """
        src = tmp_path / "in.jsonl"
        ladder = kekule_acene(20).replace("=", "")
        write_jsonl(src, [{"id": i, "smiles": ladder} for i in range(2)])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "rxnkit.cli", "fp", "--fp-kind", "path", "--max-path", "60",
             "--in", str(src), "--out", str(tmp_path / "out"), "--workers", "2"],
            env=env, start_new_session=True, stderr=subprocess.DEVNULL)

        def cpu_s(pid):
            """The CPU seconds pid has used; None once it has ended."""
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state, *fields = fh.read().rpartition(")")[2].split()
            except FileNotFoundError:
                return None
            ticks = int(fields[10]) + int(fields[11])  # utime and stime
            return None if state in "ZX" else ticks / os.sysconf("SC_CLK_TCK")

        try:
            deadline = time.monotonic() + 60
            workers = []
            # Both workers have their record once both are busy.
            while len(workers) < 2 or any((cpu_s(w) or 0) < 0.5 for w in workers):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
                with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
                    workers = fh.read().split()
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5
            while any(cpu_s(w) is not None for w in workers):
                assert time.monotonic() < deadline, f"workers {workers} outlived the run"
                time.sleep(0.05)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # what is left of the run
            proc.wait()
            for temp in tmp_path.glob(f".*{_jsonl.TEMP_SUFFIX}"):
                temp.unlink()  # the killed run's output, still staged


class TestBoundedMemory:
    def test_validate_peak_does_not_grow_with_the_input(self, tmp_path):
        import tracemalloc

        def peak(n):
            src = tmp_path / f"in{n}.jsonl"
            # An empty SMILES is the cheapest record that validate writes a row for.
            write_jsonl(src, [{"id": i, "smiles": ""} for i in range(n)])
            tracemalloc.start()
            try:
                assert run(["validate", "--in", str(src), "--out", str(tmp_path / "out"),
                            "--workers", "1"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(200)  # first-call allocations (imports, caches) are not per record
        assert peak(20_000) <= 1.5 * peak(2_000)
