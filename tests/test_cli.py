"""CLI pipelines: schemas, exit codes, determinism across worker counts."""

import hashlib
import json
import random

import pytest

from rxnkit.cli import main


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
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


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
        assert "error" in json.loads(capsys.readouterr().err)

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
        assert sum(not isinstance(p, fp_module.KeyTable) for p in loads) == 1

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
        assert run(["stats", "--in", str(src), "--out", str(out)]) == 0
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

    def test_bad_band_is_fatal(self, tmp_path, capsys):
        t = tmp_path / "t.jsonl"
        write_jsonl(t, [{"id": "x", "rxn": "C>>C"}])
        code = run(["split", "--candidates", str(t), "--train", str(t),
                    "--band", "high", "--n", "1"])
        assert code == 2

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

    def test_render_variant_file_with_seed(self, tmp_path):
        variants = tmp_path / "variants.json"
        variants.write_text(json.dumps([
            {"task": "forward", "system": "alt system",
             "instruction": "ALT: {reactants}?", "output": "ALT: {products}."},
        ]))
        src = tmp_path / "bind.jsonl"
        write_jsonl(src, [
            {"id": i, "reactants": ["r"], "products": ["p"]} for i in range(30)
        ])
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        for out, workers in ((out_a, 1), (out_b, 4)):
            run(["render", "--task", "forward", "--in", str(src),
                 "--out", str(out), "--templates", str(variants),
                 "--seed", "7", "--workers", str(workers)])
        assert digest(out_a) == digest(out_b)  # seeded draw per record line
        instructions = {r["instruction"] for r in read_jsonl(out_a)}
        assert len(instructions) == 2  # both variants appear across records

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
