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
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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

    def test_bad_band_is_fatal(self, tmp_path, capsys):
        t = tmp_path / "t.jsonl"
        write_jsonl(t, [{"id": "x", "rxn": "C>>C"}])
        code = run(["split", "--candidates", str(t), "--train", str(t),
                    "--band", "high", "--n", "1"])
        assert code == 2

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
    "stats": (["stats"], {"id": "a", "text": "add ethanol", "entities": [
        {"span": [4, 11], "smiles": "CCO"}]}),
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
        assert run(argv + ["--in", str(only_good), "--out", str(want)]) == 0
        capsys.readouterr()
        assert run(argv + ["--in", str(mixed), "--out", str(got),
                           "--workers", str(workers)]) == 0
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

    def test_strict_fails_before_writing(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"id": "a", "smiles": "C"}\nnot json\n')
        out = tmp_path / "out.jsonl"
        assert run(["canon", "--in", str(src), "--out", str(out), "--strict"]) == 1
        assert not out.exists()
        assert ":2: bad JSON" in json.loads(capsys.readouterr().err)["error"]

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
        assert [(e["split"], e["id"], e["error"]) for e in report["errors"]] == [
            ("b", "None", "record is not an object"),
            ("b", "b", "SMILES must be a string, not int"),
            ("a", "None", errors[2]["error"]),
            ("a", "m", "record 'm' has neither 'rxn' nor 'smiles'"),
            ("a", "None", "reaction SMILES must be a string, not int")]
        assert errors[2]["error"].startswith("bad JSON")

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
        assert json.loads(json.loads(capsys.readouterr().err)["error"])["id"] == "b"
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
                               ({"reference": 1}, {"prediction": "x"})]),
    "reg": ([(1.0, 1.5), (2.0, 2.0)], [({}, {"prediction": 1.0}),
                                       ({"reference": 1.0}, {}),
                                       ({"reference": None}, {"prediction": 1.0})]),
    "sel": ([("A", "A"), ("B", "A")], [({"reference": "A"}, {"prediction": "A"}),
                                       ({"candidates": ["A"]}, {"prediction": "A"}),
                                       ({"reference": "A", "candidates": ["A"]}, {})]),
    "gen": ([("CCO", "OCC"), ("CCN", "CCC")], [({}, {"prediction": "C"}),
                                               ({"reference": "C"}, {})]),
}


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
        assert json.loads(out.read_text())["sample_count"] == 2

    @pytest.mark.parametrize("drop", ["row", "field"])
    def test_gen_strict_missing_prediction_is_fatal(self, tmp_path, capsys, drop):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "CCO"}, {"id": 2, "reference": "CCN"}])
        write_jsonl(pred, [{"id": 1, "prediction": "CCO"}] + [{"id": 2}] * (drop == "field"))
        out = tmp_path / "m.json"
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out), "--strict"]) == 1
        assert json.loads(json.loads(capsys.readouterr().err)["error"])["id"] == 2
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
        err = json.loads(capsys.readouterr().err)
        if strict:
            assert code == 1
            assert json.loads(err["error"])["id"] == "b0"
            assert not out.exists()
            return
        assert code == 0
        errors = err["record_errors"]
        assert [e["id"] for e in errors] == [f"b{i}" for i in range(len(bad_ranks))]
        assert [e["line"] for e in errors] == list(range(2, 2 + len(bad_ranks)))
        assert "'x'" in errors[0]["error"] and "True" in errors[1]["error"]
        assert all("one rank per candidate" in e["error"] for e in errors[3:])
        report = json.loads(out.read_text())
        assert report["sample_count"] == 1
        assert report["metrics"] == {"selection_top1": 0.0, "selection_top50": 1.0}

    @pytest.mark.parametrize("task", sorted(EVAL_CASES))
    def test_nothing_left_to_score_lists_the_rows(self, tmp_path, capsys, task):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        reference = EVAL_CASES[task][0][0][0]
        extra = {"candidates": ["A", "B"]} if task == "sel" else {}
        write_jsonl(ref, [{"id": 1, **extra}, {"id": 2, "reference": reference, **extra}])
        write_jsonl(pred, [{"id": 1, "prediction": reference}])
        out = tmp_path / "m.json"
        assert run(["eval", task, "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out)]) == 2
        rows, fatal = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert rows == {"count": 2, "record_errors": [
            {"line": 1, "id": 1, "error": "'reference'"},
            {"line": 2, "id": 2, "error": "no prediction"}]}
        assert fatal == {"error": "no pair left to score (2 error rows)"}
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
        assert [(e.get("line"), e["id"]) for e in rows["record_errors"]] == [
            (3, 3), (None, 1), (None, 2)]
        assert rows["record_errors"][0]["error"] == "no prediction"
        assert all(e["error"].startswith("invalid reference: ")
                   for e in rows["record_errors"][1:])
        assert fatal == {"error": "no scorable records (every reference failed to parse)"}
        assert not out.exists()

    def test_gen_strict_unparseable_reference_is_fatal(self, tmp_path, capsys):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": "C(C"}, {"id": 2, "reference": "CCO"}])
        write_jsonl(pred, [{"id": 1, "prediction": "CCO"}, {"id": 2, "prediction": "CCO"}])
        out = tmp_path / "m.json"
        assert run(["eval", "gen", "--pred", str(pred), "--ref", str(ref),
                    "--out", str(out), "--strict"]) == 1
        error = json.loads(json.loads(capsys.readouterr().err)["error"])
        assert error["id"] == 1 and error["error"].startswith("invalid reference: ")
        assert not out.exists()

    def test_strict_schema_error_in_predictions(self, tmp_path, capsys):
        ref, pred = tmp_path / "ref.jsonl", tmp_path / "pred.jsonl"
        write_jsonl(ref, [{"id": 1, "reference": 1}, {"id": 2, "reference": 2}])
        pred.write_text('{"id": 1, "prediction": 1}\nnot json\n')
        assert run(["eval", "reg", "--pred", str(pred), "--ref", str(ref), "--strict"]) == 1
        assert "bad JSON" in json.loads(capsys.readouterr().err)["error"]


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
        assert run(["--config", str(config), "stats", "--in", str(src), "--out", str(out)]) == 0
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
