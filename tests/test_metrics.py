"""Evaluation metric suite, checked against brute-force oracles."""

import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from rxnkit import metrics as metrics_module
from rxnkit.fingerprint import FingerprintSpec, fingerprint, tanimoto
from rxnkit.metrics import (
    bleu,
    confusion_entropy,
    confusion_matrix,
    eval_classification,
    eval_generation,
    eval_regression,
    eval_selection,
    generation_specs,
    levenshtein,
    matthews_corrcoef,
    score_generation,
)
from rxnkit.molgraph import canonical_smiles, parse_smiles
from rxnkit.molgraph.canon import _write_fragments

from conftest import shuffled
from oracles import brute_cen, brute_mcc, recursive_levenshtein


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("CCO", "CCN", 1),
            ("", "CC", 2),
            ("kitten", "sitting", 3),
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "cba", 2),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_symmetry_and_bounds(self):
        rng = random.Random(3)
        alphabet = "CNO()"
        for _ in range(200):
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 8)))
            b = "".join(rng.choices(alphabet, k=rng.randint(0, 8)))
            d = levenshtein(a, b)
            assert d == levenshtein(b, a)
            assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    def test_against_recursive_oracle_sample(self):
        rng = random.Random(8)
        alphabet = "CNO()"
        for _ in range(500):
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
            b = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
            assert levenshtein(a, b) == recursive_levenshtein(a, b)


class TestBleu:
    def test_identical_is_one(self):
        assert bleu(["CCOCC", "c1ccccc1"], ["CCOCC", "c1ccccc1"]) == pytest.approx(1.0)

    def test_disjoint_alphabets_zero(self):
        assert bleu(["CCCC"], ["NNNN"]) == 0.0

    def test_hand_computed_terms(self):
        # prediction "CC" vs reference "CCO": p1 = p2 = 1, brevity exp(1 - 3/2)
        assert bleu(["CC"], ["CCO"]) == pytest.approx(math.exp(1 - 3 / 2))

    def test_short_predictions_drop_high_orders(self):
        # p1 = 1/2, p2 = (0 + 1) / (1 + 1) smoothed; no 3-gram candidates
        # anywhere, so orders 3 and 4 drop out of the mean instead of adding 1s
        assert bleu(["CN"], ["CC"]) == pytest.approx(0.5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [])

    def test_bounds(self):
        rng = random.Random(5)
        for _ in range(50):
            preds = ["".join(rng.choices("CNO()=#", k=rng.randint(1, 12))) for _ in range(4)]
            refs = ["".join(rng.choices("CNO()=#", k=rng.randint(1, 12))) for _ in range(4)]
            assert 0.0 <= bleu(preds, refs) <= 1.0


def _random_matrix(rng: random.Random) -> list[list[int]]:
    n = rng.randint(2, 6)
    return [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]


def cells(matrix: list[list[int]]) -> Counter:
    """The counts of a dense confusion matrix, keyed (gold, pred), zeros left out."""
    return Counter({(g, p): count for g, row in enumerate(matrix)
                    for p, count in enumerate(row) if count})


class TestClassification:
    def test_perfect(self):
        metrics, _ = eval_classification([(0, 0), (1, 1), (2, 2)], n_classes=3)
        assert metrics["accuracy"] == 1.0
        assert metrics["cen"] == 0.0
        assert metrics["mcc"] == pytest.approx(1.0)

    def test_binary_all_wrong_mcc(self):
        metrics, _ = eval_classification([(0, 1), (1, 0), (0, 1), (1, 0)])
        assert metrics["mcc"] == pytest.approx(-1.0)

    def test_hand_computed_mcc(self):
        cm = cells([[3, 1], [2, 4]])
        assert matthews_corrcoef(cm) == pytest.approx(10 / math.sqrt(600), abs=1e-12)
        assert matthews_corrcoef(cm) == pytest.approx(0.4082, abs=1e-4)

    def test_oracle_agreement_200_matrices(self):
        rng = random.Random(2718)
        for _ in range(200):
            matrix = _random_matrix(rng)
            cm = cells(matrix)
            assert confusion_entropy(cm, len(matrix)) == pytest.approx(
                brute_cen(matrix), abs=1e-12
            )
            assert matthews_corrcoef(cm) == pytest.approx(
                brute_mcc(matrix), abs=1e-12
            )

    def test_bounds(self):
        # The CEN formula can exceed 1 for binary matrices (e.g. [[4,8],[9,6]]
        # scores 1.0458); the [0,1] range holds from 3 classes up.
        rng = random.Random(14)
        for _ in range(100):
            matrix = _random_matrix(rng)
            cm, n = cells(matrix), len(matrix)
            ceiling = 1.0 if n >= 3 else 1.07
            assert 0.0 <= confusion_entropy(cm, n) <= ceiling + 1e-12
            assert -1.0 - 1e-12 <= matthews_corrcoef(cm) <= 1.0 + 1e-12

    def test_metrics_are_plain_floats(self):
        metrics, _ = eval_classification([(0, 1), (1, 1), (0, 0)])
        assert repr(metrics["cen"]).startswith("0.528")
        assert all(type(v) is float for v in metrics.values())
        assert type(confusion_entropy(cells([[1, 1], [0, 1]]), 2)) is float

    def test_degenerate_denominator_gives_zero(self):
        cm = cells([[2, 0], [2, 0]])  # one predicted class
        assert matthews_corrcoef(cm) == 0.0

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            eval_classification([(0, 0)], n_classes=1)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            eval_classification([(0, 5)], n_classes=2)


class TestRegression:
    def test_perfect(self):
        metrics, _ = eval_regression([(1.0, 1.0), (2.0, 2.0)])
        assert metrics == {"mae": 0.0, "mse": 0.0, "r2": 1.0}

    def test_mean_predictor_r2_zero(self):
        metrics, _ = eval_regression([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
        assert metrics["r2"] == pytest.approx(0.0)

    def test_hand_computed(self):
        metrics, _ = eval_regression([(1.0, 1.0), (2.0, 2.0), (3.0, 4.0)])
        assert metrics["r2"] == pytest.approx(0.5)
        assert metrics["mae"] == pytest.approx(1 / 3)
        assert metrics["mse"] == pytest.approx(1 / 3)

    def test_constant_golds_undefined(self):
        metrics, _ = eval_regression([(1.0, 1.0), (1.0, 2.0)])
        assert metrics["r2"] is None

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            eval_regression([(1.0, 1.0)])

    def test_shuffled_pairs_give_the_same_metrics(self):
        rng = random.Random(41)
        pairs = [(rng.uniform(-1, 1) * 10 ** rng.randint(-6, 6),
                  rng.uniform(-1, 1) * 10 ** rng.randint(-6, 6)) for _ in range(500)]
        want = eval_regression(pairs)[0]
        for _ in range(20):
            rng.shuffle(pairs)
            assert eval_regression(pairs)[0] == want

    @pytest.mark.parametrize("pairs, metric", [
        ([(1e308, -1e308), (-1e308, 1e308)], "mae"),
        ([(1e308, 1e308), (1e308, 1e308), (0.0, 1.0)], "r2"),
        ([(0.0, 1.0), (1e-160, 1.0)], "r2"),  # SS_res / SS_tot overflows
    ])
    def test_overflow_names_the_metric(self, pairs, metric):
        with pytest.raises(ValueError, match=f"^regression metric {metric} is not finite"):
            eval_regression(pairs)


class TestSelection:
    def _record(self, rid, gold, pred, candidates, ranks=None):
        rec = {
            "id": rid,
            "reference": gold,
            "prediction": pred,
            "candidates": candidates,
        }
        if ranks is not None:
            rec["candidate_yield_ranks"] = ranks
        return rec

    def test_all_correct(self):
        records = [self._record(i, "A", "A", ["A", "B"]) for i in range(3)]
        metrics, _ = eval_selection(records)
        assert metrics["selection_top1"] == 1.0

    def test_top50_rank_within_half(self):
        rec = self._record(0, "A", "B", ["A", "B", "C", "D"], ranks=[1, 2, 3, 4])
        metrics, _ = eval_selection([rec])
        assert metrics["selection_top1"] == 0.0
        assert metrics["selection_top50"] == 1.0  # rank 2 <= ceil(4/2)

    def test_rank_just_outside_half(self):
        rec = self._record(0, "A", "C", ["A", "B", "C", "D"], ranks=[1, 2, 3, 4])
        assert eval_selection([rec])[0]["selection_top50"] == 0.0

    def test_prediction_not_in_candidates_flagged(self):
        rec = self._record(0, "A", "Z", ["A", "B"], ranks=[1, 2])
        metrics, details = eval_selection([rec])
        assert metrics["selection_top1"] == 0.0
        assert metrics["selection_top50"] == 0.0
        assert details[0]["not_in_candidates"]

    def test_no_top50_without_ranks(self):
        rec = self._record(0, "A", "A", ["A", "B"])
        assert "selection_top50" not in eval_selection([rec])[0]


def _generation_report(records, spec=None):
    specs = generation_specs(spec)
    return eval_generation([score_generation(record, specs) for record in records])


class TestGeneration:
    def test_canonical_exact_match(self):
        records = [{"id": 1, "prediction": "OCC", "reference": "CCO"}]
        metrics, _ = _generation_report(records)
        assert metrics["exact"] == 1.0
        assert metrics["validity"] == 1.0

    def test_all_perfect_report(self):
        refs = ["CCO", "c1ccccc1", "CC(=O)O"]
        records = [
            {"id": i, "prediction": s, "reference": s} for i, s in enumerate(refs)
        ]
        m, _ = _generation_report(records)
        assert m["exact"] == 1.0
        assert m["bleu"] == pytest.approx(1.0)
        assert m["levenshtein_mean"] == 0.0
        assert m["validity"] == 1.0
        assert m["fts_path"] == m["fts_key"] == m["fts_circular"] == 1.0

    def test_exact_pair_is_not_fingerprinted(self, monkeypatch):
        calls = []

        def counting(mol, spec):
            calls.append(spec.kind)
            return fingerprint(mol, spec)

        monkeypatch.setattr(metrics_module, "fingerprint", counting)
        specs = generation_specs()
        row, _, _ = score_generation({"id": 1, "prediction": "OCC", "reference": "CCO"}, specs)
        assert row["exact"] and calls == []
        assert row["fts_path"] == row["fts_key"] == row["fts_circular"] == 1.0
        row, _, _ = score_generation({"id": 2, "prediction": "CCN", "reference": "CCO"}, specs)
        assert not row["exact"] and sorted(calls) == sorted(list(specs) * 2)

    def test_equal_canonical_smiles_have_equal_fingerprints(self, corpus):
        # The rule an exact pair's similarities of 1.0 rest on, over
        # renumbered twins and twins spelled from a random atom order.
        rng = random.Random(11)
        specs = generation_specs()
        agreed = 0
        for s in corpus:
            mol = parse_smiles(s)
            order = list(range(len(mol)))
            rng.shuffle(order)
            respelled = ".".join(_write_fragments(mol, order))
            for twin in (shuffled(mol, rng), parse_smiles(respelled)):
                if canonical_smiles(twin) != canonical_smiles(mol):
                    continue
                agreed += 1
                for spec in specs.values():
                    assert tanimoto(fingerprint(twin, spec), fingerprint(mol, spec)) == 1.0
        assert agreed > len(corpus)

    def test_invalid_prediction_handling(self):
        records = [
            {"id": 1, "prediction": "C(C", "reference": "CCO"},
            {"id": 2, "prediction": "CCO", "reference": "CCO"},
        ]
        metrics, details = _generation_report(records)
        assert metrics["validity"] == 0.5
        assert metrics["exact"] == 0.5
        assert metrics["fts_circular"] == 1.0  # only the valid pair
        assert details[0] == {"id": 1, "valid": False, "exact": False,
                                     "levenshtein": 2}
        # BLEU and Levenshtein still read the invalid prediction's text.
        assert metrics["bleu"] == bleu(["C(C", "CCO"], ["CCO", "CCO"])
        assert metrics["levenshtein_mean"] == 1.0

    def test_invalid_reference_reported(self):
        specs = generation_specs()
        for reference in ("C(C", "C1CC", "XX"):
            with pytest.raises(ValueError, match="^invalid reference: "):
                score_generation({"id": 1, "prediction": "CCO", "reference": reference}, specs)

    def test_one_spec_gives_all_three_kinds(self):
        records = [{"id": 1, "prediction": "c1ccccc1CCN", "reference": "c1ccccc1CCO"},
                   {"id": 2, "prediction": "OC1CCCCC1", "reference": "CC1CCCCC1O"}]
        spec = FingerprintSpec(radius=1, width=512, min_path=2, max_path=4)
        metrics, details = _generation_report(records, spec)
        for kind in ("circular", "path", "key"):
            kind_spec = FingerprintSpec(kind=kind, radius=1, width=512, min_path=2, max_path=4)
            values = [tanimoto(fingerprint(parse_smiles(r["prediction"]), kind_spec),
                               fingerprint(parse_smiles(r["reference"]), kind_spec))
                      for r in records]
            assert [row[f"fts_{kind}"] for row in details] == values
            assert metrics[f"fts_{kind}"] == sum(values) / len(values)
        # The kind of the spec given does not matter, and no spec is the default.
        assert _generation_report(records, replace(spec, kind="key"))[0] == metrics
        assert generation_specs() == generation_specs(FingerprintSpec())

    def test_all_references_invalid_is_fatal(self):
        # When no reference parses, no scored pair is left to aggregate.
        with pytest.raises(ValueError, match="no generation pairs to score"):
            eval_generation([])
