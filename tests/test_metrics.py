"""Evaluation metric suite, checked against brute-force oracles."""

import math
import random

import numpy as np
import pytest

from rxnkit.metrics import (
    bleu,
    bleu_report,
    confusion_entropy,
    confusion_matrix,
    eval_classification,
    eval_generation,
    eval_regression,
    eval_selection,
    levenshtein,
    matthews_corrcoef,
)

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
        # prediction "CC" vs reference "CCO": p1 = 1, brevity exp(1 - 3/2)
        report = bleu_report(["CC"], ["CCO"])
        assert report.precisions[0] == pytest.approx(1.0)
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 3 / 2))

    def test_short_predictions_drop_high_orders(self):
        report = bleu_report(["CC"], ["CC"])
        assert len(report.precisions) == 2  # no 3-gram candidates anywhere

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [])

    def test_bounds(self):
        rng = random.Random(5)
        for _ in range(50):
            preds = ["".join(rng.choices("CNO()=#", k=rng.randint(1, 12))) for _ in range(4)]
            refs = ["".join(rng.choices("CNO()=#", k=rng.randint(1, 12))) for _ in range(4)]
            assert 0.0 <= bleu(preds, refs) <= 1.0


def _random_matrix(rng: random.Random) -> np.ndarray:
    n = rng.randint(2, 6)
    return np.array(
        [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)], dtype=np.int64
    )


class TestClassification:
    def test_perfect(self):
        report = eval_classification([(0, 0), (1, 1), (2, 2)], n_classes=3)
        assert report.metrics["accuracy"] == 1.0
        assert report.metrics["cen"] == 0.0
        assert report.metrics["mcc"] == pytest.approx(1.0)

    def test_binary_all_wrong_mcc(self):
        report = eval_classification([(0, 1), (1, 0), (0, 1), (1, 0)])
        assert report.metrics["mcc"] == pytest.approx(-1.0)

    def test_hand_computed_mcc(self):
        cm = np.array([[3, 1], [2, 4]], dtype=np.int64)
        assert matthews_corrcoef(cm) == pytest.approx(10 / math.sqrt(600), abs=1e-12)
        assert matthews_corrcoef(cm) == pytest.approx(0.4082, abs=1e-4)

    def test_oracle_agreement_200_matrices(self):
        rng = random.Random(2718)
        for _ in range(200):
            cm = _random_matrix(rng)
            assert confusion_entropy(cm) == pytest.approx(
                brute_cen(cm.tolist()), abs=1e-12
            )
            assert matthews_corrcoef(cm) == pytest.approx(
                brute_mcc(cm.tolist()), abs=1e-12
            )

    def test_bounds(self):
        # The CEN formula can exceed 1 for binary matrices (e.g. [[4,8],[9,6]]
        # scores 1.0458); the [0,1] range holds from 3 classes up.
        rng = random.Random(14)
        for _ in range(100):
            cm = _random_matrix(rng)
            ceiling = 1.0 if cm.shape[0] >= 3 else 1.07
            assert 0.0 <= confusion_entropy(cm) <= ceiling + 1e-12
            assert -1.0 - 1e-12 <= matthews_corrcoef(cm) <= 1.0 + 1e-12

    def test_degenerate_denominator_gives_zero(self):
        cm = np.array([[2, 0], [2, 0]], dtype=np.int64)  # one predicted class
        assert matthews_corrcoef(cm) == 0.0

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            eval_classification([(0, 0)], n_classes=1)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            eval_classification([(0, 5)], n_classes=2)


class TestRegression:
    def test_perfect(self):
        report = eval_regression([(1.0, 1.0), (2.0, 2.0)])
        assert report.metrics == {"mae": 0.0, "mse": 0.0, "r2": 1.0}

    def test_mean_predictor_r2_zero(self):
        report = eval_regression([(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)])
        assert report.metrics["r2"] == pytest.approx(0.0)

    def test_hand_computed(self):
        report = eval_regression([(1.0, 1.0), (2.0, 2.0), (3.0, 4.0)])
        assert report.metrics["r2"] == pytest.approx(0.5)
        assert report.metrics["mae"] == pytest.approx(1 / 3)
        assert report.metrics["mse"] == pytest.approx(1 / 3)

    def test_constant_golds_undefined(self):
        report = eval_regression([(1.0, 1.0), (1.0, 2.0)])
        assert report.metrics["r2"] is None

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            eval_regression([(1.0, 1.0)])


class TestSelection:
    def _record(self, rid, gold, pred, candidates, ranks=None):
        rec = {
            "id": rid,
            "gold_item": gold,
            "predicted_item": pred,
            "candidates": candidates,
        }
        if ranks is not None:
            rec["candidate_yield_ranks"] = ranks
        return rec

    def test_all_correct(self):
        records = [self._record(i, "A", "A", ["A", "B"]) for i in range(3)]
        report = eval_selection(records)
        assert report.metrics["selection_top1"] == 1.0

    def test_top50_rank_within_half(self):
        rec = self._record(0, "A", "B", ["A", "B", "C", "D"], ranks=[1, 2, 3, 4])
        report = eval_selection([rec])
        assert report.metrics["selection_top1"] == 0.0
        assert report.metrics["selection_top50"] == 1.0  # rank 2 <= ceil(4/2)

    def test_rank_just_outside_half(self):
        rec = self._record(0, "A", "C", ["A", "B", "C", "D"], ranks=[1, 2, 3, 4])
        assert eval_selection([rec]).metrics["selection_top50"] == 0.0

    def test_prediction_not_in_candidates_flagged(self):
        rec = self._record(0, "A", "Z", ["A", "B"], ranks=[1, 2])
        report = eval_selection([rec])
        assert report.metrics["selection_top1"] == 0.0
        assert report.metrics["selection_top50"] == 0.0
        assert report.details[0]["not_in_candidates"]

    def test_top50_without_ranks_is_error(self):
        rec = self._record(0, "A", "A", ["A", "B"])
        with pytest.raises(ValueError):
            eval_selection([rec], want_top50=True)
        assert "selection_top50" not in eval_selection([rec]).metrics


class TestGeneration:
    def test_canonical_exact_match(self):
        records = [{"id": 1, "prediction": "OCC", "reference": "CCO"}]
        report = eval_generation(records)
        assert report.metrics["exact"] == 1.0
        assert report.metrics["validity"] == 1.0

    def test_all_perfect_report(self):
        refs = ["CCO", "c1ccccc1", "CC(=O)O"]
        records = [
            {"id": i, "prediction": s, "reference": s} for i, s in enumerate(refs)
        ]
        m = eval_generation(records).metrics
        assert m["exact"] == 1.0
        assert m["bleu"] == pytest.approx(1.0)
        assert m["levenshtein_mean"] == 0.0
        assert m["validity"] == 1.0
        assert m["fts_path"] == m["fts_key"] == m["fts_circular"] == 1.0

    def test_invalid_prediction_handling(self):
        records = [
            {"id": 1, "prediction": "C(C", "reference": "CCO"},
            {"id": 2, "prediction": "CCO", "reference": "CCO"},
        ]
        report = eval_generation(records)
        assert report.metrics["validity"] == 0.5
        assert report.metrics["exact"] == 0.5
        assert report.metrics["fts_circular"] == 1.0  # only the valid pair

    def test_invalid_reference_reported(self):
        records = [
            {"id": 1, "prediction": "CCO", "reference": "C(C"},
            {"id": 2, "prediction": "CCO", "reference": "CCO"},
        ]
        report = eval_generation(records)
        assert report.sample_count == 1
        assert len(report.errors) == 1

    def test_all_references_invalid_is_fatal(self):
        with pytest.raises(ValueError, match="no scorable records") as info:
            eval_generation([{"id": 1, "prediction": "C", "reference": "C(C"},
                             {"id": 2, "prediction": "C", "reference": "C1CC"}])
        assert [e["id"] for e in info.value.errors] == [1, 2]
        assert all(e["error"].startswith("invalid reference: ") for e in info.value.errors)
