"""Evaluation metrics for generation, classification, regression, selection.

Generation scoring treats predictions as SMILES text: exact match after
canonicalization, character-level corpus BLEU, raw-string Levenshtein, and
the three fingerprint Tanimoto means computed only over valid pairs, with
validity reported as its own column.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .fingerprint import FingerprintSpec, fingerprint, key_fingerprint, load_key_table, tanimoto
from .molgraph import ChemistryError, SmilesSyntaxError, canonical_smiles, parse_smiles


def levenshtein(a: str, b: str) -> int:
    """Minimum number of single-character insertions/deletions/substitutions."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(b) < len(a):
        a, b = b, a
    previous = list(range(len(a) + 1))
    for j, cb in enumerate(b, start=1):
        current = [j]
        for i, ca in enumerate(a, start=1):
            current.append(
                min(
                    previous[i] + 1,
                    current[i - 1] + 1,
                    previous[i - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


@dataclass(frozen=True)
class BleuReport:
    """Corpus BLEU with its pieces exposed for inspection."""

    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    prediction_length: int
    reference_length: int


def bleu_report(
    predictions: list[str], references: list[str], max_order: int = 4
) -> BleuReport:
    """Character-token corpus BLEU, orders 1..max_order, uniform weights.

    Zero-numerator orders above the unigram get add-one smoothing; zero
    unigram overlap floors the score at 0. Orders with no candidate n-grams
    anywhere in the corpus drop out of the geometric mean. The brevity
    penalty is exp(1 - r/c) when the prediction corpus is shorter.
    """
    if len(predictions) != len(references):
        raise ValueError("predictions and references must pair up")
    if not predictions:
        raise ValueError("empty corpus")

    matches = [0] * max_order
    candidates = [0] * max_order
    pred_len = 0
    ref_len = 0
    for pred, ref in zip(predictions, references):
        pred_len += len(pred)
        ref_len += len(ref)
        for order in range(1, max_order + 1):
            pred_grams = Counter(
                pred[i : i + order] for i in range(len(pred) - order + 1)
            )
            ref_grams = Counter(ref[i : i + order] for i in range(len(ref) - order + 1))
            candidates[order - 1] += max(len(pred) - order + 1, 0)
            matches[order - 1] += sum(
                min(count, ref_grams[gram]) for gram, count in pred_grams.items()
            )

    precisions: list[float] = []
    for order in range(max_order):
        if candidates[order] == 0:
            break
        if matches[order] > 0:
            precisions.append(matches[order] / candidates[order])
        elif order == 0:
            precisions.append(0.0)
        else:
            precisions.append((matches[order] + 1) / (candidates[order] + 1))

    brevity = 1.0
    if 0 < pred_len < ref_len:
        brevity = math.exp(1.0 - ref_len / pred_len)

    if not precisions or precisions[0] == 0.0:
        score = 0.0
    else:
        log_sum = sum(math.log(p) for p in precisions) / len(precisions)
        score = brevity * math.exp(log_sum)
    return BleuReport(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=brevity,
        prediction_length=pred_len,
        reference_length=ref_len,
    )


def bleu(predictions: list[str], references: list[str]) -> float:
    return bleu_report(predictions, references).score


@dataclass
class MetricReport:
    """Named metric values plus per-sample detail for one evaluation run."""

    task_family: str
    metrics: dict[str, float | None]
    sample_count: int
    details: list[dict] = field(default_factory=list)
    errors: list[dict] = field(default_factory=list)

    def to_dict(self, include_details: bool = True) -> dict:
        out = {
            "task_family": self.task_family,
            "sample_count": self.sample_count,
            "metrics": self.metrics,
            "errors": self.errors,
        }
        if include_details:
            out["details"] = self.details
        return out


_FTS_KINDS = ("path", "key", "circular")


class NoScorableRecords(ValueError):
    """No record could be scored; errors holds the error row of each."""

    def __init__(self, message: str, errors: list[dict]) -> None:
        super().__init__(message)
        self.errors = errors


def eval_generation(
    records: list[dict],
    fp_specs: dict[str, FingerprintSpec] | None = None,
) -> MetricReport:
    """Score molecule-generation records {id, prediction, reference}.

    Invalid predictions lower validity, count as missed exact matches, and
    are excluded from the fingerprint means. Invalid references are fatal
    for their record and reported; when no record is left, NoScorableRecords
    carries their error rows.
    """
    specs = {
        "path": FingerprintSpec(kind="path"),
        "key": FingerprintSpec(kind="key"),
        "circular": FingerprintSpec(kind="circular"),
    }
    specs.update(fp_specs or {})
    key_table = load_key_table(specs["key"].key_table)

    def fps(mol):
        return {
            "path": fingerprint(mol, specs["path"]),
            "key": key_fingerprint(mol, key_table),
            "circular": fingerprint(mol, specs["circular"]),
        }

    details: list[dict] = []
    errors: list[dict] = []
    exact_hits = 0
    valid_hits = 0
    lev_total = 0
    fts_sums = {k: 0.0 for k in _FTS_KINDS}
    fts_counts = 0
    bleu_pairs: list[tuple[str, str]] = []

    scored = 0
    for record in records:
        rid = record.get("id")
        pred = str(record["prediction"])
        ref = str(record["reference"])
        try:
            ref_mol = parse_smiles(ref)
            ref_canonical = canonical_smiles(ref_mol)
        except ValueError as exc:
            errors.append({"id": rid, "error": f"invalid reference: {exc}"})
            continue
        scored += 1
        bleu_pairs.append((pred, ref))
        distance = levenshtein(pred, ref)
        lev_total += distance
        try:
            pred_mol = parse_smiles(pred)
        except (SmilesSyntaxError, ChemistryError):
            pred_mol = None
        row = {
            "id": rid,
            "valid": pred_mol is not None,
            "exact": False,
            "levenshtein": distance,
        }
        if pred_mol is not None:
            valid_hits += 1
            row["exact"] = canonical_smiles(pred_mol) == ref_canonical
            exact_hits += row["exact"]
            pred_fps = fps(pred_mol)
            ref_fps = fps(ref_mol)
            fts_counts += 1
            for kind in _FTS_KINDS:
                value = tanimoto(pred_fps[kind], ref_fps[kind])
                row[f"fts_{kind}"] = value
                fts_sums[kind] += value
        details.append(row)

    if scored == 0:
        raise NoScorableRecords("no scorable records (every reference failed to parse)", errors)
    metrics: dict[str, float | None] = {
        "exact": exact_hits / scored,
        "bleu": bleu([p for p, _ in bleu_pairs], [r for _, r in bleu_pairs]),
        "levenshtein_mean": lev_total / scored,
        "validity": valid_hits / scored,
    }
    for kind in _FTS_KINDS:
        metrics[f"fts_{kind}"] = (
            fts_sums[kind] / fts_counts if fts_counts else None
        )
    return MetricReport(
        task_family="generation",
        metrics=metrics,
        sample_count=scored,
        details=details,
        errors=errors,
    )


def confusion_matrix(pairs: list[tuple[int, int]], n_classes: int) -> np.ndarray:
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for gold, pred in pairs:
        if not (0 <= gold < n_classes and 0 <= pred < n_classes):
            raise ValueError(f"label pair {(gold, pred)} outside 0..{n_classes - 1}")
        cm[gold, pred] += 1
    return cm


def confusion_entropy(cm: np.ndarray) -> float:
    """CEN: entropy of the confusion matrix, 0 for a perfect classifier.

    Per-class misclassification probabilities are taken against the class's
    row+column mass, logs are base 2(N-1), and classes are weighted by their
    share of that mass.
    """
    n = cm.shape[0]
    total = cm.sum()
    if total == 0:
        return 0.0
    mass = cm.sum(axis=1) + cm.sum(axis=0)  # row_j + col_j
    log_base = math.log(2 * (n - 1))
    cen = 0.0
    for j in range(n):
        if mass[j] == 0:
            continue
        off = np.arange(n) != j
        probs = np.concatenate([cm[j, off], cm[off, j]]) / mass[j]
        nz = probs[probs > 0]
        if nz.size:
            cen_j = float(-(nz * (np.log(nz) / log_base)).sum())
            cen += (mass[j] / (2.0 * total)) * cen_j
    return cen


def matthews_corrcoef(cm: np.ndarray) -> float:
    """Multiclass MCC; 0 when either denominator factor vanishes."""
    s = float(cm.sum())
    c = float(np.trace(cm))
    t = cm.sum(axis=1).astype(float)
    p = cm.sum(axis=0).astype(float)
    numerator = c * s - float(t @ p)
    d1 = s * s - float(p @ p)
    d2 = s * s - float(t @ t)
    if d1 <= 0 or d2 <= 0:
        return 0.0
    return numerator / math.sqrt(d1 * d2)


def eval_classification(
    pairs: list[tuple[int, int]], n_classes: int | None = None
) -> MetricReport:
    """Accuracy, CEN, and multiclass MCC over (gold, pred) label pairs."""
    if not pairs:
        raise ValueError("no label pairs")
    inferred = max(max(g, p) for g, p in pairs) + 1
    n = n_classes if n_classes is not None else inferred
    if n < 2:
        raise ValueError("need at least 2 classes")
    cm = confusion_matrix(pairs, n)
    metrics = {
        "accuracy": float(np.trace(cm)) / len(pairs),
        "cen": confusion_entropy(cm),
        "mcc": matthews_corrcoef(cm),
    }
    return MetricReport(
        task_family="classification",
        metrics=metrics,
        sample_count=len(pairs),
        details=[{"gold": g, "pred": p} for g, p in pairs],
    )


def eval_regression(pairs: list[tuple[float, float]]) -> MetricReport:
    """MAE, MSE, and coefficient of determination over (gold, pred) pairs.

    R^2 = 1 - SS_res/SS_tot is undefined (reported as None) when the gold
    values are all equal.
    """
    if len(pairs) < 2:
        raise ValueError("need at least 2 samples")
    gold = np.array([g for g, _ in pairs], dtype=float)
    pred = np.array([p for _, p in pairs], dtype=float)
    err = pred - gold
    ss_res = float(err @ err)
    ss_tot = float(((gold - gold.mean()) ** 2).sum())
    r2 = None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    metrics = {
        "mae": float(np.abs(err).mean()),
        "mse": float((err**2).mean()),
        "r2": r2,
    }
    return MetricReport(
        task_family="regression",
        metrics=metrics,
        sample_count=len(pairs),
        details=[{"gold": g, "pred": p} for g, p in pairs],
    )


def eval_selection(records: list[dict], want_top50: bool | None = None) -> MetricReport:
    """Top-1 and top-50% accuracy for choose-from-candidates records.

    A record needs gold_item, predicted_item, and candidates; top50
    additionally needs candidate_yield_ranks (parallel to candidates,
    rank 1 = highest yield) and counts a record when the predicted item's
    rank is within ceil(len(candidates)/2). Predictions outside the
    candidate list score incorrect and are flagged.
    """
    if not records:
        raise ValueError("no selection records")
    have_ranks = all(r.get("candidate_yield_ranks") is not None for r in records)
    if want_top50 is None:
        want_top50 = have_ranks
    if want_top50 and not have_ranks:
        raise ValueError("top50 requested but candidate_yield_ranks missing")

    top1_hits = 0
    top50_hits = 0
    details = []
    for record in records:
        candidates = list(record["candidates"])
        predicted = record["predicted_item"]
        gold = record["gold_item"]
        flagged = predicted not in candidates
        top1 = (not flagged) and predicted == gold
        top1_hits += top1
        row = {
            "id": record.get("id"),
            "top1": top1,
            "not_in_candidates": flagged,
        }
        if want_top50:
            ranks = list(record["candidate_yield_ranks"])
            if len(ranks) != len(candidates):
                raise ValueError(
                    f"record {record.get('id')!r}: ranks do not pair with candidates"
                )
            if flagged:
                row["top50"] = False
            else:
                rank = ranks[candidates.index(predicted)]
                row["top50"] = rank <= math.ceil(len(candidates) / 2)
            top50_hits += row["top50"]
        details.append(row)

    metrics: dict[str, float | None] = {"selection_top1": top1_hits / len(records)}
    if want_top50:
        metrics["selection_top50"] = top50_hits / len(records)
    return MetricReport(
        task_family="selection",
        metrics=metrics,
        sample_count=len(records),
        details=details,
    )
