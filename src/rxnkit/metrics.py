"""Evaluation metrics for generation, classification, regression, selection.

Generation scoring treats predictions as SMILES text: exact match after
canonicalization, character-level corpus BLEU, raw-string Levenshtein, and
the three fingerprint Tanimoto means computed only over valid pairs, with
validity reported as its own column.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import replace

from ._jsonl import dumps
from .fingerprint import FingerprintSpec, fingerprint, tanimoto
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


def bleu(predictions: list[str], references: list[str]) -> float:
    """Character-token corpus BLEU, orders 1..4, uniform weights.

    Zero-numerator orders above the unigram get add-one smoothing; zero
    unigram overlap floors the score at 0. Orders with no candidate n-grams
    anywhere in the corpus drop out of the geometric mean. The brevity
    penalty is exp(1 - r/c) when the prediction corpus is shorter.
    """
    if len(predictions) != len(references):
        raise ValueError("predictions and references must pair up")
    if not predictions:
        raise ValueError("empty corpus")

    max_order = 4
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
        return 0.0
    return brevity * math.exp(sum(math.log(p) for p in precisions) / len(precisions))


_FTS_KINDS = ("path", "key", "circular")


def generation_specs(spec: FingerprintSpec | None = None) -> dict[str, FingerprintSpec]:
    """spec with each fingerprint kind of a generation score in turn: its
    radius, width, path lengths and key table apply, its kind does not."""
    return {kind: replace(spec or FingerprintSpec(), kind=kind) for kind in _FTS_KINDS}


def score_generation(
    record: dict, specs: dict[str, FingerprintSpec]
) -> tuple[dict, str, str]:
    """The detail row of a {id, prediction, reference} record, with the
    record's prediction and reference texts; specs are generation_specs.

    A text that is not a string, or a reference that does not parse, raises
    ValueError. An invalid prediction gives a row that is neither valid nor
    exact and has no fingerprint similarities; an exact one has similarities
    of 1.0, with neither side fingerprinted.
    """
    pred, ref = record["prediction"], record["reference"]
    for field, text in (("prediction", pred), ("reference", ref)):
        if type(text) is not str:
            raise ValueError(f"{field} must be a string, got {dumps(text)}")
    try:
        ref_mol = parse_smiles(ref)
        ref_canonical = canonical_smiles(ref_mol)
    except ValueError as exc:
        raise ValueError(f"invalid reference: {exc}") from None
    row = {"id": record.get("id"), "valid": False, "exact": False,
           "levenshtein": levenshtein(pred, ref)}
    try:
        pred_mol = parse_smiles(pred)
    except (SmilesSyntaxError, ChemistryError):
        return row, pred, ref
    row["valid"] = True
    row["exact"] = canonical_smiles(pred_mol) == ref_canonical
    for kind, spec in specs.items():
        # Equal canonical SMILES spell the same graph: every similarity is 1.0.
        row[f"fts_{kind}"] = 1.0 if row["exact"] else tanimoto(
            fingerprint(pred_mol, spec), fingerprint(ref_mol, spec))
    return row, pred, ref


def eval_generation(scored: list[tuple[dict, str, str]]) -> tuple[dict, list[dict]]:
    """(metrics, details) of score_generation results: exact match, character
    BLEU over the texts, mean Levenshtein, validity and the fingerprint
    Tanimoto means, and the detail rows.

    Invalid predictions lower validity, count as missed exact matches, and
    are excluded from the fingerprint means.
    """
    if not scored:
        raise ValueError("no generation pairs to score")
    details = [row for row, _, _ in scored]
    valid = [row for row in details if row["valid"]]
    n = len(details)
    metrics: dict[str, float | None] = {
        "exact": sum(row["exact"] for row in details) / n,
        "bleu": bleu([pred for _, pred, _ in scored], [ref for _, _, ref in scored]),
        "levenshtein_mean": sum(row["levenshtein"] for row in details) / n,
        "validity": len(valid) / n,
    }
    for kind in _FTS_KINDS:
        metrics[f"fts_{kind}"] = (
            sum(row[f"fts_{kind}"] for row in valid) / len(valid) if valid else None)
    return metrics, details


def confusion_matrix(pairs: list[tuple[int, int]], n_classes: int) -> Counter:
    """The nonzero cells of the confusion matrix, counts keyed by (gold, pred)."""
    counts: Counter = Counter()
    for gold, pred in pairs:
        if not (0 <= gold < n_classes and 0 <= pred < n_classes):
            raise ValueError(f"label pair {(gold, pred)} outside 0..{n_classes - 1}")
        counts[gold, pred] += 1
    return counts


def _margins(counts: Counter) -> tuple[Counter, Counter]:
    """The row (gold) and column (pred) sums of the classes seen."""
    rows, cols = Counter(), Counter()
    for (gold, pred), count in counts.items():
        rows[gold] += count
        cols[pred] += count
    return rows, cols


def confusion_entropy(counts: Counter, n_classes: int) -> float:
    """CEN: entropy of the confusion matrix, 0 for a perfect classifier.

    Per-class misclassification probabilities are taken against the class's
    row+column mass, logs are base 2(n_classes-1), and classes are weighted
    by their share of that mass. Only the nonzero cells are read.
    """
    total = sum(counts.values())
    rows, cols = _margins(counts)
    mass = rows + cols  # row_j + col_j
    log_base = math.log(2 * (n_classes - 1))
    terms = defaultdict(list)  # class j -> p log p of each off-diagonal p in its mass
    for (gold, pred), count in counts.items():
        for j in (gold, pred) if gold != pred else ():
            if 0 < count < mass[j]:  # p = 1 adds nothing
                p = count / mass[j]
                terms[j].append(p * (math.log(p) / log_base))
    return math.fsum(mass[j] / (2.0 * total) * -math.fsum(t) for j, t in terms.items())


def matthews_corrcoef(counts: Counter) -> float:
    """Multiclass MCC; 0 when either denominator factor vanishes."""
    rows, cols = _margins(counts)
    s = sum(rows.values())
    hits = sum(count for (gold, pred), count in counts.items() if gold == pred)
    numerator = hits * s - sum(rows[k] * cols[k] for k in rows)
    d1 = s * s - sum(p * p for p in cols.values())
    d2 = s * s - sum(t * t for t in rows.values())
    if d1 <= 0 or d2 <= 0:
        return 0.0
    return float(numerator) / math.sqrt(float(d1) * float(d2))


def eval_classification(
    pairs: list[tuple[int, int]], n_classes: int | None = None
) -> tuple[dict, list[dict]]:
    """(metrics, details): accuracy, CEN, and multiclass MCC over (gold, pred)
    label pairs, and one detail row per pair."""
    if not pairs:
        raise ValueError("no label pairs")
    n = n_classes if n_classes is not None else max(max(g, p) for g, p in pairs) + 1
    if n < 2:
        raise ValueError("need at least 2 classes")
    counts = confusion_matrix(pairs, n)
    metrics = {
        "accuracy": sum(g == p for g, p in pairs) / len(pairs),
        "cen": confusion_entropy(counts, n),
        "mcc": matthews_corrcoef(counts),
    }
    return metrics, [{"gold": g, "pred": p} for g, p in pairs]


def _fsum(name: str, values) -> float:
    """The correctly rounded sum of values; a ValueError naming metric name
    when the sum or a value in it is not a finite float."""
    try:
        total = math.fsum(values)
    except OverflowError:  # an intermediate sum past the largest float
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"regression metric {name} is not finite (a float overflows)")
    return total


def eval_regression(pairs: list[tuple[float, float]]) -> tuple[dict, list[dict]]:
    """(metrics, details): MAE, MSE, and coefficient of determination over
    (gold, pred) pairs, and one detail row per pair.

    R^2 = 1 - SS_res/SS_tot is undefined (reported as None) when the gold
    values are all equal. Every sum is correctly rounded, so the metrics
    depend only on the multiset of pairs; a sum or metric that overflows
    is a ValueError naming the metric.
    """
    if len(pairs) < 2:
        raise ValueError("need at least 2 samples")
    n = len(pairs)
    errors = [pred - gold for gold, pred in pairs]
    mae = _fsum("mae", map(abs, errors)) / n
    ss_res = _fsum("mse", (e * e for e in errors))
    mean = _fsum("r2", (gold for gold, _ in pairs)) / n
    ss_tot = _fsum("r2", ((gold - mean) * (gold - mean) for gold, _ in pairs))
    r2 = None if ss_tot == 0.0 else _fsum("r2", (1.0, -ss_res / ss_tot))  # checked finite
    metrics = {"mae": mae, "mse": ss_res / n, "r2": r2}
    return metrics, [{"gold": g, "pred": p} for g, p in pairs]


def eval_selection(records: list[dict]) -> tuple[dict, list[dict]]:
    """(metrics, details): top-1 and top-50% accuracy for choose-from-candidates
    records, and one detail row per record.

    A record needs reference, prediction and candidates. Top-50 is
    computed when every record has candidate_yield_ranks (parallel to
    candidates, rank 1 = highest yield) and counts a record when the
    predicted item's rank is within ceil(len(candidates)/2). Predictions
    outside the candidate list score incorrect and are flagged. Two values
    match when their JSON text is the same (dumps), so true is not 1 and 1
    is not 1.0. The caller checks that candidates is a list and the ranks
    one int per candidate.
    """
    if not records:
        raise ValueError("no selection records")
    want_top50 = all(r.get("candidate_yield_ranks") is not None for r in records)

    details = []
    for record in records:
        candidates = [dumps(candidate) for candidate in record["candidates"]]
        predicted = dumps(record["prediction"])
        gold = dumps(record["reference"])
        flagged = predicted not in candidates
        row = {
            "id": record.get("id"),
            "top1": (not flagged) and predicted == gold,
            "not_in_candidates": flagged,
        }
        if want_top50:
            if flagged:
                row["top50"] = False
            else:
                rank = record["candidate_yield_ranks"][candidates.index(predicted)]
                row["top50"] = rank <= math.ceil(len(candidates) / 2)
        details.append(row)

    metrics: dict[str, float | None] = {
        "selection_top1": sum(row["top1"] for row in details) / len(records)}
    if want_top50:
        metrics["selection_top50"] = sum(row["top50"] for row in details) / len(records)
    return metrics, details
