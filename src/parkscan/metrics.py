"""Detection and classification metrics: matching, precision/recall, accuracy, AUC.

Ratios are computed exactly as rationals; rounding happens only when a
value is formatted for display (2 decimals, round half up, matching the
usual benchmark-table convention).  Undefined metrics are explicit
``None``, never silently 0 or 1.
"""

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .geometry import Point2


class UndefinedAucError(ValueError):
    """AUC needs at least one positive and one negative label."""


@dataclass(frozen=True)
class SlotMatchResult:
    tp: int
    fp: int
    fn: int
    pairs: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.tp != len(self.pairs):
            raise AssertionError("tp must equal the number of matched pairs")
        if self.fp < 0 or self.fn < 0:
            raise AssertionError("fp and fn must be non-negative")


@dataclass(frozen=True)
class ClassificationCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def match_slots(
    predicted: Sequence[Point2], truth: Sequence[Point2], tolerance: float
) -> SlotMatchResult:
    """Greedy one-to-one matching of predicted to true slot centers.

    Candidate pairs are visited by ascending center distance (ties by
    predicted then true index); a pair matches iff its distance is within
    tolerance and neither endpoint is taken.  Unmatched predictions are
    false positives, unmatched truths false negatives.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be > 0, got {tolerance!r}")
    candidates = []
    for i, p in enumerate(predicted):
        for j, t in enumerate(truth):
            d = math.hypot(p.x - t.x, p.y - t.y)
            if d <= tolerance:
                candidates.append((d, i, j))
    candidates.sort()
    matched_pred: set[int] = set()
    matched_truth: set[int] = set()
    pairs = []
    for d, i, j in candidates:
        if i in matched_pred or j in matched_truth:
            continue
        matched_pred.add(i)
        matched_truth.add(j)
        pairs.append((i, j, d))
    tp = len(pairs)
    result = SlotMatchResult(
        tp=tp, fp=len(predicted) - tp, fn=len(truth) - tp, pairs=tuple(pairs)
    )
    assert result.tp + result.fp == len(predicted)
    assert result.tp + result.fn == len(truth)
    return result


def default_match_tolerance(truth: Sequence[Point2]) -> float:
    """Half the median nearest-neighbor distance among true centers."""
    if len(truth) < 2:
        raise ValueError("need at least 2 truth centers for the default tolerance")
    pts = np.array([[p.x, p.y] for p in truth])
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nearest = np.sqrt(d2.min(axis=1))
    return float(np.median(nearest)) / 2.0


def precision_recall(
    tp: int, fp: int, fn: int
) -> tuple[Union[Fraction, None], Union[Fraction, None]]:
    """Exact precision and recall; None when a denominator is zero."""
    if min(tp, fp, fn) < 0:
        raise ValueError("counts must be non-negative")
    precision = Fraction(tp, tp + fp) if tp + fp > 0 else None
    recall = Fraction(tp, tp + fn) if tp + fn > 0 else None
    return precision, recall


def accuracy(counts: ClassificationCounts) -> Union[Fraction, None]:
    if counts.total == 0:
        return None
    return Fraction(counts.tp + counts.tn, counts.total)


def format_percent(value: Union[Fraction, float, None]) -> str:
    """Format a ratio as percent with 2 decimals, rounding half up."""
    if value is None:
        return "undefined"
    if isinstance(value, Fraction):
        with localcontext() as ctx:
            ctx.prec = 50
            dec = Decimal(value.numerator) / Decimal(value.denominator)
    else:
        dec = Decimal(repr(float(value)))
    return str((dec * 100).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _score_groups(scores: Sequence[float], labels: Sequence[bool]):
    """After one stable ascending sort: the distinct scores, each one's first and last
    sorted position, the positives among the first k sorted scores (k = 0..n), and
    the class totals P and N.  Every count is an integer."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and the same length")
    pos = int(y.sum())
    neg = int(y.size - pos)
    if pos == 0 or neg == 0:
        raise UndefinedAucError("labels contain a single class; AUC and ROC are undefined")
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    last = np.flatnonzero(np.append(ordered[1:] != ordered[:-1], True))
    first = np.append(0, last[:-1] + 1)
    pos_below = np.append(0, np.cumsum(y[order]))
    return ordered[first], first, last, pos_below, pos, neg


def roc_auc(scores: Sequence[float], labels: Sequence[bool]) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) statistic.

    Equals (number of positive/negative pairs ranked correctly + half the
    ties) / (P * N), computed with average ranks so ties are handled without
    enumerating pairs.
    """
    _, first, last, pos_below, pos, neg = _score_groups(scores, labels)
    # A tie group shares the 1-based rank (first + last + 2) / 2, so twice the
    # positives' rank sum is an exact integer.
    pos_in_group = pos_below[last + 1] - pos_below[first]
    rank_sum = int((pos_in_group * (first + last + 2)).sum()) / 2
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def roc_points(
    scores: Sequence[float], labels: Sequence[bool]
) -> list[tuple[float, float, float]]:
    """(threshold, fpr, tpr) sweep over the distinct scores, for plotting."""
    values, first, _, pos_below, pos, neg = _score_groups(scores, labels)
    # Descending thresholds; a score predicts occupied iff it is >= the threshold.
    tp = (pos - pos_below[first])[::-1]
    fp = (pos + neg - first)[::-1] - tp
    sweep = zip(values[::-1].tolist(), (fp / neg).tolist(), (tp / pos).tolist())
    return [(math.inf, 0.0, 0.0), *sweep]


def classification_counts(
    predicted_occupied: Sequence[bool], truth_occupied: Sequence[bool]
) -> ClassificationCounts:
    """Confusion counts of the paired bits, from one ``np.bincount``; the lengths must agree."""
    pred, true = np.asarray(predicted_occupied, bool), np.asarray(truth_occupied, bool)
    if pred.shape != true.shape:
        raise ValueError(f"{len(pred)} predictions against {len(true)} truth bits")
    tn, fn, fp, tp = np.bincount(2 * pred + true, minlength=4).tolist()
    return ClassificationCounts(tp=tp, tn=tn, fp=fp, fn=fn)
