from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import classification_counts_by_loop, pairwise_auc, roc_points_by_rescan
from parkscan.geometry import Point2
from parkscan.metrics import (
    ClassificationCounts,
    UndefinedAucError,
    accuracy,
    classification_counts,
    default_match_tolerance,
    format_percent,
    match_slots,
    precision_recall,
    roc_auc,
    roc_points,
)


def pts(*coords):
    return [Point2(float(x), float(y)) for x, y in coords]


# --- match_slots ------------------------------------------------------------

def test_perfect_predictions():
    truth = pts((0, 0), (10, 0), (20, 0))
    result = match_slots(truth, truth, tolerance=1.0)
    assert (result.tp, result.fp, result.fn) == (3, 0, 0)


def test_extra_prediction_is_false_positive():
    truth = pts((0, 0))
    pred = pts((0, 0), (500, 500))
    result = match_slots(pred, truth, tolerance=5.0)
    assert (result.tp, result.fp, result.fn) == (1, 1, 0)


def test_contested_truth_resolved_by_pred_id():
    truth = pts((0, 0))
    pred = pts((1, 0), (-1, 0))  # equidistant
    result = match_slots(pred, truth, tolerance=2.0)
    assert (result.tp, result.fp, result.fn) == (1, 1, 0)
    assert result.pairs[0][:2] == (0, 0)  # smaller pred index wins the tie


def test_greedy_prefers_smaller_distance():
    truth = pts((0, 0), (10, 0))
    pred = pts((9, 0), (0.5, 0))
    result = match_slots(pred, truth, tolerance=20.0)
    # (pred 1, truth 0) at 0.5 px matches first, then (pred 0, truth 1) at 1 px.
    assert set(p[:2] for p in result.pairs) == {(1, 0), (0, 1)}


def test_match_counts_identities():
    truth = pts((0, 0), (10, 0), (20, 0), (30, 0))
    pred = pts((0.1, 0), (10.2, 0), (100, 100))
    result = match_slots(pred, truth, tolerance=1.0)
    assert result.tp + result.fp == len(pred)
    assert result.tp + result.fn == len(truth)
    assert result.tp == len(result.pairs)


def test_default_match_tolerance_is_half_median_nn():
    truth = pts((0, 0), (10, 0), (20, 0), (31, 0))
    # nearest-neighbor distances: 10, 10, 10, 11 -> median 10 -> half = 5
    assert default_match_tolerance(truth) == 5.0
    with pytest.raises(ValueError):
        default_match_tolerance(pts((0, 0)))


# --- precision / recall -------------------------------------------------------

def test_headline_count_rows_format_exactly():
    p, r = precision_recall(43, 1, 1)
    assert (format_percent(p), format_percent(r)) == ("97.73", "97.73")
    p, r = precision_recall(158, 7, 12)
    assert (format_percent(p), format_percent(r)) == ("95.76", "92.94")


@pytest.mark.parametrize(
    "tp, fp, fn, expected_precision, expected_recall",
    [
        (36, 5, 5, "87.80", "87.80"),
        (38, 3, 3, "92.68", "92.68"),
        (36, 8, 8, "81.82", "81.82"),
        (40, 3, 4, "93.02", "90.91"),
        (42, 2, 2, "95.45", "95.45"),
        (43, 1, 1, "97.73", "97.73"),
        (142, 11, 28, "92.81", "83.53"),
        (147, 10, 23, "93.63", "86.47"),
        (155, 9, 15, "94.51", "91.18"),
        (158, 7, 12, "95.76", "92.94"),
    ],
)
def test_benchmark_count_rows(tp, fp, fn, expected_precision, expected_recall):
    p, r = precision_recall(tp, fp, fn)
    assert format_percent(p) == expected_precision
    assert format_percent(r) == expected_recall


def test_precision_recall_exact_fractions():
    p, r = precision_recall(3, 1, 2)
    assert p == Fraction(3, 4) and r == Fraction(3, 5)


def test_precision_recall_undefined_cases():
    p, r = precision_recall(0, 0, 0)
    assert p is None and r is None
    p, r = precision_recall(0, 0, 5)
    assert p is None and r == 0
    assert format_percent(None) == "undefined"


def test_format_percent_rounds_half_up():
    assert format_percent(Fraction(97725, 100000)) == "97.73"
    assert format_percent(Fraction(1, 8)) == "12.50"
    assert format_percent(Fraction(1, 1)) == "100.00"
    assert format_percent(0.5) == "50.00"


# --- accuracy -----------------------------------------------------------------

def test_accuracy_cases():
    assert accuracy(ClassificationCounts(9, 9, 1, 1)) == Fraction(9, 10)
    assert accuracy(ClassificationCounts(3, 2, 0, 0)) == 1
    assert accuracy(ClassificationCounts(0, 0, 4, 1)) == 0
    assert accuracy(ClassificationCounts(0, 0, 0, 0)) is None


def test_classification_counts_from_sequences():
    counts = classification_counts(
        [True, True, False, False], [True, False, True, False]
    )
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)


_bits = st.one_of(st.booleans(), st.booleans().map(np.bool_), st.integers(0, 2))


@given(pairs=st.lists(st.tuples(_bits, _bits), max_size=60), as_array=st.booleans())
@settings(max_examples=200, deadline=None)
def test_classification_counts_equal_the_loop(pairs, as_array):
    preds, labels = (list(column) for column in zip(*pairs)) if pairs else ([], [])
    if as_array:
        preds, labels = np.array(preds, bool), np.array(labels, bool)
    counts = classification_counts(preds, labels)
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == classification_counts_by_loop(preds, labels)
    assert all(type(n) is int for n in (counts.tp, counts.tn, counts.fp, counts.fn))


@pytest.mark.parametrize("preds, labels", [([True], []), ([], [False]), ([True, False], [True])])
def test_classification_counts_reject_unequal_lengths(preds, labels):
    with pytest.raises(ValueError):
        classification_counts_by_loop(preds, labels)
    with pytest.raises(ValueError):
        classification_counts(preds, labels)


# --- AUC ------------------------------------------------------------------------

def test_auc_perfect_separation():
    assert roc_auc([0.9, 0.7, 0.2, 0.1], [True, True, False, False]) == 1.0


def test_auc_all_ties():
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [True, False, True, False]) == 0.5


def test_auc_interleaved_hand_case():
    # pairs: (0.9 > 0.8) wins, (0.7 < 0.8) loses -> 1 of 2.
    assert roc_auc([0.9, 0.7, 0.8], [True, True, False]) == 0.5


def test_auc_single_class_raises():
    with pytest.raises(UndefinedAucError):
        roc_auc([0.1, 0.9], [True, True])


score_sets = st.lists(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]), min_size=2, max_size=60
)


@given(scores=score_sets, data=st.data())
@settings(max_examples=100)
def test_auc_matches_pair_counting(scores, data):
    labels = data.draw(
        st.lists(st.booleans(), min_size=len(scores), max_size=len(scores))
    )
    if not (any(labels) and not all(labels)):
        labels[0], labels[-1] = True, False
    assert roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


@given(n=st.integers(min_value=2, max_value=50), seed=st.integers(0, 2**31))
@settings(max_examples=60)
def test_auc_complement_identity_tie_free(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.permutation(n).astype(float)  # distinct -> tie-free
    labels = np.zeros(n, dtype=bool)
    labels[rng.choice(n, size=rng.integers(1, n), replace=False)] = True
    if labels.all():
        labels[0] = False
    auc = roc_auc(scores, labels)
    flipped = roc_auc(scores, ~labels)
    assert auc + flipped == pytest.approx(1.0, abs=1e-12)


@given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 2**31))
@settings(max_examples=40)
def test_auc_invariant_under_monotone_transform(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    labels = rng.uniform(0, 1, n) < 0.5
    if labels.all() or not labels.any():
        labels[0] = True
        labels[-1] = False
    transformed = 2.0 * scores**3 + 1.0  # strictly increasing
    assert roc_auc(scores, labels) == roc_auc(transformed, labels)


def test_roc_points_sweep():
    points = roc_points([0.9, 0.4, 0.6], [True, False, True])
    assert points[0][1:] == (0.0, 0.0)
    assert points[-1][1:] == (1.0, 1.0)
    thresholds = [p[0] for p in points]
    assert thresholds == sorted(thresholds, reverse=True)


@given(scores=score_sets, data=st.data())
@settings(max_examples=100)
def test_roc_points_match_per_threshold_rescan(scores, data):
    labels = data.draw(st.lists(st.booleans(), min_size=len(scores), max_size=len(scores)))
    if not (any(labels) and not all(labels)):
        labels[0], labels[-1] = True, False
    assert roc_points(scores, labels) == roc_points_by_rescan(scores, labels)
