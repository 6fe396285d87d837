"""Shared fixtures: case-study parameters and independent traversal oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from driftrisk.estimation import (
    AccuracyCell,
    ConditionalAccuracyTable,
    DetectorProfile,
    forward_bias,
)
from driftrisk.event_tree import (
    IND,
    IND_NEG,
    IND_POS,
    Leaf,
    OOD,
    OOD_NEG,
    OOD_POS,
    TreeParams,
)
from driftrisk.simulation import AccuracyOracle

def where_judge_many(profile: DetectorProfile, rng: np.random.Generator, is_ood) -> np.ndarray:
    """The np.where form of SyntheticDetector.judge_many, kept as its reference."""
    flags = np.asarray(is_ood, dtype=bool)
    draws = rng.random(flags.shape)
    return np.where(flags, draws < profile.tpr, draws >= profile.tnr)


# Per-outcome costs for the clinical case study (currency units).
CASE_STUDY_COSTS = {
    "correct_detection": 635.0,
    "necessary_intervention": 1905.0,
    "unnecessary_intervention": 1955.0,
    "failed_detection": 6735.0,
}

# Maximum tolerable risk: the cost of always requiring manual review.
CASE_STUDY_THRESHOLD = 1925.0

CASE_STUDY_IND_ACC = 0.90
CASE_STUDY_FOLD_ACCS = (0.71, 0.74, 0.33)

# Balanced accuracy 0.75 with the high-TPR split that reproduces the
# case study's reported risk crossings.
CASE_STUDY_PROFILE = DetectorProfile(tpr=0.95, tnr=0.55)


@pytest.fixture
def outcome_costs() -> dict[str, float]:
    return dict(CASE_STUDY_COSTS)


@pytest.fixture
def clinical_base_params() -> TreeParams:
    return TreeParams(p_event=0.3, accuracies={IND: 0.90, OOD: 0.33})


def make_rv_params(
    p_event: float,
    tpr: float,
    tnr: float,
    acc_ind: float,
    acc_ood: float,
    data_free=frozenset(),
) -> TreeParams:
    """RV params with verdict-independent conditional accuracies."""
    return TreeParams(
        p_event=p_event,
        tpr=tpr,
        tnr=tnr,
        accuracies={
            IND_NEG: acc_ind,
            IND_POS: acc_ind,
            OOD_NEG: acc_ood,
            OOD_POS: acc_ood,
        },
        data_free=data_free,
    )


def make_full_table(acc_ind: float, acc_ood: float) -> ConditionalAccuracyTable:
    """Six-condition table with verdict-independent accuracies."""
    return ConditionalAccuracyTable(
        {
            **{c: AccuracyCell(acc_ind, 1) for c in (IND, IND_NEG, IND_POS)},
            **{c: AccuracyCell(acc_ood, 1) for c in (OOD, OOD_NEG, OOD_POS)},
        }
    )


@pytest.fixture
def case_study_oracle() -> AccuracyOracle:
    return AccuracyOracle.uniform_folds(CASE_STUDY_IND_ACC, CASE_STUDY_FOLD_ACCS)


def accuracies_dict(acc_ind: float, acc_ood: float) -> dict:
    """Config-file form of a verdict-independent six-condition table."""
    return {
        key: {"accuracy": acc_ind if key.startswith("ind") else acc_ood, "support": 1}
        for key in ("ind", "ind_neg", "ind_pos", "ood", "ood_neg", "ood_pos")
    }


def case_study_config_dict() -> dict:
    """A full runnable config document for the clinical case study."""
    acc_ood = sum(CASE_STUDY_FOLD_ACCS) / len(CASE_STUDY_FOLD_ACCS)
    return {
        "schema_version": 1,
        "monitor": {
            "topology": "rv",
            "profile": {"tpr": CASE_STUDY_PROFILE.tpr, "tnr": CASE_STUDY_PROFILE.tnr},
            "accuracies": accuracies_dict(CASE_STUDY_IND_ACC, acc_ood),
            "trace_capacity": 100,
            "prior_rate": 0.3,
            "costs": dict(CASE_STUDY_COSTS),
            "risk_threshold": CASE_STUDY_THRESHOLD,
        },
        "stream": {"batch_size": 1, "shift_rate": 0.3, "horizon": 400, "seed": 42},
        "oracle": {
            "ind_accuracy": CASE_STUDY_IND_ACC,
            "folds": [
                {"name": f"fold{i}", "accuracy": acc, "weight": 1.0 / 3.0}
                for i, acc in enumerate(CASE_STUDY_FOLD_ACCS)
            ],
        },
        "sweep": {
            "rates": [0.1, 0.5, 0.9],
            "profiles": [[0.9, 0.8]],
            "trace_lengths": [50],
            "seeds_per_cell": 3,
            "horizon": 200,
            "master_seed": 5,
            "classifier_deltas": [0.0, 0.05],
            "detector_deltas": [0.0, 0.05],
            "operating_rate": 0.5,
            "risk_horizon": 400,
            "risk_trace_length": 50,
        },
    }


@pytest.fixture
def case_study_profile() -> DetectorProfile:
    return CASE_STUDY_PROFILE


# ---------------------------------------------------------------------------
# Independent traversal oracle: exhaustive path enumeration
# ---------------------------------------------------------------------------


def enumerate_paths(tree) -> list[tuple[float, Leaf]]:
    """Collect (path probability, leaf) pairs with an explicit stack.

    Deliberately separate from the library traversal so tree values can
    be cross-checked against a second implementation.
    """
    paths = []
    stack = [(tree.root, 1.0)]
    while stack:
        node, prob = stack.pop()
        if isinstance(node, Leaf):
            paths.append((prob, node))
            continue
        for edge_prob, child in node.edges:
            stack.append((child, prob * edge_prob))
    return paths


def oracle_accuracy(tree, intervention_value: float = 1.0) -> float:
    """Expected accuracy via path enumeration and compensated summation."""
    terms = []
    for prob, leaf in enumerate_paths(tree):
        value = intervention_value if leaf.correctness is None else leaf.correctness
        terms.append(prob * value)
    return math.fsum(terms)


def oracle_risk(tree, costs) -> float:
    """Expected risk via path enumeration and compensated summation."""
    terms = []
    for prob, leaf in enumerate_paths(tree):
        cost = costs.get(leaf.outcome, leaf.cost)
        if cost is None:
            if prob > 0:
                raise AssertionError(f"oracle found unpriced reachable leaf {leaf.label}")
            continue
        terms.append(prob * cost)
    return math.fsum(terms)


def window_law(window: int, profile: DetectorProfile, rate: float) -> np.ndarray:
    """The pmf over 0..window of a full window's positive count.

    With decay 1 and verdicts drawn independently at the true rate, the
    count is Binomial(window, t), t = forward_bias(rate, profile).  Each
    log-probability takes three lgamma calls, so the law costs O(window).
    A decayed (weighted) count is not binomial; this is no law for it.
    """
    t = forward_bias(rate, profile)
    if t in (0.0, 1.0):
        pmf = np.zeros(window + 1)
        pmf[0 if t == 0.0 else window] = 1.0
        return pmf
    counts = np.arange(window + 1)
    log_choose = np.array([
        math.lgamma(window + 1) - math.lgamma(k + 1) - math.lgamma(window - k + 1)
        for k in range(window + 1)
    ])
    return np.exp(log_choose + counts * math.log(t) + (window - counts) * math.log1p(-t))


def exact_rate_error(window: int, profile: DetectorProfile, rate: float) -> dict:
    """The exact law of a rate-error cell's per-seed error, from window_law.

    The error of a window with K positives is clip(RG(K / window)) - rate,
    RG the Rogan-Gladen correction, computed as rate_error_cell computes
    it.  Returns the mean and the standard deviation of its absolute
    value (``mae``, ``mae_sd``) and of its signed value (``signed``,
    ``signed_sd``).
    """
    pmf = window_law(window, profile, rate)
    means = np.arange(window + 1) / window
    corrected = np.clip((means - (1.0 - profile.tnr)) / profile.informativeness, 0.0, 1.0)
    moments = {}
    for name, errors in (("mae", np.abs(corrected - rate)), ("signed", corrected - rate)):
        mean = math.fsum(pmf * errors)
        moments[name] = mean
        moments[f"{name}_sd"] = math.sqrt(max(0.0, math.fsum(pmf * (errors - mean) ** 2)))
    return moments


def assert_close(actual: float, expected: float, tol: float) -> None:
    """|actual - expected| <= tol * max(1, |expected|)."""
    assert abs(actual - expected) <= tol * max(1.0, abs(expected)), (
        f"{actual!r} != {expected!r} within {tol}"
    )


def assessment_columns(first_index: int, verdicts: list[bool], assessments) -> list:
    """The io.ASSESSMENT_COLUMNS fields of one observe_many call, one format_rows column each.

    Row i is the io.assessment_row of verdict ``verdicts[i]`` at index
    ``first_index + i``.  The float columns are the float64 arrays of
    ``assessments``; the bool columns are lists, since fmt() prints an
    np.bool_ as True.  With format_rows, this is the reference that
    io.AssessmentRenderer is checked against.
    """
    risks = assessments.expected_risk
    return [
        list(range(first_index, first_index + len(verdicts))),
        verdicts,
        assessments.raw_mean,
        assessments.corrected,
        assessments.clamped.tolist(),
        assessments.fill_fraction,
        assessments.using_prior.tolist(),
        assessments.expected_accuracy,
        [None] * len(verdicts) if risks is None else risks,
        assessments.alert.tolist(),
    ]
