"""Event tree construction, traversal, and sensitivity tests."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from driftrisk.errors import ConfigurationError, ValidationError
from driftrisk.event_tree import (
    IND,
    IND_NEG,
    IND_POS,
    OOD,
    OOD_NEG,
    OOD_POS,
    TreeParams,
    build_base_tree,
    build_rv_tree,
    build_tree,
    expected_accuracy,
    expected_risk,
    leaf_distribution,
    parse_condition,
    sensitivity,
    tree_parameters,
)

from conftest import (
    CASE_STUDY_COSTS,
    assert_close,
    make_rv_params,
    oracle_accuracy,
    oracle_risk,
)


def random_base_params(rng) -> TreeParams:
    return TreeParams(
        p_event=rng.random(),
        accuracies={IND: rng.random(), OOD: rng.random()},
    )


def random_rv_params(rng) -> TreeParams:
    return make_rv_params(
        p_event=rng.random(),
        tpr=rng.random(),
        tnr=rng.random(),
        acc_ind=rng.random(),
        acc_ood=rng.random(),
    )


class TestBuildBaseTree:
    def test_degenerate_event_probability(self):
        tree = build_base_tree(TreeParams(0.0, {IND: 0.9, OOD: 0.3}))
        dist = leaf_distribution(tree)
        assert dist["ind:correct_detection"] == pytest.approx(0.9, abs=1e-12)
        assert dist["ind:failed_detection"] == pytest.approx(0.1, abs=1e-12)
        assert dist["ood:correct_detection"] == 0.0
        assert dist["ood:failed_detection"] == 0.0

    @pytest.mark.parametrize("acc", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_symmetric_accuracies(self, acc):
        tree = build_base_tree(TreeParams(0.5, {IND: acc, OOD: acc}))
        dist = leaf_distribution(tree)
        correct = dist["ind:correct_detection"] + dist["ood:correct_detection"]
        assert correct == pytest.approx(acc, abs=1e-12)

    def test_clinical_leaf_probabilities(self, clinical_base_params):
        # Hand enumeration of the four root-to-leaf products.
        dist = leaf_distribution(build_base_tree(clinical_base_params))
        assert dist["ind:correct_detection"] == pytest.approx(0.63, abs=1e-12)
        assert dist["ind:failed_detection"] == pytest.approx(0.07, abs=1e-12)
        assert dist["ood:correct_detection"] == pytest.approx(0.099, abs=1e-12)
        assert dist["ood:failed_detection"] == pytest.approx(0.201, abs=1e-12)

    def test_out_of_range_parameter_rejected(self):
        with pytest.raises(ValidationError):
            TreeParams(1.3, {IND: 0.9, OOD: 0.3})
        with pytest.raises(ValidationError):
            TreeParams(0.3, {IND: -0.1, OOD: 0.3})

    def test_missing_accuracy_rejected(self):
        with pytest.raises(ConfigurationError):
            build_base_tree(TreeParams(0.3, {IND: 0.9}))


class TestBuildRvTree:
    def test_only_ind_neg_reachable(self):
        tree = build_rv_tree(make_rv_params(0.0, tpr=0.7, tnr=1.0, acc_ind=0.9, acc_ood=0.3))
        dist = leaf_distribution(tree)
        assert dist["ind_neg:correct_detection"] == pytest.approx(0.9, abs=1e-12)
        assert dist["ind_neg:failed_detection"] == pytest.approx(0.1, abs=1e-12)
        assert all(
            v == 0.0 for k, v in dist.items() if not k.startswith("ind_neg")
        )

    def test_certain_event_certain_detection(self):
        tree = build_rv_tree(make_rv_params(1.0, tpr=1.0, tnr=0.8, acc_ind=0.9, acc_ood=0.3))
        dist = leaf_distribution(tree)
        assert dist["ood_pos:necessary_intervention"] == 1.0
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_branch_masses(self):
        # Product of edge probabilities per verdict branch.
        tree = build_rv_tree(make_rv_params(0.5, tpr=0.8, tnr=0.7, acc_ind=0.9, acc_ood=0.3))
        dist = leaf_distribution(tree)
        assert dist["ind_neg:correct_detection"] + dist[
            "ind_neg:failed_detection"
        ] == pytest.approx(0.35, abs=1e-12)
        assert dist["ind_pos:unnecessary_intervention"] == pytest.approx(0.15, abs=1e-12)
        assert dist["ood_pos:necessary_intervention"] == pytest.approx(0.40, abs=1e-12)
        assert dist["ood_neg:correct_detection"] + dist[
            "ood_neg:failed_detection"
        ] == pytest.approx(0.10, abs=1e-12)
        assert len(dist) == 6

    def test_missing_reachable_accuracy_rejected(self):
        params = TreeParams(
            p_event=0.5, tpr=0.8, tnr=0.7,
            accuracies={IND_NEG: 0.9, IND_POS: 0.9, OOD_POS: 0.3},
        )
        with pytest.raises(ConfigurationError, match="ood_neg"):
            build_rv_tree(params)

    def test_missing_unreachable_accuracy_tolerated(self):
        # tpr = 1 makes (OOD, neg) unreachable, so its accuracy is not needed.
        params = TreeParams(
            p_event=0.5, tpr=1.0, tnr=0.7,
            accuracies={IND_NEG: 0.9, IND_POS: 0.9, OOD_POS: 0.3},
        )
        dist = leaf_distribution(build_rv_tree(params))
        assert "ood_neg:correct_detection" not in dist
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_data_free_condition_gets_zero_weight(self):
        # Declaring (OOD, neg) data-free sends all OOD mass to the
        # positive verdict regardless of tpr.
        params = make_rv_params(
            0.4, tpr=0.6, tnr=0.9, acc_ind=0.9, acc_ood=0.3,
            data_free=frozenset({OOD_NEG}),
        )
        dist = leaf_distribution(build_rv_tree(params))
        assert dist["ood_pos:necessary_intervention"] == pytest.approx(0.4, abs=1e-12)
        assert not any(k.startswith("ood_neg") for k in dist)

    def test_both_branches_data_free_rejected(self):
        params = make_rv_params(
            0.4, tpr=0.6, tnr=0.9, acc_ind=0.9, acc_ood=0.3,
            data_free=frozenset({OOD_NEG, OOD_POS}),
        )
        with pytest.raises(ConfigurationError, match="data-free"):
            build_rv_tree(params)

    def test_requires_tpr_and_tnr(self):
        with pytest.raises(ConfigurationError):
            build_rv_tree(TreeParams(0.5, {IND_NEG: 0.9}))


class TestExpectedAccuracy:
    def test_collapses_to_ind_accuracy(self):
        tree = build_base_tree(TreeParams(0.0, {IND: 0.9, OOD: 0.3}))
        assert expected_accuracy(tree) == pytest.approx(0.9, abs=1e-12)

    def test_midpoint(self):
        tree = build_base_tree(TreeParams(0.5, {IND: 0.9, OOD: 0.3}))
        assert expected_accuracy(tree) == pytest.approx(0.6, abs=1e-12)

    def test_clinical_example_value(self, clinical_base_params):
        # Brute-force enumeration gives 0.729 for these inputs.
        tree = build_base_tree(clinical_base_params)
        assert expected_accuracy(tree) == pytest.approx(0.729, abs=1e-12)

    def test_decomposition_equivalence(self):
        # Traversal equals (1-p) * acc_ind + p * acc_ood to float precision.
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = random_base_params(rng)
            tree = build_base_tree(params)
            closed_form = (1.0 - params.p_event) * params.accuracies[IND] + (
                params.p_event * params.accuracies[OOD]
            )
            assert abs(expected_accuracy(tree) - closed_form) <= 1e-12

    def test_intervention_modes(self):
        params = make_rv_params(0.5, tpr=0.8, tnr=0.7, acc_ind=0.9, acc_ood=0.3)
        tree = build_rv_tree(params)
        counted = expected_accuracy(tree, "correct")
        # Interventions as correct: 0.35*0.9 + 0.15 + 0.40 + 0.10*0.3
        assert counted == pytest.approx(0.895, abs=1e-12)
        excluded = expected_accuracy(tree, "excluded")
        # Renormalized over negative-verdict mass 0.45.
        assert excluded == pytest.approx((0.35 * 0.9 + 0.10 * 0.3) / 0.45, abs=1e-12)

    def test_excluded_with_no_accuracy_mass_rejected(self):
        tree = build_rv_tree(make_rv_params(1.0, tpr=1.0, tnr=1.0, acc_ind=0.9, acc_ood=0.3))
        with pytest.raises(ConfigurationError):
            expected_accuracy(tree, "excluded")

    def test_unknown_mode_rejected(self):
        tree = build_base_tree(TreeParams(0.5, {IND: 0.9, OOD: 0.3}))
        with pytest.raises(ValidationError):
            expected_accuracy(tree, "ignored")

    def test_monotone_decreasing_in_event_rate(self):
        values = [
            expected_accuracy(build_base_tree(TreeParams(p, {IND: 0.9, OOD: 0.3})))
            for p in np.linspace(0.0, 1.0, 21)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestExpectedRisk:
    def test_constant_costs_collapse(self):
        rng = np.random.default_rng(7)
        costs = {outcome: 42.0 for outcome in CASE_STUDY_COSTS}
        for _ in range(50):
            tree = build_rv_tree(random_rv_params(rng))
            assert expected_risk(tree, costs) == pytest.approx(42.0, abs=1e-9)

    def test_clean_system_cost(self, outcome_costs):
        # Only (InD, neg, correct) reachable: the standard procedure cost.
        tree = build_rv_tree(make_rv_params(0.0, tpr=0.9, tnr=1.0, acc_ind=1.0, acc_ood=0.3))
        assert expected_risk(tree, outcome_costs) == pytest.approx(635.0, abs=1e-12)

    def test_all_intervention_cost(self, outcome_costs):
        tree = build_rv_tree(make_rv_params(1.0, tpr=1.0, tnr=0.9, acc_ind=0.9, acc_ood=0.3))
        assert expected_risk(tree, outcome_costs) == pytest.approx(1905.0, abs=1e-12)

    def test_unpriced_reachable_leaf_rejected(self, outcome_costs):
        tree = build_base_tree(TreeParams(0.3, {IND: 0.9, OOD: 0.3}))
        costs = {"correct_detection": 635.0}
        with pytest.raises(ConfigurationError, match="failed_detection"):
            expected_risk(tree, costs)

    def test_unpriced_unreachable_leaf_tolerated(self):
        tree = build_base_tree(TreeParams(0.0, {IND: 1.0, OOD: 0.3}))
        # OOD and failure leaves carry probability zero here.
        assert expected_risk(tree, {"correct_detection": 635.0}) == 635.0

    def test_negative_cost_rejected(self):
        tree = build_base_tree(TreeParams(0.3, {IND: 0.9, OOD: 0.3}))
        with pytest.raises(ValidationError):
            expected_risk(tree, {"correct_detection": -1.0, "failed_detection": 5.0})

    def test_embedded_costs(self, outcome_costs):
        tree = build_rv_tree(
            make_rv_params(0.3, tpr=0.8, tnr=0.7, acc_ind=0.9, acc_ood=0.3),
            costs=outcome_costs,
        )
        assert expected_risk(tree) == pytest.approx(
            expected_risk(tree, outcome_costs), abs=1e-12
        )


class TestLeafDistribution:
    def test_degenerate_single_leaf(self):
        tree = build_rv_tree(make_rv_params(1.0, tpr=1.0, tnr=1.0, acc_ind=0.9, acc_ood=0.3))
        dist = leaf_distribution(tree)
        assert dist["ood_pos:necessary_intervention"] == 1.0
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_probability_conservation(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            base = build_base_tree(random_base_params(rng))
            rv = build_rv_tree(random_rv_params(rng))
            assert abs(sum(leaf_distribution(base).values()) - 1.0) <= 1e-9
            assert abs(sum(leaf_distribution(rv).values()) - 1.0) <= 1e-9


class TestTraversalOracle:
    def test_matches_exhaustive_enumeration(self, outcome_costs):
        rng = np.random.default_rng(37)
        for _ in range(500):
            base = build_base_tree(random_base_params(rng), costs=outcome_costs)
            rv = build_rv_tree(random_rv_params(rng), costs=outcome_costs)
            for tree in (base, rv):
                assert_close(expected_accuracy(tree), oracle_accuracy(tree), 1e-12)
                assert_close(
                    expected_risk(tree, outcome_costs),
                    oracle_risk(tree, outcome_costs),
                    1e-12,
                )


class TestSensitivity:
    def test_base_rate_derivative_is_accuracy_gap(self, clinical_base_params):
        tree = build_base_tree(clinical_base_params)
        assert sensitivity(tree, "p_event") == pytest.approx(0.33 - 0.90, abs=1e-12)

    def test_matches_central_finite_difference(self, outcome_costs):
        rng = np.random.default_rng(51)
        h = 1e-5

        def interior():
            # Keep every parameter away from the boundary so +/- h stays legal.
            return 0.1 + 0.8 * rng.random()

        for _ in range(40):
            for topology, params in (
                ("base", TreeParams(interior(), {IND: interior(), OOD: interior()})),
                (
                    "rv",
                    make_rv_params(
                        interior(), tpr=interior(), tnr=interior(),
                        acc_ind=interior(), acc_ood=interior(),
                    ),
                ),
            ):
                tree = build_tree(topology, params)
                for parameter in tree_parameters(tree):
                    for costs in (None, outcome_costs):
                        analytic = sensitivity(tree, parameter, costs)
                        fd = _central_difference(topology, params, parameter, costs, h)
                        assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))

    def test_constant_in_own_parameter(self):
        # Multilinearity: the derivative does not depend on the parameter's
        # own value.
        for value in (0.1, 0.5, 0.9):
            params = make_rv_params(value, tpr=0.8, tnr=0.7, acc_ind=0.9, acc_ood=0.3)
            tree = build_rv_tree(params)
            assert sensitivity(tree, "p_event") == pytest.approx(
                sensitivity(
                    build_rv_tree(replace(params, p_event=0.2)), "p_event"
                ),
                abs=1e-12,
            )

    def test_affine_in_each_parameter(self, outcome_costs):
        # Value at the midpoint equals the mean of the endpoint values.
        params = make_rv_params(0.4, tpr=0.8, tnr=0.7, acc_ind=0.9, acc_ood=0.3)
        tree = build_rv_tree(params, costs=outcome_costs)

        def risk_at(p):
            return expected_risk(
                build_rv_tree(replace(params, p_event=p)), outcome_costs
            )

        assert risk_at(0.5) == pytest.approx((risk_at(0.0) + risk_at(1.0)) / 2, rel=1e-12)

    def test_unknown_parameter_rejected(self, clinical_base_params):
        tree = build_base_tree(clinical_base_params)
        with pytest.raises(ValidationError):
            sensitivity(tree, "acc:ood_neg")
        with pytest.raises(ValidationError):
            sensitivity(tree, "nonsense")


def _central_difference(topology, params, parameter, costs, h):
    def value_at(shift):
        if parameter == "p_event":
            shifted = replace(params, p_event=params.p_event + shift)
        elif parameter in ("tpr", "tnr"):
            shifted = replace(params, **{parameter: getattr(params, parameter) + shift})
        else:
            condition = parse_condition(parameter[4:])
            accuracies = dict(params.accuracies)
            accuracies[condition] += shift
            shifted = replace(params, accuracies=accuracies)
        tree = build_tree(topology, shifted)
        if costs is None:
            return expected_accuracy(tree)
        return expected_risk(tree, costs)

    return (value_at(h) - value_at(-h)) / (2 * h)
