"""Compiled leaf table against the reference tree traversals.

The compiled evaluator must reproduce ``expected_accuracy`` and
``expected_risk`` of a tree rebuilt at the same rate bit for bit (``==``,
never approx), for both topologies, both intervention modes, data-free
conditions and any rate the tree was compiled at.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftrisk.errors import ConfigurationError
from driftrisk.event_tree import (
    IND,
    IND_NEG,
    IND_POS,
    INTERVENTION_MODES,
    OOD,
    OOD_NEG,
    OOD_POS,
    OUTCOMES,
    TreeParams,
    build_tree,
    compile_tree,
    expected_accuracy,
    expected_risk,
)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, database=None)

# Exact endpoints and halves next to arbitrary values in [0, 1].
probabilities = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
costs = st.fixed_dictionaries(
    {outcome: st.floats(min_value=0.0, max_value=1e4, allow_nan=False) for outcome in OUTCOMES}
)
# At most one data-free verdict branch per event; both would be refused.
data_free_sets = st.tuples(
    st.sampled_from([(), (IND_POS,), (IND_NEG,)]),
    st.sampled_from([(), (OOD_POS,), (OOD_NEG,)]),
).map(lambda pair: frozenset(pair[0] + pair[1]))


@st.composite
def tree_cases(draw):
    topology = draw(st.sampled_from(["base", "rv"]))
    accuracies = {
        condition: draw(probabilities)
        for condition in (IND, OOD, IND_NEG, IND_POS, OOD_NEG, OOD_POS)
    }

    tpr, tnr = draw(probabilities), draw(probabilities)
    data_free = draw(data_free_sets) if topology == "rv" else frozenset()

    def params(p_event: float) -> TreeParams:
        return TreeParams(
            p_event=p_event,
            accuracies=accuracies,
            tpr=tpr,
            tnr=tnr,
            data_free=data_free,
        )

    return topology, params


def reference(topology, params, cost_model, mode):
    """(accuracy, risk) of a fresh tree; an exception stands for its type."""
    tree = build_tree(topology, params, cost_model)
    try:
        accuracy = expected_accuracy(tree, mode)
    except ConfigurationError:
        accuracy = ConfigurationError
    risk = expected_risk(tree) if cost_model is not None else None
    return accuracy, risk


def compiled(table, p_event, mode):
    try:
        return table.evaluate(p_event, mode)
    except ConfigurationError:
        return ConfigurationError, None


@PROPERTY_SETTINGS
@given(
    case=tree_cases(),
    compiled_at=probabilities,
    rates=st.lists(probabilities, min_size=1, max_size=5),
    cost_model=st.one_of(st.none(), costs),
    mode=st.sampled_from(INTERVENTION_MODES),
)
def test_evaluate_equals_fresh_traversal(case, compiled_at, rates, cost_model, mode):
    topology, params = case
    table = compile_tree(
        build_tree(topology, params(compiled_at), cost_model), priced=cost_model is not None
    )
    for p_event in rates:
        expected = reference(topology, params(p_event), cost_model, mode)
        actual = compiled(table, p_event, mode)
        if expected[0] is ConfigurationError:
            assert actual[0] is ConfigurationError
        else:
            assert actual == expected


@PROPERTY_SETTINGS
@given(
    case=tree_cases(),
    compiled_at=probabilities,
    cost_model=costs,
    dropped=st.sets(st.sampled_from(OUTCOMES), min_size=1),
    rates=st.lists(probabilities, min_size=1, max_size=5),
)
def test_missing_cost_fails_at_compile_exactly_when_some_rate_reaches_it(
    case, compiled_at, cost_model, dropped, rates
):
    topology, params = case
    partial = {k: v for k, v in cost_model.items() if k not in dropped}
    tree = build_tree(topology, params(compiled_at), partial)

    def raises_at(p_event: float) -> bool:
        try:
            expected_risk(build_tree(topology, params(p_event), partial))
        except ConfigurationError:
            return True
        return False

    try:
        table = compile_tree(tree, priced=True)
    except ConfigurationError as exc:
        assert "has no cost entry" in str(exc)
        # Every rate reaches at least one of the two root branches fully.
        assert raises_at(0.0) or raises_at(1.0)
        return
    for p_event in rates:
        assert not raises_at(p_event)
        _, risk = table.evaluate(p_event)
        assert risk == expected_risk(build_tree(topology, params(p_event), partial))


def test_unpriced_table_reports_no_risk():
    params = TreeParams(p_event=0.3, accuracies={IND: 0.9, OOD: 0.33})
    table = compile_tree(build_tree("base", params))
    assert table.evaluate(0.3)[1] is None


@pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
def test_rate_outside_unit_interval_rejected(bad):
    params = TreeParams(p_event=0.3, accuracies={IND: 0.9, OOD: 0.33})
    table = compile_tree(build_tree("base", params))
    with pytest.raises(ValueError, match="p_event"):
        table.evaluate(bad)


def test_unknown_intervention_mode_rejected():
    params = TreeParams(p_event=0.3, accuracies={IND: 0.9, OOD: 0.33})
    table = compile_tree(build_tree("base", params))
    with pytest.raises(ValueError, match="intervention_counts_as"):
        table.evaluate(0.3, "ignored")
