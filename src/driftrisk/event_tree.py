"""Probability-weighted outcome trees for deployed-model assessment.

Two topologies are supported:

* ``base``: the input is in-distribution or shifted, and the model is
  correct or incorrect given that.  Four leaves.
* ``rv``: a verdict layer sits between the event and the outcome.  A
  positive verdict routes the input to an intervention (necessary for a
  real shift, unnecessary for a false alarm); a negative verdict lets the
  model run, splitting correct/incorrect by the accuracy conditioned on
  (event, verdict).  Six leaves.

Traversal multiplies edge probabilities along each root-to-leaf path, so
expected accuracy and expected monetary risk are sums of path probability
times the leaf's correctness or cost.  Every traversal value is affine in
each individual parameter, which is what makes exact sensitivities cheap
(see :func:`sensitivity`).  A monitor evaluates one tree at a new event
rate for every verdict; :func:`compile_tree` flattens it once into a leaf
table whose evaluation repeats the traversal's arithmetic exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Union

import numpy as np

from .errors import ConfigurationError, ValidationError, check_number

# Probability bookkeeping tolerance: generous for trees of depth <= 3.
PROB_TOL = 1e-9

# Outcome labels shared by both topologies and by cost models.
CORRECT_DETECTION = "correct_detection"
FAILED_DETECTION = "failed_detection"
NECESSARY_INTERVENTION = "necessary_intervention"
UNNECESSARY_INTERVENTION = "unnecessary_intervention"

OUTCOMES = (
    CORRECT_DETECTION,
    FAILED_DETECTION,
    NECESSARY_INTERVENTION,
    UNNECESSARY_INTERVENTION,
)

INTERVENTION_MODES = ("correct", "excluded")


@dataclass(frozen=True)
class Condition:
    """An (event, verdict) cell of the outcome space.

    ``verdict`` is None in the base topology, where no detector verdict
    participates in the branching.
    """

    is_ood: bool
    verdict: bool | None = None

    @property
    def key(self) -> str:
        base = "ood" if self.is_ood else "ind"
        if self.verdict is None:
            return base
        return f"{base}_{'pos' if self.verdict else 'neg'}"

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.key


IND = Condition(is_ood=False)
OOD = Condition(is_ood=True)
IND_NEG = Condition(is_ood=False, verdict=False)
IND_POS = Condition(is_ood=False, verdict=True)
OOD_POS = Condition(is_ood=True, verdict=True)
OOD_NEG = Condition(is_ood=True, verdict=False)

BASE_CONDITIONS = (IND, OOD)
RV_CONDITIONS = (IND_NEG, IND_POS, OOD_POS, OOD_NEG)

_CONDITIONS_BY_KEY = {c.key: c for c in BASE_CONDITIONS + RV_CONDITIONS}


def parse_condition(key: str) -> Condition:
    """Map a condition key such as ``"ood_neg"`` back to a Condition."""
    try:
        return _CONDITIONS_BY_KEY[key]
    except KeyError:
        raise ValidationError(f"unknown condition key: {key!r}") from None


def _check_prob(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class TreeParams:
    """Parameters that fully determine either tree topology.

    ``accuracies`` maps conditions to the probability of a correct model
    prediction under that condition.  The base topology needs entries for
    ``ind`` and ``ood``; the rv topology needs all four (event, verdict)
    conditions accounted for, either with an accuracy or by listing the
    condition in ``data_free`` (no calibration data existed, so the
    condition is assigned probability weight zero in the tree).
    """

    p_event: float
    accuracies: Mapping[Condition, float]
    tpr: float | None = None
    tnr: float | None = None
    data_free: frozenset[Condition] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        _check_prob("p_event", self.p_event)
        if self.tpr is not None:
            _check_prob("tpr", self.tpr)
        if self.tnr is not None:
            _check_prob("tnr", self.tnr)
        for cond, acc in self.accuracies.items():
            _check_prob(f"accuracy[{cond.key}]", acc)

    def accuracy_for(self, condition: Condition) -> float | None:
        return self.accuracies.get(condition)

    def with_overrides(self, **changes) -> "TreeParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class Leaf:
    condition: Condition
    outcome: str
    correctness: float | None
    cost: float | None = None

    @property
    def label(self) -> str:
        return f"{self.condition.key}:{self.outcome}"


@dataclass(frozen=True)
class Node:
    label: str
    edges: tuple[tuple[float, Union["Node", Leaf]], ...]


@dataclass(frozen=True)
class EventTree:
    root: Node
    topology: str
    params: TreeParams


CostModel = Mapping[str, float]


def validate_costs(costs: CostModel) -> None:
    """Reject negative, non-finite or non-numeric cost entries."""
    if not isinstance(costs, Mapping):
        raise ValidationError(f"costs must be an object, got {costs!r}")
    for outcome, cost in costs.items():
        if check_number(f"cost for outcome {outcome!r}", cost) < 0:
            raise ValidationError(
                f"cost for outcome {outcome!r} must be a non-negative number, got {cost!r}"
            )


def iter_leaves(tree: EventTree) -> Iterator[tuple[float, Leaf]]:
    """Yield (path probability, leaf) pairs in construction order."""

    def walk(node: Union[Node, Leaf], prob: float) -> Iterator[tuple[float, Leaf]]:
        if isinstance(node, Leaf):
            yield prob, node
            return
        for edge_prob, child in node.edges:
            yield from walk(child, prob * edge_prob)

    yield from walk(tree.root, 1.0)


def _validate_tree(tree: EventTree) -> None:
    def walk(node: Union[Node, Leaf]) -> None:
        if isinstance(node, Leaf):
            return
        total = 0.0
        for prob, child in node.edges:
            if not 0.0 <= prob <= 1.0:
                raise ValidationError(
                    f"transition probability {prob!r} at node {node.label!r} outside [0, 1]"
                )
            total += prob
            walk(child)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(
                f"transition probabilities at node {node.label!r} sum to {total!r}, not 1"
            )

    walk(tree.root)
    mass = sum(prob for prob, _ in iter_leaves(tree))
    if abs(mass - 1.0) > PROB_TOL:
        raise ValidationError(f"leaf probabilities sum to {mass!r}, not 1")


def _correctness_leaves(
    condition: Condition, accuracy: float, costs: CostModel | None
) -> tuple[tuple[float, Leaf], tuple[float, Leaf]]:
    # The conditional accuracy lives on the edges; leaf correctness is the
    # outcome indicator so traversal never double-counts it.
    def priced(outcome: str) -> float | None:
        return None if costs is None else costs.get(outcome)

    return (
        (accuracy, Leaf(condition, CORRECT_DETECTION, 1.0, priced(CORRECT_DETECTION))),
        (1.0 - accuracy, Leaf(condition, FAILED_DETECTION, 0.0, priced(FAILED_DETECTION))),
    )


def build_base_tree(params: TreeParams, costs: CostModel | None = None) -> EventTree:
    """Two-level tree: event branch, then correct/incorrect per branch.

    Requires ``p_event`` plus accuracies for the ``ind`` and ``ood``
    conditions.  Raises ValidationError for out-of-range parameters and
    ConfigurationError for missing accuracies.
    """
    if costs is not None:
        validate_costs(costs)
    subtrees = []
    for condition, weight in ((IND, 1.0 - params.p_event), (OOD, params.p_event)):
        accuracy = params.accuracy_for(condition)
        if accuracy is None:
            raise ConfigurationError(
                f"base topology requires an accuracy for condition {condition.key!r}"
            )
        subtrees.append(
            (weight, Node(condition.key, _correctness_leaves(condition, accuracy, costs)))
        )
    tree = EventTree(Node("root", tuple(subtrees)), "base", params)
    _validate_tree(tree)
    return tree


def _intervention_leaf(condition: Condition, costs: CostModel | None) -> Leaf:
    outcome = NECESSARY_INTERVENTION if condition.is_ood else UNNECESSARY_INTERVENTION
    cost = None if costs is None else costs.get(outcome)
    # Correctness is deliberately unset: how an intervention counts toward
    # accuracy is chosen at traversal time, not baked into the tree.
    return Leaf(condition, outcome, None, cost)


def build_rv_tree(params: TreeParams, costs: CostModel | None = None) -> EventTree:
    """Three-level tree: event, detector verdict, then outcome.

    Positive-verdict branches end in intervention leaves; negative-verdict
    branches split correct/incorrect using the (event, verdict) conditional
    accuracy.  Every one of the four conditions must either have an
    accuracy, be declared data-free (its branch gets probability weight
    zero and the sibling verdict absorbs the mass), or be structurally
    unreachable under the given tpr/tnr.
    """
    if params.tpr is None or params.tnr is None:
        raise ConfigurationError("rv topology requires both tpr and tnr")
    if costs is not None:
        validate_costs(costs)

    def verdict_node(event: Condition, pos: Condition, neg: Condition) -> Node:
        pos_weight = (1.0 - params.tnr) if not event.is_ood else params.tpr
        neg_weight = params.tnr if not event.is_ood else (1.0 - params.tpr)

        def subtree(cond: Condition, weight: float):
            if cond in params.data_free:
                return None  # pruned: probability weight zero by declaration
            accuracy = params.accuracy_for(cond)
            if accuracy is None:
                if weight == 0.0:
                    return None  # unreachable, nothing to describe
                raise ConfigurationError(
                    f"no accuracy for reachable condition {cond.key!r} "
                    f"(weight {weight!r}); calibrate it or declare it data-free"
                )
            if cond.verdict:
                # The accuracy under a positive verdict must be accounted
                # for, but the leaf is an intervention, not a model run.
                return weight, _intervention_leaf(cond, costs)
            return weight, Node(cond.key, _correctness_leaves(cond, accuracy, costs))

        built = [subtree(pos, pos_weight), subtree(neg, neg_weight)]
        kept = [edge for edge in built if edge is not None]
        if not kept:
            raise ConfigurationError(
                f"both verdict branches under {event.key!r} are data-free"
            )
        if len(kept) == 1:
            # Sibling absorbs the pruned branch's mass: the condition was
            # declared impossible, so the remaining verdict is certain.
            kept = [(1.0, kept[0][1])]
        return Node(event.key, tuple(kept))

    root = Node(
        "root",
        (
            (1.0 - params.p_event, verdict_node(IND, IND_POS, IND_NEG)),
            (params.p_event, verdict_node(OOD, OOD_POS, OOD_NEG)),
        ),
    )
    tree = EventTree(root, "rv", params)
    _validate_tree(tree)
    return tree


def build_tree(topology: str, params: TreeParams, costs: CostModel | None = None) -> EventTree:
    if topology == "base":
        return build_base_tree(params, costs)
    if topology == "rv":
        return build_rv_tree(params, costs)
    raise ValidationError(f"unknown topology {topology!r}; expected 'base' or 'rv'")


def expected_accuracy(tree: EventTree, intervention_counts_as: str = "correct") -> float:
    """Probability of an acceptable outcome under the tree's parameters.

    Intervention leaves have no intrinsic correctness.  ``"correct"``
    (default) counts them as correct, on the reading that a flagged input
    handled by a human is not a silent error.  ``"excluded"`` drops them
    and renormalizes over the mass that reaches an accuracy-bearing leaf.
    """
    if intervention_counts_as not in INTERVENTION_MODES:
        raise ValidationError(
            f"intervention_counts_as must be one of {INTERVENTION_MODES}, "
            f"got {intervention_counts_as!r}"
        )
    numerator = 0.0
    covered = 0.0
    for prob, leaf in iter_leaves(tree):
        if leaf.correctness is None:
            if intervention_counts_as == "correct":
                numerator += prob
                covered += prob
            continue
        numerator += prob * leaf.correctness
        covered += prob
    if intervention_counts_as == "excluded":
        if covered <= 0.0:
            raise ConfigurationError(
                "no accuracy-bearing leaves are reachable; cannot renormalize"
            )
        return numerator / covered
    return numerator


def expected_risk(tree: EventTree, costs: CostModel | None = None) -> float:
    """Expected cost per input: sum over leaves of path probability x cost.

    ``costs`` overrides any costs embedded at construction.  Every leaf
    with nonzero path probability must be priced.
    """
    if costs is not None:
        validate_costs(costs)
    total = 0.0
    for prob, leaf in iter_leaves(tree):
        cost = leaf.cost
        if costs is not None and leaf.outcome in costs:
            cost = costs[leaf.outcome]
        if cost is None:
            if prob > 0.0:
                raise ConfigurationError(
                    f"reachable leaf {leaf.label!r} has no cost entry"
                )
            continue
        total += prob * cost
    return total


class CompiledTree:
    """A tree flattened into a leaf table for repeated evaluation.

    Only the two root edges (``1 - p_event`` and ``p_event``) depend on the
    event rate, so each leaf keeps its root branch (0 or 1), the tuple of
    deeper, rate-independent edge probabilities, its correctness and its
    cost.  :meth:`evaluate` then performs the floating-point operations of
    :func:`iter_leaves` followed by :func:`expected_accuracy` and
    :func:`expected_risk`, in the same order, so its results equal theirs
    bit for bit on a tree rebuilt at the new rate.  Given an array of rates
    it applies the same operations entry by entry (numpy rounds each one
    once, as Python does) and returns arrays.
    """

    __slots__ = ("leaves", "priced")

    def __init__(
        self,
        leaves: tuple[tuple[int, tuple[float, ...], float | None, float | None], ...],
        priced: bool,
    ) -> None:
        self.leaves = leaves
        self.priced = priced

    def evaluate(
        self, p_event: float | np.ndarray, intervention_counts_as: str = "correct"
    ) -> tuple[float | np.ndarray, float | np.ndarray | None]:
        """Expected accuracy and expected risk (None unless priced) at a rate.

        ``p_event`` is one rate or an array of rates; the results follow it.
        """
        in_range = (p_event >= 0.0) & (p_event <= 1.0)
        if not (in_range.all() if isinstance(in_range, np.ndarray) else in_range):
            raise ValidationError(f"p_event must be in [0, 1], got {p_event!r}")
        if intervention_counts_as == "correct":
            count_interventions = True
        elif intervention_counts_as == "excluded":
            count_interventions = False
        else:
            raise ValidationError(
                f"intervention_counts_as must be one of {INTERVENTION_MODES}, "
                f"got {intervention_counts_as!r}"
            )
        # The reference walk starts from 1.0 and multiplies the root edge in.
        roots = (1.0 * (1.0 - p_event), 1.0 * p_event)
        numerator = 0.0
        covered = 0.0
        total = 0.0
        for branch, edges, correctness, cost in self.leaves:
            prob = roots[branch]
            for edge in edges:
                prob = prob * edge
            if correctness is None:
                if count_interventions:
                    numerator += prob
                    covered += prob
            else:
                numerator += prob * correctness
                covered += prob
            if cost is not None:
                total += prob * cost
        if not count_interventions:
            uncovered = covered <= 0.0
            if uncovered.any() if isinstance(uncovered, np.ndarray) else uncovered:
                raise ConfigurationError(
                    "no accuracy-bearing leaves are reachable; cannot renormalize"
                )
            numerator = numerator / covered
        return numerator, (total if self.priced else None)


def compile_tree(tree: EventTree, priced: bool = False) -> CompiledTree:
    """Flatten a built tree into a :class:`CompiledTree`, once per configuration.

    With ``priced`` the table also yields expected risk from the costs
    embedded at construction, and any leaf that some event rate can reach
    (its rate-independent path weight is above zero) must carry a cost:
    otherwise ConfigurationError is raised here, not at the first rate
    that reaches it.
    """
    if len(tree.root.edges) != 2:
        raise ValidationError("a compiled tree needs exactly two root edges")
    leaves = []

    def walk(node: Union[Node, Leaf], branch: int, edges: tuple[float, ...]) -> None:
        if isinstance(node, Node):
            for edge_prob, child in node.edges:
                walk(child, branch, edges + (edge_prob,))
            return
        if priced and node.cost is None:
            weight = 1.0
            for edge in edges:
                weight = weight * edge
            if weight > 0.0:
                raise ConfigurationError(
                    f"reachable leaf {node.label!r} has no cost entry"
                )
        leaves.append((branch, edges, node.correctness, node.cost if priced else None))

    for branch, (_, child) in enumerate(tree.root.edges):
        walk(child, branch, ())
    return CompiledTree(tuple(leaves), priced)


def leaf_distribution(tree: EventTree) -> dict[str, float]:
    """Path probability per leaf, keyed by ``condition:outcome``."""
    return {leaf.label: prob for prob, leaf in iter_leaves(tree)}


_BASE_PARAMETERS = ("p_event", "acc:ind", "acc:ood")
_RV_PARAMETERS = ("p_event", "tpr", "tnr", "acc:ind_neg", "acc:ood_neg")


def tree_parameters(tree: EventTree) -> tuple[str, ...]:
    """Parameter ids that the tree's traversal actually depends on."""
    return _BASE_PARAMETERS if tree.topology == "base" else _RV_PARAMETERS


def _rebuild_with(tree: EventTree, parameter: str, value: float) -> EventTree:
    params = tree.params
    if parameter == "p_event":
        params = params.with_overrides(p_event=value)
    elif parameter in ("tpr", "tnr"):
        params = params.with_overrides(**{parameter: value})
    elif parameter.startswith("acc:"):
        condition = parse_condition(parameter[4:])
        accuracies = dict(params.accuracies)
        accuracies[condition] = value
        params = params.with_overrides(accuracies=accuracies)
    else:
        raise ValidationError(f"unknown parameter id {parameter!r}")
    return build_tree(tree.topology, params)


def sensitivity(
    tree: EventTree, parameter: str, costs: CostModel | None = None
) -> float:
    """Exact partial derivative of the traversal value w.r.t. a parameter.

    With ``costs`` the derivative is of expected risk, otherwise of
    expected accuracy (interventions counted as correct).  The traversal
    value is affine in each parameter, so evaluating at the parameter set
    to 1 and to 0 and differencing yields the exact derivative.
    """
    if parameter not in tree_parameters(tree):
        raise ValidationError(
            f"parameter {parameter!r} is not used by the {tree.topology!r} topology; "
            f"valid ids: {tree_parameters(tree)}"
        )

    def value(t: EventTree) -> float:
        if costs is not None:
            return expected_risk(t, costs)
        return expected_accuracy(t)

    return value(_rebuild_with(tree, parameter, 1.0)) - value(
        _rebuild_with(tree, parameter, 0.0)
    )


def tree_outline(tree: EventTree) -> str:
    """Human-readable indented rendering of the tree, for reports."""
    lines = [f"event tree [{tree.topology}]  p_event={tree.params.p_event:.9g}"]

    def walk(node: Union[Node, Leaf], prefix: str, prob: float, depth: int) -> None:
        indent = "  " * depth
        if isinstance(node, Leaf):
            parts = [f"{indent}{prefix}-> {node.label}  p={prob:.9g}"]
            if node.correctness is not None:
                parts.append(f"correctness={node.correctness:.9g}")
            if node.cost is not None:
                parts.append(f"cost={node.cost:.9g}")
            lines.append("  ".join(parts))
            return
        lines.append(f"{indent}{prefix}{node.label}")
        for edge_prob, child in node.edges:
            walk(child, f"[{edge_prob:.9g}] ", prob * edge_prob, depth + 1)

    walk(tree.root, "", 1.0, 0)
    return "\n".join(lines)
