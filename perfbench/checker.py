"""Output checks, independent of the code paths they check.

Monitor rows are recomputed from the verdict input alone: the window mean
(decay-weighted when decay < 1), the Rogan-Gladen correction, then the
reference ``event_tree.build_tree`` with ``expected_accuracy`` and
``expected_risk``.  Values are compared at the 9 significant digits the
program prints.  Sweep reports are checked for their row counts, for
refusals exactly where TPR + TNR - 1 <= 0.05, and against closed-form
values where the tree gives one.

Every check returns a list of problems; an empty list means the output
passed.  A monitor check reports one problem per wrong or missing row.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from driftrisk.event_tree import (
    TreeParams,
    build_rv_tree,
    build_tree,
    expected_accuracy,
    expected_risk,
    parse_condition,
)

J_FLOOR = 0.05
EXIT_OK = 0
EXIT_ALERT = 3

# Printing at 9 significant digits rounds by at most 5e-9 relative.
REL_TOL = 6e-9
ABS_TOL = 1e-12

# How far a risk-curve crossing read off the sweep may sit from the
# reference tree's exact crossing: about five standard deviations of the
# crossings of the case-study curve over seeds 1-16 (0.009 and 0.014 for
# the estimated rv and base crossings, 0.028 and 0.015 for the actual ones).
CROSSING_TOL = {"estimated": 0.07, "actual": 0.15}

ASSESSMENT_COLUMNS = (
    "index", "verdict", "raw_mean", "p_hat", "clamped", "fill_fraction",
    "using_prior", "expected_accuracy", "expected_risk", "alert",
)
CHECKED_FIELDS = ASSESSMENT_COLUMNS[2:]
TRACE_FIELDS = ("p_hat", "expected_accuracy", "expected_risk", "alert")
BOOL_FIELDS = {"verdict", "clamped", "using_prior", "alert"}


def close(expected: float | None, got: float | None) -> bool:
    if expected is None or got is None:
        return expected is got
    return math.isclose(expected, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class ReferenceTree:
    """Expected accuracy and risk of a monitor config, by the reference tree."""

    def __init__(self, monitor: dict) -> None:
        self.monitor = monitor
        cells = monitor["accuracies"]
        self.accuracies = {
            parse_condition(key): cell["accuracy"]
            for key, cell in cells.items()
            if cell.get("accuracy") is not None
        }
        self.data_free = frozenset(
            parse_condition(key) for key, cell in cells.items() if cell.get("support", 0) == 0
        )
        self.profile = monitor["profile"]
        self.costs = monitor.get("costs")
        self._cache: dict[float, tuple[float, float | None]] = {}

    def tree(self, p_event: float, topology: str | None = None):
        params = TreeParams(
            p_event=p_event,
            accuracies=self.accuracies,
            tpr=self.profile["tpr"],
            tnr=self.profile["tnr"],
            data_free=self.data_free,
        )
        return build_tree(topology or self.monitor["topology"], params, self.costs)

    def values(self, p_event: float) -> tuple[float, float | None]:
        if p_event not in self._cache:
            tree = self.tree(p_event)
            accuracy = expected_accuracy(
                tree, self.monitor.get("intervention_counts_as", "correct")
            )
            risk = expected_risk(tree) if self.costs is not None else None
            self._cache[p_event] = (accuracy, risk)
        return self._cache[p_event]


def window_means(verdicts: np.ndarray, capacity: int, decay: float) -> np.ndarray:
    """Positive-verdict mean of the last ``capacity`` verdicts at every row."""
    v = np.asarray(verdicts, dtype=np.int64)
    n = len(v)
    fill = np.minimum(np.arange(1, n + 1), capacity)
    if decay == 1.0:
        cum = np.concatenate(([0], np.cumsum(v)))
        return (cum[1:] - cum[np.arange(1, n + 1) - fill]) / fill
    weights = decay ** np.arange(capacity, dtype=float)  # newest verdict first
    totals = np.cumsum(weights)
    means = np.empty(n)
    for i in range(n):
        window = v[i + 1 - fill[i] : i + 1][::-1]
        means[i] = np.dot(window, weights[: fill[i]]) / totals[fill[i] - 1]
    return means


def reference_rows(verdicts: np.ndarray, monitor: dict) -> dict[str, list]:
    """Column-wise expected assessments for a verdict stream."""
    capacity = monitor.get("trace_capacity", 100)
    min_fill = monitor.get("min_fill") or capacity
    tpr, tnr = monitor["profile"]["tpr"], monitor["profile"]["tnr"]
    prior = monitor["prior_rate"]
    threshold = monitor.get("risk_threshold")
    raw = window_means(verdicts, capacity, monitor.get("decay", 1.0))
    tree = ReferenceTree(monitor)
    rows: dict[str, list] = {name: [] for name in ASSESSMENT_COLUMNS}
    for i, verdict in enumerate(verdicts):
        fill = min(i + 1, capacity)
        using_prior = fill < min_fill
        if using_prior:
            p_hat, clamped = prior, False
        else:
            pre = (float(raw[i]) - (1.0 - tnr)) / (tpr + tnr - 1.0)
            p_hat = min(1.0, max(0.0, pre))
            clamped = p_hat != pre
        accuracy, risk = tree.values(p_hat)
        for name, value in (
            ("index", i),
            ("verdict", bool(verdict)),
            ("raw_mean", float(raw[i])),
            ("p_hat", p_hat),
            ("clamped", clamped),
            ("fill_fraction", fill / capacity),
            ("using_prior", using_prior),
            ("expected_accuracy", accuracy),
            ("expected_risk", risk),
            ("alert", threshold is not None and risk is not None and risk > threshold),
        ):
            rows[name].append(value)
    return rows


def require_coverage(rows: dict[str, list]) -> None:
    """The stream must reach warm-up, both clamps and an alert."""
    clamped = [p for p, c in zip(rows["p_hat"], rows["clamped"]) if c]
    covered = {
        "warm-up": any(rows["using_prior"]),
        "clamp at 1": 1.0 in clamped,
        "clamp at 0": 0.0 in clamped,
        "alert": any(rows["alert"]),
    }
    missing = [name for name, seen in covered.items() if not seen]
    if missing:
        raise RuntimeError(f"generated verdict stream never reaches: {', '.join(missing)}")


def expected_rc(rows: dict[str, list]) -> int:
    return EXIT_ALERT if any(rows["alert"]) else EXIT_OK


def _parse_csv_rows(blob: bytes, columns: tuple[str, ...]) -> list[dict | None]:
    lines = blob.decode("utf-8").splitlines()
    if not lines or tuple(lines[0].split(",")) != columns:
        raise ValueError(f"header is not {','.join(columns)}")
    parsed = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(columns):
            parsed.append(None)
            continue
        row = {}
        for name, text in zip(columns, fields):
            if name in BOOL_FIELDS or name in ("is_ood", "batch_correct"):
                row[name] = {"1": True, "0": False}.get(text)
            elif name == "index":
                row[name] = int(text) if text.isdigit() else None
            else:
                row[name] = float(text) if text else None
        parsed.append(row)
    return parsed


def _parse_structured_rows(blob: bytes) -> list[dict | None]:
    parsed = []
    for line in blob.decode("utf-8").splitlines():
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            row = None
        parsed.append(row if isinstance(row, dict) else None)
    return parsed


def compare_rows(parsed: list, expected: dict[str, list], fields) -> list[str]:
    """One problem per row that is missing, extra, or differs in a field."""
    n = len(expected["index"])
    problems = []
    for i in range(max(n, len(parsed))):
        if i >= n:
            problems.append(f"row {i}: unexpected extra row")
            continue
        row = parsed[i] if i < len(parsed) else None
        if row is None:
            problems.append(f"row {i}: missing or malformed")
            continue
        if row.get("index") != i or row.get("verdict") != expected["verdict"][i]:
            problems.append(f"row {i}: index or verdict does not echo the input")
            continue
        for name in fields:
            want, got = expected[name][i], row.get(name)
            same = got is want if name in BOOL_FIELDS else close(want, got)
            if not same:
                problems.append(f"row {i}: {name} is {got!r}, expected {want!r}")
                break
    return problems


def check_assessments(blob: bytes, expected: dict[str, list], fmt: str) -> list[str]:
    """Check ``driftrisk monitor`` output in csv or structured format."""
    if fmt == "csv":
        try:
            parsed = _parse_csv_rows(blob, ASSESSMENT_COLUMNS)
        except ValueError as exc:
            return [f"assessments: {exc}"] * len(expected["index"])
    else:
        parsed = _parse_structured_rows(blob)
    return compare_rows(parsed, expected, CHECKED_FIELDS)


TRACE_COLUMNS = (
    "index", "is_ood", "verdict", "batch_accuracy", "batch_correct",
    "p_hat", "expected_accuracy", "expected_risk", "alert",
)


def check_trace(blob: bytes, monitor: dict, horizon: int) -> list[str]:
    """A ``simulate`` trace: one row per batch, assessments match its verdicts."""
    try:
        parsed = _parse_csv_rows(blob, TRACE_COLUMNS)
    except ValueError as exc:
        return [f"trace: {exc}"]
    if len(parsed) != horizon or any(row is None for row in parsed):
        return [f"trace: {len(parsed)} rows, expected {horizon} well-formed rows"]
    verdicts = np.array([row["verdict"] for row in parsed], dtype=np.int8)
    problems = compare_rows(parsed, reference_rows(verdicts, monitor), TRACE_FIELDS)
    return [f"trace {p}" for p in problems]


def _read_report(blobs: list[bytes]) -> tuple[list[dict], dict]:
    rows = list(csv.DictReader(io.StringIO(blobs[0].decode("utf-8"))))
    return rows, json.loads(blobs[1])


def lattice(step: float, ba_floor: float) -> list[tuple[float, float]]:
    """The (tpr, tnr) grid a sweep with ``grid_step`` must cover."""
    n = round(1.0 / step)
    return [
        (round(i / n, 12), round(j / n, 12))
        for i in range(n + 1)
        for j in range(n + 1)
        if i + j > 2 * n * ba_floor + 1e-9
    ]


def check_error_report(
    blobs: list[bytes],
    kind: str,
    profiles: list,
    rates: list,
    repeats: int,
    seeds: int,
) -> list[str]:
    """rate-error / accuracy-error: every cell present, refusals exactly right."""
    rows, metadata = _read_report(blobs)
    problems = []
    if metadata.get("kind") != kind:
        problems.append(f"{kind}: metadata kind is {metadata.get('kind')!r}")
    expected_rows = repeats * len(profiles) * len(rates)
    if len(rows) != expected_rows:
        problems.append(f"{kind}: {len(rows)} rows, expected {expected_rows}")
    wanted = {(float(t), float(f)) for t, f in profiles}
    seen = set()
    for i, row in enumerate(rows):
        tpr, tnr = float(row["tpr"]), float(row["tnr"])
        seen.add((tpr, tnr))
        refuse = tpr + tnr - 1.0 <= J_FLOOR
        if row["refused"] != ("1" if refuse else "0"):
            problems.append(f"{kind} row {i}: refused={row['refused']} at J={tpr + tnr - 1:.3g}")
        elif refuse and row["mae"] != "":
            problems.append(f"{kind} row {i}: a refused cell reports an error")
        elif not refuse and (int(row["n"]) != seeds or not float(row["mae"]) >= 0.0):
            problems.append(f"{kind} row {i}: n={row['n']} mae={row['mae']}")
    if seen != wanted:
        problems.append(f"{kind}: profiles in the report differ from the grid")
    return problems


def check_risk_curve(blobs: list[bytes], monitor: dict, n_rates: int) -> list[str]:
    """Point rows for every rate; crossings near the reference tree's."""
    rows, metadata = _read_report(blobs)
    problems = []
    points = [row for row in rows if row["kind"] == "point"]
    if len(points) != n_rates:
        problems.append(f"risk-curve: {len(points)} points, expected {n_rates}")
    threshold = monitor["risk_threshold"]
    tree = ReferenceTree(monitor)
    for topology in ("rv", "base"):
        low, high = (expected_risk(tree.tree(p, topology)) for p in (0.0, 1.0))
        exact = (threshold - low) / (high - low)
        for source, tol in CROSSING_TOL.items():
            name = f"{topology}_{source}"
            crossing = metadata.get("crossings", {}).get(name)
            if crossing is None or abs(crossing - exact) > tol:
                problems.append(f"risk-curve: {name} crossing {crossing!r}, expected {exact:.3f}")
            reported = [r["rate"] for r in rows if r["kind"] == f"crossing_{name}"]
            if crossing is not None and (len(reported) != 1 or not close(crossing, float(reported[0]))):
                problems.append(f"risk-curve: report row for {name} disagrees with metadata")
    return problems


def check_cba(blobs: list[bytes], monitor: dict, sweep: dict) -> list[str]:
    """Every grid point's risk and both marginals from the reference rv tree."""
    rows, metadata = _read_report(blobs)
    tree = ReferenceTree(monitor)
    tpr, tnr = tree.profile["tpr"], tree.profile["tnr"]

    def risk(dc: float = 0.0, dd: float = 0.0, **overrides) -> float:
        accuracies = {c: min(1.0, a + dc) for c, a in tree.accuracies.items()}
        accuracies.update(overrides.pop("accuracies", {}))
        params = TreeParams(
            p_event=sweep["operating_rate"],
            accuracies=accuracies,
            tpr=overrides.get("tpr", min(1.0, tpr + dd)),
            tnr=overrides.get("tnr", min(1.0, tnr + dd)),
            data_free=tree.data_free,
        )
        return expected_risk(build_rv_tree(params), monitor["costs"])

    problems = []
    grid = [(dc, dd) for dc in sweep["classifier_deltas"] for dd in sweep["detector_deltas"]]
    if len(rows) != len(grid):
        problems.append(f"cba: {len(rows)} rows, expected {len(grid)}")
    for row, (dc, dd) in zip(rows, grid):
        if not (
            close(dc, float(row["classifier_delta"]))
            and close(dd, float(row["detector_delta"]))
            and close(risk(dc, dd), float(row["risk"]))
        ):
            problems.append(f"cba: row at ({dc}, {dd}) is {row}")
            break
    # Risk is affine in each parameter, so the secant over [0, 1] is the
    # derivative; only the negative-verdict accuracies enter the rv tree.
    marginals = {
        "detector_marginal": sum(
            risk(**{name: 1.0}) - risk(**{name: 0.0}) for name in ("tpr", "tnr")
        ),
        "classifier_marginal": sum(
            risk(accuracies={c: 1.0}) - risk(accuracies={c: 0.0})
            for c in (parse_condition("ind_neg"), parse_condition("ood_neg"))
        ),
    }
    for name, want in marginals.items():
        got = metadata.get(name)
        if not isinstance(got, float) or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"cba: {name} is {got!r}, expected {want!r}")
    return problems
