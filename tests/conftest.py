"""Shared fixtures, builders, and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import strategies as st

from crimeminer.classify import (
    CLASSES, FEATURES, Dataset, DecisionTree, FeatureVector, TreeLeaf, TreeSplit, feature_of,
)
from crimeminer.growth import XLog2X, best_split
from crimeminer.ingestion import raw_from_json_dict
from crimeminer.preprocess import (
    MONTH_NAMES,
    TIME_BIN_ORDER,
    WEEKDAY_NAMES,
    CrimeCategory,
    UnifiedCrimeRecord,
    bin_time,
    read_unified_jsonl,
    unified_from_json_dict,
)

DATA_DIR = Path(__file__).parent / "data"

LOCATIONS = ("five-points", "cbd", "capitol-hill", "baker", "montbello", "wellshire")


def make_record(
    crime_type=CrimeCategory.THEFT,
    month="June",
    day="Friday",
    hour=21,
    location="five-points",
    year=2014,
) -> UnifiedCrimeRecord:
    return UnifiedCrimeRecord(
        crime_type=crime_type,
        month=month,
        day=day,
        time=bin_time(hour),
        location=location,
        year=year,
        hour=hour,
    )


@st.composite
def unified_records(draw) -> UnifiedCrimeRecord:
    return make_record(
        crime_type=draw(st.sampled_from(list(CrimeCategory))),
        month=draw(st.sampled_from(MONTH_NAMES)),
        day=draw(st.sampled_from(WEEKDAY_NAMES)),
        hour=draw(st.integers(0, 23)),
        location=draw(st.sampled_from(LOCATIONS)),
        year=draw(st.sampled_from((2013, 2014, 2015))),
    )


datasets = st.lists(unified_records(), min_size=1, max_size=60)


@pytest.fixture(scope="session")
def synthetic_dataset() -> list[UnifiedCrimeRecord]:
    with open(DATA_DIR / "synthetic_crimes.jsonl", encoding="utf-8") as fp:
        return read_unified_jsonl(fp)


# --- independent oracles ---------------------------------------------------

def exhaustive_frequent(transactions, min_sup, max_size=None) -> dict[frozenset, int]:
    """Support filter over every possible itemset of at most ``max_size``
    items (any size by default), by brute enumeration."""
    universe = sorted({item for t in transactions for item in t})
    n = len(transactions)
    frequent: dict[frozenset, int] = {}
    for size in range(1, min(len(universe), max_size or len(universe)) + 1):
        for combo in itertools.combinations(universe, size):
            itemset = frozenset(combo)
            count = sum(1 for t in transactions if itemset <= frozenset(t))
            if count / n >= min_sup:
                frequent[itemset] = count
    return frequent


def brute_force_posterior(train, x: FeatureVector, alpha: float) -> dict[CrimeCategory, float]:
    """Direct Bayes evaluation in probability space with the same smoothing.

    joint(c) = P(c) * prod_f (count(v,c,f) + alpha) / (count_c + alpha*(|V_f|+1)),
    normalized over classes. Counts are recomputed by scanning, independent of
    the model's tables.
    """
    n = len(train)
    vocab = {f: {feature_of(r, f) for r in train} for f in FEATURES}
    joint: dict[CrimeCategory, float] = {}
    for c in CrimeCategory:
        members = [r for r in train if r.crime_type == c]
        probability = len(members) / n
        for f in FEATURES:
            denominator = len(members) + alpha * (len(vocab[f]) + 1)
            value = feature_of(x, f)
            if value in vocab[f]:
                numerator = sum(1 for r in members if feature_of(r, f) == value) + alpha
            else:
                numerator = alpha
            probability *= numerator / denominator if denominator > 0 else 0.0
        joint[c] = probability
    total = sum(joint.values())
    if total == 0.0:
        return {c: 1.0 / len(joint) for c in joint}
    return {c: p / total for c, p in joint.items()}


def listed_predicates(records) -> list[tuple[str, str]]:
    """Every ``feature == value`` predicate of ``records``, in ``FEATURES``
    order, then canonical value order (locations alphabetically)."""
    orders = {"month": MONTH_NAMES, "day": WEEKDAY_NAMES,
              "time": tuple(b.value for b in TIME_BIN_ORDER)}
    listed = []
    for feature in FEATURES:
        present = {feature_of(r, feature) for r in records}
        values = [v for v in orders[feature] if v in present] if feature in orders else sorted(present)
        listed.extend((feature, value) for value in values)
    return listed


def class_independent(records, feature, value) -> bool:
    """Whether ``feature == value`` splits ``records`` with equal class
    proportions on both sides, checked in integers."""
    labels = [r.crime_type for r in records]
    true_side = [r.crime_type for r in records if feature_of(r, feature) == value]
    return all(true_side.count(c) * len(labels) == len(true_side) * labels.count(c) for c in set(labels))


def brute_force_best_split(records):
    """The tree's best split, by listing every predicate and partitioning.

    Every predicate of ``listed_predicates`` gets its information gain from
    plain class counts of the two explicit partitions; a partition independent
    of the class has gain exactly 0. Returns every ``(gain, feature, value)``
    within 1e-12 of the largest gain, in listing order, or ``[]`` when no gain
    is positive.
    """
    def bits(labels):
        return -sum(k / len(labels) * math.log2(k / len(labels))
                    for k in (labels.count(c) for c in set(labels)))

    labels = [r.crime_type for r in records]
    n = len(records)
    listed = []
    for feature, value in listed_predicates(records):
        true_side = [r.crime_type for r in records if feature_of(r, feature) == value]
        false_side = [r.crime_type for r in records if feature_of(r, feature) != value]
        if class_independent(records, feature, value):
            gain = 0.0
        else:
            children = len(true_side) * bits(true_side) + len(false_side) * bits(false_side)
            gain = bits(labels) - children / n
        listed.append((gain, feature, value))
    top = max(gain for gain, _, _ in listed)
    return [entry for entry in listed if entry[0] >= top - 1e-12] if top > 0.0 else []


def reference_dt_train(records, max_leaves: int) -> DecisionTree:
    """``dt_train`` without histogram subtraction: every node lists its own
    rows and counts its histogram from them, and ``best_split`` scores it."""
    data = Dataset.from_records(records)

    def grow(rows, creation):
        histogram = [[0] * len(CLASSES)] + [[0] * (len(data.values[f]) * len(CLASSES)) for f in FEATURES]
        for i in rows:
            histogram[0][data.labels[i]] += 1
            for counts, f in zip(histogram[1:], FEATURES):
                counts[data.joint[f][i]] += 1
        return {"rows": rows, "histogram": histogram, "creation": creation,
                "best": best_split(data, histogram, XLog2X()), "children": None}

    root = grow(list(range(len(records))), 0)
    frontier, creation = [root], 0
    while len(frontier) < max_leaves:
        splittable = [g for g in frontier if g["best"] is not None]
        if not splittable:
            break
        node = max(splittable, key=lambda g: (g["best"][0], -g["creation"]))
        gain, feature, value = node["best"]
        column, code = data.columns[feature], data.codes[feature][value]
        node["children"] = (feature, value, gain,
                            grow([i for i in node["rows"] if column[i] == code], creation + 1),
                            grow([i for i in node["rows"] if column[i] != code], creation + 2))
        creation += 2
        frontier.remove(node)
        frontier.extend(node["children"][3:])

    def materialize(node):
        if node["children"] is None:
            classes = node["histogram"][0]
            majority = min(range(len(CLASSES)), key=lambda label: (-classes[label], label))
            return TreeLeaf({c: n for c, n in zip(CLASSES, classes) if n}, CLASSES[majority])
        feature, value, gain, if_true, if_false = node["children"]
        return TreeSplit(feature, value, gain, materialize(if_true), materialize(if_false))

    return DecisionTree(materialize(root), max_leaves)


def _reference_read_jsonl(fp, decode, kind):
    """The JSON Lines loop with one plain ``json.loads`` per line."""
    records = []
    for line_number, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            records.append(decode(json.loads(line)))
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise ValueError(f"bad {kind} record on line {line_number}: {exc}") from exc
    return records


def reference_read_unified_jsonl(fp) -> list[UnifiedCrimeRecord]:
    """``read_unified_jsonl`` with one plain ``json.loads`` per line."""
    return _reference_read_jsonl(fp, unified_from_json_dict, "unified")


def reference_read_raw_jsonl(fp):
    """``read_raw_jsonl`` with one plain ``json.loads`` per line and no memo."""
    return _reference_read_jsonl(fp, raw_from_json_dict, "raw")
