"""Crime-type classifiers over the four categorical features.

Two predictors share the (month, day, time, location) feature space:

* a categorical Naive Bayes with Laplace-smoothed per-feature conditional
  tables and a reserved slot for values unseen in training, and
* a best-first binary decision tree using information gain, capped at a
  maximum number of leaves.

Both are deterministic: identical training data and parameters produce
byte-identical serialized models.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import Hashable, Iterable, Mapping, Sequence, TextIO, Union

from .errors import AllZeroCountsError, DatasetTooSmallError, EmptyTrainingSetError
from .vocab import (
    ATTRIBUTES, MONTH_RANK, WEEKDAY_RANK, CrimeCategory, TimeBin, UnifiedCrimeRecord,
)

FEATURES = ("month", "day", "time", "location")

CLASSES = tuple(CrimeCategory)
_crime_type = attrgetter("crime_type")


@dataclass(frozen=True)
class FeatureVector:
    """Prediction-time crime features.

    Month, day, and time bin must be canonical values; the location may be
    any non-empty string (unseen locations are handled by smoothing in the
    Bayes model and by equality predicates failing in the tree).
    """

    month: str
    day: str
    time: TimeBin
    location: str

    def __post_init__(self):
        if self.month not in MONTH_RANK:
            raise ValueError(f"unknown month {self.month!r}")
        if self.day not in WEEKDAY_RANK:
            raise ValueError(f"unknown weekday {self.day!r}")
        if not isinstance(self.time, TimeBin):
            raise ValueError(f"time must be a TimeBin, got {self.time!r}")
        if not self.location:
            raise ValueError("location must be non-empty")


# What the predictors read: a query vector (checked when built) or a unified
# record (checked when read from JSONL).
Features = Union[FeatureVector, UnifiedCrimeRecord]


def feature_of(x: Features, feature: str) -> str:
    return ATTRIBUTES[feature].read(x)


# --- train/test splitting ----------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Seeded shuffle-split parameters."""

    train_fraction: float = 0.8
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.train_fraction < 1:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def split_train_test(dataset: Sequence, spec: SplitSpec) -> tuple[list, list]:
    """Partition by a seeded pseudo-random permutation.

    The train size is round-half-up(train_fraction * n); both sides keep the
    original dataset order. The same seed always yields the same partition.
    """
    n = len(dataset)
    if n < 2:
        raise DatasetTooSmallError(f"need at least 2 records to split, got {n}")
    indices = list(range(n))
    random.Random(spec.seed).shuffle(indices)
    n_train = math.floor(spec.train_fraction * n + 0.5)
    train_indices = sorted(indices[:n_train])
    test_indices = sorted(indices[n_train:])
    return [dataset[i] for i in train_indices], [dataset[i] for i in test_indices]


# --- integer-coded datasets ------------------------------------------------------

CLASS_INDEX = {c: i for i, c in enumerate(CLASSES)}  # each class's position in CLASSES
_CLASS_BITS = 3  # a joint code is value << 3 | class index: six classes fit
_CLASS_MASK = (1 << _CLASS_BITS) - 1


class Dataset:
    """The four features and the class of records, as integer columns.

    ``values[f]`` lists feature f's values in canonical order (locations
    sorted), ``codes[f]`` maps each value to its position there, and
    ``columns[f][i]`` is record i's position. ``labels[i]`` is record i's
    class as an index into ``CLASSES``; ``joint[f][i]`` packs both as
    ``value << 3 | label``. ``rows`` lists the records a dataset holds, in
    order: a subset shares every column and keeps its own ``rows``.
    """

    __slots__ = ("values", "codes", "columns", "labels", "joint", "rows")

    def __init__(self, values, codes, columns, labels, joint, rows):
        self.values = values
        self.codes = codes
        self.columns = columns
        self.labels = labels
        self.joint = joint
        self.rows = rows

    @classmethod
    def from_records(cls, records: Sequence[UnifiedCrimeRecord]) -> "Dataset":
        labels = list(map(CLASS_INDEX.__getitem__, map(_crime_type, records)))
        values, codes, columns, joint = {}, {}, {}, {}
        for feature in FEATURES:
            attribute = ATTRIBUTES[feature]
            raw = list(map(attribute.read, records))
            values[feature] = attribute.order or tuple(sorted(set(raw)))
            codes[feature] = {v: i for i, v in enumerate(values[feature])}
            columns[feature] = list(map(codes[feature].__getitem__, raw))
            joint[feature] = [v << _CLASS_BITS | c for v, c in zip(columns[feature], labels)]
        return cls(values, codes, columns, labels, joint, range(len(records)))

    def __len__(self) -> int:
        return len(self.rows)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        """The records at ``indices`` (positions in this dataset), in that order."""
        rows = self.rows
        return Dataset(self.values, self.codes, self.columns, self.labels, self.joint,
                       [rows[i] for i in indices])


def as_dataset(data: Dataset | Sequence[UnifiedCrimeRecord]) -> Dataset:
    """What training and scoring run on: a record list is encoded once, here."""
    return data if isinstance(data, Dataset) else Dataset.from_records(data)


# --- Naive Bayes --------------------------------------------------------------

@dataclass(frozen=True)
class NaiveBayesModel:
    """Class priors plus per-feature conditional log-probability tables.

    For each feature f and class c the conditionals follow
    ``P(v|c,f) = (count(v,c,f) + alpha) / (count_c + alpha * (|vocab_f| + 1))``
    with the +1 slot reserved for values unseen in training, so the
    distribution over vocab plus the unseen slot sums to one exactly.
    """

    alpha: float
    classes: tuple[CrimeCategory, ...]
    log_prior: Mapping[CrimeCategory, float]
    vocab: Mapping[str, tuple[str, ...]]
    cond_log: Mapping[str, Mapping[CrimeCategory, Mapping[str, float]]]
    unseen_log: Mapping[str, Mapping[CrimeCategory, float]]


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def nb_train(train: Dataset | Sequence[UnifiedCrimeRecord], alpha: float = 1.0) -> NaiveBayesModel:
    if not train:
        raise EmptyTrainingSetError("cannot train Naive Bayes on an empty set")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    data = as_dataset(train)
    rows = data.rows
    n = len(rows)
    class_counts = Counter(map(data.labels.__getitem__, rows))
    log_prior = {c: _log(class_counts.get(k, 0) / n) for k, c in enumerate(CLASSES)}

    vocab: dict[str, tuple[str, ...]] = {}
    cond_log: dict[str, dict[CrimeCategory, dict[str, float]]] = {}
    unseen_log: dict[str, dict[CrimeCategory, float]] = {}
    for feature in FEATURES:
        joint = Counter(map(data.joint[feature].__getitem__, rows))
        codes = sorted({j >> _CLASS_BITS for j in joint})
        values = [data.values[feature][v] for v in codes]
        vocab[feature] = tuple(values)
        per_class: dict[CrimeCategory, dict[str, float]] = {}
        per_class_unseen: dict[CrimeCategory, float] = {}
        for k, c in enumerate(CLASSES):
            denominator = class_counts.get(k, 0) + alpha * (len(values) + 1)
            if denominator > 0:
                table = {
                    name: _log((joint.get(v << _CLASS_BITS | k, 0) + alpha) / denominator)
                    for v, name in zip(codes, values)
                }
                per_class_unseen[c] = _log(alpha / denominator)
            else:  # alpha == 0 and class absent: no mass anywhere
                table = {v: -math.inf for v in values}
                per_class_unseen[c] = -math.inf
            per_class[c] = table
        cond_log[feature] = per_class
        unseen_log[feature] = per_class_unseen

    return NaiveBayesModel(
        alpha=alpha,
        classes=CLASSES,
        log_prior=log_prior,
        vocab=vocab,
        cond_log=cond_log,
        unseen_log=unseen_log,
    )


def nb_class_scores(model: NaiveBayesModel, x: Features) -> dict[CrimeCategory, float]:
    """Unnormalized log-posterior score per class."""
    values = [(feature, feature_of(x, feature)) for feature in FEATURES]
    scores: dict[CrimeCategory, float] = {}
    for c in model.classes:
        score = model.log_prior[c]
        for feature, value in values:
            score += model.cond_log[feature][c].get(value, model.unseen_log[feature][c])
        scores[c] = score
    return scores


def _posterior_from_scores(scores: Mapping[CrimeCategory, float]) -> dict[CrimeCategory, float]:
    peak = max(scores.values())
    if peak == -math.inf:
        # Every class scored zero probability (possible only with alpha=0 and
        # unseen values); fall back to a uniform posterior.
        return {c: 1.0 / len(scores) for c in scores}
    weights = {c: math.exp(s - peak) for c, s in scores.items()}
    total = sum(weights.values())
    return {c: w / total for c, w in weights.items()}


def nb_predict(
    model: NaiveBayesModel, x: Features
) -> tuple[CrimeCategory, dict[CrimeCategory, float]]:
    """Most probable class (ties break to the lowest class id) and the posterior."""
    scores = nb_class_scores(model, x)
    best = model.classes[0]
    best_score = scores[best]
    for c in model.classes[1:]:
        if scores[c] > best_score:
            best, best_score = c, scores[c]
    return best, _posterior_from_scores(scores)


# --- decision tree -------------------------------------------------------------

def entropy(label_counts: Mapping[Hashable, int]) -> float:
    """Shannon entropy in bits of a label-count distribution (0*log0 = 0)."""
    if any(c < 0 for c in label_counts.values()):
        raise ValueError("counts must be non-negative")
    total = sum(label_counts.values())
    if total == 0:
        raise AllZeroCountsError("entropy of an empty distribution is undefined")
    return _bits(label_counts.values(), total)


def _bits(counts: Iterable[int], total: int) -> float:
    """``entropy`` of counts known to be non-negative and sum to ``total > 0``,
    summed in their order."""
    h = 0.0
    for count in counts:
        if count:
            p = count / total
            h -= p * math.log2(p)
    return h


@dataclass
class TreeLeaf:
    counts: dict[CrimeCategory, int]
    majority: CrimeCategory


@dataclass
class TreeSplit:
    feature: str
    value: str
    gain: float
    if_true: Union["TreeSplit", TreeLeaf]
    if_false: Union["TreeSplit", TreeLeaf]


@dataclass
class DecisionTree:
    """Binary predicate tree over the categorical features."""

    root: TreeSplit | TreeLeaf
    max_leaves: int

    def _nodes(self):
        """Every node in pre-order, true branch first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, TreeSplit):
                stack.append(node.if_false)
                stack.append(node.if_true)

    def leaves(self) -> list[TreeLeaf]:
        return [node for node in self._nodes() if isinstance(node, TreeLeaf)]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves())

    def splits(self) -> list[TreeSplit]:
        return [node for node in self._nodes() if isinstance(node, TreeSplit)]


def _majority(counts: Mapping[int, int]) -> int:
    return min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]


class _GrowNode:
    """Frontier bookkeeping during best-first growth."""

    __slots__ = ("rows", "counts", "creation", "best", "children")

    def __init__(self, data: Dataset, rows, creation):
        self.rows = rows
        self.counts = Counter(map(data.labels.__getitem__, rows))
        self.creation = creation
        self.best = _best_split(data, rows, self.counts)
        self.children: tuple | None = None  # (feature, value, gain, true_node, false_node)


def _best_split(data: Dataset, rows, counts):
    """Highest-gain (feature == value) predicate over ``data``'s records at
    ``rows`` (class index counts ``counts``), or None if no gain is positive.

    Ties break by feature order month < day < time < location, then by the
    feature's canonical value order (both enforced by iteration order with a
    strictly-greater comparison). A predicate already on the node's path is
    never chosen again: it holds for every record or for none.
    """
    parent_entropy = entropy(counts)
    if parent_entropy == 0.0:
        return None
    total = len(rows)
    parent = counts.items()
    best = None
    for feature in FEATURES:
        # Joint (value, class) codes counted in C. Each histogram keeps its
        # classes in first-seen order and the false side keeps the parent's,
        # so ``_bits`` sums every entropy in the per-record search's order.
        by_value: dict[int, dict[int, int]] = {}
        for joint, n in Counter(map(data.joint[feature].__getitem__, rows)).items():
            by_value.setdefault(joint >> _CLASS_BITS, {})[joint & _CLASS_MASK] = n
        for value in sorted(by_value):
            true_counts = by_value[value]
            n_true = sum(true_counts.values())
            if n_true == total:
                continue
            false_counts = [n - true_counts.get(label, 0) for label, n in parent]
            children = (n_true * _bits(true_counts.values(), n_true)
                        + (total - n_true) * _bits(false_counts, total - n_true))
            gain = parent_entropy - children / total
            if gain > 0.0 and (best is None or gain > best[0]):
                best = (gain, feature, data.values[feature][value])
    return best


def dt_train(train: Dataset | Sequence[UnifiedCrimeRecord], max_leaves: int = 10) -> DecisionTree:
    """Grow a tree best-first: always split the frontier leaf whose best
    predicate yields the largest information gain, until the leaf cap is hit
    or no split has positive gain. Equal gains go to the earlier-created leaf.
    """
    if not train:
        raise EmptyTrainingSetError("cannot train a decision tree on an empty set")
    if max_leaves < 2:
        raise ValueError(f"max_leaves must be >= 2, got {max_leaves}")

    data = as_dataset(train)
    creation = 0
    root = _GrowNode(data, data.rows, creation)
    frontier = [root]
    n_leaves = 1
    while n_leaves < max_leaves:
        splittable = [g for g in frontier if g.best is not None]
        if not splittable:
            break
        node = max(splittable, key=lambda g: (g.best[0], -g.creation))
        gain, feature, value = node.best
        column, code = data.columns[feature], data.codes[feature][value]
        true_rows = [i for i in node.rows if column[i] == code]
        false_rows = [i for i in node.rows if column[i] != code]
        true_child = _GrowNode(data, true_rows, creation + 1)
        false_child = _GrowNode(data, false_rows, creation + 2)
        creation += 2
        node.children = (feature, value, gain, true_child, false_child)
        frontier.remove(node)
        frontier.extend((true_child, false_child))
        n_leaves += 1

    def materialize(grow: _GrowNode) -> TreeSplit | TreeLeaf:
        if grow.children is None:
            counts = {CLASSES[label]: n for label, n in sorted(grow.counts.items())}
            return TreeLeaf(counts=counts, majority=CLASSES[_majority(grow.counts)])
        feature, value, gain, true_child, false_child = grow.children
        return TreeSplit(feature, value, gain, materialize(true_child), materialize(false_child))

    return DecisionTree(root=materialize(root), max_leaves=max_leaves)


def dt_predict(tree: DecisionTree, x: Features) -> CrimeCategory:
    """Route by equality predicates; unseen values fail every test and fall
    through to a valid leaf."""
    node = tree.root
    while isinstance(node, TreeSplit):
        node = node.if_true if feature_of(x, node.feature) == node.value else node.if_false
    return node.majority


def fit_model(model_kind: str, train: Dataset | Sequence[UnifiedCrimeRecord], *,
              alpha: float = 1.0, max_leaves: int = 10) -> NaiveBayesModel | DecisionTree:
    """Train the classifier that ``model_kind`` names: ``"nb"`` or ``"dt"``."""
    if model_kind not in ("nb", "dt"):
        raise ValueError(f"model_kind must be 'nb' or 'dt', got {model_kind!r}")
    return nb_train(train, alpha=alpha) if model_kind == "nb" else dt_train(train, max_leaves=max_leaves)


# --- model serialization --------------------------------------------------------

NB_SCHEMA = "nb-v1"
DT_SCHEMA = "dt-v1"


def _dump_log(value: float):
    return None if value == -math.inf else value


def _load_log(value) -> float:
    return -math.inf if value is None else float(value)


def nb_to_json_dict(model: NaiveBayesModel) -> dict:
    return {
        "schema": NB_SCHEMA,
        "alpha": model.alpha,
        "classes": [int(c) for c in model.classes],
        "log_prior": {str(int(c)): _dump_log(model.log_prior[c]) for c in model.classes},
        "vocab": {f: list(model.vocab[f]) for f in FEATURES},
        "cond_log": {
            f: {
                str(int(c)): {v: _dump_log(p) for v, p in model.cond_log[f][c].items()}
                for c in model.classes
            }
            for f in FEATURES
        },
        "unseen_log": {
            f: {str(int(c)): _dump_log(model.unseen_log[f][c]) for c in model.classes}
            for f in FEATURES
        },
    }


def nb_from_json_dict(obj: Mapping) -> NaiveBayesModel:
    if obj.get("schema") != NB_SCHEMA:
        raise ValueError(f"expected schema {NB_SCHEMA!r}, got {obj.get('schema')!r}")
    classes = tuple(CrimeCategory(i) for i in obj["classes"])
    return NaiveBayesModel(
        alpha=float(obj["alpha"]),
        classes=classes,
        log_prior={c: _load_log(obj["log_prior"][str(int(c))]) for c in classes},
        vocab={f: tuple(obj["vocab"][f]) for f in FEATURES},
        cond_log={
            f: {
                c: {v: _load_log(p) for v, p in obj["cond_log"][f][str(int(c))].items()}
                for c in classes
            }
            for f in FEATURES
        },
        unseen_log={
            f: {c: _load_log(obj["unseen_log"][f][str(int(c))]) for c in classes}
            for f in FEATURES
        },
    )


def _dt_node_to_json(node: TreeSplit | TreeLeaf) -> dict:
    if isinstance(node, TreeLeaf):
        return {
            "kind": "leaf",
            "counts": {str(int(c)): n for c, n in sorted(node.counts.items())},
            "class": int(node.majority),
        }
    return {
        "kind": "split",
        "feature": node.feature,
        "value": node.value,
        "gain": node.gain,
        "true": _dt_node_to_json(node.if_true),
        "false": _dt_node_to_json(node.if_false),
    }


def _dt_node_from_json(obj: Mapping) -> TreeSplit | TreeLeaf:
    if obj["kind"] == "leaf":
        counts = {CrimeCategory(int(k)): int(v) for k, v in obj["counts"].items()}
        return TreeLeaf(counts=counts, majority=CrimeCategory(int(obj["class"])))
    if obj["feature"] not in FEATURES:
        raise ValueError(f"unknown split feature {obj['feature']!r}")
    return TreeSplit(
        feature=obj["feature"],
        value=obj["value"],
        gain=float(obj["gain"]),
        if_true=_dt_node_from_json(obj["true"]),
        if_false=_dt_node_from_json(obj["false"]),
    )


def dt_to_json_dict(tree: DecisionTree) -> dict:
    return {"schema": DT_SCHEMA, "max_leaves": tree.max_leaves, "root": _dt_node_to_json(tree.root)}


def dt_from_json_dict(obj: Mapping) -> DecisionTree:
    if obj.get("schema") != DT_SCHEMA:
        raise ValueError(f"expected schema {DT_SCHEMA!r}, got {obj.get('schema')!r}")
    return DecisionTree(root=_dt_node_from_json(obj["root"]), max_leaves=int(obj["max_leaves"]))


def save_model(model: NaiveBayesModel | DecisionTree, fp: TextIO) -> None:
    obj = nb_to_json_dict(model) if isinstance(model, NaiveBayesModel) else dt_to_json_dict(model)
    json.dump(obj, fp, indent=2, sort_keys=True)
    fp.write("\n")


def load_model(fp: TextIO) -> NaiveBayesModel | DecisionTree:
    """Read a saved model; any malformed content raises ``ValueError``."""
    text = fp.read()  # undecodable bytes raise UnicodeDecodeError for the caller to name the file
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed model: {exc}") from None
    schema = obj.get("schema") if isinstance(obj, dict) else None
    if schema not in (NB_SCHEMA, DT_SCHEMA):
        raise ValueError(f"unknown model schema {schema!r}")
    try:
        return nb_from_json_dict(obj) if schema == NB_SCHEMA else dt_from_json_dict(obj)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"malformed {schema} model: {type(exc).__name__}: {exc}") from None
