"""Crime-type classifiers over the four categorical features.

Two predictors share the (month, day, time, location) feature space:

* a categorical Naive Bayes with Laplace-smoothed per-feature conditional
  tables and a reserved slot for values unseen in training, and
* a best-first binary decision tree using information gain, capped at a
  maximum number of leaves.

Both train on a ``Dataset``'s histogram: class counts plus each feature's
joint (value, class) counts. The tree is grown in ``growth``, which counts
only the smaller child of each split and breaks gain ties in feature, then
value order. Both are deterministic: identical training data and parameters
produce byte-identical serialized models.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from itertools import compress
from operator import attrgetter, sub
from typing import Hashable, Mapping, NamedTuple, Sequence, TextIO, Union

from .errors import CrimeMinerError
from .vocab import (
    ATTRIBUTES, MONTH_RANK, TIME_BIN_ORDER, WEEKDAY_RANK, CrimeCategory, TimeBin,
    UnifiedCrimeRecord,
)

FEATURES = ("month", "day", "time", "location")

CLASSES = tuple(CrimeCategory)
_crime_type = attrgetter("crime_type")


class FeatureVector:
    """Prediction-time crime features.

    Month, day, and time bin must be canonical values; the location may be
    any non-empty string (unseen locations are handled by smoothing in the
    Bayes model and by equality predicates failing in the tree).
    """

    __slots__ = ("month", "day", "time", "location")

    def __init__(self, month: str, day: str, time: TimeBin, location: str):
        if month not in MONTH_RANK:
            raise ValueError(f"unknown month {month!r}")
        if day not in WEEKDAY_RANK:
            raise ValueError(f"unknown weekday {day!r}")
        if not isinstance(time, TimeBin):
            raise ValueError(f"time must be a TimeBin, got {time!r}")
        if not location:
            raise ValueError("location must be non-empty")
        self.month = month
        self.day = day
        self.time = time
        self.location = location


# What the predictors read: a query vector (checked when built) or a unified
# record (checked when read from JSONL).
Features = Union[FeatureVector, UnifiedCrimeRecord]


def feature_of(x: Features, feature: str) -> str:
    return ATTRIBUTES[feature].read(x)


# --- train/test splitting ----------------------------------------------------

class SplitSpec:
    """Seeded shuffle-split parameters."""

    __slots__ = ("train_fraction", "seed")

    def __init__(self, train_fraction: float = 0.8, seed: int = 42):
        if not 0 < train_fraction < 1:
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        self.train_fraction = train_fraction
        self.seed = seed


def seeded_permutation(n: int, seed: int) -> list[int]:
    """``0..n-1`` shuffled by ``random.Random(seed)``: the order behind both the
    train/test split and the cross-validation folds."""
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    return indices


def split_train_test(dataset: Sequence, spec: SplitSpec) -> tuple[list, list]:
    """Partition by a seeded pseudo-random permutation.

    The train size is round-half-up(train_fraction * n); both sides keep the
    original dataset order. The same seed always yields the same partition.
    """
    n = len(dataset)
    if n < 2:
        raise CrimeMinerError(f"need at least 2 records to split, got {n}")
    indices = seeded_permutation(n, spec.seed)
    n_train = math.floor(spec.train_fraction * n + 0.5)
    train_indices = sorted(indices[:n_train])
    test_indices = sorted(indices[n_train:])
    return [dataset[i] for i in train_indices], [dataset[i] for i in test_indices]


# --- integer-coded datasets ------------------------------------------------------

CLASS_INDEX = {c: i for i, c in enumerate(CLASSES)}  # each class's position in CLASSES
N_CLASSES = len(CLASSES)  # a joint code is value * N_CLASSES + class index
# Time bins are coded from the members: Enum's ``value`` property is slow.
_MEMBER_CODES = {"time": {b: i for i, b in enumerate(TIME_BIN_ORDER)}}


class Dataset:
    """The four features and the class of records, as integer columns.

    ``values[f]`` lists feature f's values in canonical order (locations
    sorted), ``codes[f]`` maps each value to its position there, and
    ``columns[f][i]`` is record i's position. ``labels[i]`` is record i's
    class as an index into ``CLASSES``; ``joint[f][i]`` packs both as
    ``value * 6 + label``. ``rows`` lists the records a dataset holds, in
    order: a subset shares every column and keeps its own ``rows``.
    """

    __slots__ = ("values", "codes", "columns", "labels", "joint", "rows", "_histogram")

    def __init__(self, values, codes, columns, labels, joint, rows, histogram=None):
        self.values = values
        self.codes = codes
        self.columns = columns
        self.labels = labels
        self.joint = joint
        self.rows = rows
        self._histogram = histogram

    @classmethod
    def from_records(cls, records: Sequence[UnifiedCrimeRecord]) -> "Dataset":
        labels = list(map(CLASS_INDEX.__getitem__, map(_crime_type, records)))
        values, codes, columns, joint = {}, {}, {}, {}
        for feature in FEATURES:
            raw = list(map(attrgetter(feature), records))  # time: the ``TimeBin`` members
            values[feature] = ATTRIBUTES[feature].order or tuple(sorted(set(raw)))
            codes[feature] = {v: i for i, v in enumerate(values[feature])}
            columns[feature] = list(map(_MEMBER_CODES.get(feature, codes[feature]).__getitem__, raw))
            joint[feature] = [v * N_CLASSES + c for v, c in zip(columns[feature], labels)]
        return cls(values, codes, columns, labels, joint, list(range(len(records))))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def histogram(self) -> tuple[list[int], ...]:
        """Class counts by class index, then each feature's counts indexed by
        ``joint`` code, of ``rows``: counted on first use unless given."""
        if self._histogram is None:
            self._histogram = count_histogram(self, self.rows)
        return self._histogram

    def subset(self, indices: Sequence[int], histogram=None) -> "Dataset":
        """The records at ``indices`` (positions in this dataset), in that
        order; ``histogram``, if given, must be theirs."""
        return Dataset(self.values, self.codes, self.columns, self.labels, self.joint,
                       list(map(self.rows.__getitem__, indices)), histogram)


def count_histogram(data: Dataset, rows) -> tuple[list[int], ...]:
    """``data``'s histogram (see ``Dataset.histogram``) of the records at ``rows``."""
    histogram = []
    for feature in FEATURES:
        counts = [0] * (len(data.values[feature]) * N_CLASSES)
        for code, n in Counter(map(data.joint[feature].__getitem__, rows)).items():
            counts[code] = n
        histogram.append(counts)
    day = histogram[1]  # summed over its values, any feature's counts give the class counts
    return ([sum(day[k::N_CLASSES]) for k in range(N_CLASSES)], *histogram)


def by_value(joint: list[int]) -> list[tuple[int, ...]]:
    """Each value's class counts, from one feature's histogram."""
    return list(zip(*[iter(joint)] * N_CLASSES))


def histogram_minus(whole: tuple[list[int], ...], part: tuple[list[int], ...]) -> tuple[list[int], ...]:
    """The histogram of some rows less that of a subset of them (LightGBM's
    histogram subtraction; Ke et al. 2017)."""
    return tuple(list(map(sub, w, p)) for w, p in zip(whole, part))


def as_dataset(data: Dataset | Sequence[UnifiedCrimeRecord]) -> Dataset:
    """What training and scoring run on: a record list is encoded once, here."""
    return data if isinstance(data, Dataset) else Dataset.from_records(data)


# --- Naive Bayes --------------------------------------------------------------

class NaiveBayesModel(NamedTuple):
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
        raise CrimeMinerError("cannot train Naive Bayes on an empty set")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    data = as_dataset(train)
    n = len(data)
    class_counts, *joints = data.histogram
    log_prior = {c: _log(class_counts[k] / n) for k, c in enumerate(CLASSES)}

    vocab: dict[str, tuple[str, ...]] = {}
    cond_log: dict[str, dict[CrimeCategory, dict[str, float]]] = {}
    unseen_log: dict[str, dict[CrimeCategory, float]] = {}
    for feature, joint in zip(FEATURES, joints):
        per_value = by_value(joint)
        codes = list(compress(range(len(per_value)), map(any, per_value)))
        values = [data.values[feature][v] for v in codes]
        vocab[feature] = tuple(values)
        per_class: dict[CrimeCategory, dict[str, float]] = {}
        per_class_unseen: dict[CrimeCategory, float] = {}
        for k, c in enumerate(CLASSES):
            denominator = class_counts[k] + alpha * (len(values) + 1)
            if denominator > 0:
                table = {
                    name: _log((per_value[v][k] + alpha) / denominator)
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
        raise CrimeMinerError("entropy of an empty distribution is undefined")
    from .growth import XLog2X
    return XLog2X().weighted_entropy(label_counts.values(), total) / total


class TreeLeaf(NamedTuple):
    counts: dict[CrimeCategory, int]
    majority: CrimeCategory


class TreeSplit(NamedTuple):
    feature: str
    value: str
    gain: float
    if_true: Union["TreeSplit", TreeLeaf]
    if_false: Union["TreeSplit", TreeLeaf]


class DecisionTree(NamedTuple):
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


def dt_train(train: Dataset | Sequence[UnifiedCrimeRecord], max_leaves: int = 10) -> DecisionTree:
    """Grow a tree best-first: always split the frontier leaf whose best
    predicate yields the largest information gain, until the leaf cap is hit
    or no split has positive gain. Equal gains go to the earlier-created leaf.
    """
    if not train:
        raise CrimeMinerError("cannot train a decision tree on an empty set")
    if max_leaves < 2:
        raise ValueError(f"max_leaves must be >= 2, got {max_leaves}")
    from .growth import grow  # loaded here: ``predict`` never trains
    return DecisionTree(root=grow(as_dataset(train), max_leaves), max_leaves=max_leaves)


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


def _field(value, *kinds):
    """A saved model's ``value``, which must be of one of ``kinds``, the JSON
    types ``save_model`` writes there: a bool or a string never stands in for a number."""
    if type(value) not in kinds:
        raise ValueError(f"expected {' or '.join(kind.__name__ for kind in kinds)}, got {value!r}")
    return value


def _exact(obj: Mapping, keys) -> Mapping:
    """``obj``, which must hold exactly the ``keys`` that ``save_model`` writes there."""
    if obj.keys() != keys:
        raise ValueError(f"expected keys {sorted(keys)}, got {sorted(obj)}")
    return obj


def _load_log(value) -> float:
    if type(value) is float:  # most values: one type test, as every ``predict`` loads them all
        return value
    return -math.inf if value is None else float(_field(value, float, int))


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


_NB_KEYS = {"schema", "alpha", "classes", "log_prior", "vocab", "cond_log", "unseen_log"}
_FEATURE_KEYS = set(FEATURES)


def nb_from_json_dict(obj: Mapping) -> NaiveBayesModel:
    if obj.get("schema") != NB_SCHEMA:
        raise ValueError(f"expected schema {NB_SCHEMA!r}, got {obj.get('schema')!r}")
    classes = tuple(CrimeCategory(_field(i, int)) for i in _exact(obj, _NB_KEYS)["classes"])
    if not classes or len(set(classes)) != len(classes):
        raise ValueError(f"classes must be distinct and non-empty, got {obj['classes']!r}")
    vocab, cond_log, unseen_log = (_exact(obj[key], _FEATURE_KEYS) for key in ("vocab", "cond_log", "unseen_log"))
    return NaiveBayesModel(
        alpha=float(_field(obj["alpha"], float, int)),
        classes=classes,
        log_prior={c: _load_log(obj["log_prior"][str(int(c))]) for c in classes},
        vocab={f: tuple(_field(v, str) for v in vocab[f]) for f in FEATURES},
        cond_log={
            f: {
                c: {v: _load_log(p) for v, p in cond_log[f][str(int(c))].items()}
                for c in classes
            }
            for f in FEATURES
        },
        unseen_log={
            f: {c: _load_log(unseen_log[f][str(int(c))]) for c in classes}
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


_CLASS_KEYS = {str(int(c)): c for c in CLASSES}  # the key each class is written under
_NODE_KEYS = {"leaf": {"kind", "counts", "class"}, "split": {"kind", "feature", "value", "gain", "true", "false"}}


def _dt_node_from_json(obj: Mapping) -> TreeSplit | TreeLeaf:
    """The node ``obj`` describes. A leaf holds what ``growth.grow`` gives one:
    positive counts, and the first class (by class id) of the largest count."""
    if obj["kind"] not in _NODE_KEYS:
        raise ValueError(f"unknown node kind {obj['kind']!r}")
    _exact(obj, _NODE_KEYS[obj["kind"]])
    if obj["kind"] == "leaf":
        counts = {_CLASS_KEYS[k]: _field(v, int) for k, v in obj["counts"].items()}
        majority = CrimeCategory(_field(obj["class"], int))
        if not counts or min(counts.values()) < 1 or majority != max(sorted(counts), key=counts.get):
            raise ValueError(f"a leaf needs positive counts and the first class of the largest count,"
                             f" got counts {obj['counts']!r} and class {obj['class']!r}")
        return TreeLeaf(counts=counts, majority=majority)
    if obj["feature"] not in FEATURES:
        raise ValueError(f"unknown split feature {obj['feature']!r}")
    return TreeSplit(
        feature=obj["feature"],
        value=_field(obj["value"], str),
        gain=float(_field(obj["gain"], float, int)),
        if_true=_dt_node_from_json(obj["true"]),
        if_false=_dt_node_from_json(obj["false"]),
    )


def dt_to_json_dict(tree: DecisionTree) -> dict:
    return {"schema": DT_SCHEMA, "max_leaves": tree.max_leaves, "root": _dt_node_to_json(tree.root)}


def dt_from_json_dict(obj: Mapping) -> DecisionTree:
    if obj.get("schema") != DT_SCHEMA:
        raise ValueError(f"expected schema {DT_SCHEMA!r}, got {obj.get('schema')!r}")
    root = _dt_node_from_json(_exact(obj, {"schema", "max_leaves", "root"})["root"])
    tree = DecisionTree(root=root, max_leaves=_field(obj["max_leaves"], int))
    if tree.max_leaves < max(2, tree.leaf_count):
        raise ValueError(f"max_leaves {tree.max_leaves} is below 2 or the tree's {tree.leaf_count} leaves")
    return tree


def save_model(model: NaiveBayesModel | DecisionTree, fp: TextIO) -> None:
    obj = nb_to_json_dict(model) if isinstance(model, NaiveBayesModel) else dt_to_json_dict(model)
    json.dump(obj, fp, indent=2, sort_keys=True)
    fp.write("\n")


def load_model(fp: TextIO) -> NaiveBayesModel | DecisionTree:
    """Read a saved model; any malformed content raises ``ValueError``. Each
    object must hold exactly the keys, and each value the JSON type, that
    ``save_model`` writes there, and a tree must be one ``dt_train`` can grow."""
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
    except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed {schema} model: {type(exc).__name__}: {exc}") from None
