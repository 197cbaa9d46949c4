"""Crime-type classifiers over the four categorical features: what
``predict`` needs, and nothing it does not run.

Two predictors share the (month, day, time, location) feature space:

* a categorical Naive Bayes with Laplace-smoothed per-feature conditional
  tables and a reserved slot for values unseen in training, and
* a best-first binary decision tree using information gain, capped at a
  maximum number of leaves.

This module holds the model types, their JSON and the two predictors. The
split, the integer-coded ``Dataset`` and training live in ``training`` (the
tree's growth in ``growth``). Training is deterministic: identical data and
parameters produce byte-identical serialized models.
"""

from __future__ import annotations

import json
import math
from typing import Mapping, NamedTuple, TextIO, Union

from .vocab import ATTRIBUTES, MONTH_RANK, WEEKDAY_RANK, CrimeCategory, TimeBin, UnifiedCrimeRecord

FEATURES = ("month", "day", "time", "location")

CLASSES = tuple(CrimeCategory)


def __getattr__(name: str):
    # Kept only for ``perfbench/tracer.py``, which wraps these three as ``classify.<name>``, until
    # ROADMAP item 1's benchmark change: they live in ``training``, which ``predict`` never loads.
    if name in ("nb_train", "dt_train", "split_train_test"):
        from . import training
        return getattr(training, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    return max(model.classes, key=scores.__getitem__), _posterior_from_scores(scores)  # max keeps the first


# --- decision tree -------------------------------------------------------------

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


def dt_predict(tree: DecisionTree, x: Features) -> CrimeCategory:
    """Route by equality predicates; unseen values fail every test and fall
    through to a valid leaf."""
    node = tree.root
    while isinstance(node, TreeSplit):
        node = node.if_true if feature_of(x, node.feature) == node.value else node.if_false
    return node.majority


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


def _load_table(table: Mapping) -> dict[str, float]:
    return {v: _load_log(p) for v, p in table.items()}


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
    keys = {str(int(c)): c for c in classes}  # the key each class is written under

    def by_class(table: Mapping, load) -> dict:
        """``load`` of ``table``'s entry for each class, which must be all it holds."""
        _exact(table, keys.keys())
        return {c: load(table[k]) for k, c in keys.items()}

    vocab, cond_log, unseen_log = (_exact(obj[key], _FEATURE_KEYS) for key in ("vocab", "cond_log", "unseen_log"))
    return NaiveBayesModel(
        alpha=float(_field(obj["alpha"], float, int)),
        classes=classes,
        log_prior=by_class(obj["log_prior"], _load_log),
        vocab={f: tuple(_field(v, str) for v in vocab[f]) for f in FEATURES},
        cond_log={f: by_class(cond_log[f], _load_table) for f in FEATURES},
        unseen_log={f: by_class(unseen_log[f], _load_log) for f in FEATURES},
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
